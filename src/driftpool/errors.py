"""Exception hierarchy shared across the package.

The CLI maps these onto distinct exit codes: configuration problems are
exit 2, runtime/numeric failures exit 3, file and data-format problems
exit 4.
"""


class DriftpoolError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(DriftpoolError, ValueError):
    """A configuration value, manifest field, or argument is out of range."""


class SizingError(ValidationError):
    """A series is too short for the requested window/horizon split."""


class FileFormatError(DriftpoolError):
    """An input file is not in the format its reader expects."""


class ColumnNotFoundError(FileFormatError):
    """A requested column is absent from a delimited text file."""


class RowParseError(FileFormatError):
    """A cell in a delimited text file failed to parse as a finite number."""


class NumericError(DriftpoolError):
    """A computation produced a non-finite value; the run must abort."""
