"""Exception hierarchy shared across the package, and the one settings checker.

One class per CLI exit code: ``ValidationError`` (configuration problems)
exits 2, ``NumericError`` (runtime/numeric failures) 3 and ``FileFormatError``
(file and data-format problems) 4. Each bounded setting declares its domain
once, in its dataclass field (``within``), and ``check_fields`` reads every
declaration.
"""

from __future__ import annotations

import dataclasses
import functools
import numbers
import sys
import typing


class DriftpoolError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(DriftpoolError, ValueError):
    """A configuration value, manifest field, or argument is out of range."""


class FileFormatError(DriftpoolError):
    """An input file is not in the format its reader expects."""


class NumericError(DriftpoolError):
    """A computation produced a non-finite value; the run must abort."""


# --- settings: each field declares its domain once, and one checker reads it ---

def within(domain: str | tuple, default: typing.Any = dataclasses.MISSING):
    """A dataclass field whose value must lie in ``domain``: an interval such as
    ``"(0, 1]"`` or ``"[1, inf)"``, or a tuple of the allowed values."""
    return dataclasses.field(default=default, metadata={"domain": domain})


@functools.cache
def field_types(cls: type) -> dict[str, tuple[type, bool]]:
    """(type, accepts None) of each field of a config dataclass, but for a field of a
    generic type such as ``tuple[...]``, which its class checks."""
    out = {}
    for name, hint in typing.get_type_hints(cls).items():
        optional = type(None) in typing.get_args(hint)  # `X | None` is the only union
        kind = typing.get_args(hint)[0] if optional else hint
        if isinstance(kind, type):
            out[name] = (kind, optional)
    return out


def check_value(name: str, value: typing.Any, kind: type, optional: bool = False,
                domain: str | tuple | None = None) -> None:
    """Raise ValidationError unless ``value`` is a ``kind`` (or None, if optional) in
    ``domain``; a float with no domain must be finite. Nothing is converted, so an int
    stays an int, and a float field takes an int only if a float can hold it."""
    if value is None:
        ok = optional
    elif isinstance(value, bool):
        ok = kind is bool
    elif kind is float and isinstance(value, numbers.Integral):
        ok = abs(value) <= sys.float_info.max
    else:  # numpy's scalars are registered as numbers.Integral and numbers.Real
        ok = isinstance(value, {int: numbers.Integral, float: numbers.Real}.get(kind, kind))
    if not ok:
        expected = f"{kind.__name__} or null" if optional else kind.__name__
        raise ValidationError(f"{name} must be {expected}, got {value!r}")
    if value is None or (domain is None and kind is not float):
        return
    if isinstance(domain, tuple):
        ok, bound = value in domain, f"one of {domain}"
    else:
        text = domain or "(-inf, inf)"
        low, high = (float(end) for end in text[1:-1].split(","))
        ok = ((low <= value) if text[0] == "[" else (low < value)) and (
            (value <= high) if text[-1] == "]" else (value < high))
        bound = f"in {domain}" if domain else "finite"
    if not ok:
        raise ValidationError(f"{name} must be {bound}, got {value!r}")


def check_fields(obj: typing.Any) -> None:
    """Check each field of a config dataclass instance against its declaration."""
    types = field_types(type(obj))
    for f in dataclasses.fields(obj):
        if f.name in types:
            check_value(f.name, getattr(obj, f.name), *types[f.name], f.metadata.get("domain"))
