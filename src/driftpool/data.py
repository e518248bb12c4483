"""Series ingestion, synthetic recurring-concept streams, normalization.

A series is a plain float ndarray: ``load_csv`` returns one, ``normalize``
maps one to another, and ``generate`` returns one with the true concept
index of every point, so routing quality can be measured after a run.
"""

from __future__ import annotations

import csv
import io
import math
import os
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (FileFormatError, NumericError, ValidationError, check_fields, check_value,
                     within)


@dataclass(frozen=True)
class ConceptSpec:
    """One stationary regime: level + amplitude * sin(2*pi*i/period) + noise."""

    level: float
    amplitude: float = 1.0
    period: float = within("[1, inf)", 24)
    noise_sigma: float = within("[0, inf)", 0.0)

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class SyntheticSpec:
    """Concept definitions plus a (concept index, duration) schedule."""

    concepts: tuple[ConceptSpec, ...]
    schedule: tuple[tuple[int, int], ...]
    seed: int = within("[0, inf)", 0)

    def __post_init__(self):
        check_fields(self)
        for concept in self.concepts:
            check_value("concept", concept, ConceptSpec)
        if not self.schedule:
            raise ValidationError("schedule must have at least one segment")
        for idx, dur in self.schedule:
            check_value("schedule index", idx, int)
            if not 0 <= idx < len(self.concepts):
                raise ValidationError(f"schedule references unknown concept {idx}")
            check_value("segment duration", dur, int, domain="[1, inf)")

    @property
    def total_points(self) -> int:
        return sum(dur for _, dur in self.schedule)


def spec_from_dict(d: dict) -> SyntheticSpec:
    """Parse the JSON form of a spec: concept objects, [index, duration] pairs, a seed;
    the only other key is kind, which may be absent but otherwise reads "synthetic"."""
    try:
        unknown = d.keys() - {"kind", "concepts", "schedule", "seed"}
        if unknown:
            raise ValueError(f"unknown keys {sorted(unknown)}")
        if d.get("kind", "synthetic") != "synthetic":
            raise ValueError(f"kind must be 'synthetic', got {d['kind']!r}")
        concepts = tuple(ConceptSpec(**c) for c in d["concepts"])
        schedule = tuple((i, n) for i, n in d["schedule"])
        return SyntheticSpec(concepts=concepts, schedule=schedule, seed=d.get("seed", 0))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:  # a ValidationError too
        raise ValidationError(f"bad synthetic spec: {exc}") from exc


def warm_split_index(n: int) -> int:
    """Number of leading points reserved for the warm-up stage (a 25:75 split)."""
    return n // 4


def default_stream_spec(noise_sigma: float = 0.25, seed: int = 0,
                        segment: int = 3000) -> SyntheticSpec:
    """Three well-separated concepts scheduled A-B-A-C-B-A.

    Levels 0 / 8 / -8 with unit amplitude keep the window means many
    noise deviations apart, so splits and retrievals are unambiguous.
    """
    concepts = (
        ConceptSpec(level=0.0, amplitude=1.0, period=24, noise_sigma=noise_sigma),
        ConceptSpec(level=8.0, amplitude=1.0, period=24, noise_sigma=noise_sigma),
        ConceptSpec(level=-8.0, amplitude=1.0, period=24, noise_sigma=noise_sigma),
    )
    schedule = ((0, segment), (1, segment), (0, segment),
                (2, segment), (1, segment), (0, segment))
    return SyntheticSpec(concepts=concepts, schedule=schedule, seed=seed)


def generate(spec: SyntheticSpec) -> tuple[np.ndarray, np.ndarray]:
    """(values, labels) of a spec, deterministically per seed; labels are int64 indices."""
    rng = np.random.default_rng(spec.seed)
    total = spec.total_points
    try:
        values = np.empty(total)
        labels = np.empty(total, dtype=np.int64)
    except (ValueError, MemoryError):  # numpy refuses a size beyond its limits
        raise ValidationError(f"schedule must fit in memory, got {total} points") from None
    pos = 0
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite point is reported below
        for idx, dur in spec.schedule:
            c = spec.concepts[idx]
            i = np.arange(pos, pos + dur, dtype=float)
            base = c.level + c.amplitude * np.sin(2.0 * math.pi * i / c.period)
            values[pos:pos + dur] = base + rng.normal(0.0, c.noise_sigma, dur)
            labels[pos:pos + dur] = idx
            pos += dur
    bad = np.flatnonzero(~np.isfinite(values))
    if len(bad):
        raise NumericError(f"synthetic stream overflows: point {bad[0]} of concept "
                           f"{labels[bad[0]]} is {float(values[bad[0]])!r}")
    return values, labels


@contextmanager
def open_text(path: str | Path, newline: str | None = None):
    """A UTF-8 text file opened for reading, one leading byte-order mark (U+FEFF)
    dropped; a byte that is not UTF-8 names the file."""
    with open(path, encoding="utf-8-sig", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise FileFormatError(f"{path}: not UTF-8 text: {exc}") from None


@contextmanager
def atomic_open(path: str | Path, newline: str | None = None):
    """Write ``path`` through a temporary file beside it, moved into place on success."""
    tmp = Path(path).with_name(f".{Path(path).name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_csv(path: str | Path, column: str, has_header: bool = True) -> np.ndarray:
    """One named (or zero-based indexed) column of a comma-separated file, as floats.

    The file is UTF-8 text, a single leading byte-order mark (U+FEFF) is
    dropped, and cells follow Python's ``csv`` rules: quoting, CRLF or CR line
    ends, blank lines skipped. Every selected cell must parse with ``float()``,
    surrounding whitespace allowed, to a finite number; the first bad row
    (a cell that does not parse, a short row, or a ``csv`` error such as a
    cell over ``csv.field_size_limit()``) aborts the load, naming the file and
    its 1-based row number.
    """
    path = Path(path)
    with open_text(path, newline="") as fh:
        text = fh.read()
    values = _plain_column(path, text, column, has_header)
    return values if values is not None else _checked_column(path, text, column, has_header)


def _rows(path: Path, text: str) -> Iterator[tuple[int, list[str]]]:
    """(1-based row number, cells) of each row of ``text``, read lazily by ``csv``."""
    line_no = 0
    try:
        for line_no, row in enumerate(csv.reader(io.StringIO(text, newline="")), start=1):
            yield line_no, row
    except csv.Error as exc:
        raise FileFormatError(f"{path}: row {line_no + 1}: {exc}") from None


def _column_index(path: Path, header: list[str] | None, column: str, has_header: bool) -> int:
    """Resolve ``column`` against a file's header row (None: the file is empty): a
    header name first, then a zero-based index; a headerless file takes only an index,
    an optional ``-`` followed by decimal digits."""
    try:  # the test keeps out spaces, "+" and "_", which int() would take
        index = int(column) if column.removeprefix("-").isdecimal() else None
    except ValueError:  # past int()'s digit limit: more columns than any file has
        index = None
    if has_header:
        if header is None:
            raise FileFormatError(f"{path}: file is empty, column {column!r} not found")
        header = [h.strip() for h in header]
        if column in header:
            return header.index(column)
        if index is not None and 0 <= index < len(header):
            return index
        raise FileFormatError(f"{path}: column {column!r} not found; available: {header}")
    if index is None:
        raise FileFormatError(
            f"{path}: headerless file needs a zero-based column index, got {column!r}"
        )
    if index < 0:
        raise FileFormatError(f"{path}: column index must be >= 0, got {index}")
    return index


def _plain_column(path: Path, text: str, column: str, has_header: bool) -> np.ndarray | None:
    """The column parsed in bulk, or None, which hands the text to ``_checked_column``.

    Only plain text is split here: text with a quote, a CR or a blank first line
    splits otherwise under ``csv``'s rules. Any fault (an unknown column, a line
    over the ``csv`` field limit, a blank or short row, a cell ``float()`` rejects
    or reads as non-finite) also returns None, so that the checked loop reports it.
    """
    if not text or text[0] == "\n" or '"' in text or "\r" in text:
        return None
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()  # the final line end
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, lines)) > limit:
        return None
    try:
        col_idx = _column_index(path, lines[0].split(","), column, has_header)
    except FileFormatError:
        return None
    cells = lines[has_header:]
    if "," in text:
        try:
            cells = [line.split(",")[col_idx] for line in cells]
        except IndexError:
            return None
    elif col_idx != 0:
        return None
    try:
        values = np.fromiter(map(float, cells), float, len(cells))
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def _checked_column(path: Path, text: str, column: str, has_header: bool) -> np.ndarray:
    rows = _rows(path, text)
    col_idx = _column_index(path, next(rows, (0, None))[1] if has_header else None, column,
                            has_header)
    values: list[float] = []
    for line_no, row in rows:
        if not row or (len(row) == 1 and not row[0].strip()):
            continue  # blank line, typically a trailing newline
        if col_idx >= len(row):
            raise FileFormatError(f"{path}: row {line_no}: only {len(row)} fields, "
                                  f"need column {col_idx}")
        cell = row[col_idx].strip()
        try:
            v = float(cell)
        except ValueError:
            raise FileFormatError(
                f"{path}: row {line_no}: cannot parse {cell!r} as a number") from None
        if not math.isfinite(v):
            raise FileFormatError(f"{path}: row {line_no}: non-finite value {cell!r}")
        values.append(v)
    return np.asarray(values)


def write_column_csv(path: str | Path, values: np.ndarray, name: str = "value",
                     fmt: str = "%.17g") -> None:
    """Write one column under a header, a cell per value formatted with ``fmt``.

    The default, 17 significant digits, round-trips floats; ``"%d"`` writes
    integer labels.
    """
    line = fmt + "\n"
    with atomic_open(path, newline="") as fh:
        fh.writelines([f"{name}\n", *map(line.__mod__, np.asarray(values).tolist())])


def normalize(values: np.ndarray, stats_from: str = "warm_segment"
              ) -> tuple[np.ndarray, float, float]:
    """Z-normalize to (series, mean, std), so series * std + mean undoes it; the stats
    come from the warm segment (leakage-safe) or the whole series."""
    if stats_from not in ("warm_segment", "whole"):
        raise ValidationError(f"stats_from must be warm_segment or whole, got {stats_from!r}")
    seg = values[: warm_split_index(len(values))] if stats_from == "warm_segment" else values
    if len(seg) == 0:
        raise ValidationError("normalization segment is empty")
    with np.errstate(over="ignore"):  # an overflow is reported below, naming the segment
        mean, std = float(seg.mean()), float(seg.std())
    if not (math.isfinite(mean) and math.isfinite(std)):
        raise NumericError(f"{stats_from} segment moments overflow (mean={mean!r}, "
                           f"std={std!r}), cannot normalize")
    if std <= 0.0:
        raise ValidationError(f"zero-variance {stats_from} segment, cannot normalize")
    return (values - mean) / std, mean, std
