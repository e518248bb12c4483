"""Series ingestion, synthetic recurring-concept streams, normalization.

The synthetic generator emits piecewise-stationary sine-plus-noise
segments according to a schedule over a small set of named concepts,
and keeps the true concept index of every point so routing quality can
be measured after a run.
"""

from __future__ import annotations

import csv
import math
import numbers
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ColumnNotFoundError,
    FileFormatError,
    NumericError,
    RowParseError,
    ValidationError,
)


@dataclass(frozen=True)
class SeriesSource:
    """A univariate series plus where it came from."""

    values: np.ndarray
    name: str
    origin: str

    @property
    def n(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class ConceptSpec:
    """One stationary regime: level + amplitude * sin(2*pi*i/period) + noise."""

    level: float
    amplitude: float = 1.0
    period: int = 24
    noise_sigma: float = 0.0


@dataclass(frozen=True)
class SyntheticSpec:
    """Concept definitions plus a (concept index, duration) schedule."""

    concepts: tuple[ConceptSpec, ...]
    schedule: tuple[tuple[int, int], ...]
    seed: int = 0

    def __post_init__(self):
        if not self.concepts:
            raise ValidationError("at least one concept is required")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        for c in self.concepts:
            for name, v in vars(c).items():
                if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v):
                    raise ValidationError(f"concept {name} must be a finite number, got {v!r}")
            if c.period < 1:
                raise ValidationError(f"period must be >= 1, got {c.period}")
            if c.noise_sigma < 0:
                raise ValidationError(f"noise_sigma must be >= 0, got {c.noise_sigma}")
        if not self.schedule:
            raise ValidationError("schedule must have at least one segment")
        for idx, dur in self.schedule:
            if not 0 <= idx < len(self.concepts):
                raise ValidationError(f"schedule references unknown concept {idx}")
            if dur < 1:
                raise ValidationError(f"segment duration must be >= 1, got {dur}")

    @property
    def total_points(self) -> int:
        return sum(dur for _, dur in self.schedule)


@dataclass(frozen=True)
class LabeledStream:
    """Generated values with the true concept index of every point."""

    values: np.ndarray
    labels: np.ndarray

    def source(self, name: str = "synthetic", seed: int | None = None) -> SeriesSource:
        origin = f"synthetic(seed={seed})" if seed is not None else "synthetic"
        return SeriesSource(values=self.values, name=name, origin=origin)


def spec_from_dict(d: dict) -> SyntheticSpec:
    """Parse the JSON form of a spec: concept objects, [index, duration] pairs, a seed."""
    try:
        concepts = tuple(ConceptSpec(**c) for c in d["concepts"])
        schedule = tuple((int(i), int(n)) for i, n in d["schedule"])
        seed = int(d.get("seed", 0))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad synthetic spec: {exc}") from exc
    return SyntheticSpec(concepts=concepts, schedule=schedule, seed=seed)


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


def generate(spec: SyntheticSpec) -> LabeledStream:
    """Materialize a spec into values and labels, deterministically per seed."""
    rng = np.random.default_rng(spec.seed)
    total = spec.total_points
    values = np.empty(total)
    labels = np.empty(total, dtype=np.int64)
    pos = 0
    for idx, dur in spec.schedule:
        c = spec.concepts[idx]
        i = np.arange(pos, pos + dur, dtype=float)
        base = c.level + c.amplitude * np.sin(2.0 * math.pi * i / c.period)
        values[pos:pos + dur] = base + rng.normal(0.0, c.noise_sigma, dur)
        labels[pos:pos + dur] = idx
        pos += dur
    return LabeledStream(values=values, labels=labels)


@contextmanager
def open_text(path: str | Path, newline: str | None = None):
    """A UTF-8 text file opened for reading; a byte that is not UTF-8 names the file."""
    with open(path, encoding="utf-8", newline=newline) as fh:
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


def load_csv(path: str | Path, column: str, has_header: bool = True) -> SeriesSource:
    """One named (or zero-based indexed) column of a comma-separated file.

    Every selected cell must parse as a finite number; the first bad row
    aborts the load, naming the file and its 1-based line number.
    """
    path = Path(path)
    with open_text(path, newline="") as fh:
        rows = list(csv.reader(fh))

    col_idx: int
    start = 0
    if has_header:
        if not rows:
            raise ColumnNotFoundError(f"{path}: file is empty, column {column!r} not found")
        header = [h.strip() for h in rows[0]]
        start = 1
        if column in header:
            col_idx = header.index(column)
        elif column.lstrip("-").isdigit() and 0 <= int(column) < len(header):
            col_idx = int(column)
        else:
            raise ColumnNotFoundError(
                f"{path}: column {column!r} not found; available: {header}"
            )
    else:
        if not column.lstrip("-").isdigit():
            raise ColumnNotFoundError(
                f"{path}: headerless file needs a zero-based column index, got {column!r}"
            )
        col_idx = int(column)
        if col_idx < 0:
            raise ColumnNotFoundError(f"{path}: column index must be >= 0, got {col_idx}")

    values: list[float] = []
    for line_no, row in enumerate(rows[start:], start=start + 1):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue  # blank line, typically a trailing newline
        if col_idx >= len(row):
            raise RowParseError(f"{path}: row {line_no}: only {len(row)} fields, "
                                f"need column {col_idx}")
        cell = row[col_idx].strip()
        try:
            v = float(cell)
        except ValueError:
            raise RowParseError(
                f"{path}: row {line_no}: cannot parse {cell!r} as a number") from None
        if not math.isfinite(v):
            raise RowParseError(f"{path}: row {line_no}: non-finite value {cell!r}")
        values.append(v)

    return SeriesSource(
        values=np.asarray(values), name=str(column), origin=f"file:{path}#{column}",
    )


def write_column_csv(path: str | Path, values: np.ndarray, name: str = "value",
                     fmt: str = "%.17g") -> None:
    """Write one column under a header, a cell per value formatted with ``fmt``.

    The default, 17 significant digits, round-trips floats; ``"%d"`` writes
    integer labels.
    """
    line = fmt + "\n"
    with atomic_open(path, newline="") as fh:
        fh.writelines([f"{name}\n", *map(line.__mod__, np.asarray(values).tolist())])


def normalize(source: SeriesSource, stats_from: str = "warm_segment"
              ) -> tuple[SeriesSource, float, float]:
    """Z-normalize; stats come from the warm segment (leakage-safe) or the whole series."""
    if stats_from not in ("warm_segment", "whole"):
        raise ValidationError(f"stats_from must be warm_segment or whole, got {stats_from!r}")
    values = source.values
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
    out = SeriesSource(
        values=(values - mean) / std,
        name=source.name,
        origin=f"{source.origin}|z({stats_from})",
    )
    return out, mean, std
