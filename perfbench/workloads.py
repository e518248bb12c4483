"""Benchmark workloads: seeded input streams and run manifests.

The program under test only ever sees the files written here: one
``values.csv`` and one ``manifest.json`` per workload directory. The
streams are generated with numpy alone, so a change to the program's own
generator cannot change the benchmark's inputs.

The manifest names the CSV by a relative path and the program runs with
the workload directory as its working directory, so ``results.json``
(which echoes the manifest) is byte-identical wherever the checkout is.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NOISE_SIGMA = 0.25
PERIOD = 24

# Many-concept stream: 24 levels 8 apart, each cycle visits every level
# once in a random order. 24 x 240 x 20 = 115,200 points. The order is drawn
# from a fixed seed, so every --seed runs the same scenario (the same level
# jumps, hence about the same splits, pool sizes and error) and --seed
# draws the noise; with a per-seed order, mean_mse alone spread by ~14%
# between seeds.
WIDE_CONCEPTS = 24
WIDE_LEVEL_STEP = 8.0
WIDE_SEGMENT = 240
WIDE_CYCLES = 20
WIDE_ORDER_SEED = 20250617


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; why each exists is recorded in BENCHMARK.json."""

    name: str
    stream: str  # "recurring" or "wide"
    manifest: dict


CSV_DATA = {"kind": "csv", "path": "values.csv", "column": "value", "has_header": True}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="warm-recurring",
            stream="recurring",
            manifest={
                "lookback": 60, "horizon": 30, "forecaster": "linear", "lr_raw": 0.025,
                "warm_epochs": 5, "normalize": "warm_segment", "cep": {},
            },
        ),
        Workload(
            name="online-wide-pool",
            stream="wide",
            manifest={
                "lookback": 60, "horizon": 5, "forecaster": "linear", "lr_raw": 0.01,
                "warm_epochs": 1, "normalize": "warm_segment", "cep": {"elimination": False},
            },
        ),
        Workload(
            name="online-churn",
            stream="wide",
            manifest={
                "lookback": 60, "horizon": 5, "forecaster": "mlp", "lr_raw": None,
                "warm_epochs": 1, "normalize": "warm_segment",
                "cep": {"retrieval_score": "mle"},
            },
        ),
    )
}


def _render(levels: np.ndarray, amplitude: float, schedule: list[tuple[int, int]],
            rng: np.random.Generator) -> np.ndarray:
    """level + amplitude * sin(2 pi i / PERIOD) + N(0, NOISE_SIGMA) per scheduled segment."""
    total = sum(d for _, d in schedule)
    values = np.empty(total)
    pos = 0
    for idx, dur in schedule:
        i = np.arange(pos, pos + dur, dtype=float)
        base = levels[idx] + amplitude * np.sin(2.0 * math.pi * i / PERIOD)
        values[pos:pos + dur] = base + rng.normal(0.0, NOISE_SIGMA, dur)
        pos += dur
    return values


def recurring_stream(seed: int) -> np.ndarray:
    """Three concepts at levels 0 / 8 / -8 scheduled A-B-A-C-B-A, 3,000 points each."""
    rng = np.random.default_rng(seed)
    schedule = [(k, 3000) for k in (0, 1, 0, 2, 1, 0)]
    return _render(np.array([0.0, 8.0, -8.0]), 1.0, schedule, rng)


def wide_stream(seed: int) -> np.ndarray:
    """WIDE_CONCEPTS levels, WIDE_CYCLES cycles, each a random permutation of all levels."""
    order = np.random.default_rng(WIDE_ORDER_SEED)
    levels = WIDE_LEVEL_STEP * (np.arange(WIDE_CONCEPTS) - (WIDE_CONCEPTS - 1) / 2.0)
    schedule = [(int(k), WIDE_SEGMENT)
                for _ in range(WIDE_CYCLES) for k in order.permutation(WIDE_CONCEPTS)]
    return _render(levels, 1.0, schedule, np.random.default_rng(seed))


def manifest_for(workload: Workload, seed: int) -> dict:
    """The JSON manifest handed to `driftpool run --manifest`."""
    return {"data": dict(CSV_DATA), "seed": seed, **workload.manifest}


def write_inputs(workload: Workload, seed: int, directory: Path) -> int:
    """Write values.csv and manifest.json into ``directory``; return the point count."""
    directory.mkdir(parents=True, exist_ok=True)
    values = recurring_stream(seed) if workload.stream == "recurring" else wide_stream(seed)
    with open(directory / "values.csv", "w", encoding="utf-8") as fh:
        fh.write("value\n")
        fh.writelines(f"{float(v):.17g}\n" for v in values)
    with open(directory / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest_for(workload, seed), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return len(values)
