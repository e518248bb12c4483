"""Benchmark of the driftpool streaming loop, one workload per invocation.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --smoke           # every workload once, self-check
    python3 perfbench/run.py --record-golden   # rewrite perfbench/golden.json

Run from the root of a checkout. Each measured run is one
``driftpool run --manifest manifest.json`` in a fresh interpreter (import,
manifest, CSV load, normalize, split, warm-up, online loop, bundle write),
driven by perfbench/child.py. Runs go one at a time, each a single process
with BLAS limited to one thread. An untraced invocation repeats rounds of a
full run and a setup-only run until ``--seconds`` is used up (at least
MIN_ROUNDS rounds); every metric is the median over the runs, with times
in reference seconds: wall time corrected for the machine's drifting speed
by a kernel that child.py times every 20 ms (see RefClock).

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced runs and prints the per-layer metrics.

Every run's results.json is checked: bundle invariants, byte-identical
results across the runs of one invocation (and between traced and untraced
runs), and, for the seeds recorded in golden.json, the recorded sha256,
mean_mse and counts. A run that fails any check is counted in ``failed``
and is not timed. The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
GOLDEN = HERE / "golden.json"
BENCHMARK = ROOT / "BENCHMARK.json"

from workloads import WORKLOADS, Workload, manifest_for, write_inputs

MIN_ROUNDS = 3
INVOCATION_BUDGET_S = 165.0
CAL_REF_S = 3.5e-4  # the reference kernel's time on the reference machine (see RefClock)
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
TAIL_LADDER = (99.0, 97.5, 95.0, 90.0, 75.0, 50.0)
GOLDEN_SEEDS = (0, 1)  # 0 is the default seed, 1 the held-out one


class CheckFailed(Exception):
    pass


def check(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# --- statistics ---------------------------------------------------------------

def percentile(sorted_vals: list[float], pct: float) -> float:
    """Linear-interpolated percentile of an already sorted list."""
    pos = (len(sorted_vals) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def tail_pct(n: int) -> float:
    """Highest percentile of the ladder with at least ten samples beyond it."""
    for pct in TAIL_LADDER:
        if n * (100.0 - pct) / 100.0 >= 10:
            return pct
    return 50.0


# --- correctness gate ---------------------------------------------------------

def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_bundle(out: Path, manifest: dict, n_points: int) -> dict:
    """Check one bundle against the protocol; return its digest and counts."""
    with open(out / "results.json", encoding="utf-8") as fh:
        bundle = json.load(fh)
    echo = bundle["manifest"]
    for key, value in manifest.items():
        if key == "cep":
            for ck, cv in value.items():
                check(echo["cep"][ck] == cv, f"manifest echo cep.{ck}")
        else:
            check(echo[key] == value, f"manifest echo {key}")
    check(bundle["n_points"] == n_points, "n_points")

    lookback, horizon = manifest["lookback"], manifest["horizon"]
    warm_len = n_points // 4
    expected_t = list(range(warm_len, n_points - lookback - horizon + 1, horizon))
    records = bundle["records"]
    check([r["t"] for r in records] == expected_t, "online instances advance by the horizon")
    agg = bundle["aggregate"]
    check(agg["n_instances"] == len(records), "n_instances")
    mses = [r["mse"] for r in records]
    check(all(math.isfinite(m) and m >= 0.0 for m in mses), "finite non-negative mse")
    check(math.isclose(math.fsum(mses) / len(mses), agg["mean_mse"], rel_tol=1e-9),
          "mean_mse is the mean of the records")

    created = bundle["events"]["created"]
    eliminated = bundle["events"]["eliminated"]
    evolutions = sum(r["evolved"] for r in records)
    check(evolutions == agg["total_evolutions"] == len(created) - 1, "evolution count")
    removals = sum(len(r["eliminated_ids"]) for r in records)
    check(removals == agg["total_eliminations"] == len(eliminated), "elimination count")
    if not manifest["cep"].get("elimination", True):
        check(removals == 0, "no eliminations with elimination off")
    alive = {0}
    for r in records:
        if r["evolved"]:
            check(r["entry_id"] not in alive and r["entry_id"] > max(alive), "fresh split id")
            alive.add(r["entry_id"])
        check(r["entry_id"] in alive, "served by a live entry")
        for eid in r["eliminated_ids"]:
            check(eid in alive and eid != r["entry_id"], "eliminated a live, idle entry")
            alive.discard(eid)
        check(r["pool_size"] == len(alive), "pool size bookkeeping")
    check(agg["final_pool_size"] == len(alive), "final pool size")

    payload = {k: v for k, v in echo.items() if k != "out_dir"}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    check(bundle["config_hash"] == hashlib.sha256(blob).hexdigest(), "config hash")
    for name in ("instances.csv", "trajectories.csv"):
        with open(out / name, encoding="utf-8") as fh:
            check(sum(1 for _ in fh) == len(records) + 1, f"{name} rows")

    return {
        "sha256": sha256_file(out / "results.json"),
        "mean_mse": agg["mean_mse"],
        "n_instances": len(records),
        "total_evolutions": evolutions,
        "total_eliminations": removals,
        "final_pool_size": agg["final_pool_size"],
        "abandoned": sum(r["abandoned"] for r in records),
        "results_bytes": (out / "results.json").stat().st_size,
    }


# --- one run in a fresh interpreter ---------------------------------------------

class Bench:
    """The runs of one invocation on one workload and seed."""

    def __init__(self, workload: Workload, seed: int, deadline: float):
        self.deadline = deadline
        self.dir = WORK / f"{workload.name}-seed{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.n_points = write_inputs(workload, seed, self.dir)
        self.manifest = manifest_for(workload, seed)
        self.golden = load_golden().get(workload.name, {}).get(str(seed))
        self.reference: dict | None = None  # gate summary of the first good run
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.env = {**os.environ, **THREAD_ENV}
        self.env.pop("PYTHONPATH", None)
        # Fill the bytecode and file caches once, untimed; users do not pay it per run.
        # A failure here shows again, and is counted, in the first measured run.
        subprocess.run([sys.executable, "-c",
                        "import sys; sys.path.insert(0, sys.argv[1]); import driftpool.cli",
                        str(SRC)], env=self.env, capture_output=True, timeout=60)

    def run_once(self, mode: str) -> dict | None:
        """One run; returns its report with the gate summary, or None if it failed."""
        self.attempted += 1
        out = self.dir / f"out{self.attempted}"
        report_path = self.dir / f"report{self.attempted}.json"
        cmd = [sys.executable, str(HERE / "child.py"), str(SRC), out.name,
               report_path.name, mode]
        t_spawn = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=self.dir, env=self.env, capture_output=True,
                                  text=True, timeout=max(5.0, self.deadline - t_spawn))
            check(proc.returncode == 0,
                  f"exit code {proc.returncode}: {proc.stderr.strip()[-400:]}")
            with open(report_path, encoding="utf-8") as fh:
                report = json.load(fh)
            if mode == "setup":
                check("run_in" in report["marks"], "setup run reached engine.run")
            elif self.reference is None:
                summary = check_bundle(out, self.manifest, self.n_points)
                if self.golden is not None:
                    for key, value in self.golden.items():
                        check(summary[key] == value, f"golden {key}: {summary[key]} != {value}")
                self.reference = summary
            else:
                check(sha256_file(out / "results.json") == self.reference["sha256"],
                      "results.json differs from the invocation's first run")
            if mode != "trace":
                check(len(report["ticks"]) >= 4, "the calibrator ticked")
            if mode == "plain":
                check(len(report["steps"]) == 2 * self.reference["n_instances"],
                      "one timed online step per online instance")
        except (CheckFailed, subprocess.TimeoutExpired, OSError, KeyError, TypeError,
                ValueError) as exc:
            self.failed += 1
            self.errors.append(f"{mode} run {self.attempted}: {type(exc).__name__}: {exc}")
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)
            report_path.unlink(missing_ok=True)
        report["t_spawn"] = t_spawn
        report["run_s"] = report["t_done"] - t_spawn
        return report

    def repeat(self, modes: tuple[str, ...], seconds: float, min_rounds: int) -> list[dict]:
        """Run the modes in turn until ``seconds`` is spent (at least min_rounds rounds)."""
        reports: list[dict] = []
        start = time.perf_counter()
        rounds = 0
        round_s = 0.0
        while True:
            elapsed = time.perf_counter() - start
            if rounds >= min_rounds and elapsed + round_s > seconds:
                break
            if time.perf_counter() + round_s > self.deadline:
                break
            t0 = time.perf_counter()
            for mode in modes:
                report = self.run_once(mode)
                if report is not None:
                    report["round"] = rounds
                    reports.append(report)
            round_s = time.perf_counter() - t0
            rounds += 1
            if self.failed and not reports:
                break
        return reports


# --- metrics -------------------------------------------------------------------

class RefClock:
    """Maps one untraced run's clock stamps to reference seconds.

    child.py's Calibrator times a fixed kernel every 20 ms. Between two
    ticks the program ran at the speed the kernel showed at them, so a wall
    interval dt there counts dt * CAL_REF_S / d, with d the mean kernel time
    of the two ticks; before the first tick and after the last, the nearest
    tick's speed holds. Time inside ticks counts zero. A reference second is
    a second of a machine on which the kernel takes CAL_REF_S; the machine's
    drifting speed slows the program and the kernel alike and cancels out.
    """

    def __init__(self, report: dict):
        ticks = report["ticks"]
        w0, w1, c0, c1 = ticks[0::4], ticks[1::4], ticks[2::4], ticks[3::4]
        d = [b - a for a, b in zip(w0, w1)]
        self.kernel_s = d
        # Piece k runs from starts[k] to ends[k] at rates[k] reference s per wall s.
        self.starts = [report["t_spawn"], *w1]
        self.ends = [*w0, math.inf]
        self.rates = ([CAL_REF_S / d[0]]
                      + [2.0 * CAL_REF_S / (a + b) for a, b in zip(d, d[1:])]
                      + [CAL_REF_S / d[-1]])
        self.cum = [0.0]
        for a, b, r in zip(self.starts, self.ends[:-1], self.rates):
            self.cum.append(self.cum[-1] + (b - a) * r)
        # CPU seconds of the program between ticks, weighted the same way.
        cpu_pieces = zip([0.0, *c1], [*c0, report["cpu_done"]], self.rates)
        self.cpu_s = math.fsum((b - a) * r for a, b, r in cpu_pieces)

    def __call__(self, t: float) -> float:
        k = max(bisect.bisect_right(self.starts, t) - 1, 0)
        return self.cum[k] + (min(t, self.ends[k]) - self.starts[k]) * self.rates[k]


def run_figures(report: dict) -> dict:
    """One untraced full run's times in reference seconds."""
    ref = RefClock(report)
    m, steps = report["marks"], report["steps"]
    return {
        "run_s": ref(report["t_done"]),
        "run_cpu_s": ref.cpu_s,
        "setup_s": ref(m["run_in"]),
        "first_forecast_s": ref(steps[0]),
        "warm_s": ref(m["warm_up_out"]) - ref(m["warm_up_in"]),
        "steps": [ref(steps[i + 1]) - ref(steps[i]) for i in range(0, len(steps), 2)],
    }


def program_wall_s(report: dict) -> float:
    """Wall time of an untraced run less the time spent in calibrator ticks."""
    ticks = report["ticks"]
    return report["run_s"] - math.fsum(b - a for a, b in zip(ticks[0::4], ticks[1::4]))


def end_to_end(plain: list[dict], setups: list[dict], warm_steps: int) -> dict:
    """End-to-end metrics of an invocation's untraced runs: medians over runs.

    Times are in reference seconds (see RefClock); setup_s is the median
    over the full and the setup-only runs. The runs of one invocation make
    the same online steps, so each step's time is its median over the runs
    before the percentiles are taken: a spike that hit one run drops out.
    """
    median = statistics.median
    runs = [run_figures(r) for r in plain]
    per_step = sorted(median(col) for col in zip(*(f["steps"] for f in runs), strict=True))
    setup_s = median([f["setup_s"] for f in runs] + [RefClock(r)(r["marks"]["run_in"])
                                                      for r in setups])
    return {
        "run_s": median(f["run_s"] for f in runs),
        "run_cpu_s": median(f["run_cpu_s"] for f in runs),
        "setup_s": setup_s,
        "first_forecast_s": median(f["first_forecast_s"] for f in runs),
        "warmup_steps_per_s": warm_steps / median(f["warm_s"] for f in runs),
        "online_inst_per_s": median(len(f["steps"]) / math.fsum(f["steps"]) for f in runs),
        "online_step_p50_us": percentile(per_step, 50.0) * 1e6,
        "online_step_tail_us": percentile(per_step, tail_pct(len(per_step))) * 1e6,
        "peak_rss_mb": median(r["maxrss_kb"] / 1024.0 for r in plain),
    }


def wall_figures(plain: list[dict]) -> dict:
    """Plain wall-clock medians of the untraced runs, printed beside the metrics."""
    median = statistics.median
    return {
        "run_s": median(r["run_s"] for r in plain),
        "setup_s": median(r["marks"]["run_in"] - r["t_spawn"] for r in plain),
        "kernel_us": median(d for r in plain for d in RefClock(r).kernel_s) * 1e6,
    }


def per_layer(report: dict, summary: dict, epochs: int) -> dict:
    """Per-layer metrics of one traced run, from its spans."""
    names = report["names"]
    spans = report["spans"]
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls = {name: 0 for name in names}
    total = {name: 0.0 for name in names}
    self_time = {name: 0.0 for name in names}
    warm_steps = online_trains = 0
    for i, (nid, start, end, parent) in enumerate(spans):
        name = names[nid]
        calls[name] += 1
        total[name] += end - start
        self_time[name] += end - start - child_time[i]
        if name == "forecasters.train_step" and parent >= 0:
            parent_name = names[spans[parent][0]]
            warm_steps += parent_name == "engine.warm_up"
            online_trains += parent_name == "engine.online_step"

    def us(name):  # mean self time per call, in microseconds
        return self_time[name] / calls[name] * 1e6 if calls[name] else 0.0

    online = calls["engine.online_step"]
    step_s = sorted(end - start for nid, start, end, _ in spans
                    if names[nid] == "engine.online_step")
    sizes = report["pool_sizes"]
    served: dict[int, int] = {}
    for eid in report["entry_ids"]:
        served[eid] = served.get(eid, 0) + 1
    splits = [c["id"] for c in report["events_created"] if c["parent"] is not None]
    survived = sum(served.get(eid, 0) >= report["tau_safe"] for eid in splits)
    return {
        "forecasters.train_step_calls": calls["forecasters.train_step"],
        "forecasters.train_step_us": us("forecasters.train_step"),
        "forecasters.predict_us": us("forecasters.predict"),
        "forecasters.deep_clone_calls": calls["forecasters.deep_clone"],
        "forecasters.deep_clone_us": us("forecasters.deep_clone"),
        "forecasters.mse_us": us("forecasters.mse"),
        "gene.compute_gene_calls": calls["gene.compute_gene"],
        "gene.compute_gene_us": us("gene.compute_gene"),
        "gene.compute_gene_s": total["gene.compute_gene"],
        "pool.nearest_calls": calls["pool.nearest"],
        "pool.nearest_us": us("pool.nearest"),
        "pool.candidates_scanned": report["candidates"],
        "pool.ns_per_candidate": total["pool.nearest"] / report["candidates"] * 1e9,
        "pool.should_evolve_us": us("pool.should_evolve"),
        "pool.evolve_calls": calls["pool.evolve"],
        "pool.evolve_us": us("pool.evolve"),
        "pool.eliminate_stale_us": us("pool.eliminate_stale"),
        "pool.eliminated": summary["total_eliminations"],
        "pool.mark_selected_us": us("pool.mark_selected"),
        "pool.absorb_instance_us": us("pool.absorb_instance"),
        "pool.lr_tick_us": us("pool.lr_tick"),
        "pool.size_mean": statistics.fmean(sizes),
        "pool.size_max": max(sizes),
        "pool.split_survival": survived / len(splits) if splits else 1.0,
        "engine.split_instances_s": total["engine.split_instances"],
        "engine.instances": warm_steps // max(epochs, 1) + online,
        "engine.warm_up_s": total["engine.warm_up"],
        "engine.warm_steps": warm_steps,
        "engine.online_steps": online,
        "engine.online_step_self_us": us("engine.online_step"),
        "engine.online_step_p50_us": percentile(step_s, 50.0) * 1e6,
        "engine.abandon_ratio": (online - online_trains) / online,
        "manifest.load_manifest_s": total["manifest.load_manifest"],
        "manifest.build_bundle_s": total["manifest.build_bundle"],
        "manifest.write_bundle_s": total["manifest.write_bundle"],
        "manifest.results_bytes": summary["results_bytes"],
        "data.load_csv_s": total["data.load_csv"],
        "data.normalize_s": total["data.normalize"],
        "data.points": summary["n_points"],
        "cli.import_s": report["t_import1"] - report["t_import0"],
    }


COUNT_METRICS = (
    "forecasters.train_step_calls", "forecasters.deep_clone_calls", "gene.compute_gene_calls",
    "pool.nearest_calls", "pool.candidates_scanned", "pool.evolve_calls", "pool.eliminated",
    "pool.size_mean", "pool.size_max", "pool.split_survival", "engine.instances",
    "engine.warm_steps", "engine.online_steps", "engine.abandon_ratio",
)


def medians(rows: list[dict]) -> dict:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def expected_warm_steps(manifest: dict, n_points: int) -> int:
    """Stride-1 warm windows in the leading quarter of the series, times the epochs."""
    span = manifest["lookback"] + manifest["horizon"]
    return (n_points // 4 - span + 1) * manifest["warm_epochs"]


# --- command line -------------------------------------------------------------

def load_golden() -> dict:
    if not GOLDEN.is_file():
        return {}
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def load_spec() -> dict:
    with open(BENCHMARK, encoding="utf-8") as fh:
        return json.load(fh)


def environment(seconds: float, runs: int) -> dict:
    import numpy

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": affinity,
        "blas_threads": THREAD_ENV,
        "run_seconds": seconds,
        "runs": runs,
    }


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            min_rounds: int | None = None) -> dict:
    """Run one invocation; returns metrics, run counts, errors and the gate summary.

    Untraced rounds are a full run plus a setup-only run, so setup_s is the
    median of twice as many samples; traced rounds are an untraced and a
    traced full run.
    """
    deadline = time.perf_counter() + INVOCATION_BUDGET_S
    bench = Bench(workload, seed, deadline)
    warm_steps = expected_warm_steps(bench.manifest, bench.n_points)
    modes = ("plain", "trace") if trace else ("plain", "setup")
    if min_rounds is None:
        min_rounds = 1 if trace else MIN_ROUNDS
    reports = bench.repeat(modes, seconds, min_rounds)
    plain = [r for r in reports if r["mode"] == "plain"]
    traced = [r for r in reports if r["mode"] == "trace"]
    setups = [r for r in reports if r["mode"] == "setup"]
    summary = dict(bench.reference or {}, n_points=bench.n_points)
    metrics: dict = {}
    wall: dict = {}
    if plain:
        metrics = end_to_end(plain, setups, warm_steps)
        wall = wall_figures(plain)
        metrics["mean_mse"] = summary["mean_mse"]
    if trace and traced:
        layers = []
        for r in traced:
            row = per_layer(r, summary, bench.manifest["warm_epochs"])
            abandoned = round(row["engine.abandon_ratio"] * row["engine.online_steps"])
            if (row["engine.warm_steps"], row["engine.online_steps"], abandoned) != (
                    warm_steps, summary["n_instances"], summary["abandoned"]):
                bench.failed += 1
                bench.errors.append("traced warm/online/abandoned counts disagree with "
                                    "the input and the bundle")
                continue
            layers.append(row)
        if layers:
            counts = {k: layers[0][k] for k in COUNT_METRICS}
            if any({k: row[k] for k in COUNT_METRICS} != counts for row in layers):
                bench.failed += 1
                bench.errors.append("traced counts differ between runs")
            metrics = medians(layers)
            # Each traced run is paired with the untraced run just before it,
            # so a change in machine speed between rounds cancels out.
            plain_s = {r["round"]: program_wall_s(r) for r in plain}
            paired = [r["run_s"] - plain_s[r["round"]] for r in traced if r["round"] in plain_s]
            if paired:
                metrics["trace.overhead_s"] = statistics.median(paired)
    shutil.rmtree(bench.dir, ignore_errors=True)
    return {
        "ok": bool(plain) and (bool(traced) or not trace),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "errors": bench.errors,
        "metrics": metrics,
        "summary": summary,
        "env": environment(seconds, len(reports)),
        "runs": [[r["mode"], r["run_s"]] for r in reports],
        "wall": wall,
        "tail": {"percentile": tail_pct(summary.get("n_instances", 0)),
                 "steps": summary.get("n_instances")},
    }


def emit(result: dict, names: list[dict]) -> int:
    """Print the detail lines and the final JSON result line."""
    for err in result["errors"]:
        print(f"FAILED {err}")
    print(json.dumps({"env": result["env"], "gate": result["summary"],
                      "runs_s": result["runs"], "wall": result["wall"],
                      "tail": result["tail"]}, sort_keys=True))
    metrics = result["metrics"]
    missing = [m["name"] for m in names if m["name"] not in metrics]
    if not result["ok"] or missing:
        print(f"no complete result; missing {missing}", file=sys.stderr)
        return 1
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in names}
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": out,
    }))
    return 0


def stresses_what_it_claims(name: str, m: dict) -> bool:
    """The property each workload exists for, read from its traced run."""
    if name == "warm-recurring":
        return m["engine.warm_steps"] >= 0.95 * m["forecasters.train_step_calls"]
    if name == "online-wide-pool":
        return m["pool.size_mean"] >= 40 and m["pool.candidates_scanned"] >= 500_000
    return m["pool.evolve_calls"] >= 200 and m["pool.size_max"] <= 8


def smoke(spec: dict) -> int:
    """Each workload once untraced and once traced; check names, units, gate, stress."""
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    for name, workload in WORKLOADS.items():
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = measure(workload, 0, 0.0, trace, min_rounds=1)
            problems += [f"{name}: {e}" for e in result["errors"]]
            metrics = result["metrics"]
            print(f"== {name} trace={int(trace)} runs={result['attempted']} "
                  f"failed_runs={result['failed'] / max(result['attempted'], 1):g} (share)")
            for m in spec[key]:
                value = metrics.get(m["name"])
                if value is None or not math.isfinite(value):
                    problems.append(f"{name}: metric {m['name']} missing")
                    continue
                print(f"  {m['name']:32s} {value:>16.6g} {m['unit']}")
            extra = set(metrics) - {m["name"] for m in spec[key]}
            if extra:
                problems.append(f"{name}: metrics not in BENCHMARK.json: {sorted(extra)}")
            if trace and metrics and not stresses_what_it_claims(name, metrics):
                problems.append(f"{name}: workload does not stress what it claims")
    for p in problems:
        print(f"SMOKE FAIL {p}")
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problem(s)")
    return 0 if not problems else 1


def record_golden() -> int:
    """Record digest, mean_mse and counts for each workload at the golden seeds."""
    golden: dict = {}
    for name, workload in WORKLOADS.items():
        golden[name] = {}
        for seed in GOLDEN_SEEDS:
            deadline = time.perf_counter() + INVOCATION_BUDGET_S
            bench = Bench(workload, seed, deadline)
            bench.golden = None  # record, do not compare
            if bench.run_once("plain") is None:
                print("\n".join(bench.errors), file=sys.stderr)
                return 1
            entry = dict(bench.reference)
            entry.pop("results_bytes")
            golden[name][str(seed)] = entry
            shutil.rmtree(bench.dir, ignore_errors=True)
            print(f"{name} seed {seed}: {entry}")
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "driftpool" / "cli.py").is_file():
        print(f"error: no driftpool sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.smoke:
        return smoke(spec)
    if args.record_golden:
        return record_golden()
    if args.workload is None:
        parser.error("--workload is required")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    result = measure(WORKLOADS[args.workload], args.seed, seconds, bool(args.trace))
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    return emit(result, names)


if __name__ == "__main__":
    sys.exit(main())
