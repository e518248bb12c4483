"""One `driftpool run --manifest manifest.json --out <dir>` in this fresh interpreter.

Usage: python3 child.py SRC_DIR OUT_DIR REPORT_JSON {plain,setup,trace}

Run with the workload directory as the working directory. The program is
imported from SRC_DIR only. The report holds CLOCK_MONOTONIC stamps
(comparable with the parent's), the process's own CPU time and max RSS,
and, in trace mode, the spans recorded around the program's public
functions.

plain: the only per-call wrapper is ``engine.online_step`` (one clock pair
    per online step). ``engine.run`` and ``engine.warm_up``, each entered
    once per run, get a clock stamp at entry and exit. A SIGALRM timer
    times a fixed reference kernel every CAL_PERIOD_S seconds from the
    start of main to the end of the run (see Calibrator).
setup: as plain, but the run stops when ``engine.run`` is entered, so only
    import, manifest, CSV load and normalize run.
trace: spans around the public functions of cli, data, manifest, engine,
    gene, pool and forecasters, at the names the callers use. The ~1 us
    helpers that ``Pool.nearest`` calls per candidate are not wrapped;
    ``pool.candidates_scanned`` is counted when ``nearest`` is entered.
"""

from __future__ import annotations

import json
import resource
import signal
import sys
import time
from pathlib import Path

_clock = time.perf_counter  # CLOCK_MONOTONIC on Linux, shared with the parent
_cpu = time.process_time  # user+sys CPU time of this process since it started

CAL_PERIOD_S = 0.02  # wall time between two timings of the reference kernel


class Calibrator:
    """Times a fixed reference kernel every CAL_PERIOD_S seconds of wall time.

    The machine's speed drifts by up to ~1.7x within seconds, and the drift
    slows the program and the kernel alike. Each tick records the wall and
    CPU clocks before and after one kernel run; the parent converts the
    program's time between two ticks to reference seconds by the kernel's
    speed at those ticks (run.py: RefClock). The kernel mixes what an
    online step does: small numpy reductions and attribute arithmetic in
    Python. One tick takes ~0.35 ms, ~1.5% of the run, and is left out of
    every time the parent reports.
    """

    def __init__(self):
        import numpy as np

        self.ticks: list[float] = []  # wall before, wall after, cpu before, cpu after
        self._busy = False
        self._arr = np.linspace(-1.0, 1.0, 60)
        self._objs = [_Point(i * 0.1, i * 0.2) for i in range(50)]
        self._kernel()  # numpy's first calls set up caches; keep them out of the ticks

    def _kernel(self) -> float:
        arr, objs = self._arr, self._objs
        s = 0.0
        for _ in range(20):
            s += float(arr.mean()) + float(arr.std())
            for o in objs:
                s += o.x * 0.5 - abs(o.y - s * 1e-9)
        return s

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a tick delayed past the next one; skip, do not nest
            return
        self._busy = True
        w0, c0 = _clock(), _cpu()
        self._kernel()
        self.ticks += (w0, _clock(), c0, _cpu())
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        self.x, self.y = x, y


class StopAtRun(BaseException):
    """Raised at ``engine.run`` entry in setup mode; not a program error."""


class Tracer:
    """In-memory spans: (name id, start, end, parent span index or -1)."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.candidates = 0

    def wrap(self, name: str, fn, count_candidates: bool = False):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, _clock
        tracer = self

        def traced(*args, **kwargs):
            if count_candidates:
                tracer.candidates += len(args[0].entries)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent)

        return traced

    def patch(self, owner, attr: str, name: str, **kw) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **kw))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def install_trace(tracer: Tracer) -> None:
    import driftpool.cli as cli
    import driftpool.engine as engine
    import driftpool.forecasters as fc
    import driftpool.manifest as manifest
    from driftpool.pool import Pool

    for attr in ("load_manifest", "resolve_series", "build_bundle", "write_bundle",
                 "save_manifest"):
        tracer.patch(cli, attr, f"manifest.{attr}")
    tracer.patch(manifest, "load_csv", "data.load_csv")
    tracer.patch(manifest, "normalize", "data.normalize")
    for attr in ("run", "split_instances", "warm_up", "online_step"):
        tracer.patch(engine, attr, f"engine.{attr}")
    tracer.patch(engine, "compute_gene", "gene.compute_gene")
    tracer.patch(engine, "mse", "forecasters.mse")
    for attr in ("should_evolve", "absorb_instance", "lr_tick"):
        tracer.patch(engine, attr, f"pool.{attr}")
    tracer.patch(Pool, "nearest", "pool.nearest", count_candidates=True)
    for attr in ("evolve", "mark_selected", "eliminate_stale"):
        tracer.patch(Pool, attr, f"pool.{attr}")
    for cls in (fc.Forecaster, fc.NaiveForecaster, fc.LinearForecaster, fc.MlpForecaster):
        for attr in ("train_step", "predict", "deep_clone"):
            fn = cls.__dict__.get(attr)
            if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                tracer.patch(cls, attr, f"forecasters.{attr}")


def main(argv: list[str]) -> int:
    src, out_dir, report_path, mode = argv
    calibrator = None
    if mode != "trace":
        calibrator = Calibrator()
        calibrator.start()
    sys.path.insert(0, src)
    t_import0 = _clock()
    import driftpool.cli as cli
    import driftpool.engine as engine
    t_import1 = _clock()
    # A driftpool installed elsewhere must not stand in for the checkout's.
    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        print(f"driftpool imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    report: dict = {"mode": mode, "t_import0": t_import0, "t_import1": t_import1}
    tracer = None
    if mode == "trace":
        tracer = Tracer()
        install_trace(tracer)
        results = {}
        build_bundle = cli.build_bundle

        def keep_bundle(*args, **kwargs):
            results["bundle"] = bundle = build_bundle(*args, **kwargs)
            return bundle

        cli.build_bundle = keep_bundle
    else:
        steps: list[float] = []
        marks: dict[str, float] = {}
        clock = _clock

        def marked(name, fn):
            def wrapper(*args, **kwargs):
                marks[name + "_in"] = clock()
                if mode == "setup" and name == "run":
                    raise StopAtRun
                try:
                    return fn(*args, **kwargs)
                finally:
                    marks[name + "_out"] = clock()
            return wrapper

        online_step = engine.online_step

        def timed_step(*args, **kwargs):
            start = clock()
            try:
                return online_step(*args, **kwargs)
            finally:
                steps.append(start)
                steps.append(clock())

        originals = (engine.run, engine.warm_up, engine.online_step)
        engine.run = marked("run", engine.run)
        engine.warm_up = marked("warm_up", engine.warm_up)
        engine.online_step = timed_step
    try:
        rc = cli.main(["run", "--manifest", "manifest.json", "--out", out_dir])
    except StopAtRun:
        rc = 0
    finally:
        t_done = _clock()
        cpu_done = _cpu()
        if calibrator is not None:
            calibrator.stop()
        if tracer is not None:
            cli.build_bundle = build_bundle
            tracer.restore()
        else:
            engine.run, engine.warm_up, engine.online_step = originals
    usage = resource.getrusage(resource.RUSAGE_SELF)
    report.update(rc=rc, t_done=t_done, cpu_done=cpu_done, maxrss_kb=usage.ru_maxrss)
    if tracer is None:
        report["marks"] = marks
        report["steps"] = steps
        report["ticks"] = calibrator.ticks
    else:
        report["names"] = tracer.names
        report["spans"] = tracer.spans
        report["candidates"] = tracer.candidates
        bundle = results["bundle"]
        report["pool_sizes"] = [r["pool_size"] for r in bundle["records"]]
        report["events_created"] = bundle["events"]["created"]
        report["entry_ids"] = [r["entry_id"] for r in bundle["records"]]
        report["tau_safe"] = bundle["manifest"]["cep"]["tau_safe"]
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
