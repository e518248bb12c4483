"""The benchmark's trace hooks name functions that exist, and restore them all.

perfbench/child.py wraps public functions of the package by name; a rename
would otherwise surface only as an AttributeError in a minutes-long
``perfbench/run.py --smoke``. The module is imported from its file and
nothing under perfbench/ is written.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

from driftpool import cli, engine
from driftpool.data import write_column_csv

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def load_child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def recording_tracer(child):
    class Recording(child.Tracer):
        """Notes every (owner, attribute, original) the hooks patch."""

        def __init__(self):
            super().__init__()
            self.seen = []

        def patch(self, owner, attr, name, **kw):
            self.seen.append((owner, attr, current(owner, attr)))
            super().patch(owner, attr, name, **kw)

    return Recording()


def test_install_trace_patches_then_restores_every_hook():
    child = load_child()
    tracer = recording_tracer(child)
    try:
        child.install_trace(tracer)
        assert len(tracer.seen) >= 20
        for owner, attr, original in tracer.seen:
            assert current(owner, attr) is not original, (owner, attr)
    finally:
        tracer.restore()
    for owner, attr, original in tracer.seen:
        assert current(owner, attr) is original, (owner, attr)
    assert {"forecasters.train_step", "forecasters.predict", "forecasters.deep_clone",
            "engine.warm_up", "engine.online_step", "pool.evolve", "pool.nearest",
            "pool.absorb_instance", "pool.should_evolve"} <= set(tracer.names)


def test_traced_run_counts_warm_and_online_train_steps():
    # run.py counts warm steps as train_step spans directly inside warm_up
    child = load_child()
    tracer = child.Tracer()
    series = np.sin(np.arange(400) / 5.0)
    config = engine.EngineConfig(lookback=8, horizon=4, warm_epochs=2)
    try:
        child.install_trace(tracer)
        result = engine.run(series, config)
    finally:
        tracer.restore()
    names = tracer.names
    spans = tracer.spans

    def parent(span):
        return names[spans[span[3]][0]] if span[3] >= 0 else None

    steps = [parent(s) for s in spans if names[s[0]] == "forecasters.train_step"]
    warm, online = engine.split_instances(series, config)
    trained = result.log.abandoned.count(False)
    assert steps.count("engine.warm_up") == 2 * len(warm)
    assert steps.count("engine.online_step") == trained
    assert len(steps) == 2 * len(warm) + trained
    # a trained online step runs one forward pass: predict and mse only when abandoned
    abandoned = len(online) - trained
    assert abandoned > 0
    for name in ("forecasters.predict", "forecasters.mse"):
        under_step = [parent(s) for s in spans if names[s[0]] == name]
        assert under_step.count("engine.online_step") == abandoned, name
    # the pool's per-layer numbers come from spans the engine's calls pass through
    calls = [names[s[0]] for s in spans]
    assert calls.count("pool.nearest") == len(online)
    # every warm step and every trained online step absorbs its window
    assert calls.count("pool.absorb_instance") == trained + 2 * len(warm)
    absorbs = [parent(s) for s in spans if names[s[0]] == "pool.absorb_instance"]
    assert absorbs.count("engine.warm_up") == 2 * len(warm)
    assert absorbs.count("engine.online_step") == trained
    assert calls.count("pool.mark_selected") == len(online)
    assert calls.count("pool.should_evolve") >= len(online)
    # windows are signed in one pass per instance set, never one at a time per step;
    # the engine keeps the name compute_gene only because the tracer patches it
    assert "gene.compute_gene" in names
    assert calls.count("gene.compute_gene") == 0


def test_plain_mode_enters_warm_up_once_and_online_step_per_record(tmp_path, monkeypatch):
    # plain mode replaces engine.run, engine.warm_up and engine.online_step with
    # wrappers; run.py reads one warm-up span and one timed call per online record
    entered = []

    def wrapped(name):
        fn = getattr(engine, name)

        def wrapper(*args, **kwargs):
            entered.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("run", "warm_up", "online_step"):
        monkeypatch.setattr(engine, name, wrapped(name))
    write_column_csv(tmp_path / "in.csv", np.sin(np.arange(400) / 5.0), "v")
    rc = cli.main(["run", "--data", str(tmp_path / "in.csv"), "--column", "v",
                   "--lookback", "8", "--horizon", "4", "--warm-epochs", "2",
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    records = json.loads((tmp_path / "out" / "results.json").read_text())["records"]
    assert entered[:2] == ["run", "warm_up"]
    assert entered[2:] == ["online_step"] * len(records)
    assert records


def test_trace_mode_reports_the_bundle_it_wrote(tmp_path, monkeypatch):
    # trace mode reads each record's pool_size and entry_id, the created events
    # and cep.tau_safe off the bundle; a change to the bundle's shape breaks it here
    child = load_child()
    levels = np.repeat([0.0, 10.0, 0.0, 20.0], 300)
    write_column_csv(tmp_path / "in.csv", levels + np.sin(np.arange(1200) / 5.0), "v")
    manifest = {"data": {"kind": "csv", "path": "in.csv", "column": "v"}, "lookback": 8,
                "horizon": 4, "forecaster": "naive", "warm_epochs": 1}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "path", [*sys.path])  # main puts the source dir first
    src = Path(cli.__file__).resolve().parents[1]
    assert child.main([str(src), "out", "report.json", "trace"]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    bundle = json.loads((tmp_path / "out" / "results.json").read_text())
    assert report["pool_sizes"] == [r["pool_size"] for r in bundle["records"]]
    assert report["entry_ids"] == [r["entry_id"] for r in bundle["records"]]
    assert report["events_created"] == bundle["events"]["created"]
    assert len(report["events_created"]) > 2  # the seed entry and at least two splits
    assert report["tau_safe"] == bundle["manifest"]["cep"]["tau_safe"]
