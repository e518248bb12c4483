"""The optimised loop equals the straight-line reference run, bit for bit.

``engine.run`` signs windows in one vectorised pass, caches each entry's
mixed signature and records a trained step's loss from ``train_step``.
``reference.run`` does each of these the plain way. Hypothesis draws
piecewise streams and configs that make the pool split, evict FIFO,
retire stale entries and abandon gradients, and every run must agree
record for record, or raise the same error type on both sides.
"""

import ast
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

import reference
from driftpool.data import ConceptSpec, SyntheticSpec, generate
from driftpool.engine import EngineConfig, run
from driftpool.forecasters import FORECASTER_KINDS
from driftpool.pool import RETRIEVAL_SCORES, CepConfig

def stream(levels, schedule, seg_len, noise, seed=0):
    """Concatenated sine-plus-noise segments, one per schedule entry."""
    concepts = tuple(ConceptSpec(level, 1.0, 12, noise) for level in levels)
    spec = SyntheticSpec(concepts, tuple((i, seg_len) for i in schedule), seed)
    return generate(spec).values


def stable_lr(series, lookback, horizon, fraction):
    """``fraction`` of the largest step plain SGD takes stably on this series' windows."""
    peak = float(np.max(np.abs(series)))
    return fraction * horizon / (lookback * peak**2 + 1.0)


@st.composite
def cases(draw):
    n_concepts = draw(st.integers(2, 4))
    n_seg = draw(st.integers(2, 6))
    offset = draw(st.sampled_from([0.0, 1e3, -1e6, 1e6]) | st.floats(-1e6, 1e6))
    noise = draw(st.sampled_from([0.0, 0.1, 0.5]))
    # concepts several noise deviations apart, and far enough apart at a large
    # offset that the seed's global spread (the zero it starts from) is crossed
    spacing = draw(st.sampled_from([2.0, 5.0, 20.0])) * (1.0 + noise + abs(offset) / 20)
    levels = [offset + spacing * k for k in draw(
        st.lists(st.integers(-4, 4), min_size=n_concepts, max_size=n_concepts, unique=True))]
    schedule = [draw(st.integers(0, n_concepts - 1)) for _ in range(n_seg)]
    lookback = draw(st.integers(2, 10))
    horizon = draw(st.integers(1, 5))
    seg_len = draw(st.integers(max(30, 4 * (lookback + horizon)), 150))
    series = stream(levels, schedule, seg_len, noise, draw(st.integers(0, 2**16)))

    scope_s = draw(st.sampled_from([None, "below", "above"]))
    if scope_s == "below":
        scope_s = draw(st.integers(1, lookback - 1))
    elif scope_s == "above":
        scope_s = draw(st.integers(lookback + 1, lookback + 4))
    parts = draw(st.sampled_from([(True, True), (True, False), (False, True)]))
    cep = CepConfig(
        tau_mu=draw(st.floats(0.5, 4.0)),
        tau_gene=draw(st.floats(0.0, 1.0)),
        tau_l=draw(st.floats(0.05, 1.0)),
        tau_safe=draw(st.integers(0, 6)),
        tau_e=draw(st.floats(0.25, 2.0)),
        tau_lr=draw(st.floats(0.05, 1.0)),
        t_lr=draw(st.integers(1, 10)),
        scope_s=scope_s,
        retrieval_score=draw(st.sampled_from(RETRIEVAL_SCORES)),
        evolution=draw(st.sampled_from([True, True, True, True, False])),
        elimination=draw(st.sampled_from([True, True, True, False])),
        gradient_abandonment=draw(st.sampled_from([True, True, True, False])),
        optimizer_adjustment=draw(st.booleans()),
        use_local_gene=parts[0],
        use_global_gene=parts[1],
        max_pool_size=draw(st.none() | st.integers(1, 3) | st.integers(1, 5)),
    )
    config = EngineConfig(
        lookback=lookback,
        horizon=horizon,
        cep=cep,
        forecaster=draw(st.sampled_from(FORECASTER_KINDS)),
        hidden=draw(st.integers(1, 6)),
        lr_raw=stable_lr(series, lookback, horizon, draw(st.floats(0.01, 1.2))),
        warm_epochs=draw(st.integers(0, 2)),
        seed=draw(st.integers(0, 100)),
    )
    return series, config, draw(st.booleans())


def outcome(fn, series, config, log_forecasts):
    """The run's result, or the type of the error it raised."""
    try:
        with np.errstate(over="ignore"):  # a diverging run warns before it raises
            return fn(series, config, log_forecasts)
    except Exception as exc:
        return type(exc)


def note_events(config, result):
    """Label the lifecycle events a run exercised, for ``--hypothesis-show-statistics``."""
    if isinstance(result, type):
        event(f"raised {result.__name__}")
        return
    cap, size = config.cep.max_pool_size, 1
    for r in result.records:
        fifo = r.evolved and cap is not None and size + 1 > cap
        kinds = {"split": r.evolved, "FIFO eviction": fifo, "abandonment": r.abandoned,
                 "stale elimination": len(r.eliminated_ids) > fifo}
        for kind, happened in kinds.items():
            if happened:
                event(kind)
        size = r.pool_size


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=cases())
# splits and FIFO evictions against a cap of 2
@example(case=(stream([0.0, 10.0, 20.0], [0, 1, 2, 0, 1], 80, 0.1),
               EngineConfig(lookback=8, horizon=4, lr_raw=1e-3, warm_epochs=1,
                            cep=CepConfig(tau_safe=2, max_pool_size=2)), False))
# stale eliminations and abandonments under mle retrieval, forecasts logged
@example(case=(stream([0.0, 6.0, -6.0], [0, 1, 2, 1, 0, 2], 90, 0.2),
               EngineConfig(lookback=10, horizon=5, forecaster="mlp", hidden=4,
                            lr_raw=1e-3, warm_epochs=2,
                            cep=CepConfig(tau_safe=0, tau_e=0.5, retrieval_score="mle")),
               True))
# a scope below the lookback, the global gene only, at a large offset
@example(case=(stream([1e6, 1e6 + 4e5, 1e6 - 4e5], [0, 1, 0, 2, 1], 100, 0.5),
               EngineConfig(lookback=9, horizon=3, forecaster="naive", warm_epochs=1,
                            cep=CepConfig(scope_s=4, use_local_gene=False, tau_safe=1,
                                          tau_mu=1.5)),
               False))
# a linear model diverging at a 1e6 offset: both sides abort
@example(case=(stream([1e6, 1e6 + 50.0], [0, 1, 0], 60, 0.1),
               EngineConfig(lookback=6, horizon=3, lr_raw=1e-6, warm_epochs=1), False))
# a spike in an abandoned step's ground truth overflows its mse: both sides abort
@example(case=(np.where(np.arange(1200) == 409, 1.4e154, 0.0),
               EngineConfig(lookback=8, horizon=4, forecaster="naive", warm_epochs=1), False))
def test_engine_run_equals_reference_run(case):
    series, config, log_forecasts = case
    expected = outcome(reference.run, series, config, log_forecasts)
    got = outcome(run, series, config, log_forecasts)
    note_events(config, expected)
    assert got == expected  # an error type on one side must be the same on the other
    if not isinstance(expected, type):
        assert repr(got.records) == repr(expected.records)  # tells 0.0 from -0.0
        assert repr(got.mean_mse) == repr(expected.mean_mse)


def test_reference_imports_no_engine_or_pool_logic():
    """Only the logic-free config and result dataclasses come from engine and pool."""
    allowed = {
        "driftpool.engine": {"EngineConfig", "StepRecord", "RunResult"},
        "driftpool.pool": {"CepConfig"},
        "driftpool.data": {"warm_split_index"},
        "driftpool.gene": None,  # any name
        "driftpool.forecasters": None,
        "driftpool.errors": None,
    }
    for node in ast.walk(ast.parse(Path(reference.__file__).read_text())):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "driftpool" for a in node.names), \
                ast.unparse(node)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("driftpool"):
            assert node.module in allowed, ast.unparse(node)
            names = {a.name for a in node.names}
            assert allowed[node.module] is None or names <= allowed[node.module], \
                ast.unparse(node)
