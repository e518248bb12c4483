"""Acceptance suite: one test per promised behavior, at its stated tolerance.

Each test prints a single `[acceptance] ...: PASS` (or FAIL) line so the
whole gate can be read off `pytest -s tests/test_acceptance.py`.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from driftpool.cli import cmd_purity, cmd_run, compute_purity
from driftpool.data import (
    ConceptSpec,
    SyntheticSpec,
    default_stream_spec,
    generate,
    normalize,
)
from driftpool.engine import EngineConfig, run
from driftpool.forecasters import NaiveForecaster, make_forecaster, mse
from driftpool.gene import fold_moments
from driftpool.manifest import RunManifest
from driftpool.pool import CepConfig, Pool, lr_tick
from reference import (
    Gene,
    genes_of,
    parameter_checksum,
    parameters,
    retrieval_cost,
    run_bare,
    set_genes,
)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


# --- shared expensive runs ----------------------------------------------------

RECURRENCE_CONFIG = EngineConfig(lookback=60, horizon=30, forecaster="linear",
                                 lr_raw=0.025, warm_epochs=5)


def normalized_default_stream(noise_sigma, seed):
    values, labels = generate(default_stream_spec(noise_sigma=noise_sigma, seed=seed))
    series, _, _ = normalize(values, "warm_segment")
    return series, labels


@pytest.fixture(scope="module")
def recurrence_runs():
    """Pooled and bare runs on the default labeled stream (noise 0.25, seed 0)."""
    values, labels = normalized_default_stream(0.25, 0)
    return run(values, RECURRENCE_CONFIG), run_bare(values, RECURRENCE_CONFIG), labels


def test_c01_streaming_statistics_oracle():
    with criterion("C1 streaming statistics vs batch oracle"):
        rng = np.random.default_rng(101)
        for _ in range(100):
            n = int(rng.integers(1, 1001))
            means = rng.uniform(-100, 100, n)
            mu, sigma = float(means[0]), 0.0
            for count, m in enumerate(means[1:].tolist(), start=1):
                mu, sigma = fold_moments(mu, sigma, count, m)
            batch_mu = float(means.mean())
            batch_sigma = float(means.std())
            assert abs(mu - batch_mu) <= 1e-9 * max(1.0, abs(batch_mu))
            assert abs(sigma - batch_sigma) <= 1e-9 * max(1.0, batch_sigma)


def test_c02_lr_restoration_identity():
    with criterion("C2 LR restoration after t_lr ticks"):
        lr_raw = 0.01
        for tau_lr in (0.1, 0.5, 0.9):
            for t_lr in (1, 10, 50):
                cfg = CepConfig(tau_lr=tau_lr, t_lr=t_lr)
                pool = Pool(NaiveForecaster(4, 2), lr_raw, cfg)
                child, _ = pool.evolve(pool.entries[0], 1.0, 1.0)
                assert child.lr_current == pytest.approx(tau_lr * lr_raw, rel=1e-15)
                for _ in range(t_lr):
                    lr_tick(child, pool.lr_raw)
                assert abs(child.lr_current - lr_raw) / lr_raw < 1e-12


def test_c03_retrieval_brute_force_equivalence():
    with criterion("C3 retrieval matches exhaustive argmin (10k cases per score)"):
        rng = np.random.default_rng(103)
        cases = 0
        for score in ("euclidean", "mle"):
            cfg = CepConfig(retrieval_score=score)
            for _ in range(500):
                pool = Pool(NaiveForecaster(4, 2), 0.01, cfg)
                genes = [Gene(rng.uniform(-50, 50), rng.uniform(0, 5))]
                set_genes(pool.entries[0], (genes[0], genes[0], 1))
                for _ in range(int(rng.integers(0, 30))):
                    g = (
                        genes[int(rng.integers(0, len(genes)))]  # deliberate ties
                        if rng.random() < 0.2
                        else Gene(rng.uniform(-50, 50), rng.uniform(0, 5))
                    )
                    genes.append(g)
                    child, _ = pool.evolve(pool.entries[0], g.mu, g.sigma)
                    if rng.random() < 0.5:  # desynchronize local vs global
                        set_genes(child, (
                            g,
                            Gene(rng.uniform(-50, 50), rng.uniform(0, 5)),
                            int(rng.integers(1, 9)),
                        ))
                for _ in range(20):
                    sample = Gene(rng.uniform(-60, 60), rng.uniform(0, 6))
                    expected = min(
                        (retrieval_cost(genes_of(e), sample, cfg), e.id) for e in pool.entries
                    )[1]
                    assert pool.nearest(sample.mu, sample.sigma).id == expected
                    cases += 1
        assert cases == 20_000


def test_c04_gradient_check():
    with criterion("C4 analytic gradients vs central differences (100 cases per model)"):
        rng = np.random.default_rng(104)
        worst = 0.0
        for case in range(200):
            kind = "linear" if case % 2 == 0 else "mlp"
            lookback = int(rng.integers(2, 9))
            horizon = int(rng.integers(1, 6))
            model = make_forecaster(kind, lookback, horizon, hidden=5, seed=case)
            for p in parameters(model):
                p += rng.normal(scale=0.5, size=p.shape)
            x = rng.normal(size=lookback)
            y = rng.normal(size=horizon)

            before = [p.copy() for p in parameters(model)]
            probe = model.deep_clone()
            probe.train_step(x, y, 1.0)
            applied = [b - a for b, a in zip(before, parameters(probe))]

            step = 1e-5
            for pi, p in enumerate(parameters(model)):
                flat = p.ravel()
                grad = applied[pi].ravel()
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + step
                    hi = mse(model.predict(x), y)
                    flat[i] = orig - step
                    lo = mse(model.predict(x), y)
                    flat[i] = orig
                    numeric = (hi - lo) / (2 * step)
                    denom = max(abs(numeric), abs(grad[i]), 1e-8)
                    worst = max(worst, abs(numeric - grad[i]) / denom)
        assert worst < 1e-4


def test_c05_three_sigma_evolution_behavior():
    with criterion("C5 three-sigma splitting: silent when stationary, once per shift"):
        config = EngineConfig(lookback=30, horizon=10, forecaster="naive", warm_epochs=1)

        quiet = 0
        for seed in range(20):
            series = np.random.default_rng(seed).normal(0.0, 1.0, 6800)
            if set(run(series, config).log.evolved_from) == {None}:
                quiet += 1
        assert quiet >= 19

        seg = 600
        levels = (0.0, 10.0, 20.0, 30.0)
        rng = np.random.default_rng(105)
        series = np.concatenate(
            [np.full(seg, lvl) + rng.normal(0, 0.25, seg) for lvl in levels]
        )
        log = run(series, config).log
        evolved_at = [t for t, parent in zip(log.t, log.evolved_from) if parent is not None]
        changes = [seg, 2 * seg, 3 * seg]  # first one is also the online start
        assert len(evolved_at) == len(changes)
        for boundary in changes:
            hits = [
                t for t in evolved_at
                if boundary - config.lookback <= t < boundary + 3 * config.horizon
            ]
            assert len(hits) == 1


def test_c06_recurrence_benefit(recurrence_runs):
    with criterion("C6 recurrence benefit over the bare forecaster"):
        pooled, bare, _ = recurrence_runs
        gap = (bare.mean_mse - pooled.mean_mse) / bare.mean_mse
        assert gap >= 0.20

        # first online A segment is [6000, 9000); steady state = pairs fully inside
        span = RECURRENCE_CONFIG.lookback + RECURRENCE_CONFIG.horizon
        def steady(res):
            vals = [err for t, err in zip(res.log.t, res.log.mse) if 7500 <= t <= 9000 - span]
            return float(np.mean(vals))

        # second online onset of A is at 15000; spike = first 5 in-segment pairs
        def spike(res):
            vals = [err for t, err in zip(res.log.t, res.log.mse) if t >= 15000][:5]
            return max(vals)

        assert spike(pooled) <= 2.0 * steady(pooled)
        assert spike(bare) > 5.0 * steady(bare)


def test_c07_identification_purity(tmp_path):
    with criterion("C7 identification purity on the labeled stream"):
        # noise-free variant, end to end through the results bundle on disk
        spec = default_stream_spec(noise_sigma=0.0, seed=0)
        manifest = RunManifest(
            data={
                "kind": "synthetic",
                "concepts": [vars(c) for c in spec.concepts],
                "schedule": [list(s) for s in spec.schedule],
                "seed": 0,
            },
            engine=EngineConfig(lookback=60, horizon=30, forecaster="naive", warm_epochs=1),
            normalize="warm_segment",
        )
        cmd_run(manifest, out_dir=tmp_path)
        report = cmd_purity(tmp_path / "results.json", tmp_path / "labels.csv")
        assert report["purity"] == 1.0

        # noisy variant across 10 seeds
        config = EngineConfig(lookback=60, horizon=30, forecaster="naive", warm_epochs=1)
        for seed in range(10):
            values, labels = normalized_default_stream(0.25, seed)
            log = run(values, config).log
            records = [{"t": t, "entry_id": eid} for t, eid in zip(log.t, log.selected_entry_id)]
            noisy = compute_purity(records, labels, 60, config.cep.tau_safe)
            assert noisy["purity"] >= 0.9


def test_c08_elimination_behavior():
    with criterion("C8 transient concept eliminated, recurring pool retained"):
        seg = 400
        concepts = (
            ConceptSpec(0.0, 1.0, 24, 0.25),   # A: warm concept
            ConceptSpec(8.0, 1.0, 24, 0.25),   # B: recurs
            ConceptSpec(-8.0, 1.0, 24, 0.25),  # C: recurs
            ConceptSpec(20.0, 1.0, 24, 0.25),  # N: one transient segment
        )
        schedule = [(0, seg)] * 3 + [
            (1, seg), (2, seg), (1, seg), (2, seg), (3, seg),
            (1, seg), (2, seg), (1, seg), (2, seg),
        ]
        spec = SyntheticSpec(concepts=concepts, schedule=tuple(schedule), seed=0)
        values, _ = generate(spec)
        config = EngineConfig(lookback=16, horizon=8, forecaster="naive", warm_epochs=1)
        log = run(values, config).log
        steps = list(zip(log.t, log.selected_entry_id))

        # the noise concept occupies the 8th segment; find who served it
        n_start, n_stop = 7 * seg, 8 * seg
        served = {eid for t, eid in steps if n_start <= t and t + config.lookback <= n_stop}
        assert len(served) == 1
        noise_id = served.pop()

        last_selected = max(t for t, eid in steps if eid == noise_id)
        n_pred = log.selected_entry_id.count(noise_id)
        eliminated_t = next(
            t for t, ids in zip(log.t, log.eliminated_ids) if noise_id in ids
        )
        idle_instances = (eliminated_t - last_selected) // config.horizon
        assert idle_instances <= config.cep.tau_e * n_pred + 1

        assert log.pool_size[-1] == 3  # one entry per recurring concept


def test_c09_ablation_identity():
    with criterion("C9 evolution-off run equals the bare forecaster run"):
        rng = np.random.default_rng(109)
        series = np.concatenate(
            [np.full(500, lvl) + rng.normal(0, 0.3, 500) for lvl in (0.0, 4.0, 0.0, 4.0)]
        )
        config = EngineConfig(
            lookback=20, horizon=10, cep=CepConfig(evolution=False),
            forecaster="linear", lr_raw=1e-3, warm_epochs=2,
        )
        pooled = run(series, config)
        bare = run_bare(series, config)
        assert repr(pooled.log) == repr(bare.log)
        assert pooled.mean_mse == bare.mean_mse
        assert pooled == bare


def test_c10_gradient_abandonment(abandoned_step):
    with criterion("C10 polluted gradient abandoned without state changes"):
        pool, record, before = abandoned_step.pool, abandoned_step.record, abandoned_step.before

        assert record.abandoned
        assert record.evolved_from is None
        for entry in pool.entries:
            assert parameter_checksum(entry.forecaster) == before[entry.id].checksum
            assert genes_of(entry) == before[entry.id].genes
        served = next(e for e in pool.entries if e.id == record.selected_entry_id)
        assert served.n_pred == before[served.id].n_pred + 1


def test_c11_determinism(tmp_path):
    with criterion("C11 manifest re-runs reproduce results exactly"):
        manifest = RunManifest(
            data={
                "kind": "synthetic",
                "concepts": [
                    {"level": 0.0, "amplitude": 1.0, "period": 24, "noise_sigma": 0.2},
                    {"level": 6.0, "amplitude": 1.0, "period": 24, "noise_sigma": 0.2},
                ],
                "schedule": [[0, 500], [1, 500], [0, 500], [1, 500]],
                "seed": 11,
            },
            engine=EngineConfig(lookback=20, horizon=10, forecaster="mlp", hidden=8,
                                lr_raw=1e-3, warm_epochs=2, seed=7),
        )
        a = cmd_run(manifest, out_dir=tmp_path / "a")
        b = cmd_run(manifest, out_dir=tmp_path / "b")
        assert a["config_hash"] == b["config_hash"]
        assert a["aggregate"]["mean_mse"] == b["aggregate"]["mean_mse"]
        assert a["events"] == b["events"]
        assert a["records"] == b["records"]
        assert (tmp_path / "a" / "results.json").read_bytes() == (
            tmp_path / "b" / "results.json"
        ).read_bytes()
