"""Engine orchestration tests: splits, warm-up, online semantics, determinism."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from driftpool import gene
from driftpool.engine import (
    EngineConfig,
    Instance,
    make_instances,
    online_step,
    run,
    split_instances,
    warm_split_index,
    warm_up,
)
from driftpool.errors import DriftpoolError, NumericError, SizingError, ValidationError
from driftpool.forecasters import (
    FORECASTER_KINDS,
    LinearForecaster,
    NaiveForecaster,
    make_forecaster,
    mse,
)
from driftpool.gene import GeneState, GeneVector, compute_gene
from driftpool.pool import CepConfig, Pool
from reference import run_bare


def enumerate_windows(n, start, stop, stride, lookback, horizon):
    """Oracle: all window starts whose (x, y) pair fits in the series."""
    out = []
    t = start
    while t < stop:
        if t + lookback + horizon <= n:
            out.append(t)
        t += stride
    return out


def no_instances():
    """An empty warm set for an 8/4 run with the default scope."""
    return make_instances(np.zeros(12), 0, 0, 1, 8, 4, 8)


def shifted_series(levels, seg, sigma=0.25, seed=0):
    rng = np.random.default_rng(seed)
    return np.concatenate([np.full(seg, lvl) + rng.normal(0, sigma, seg) for lvl in levels])


class TestSplit:
    def test_documented_arithmetic(self):
        series = np.arange(400, dtype=float)
        warm, online = split_instances(series, EngineConfig(60, 30))
        assert warm_split_index(400) == 100
        assert len(warm) == 11  # stride-1 pairs inside the first 100 points
        assert [i.t for i in online] == [100, 130, 160, 190, 220, 250, 280, 310]
        assert len(online) == (300 - 60 - 30) // 30 + 1 == 8

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            lookback = int(rng.integers(1, 40))
            horizon = int(rng.integers(1, 40))
            n = int(rng.integers(4 * (lookback + horizon), 2000))
            series = np.zeros(n)
            warm, online = split_instances(series, EngineConfig(lookback, horizon))
            w = warm_split_index(n)
            span = lookback + horizon
            assert [i.t for i in warm] == enumerate_windows(n, 0, w - span + 1, 1, lookback, horizon)
            assert [i.t for i in online] == enumerate_windows(n, w, n, horizon, lookback, horizon)

    def test_window_contents(self):
        series = np.arange(500, dtype=float)
        _, online = split_instances(series, EngineConfig(10, 5))
        inst = online[0]
        assert np.array_equal(inst.x, np.arange(inst.t, inst.t + 10))
        assert np.array_equal(inst.y, np.arange(inst.t + 10, inst.t + 15))

    def test_truth_never_overlaps_input(self):
        series = np.zeros(600)
        warm, online = split_instances(series, EngineConfig(12, 7))
        for inst in [*warm, *online]:
            assert inst.t + 12 == inst.t + len(inst.x)  # y starts right after x

    def test_online_truths_are_disjoint(self):
        series = np.zeros(1000)
        _, online = split_instances(series, EngineConfig(17, 9))
        spans = [(i.t + 17, i.t + 17 + 9) for i in online]
        for (a_lo, a_hi), (b_lo, b_hi) in zip(spans, spans[1:]):
            assert a_hi <= b_lo

    def test_too_short_series_raises_with_minimum(self):
        with pytest.raises(SizingError, match="at least 360"):
            split_instances(np.zeros(200), EngineConfig(60, 30))

    def test_last_overrunning_instance_dropped(self):
        # online stop is the series end; a y overrun must drop the pair
        series = np.zeros(4 * 30 + 7)
        warm, online = split_instances(series, EngineConfig(20, 10))
        for inst in online:
            assert inst.t + 30 <= len(series)


@st.composite
def signature_runs(draw):
    """A series, a config and a chunk size for the vectorized signature pass."""
    lookback = draw(st.integers(1, 30))
    horizon = draw(st.integers(1, 30))
    scope_s = draw(st.integers(1, 2 * max(lookback, horizon) + 1))
    n = draw(st.integers(4 * (lookback + horizon), 900))
    offset = draw(st.sampled_from([0.0, 1.0, -3e4, 1e8]))
    scale = draw(st.sampled_from([1e-3, 1.0, 50.0]))
    seed = draw(st.integers(0, 2**16))
    chunk = draw(st.integers(1, 64))
    series = offset + scale * np.random.default_rng(seed).normal(size=n)
    config = EngineConfig(lookback, horizon, cep=CepConfig(scope_s=scope_s))
    return series, config, chunk


def assert_signatures_match_compute_gene(instances, scope):
    for inst in instances:
        assert GeneVector(inst.x_mu, inst.x_sigma) == compute_gene(inst.x, scope)
        assert GeneVector(inst.y_mu, inst.y_sigma) == compute_gene(inst.y, scope)


class TestSignatures:
    """The one-pass signatures equal per-window compute_gene bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(signature_runs())
    def test_pass_equals_compute_gene(self, drawn):
        series, config, chunk = drawn
        with mock.patch.object(gene, "GENE_CHUNK", chunk):
            warm, online = split_instances(series, config)
        assert_signatures_match_compute_gene(warm, config.scope())
        assert_signatures_match_compute_gene(online, config.scope())

    def test_real_chunk_boundary(self):
        # more warm windows than one chunk holds, at a large offset
        series = 1e8 + np.random.default_rng(5).normal(size=4 * gene.GENE_CHUNK + 200)
        config = EngineConfig(lookback=7, horizon=3, cep=CepConfig(scope_s=5))
        warm, online = split_instances(series, config)
        assert len(warm) > gene.GENE_CHUNK
        assert_signatures_match_compute_gene(warm, 5)
        assert_signatures_match_compute_gene(online, 5)

    @settings(max_examples=60, deadline=None)
    @given(signature_runs(), st.floats(0.0, 1.0, exclude_max=True),
           st.sampled_from([np.nan, np.inf, -np.inf]))
    def test_non_finite_inside_covered_windows_raises(self, drawn, where, bad):
        series, config, chunk = drawn
        _, online = split_instances(series, config)
        covered = online.starts[-1] + config.lookback + config.horizon
        series[int(where * covered)] = bad
        with mock.patch.object(gene, "GENE_CHUNK", chunk):
            with pytest.raises(DriftpoolError, match="non-finite"):
                split_instances(series, config)

    @settings(max_examples=30, deadline=None)
    @given(signature_runs(), st.floats(0.0, 1.0, exclude_max=True))
    def test_non_finite_after_last_covered_point_ignored(self, drawn, where):
        series, config, _ = drawn
        _, online = split_instances(series, config)
        covered = online.starts[-1] + config.lookback + config.horizon
        assume(covered < len(series))
        series[covered + int(where * (len(series) - covered))] = np.nan
        warm, online = split_instances(series, config)
        assert_signatures_match_compute_gene(online, config.scope())

    def test_overflowing_std_is_not_rejected(self):
        # finite inputs whose spread overflows: compute_gene passes them through
        series = np.tile([1e200, -1e200, 3e199], 40)
        config = EngineConfig(lookback=6, horizon=3)
        with np.errstate(over="ignore", invalid="ignore"):
            warm, online = split_instances(series, config)
            assert warm[0].x_sigma == np.inf
            assert_signatures_match_compute_gene(warm, 6)


class TestWarmUp:
    def make_pool(self, lookback=8, horizon=4, kind="naive"):
        f = NaiveForecaster(lookback, horizon) if kind == "naive" else LinearForecaster(lookback, horizon)
        return Pool(f, 0.01, CepConfig())

    def test_zero_instances_is_a_noop(self):
        pool = self.make_pool()
        before = pool.entries[0].genes
        assert warm_up(pool, no_instances(), 5) == []
        assert pool.entries[0].genes == before
        assert len(pool) == 1

    def test_constant_series_gene_converges(self):
        c = 5.0
        series = np.full(2400, c)
        config = EngineConfig(lookback=8, horizon=4, forecaster="naive", warm_epochs=2)
        warm, _ = split_instances(series, config)
        pool = self.make_pool()
        warm_up(pool, warm, 2)
        entry = pool.entries[0]
        assert entry.genes.local.mu == pytest.approx(c)
        assert entry.genes.local.sigma == pytest.approx(0.0, abs=1e-12)
        assert entry.genes.global_.mu == pytest.approx(c, rel=0.01)
        assert entry.genes.global_.sigma < 0.05 * c

    def test_counts_toward_safety_period(self):
        series = np.full(400, 1.0)
        config = EngineConfig(lookback=8, horizon=4, forecaster="naive", warm_epochs=1)
        warm, _ = split_instances(series, config)
        pool = self.make_pool()
        warm_up(pool, warm, 1)
        assert pool.entries[0].n_pred == len(warm)
        assert pool.entries[0].n_pred >= config.cep.tau_safe

    def test_learnable_trend_reduces_loss(self):
        series = np.linspace(0.0, 4.0, 1200)
        config = EngineConfig(lookback=8, horizon=4, warm_epochs=3, lr_raw=0.01)
        warm, _ = split_instances(series, config)
        pool = Pool(LinearForecaster(8, 4), 0.01, config.cep)
        losses = warm_up(pool, warm, 3)
        assert losses[-1] < losses[0]

    def test_trains_at_the_pool_lr(self):
        series = np.linspace(0.0, 4.0, 1200)
        warm, _ = split_instances(series, EngineConfig(lookback=8, horizon=4))
        for lr in (0.01, 0.002):
            pool = Pool(LinearForecaster(8, 4), lr, CepConfig())
            reference = LinearForecaster(8, 4)
            expected = [reference.train_step(i.x, i.y, lr) for i in warm]
            assert warm_up(pool, warm, 1) == expected
            assert (pool.entries[0].forecaster.parameter_checksum()
                    == reference.parameter_checksum())

    def test_requires_single_entry_pool(self):
        pool = self.make_pool()
        pool.evolve(pool.entries[0], 1, 1)
        with pytest.raises(ValidationError, match="single-entry"):
            warm_up(pool, no_instances(), 1)


class TestOnlineStep:
    def test_stationary_stream_never_splits(self):
        rng = np.random.default_rng(0)
        series = rng.normal(0, 1, 3200)
        config = EngineConfig(lookback=20, horizon=8, forecaster="naive", warm_epochs=1)
        result = run(series, config)
        assert result.total_evolutions == 0
        assert result.final_pool_size == 1

    def test_step_change_triggers_one_split(self):
        series = shifted_series([0.0, 10.0], 800, seed=2)
        config = EngineConfig(lookback=20, horizon=10, forecaster="naive", warm_epochs=1)
        result = run(series, config)
        evolved_at = [r.t for r in result.records if r.evolved]
        # exactly one split, fired once the window reaches the new level
        assert len(evolved_at) == 1
        assert 800 - 20 <= evolved_at[0] <= 800 + 2 * 10

    def test_abandoned_step_changes_nothing_but_counters(self, abandoned_step):
        # the scenario is C10's; this checks every field of every entry, not just
        # the forecaster and the signature
        pool, record, before = abandoned_step.pool, abandoned_step.record, abandoned_step.before
        assert record.abandoned
        assert not record.evolved
        assert {e.id for e in pool.entries} <= before.keys()
        for e in pool.entries:
            served = e.id == record.selected_entry_id
            assert e.forecaster.parameter_checksum() == before[e.id].checksum
            assert e.genes == before[e.id].genes
            assert e.lr_current == before[e.id].lr_current
            assert e.n_pred == before[e.id].n_pred + served
            assert e.n_wait == (0 if served else before[e.id].n_wait + 1)

    def test_pool_config_governs_the_step(self):
        # a shifting stream that splits under the default thresholds
        series = shifted_series([0.0, 10.0, 20.0, 30.0], 400, sigma=0.2, seed=12)
        warm, online = split_instances(series, EngineConfig(lookback=16, horizon=8))

        def stream(cep):
            pool = Pool(NaiveForecaster(16, 8), 0.01, cep)
            warm_up(pool, warm, 1)
            return pool, [online_step(pool, inst) for inst in online]

        _, records = stream(CepConfig())
        assert any(r.evolved for r in records)
        pool, records = stream(CepConfig(evolution=False, max_pool_size=1))
        assert not any(r.evolved or r.eliminated_ids for r in records)
        assert len(pool) == 1

    def test_records_are_time_ordered(self):
        series = shifted_series([0.0, 6.0, 0.0], 500, seed=3)
        config = EngineConfig(lookback=12, horizon=6, forecaster="naive", warm_epochs=1)
        result = run(series, config)
        ts = [r.t for r in result.records]
        assert ts == sorted(ts)

    def test_fifo_eviction_reported_in_record(self):
        # several fresh levels force repeated splits past the cap
        series = shifted_series([0.0, 10.0, 20.0, 30.0], 400, sigma=0.2, seed=12)
        cep = CepConfig(max_pool_size=2)
        config = EngineConfig(lookback=16, horizon=8, forecaster="naive",
                              warm_epochs=1, cep=cep)
        result = run(series, config)
        evictions = [r for r in result.records if r.evolved and r.eliminated_ids]
        assert evictions, "expected at least one capped split"
        for r in evictions:
            assert all(eid < r.selected_entry_id for eid in r.eliminated_ids)
        assert max(r.pool_size for r in result.records) <= 2

    def test_divergent_training_raises_numeric_error(self):
        from driftpool.errors import NumericError

        series = np.full(800, 50.0) + 0.1 * np.sin(np.arange(800))
        config = EngineConfig(lookback=20, horizon=10, lr_raw=0.5, warm_epochs=1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError):
                run(series, config)

    @pytest.mark.parametrize("y_mu, abandoned, message", [
        (0.0, False, "non-finite training loss at t=7$"),
        (100.0, True, "non-finite forecast at t=7$"),
    ])
    def test_non_finite_forecast_names_its_step(self, y_mu, abandoned, message):
        # a settled entry at (0, 1): the window never splits; the truth's mean
        # decides whether the step trains or abandons its gradient
        pool = Pool(LinearForecaster(4, 2), 0.01, CepConfig())
        entry = pool.entries[0]
        g = GeneVector(0.0, 1.0)
        entry.genes = GeneState(g, g, 50)
        entry.n_pred = 50
        entry.forecaster.bias[:] = np.nan
        inst = Instance(x=np.zeros(4), y=np.full(2, y_mu), t=7, x_mu=0.0, x_sigma=1.0,
                        y_mu=y_mu, y_sigma=1.0)
        with mock.patch.object(LinearForecaster, "train_step",
                               wraps=entry.forecaster.train_step) as train:
            with pytest.raises(NumericError, match=message):
                online_step(pool, inst)
        assert train.call_count == (0 if abandoned else 1)


class TestRun:
    def test_same_config_is_bit_identical(self):
        series = shifted_series([0.0, 5.0, 0.0, 5.0], 400, seed=6)
        config = EngineConfig(lookback=16, horizon=8, forecaster="mlp", hidden=8,
                              lr_raw=1e-3, warm_epochs=2, seed=11)
        a = run(series, config)
        b = run(series, config)
        assert a == b
        assert a.records == b.records

    def test_seed_changes_mlp_run(self):
        series = shifted_series([0.0, 5.0], 600, seed=6)
        base = dict(lookback=16, horizon=8, forecaster="mlp", hidden=8,
                    lr_raw=1e-3, warm_epochs=1)
        a = run(series, EngineConfig(seed=1, **base))
        b = run(series, EngineConfig(seed=2, **base))
        assert a.records != b.records

    def test_evolution_off_matches_bare_run(self):
        series = shifted_series([0.0, 4.0, 0.0], 500, seed=8)
        config = EngineConfig(lookback=20, horizon=10, cep=CepConfig(evolution=False),
                              lr_raw=1e-3, warm_epochs=2)
        assert run(series, config) == run_bare(series, config)

    def test_aggregate_matches_records(self):
        series = shifted_series([0.0, 4.0], 500, seed=9)
        config = EngineConfig(lookback=20, horizon=10, forecaster="naive", warm_epochs=1)
        result = run(series, config)
        assert result.mean_mse == pytest.approx(
            float(np.mean([r.mse for r in result.records]))
        )
        assert result.total_evolutions == sum(r.evolved for r in result.records)
        assert result.total_eliminations == sum(len(r.eliminated_ids) for r in result.records)

    def test_logged_forecasts_reproduce_mse(self):
        series = shifted_series([0.0, 4.0], 500, seed=10)
        config = EngineConfig(lookback=20, horizon=10, lr_raw=1e-3, warm_epochs=1)
        result = run(series, config, log_forecasts=True)
        _, online = split_instances(series, config)
        by_t = {i.t: i for i in online}
        for r in result.records:
            recomputed = mse(np.array(r.forecast), by_t[r.t].y)
            assert recomputed == r.mse

    def test_forecasts_not_logged_by_default(self):
        series = shifted_series([0.0, 4.0], 500, seed=10)
        config = EngineConfig(lookback=20, horizon=10, forecaster="naive", warm_epochs=1)
        result = run(series, config)
        assert all(r.forecast is None for r in result.records)

    def test_final_gene_matches_batch_oracle_over_run(self):
        # single-entry run: its global gene must equal batch moments over the
        # zero seed plus every absorbed window mean (warm epochs + online)
        rng = np.random.default_rng(13)
        series = rng.normal(2.0, 1.0, 900)
        config = EngineConfig(lookback=15, horizon=5, forecaster="naive",
                              warm_epochs=2, cep=CepConfig(evolution=False))
        warm, online = split_instances(series, config)
        result = run(series, config)
        entry = result.pool.entries[0]
        means = [0.0]
        means += [float(i.x.mean()) for i in warm] * config.warm_epochs
        means += [float(i.x.mean()) for i in online]
        assert entry.genes.n == len(means)
        assert entry.genes.global_.mu == pytest.approx(np.mean(means), rel=1e-9)
        assert entry.genes.global_.sigma == pytest.approx(np.std(means), rel=1e-9)

    def test_mle_score_routes_recurring_concepts(self):
        series = shifted_series([0.0, 8.0, 0.0, 8.0], 600, sigma=0.25, seed=14)
        config = EngineConfig(lookback=20, horizon=10, forecaster="naive",
                              warm_epochs=1, cep=CepConfig(retrieval_score="mle"))
        result = run(series, config)
        # zeros recur to the warm specialist, eights to the first split child
        first_high = {r.selected_entry_id for r in result.records if 610 <= r.t <= 1200 - 30}
        last_zero = {r.selected_entry_id for r in result.records if 1200 <= r.t <= 1800 - 30}
        last_high = {r.selected_entry_id for r in result.records if 1800 <= r.t <= 2400 - 30}
        assert last_zero == {0}
        assert last_high == first_high
        # no split fires inside a pure recurring segment, only at boundaries
        for r in result.records:
            if r.evolved:
                assert any(abs(r.t - b) <= config.lookback for b in (600, 1200, 1800))


def lifecycle_series():
    """A recurring stream that splits, abandons gradients and trains at every kind's lr."""
    return shifted_series([0.0, 6.0, 0.0, 6.0, 12.0], 300, sigma=0.3, seed=15)


def lifecycle_config(kind, abandonment):
    return EngineConfig(lookback=16, horizon=8, forecaster=kind, hidden=6, lr_raw=1e-3,
                        warm_epochs=1, cep=CepConfig(gradient_abandonment=abandonment))


class TestOneForwardPass:
    @pytest.mark.parametrize("abandonment", [True, False])
    @pytest.mark.parametrize("kind", FORECASTER_KINDS)
    def test_logging_forecasts_changes_only_the_forecast_field(self, kind, abandonment):
        series = lifecycle_series()
        config = lifecycle_config(kind, abandonment)
        logged = run(series, config, log_forecasts=True)
        plain = run(series, config)
        assert any(r.evolved for r in plain.records)
        assert any(r.abandoned for r in plain.records) == abandonment
        assert all(r.forecast is not None for r in logged.records)
        assert [replace(r, forecast=None) for r in logged.records] == plain.records
        assert logged.mean_mse == plain.mean_mse

    @pytest.mark.parametrize("kind", FORECASTER_KINDS)
    def test_trained_mse_is_the_pre_step_forecast_mse(self, kind):
        series = lifecycle_series()
        config = lifecycle_config(kind, True)
        warm, online = split_instances(series, config)
        pool = Pool(make_forecaster(kind, 16, 8, hidden=6, seed=0), config.resolved_lr(),
                    config.cep)
        warm_up(pool, warm, config.warm_epochs)
        trained = 0
        for inst in online:
            before = {e.id: e.forecaster.deep_clone() for e in pool.entries}
            r = online_step(pool, inst)
            # a split child starts as a clone of its parent's forecaster
            clone = before[r.evolved_from if r.evolved else r.selected_entry_id]
            if not r.abandoned:
                trained += 1
                assert r.mse == mse(clone.predict(inst.x), inst.y)
        assert 0 < trained < len(online)


class TestInstances:
    def test_make_instances_respects_bounds(self):
        series = np.arange(100, dtype=float)
        out = make_instances(series, 0, 100, 7, 10, 5, 10)
        for inst in out:
            assert isinstance(inst, Instance)
            assert len(inst.x) == 10 and len(inst.y) == 5
            assert inst.t + 15 <= 100

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            EngineConfig(lookback=0, horizon=5)
        with pytest.raises(ValidationError):
            EngineConfig(lookback=5, horizon=0)
        with pytest.raises(ValidationError):
            EngineConfig(lookback=5, horizon=5, lr_raw=-1.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="lr_raw must be finite"):
                EngineConfig(lookback=5, horizon=5, lr_raw=bad)
        with pytest.raises(ValidationError):
            EngineConfig(lookback=5, horizon=5, warm_epochs=-1)

    @pytest.mark.parametrize("field, bad", [("hidden", 0), ("hidden", -1), ("seed", -1)])
    def test_rejects_what_the_forecaster_cannot_build(self, field, bad):
        with pytest.raises(ValidationError, match=f"{field} must be >= "):
            EngineConfig(lookback=5, horizon=5, forecaster="mlp", **{field: bad})

    def test_config_is_hashable_and_frozen(self):
        import dataclasses

        config = EngineConfig(10, 5)
        assert hash(config) == hash(EngineConfig(10, 5))
        assert len({config, EngineConfig(10, 5, cep=CepConfig(tau_lr=0.25))}) == 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.cep.tau_lr = 0.0
        assert config.cep.tau_lr == 0.5

    def test_scope_defaults_to_lookback(self):
        assert EngineConfig(lookback=24, horizon=6).scope() == 24
        narrowed = EngineConfig(lookback=24, horizon=6, cep=CepConfig(scope_s=8))
        assert narrowed.scope() == 8

    def test_scope_changes_signatures(self):
        # a ramp makes the tail mean differ from the full-window mean
        series = np.tile(np.linspace(0.0, 4.0, 40), 60)
        full = run(series, EngineConfig(lookback=40, horizon=8, forecaster="naive",
                                        warm_epochs=1))
        tail = run(series, EngineConfig(lookback=40, horizon=8, forecaster="naive",
                                        warm_epochs=1, cep=CepConfig(scope_s=5)))
        assert full.records[0].gene_mu != tail.records[0].gene_mu
