"""Engine orchestration tests: splits, warm-up, online semantics, determinism."""

import numpy as np
import pytest

from driftpool.engine import (
    EngineConfig,
    Instance,
    make_instances,
    online_step,
    run,
    run_bare,
    split_instances,
    warm_split_index,
    warm_up,
)
from driftpool.errors import SizingError, ValidationError
from driftpool.forecasters import LinearForecaster, NaiveForecaster, mse
from driftpool.gene import GeneVector
from driftpool.pool import CepConfig, Pool


def enumerate_windows(n, start, stop, stride, lookback, horizon):
    """Oracle: all window starts whose (x, y) pair fits in the series."""
    out = []
    t = start
    while t < stop:
        if t + lookback + horizon <= n:
            out.append(t)
        t += stride
    return out


def shifted_series(levels, seg, sigma=0.25, seed=0):
    rng = np.random.default_rng(seed)
    return np.concatenate([np.full(seg, lvl) + rng.normal(0, sigma, seg) for lvl in levels])


class TestSplit:
    def test_documented_arithmetic(self):
        series = np.arange(400, dtype=float)
        warm, online = split_instances(series, 60, 30)
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
            warm, online = split_instances(series, lookback, horizon)
            w = warm_split_index(n)
            span = lookback + horizon
            assert [i.t for i in warm] == enumerate_windows(n, 0, w - span + 1, 1, lookback, horizon)
            assert [i.t for i in online] == enumerate_windows(n, w, n, horizon, lookback, horizon)

    def test_window_contents(self):
        series = np.arange(500, dtype=float)
        _, online = split_instances(series, 10, 5)
        inst = online[0]
        assert np.array_equal(inst.x, np.arange(inst.t, inst.t + 10))
        assert np.array_equal(inst.y, np.arange(inst.t + 10, inst.t + 15))

    def test_truth_never_overlaps_input(self):
        series = np.zeros(600)
        warm, online = split_instances(series, 12, 7)
        for inst in warm + online:
            assert inst.t + 12 == inst.t + len(inst.x)  # y starts right after x

    def test_online_truths_are_disjoint(self):
        series = np.zeros(1000)
        _, online = split_instances(series, 17, 9)
        spans = [(i.t + 17, i.t + 17 + 9) for i in online]
        for (a_lo, a_hi), (b_lo, b_hi) in zip(spans, spans[1:]):
            assert a_hi <= b_lo

    def test_too_short_series_raises_with_minimum(self):
        with pytest.raises(SizingError, match="at least 360"):
            split_instances(np.zeros(200), 60, 30)

    def test_last_overrunning_instance_dropped(self):
        # online stop is the series end; a y overrun must drop the pair
        series = np.zeros(4 * 30 + 7)
        warm, online = split_instances(series, 20, 10)
        for inst in online:
            assert inst.t + 30 <= len(series)


class TestWarmUp:
    def make_pool(self, lookback=8, horizon=4, kind="naive"):
        f = NaiveForecaster(lookback, horizon) if kind == "naive" else LinearForecaster(lookback, horizon)
        return Pool(f, 0.01, CepConfig())

    def test_zero_instances_is_a_noop(self):
        pool = self.make_pool()
        config = EngineConfig(lookback=8, horizon=4, forecaster="naive")
        before = pool.entries[0].genes
        assert warm_up(pool, [], 5, 0.01, config) == []
        assert pool.entries[0].genes == before
        assert len(pool) == 1

    def test_constant_series_gene_converges(self):
        c = 5.0
        series = np.full(2400, c)
        config = EngineConfig(lookback=8, horizon=4, forecaster="naive", warm_epochs=2)
        warm, _ = split_instances(series, 8, 4)
        pool = self.make_pool()
        warm_up(pool, warm, 2, 0.01, config)
        entry = pool.entries[0]
        assert entry.genes.local.mu == pytest.approx(c)
        assert entry.genes.local.sigma == pytest.approx(0.0, abs=1e-12)
        assert entry.genes.global_.mu == pytest.approx(c, rel=0.01)
        assert entry.genes.global_.sigma < 0.05 * c

    def test_counts_toward_safety_period(self):
        series = np.full(400, 1.0)
        config = EngineConfig(lookback=8, horizon=4, forecaster="naive", warm_epochs=1)
        warm, _ = split_instances(series, 8, 4)
        pool = self.make_pool()
        warm_up(pool, warm, 1, 0.01, config)
        assert pool.entries[0].n_pred == len(warm)
        assert pool.entries[0].n_pred >= config.cep.tau_safe

    def test_learnable_trend_reduces_loss(self):
        series = np.linspace(0.0, 4.0, 1200)
        config = EngineConfig(lookback=8, horizon=4, warm_epochs=3, lr_raw=0.01)
        warm, _ = split_instances(series, 8, 4)
        pool = Pool(LinearForecaster(8, 4), 0.01, config.cep)
        losses = warm_up(pool, warm, 3, 0.01, config)
        assert losses[-1] < losses[0]

    def test_requires_single_entry_pool(self):
        pool = self.make_pool()
        pool.evolve(pool.entries[0], GeneVector(1, 1))
        config = EngineConfig(lookback=8, horizon=4, forecaster="naive")
        with pytest.raises(ValidationError, match="single-entry"):
            warm_up(pool, [], 1, 0.01, config)


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

    def test_abandoned_step_changes_nothing_but_counters(self):
        # x fully inside the old concept, y fully inside the new one
        lookback, horizon = 16, 8
        boundary = 400 + 5 * horizon + lookback
        series = np.concatenate([np.zeros(boundary), np.full(600, 50.0)])
        series = series + 0.01 * np.sin(np.arange(len(series)))
        config = EngineConfig(lookback=lookback, horizon=horizon, forecaster="linear",
                              lr_raw=1e-4, warm_epochs=1)
        warm, online = split_instances(series, lookback, horizon)
        pool = Pool(LinearForecaster(lookback, horizon), 1e-4, config.cep)
        warm_up(pool, warm, 1, 1e-4, config)

        target = next(i for i in online if i.t + lookback == boundary)
        for inst in online:
            if inst.t == target.t:
                break
            online_step(pool, inst, config)

        checksums = {e.id: e.forecaster.parameter_checksum() for e in pool.entries}
        genes = {e.id: e.genes for e in pool.entries}
        preds = {e.id: e.n_pred for e in pool.entries}
        record = online_step(pool, target, config)

        assert record.abandoned
        assert not record.evolved
        for e in pool.entries:
            assert e.forecaster.parameter_checksum() == checksums[e.id]
            assert e.genes == genes[e.id]
        selected = next(e for e in pool.entries if e.id == record.selected_entry_id)
        assert selected.n_pred == preds[selected.id] + 1

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
        config = EngineConfig(lookback=20, horizon=10, lr_raw=1e-3, warm_epochs=1,
                              log_forecasts=True)
        result = run(series, config)
        _, online = split_instances(series, 20, 10)
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
        warm, online = split_instances(series, 15, 5)
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


class TestInstances:
    def test_make_instances_respects_bounds(self):
        series = np.arange(100, dtype=float)
        out = make_instances(series, 0, 100, 7, 10, 5)
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
        with pytest.raises(ValidationError):
            EngineConfig(lookback=5, horizon=5, warm_epochs=-1)

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
