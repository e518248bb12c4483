"""Engine orchestration tests: splits, warm-up, online semantics, determinism."""

import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from driftpool import gene
from driftpool.data import default_stream_spec, generate, normalize
from driftpool.engine import (
    EngineConfig,
    InstanceSet,
    StepLog,
    online_step,
    run,
    split_instances,
    warm_split_index,
    warm_up,
)
from driftpool.errors import DriftpoolError, NumericError, ValidationError
from driftpool.forecasters import (
    FORECASTER_KINDS,
    LinearForecaster,
    NaiveForecaster,
    make_forecaster,
    mse,
)
from driftpool.gene import compute_gene
from driftpool.manifest import RunManifest, build_bundle
from driftpool.pool import CepConfig, Pool, absorb_instance
from reference import Gene, genes_of, n_wait, parameter_checksum, run_bare, set_genes


def enumerate_windows(n, start, stop, stride, lookback, horizon):
    """Oracle: all window starts whose (x, y) pair fits in the series."""
    out = []
    t = start
    while t < stop:
        if t + lookback + horizon <= n:
            out.append(t)
        t += stride
    return out


def pairs(instances):
    """``(t, x, y)`` of every instance, sliced from the set's series."""
    series, lookback, horizon = instances.series, instances.lookback, instances.horizon
    return [(t, series[t:t + lookback], series[t + lookback:t + lookback + horizon])
            for t in instances.starts]


def no_instances():
    """An empty warm set for an 8/4 run with the default scope."""
    return InstanceSet(np.zeros(12), np.arange(0), 8, 4, 8)


def warm_up_losses(pool, warm_instances, epochs):
    """Runs ``warm_up``, which returns None, and returns the losses its seed
    model's ``train_step`` returned, in order."""
    model, losses = pool.entries[0].forecaster, []
    step = model.train_step

    def recorded(*args):
        losses.append(step(*args))
        return losses[-1]

    with mock.patch.object(model, "train_step", wraps=recorded):
        assert warm_up(pool, warm_instances, epochs) is None
    return losses


def shifted_series(levels, seg, sigma=0.25, seed=0):
    rng = np.random.default_rng(seed)
    return np.concatenate([np.full(seg, lvl) + rng.normal(0, sigma, seg) for lvl in levels])


def split_times(log):
    """The ``t`` of every step that split an entry."""
    return [t for t, parent in zip(log.t, log.evolved_from) if parent is not None]


class TestSplit:
    def test_documented_arithmetic(self):
        series = np.arange(400, dtype=float)
        warm, online = split_instances(series, EngineConfig(60, 30))
        assert warm_split_index(400) == 100
        assert len(warm) == 11  # stride-1 pairs inside the first 100 points
        assert online.starts == [100, 130, 160, 190, 220, 250, 280, 310]
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
            assert warm.starts == enumerate_windows(n, 0, w - span + 1, 1, lookback, horizon)
            assert online.starts == enumerate_windows(n, w, n, horizon, lookback, horizon)

    def test_window_contents(self):
        series = np.arange(500, dtype=float)
        _, online = split_instances(series, EngineConfig(10, 5))
        t, x, y = pairs(online)[0]
        assert np.array_equal(x, np.arange(t, t + 10))
        assert np.array_equal(y, np.arange(t + 10, t + 15))

    def test_truth_never_overlaps_input(self):
        # on a ramp a window's mean gives its position: y begins right after x
        series = np.arange(600, dtype=float)
        _, online = split_instances(series, EngineConfig(12, 7))
        for t, x_mu, y_mu in zip(online.starts, online.x_mu, online.y_mu):
            assert (x_mu, y_mu) == (t + 5.5, t + 12 + 3)

    def test_online_truths_are_disjoint(self):
        series = np.zeros(1000)
        _, online = split_instances(series, EngineConfig(17, 9))
        spans = [(t + 17, t + 17 + 9) for t in online.starts]
        for (a_lo, a_hi), (b_lo, b_hi) in zip(spans, spans[1:]):
            assert a_hi <= b_lo

    def test_too_short_series_raises_with_minimum(self):
        with pytest.raises(ValidationError, match="at least 360"):
            split_instances(np.zeros(200), EngineConfig(60, 30))

    def test_last_overrunning_instance_dropped(self):
        # online stop is the series end; a y overrun must drop the pair
        series = np.zeros(4 * 30 + 7)
        warm, online = split_instances(series, EngineConfig(20, 10))
        for t in online.starts:
            assert t + 30 <= len(series)


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
    """Input signatures, and the truths' means where signed, equal compute_gene's."""
    for i, (_, x, y) in enumerate(pairs(instances)):
        assert (instances.x_mu[i], instances.x_sigma[i]) == compute_gene(x, scope)
        if instances.y_mu is not None:
            assert instances.y_mu[i] == compute_gene(y, scope)[0]


class TestSignatures:
    """The one-pass signatures equal per-window compute_gene bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(signature_runs())
    def test_pass_equals_compute_gene(self, drawn):
        series, config, chunk = drawn
        with mock.patch.object(gene, "GENE_CHUNK", chunk):
            warm, online = split_instances(series, config)
        assert warm.y_mu is None and len(online.y_mu) == len(online)
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
    @example((np.zeros(400), EngineConfig(8, 4), 64), 0.24875, np.nan)  # t=99, warm truth only
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

    def test_overflowing_signature_raises_naming_its_window(self):
        # a finite spike whose square overflows: the first window holding it is
        # the input of online step t=300, or the truth starting at t=299
        series = np.zeros(1200)
        series[302] = 1e155
        with np.errstate(over="ignore"):
            with pytest.raises(NumericError, match=r"non-finite window signature at t=300$"):
                split_instances(series, EngineConfig(lookback=8, horizon=4))
            with pytest.raises(NumericError, match=r"non-finite window signature at t=299$"):
                gene.window_genes(series, np.array([295, 299, 300]), 4, 4)
            with pytest.raises(NumericError, match="non-finite window signature"):
                compute_gene(series[299:303], 4)

    @pytest.mark.parametrize("last, message", [
        (1.7e308, "non-finite window signature at t=1188"),
        (np.inf, "non-finite input in the window at t=1188"),
    ])
    def test_truth_window_error_names_its_step(self, last, message):
        # the last two values lie only in the ground truth of the last step,
        # t=1188, whose window starts at 1196; two of 1.7e308 overflow its mean
        series = np.zeros(1200)
        series[-2:] = last
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match=f"^{message}$"):
                split_instances(series, EngineConfig(lookback=8, horizon=4))

    def test_a_truth_is_signed_for_its_mean_only(self):
        # the last truth's std would overflow, but its mean does not, and only the
        # mean is computed: no overflow warning (an error under pytest) is raised
        series = np.zeros(1200)
        series[-1] = 1e155
        _, online = split_instances(series, EngineConfig(lookback=8, horizon=4))
        assert online.y_mu[-1] == float(series[-4:].mean()) == 2.5e154

    def test_offset_windows_equal_the_shifted_starts(self):
        series = 1e3 + np.random.default_rng(8).normal(size=500)
        starts = np.arange(0, 480, 3)
        for scope in (2, 4, 9):
            shifted = gene.window_genes(series, starts + 12, 6, scope)
            offset = gene.window_genes(series, starts, 6, scope, offset=12)
            assert all(np.array_equal(a, b) for a, b in zip(shifted, offset))


class TestWarmUp:
    def make_pool(self, lookback=8, horizon=4, kind="naive"):
        f = NaiveForecaster(lookback, horizon) if kind == "naive" else LinearForecaster(lookback, horizon)
        return Pool(f, 0.01, CepConfig())

    def test_zero_instances_is_a_noop(self):
        pool = self.make_pool()
        before = genes_of(pool.entries[0])
        assert warm_up(pool, no_instances(), 5) is None
        assert genes_of(pool.entries[0]) == before
        assert len(pool) == 1

    def test_constant_series_gene_converges(self):
        c = 5.0
        series = np.full(2400, c)
        config = EngineConfig(lookback=8, horizon=4, forecaster="naive", warm_epochs=2)
        warm, _ = split_instances(series, config)
        pool = self.make_pool()
        warm_up(pool, warm, 2)
        entry = pool.entries[0]
        assert entry.local_mu == pytest.approx(c)
        assert entry.local_sigma == pytest.approx(0.0, abs=1e-12)
        assert entry.global_mu == pytest.approx(c, rel=0.01)
        assert entry.global_sigma < 0.05 * c

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
        losses = warm_up_losses(pool, warm, 3)
        assert len(losses) == 3 * len(warm)
        assert losses[-1] < losses[0]

    def test_trains_at_the_pool_lr(self):
        series = np.linspace(0.0, 4.0, 1200)
        warm, _ = split_instances(series, EngineConfig(lookback=8, horizon=4))
        for lr in (0.01, 0.002):
            pool = Pool(LinearForecaster(8, 4), lr, CepConfig())
            solo = LinearForecaster(8, 4)
            expected = [solo.train_step(x, y, lr) for _, x, y in pairs(warm)]
            assert warm_up_losses(pool, warm, 1) == expected
            assert parameter_checksum(pool.entries[0].forecaster) == parameter_checksum(solo)

    def test_requires_single_entry_pool(self):
        pool = self.make_pool()
        pool.evolve(pool.entries[0], 1, 1)
        with pytest.raises(ValidationError, match="single-entry"):
            warm_up(pool, no_instances(), 1)

    @settings(max_examples=80, deadline=None)
    @given(offset=st.sampled_from([0.0, 1e3, -1e6, 1e6]) | st.floats(-1e6, 1e6),
           spread=st.sampled_from([0.0, 1e-3, 1.0, 50.0]),
           n_windows=st.integers(0, 40), epochs=st.integers(0, 3),
           tau_l=st.just(1.0) | st.floats(0.0, 1.0, exclude_min=True),
           tau_gene=st.floats(0.0, 1.0),
           parts=st.sampled_from([(True, True), (True, False), (False, True)]),
           scope=st.integers(1, 8), seed=st.integers(0, 2**16))
    @example(offset=1e6, spread=1.0, n_windows=0, epochs=3, tau_l=1.0, tau_gene=0.8,
             parts=(True, True), scope=8, seed=0)
    @example(offset=-1e6, spread=50.0, n_windows=40, epochs=3, tau_l=1.0, tau_gene=0.8,
             parts=(True, True), scope=3, seed=1)
    def test_fold_equals_absorbing_step_by_step(self, offset, spread, n_windows, epochs,
                                                tau_l, tau_gene, parts, scope, seed):
        # the warm-up's absorb and count against absorb_instance + mark_selected per step
        cep = CepConfig(tau_l=tau_l, tau_gene=tau_gene, scope_s=scope,
                        use_local_gene=parts[0], use_global_gene=parts[1])
        series = offset + spread * np.random.default_rng(seed).normal(size=60)
        warm = InstanceSet(series, np.arange(n_windows), 8, 4, scope)
        folded = Pool(NaiveForecaster(8, 4), 0.01, cep)
        warm_up(folded, warm, epochs)
        stepped = Pool(NaiveForecaster(8, 4), 0.01, cep)
        for _ in range(epochs):
            for mu, sigma in zip(warm.x_mu, warm.x_sigma):
                absorb_instance(stepped.entries[0], mu, sigma)
                stepped.mark_selected(stepped.entries[0])
        a, b = folded.entries[0], stepped.entries[0]
        assert repr(genes_of(a)) == repr(genes_of(b))  # tells 0.0 from -0.0
        assert repr((a.mu, a.sigma)) == repr((b.mu, b.sigma))
        assert (a.n_pred, n_wait(folded, a)) == (b.n_pred, n_wait(stepped, b))
        assert a.n_pred == epochs * len(warm)

    # 150 x -1e154, a ramp to 1e154, 60 x 1e154, then -1e154 to 1,200 points:
    # at scope 1 the fold overflows on the ramp (t=157), before any training
    # loss does (t=218); at the full scope the input window of t=222 overflows
    RAMP = np.concatenate([np.full(150, -1e154), np.linspace(-1e154, 1e154, 21)[1:-1],
                           np.full(60, 1e154), np.full(971, -1e154)])
    # a spike at row 20: training overflows at t=9, the fold at t=13 (scope 1)
    SPIKE = np.where(np.arange(1200) == 20, 1e155, 0.0)

    @pytest.mark.parametrize("series, scope, message", [
        (RAMP, 1, "global moments overflow absorbing a window mean of 5.000000000000001e+153"
                  " at t=157 in warm-up epoch 1"),
        (RAMP, None, "non-finite window signature at t=222"),
        (SPIKE, 1, "non-finite training loss at t=9 in warm-up epoch 1"),
    ], ids=["fold-first", "signature", "training-first"])
    def test_raises_the_first_failing_step(self, series, scope, message):
        config = EngineConfig(lookback=8, horizon=4, forecaster="naive", warm_epochs=1,
                              cep=CepConfig(scope_s=scope))
        with pytest.raises(NumericError, match=f"^{re.escape(message)}$"):
            run(series, config)

    class FailsOnCall(NaiveForecaster):
        """A naive forecaster whose ``train_step`` raises on its call ``fail_at``
        (0-based), the call of warm step t=fail_at in the first epoch."""

        def __init__(self, lookback, horizon, fail_at):
            super().__init__(lookback, horizon)
            self.calls, self.fail_at = 0, fail_at

        def train_step(self, window, truth, lr):
            self.calls += 1
            if self.calls - 1 == self.fail_at:
                raise NumericError("planted training failure")
            return super().train_step(window, truth, lr)

    @pytest.mark.parametrize("fail_at, message", [
        (156, "planted training failure at t=156 in warm-up epoch 1"),
        (157, "planted training failure at t=157 in warm-up epoch 1"),
        (158, "global moments overflow absorbing a window mean of 5.000000000000001e+153"
              " at t=157 in warm-up epoch 1"),
    ], ids=["step-before", "same-step", "next-step"])
    def test_a_training_failure_wins_on_the_fold_failures_step(self, fail_at, message):
        # RAMP at scope 1 fails the fold at t=157: training failing on that same
        # step is the error raised, and failing one step later is not reached
        config = EngineConfig(lookback=8, horizon=4, forecaster="naive", warm_epochs=1,
                              cep=CepConfig(scope_s=1))
        warm, _ = split_instances(self.RAMP, config)
        pool = Pool(self.FailsOnCall(8, 4, fail_at), 0.01, config.cep)
        with pytest.raises(NumericError, match=f"^{re.escape(message)}$"):
            warm_up(pool, warm, 1)

    @pytest.mark.parametrize("fail_at", [None, 40, 157], ids=["fold", "training", "same-step"])
    def test_a_failed_warm_up_keeps_every_step_before_the_failure(self, fail_at):
        # RAMP at scope 1 fails the fold at t=157; a planted training failure fails earlier
        # or on that step. Like the forecaster's training, the signatures, their count, the
        # prediction total and the cached mixed signature hold every step before the failing
        # one, and nothing of the failing step.
        config = EngineConfig(lookback=8, horizon=4, forecaster="naive", warm_epochs=1,
                              cep=CepConfig(scope_s=1))
        warm, _ = split_instances(self.RAMP, config)
        forecaster = NaiveForecaster(8, 4) if fail_at is None else self.FailsOnCall(8, 4, fail_at)
        pool = Pool(forecaster, 0.01, config.cep)
        failing = 157 if fail_at is None else fail_at  # warm step t is the set's t-th
        with pytest.raises(NumericError, match=f"at t={failing} in warm-up epoch 1$"):
            warm_up(pool, warm, 1)
        stepped = Pool(NaiveForecaster(8, 4), 0.01, config.cep)
        for mu, sigma in zip(warm.x_mu[:failing], warm.x_sigma[:failing]):
            absorb_instance(stepped.entries[0], mu, sigma)
            stepped.mark_selected(stepped.entries[0])

        def state(entry):
            return repr((genes_of(entry), entry.n_pred, entry.mu, entry.sigma))

        assert state(pool.entries[0]) == state(stepped.entries[0])
        assert pool.entries[0].n_pred == failing

    def test_training_failure_names_its_step_and_epoch(self):
        # just past the stable rate, the weights outgrow a float in the second epoch
        series = np.full(1200, 50.0) + 0.1 * np.sin(np.arange(1200))
        config = EngineConfig(lookback=20, horizon=10, lr_raw=0.0003, warm_epochs=3)
        with pytest.raises(NumericError,
                           match="^non-finite training loss at t=234 in warm-up epoch 2$"):
            run(series, config)


class TestOnlineStep:
    def test_stationary_stream_never_splits(self):
        rng = np.random.default_rng(0)
        series = rng.normal(0, 1, 3200)
        config = EngineConfig(lookback=20, horizon=8, forecaster="naive", warm_epochs=1)
        log = run(series, config).log
        assert set(log.evolved_from) == {None}
        assert set(log.pool_size) == {1}

    def test_step_change_triggers_one_split(self):
        series = shifted_series([0.0, 10.0], 800, seed=2)
        config = EngineConfig(lookback=20, horizon=10, forecaster="naive", warm_epochs=1)
        result = run(series, config)
        evolved_at = split_times(result.log)
        # exactly one split, fired once the window reaches the new level
        assert len(evolved_at) == 1
        assert 800 - 20 <= evolved_at[0] <= 800 + 2 * 10

    def test_abandoned_step_changes_nothing_but_counters(self, abandoned_step):
        # the scenario is C10's; this checks every field of every entry, not just
        # the forecaster and the signature
        pool, record, before = abandoned_step.pool, abandoned_step.record, abandoned_step.before
        assert record.abandoned
        assert record.evolved_from is None
        assert {e.id for e in pool.entries} <= before.keys()
        for e in pool.entries:
            served = e.id == record.selected_entry_id
            assert parameter_checksum(e.forecaster) == before[e.id].checksum
            assert genes_of(e) == before[e.id].genes
            assert e.lr_current == before[e.id].lr_current
            assert e.n_pred == before[e.id].n_pred + served
            assert n_wait(pool, e) == (0 if served else before[e.id].n_wait + 1)

    def test_pool_config_governs_the_step(self):
        # a shifting stream that splits under the default thresholds
        series = shifted_series([0.0, 10.0, 20.0, 30.0], 400, sigma=0.2, seed=12)
        warm, online = split_instances(series, EngineConfig(lookback=16, horizon=8))

        def stream(cep):
            pool = Pool(NaiveForecaster(16, 8), 0.01, cep)
            warm_up(pool, warm, 1)
            log = StepLog()
            for i in range(len(online)):
                online_step(pool, online, i, log)
            return pool, log

        _, log = stream(CepConfig())
        assert split_times(log)
        pool, log = stream(CepConfig(evolution=False, max_pool_size=1))
        assert not split_times(log) and not any(log.eliminated_ids)
        assert len(pool) == 1

    def test_records_are_time_ordered(self):
        series = shifted_series([0.0, 6.0, 0.0], 500, seed=3)
        config = EngineConfig(lookback=12, horizon=6, forecaster="naive", warm_epochs=1)
        result = run(series, config)
        ts = result.log.t
        assert ts == sorted(ts)

    def test_fifo_eviction_reported_in_record(self):
        # several fresh levels force repeated splits past the cap
        series = shifted_series([0.0, 10.0, 20.0, 30.0], 400, sigma=0.2, seed=12)
        cep = CepConfig(max_pool_size=2)
        config = EngineConfig(lookback=16, horizon=8, forecaster="naive",
                              warm_epochs=1, cep=cep)
        log = run(series, config).log
        evictions = [(eid, ids) for eid, parent, ids
                     in zip(log.selected_entry_id, log.evolved_from, log.eliminated_ids)
                     if parent is not None and ids]
        assert evictions, "expected at least one capped split"
        for eid, ids in evictions:
            assert all(evicted < eid for evicted in ids)
        assert max(log.pool_size) <= 2

    def test_divergent_training_raises_numeric_error(self):
        from driftpool.errors import NumericError

        series = np.full(800, 50.0) + 0.1 * np.sin(np.arange(800))
        config = EngineConfig(lookback=20, horizon=10, lr_raw=0.5, warm_epochs=1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError):
                run(series, config)

    @pytest.mark.parametrize("y_mu, abandoned, message", [
        (0.0, False, "non-finite training loss at t=7$"),
        (100.0, True, "non-finite mse at t=7$"),
    ])
    def test_non_finite_forecast_names_its_step(self, y_mu, abandoned, message):
        # a settled entry at (0, 1): the window never splits; the truth's mean
        # decides whether the step trains or abandons its gradient
        pool = Pool(LinearForecaster(4, 2), 0.01, CepConfig())
        entry = pool.entries[0]
        set_genes(entry, (Gene(0.0, 1.0), Gene(0.0, 1.0), 50))
        entry.n_pred = 50
        entry.forecaster.bias[:] = np.nan
        # one instance at t=7: x is four zeros, y is two values at y_mu
        series = np.concatenate([np.zeros(11), np.full(2, y_mu)])
        online = InstanceSet(series, np.arange(7, 8), 4, 2, 4, sign_truth=True)
        with mock.patch.object(LinearForecaster, "train_step",
                               wraps=entry.forecaster.train_step) as train:
            with pytest.raises(NumericError, match=message):
                online_step(pool, online, 0, StepLog())
        assert train.call_count == (0 if abandoned else 1)


class TestRun:
    def test_same_config_is_bit_identical(self):
        series = shifted_series([0.0, 5.0, 0.0, 5.0], 400, seed=6)
        config = EngineConfig(lookback=16, horizon=8, forecaster="mlp", hidden=8,
                              lr_raw=1e-3, warm_epochs=2, seed=11)
        a = run(series, config)
        b = run(series, config)
        assert a == b
        assert repr(a.log) == repr(b.log)

    def test_seed_changes_mlp_run(self):
        series = shifted_series([0.0, 5.0], 600, seed=6)
        base = dict(lookback=16, horizon=8, forecaster="mlp", hidden=8,
                    lr_raw=1e-3, warm_epochs=1)
        a = run(series, EngineConfig(seed=1, **base))
        b = run(series, EngineConfig(seed=2, **base))
        assert a.log != b.log

    def test_evolution_off_matches_bare_run(self):
        series = shifted_series([0.0, 4.0, 0.0], 500, seed=8)
        config = EngineConfig(lookback=20, horizon=10, cep=CepConfig(evolution=False),
                              lr_raw=1e-3, warm_epochs=2)
        assert run(series, config) == run_bare(series, config)

    def test_aggregate_matches_records(self):
        series = shifted_series([0.0, 4.0, 0.0, 8.0], 500, seed=9)  # splits and retires
        config = EngineConfig(lookback=20, horizon=10, forecaster="naive", warm_epochs=1)
        result = run(series, config)
        assert result.mean_mse == pytest.approx(float(np.mean(result.log.mse)))
        # the bundle reads its totals off the log
        manifest = RunManifest({"kind": "csv", "path": "unread.csv", "column": "0"}, config)
        bundle = build_bundle(manifest, result, len(series))
        records, aggregate = bundle["records"], bundle["aggregate"]
        assert aggregate["mean_mse"] == result.mean_mse
        assert aggregate["n_instances"] == len(records) == len(result.log)
        assert aggregate["total_evolutions"] == sum(r["evolved"] for r in records) > 0
        assert aggregate["total_eliminations"] == sum(len(r["eliminated_ids"])
                                                      for r in records) > 0
        assert aggregate["final_pool_size"] == records[-1]["pool_size"]

    def test_logged_forecasts_reproduce_mse(self):
        series = shifted_series([0.0, 4.0], 500, seed=10)
        config = EngineConfig(lookback=20, horizon=10, lr_raw=1e-3, warm_epochs=1)
        result = run(series, config, log_forecasts=True)
        _, online = split_instances(series, config)
        truth = {t: y for t, _, y in pairs(online)}
        log = result.log
        for t, forecast, err in zip(log.t, log.forecast, log.mse):
            assert mse(np.array(forecast), truth[t]) == err

    def test_forecasts_not_logged_by_default(self):
        series = shifted_series([0.0, 4.0], 500, seed=10)
        config = EngineConfig(lookback=20, horizon=10, forecaster="naive", warm_epochs=1)
        result = run(series, config)
        assert set(result.log.forecast) == {None}

    def test_final_gene_matches_batch_oracle_over_run(self):
        # single-entry run: its global gene must equal batch moments over the
        # zero seed plus every absorbed window mean (warm epochs + online)
        rng = np.random.default_rng(13)
        series = rng.normal(2.0, 1.0, 900)
        config = EngineConfig(lookback=15, horizon=5, forecaster="naive",
                              warm_epochs=2, cep=CepConfig(evolution=False))
        warm, online = split_instances(series, config)
        pool = Pool(NaiveForecaster(15, 5), config.resolved_lr(), config.cep)
        warm_up(pool, warm, config.warm_epochs)
        log = StepLog()
        for i in range(len(online)):
            online_step(pool, online, i, log)
        assert log == run(series, config).log
        entry = pool.entries[0]
        means = [0.0]
        means += [float(x.mean()) for _, x, _ in pairs(warm)] * config.warm_epochs
        means += [float(x.mean()) for _, x, _ in pairs(online)]
        assert entry.n == len(means)
        assert entry.global_mu == pytest.approx(np.mean(means), rel=1e-9)
        assert entry.global_sigma == pytest.approx(np.std(means), rel=1e-9)

    def test_mle_score_routes_recurring_concepts(self):
        series = shifted_series([0.0, 8.0, 0.0, 8.0], 600, sigma=0.25, seed=14)
        config = EngineConfig(lookback=20, horizon=10, forecaster="naive",
                              warm_epochs=1, cep=CepConfig(retrieval_score="mle"))
        log = run(series, config).log

        def served(lo, hi):
            return {eid for t, eid in zip(log.t, log.selected_entry_id) if lo <= t <= hi}

        # zeros recur to the warm specialist, eights to the first split child
        assert served(1200, 1800 - 30) == {0}
        assert served(1800, 2400 - 30) == served(610, 1200 - 30)
        # no split fires inside a pure recurring segment, only at boundaries
        for t in split_times(log):
            assert any(abs(t - b) <= config.lookback for b in (600, 1200, 1800))


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
        assert split_times(plain.log)
        assert any(plain.log.abandoned) == abandonment
        assert None not in logged.log.forecast
        assert replace(logged.log, forecast=plain.log.forecast) == plain.log
        assert logged.mean_mse == plain.mean_mse

    @pytest.mark.parametrize("kind", FORECASTER_KINDS)
    def test_trained_mse_is_the_pre_step_forecast_mse(self, kind):
        series = lifecycle_series()
        config = lifecycle_config(kind, True)
        warm, online = split_instances(series, config)
        pool = Pool(make_forecaster(kind, 16, 8, hidden=6, seed=0), config.resolved_lr(),
                    config.cep)
        warm_up(pool, warm, config.warm_epochs)
        log, befores = StepLog(), []
        for i in range(len(online)):
            befores.append({e.id: e.forecaster.deep_clone() for e in pool.entries})
            online_step(pool, online, i, log)
        trained = 0
        for eid, parent, abandoned, err, before, (_, x, y) in zip(
                log.selected_entry_id, log.evolved_from, log.abandoned, log.mse, befores,
                pairs(online)):
            # a split child starts as a clone of its parent's forecaster
            clone = before[eid if parent is None else parent]
            if not abandoned:
                trained += 1
                assert err == mse(clone.predict(x), y)
        assert 0 < trained < len(online)


@pytest.fixture(scope="module")
def default_stream():
    """The default labeled stream, normalized on its warm segment."""
    values, _ = generate(default_stream_spec(seed=0))
    series, _, _ = normalize(values, "warm_segment")
    return series


def blanked(log, *columns):
    """The log with the named columns set to None."""
    return replace(log, **dict.fromkeys(columns))


@pytest.mark.parametrize("score", ["euclidean", "mle"])
class TestLifecycleMetamorphic:
    """Routing, splits, abandonment, absorption, LR ticks and elimination read only
    the window signatures and the counters, never the forecaster."""

    def config(self, score, **kw):
        return EngineConfig(lookback=60, horizon=30, warm_epochs=1, **kw,
                            cep=CepConfig(max_pool_size=3, retrieval_score=score))

    def test_lifecycle_is_the_same_for_every_forecaster(self, default_stream, score):
        base = run(default_stream, self.config(score, forecaster="naive"))
        assert split_times(base.log) and any(base.log.eliminated_ids)
        assert any(base.log.abandoned)
        for kind, lr in (("linear", 0.01), ("linear", 0.0005), ("mlp", None)):
            other = run(default_stream, self.config(score, forecaster=kind, lr_raw=lr))
            assert blanked(other.log, "mse") == blanked(base.log, "mse"), (kind, lr)
            assert other.mean_mse != base.mean_mse

    @pytest.mark.parametrize("power", [10, -3])
    def test_power_of_two_scaling_scales_signatures_exactly(self, default_stream, score,
                                                             power):
        config, factor = self.config(score, forecaster="naive"), 2.0**power
        base = run(default_stream, config)
        scaled = run(default_stream * factor, config)
        assert scaled.log.gene_mu == [mu * factor for mu in base.log.gene_mu]
        assert scaled.log.gene_sigma == [sigma * factor for sigma in base.log.gene_sigma]
        scaled_columns = ("mse", "gene_mu", "gene_sigma")
        assert blanked(scaled.log, *scaled_columns) == blanked(base.log, *scaled_columns)

    def decisions(self, series, score):
        """The lifecycle columns of a naive run: routing, splits, abandonment, removals."""
        log = run(series, self.config(score, forecaster="naive")).log
        return {column: getattr(log, column) for column in
                ("selected_entry_id", "evolved_from", "abandoned", "eliminated_ids", "pool_size")}

    @pytest.mark.parametrize("offset", [1e4, 1e6])
    def test_an_offset_normalized_away_keeps_every_decision(self, default_stream, score, offset):
        values, _ = generate(default_stream_spec(seed=0))
        shifted, _, _ = normalize(values + offset, "warm_segment")
        base = self.decisions(default_stream, score)
        assert any(parent is not None for parent in base["evolved_from"])
        assert self.decisions(shifted, score) == base

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 1: the seed entry starts from a phantom (0, 0) signature, so its "
        "global sigma grows with the offset and the run stops splitting"))
    @pytest.mark.parametrize("offset", [1e4, 1e6])
    def test_a_raw_offset_keeps_every_decision(self, default_stream, score, offset):
        base = self.decisions(default_stream, score)
        assert self.decisions(default_stream + offset, score) == base


class TestInstances:
    def test_split_instances_respects_bounds(self):
        # the last pair that fits is kept and the next dropped: warm t=10's truth
        # ends at the split (25), online t=85's one point before the series end
        series = np.arange(101, dtype=float)
        warm, online = split_instances(series, EngineConfig(10, 5))
        assert warm.starts == list(range(0, 11))
        assert online.starts == list(range(25, 86, 5))
        assert warm.y_mu is None  # only the online truths are signed
        assert len(online.y_mu) == len(online)
        for t, x, y in pairs(warm) + pairs(online):
            assert len(x) == 10 and len(y) == 5

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            EngineConfig(lookback=0, horizon=5)
        with pytest.raises(ValidationError):
            EngineConfig(lookback=5, horizon=0)
        with pytest.raises(ValidationError):
            EngineConfig(lookback=5, horizon=5, lr_raw=-1.0)
        for bad in (float("nan"), float("inf")):
            message = rf"^lr_raw must be in \(0, inf\), got {bad}$"
            with pytest.raises(ValidationError, match=message):
                EngineConfig(lookback=5, horizon=5, lr_raw=bad)
        with pytest.raises(ValidationError):
            EngineConfig(lookback=5, horizon=5, warm_epochs=-1)

    @pytest.mark.parametrize("field, bad", [("hidden", 0), ("hidden", -1), ("seed", -1)])
    def test_rejects_what_the_forecaster_cannot_build(self, field, bad):
        low = {"hidden": 1, "seed": 0}[field]
        message = rf"^{field} must be in \[{low}, inf\), got {bad}$"
        with pytest.raises(ValidationError, match=message):
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
        assert full.log.gene_mu[0] != tail.log.gene_mu[0]
