"""Pool lifecycle tests: retrieval, splitting, elimination, LR warming."""

import math
from contextlib import suppress

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from driftpool.errors import NumericError, ValidationError
from driftpool.forecasters import LinearForecaster, NaiveForecaster
from driftpool.gene import fold_moments, nlls
from driftpool.pool import (
    RETRIEVAL_SCORES,
    CepConfig,
    Pool,
    PoolEntry,
    absorb_instance,
    lr_tick,
    should_evolve,
)
from reference import (
    Gene,
    absorb,
    distances,
    effective_gene,
    genes_of,
    n_wait,
    retrieval_cost,
    set_genes,
)


def make_pool(config=None, lr_raw=0.01, lookback=4, horizon=2):
    return Pool(NaiveForecaster(lookback, horizon), lr_raw, config or CepConfig())


def pin_gene(entry, mu, sigma=0.0, n=1):
    """Force local == global so the mixed gene equals the given vector."""
    g = Gene(mu, sigma)
    set_genes(entry, (g, g, n))


def same_bits(a, b):
    """Equal float for float, 0.0 told apart from -0.0: repr round-trips a float."""
    return repr(a) == repr(b)


def cache_matches_reference(entry, config):
    """The entry's cached mixed signature equals the one recomputed from its genes."""
    return same_bits((entry.mu, entry.sigma), tuple(effective_gene(genes_of(entry), config)))


_WIDE = st.floats(-1e300, 1e300)  # moments of means near 1e300 overflow
_SPREAD = st.floats(0.0, 1e300)
_PARTS = st.sampled_from([(True, True), (True, False), (False, True)])  # local, global


def brute_force_nearest(pool, sample):
    """Oracle: exhaustive scan with smallest-id tie-break."""
    scored = [(retrieval_cost(genes_of(e), sample, pool.config), e.id) for e in pool.entries]
    best_cost, best_id = min(scored)
    return best_id


def assert_index_holds_live_entries(pool):
    """Under the euclidean score, ``pool.index`` holds each live entry once, beside its
    current mean to the bit, sorted by mean; under mle it is None."""
    if pool.config.retrieval_score == "mle":
        assert pool.index is None and all(e.index is None for e in pool.entries)
        return
    means, ranked = pool.index
    assert all(a <= b for a, b in zip(means, means[1:]))
    assert sorted(ranked, key=lambda e: e.id) == pool.entries
    for mu, e in zip(means, ranked, strict=True):
        assert same_bits(mu, e.mu) and e.index is pool.index


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs,fieldname",
        [
            ({"tau_mu": 0.0}, "tau_mu"),
            ({"tau_gene": 1.5}, "tau_gene"),
            ({"tau_l": 0.0}, "tau_l"),
            ({"tau_l": 1.5}, "tau_l"),
            ({"tau_safe": -1}, "tau_safe"),
            ({"tau_e": 0.0}, "tau_e"),
            ({"tau_mu": math.inf}, "tau_mu"),
            ({"tau_e": math.inf}, "tau_e"),
            ({"tau_mu": math.nan}, "tau_mu"),
            ({"tau_e": math.nan}, "tau_e"),
            ({"tau_lr": 0.0}, "tau_lr"),
            ({"tau_lr": 1.01}, "tau_lr"),
            ({"t_lr": 0}, "t_lr"),
            ({"scope_s": 0}, "scope_s"),
            ({"retrieval_score": "cosine"}, "retrieval_score"),
            ({"use_local_gene": False, "use_global_gene": False}, "use_local_gene"),
            ({"max_pool_size": 0}, "max_pool_size"),
        ],
    )
    def test_rejects_out_of_range(self, kwargs, fieldname):
        with pytest.raises(ValidationError, match=fieldname):
            CepConfig(**kwargs)

    @pytest.mark.parametrize("lr_raw", [0.0, -1.0, float("nan"), float("inf"), "0.1"])
    def test_pool_rejects_bad_lr(self, lr_raw):
        with pytest.raises(ValidationError, match="^lr_raw must be "):
            make_pool(lr_raw=lr_raw)

    def test_defaults_match_documented_values(self):
        cfg = CepConfig()
        assert (cfg.tau_mu, cfg.tau_gene, cfg.tau_l, cfg.tau_safe, cfg.tau_e) == (
            3.0, 0.8, 0.2, 15, 1.5,
        )
        assert (cfg.tau_lr, cfg.t_lr) == (0.5, 15)


class TestNearest:
    def test_picks_closer_entry(self):
        pool = make_pool()
        pin_gene(pool.entries[0], 0.0)
        other, _ = pool.evolve(pool.entries[0], 10.0, 0.0)
        assert pool.nearest(1.0, 0.0) is pool.entries[0]
        assert pool.nearest(9.0, 0.0) is other

    def test_tie_breaks_to_smaller_id(self):
        pool = make_pool()
        pin_gene(pool.entries[0], 0.0)
        pool.evolve(pool.entries[0], 10.0, 0.0)
        assert pool.nearest(5.0, 0.0).id == 0

    @pytest.mark.parametrize(
        "score, switches",
        [
            ("euclidean", {}),
            ("mle", {}),
            ("euclidean", {"use_global_gene": False}),
            ("euclidean", {"use_local_gene": False}),
        ],
    )
    def test_matches_brute_force(self, score, switches):
        rng = np.random.default_rng(17)
        cfg = CepConfig(retrieval_score=score, **switches)
        for _ in range(60):
            pool = make_pool(cfg)
            pin_gene(pool.entries[0], rng.uniform(-50, 50), rng.uniform(0, 5))
            for _ in range(int(rng.integers(0, 49))):
                e, _ = pool.evolve(pool.entries[0], rng.uniform(-50, 50), rng.uniform(0, 5))
                # desynchronize local/global so mixing matters
                set_genes(e, (
                    Gene(rng.uniform(-50, 50), rng.uniform(0, 5)),
                    Gene(rng.uniform(-50, 50), rng.uniform(0, 5)),
                    int(rng.integers(1, 10)),
                ))
            for _ in range(20):
                sample = Gene(rng.uniform(-60, 60), rng.uniform(0, 6))
                assert pool.nearest(sample.mu, sample.sigma).id == brute_force_nearest(pool, sample)

    @pytest.mark.parametrize("mus, query, expected", [
        ((1.0, -1.0), 0.0, 0),  # a mirror pair: the smaller id lies right of the query
        ((-1.0, 1.0), 0.0, 0),  # and left of it
        ((2.0, -1.0, 1.0), 0.0, 1),
        ((0.0, -0.0), -0.0, 0),  # -0.0 == 0.0: an exact tie at cost 0
        ((-0.0, 0.0, -0.0), 0.0, 0),
        ((1e300, -1e300), 1e300, 0),
        ((-1e300, 1e300), 0.0, 0),
        ((-1e300, 1e300, 5.0), -1e300, 0),
        ((-1.7e308, -1.6e308), 1.7e308, 0),  # both costs overflow to inf
        ((1.6e308, -1.7e308, -1.6e308), -1.7e308, 1),
        ((1.0, -1.0), math.inf, 0),  # every cost is inf
        ((-1.0, 1.0), -math.inf, 0),
    ])
    def test_ties_go_to_the_smallest_id(self, mus, query, expected):
        pool = make_pool()
        pin_gene(pool.entries[0], mus[0])
        for mu in mus[1:]:
            pool.evolve(pool.entries[0], mu, 0.0)
        assert pool.nearest(query, 0.0).id == expected
        costs = distances(query, 0.0, pool.entries)
        assert costs.index(min(costs)) == expected

    @pytest.mark.parametrize("score", RETRIEVAL_SCORES)
    @pytest.mark.parametrize("mu, sigma", [(math.nan, 0.0), (0.0, math.nan)])
    def test_nan_signature_raises_numeric_error(self, score, mu, sigma):
        pool = make_pool(CepConfig(retrieval_score=score))
        pin_gene(pool.entries[0], 0.0)
        pool.evolve(pool.entries[0], 10.0, 0.0)
        with pytest.raises(NumericError, match="non-finite"):
            pool.nearest(mu, sigma)

    def test_scores_disagree_where_expected(self):
        # an offset same-width candidate wins on distance, but the
        # likelihood score prefers the wider candidate at the right mean
        wide_centered = Gene(0.0, 2.0)
        offset = Gene(1.4, 0.5)
        sample = Gene(0.0, 0.5)
        euclidean = distances(sample.mu, sample.sigma, [wide_centered, offset])
        likelihood = nlls(sample.mu, sample.sigma, [wide_centered, offset])
        assert euclidean[1] < euclidean[0]
        assert likelihood[0] < likelihood[1]


class TestShouldEvolve:
    def test_fires_beyond_threshold(self):
        pool = make_pool()
        entry = pool.entries[0]
        pin_gene(entry, 0.0, 1.0)
        entry.n_pred = 20
        assert should_evolve(entry, 3.5)

    def test_holds_inside_threshold(self):
        pool = make_pool()
        entry = pool.entries[0]
        pin_gene(entry, 0.0, 1.0)
        entry.n_pred = 20
        assert not should_evolve(entry, 2.9)
        assert not should_evolve(entry, 3.0)  # exactly tau_mu sigmas is not beyond

    def test_safety_period_gates_splitting(self):
        pool = make_pool()
        entry = pool.entries[0]
        pin_gene(entry, 0.0, 1.0)
        entry.n_pred = 5
        assert not should_evolve(entry, 100.0)

    def test_evolution_switch_gates_everything(self):
        cfg = CepConfig(evolution=False)
        pool = make_pool(cfg)
        entry = pool.entries[0]
        pin_gene(entry, 0.0, 1.0)
        entry.n_pred = 100
        assert not should_evolve(entry, 1e6)

    def test_sigma_floor_on_constant_gene(self):
        pool = make_pool()
        entry = pool.entries[0]
        pin_gene(entry, 0.0, 0.0)
        entry.n_pred = 100
        # any visible deviation clears 3 * floored sigma
        assert should_evolve(entry, 1e-6)


class TestEvolve:
    def test_child_predicts_like_parent(self):
        pool = Pool(LinearForecaster(4, 2), 0.01, CepConfig())
        parent = pool.entries[0]
        parent.forecaster.train_step(np.ones(4), np.ones(2), 0.1)
        child, _ = pool.evolve(parent, 5.0, 1.0)
        assert len(pool) == 2
        rng = np.random.default_rng(0)
        for _ in range(25):  # knowledge carries over on arbitrary inputs
            x = rng.normal(scale=3.0, size=4)
            assert np.array_equal(parent.forecaster.predict(x), child.forecaster.predict(x))
        assert genes_of(child) == ((5.0, 1.0), (5.0, 1.0), 1)
        assert (child.n_pred, n_wait(pool, child)) == (0, 0)

    def test_initial_lr_reduced(self):
        pool = make_pool(CepConfig(tau_lr=0.5, t_lr=10), lr_raw=0.01)
        child, _ = pool.evolve(pool.entries[0], 1, 1)
        assert child.lr_current == pytest.approx(0.005)

    def test_no_lr_adjustment_when_switched_off(self):
        pool = make_pool(CepConfig(optimizer_adjustment=False), lr_raw=0.01)
        child, _ = pool.evolve(pool.entries[0], 1, 1)
        assert child.lr_current == 0.01

    def test_fifo_cap_evicts_oldest(self):
        pool = make_pool(CepConfig(max_pool_size=3))
        for i in range(2):
            assert pool.evolve(pool.entries[0], float(i), 0.0)[1] == []
        assert [e.id for e in pool.entries] == [0, 1, 2]
        child, evicted = pool.evolve(pool.entries[-1], 9.0, 0.0)
        assert (child.id, evicted) == (3, [0])
        assert [e.id for e in pool.entries] == [1, 2, 3]
        assert len(pool) == 3

    def test_ids_strictly_increase(self):
        pool = make_pool()
        ids = [pool.evolve(pool.entries[0], i, 0)[0].id for i in range(5)]
        assert ids == sorted(ids)
        assert len(set(ids)) == 5

    @pytest.mark.parametrize("removal", ["eliminated", "evicted"])
    def test_a_split_after_a_removal_takes_the_removed_forecaster(self, removal):
        pool = Pool(LinearForecaster(4, 2), 0.01, CepConfig(max_pool_size=2))
        a = pool.entries[0]
        b, _ = pool.evolve(a, 1.0, 1.0)
        b.forecaster.train_step(np.ones(4), np.zeros(2), 0.1)  # b's parameters now differ from a's
        if removal == "eliminated":
            gone, parent = b, a
            pool.mark_selected(a)  # b idles 1 step after 0 predictions: stale
            spare, removed = b.forecaster, pool.eliminate_stale()
        else:
            gone, spare = a, a.forecaster
            parent, removed = pool.evolve(b, 2.0, 1.0)  # the cap evicts a
        assert removed == [gone.id] and gone.forecaster is None
        parent.forecaster.train_step(np.full(4, 2.0), np.ones(2), 0.1)
        child, _ = pool.evolve(parent, 5.0, 1.0)
        assert child.forecaster is spare
        assert child.forecaster._theta.tobytes() == parent.forecaster._theta.tobytes()


class TestLrTick:
    def test_restores_exactly_after_t_lr_ticks(self):
        cfg = CepConfig(tau_lr=0.5, t_lr=10)
        pool = make_pool(cfg, lr_raw=0.01)
        child, _ = pool.evolve(pool.entries[0], 1, 1)
        assert child.lr_current == pytest.approx(0.005)
        for _ in range(10):
            lr_tick(child, pool.lr_raw)
        assert child.lr_current == pytest.approx(0.01, rel=1e-12)

    def test_capped_at_raw(self):
        cfg = CepConfig()
        pool = make_pool(cfg, lr_raw=0.01)
        entry = pool.entries[0]
        assert entry.lr_current == 0.01
        lr_tick(entry, pool.lr_raw)
        assert entry.lr_current == 0.01

    def test_tau_one_is_a_noop(self):
        cfg = CepConfig(tau_lr=1.0, t_lr=5)
        pool = make_pool(cfg, lr_raw=0.02)
        child, _ = pool.evolve(pool.entries[0], 1, 1)
        assert child.lr_current == 0.02
        lr_tick(child, pool.lr_raw)
        assert child.lr_current == 0.02

    def test_stays_within_band(self):
        cfg = CepConfig(tau_lr=0.3, t_lr=7)
        pool = make_pool(cfg, lr_raw=0.05)
        child, _ = pool.evolve(pool.entries[0], 1, 1)
        for _ in range(30):
            lr_tick(child, pool.lr_raw)
            assert 0.3 * 0.05 - 1e-15 <= child.lr_current <= 0.05 + 1e-15


    @pytest.mark.parametrize("t_lr", [1, 3, 15, 97, 2**31 - 1, 2**53 - 1])
    def test_growth_keeps_the_float_division_bits(self, t_lr):
        # below 2**53 a t_lr is an exact float, so -1 / t_lr rounds as -1.0 / t_lr does
        cfg = CepConfig(tau_lr=0.3, t_lr=t_lr)
        pool = make_pool(cfg, lr_raw=0.05)
        child, _ = pool.evolve(pool.entries[0], 1, 1)
        lr0 = child.lr_current
        assert lr_tick(child, pool.lr_raw) == min(0.05, 0.3 ** (-1.0 / t_lr) * lr0)

    def test_a_schedule_longer_than_any_float_holds_the_rate(self):
        cfg = CepConfig(tau_lr=0.3, t_lr=10**400)
        pool = make_pool(cfg, lr_raw=0.05)
        child, _ = pool.evolve(pool.entries[0], 1, 1)
        lr0 = child.lr_current
        assert lr_tick(child, pool.lr_raw) == lr0


class TestMarkSelected:
    def test_counters_after_repeated_selection(self):
        pool = make_pool()
        a = pool.entries[0]
        b, _ = pool.evolve(a, 1, 1)
        for _ in range(3):
            pool.mark_selected(a)
        assert (a.n_pred, n_wait(pool, a)) == (3, 0)
        assert (b.n_pred, n_wait(pool, b)) == (0, 3)

    def test_alternating_resets_wait(self):
        pool = make_pool()
        a = pool.entries[0]
        b, _ = pool.evolve(a, 1, 1)
        pool.mark_selected(a)
        pool.mark_selected(b)
        assert (n_wait(pool, a), n_wait(pool, b)) == (1, 0)
        pool.mark_selected(a)
        assert (n_wait(pool, a), n_wait(pool, b)) == (0, 1)

    def test_single_entry_never_waits(self):
        pool = make_pool()
        for _ in range(10):
            pool.mark_selected(pool.entries[0])
        assert n_wait(pool, pool.entries[0]) == 0
        assert pool.entries[0].n_pred == 10


class TestEliminateStale:
    """Counters are reached through ``evolve`` and ``mark_selected`` only."""

    def idle_child(self, config=None, served=10, idle=16):
        """Pool of the seed entry and a child that served ``served`` and then idled ``idle``."""
        pool = make_pool(config)
        a = pool.entries[0]
        b, _ = pool.evolve(a, 1, 1)
        for _ in range(served):
            pool.mark_selected(b)
        for _ in range(idle):
            pool.mark_selected(a)
        assert (b.n_pred, n_wait(pool, b)) == (served, idle)
        return pool, a, b

    def test_removes_beyond_ratio(self):
        pool, a, b = self.idle_child(served=10, idle=16)
        assert pool.eliminate_stale() == [b.id]
        assert [e.id for e in pool.entries] == [a.id]

    def test_keeps_at_boundary(self):
        pool, _, _ = self.idle_child(served=10, idle=15)  # 15 is not > 1.5 * 10
        assert pool.eliminate_stale() == []
        assert len(pool) == 2

    def test_switch_off_disables_removal(self):
        pool, _, _ = self.idle_child(CepConfig(elimination=False), served=1, idle=1000)
        assert pool.eliminate_stale() == []
        assert len(pool) == 2

    def test_survivors_satisfy_staleness_bound(self):
        rng = np.random.default_rng(3)
        pool = make_pool()
        for i in range(9):
            pool.evolve(pool.entries[0], float(i), 0.0)
        picks = rng.integers(0, 10, 60)
        for i in picks:
            pool.mark_selected(pool.entries[i])
        last = pool.entries[picks[-1]].id
        removed = pool.eliminate_stale()
        assert removed
        cfg = pool.config
        assert last in [e.id for e in pool.entries]
        for e in pool.entries:
            assert n_wait(pool, e) <= cfg.tau_e * e.n_pred


class TestAbsorbInstance:
    def test_hand_computed_first_absorption(self):
        pool = make_pool()
        entry = pool.entries[0]
        absorb_instance(entry, 1.0, 1.0)
        assert entry.local_mu == pytest.approx(0.2)
        assert entry.local_sigma == pytest.approx(0.2)
        assert entry.global_mu == pytest.approx(0.5)
        # batch oracle over the absorbed means {0, 1}
        assert entry.global_sigma == pytest.approx(np.std([0.0, 1.0]))
        assert entry.n == 2

    def test_ablation_local_off_uses_global_only(self):
        cfg = CepConfig(use_local_gene=False)
        entry = make_pool(cfg).entries[0]
        state = (Gene(1, 1), Gene(9, 3), 4)
        set_genes(entry, state)
        assert effective_gene(state, cfg) == (9, 3) == (entry.mu, entry.sigma)

    def test_ablation_global_off_uses_local_only(self):
        cfg = CepConfig(use_global_gene=False)
        entry = make_pool(cfg).entries[0]
        state = (Gene(1, 1), Gene(9, 3), 4)
        set_genes(entry, state)
        assert effective_gene(state, cfg) == (1, 1) == (entry.mu, entry.sigma)

    def test_absorbing_own_mean_keeps_zero_spread(self):
        pool = make_pool()
        entry = pool.entries[0]
        pin_gene(entry, 2.5, 0.0, n=3)
        absorb_instance(entry, 2.5, 7.0)
        assert entry.global_sigma == 0.0
        assert entry.n == 4

    def test_stream_matches_batch_oracle(self):
        rng = np.random.default_rng(21)
        pool = make_pool()
        entry = pool.entries[0]
        means = [0.0]  # the seed value of the fresh state
        for _ in range(200):
            m = float(rng.uniform(-5, 5))
            absorb_instance(entry, m, rng.uniform(0, 2))
            means.append(m)
        assert entry.global_mu == pytest.approx(np.mean(means), rel=1e-9)
        assert entry.global_sigma == pytest.approx(np.std(means), rel=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(
        local=st.builds(Gene, _WIDE, _SPREAD),
        global_=st.builds(Gene, _WIDE, _SPREAD),
        n=st.integers(1, 10**6),
        sample=st.builds(Gene, _WIDE, _SPREAD),
        tau_l=st.floats(0.0, 1.0, exclude_min=True),
        tau_gene=st.floats(0.0, 1.0),
        parts=_PARTS,
    )
    def test_equals_the_reference_updates_bit_for_bit(self, local, global_, n, sample,
                                                       tau_l, tau_gene, parts):
        cfg = CepConfig(tau_l=tau_l, tau_gene=tau_gene,
                        use_local_gene=parts[0], use_global_gene=parts[1])
        entry = make_pool(cfg).entries[0]
        old = (local, global_, n)
        set_genes(entry, old)
        try:
            expected = absorb(old, sample, cfg)
        except NumericError as exc:
            with pytest.raises(NumericError) as raised:
                absorb_instance(entry, sample.mu, sample.sigma)
            assert str(raised.value) == str(exc)
            assert same_bits(genes_of(entry), old)
        else:
            absorb_instance(entry, sample.mu, sample.sigma)
            assert same_bits(genes_of(entry), expected)
        assert cache_matches_reference(entry, cfg)

    def test_overflow_raises_the_reference_error_and_keeps_the_genes(self):
        pool = make_pool()
        entry = pool.entries[0]
        before = genes_of(entry)
        with pytest.raises(NumericError) as reference:
            fold_moments(entry.global_mu, entry.global_sigma, entry.n, 1e300)
        with pytest.raises(NumericError) as raised:
            absorb_instance(entry, 1e300, 0.0)
        assert str(raised.value) == str(reference.value)
        assert same_bits(genes_of(entry), before)


class TestPoolEntry:
    def test_new_entry_seeds_both_signatures_once(self):
        cfg = CepConfig(tau_gene=0.25)
        entry = PoolEntry(NaiveForecaster(4, 2), 3, cfg, 4.0, 1.0, 0.02)
        assert genes_of(entry) == ((4.0, 1.0), (4.0, 1.0), 1)
        assert (entry.id, entry.n_pred, entry.last_served, entry.lr_current) == (3, 0, 0, 0.02)
        assert (entry.mu, entry.sigma) == (4.0, 1.0)
        set_genes(entry, ((4.0, 1.0), (-2.0, 3.0), 7))
        assert (entry.mu, entry.sigma) == (0.25 * 4.0 + 0.75 * -2.0, 0.25 * 1.0 + 0.75 * 3.0)


# --- pool invariants under arbitrary operation sequences --------------------

_GENES = st.builds(Gene, st.floats(-50, 50), st.floats(0, 5))
# Few distinct values, so exact ties are common: 0.0 against -0.0, equal means
# under different ids, mirror pairs about a query, and, at +-1.7e308, costs that
# overflow to inf.
_TIE_GENES = st.builds(
    Gene,
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 1e300, -1e300,
                     1.7e308, -1.7e308]),
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 1e300]),
)
_STATES = st.tuples(_GENES, _GENES, st.integers(1, 50))
_PICK = st.integers(0, 1_000)  # an index into the current entries, taken modulo their count


def pool_machine(caps):
    """State machine over the pool's public operations, its cap drawn from ``caps``.

    A shadow dict keeps (n_pred, n_wait) per live entry id, updated by the
    rules' own arithmetic, not the pool's. The forecasters are linear, so each
    has a parameter buffer, and a rule trains them apart; every entry the pool
    removed is kept to check that it holds no forecaster.
    """

    class PoolMachine(RuleBasedStateMachine):
        @initialize(
            cap=caps,
            tau_safe=st.integers(0, 3),
            tau_e=st.floats(0.25, 3.0),
            tau_lr=st.floats(0.05, 1.0),
            t_lr=st.integers(1, 6),
            adjust=st.booleans(),
            elimination=st.booleans(),
            score=st.sampled_from(RETRIEVAL_SCORES),
            tau_gene=st.floats(0.0, 1.0),
            parts=_PARTS,
            tau_l=st.floats(0.0, 1.0, exclude_min=True),
        )
        def start(self, cap, tau_safe, tau_e, tau_lr, t_lr, adjust, elimination, score,
                  tau_gene, parts, tau_l):
            self.config = CepConfig(
                tau_safe=tau_safe, tau_e=tau_e, tau_lr=tau_lr, t_lr=t_lr,
                optimizer_adjustment=adjust, elimination=elimination,
                retrieval_score=score, max_pool_size=cap, tau_gene=tau_gene,
                use_local_gene=parts[0], use_global_gene=parts[1], tau_l=tau_l,
            )
            self.lr_raw = 0.01
            self.pool = Pool(LinearForecaster(4, 2), self.lr_raw, self.config)
            self.shadow = {0: (0, 0)}
            self.removed = []
            self.last = None  # the id mark_selected chose last

        def pick(self, i):
            return self.pool.entries[i % len(self.pool.entries)]

        @rule(gene=_GENES)
        def nearest(self, gene):
            found = self.pool.nearest(gene.mu, gene.sigma)
            assert found.id == brute_force_nearest(self.pool, gene)

        @rule(i=_PICK, gene=_GENES)
        def evolve(self, i, gene):
            parent = self.pick(i)
            model, entries = parent.forecaster, list(self.pool.entries)
            before = [e.id for e in entries]
            child, reported = self.pool.evolve(parent, gene.mu, gene.sigma)
            assert child.id > max(before)
            assert child.forecaster._theta.tobytes() == model._theta.tobytes()
            self.removed += [e for e in entries if e.id in reported]
            assert (child.n_pred, n_wait(self.pool, child), child.n) == (0, 0, 1)
            cap = self.config.max_pool_size
            evicted = before[:1] if cap is not None and len(before) + 1 > cap else []
            assert reported == evicted
            assert [e.id for e in self.pool.entries] == [
                *(x for x in before if x not in evicted), child.id]
            for x in evicted:
                del self.shadow[x]
            self.shadow[child.id] = (0, 0)

        @rule(i=_PICK)
        def mark_selected(self, i):
            chosen = self.pick(i)
            self.pool.mark_selected(chosen)
            self.shadow = {
                x: (n_pred + 1, 0) if x == chosen.id else (n_pred, idle + 1)
                for x, (n_pred, idle) in self.shadow.items()
            }
            self.last = chosen.id

        @rule()
        def eliminate_stale(self):
            entries = list(self.pool.entries)
            live = [e.id for e in entries]
            removed = self.pool.eliminate_stale()
            self.removed += [e for e in entries if e.id in removed]
            if self.last in live:
                assert self.last in [e.id for e in self.pool.entries]
            cfg = self.config
            stale = [x for x in live if self.shadow[x][1] > cfg.tau_e * self.shadow[x][0]]
            assert removed == (stale if cfg.elimination else [])
            for x in removed:
                del self.shadow[x]

        @rule(i=_PICK, gene=_GENES)
        def absorb_instance(self, i, gene):
            entry = self.pick(i)
            n = entry.n
            absorb_instance(entry, gene.mu, gene.sigma)
            assert entry.n == n + 1

        @rule(i=_PICK, state=_STATES)
        def assign_genes(self, i, state):
            entry = self.pick(i)
            set_genes(entry, state)
            assert genes_of(entry) == state

        @rule(i=_PICK, x=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
              y=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2))
        def train_step(self, i, x, y):
            entry = self.pick(i)
            entry.forecaster.train_step(np.array(x), np.array(y), entry.lr_current)

        @rule(i=_PICK)
        def lr_tick(self, i):
            entry = self.pick(i)
            before = entry.lr_current
            after = lr_tick(entry, self.lr_raw)
            assert after == entry.lr_current >= before

        @invariant()
        def invariants(self):
            entries = self.pool.entries
            assert entries, "the pool emptied"
            ids = [e.id for e in entries]
            assert all(a < b for a, b in zip(ids, ids[1:]))
            cap = self.config.max_pool_size
            assert cap is None or len(entries) <= cap
            low = self.config.tau_lr * self.lr_raw
            for e in entries:
                assert low <= e.lr_current <= self.lr_raw
            assert {e.id: (e.n_pred, n_wait(self.pool, e)) for e in entries} == self.shadow
            assert any(n_wait(self.pool, e) == 0 for e in entries)
            for e in entries:
                assert cache_matches_reference(e, self.config)
            assert_index_holds_live_entries(self.pool)
            for k, e in enumerate(entries):  # no two live entries share a parameter
                for other in entries[k + 1:]:
                    assert e.forecaster is not other.forecaster
                    assert not np.shares_memory(e.forecaster._theta, other.forecaster._theta)
            assert all(e.forecaster is None for e in self.removed)

    return PoolMachine


_MACHINE_SETTINGS = settings(max_examples=60, stateful_step_count=40, deadline=None)
TestPoolMachineUncapped = pool_machine(st.none()).TestCase
TestPoolMachineUncapped.settings = _MACHINE_SETTINGS
TestPoolMachineCapped = pool_machine(st.integers(1, 4)).TestCase
TestPoolMachineCapped.settings = _MACHINE_SETTINGS


_INDEX_OPS = st.one_of(
    *[st.tuples(st.just("evolve"), _PICK, _TIE_GENES)] * 3,
    st.tuples(st.just("absorb_instance"), _PICK, _TIE_GENES),
    st.tuples(st.just("set_genes"), _PICK, st.tuples(_TIE_GENES, _TIE_GENES, st.integers(1, 5))),
    st.tuples(st.just("mark_selected"), _PICK),
    st.tuples(st.just("eliminate_stale")),
)


class TestSortedIndex:
    """``nearest`` under the euclidean score against a full scan, on tie-heavy pools."""

    @settings(max_examples=100, deadline=None)
    @given(
        # a drawn length: a plain list strategy keeps to a few ops, and pools to a few entries
        ops=st.integers(1, 150).flatmap(lambda n: st.lists(_INDEX_OPS, min_size=n, max_size=n)),
        queries=st.lists(_TIE_GENES, min_size=1, max_size=6),
        tau_gene=st.sampled_from([0.0, 0.5, 0.8, 1.0]),
        tau_l=st.sampled_from([0.5, 1.0]),
        parts=_PARTS,
        cap=st.sampled_from([None, None, 2, 40]),
        elimination=st.booleans(),
    )
    # One example per tie shape, so a broken walk fails before any shrinking.
    # Mirror pairs about -0.5 (smaller id on the right) and 0.5 (on the left):
    @example(ops=[("evolve", 0, Gene(-1.0, 0.0)), ("evolve", 0, Gene(1.0, 0.0))],
             queries=[Gene(-0.5, 0.0), Gene(0.5, 0.0)], tau_gene=0.8, tau_l=0.5,
             parts=(True, True), cap=None, elimination=False)
    # 0.0 against -0.0, every cost 0:
    @example(ops=[("evolve", 0, Gene(-0.0, 0.0)), ("evolve", 0, Gene(0.0, 0.0))],
             queries=[Gene(0.0, 0.0), Gene(-0.0, 0.0)], tau_gene=0.8, tau_l=0.5,
             parts=(True, True), cap=None, elimination=False)
    # equal means under three ids, then entry 0 moves past both:
    @example(ops=[("evolve", 0, Gene(1.0, 0.5)), ("evolve", 0, Gene(1.0, 0.5)),
                  ("set_genes", 0, (Gene(1.0, 0.5), Gene(1.0, 0.5), 3)),
                  ("set_genes", 0, (Gene(2.0, 0.0), Gene(2.0, 0.0), 2))],
             queries=[Gene(1.0, 0.5), Gene(1.5, 0.0)], tau_gene=0.8, tau_l=0.5,
             parts=(True, True), cap=None, elimination=False)
    # means of 1.7e308, whose costs from -1.7e308 all overflow to inf:
    @example(ops=[("evolve", 0, Gene(1.7e308, 0.0)), ("evolve", 0, Gene(1.7e308, 0.0)),
                  ("set_genes", 0, (Gene(1.7e308, 0.0), Gene(1.7e308, 0.0), 1))],
             queries=[Gene(-1.7e308, 0.0), Gene(-1.7e308, 1e300)], tau_gene=0.8, tau_l=0.5,
             parts=(True, True), cap=None, elimination=False)
    # a cap eviction (entry 0), then a stale removal (entry 1):
    @example(ops=[("evolve", 0, Gene(1.0, 0.0)), ("evolve", 0, Gene(2.0, 0.0)),
                  ("mark_selected", 1), ("mark_selected", 1), ("eliminate_stale",)],
             queries=[Gene(1.5, 0.0), Gene(0.0, 0.0)], tau_gene=0.8, tau_l=0.5,
             parts=(True, True), cap=2, elimination=True)
    def test_nearest_is_the_scan_first_min(self, ops, queries, tau_gene, tau_l, parts, cap,
                                           elimination):
        cfg = CepConfig(tau_gene=tau_gene, tau_l=tau_l, use_local_gene=parts[0],
                        use_global_gene=parts[1], max_pool_size=cap, elimination=elimination)
        pool = make_pool(cfg)
        for op, *args in ops:
            before = list(pool.entries)
            entry = before[args[0] % len(before)] if args else before[0]
            if op == "evolve":
                entry, _ = pool.evolve(entry, *args[1])
            elif op == "absorb_instance":
                with suppress(NumericError):  # moments near 1e300 overflow; nothing changes
                    absorb_instance(entry, *args[1])
            elif op == "set_genes":
                set_genes(entry, args[1])
            elif op == "mark_selected":
                pool.mark_selected(entry)
            else:
                pool.eliminate_stale()
            assert all(e.index is None for e in before if e not in pool.entries)
            assert_index_holds_live_entries(pool)
            # the touched entry's own signature too: a cost-0 hit, tied wherever means repeat
            for mu, sigma in [*queries, (entry.mu, entry.sigma)]:
                costs = distances(mu, sigma, pool.entries)
                assert pool.nearest(mu, sigma) is pool.entries[costs.index(min(costs))]
