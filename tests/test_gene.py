"""Gene signature math against independent two-pass oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftpool.errors import NumericError, ValidationError
from driftpool.gene import (
    SIGMA_FLOOR,
    GeneState,
    GeneVector,
    compute_gene,
    ema_update,
    fresh_state,
    gene_distance,
    global_update,
    mix_gene,
    mle_cost,
)


def two_pass(values):
    """Independent oracle: population mean/std computed directly."""
    values = list(values)
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    return mean, math.sqrt(var)


finite_floats = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


class TestComputeGene:
    def test_constant_window_has_zero_spread(self):
        g = compute_gene([5, 5, 5, 5], 4)
        assert g == GeneVector(5.0, 0.0)

    def test_matches_two_pass_oracle(self):
        g = compute_gene([1, 2, 3, 4], 4)
        mu, sigma = two_pass([1, 2, 3, 4])
        assert g.mu == pytest.approx(mu)
        assert g.sigma == pytest.approx(sigma)
        assert g.sigma == pytest.approx(1.1180339887, abs=1e-9)

    def test_scope_takes_most_recent_values(self):
        g = compute_gene([1, 2, 3, 4, 100], 4)
        mu, sigma = two_pass([2, 3, 4, 100])
        assert g.mu == pytest.approx(27.25)
        assert g.mu == pytest.approx(mu)
        assert g.sigma == pytest.approx(sigma)

    def test_scope_larger_than_window_uses_whole_window(self):
        assert compute_gene([1, 2, 3], 10) == compute_gene([1, 2, 3], 3)

    def test_empty_window_rejected(self):
        with pytest.raises(ValidationError, match="empty window"):
            compute_gene([], 4)

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError, match="non-finite input"):
            compute_gene([1.0, float("nan"), 2.0], 3)
        with pytest.raises(NumericError, match="non-finite input"):
            compute_gene([1.0, float("inf")], 2)

    def test_bad_scope_rejected(self):
        with pytest.raises(ValidationError):
            compute_gene([1.0], 0)

    @given(st.lists(finite_floats, min_size=1, max_size=50), st.floats(-100, 100))
    def test_translation_equivariance(self, window, shift):
        base = compute_gene(window, len(window))
        moved = compute_gene([v + shift for v in window], len(window))
        assert moved.mu == pytest.approx(base.mu + shift, abs=1e-6)
        assert moved.sigma == pytest.approx(base.sigma, abs=1e-6)

    @given(st.lists(finite_floats, min_size=1, max_size=50), st.floats(1e-3, 1e3))
    def test_scale_equivariance(self, window, scale):
        base = compute_gene(window, len(window))
        scaled = compute_gene([v * scale for v in window], len(window))
        assert scaled.mu == pytest.approx(scale * base.mu, rel=1e-9, abs=1e-6)
        assert scaled.sigma == pytest.approx(scale * base.sigma, rel=1e-9, abs=1e-6)


class TestEmaUpdate:
    def test_direct_substitution(self):
        out = ema_update(GeneVector(0, 0), GeneVector(1, 1), 0.2)
        assert out == GeneVector(0.2, 0.2)

    @pytest.mark.parametrize("tau", [0.05, 0.2, 1.0])
    def test_fixed_point(self, tau):
        g = GeneVector(3, 1)
        out = ema_update(g, g, tau)
        assert out.mu == pytest.approx(g.mu, rel=1e-15)
        assert out.sigma == pytest.approx(g.sigma, rel=1e-15)

    def test_tau_one_replaces(self):
        assert ema_update(GeneVector(10, 2), GeneVector(0, 0), 1.0) == GeneVector(0.0, 0.0)

    @pytest.mark.parametrize("tau", [0.0, -0.1, 1.5])
    def test_rate_out_of_range(self, tau):
        with pytest.raises(ValidationError, match="tau_l"):
            ema_update(GeneVector(0, 0), GeneVector(1, 1), tau)

    @given(
        st.floats(-100, 100), st.floats(0, 100),
        st.floats(-100, 100), st.floats(0, 100),
        st.floats(0.01, 1.0), st.integers(1, 60),
    )
    @settings(max_examples=200)
    def test_closed_form_under_constant_input(self, mu0, s0, mu, s, tau, k):
        local = GeneVector(mu0, s0)
        g = GeneVector(mu, s)
        for _ in range(k):
            local = ema_update(local, g, tau)
        decay = (1 - tau) ** k
        assert local.mu == pytest.approx(mu + decay * (mu0 - mu), abs=1e-12, rel=1e-9)
        assert local.sigma == pytest.approx(s + decay * (s0 - s), abs=1e-12, rel=1e-9)


class TestGlobalUpdate:
    def test_two_value_batch(self):
        out, n = global_update(GeneVector(2, 0), 1, GeneVector(4, 123.0))
        assert n == 2
        assert out.mu == pytest.approx(3.0)
        assert out.sigma == pytest.approx(1.0)  # population std of {2, 4}

    def test_absorbing_own_mean_is_neutral(self):
        out, n = global_update(GeneVector(7.5, 0), 11, GeneVector(7.5, 2.0))
        assert n == 12
        assert out == GeneVector(7.5, 0.0)

    def test_only_instance_mean_enters(self):
        a, _ = global_update(GeneVector(1, 2), 3, GeneVector(5, 0.0))
        b, _ = global_update(GeneVector(1, 2), 3, GeneVector(5, 99.0))
        assert a == b

    def test_bad_count_rejected(self):
        with pytest.raises(ValidationError):
            global_update(GeneVector(0, 0), 0, GeneVector(1, 1))

    def test_overflowing_moments_raise_numeric_error(self):
        # (mu_g - x) ** 2 overflows a Python float: OverflowError before the fix
        with pytest.raises(NumericError, match="overflow"):
            global_update(GeneVector(0.0, 0.0), 1, GeneVector(1e200, 0.0))
        # n * mu_g overflows to inf without raising
        with pytest.raises(NumericError, match="overflow"):
            global_update(GeneVector(1e308, 0.0), 10, GeneVector(1e308, 0.0))

    def test_large_finite_moments_unchanged(self):
        out, n = global_update(GeneVector(0.0, 0.0), 1, GeneVector(1e150, 0.0))
        assert (out, n) == (GeneVector(0.5e150, math.sqrt(0.25e300)), 2)

    def test_long_stream_matches_batch_oracle(self):
        rng = np.random.default_rng(0)
        means = rng.uniform(-10, 10, 1000)
        g, n = GeneVector(float(means[0]), 0.0), 1
        for m in means[1:]:
            g, n = global_update(g, n, GeneVector(float(m), 0.0))
        assert n == 1000
        assert g.mu == pytest.approx(float(means.mean()), rel=1e-9)
        assert g.sigma == pytest.approx(float(means.std()), rel=1e-9)

    @given(st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=2, max_size=200))
    @settings(max_examples=200)
    def test_online_equals_batch(self, means):
        g, n = GeneVector(means[0], 0.0), 1
        for m in means[1:]:
            g, n = global_update(g, n, GeneVector(m, 0.0))
        mu, sigma = two_pass(means)
        assert g.mu == pytest.approx(mu, rel=1e-9, abs=1e-9)
        assert g.sigma == pytest.approx(sigma, rel=1e-9, abs=1e-9)


class TestMixGene:
    def test_default_ratio(self):
        state = GeneState(GeneVector(1, 1), GeneVector(0, 0), 1)
        assert mix_gene(state, 0.8) == GeneVector(0.8, 0.8)

    def test_extremes(self):
        state = GeneState(GeneVector(1, 2), GeneVector(3, 4), 1)
        assert mix_gene(state, 0.0) == state.global_
        assert mix_gene(state, 1.0) == state.local

    def test_ratio_out_of_range(self):
        state = fresh_state()
        with pytest.raises(ValidationError, match="tau_gene"):
            mix_gene(state, 1.2)

    @given(
        st.floats(-50, 50), st.floats(0, 50), st.floats(-50, 50), st.floats(0, 50),
        st.floats(0, 1),
    )
    def test_convex_combination(self, lm, ls, gm, gs, tau):
        out = mix_gene(GeneState(GeneVector(lm, ls), GeneVector(gm, gs), 1), tau)
        assert min(lm, gm) - 1e-9 <= out.mu <= max(lm, gm) + 1e-9
        assert min(ls, gs) - 1e-9 <= out.sigma <= max(ls, gs) + 1e-9


class TestGeneDistance:
    def test_three_four_five(self):
        assert gene_distance(GeneVector(0, 0), GeneVector(3, 4)) == 5.0
        assert gene_distance(GeneVector(1, 2), GeneVector(4, 6)) == 5.0

    def test_identity(self):
        assert gene_distance(GeneVector(2.5, 7.1), GeneVector(2.5, 7.1)) == 0.0

    def test_metric_properties_on_random_triples(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            a, b, c = (GeneVector(*rng.uniform(-100, 100, 2)) for _ in range(3))
            dab = gene_distance(a, b)
            assert dab >= 0
            assert dab == gene_distance(b, a)
            assert gene_distance(a, c) <= dab + gene_distance(b, c) + 1e-9
        assert gene_distance(a, a) == 0.0


class TestMleCost:
    def test_standard_normal_match(self):
        assert mle_cost(GeneVector(0, 1), GeneVector(0, 1)) == pytest.approx(1.0)

    def test_mean_offset(self):
        assert mle_cost(GeneVector(0, 1), GeneVector(2, 1)) == pytest.approx(5.0)

    def test_wider_candidate(self):
        expected = 2 * math.log(2) + 1
        assert mle_cost(GeneVector(0, 2), GeneVector(0, 2)) == pytest.approx(expected)
        assert expected == pytest.approx(2.3862943611, abs=1e-9)

    def test_sigma_floor_applied(self):
        # a constant-window candidate must still produce a finite score
        out = mle_cost(GeneVector(0, 0), GeneVector(0.1, 0.1))
        assert math.isfinite(out)
        assert out == pytest.approx(
            2 * math.log(SIGMA_FLOOR) + (0.01 + 0.01) / SIGMA_FLOOR**2
        )

    def test_overflowing_score_raises_numeric_error(self):
        with pytest.raises(NumericError, match="non-finite likelihood"):
            mle_cost(GeneVector(0, 1), GeneVector(1e200, 0))
        with pytest.raises(NumericError, match="non-finite likelihood"):
            mle_cost(GeneVector(0, 1), GeneVector(0, 1e200))
        with pytest.raises(NumericError, match="non-finite likelihood"):
            mle_cost(GeneVector(0, float("nan")), GeneVector(0, 1))

    def test_minimized_at_sample_mean(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            sample = GeneVector(rng.uniform(-10, 10), rng.uniform(0, 5))
            sigma = rng.uniform(0.1, 5)
            at_mean = mle_cost(GeneVector(sample.mu, sigma), sample)
            for delta in (-1.0, -0.1, 0.1, 1.0):
                shifted = mle_cost(GeneVector(sample.mu + delta, sigma), sample)
                assert shifted >= at_mean
