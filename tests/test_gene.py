"""Gene signature math against independent two-pass oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftpool.errors import NumericError, ValidationError
from driftpool.forecasters import NaiveForecaster
from driftpool.gene import (
    SIGMA_FLOOR,
    blend,
    compute_gene,
    fold_moments,
    nlls,
)
from driftpool.pool import CepConfig, Pool, absorb_instance
from reference import Gene, distances, genes_of


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
        assert compute_gene([5, 5, 5, 5], 4) == (5.0, 0.0)

    def test_matches_two_pass_oracle(self):
        g_mu, g_sigma = compute_gene([1, 2, 3, 4], 4)
        mu, sigma = two_pass([1, 2, 3, 4])
        assert g_mu == pytest.approx(mu)
        assert g_sigma == pytest.approx(sigma)
        assert g_sigma == pytest.approx(1.1180339887, abs=1e-9)

    def test_scope_takes_most_recent_values(self):
        g_mu, g_sigma = compute_gene([1, 2, 3, 4, 100], 4)
        mu, sigma = two_pass([2, 3, 4, 100])
        assert g_mu == pytest.approx(27.25)
        assert g_mu == pytest.approx(mu)
        assert g_sigma == pytest.approx(sigma)

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

    def test_overflowing_signature_rejected(self):
        # finite values whose spread, or whose mean, overflows a float
        with np.errstate(over="ignore"):
            with pytest.raises(NumericError, match="non-finite window signature"):
                compute_gene([1e200, -1e200], 2)
            with pytest.raises(NumericError, match="non-finite window signature"):
                compute_gene([1.7e308, 1.7e308], 2)

    def test_bad_scope_rejected(self):
        with pytest.raises(ValidationError):
            compute_gene([1.0], 0)

    @given(st.lists(finite_floats, min_size=1, max_size=50), st.floats(-100, 100))
    def test_translation_equivariance(self, window, shift):
        base_mu, base_sigma = compute_gene(window, len(window))
        mu, sigma = compute_gene([v + shift for v in window], len(window))
        assert mu == pytest.approx(base_mu + shift, abs=1e-6)
        assert sigma == pytest.approx(base_sigma, abs=1e-6)

    @given(st.lists(finite_floats, min_size=1, max_size=50), st.floats(1e-3, 1e3))
    def test_scale_equivariance(self, window, scale):
        base_mu, base_sigma = compute_gene(window, len(window))
        mu, sigma = compute_gene([v * scale for v in window], len(window))
        assert mu == pytest.approx(scale * base_mu, rel=1e-9, abs=1e-6)
        assert sigma == pytest.approx(scale * base_sigma, rel=1e-9, abs=1e-6)


def distance(a, b):
    """Euclidean distance between two (mu, sigma) pairs."""
    return distances(*a, [Gene(*b)])[0]


def nll(candidate, sample):
    """Likelihood score of the sample pair under the candidate pair."""
    return nlls(*sample, [Gene(*candidate)])[0]


class TestEmaUpdate:
    """The local gene's EMA step: ``blend(tau_l, new, old)`` on each component."""

    def test_direct_substitution(self):
        assert blend(0.2, 1.0, 0.0) == 0.2

    @pytest.mark.parametrize("tau", [0.05, 0.2, 1.0])
    def test_fixed_point(self, tau):
        for v in (3.0, 1.0):
            assert blend(tau, v, v) == pytest.approx(v, rel=1e-15)

    def test_tau_one_replaces(self):
        assert blend(1.0, 0.0, 10.0) == blend(1.0, 0.0, 2.0) == 0.0

    @pytest.mark.parametrize("tau", [0.0, -0.1, 1.5])
    def test_rate_out_of_range(self, tau):
        # the EMA rate is checked where it is set, in the run's config
        with pytest.raises(ValidationError, match="tau_l"):
            CepConfig(tau_l=tau)

    @given(
        st.floats(-100, 100), st.floats(0, 100),
        st.floats(-100, 100), st.floats(0, 100),
        st.floats(0.01, 1.0), st.integers(1, 60),
    )
    @settings(max_examples=200)
    def test_closed_form_under_constant_input(self, mu0, s0, mu, s, tau, k):
        local_mu, local_sigma = mu0, s0
        for _ in range(k):
            local_mu, local_sigma = blend(tau, mu, local_mu), blend(tau, s, local_sigma)
        decay = (1 - tau) ** k
        assert local_mu == pytest.approx(mu + decay * (mu0 - mu), abs=1e-12, rel=1e-9)
        assert local_sigma == pytest.approx(s + decay * (s0 - s), abs=1e-12, rel=1e-9)


class TestGlobalUpdate:
    """The global gene's exact running moments: ``fold_moments``."""

    def test_two_value_batch(self):
        mu, sigma = fold_moments(2.0, 0.0, 1, 4.0)
        assert mu == pytest.approx(3.0)
        assert sigma == pytest.approx(1.0)  # population std of {2, 4}

    def test_absorbing_own_mean_is_neutral(self):
        assert fold_moments(7.5, 0.0, 11, 7.5) == (7.5, 0.0)

    def test_only_instance_mean_enters(self):
        # an entry absorbs a window's sigma into its local gene only
        a, b = (Pool(NaiveForecaster(4, 2), 0.01, CepConfig()).entries[0] for _ in range(2))
        absorb_instance(a, 5.0, 0.0)
        absorb_instance(b, 5.0, 99.0)
        assert genes_of(a)[1] == genes_of(b)[1]
        assert genes_of(a)[0] != genes_of(b)[0]

    def test_overflowing_moments_raise_numeric_error(self):
        # (mu_g - x) ** 2 overflows a Python float: OverflowError before the fix
        with pytest.raises(NumericError, match="overflow"):
            fold_moments(0.0, 0.0, 1, 1e200)
        # n * mu_g overflows to inf without raising
        with pytest.raises(NumericError, match="overflow"):
            fold_moments(1e308, 0.0, 10, 1e308)

    def test_large_finite_moments_unchanged(self):
        assert fold_moments(0.0, 0.0, 1, 1e150) == (0.5e150, math.sqrt(0.25e300))

    def test_long_stream_matches_batch_oracle(self):
        rng = np.random.default_rng(0)
        means = rng.uniform(-10, 10, 1000)
        mu, sigma = float(means[0]), 0.0
        for n, m in enumerate(means[1:], start=1):
            mu, sigma = fold_moments(mu, sigma, n, float(m))
        assert mu == pytest.approx(float(means.mean()), rel=1e-9)
        assert sigma == pytest.approx(float(means.std()), rel=1e-9)

    @given(st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=2, max_size=200))
    @settings(max_examples=200)
    def test_online_equals_batch(self, means):
        mu, sigma = means[0], 0.0
        for n, m in enumerate(means[1:], start=1):
            mu, sigma = fold_moments(mu, sigma, n, m)
        expected_mu, expected_sigma = two_pass(means)
        assert mu == pytest.approx(expected_mu, rel=1e-9, abs=1e-9)
        assert sigma == pytest.approx(expected_sigma, rel=1e-9, abs=1e-9)


class TestMixGene:
    """The mixed gene: ``blend(tau_gene, local, global)`` on each component."""

    def test_default_ratio(self):
        assert blend(0.8, 1.0, 0.0) == 0.8

    def test_extremes(self):
        assert (blend(0.0, 1.0, 3.0), blend(0.0, 2.0, 4.0)) == (3.0, 4.0)  # the global gene
        assert (blend(1.0, 1.0, 3.0), blend(1.0, 2.0, 4.0)) == (1.0, 2.0)  # the local gene

    def test_ratio_out_of_range(self):
        # the mixing ratio is checked where it is set, in the run's config
        with pytest.raises(ValidationError, match="tau_gene"):
            CepConfig(tau_gene=1.2)

    @given(
        st.floats(-50, 50), st.floats(0, 50), st.floats(-50, 50), st.floats(0, 50),
        st.floats(0, 1),
    )
    def test_convex_combination(self, lm, ls, gm, gs, tau):
        mu, sigma = blend(tau, lm, gm), blend(tau, ls, gs)
        assert min(lm, gm) - 1e-9 <= mu <= max(lm, gm) + 1e-9
        assert min(ls, gs) - 1e-9 <= sigma <= max(ls, gs) + 1e-9


class TestGeneDistance:
    """Euclidean retrieval cost: ``distances``."""

    def test_three_four_five(self):
        assert distance((0, 0), (3, 4)) == 5.0
        assert distance((1, 2), (4, 6)) == 5.0
        assert distances(0.0, 0.0, [Gene(3, 4), Gene(-6, 8)]) == [5.0, 10.0]

    def test_identity(self):
        assert distance((2.5, 7.1), (2.5, 7.1)) == 0.0

    def test_metric_properties_on_random_triples(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            a, b, c = (tuple(rng.uniform(-100, 100, 2)) for _ in range(3))
            dab = distance(a, b)
            assert dab >= 0
            assert dab == distance(b, a)
            assert distance(a, c) <= dab + distance(b, c) + 1e-9
        assert distance(a, a) == 0.0


class TestMleCost:
    """Likelihood retrieval cost: ``nlls``."""

    def test_standard_normal_match(self):
        assert nll((0, 1), (0, 1)) == pytest.approx(1.0)

    def test_mean_offset(self):
        assert nll((0, 1), (2, 1)) == pytest.approx(5.0)

    def test_wider_candidate(self):
        expected = 2 * math.log(2) + 1
        assert nll((0, 2), (0, 2)) == pytest.approx(expected)
        assert expected == pytest.approx(2.3862943611, abs=1e-9)

    def test_sigma_floor_applied(self):
        # a constant-window candidate must still produce a finite score
        out = nll((0, 0), (0.1, 0.1))
        assert math.isfinite(out)
        assert out == pytest.approx(
            2 * math.log(SIGMA_FLOOR) + (0.01 + 0.01) / SIGMA_FLOOR**2
        )

    def test_overflowing_score_raises_numeric_error(self):
        with pytest.raises(NumericError, match="non-finite likelihood"):
            nll((0, 1), (1e200, 0))
        with pytest.raises(NumericError, match="non-finite likelihood"):
            nll((0, 1), (0, 1e200))
        with pytest.raises(NumericError, match="non-finite likelihood"):
            nll((0, float("nan")), (0, 1))
        with pytest.raises(NumericError, match="non-finite likelihood"):  # at any candidate
            nlls(0.0, 1.0, [Gene(0, 1), Gene(0, float("nan"))])

    def test_minimized_at_sample_mean(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            sample = (rng.uniform(-10, 10), rng.uniform(0, 5))
            sigma = rng.uniform(0.1, 5)
            at_mean = nll((sample[0], sigma), sample)
            for delta in (-1.0, -0.1, 0.1, 1.0):
                shifted = nll((sample[0] + delta, sigma), sample)
                assert shifted >= at_mean
