"""Forecaster contract tests: shapes, gradients, cloning, determinism."""

import numpy as np
import pytest

from driftpool.errors import ValidationError
from driftpool.forecasters import (
    LinearForecaster,
    MlpForecaster,
    NaiveForecaster,
    make_forecaster,
    mse,
)


def numeric_gradient(f, params, step=1e-5):
    """Central finite differences of a scalar function over live arrays."""
    grads = []
    for p in params:
        g = np.zeros_like(p)
        flat_p = p.ravel()
        flat_g = g.ravel()
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + step
            hi = f()
            flat_p[i] = orig - step
            lo = f()
            flat_p[i] = orig
            flat_g[i] = (hi - lo) / (2 * step)
        grads.append(g)
    return grads


def analytic_gradient(model, x, y):
    """Recover the applied gradient from one unit-lr-free train_step."""
    before = [p.copy() for p in model.parameters()]
    clone = model.deep_clone()
    lr = 1.0
    clone.train_step(x, y, lr)
    return [(b - a) / lr for b, a in zip(before, clone.parameters())]


def max_rel_error(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


class TestPredict:
    def test_naive_repeats_last_value(self):
        f = NaiveForecaster(3, 2)
        assert np.array_equal(f.predict(np.array([1.0, 2.0, 3.0])), [3.0, 3.0])

    def test_zero_linear_predicts_zero(self):
        f = LinearForecaster(4, 3)
        assert np.array_equal(f.predict(np.ones(4)), np.zeros(3))

    def test_constructed_selector_weights(self):
        f = LinearForecaster(3, 2)
        f.weights[:] = 0.0
        f.weights[:, -1] = 1.0  # every output row picks the last input
        out = f.predict(np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(out, [3.0, 3.0])

    @pytest.mark.parametrize("kind", ["naive", "linear", "mlp"])
    def test_shape_checks(self, kind):
        f = make_forecaster(kind, 5, 2)
        with pytest.raises(ValidationError, match="window shape"):
            f.predict(np.zeros(4))
        with pytest.raises(ValidationError, match="truth shape"):
            f.train_step(np.zeros(5), np.zeros(3), 0.01)

    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_output_finite(self, kind):
        f = make_forecaster(kind, 8, 4, seed=3)
        out = f.predict(np.linspace(-1, 1, 8))
        assert out.shape == (4,)
        assert np.isfinite(out).all()


class TestTrainStep:
    def test_zero_lr_returns_loss_and_keeps_params(self):
        f = LinearForecaster(2, 1)
        before = f.parameter_checksum()
        loss = f.train_step(np.array([1.0, 0.0]), np.array([2.0]), 0.0)
        assert loss == 4.0
        assert f.parameter_checksum() == before

    def test_loss_measured_before_update(self):
        f = LinearForecaster(2, 1)
        loss = f.train_step(np.array([1.0, 0.0]), np.array([2.0]), 0.1)
        assert loss == 4.0  # pre-update prediction is 0

    def test_update_moves_prediction_toward_truth(self):
        x, y = np.array([1.0, 0.0]), np.array([2.0])
        f = LinearForecaster(2, 1)
        f.train_step(x, y, 0.1)
        after = f.predict(x)[0]
        assert 0.0 < after <= 2.0

    def test_gradient_sign_matches_finite_differences(self):
        x, y = np.array([1.0, 0.0]), np.array([2.0])
        f = LinearForecaster(2, 1)

        def loss():
            return mse(f.predict(x), y)

        numeric = numeric_gradient(loss, f.parameters())
        applied = analytic_gradient(f, x, y)
        assert max_rel_error(applied, numeric) < 1e-6

    def test_negative_lr_rejected(self):
        f = LinearForecaster(2, 1)
        with pytest.raises(ValidationError, match="lr"):
            f.train_step(np.zeros(2), np.zeros(1), -0.1)

    def test_repeated_steps_converge(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=6)
        y = rng.normal(size=3)
        f = LinearForecaster(6, 3)
        losses = [f.train_step(x, y, 0.05) for _ in range(10_000)]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
        assert losses[-1] < 1e-6

    def test_naive_training_is_a_noop_returning_would_be_mse(self):
        f = NaiveForecaster(3, 2)
        x = np.array([0.0, 0.0, 1.0])
        y = np.array([3.0, 3.0])
        before = f.parameter_checksum()
        assert f.train_step(x, y, 0.5) == 4.0
        assert f.parameter_checksum() == before

    def test_divergence_surfaces_as_numeric_error(self):
        from driftpool.errors import NumericError

        f = LinearForecaster(4, 2)
        x = np.full(4, 50.0)
        y = np.full(2, 10.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError):
                for _ in range(200):  # lr far past the stability bound
                    f.train_step(x, y, 1.0)


class TestGradientCheck:
    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_matches_central_differences(self, kind):
        rng = np.random.default_rng(11)
        for case in range(20):
            lookback = int(rng.integers(2, 8))
            horizon = int(rng.integers(1, 5))
            f = make_forecaster(kind, lookback, horizon, hidden=6, seed=case)
            for p in f.parameters():
                p += rng.normal(scale=0.5, size=p.shape)
            x = rng.normal(size=lookback)
            y = rng.normal(size=horizon)

            def loss():
                return mse(f.predict(x), y)

            numeric = numeric_gradient(loss, f.parameters())
            applied = analytic_gradient(f, x, y)
            assert max_rel_error(applied, numeric) < 1e-4


class TestCloning:
    @pytest.mark.parametrize("kind", ["naive", "linear", "mlp"])
    def test_clone_predicts_identically(self, kind):
        f = make_forecaster(kind, 6, 3, seed=2)
        clone = f.deep_clone()
        x = np.linspace(0, 1, 6)
        assert np.array_equal(f.predict(x), clone.predict(x))
        assert f.parameter_checksum() == clone.parameter_checksum()

    def test_training_original_leaves_clone_untouched(self):
        f = MlpForecaster(6, 3, hidden=4, seed=0)
        clone = f.deep_clone()
        fingerprint = clone.parameter_checksum()
        for _ in range(5):
            f.train_step(np.ones(6), np.zeros(3), 0.05)
        assert clone.parameter_checksum() == fingerprint
        assert f.parameter_checksum() != fingerprint

    def test_training_clone_leaves_original_untouched(self):
        f = LinearForecaster(6, 3)
        fingerprint = f.parameter_checksum()
        clone = f.deep_clone()
        clone.train_step(np.ones(6), np.ones(3), 0.05)
        assert f.parameter_checksum() == fingerprint

    def test_independence_under_interleaved_training(self):
        rng = np.random.default_rng(9)
        f = LinearForecaster(4, 2)
        clone = f.deep_clone()
        solo = LinearForecaster(4, 2)  # trained with f's sequence only
        for step in range(40):
            x, y = rng.normal(size=4), rng.normal(size=2)
            if step % 3 == 0:
                clone.train_step(rng.normal(size=4), rng.normal(size=2), 0.02)
            f.train_step(x, y, 0.02)
            solo.train_step(x, y, 0.02)
        assert f.parameter_checksum() == solo.parameter_checksum()


class TestDeterminism:
    def test_same_seed_same_init(self):
        a = MlpForecaster(7, 3, hidden=5, seed=42)
        b = MlpForecaster(7, 3, hidden=5, seed=42)
        assert a.parameter_checksum() == b.parameter_checksum()
        c = MlpForecaster(7, 3, hidden=5, seed=43)
        assert c.parameter_checksum() != a.parameter_checksum()

    def test_same_training_sequence_same_checksum(self):
        rng1 = np.random.default_rng(1)
        rng2 = np.random.default_rng(1)
        a = MlpForecaster(5, 2, hidden=4, seed=0)
        b = MlpForecaster(5, 2, hidden=4, seed=0)
        for _ in range(25):
            a.train_step(rng1.normal(size=5), rng1.normal(size=2), 0.01)
            b.train_step(rng2.normal(size=5), rng2.normal(size=2), 0.01)
        assert a.parameter_checksum() == b.parameter_checksum()


def test_unknown_kind_rejected():
    with pytest.raises(ValidationError, match="unknown forecaster"):
        make_forecaster("transformer", 4, 2)
