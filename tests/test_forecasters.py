"""Forecaster contract tests: shapes, gradients, cloning, determinism."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftpool.errors import NumericError, ValidationError
from driftpool.forecasters import (
    FORECASTER_KINDS,
    KINDS,
    Forecaster,
    LinearForecaster,
    MlpForecaster,
    NaiveForecaster,
    _mean_square,
    make_forecaster,
    mse,
)
from reference import parameter_checksum, parameters


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
    before = [p.copy() for p in parameters(model)]
    clone = model.deep_clone()
    lr = 1.0
    clone.train_step(x, y, lr)
    return [(b - a) / lr for b, a in zip(before, parameters(clone))]


def written_out_step(params, x, y, lr):
    """The SGD step of a linear ([w, b]) or MLP ([w1, b1, w2, b2]) model, written
    out in full; the MLP's w2.T @ d_pred is taken before w2 moves."""
    if len(params) == 2:
        w, b = params
        err = w @ x + b - y
        return [w - lr * (2.0 / len(y)) * np.outer(err, x), b - lr * (2.0 / len(y)) * err]
    w1, b1, w2, b2 = params
    h = np.tanh(w1 @ x + b1)
    d_pred = 2.0 * (w2 @ h + b2 - y) / len(y)
    d_pre = (w2.T @ d_pred) * (1.0 - h**2)
    return [w1 - lr * np.outer(d_pre, x), b1 - lr * d_pre,
            w2 - lr * np.outer(d_pred, h), b2 - lr * d_pred]


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
        before = parameter_checksum(f)
        loss = f.train_step(np.array([1.0, 0.0]), np.array([2.0]), 0.0)
        assert loss == 4.0
        assert parameter_checksum(f) == before

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

        numeric = numeric_gradient(loss, parameters(f))
        applied = analytic_gradient(f, x, y)
        assert max_rel_error(applied, numeric) < 1e-6

    @pytest.mark.parametrize("lr", [-0.1, math.nan, math.inf])
    @pytest.mark.parametrize("kind", FORECASTER_KINDS)
    def test_a_negative_or_non_finite_lr_is_refused(self, kind, lr):
        # NaN fails every comparison, so `lr < 0` alone would let it through to the weights
        f = make_forecaster(kind, 3, 2)
        before = parameter_checksum(f)
        with pytest.raises(ValidationError, match=f"^lr must be finite and >= 0, got {lr}$"):
            f.train_step(np.ones(3), np.ones(2), lr)
        assert parameter_checksum(f) == before

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
        before = parameter_checksum(f)
        assert f.train_step(x, y, 0.5) == 4.0
        assert parameter_checksum(f) == before

    def test_divergence_surfaces_as_numeric_error(self):
        f = LinearForecaster(4, 2)
        x = np.full(4, 50.0)
        y = np.full(2, 10.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError):
                for _ in range(200):  # lr far past the stability bound
                    f.train_step(x, y, 1.0)


    def test_naive_non_finite_loss_raises(self):
        # err = 1e200 - (-1e200) squares to inf; naive used to return it
        f = NaiveForecaster(2, 1)
        with np.errstate(over="ignore"):
            with pytest.raises(NumericError, match="non-finite training loss"):
                f.train_step(np.array([0.0, 1e200]), np.array([-1e200]), 0.01)


class TestContract:
    def test_predict_and_train_step_live_on_the_base_class_only(self):
        for kind in KINDS.values():
            assert issubclass(kind.cls, Forecaster)
            for name in ("predict", "train_step", "deep_clone"):
                assert name not in vars(kind.cls), (kind.cls, name)
        assert "__init__" not in vars(NaiveForecaster)

    @pytest.mark.parametrize("kind", FORECASTER_KINDS)
    def test_train_step_loss_is_the_predict_mse(self, kind):
        rng = np.random.default_rng(4)
        f = make_forecaster(kind, 6, 3, hidden=5, seed=1)
        for _ in range(5):
            x, y = rng.normal(size=6), rng.normal(size=3)
            before = f.deep_clone()
            assert f.train_step(x, y, 0.05) == mse(before.predict(x), y)

    def test_mlp_update_matches_the_written_out_step(self):
        rng = np.random.default_rng(8)
        f = MlpForecaster(5, 3, hidden=4, seed=2)
        ref = [p.copy() for p in parameters(f)]
        for _ in range(10):
            x, y, lr = rng.normal(size=5), rng.normal(size=3), 0.07
            ref = written_out_step(ref, x, y, lr)
            f.train_step(x, y, lr)
            for got, want in zip(parameters(f), ref, strict=True):
                assert np.array_equal(got, want)

    def test_linear_update_matches_the_written_out_step(self):
        rng = np.random.default_rng(9)
        f = LinearForecaster(5, 3)
        f.weights[:] = rng.normal(size=(3, 5))
        f.bias[:] = rng.normal(size=3)
        ref = [p.copy() for p in parameters(f)]
        for _ in range(10):
            x, y, lr = rng.normal(size=5), rng.normal(size=3), 0.07
            ref = written_out_step(ref, x, y, lr)
            f.train_step(x, y, lr)
            for got, want in zip(parameters(f), ref, strict=True):
                assert np.array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["linear", "mlp"]), st.integers(1, 13), st.integers(1, 7),
           st.integers(1, 9), st.integers(0, 2**32 - 1))
    def test_the_fused_update_is_the_written_out_step_at_any_shape(self, kind, lookback,
                                                                   horizon, hidden, seed):
        # odd sizes start the views inside the one buffer at 8-byte-only offsets
        rng = np.random.default_rng(seed)
        f = make_forecaster(kind, lookback, horizon, hidden=hidden, seed=seed)
        for p in parameters(f):
            p += rng.normal(scale=0.5, size=p.shape)
        ref = [p.copy() for p in parameters(f)]
        for _ in range(4):
            x, y = rng.normal(size=lookback), rng.normal(size=horizon)
            lr = float(rng.uniform(0.0, 0.2))
            ref = written_out_step(ref, x, y, lr)
            f.train_step(x, y, lr)
            for got, want in zip(parameters(f), ref, strict=True):
                assert np.array_equal(got, want)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.floats(-1e300, 1e300),
                              st.sampled_from([math.inf, -math.inf, math.nan])),
                    min_size=1, max_size=64))
    def test_mean_square_is_numpy_mean_bit_for_bit(self, values):
        err = np.array(values)
        with np.errstate(all="ignore"):
            got, want = _mean_square(err), float(np.mean(err**2))
        assert got == want or (math.isnan(got) and math.isnan(want))

    def test_kind_table(self):
        assert FORECASTER_KINDS == ("naive", "linear", "mlp")
        assert {k: v.default_lr for k, v in KINDS.items()} == {
            "naive": 0.01, "linear": 0.01, "mlp": 0.003,
        }
        for name, kind in KINDS.items():
            assert type(make_forecaster(name, 4, 2)) is kind.cls
        mlp = make_forecaster("mlp", 4, 2, hidden=7, seed=3)
        assert mlp.hidden == 7
        same = MlpForecaster(4, 2, hidden=7, seed=3)
        assert parameter_checksum(mlp) == parameter_checksum(same)

    def test_engine_default_lr_reads_the_table(self):
        from driftpool.engine import EngineConfig

        for name, kind in KINDS.items():
            assert EngineConfig(4, 2, forecaster=name).resolved_lr() == kind.default_lr
        assert EngineConfig(4, 2, forecaster="mlp", lr_raw=0.5).resolved_lr() == 0.5


class TestGradientCheck:
    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_matches_central_differences(self, kind):
        rng = np.random.default_rng(11)
        for case in range(20):
            lookback = int(rng.integers(2, 8))
            horizon = int(rng.integers(1, 5))
            f = make_forecaster(kind, lookback, horizon, hidden=6, seed=case)
            for p in parameters(f):
                p += rng.normal(scale=0.5, size=p.shape)
            x = rng.normal(size=lookback)
            y = rng.normal(size=horizon)

            def loss():
                return mse(f.predict(x), y)

            numeric = numeric_gradient(loss, parameters(f))
            applied = analytic_gradient(f, x, y)
            assert max_rel_error(applied, numeric) < 1e-4


class TestCloning:
    @pytest.mark.parametrize("kind", ["naive", "linear", "mlp"])
    def test_clone_predicts_identically(self, kind):
        f = make_forecaster(kind, 6, 3, seed=2)
        clone = f.deep_clone()
        x = np.linspace(0, 1, 6)
        assert np.array_equal(f.predict(x), clone.predict(x))
        assert parameter_checksum(f) == parameter_checksum(clone)

    def test_training_original_leaves_clone_untouched(self):
        f = MlpForecaster(6, 3, hidden=4, seed=0)
        clone = f.deep_clone()
        fingerprint = parameter_checksum(clone)
        for _ in range(5):
            f.train_step(np.ones(6), np.zeros(3), 0.05)
        assert parameter_checksum(clone) == fingerprint
        assert parameter_checksum(f) != fingerprint

    def test_training_clone_leaves_original_untouched(self):
        f = LinearForecaster(6, 3)
        fingerprint = parameter_checksum(f)
        clone = f.deep_clone()
        clone.train_step(np.ones(6), np.ones(3), 0.05)
        assert parameter_checksum(f) == fingerprint

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
        assert parameter_checksum(f) == parameter_checksum(solo)


class TestParameterBuffer:
    @pytest.mark.parametrize(
        "copier", [Forecaster.deep_clone, copy.deepcopy, lambda f: f.deep_clone().deep_clone()],
        ids=["deep_clone", "deepcopy", "clone_of_a_clone"])
    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_a_clone_owns_its_buffer_and_trains_like_a_fresh_model(self, kind, copier):
        rng = np.random.default_rng(13)
        steps = [(rng.normal(size=7), rng.normal(size=3)) for _ in range(12)]
        f = make_forecaster(kind, 7, 3, hidden=5, seed=4)
        fresh = make_forecaster(kind, 7, 3, hidden=5, seed=4)
        for x, y in steps[:5]:
            f.train_step(x, y, 0.05)
            fresh.train_step(x, y, 0.05)
        parent_sum = parameter_checksum(f)
        clone = copier(f)
        assert type(clone) is type(f)
        assert not clone._grad.any()  # a clone's gradient buffer starts zeroed
        for model in (f, clone):
            assert not np.shares_memory(model._theta, model._grad)
            assert sum(p.size for p in parameters(model)) == model._theta.size
            for p, g in zip(parameters(model), model._grads, strict=True):
                assert p.base is model._theta and g.base is model._grad
        for p, q in zip(parameters(f) + f._grads, parameters(clone) + clone._grads):
            assert not np.shares_memory(p, q)
        for x, y in steps[5:]:
            clone.train_step(x, y, 0.05)
            fresh.train_step(x, y, 0.05)
        assert parameter_checksum(clone) == parameter_checksum(fresh)
        assert parameter_checksum(f) == parent_sum


class TestDeterminism:
    def test_same_seed_same_init(self):
        a = MlpForecaster(7, 3, hidden=5, seed=42)
        b = MlpForecaster(7, 3, hidden=5, seed=42)
        assert parameter_checksum(a) == parameter_checksum(b)
        c = MlpForecaster(7, 3, hidden=5, seed=43)
        assert parameter_checksum(c) != parameter_checksum(a)

    def test_same_training_sequence_same_checksum(self):
        rng1 = np.random.default_rng(1)
        rng2 = np.random.default_rng(1)
        a = MlpForecaster(5, 2, hidden=4, seed=0)
        b = MlpForecaster(5, 2, hidden=4, seed=0)
        for _ in range(25):
            a.train_step(rng1.normal(size=5), rng1.normal(size=2), 0.01)
            b.train_step(rng2.normal(size=5), rng2.normal(size=2), 0.01)
        assert parameter_checksum(a) == parameter_checksum(b)


def test_unknown_kind_rejected():
    with pytest.raises(ValidationError, match="unknown forecaster"):
        make_forecaster("transformer", 4, 2)


@pytest.mark.parametrize("error", [ValueError("array is too big"), MemoryError()])
def test_a_width_numpy_cannot_allocate_is_refused(monkeypatch, error):
    # numpy refuses a size past its limit with ValueError before allocating, and a
    # smaller one the machine lacks with MemoryError; both are planted here
    class Refusing:
        def uniform(self, *args):
            raise error

    monkeypatch.setattr(np.random, "default_rng", lambda seed: Refusing())
    with pytest.raises(ValidationError, match="^hidden must fit in memory, got 5$"):
        MlpForecaster(7, 3, hidden=5)
