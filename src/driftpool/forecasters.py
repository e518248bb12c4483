"""Built-in forecasters: naive repeat, linear map, and a small MLP.

All of them share the same contract, which ``Forecaster`` owns: map a
lookback window of length L to a forecast of length H, take one
full-batch SGD step on MSE per train_step call, and support deep cloning
so a pool can split them without sharing parameters. A model states only
its forward pass and, if it learns, its parameter shapes and gradient.
Each model keeps its parameters as views into one flat buffer, so one
fused update moves them all. Gradients are written out by hand and go
through BLAS: every matrix-vector product is an ``ndarray.dot`` (gemv)
and every outer product a k=1 ``np.dot`` (gemm) into its gradient view,
since numpy's dispatch for ``@`` and for a broadcast multiply costs more
than the arithmetic at these sizes. ``Forecaster`` states the zero-sign
rule that keeps the bytes those of a broadcast multiply.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import NamedTuple

import numpy as np

from .errors import NumericError, ValidationError


def mse(pred: np.ndarray, truth: np.ndarray) -> float:
    """Mean squared error over the forecast horizon; NumericError if it is not finite."""
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if pred.shape != truth.shape:
        raise ValidationError(f"shape mismatch: {pred.shape} vs {truth.shape}")
    err = _mean_square(pred - truth)
    if not math.isfinite(err):
        raise NumericError("non-finite mse")
    return err


def _mean_square(err: np.ndarray) -> float:
    """``float(np.mean(err**2))`` bit for bit, without ``np.mean``'s wrapper."""
    return float(np.add.reduce(err * err, axis=None) / err.size)


class Forecaster(ABC):
    """predict / train_step / deep_clone contract for pool members.

    A model supplies ``_forward(x) -> (forecast, cache)`` and, if it has parameters, lays
    them out with ``_lay_out`` and supplies ``_gradient(x, err, cache)``, which writes the
    raw gradient into the views of ``_grads`` given ``err = forecast - truth`` and whatever
    its forward pass cached. ``train_step`` then takes one SGD step over the whole buffer
    at ``lr * _lr_scale``. Parameters are views into that buffer: write them in place
    (``f.weights[:] = ...``), since rebinding the attribute detaches it and training no
    longer reaches it. ``_lay_out`` lays out the buffer it is given. The gradient buffer is
    scratch, written whole by every ``_gradient`` before it is read, so ``deep_clone`` may
    hand back a spare model with its old gradient buffer.

    An outer-product gradient is a k=1 gemm: each entry is one exact product, as a
    broadcast multiply gives, except that gemm adds it to +0.0, so an exactly-zero entry
    is +0.0 whatever its product's sign. That sign reaches a parameter only if the
    parameter is -0.0, since ``p - (+0.0)`` and ``p - (-0.0)`` differ for no other ``p``.
    No parameter the package builds is -0.0: the linear model starts at zeros, the MLP at
    ``(-1 + 2u) / sqrt(fan-in)`` with zero biases, a rounded ``p - g`` is -0.0 only when
    ``p`` is, and clones and spares copy the buffer exactly. So a run's bytes are those of
    the broadcast kernel; a parameter a caller writes as -0.0 may keep that sign where the
    broadcast kernel would have flipped it to +0.0.
    """

    _layout: dict[str, tuple[int, ...]] = {}  # parameter name -> shape, in buffer order
    _theta = _grad = np.zeros(0)  # a model without parameters updates nothing
    _lr_scale = 1.0  # the constant factor of the gradient that the model leaves to lr

    def __init__(self, lookback: int, horizon: int):
        self.lookback = int(lookback)
        self.horizon = int(horizon)

    @abstractmethod
    def _forward(self, x: np.ndarray) -> tuple[np.ndarray, object]: ...

    def _gradient(self, x: np.ndarray, err: np.ndarray, cache) -> None:
        pass  # no parameters, nothing to train

    def _lay_out(self, theta: np.ndarray | None = None, /, **shapes: tuple[int, ...]) -> None:
        """Lay out the buffer ``theta`` (zeros when None) as parameters of these shapes,
        views in this order, and give the model a zeroed gradient buffer of that layout."""
        theta = np.zeros(sum(map(math.prod, shapes.values()))) if theta is None else theta
        self._layout, self._theta, self._grad = shapes, theta, np.zeros(theta.size)
        self._grads, at = [], 0
        for name, shape in shapes.items():
            end = at + math.prod(shape)
            setattr(self, name, self._theta[at:end].reshape(shape))
            self._grads.append(self._grad[at:end].reshape(shape))
            at = end

    def predict(self, window: np.ndarray) -> np.ndarray:
        return self._forward(self._check_window(window))[0]

    def train_step(self, window: np.ndarray, truth: np.ndarray, lr: float) -> float:
        """One SGD step on MSE; returns the loss measured BEFORE the update."""
        x = self._check_window(window)
        y = np.asarray(truth, dtype=float)
        if y.shape != (self.horizon,):
            raise ValidationError(f"truth shape {y.shape} != ({self.horizon},)")
        if not 0 <= lr < math.inf:  # NaN fails both comparisons
            raise ValidationError(f"lr must be finite and >= 0, got {lr}")
        forecast, cache = self._forward(x)
        err = forecast - y
        loss = _mean_square(err)
        if not math.isfinite(loss):
            raise NumericError("non-finite training loss")
        self._gradient(x, err, cache)
        g = self._grad
        np.multiply(g, lr * self._lr_scale, out=g)
        np.subtract(self._theta, g, out=self._theta)
        return loss

    def deep_clone(self, spare: "Forecaster | None" = None) -> "Forecaster":
        """This model's parameters copied into ``spare``, another model of its type and shapes,
        or else into a new model sharing its settings, with a zeroed gradient buffer."""
        if spare is None:
            clone = object.__new__(type(self))
            clone.__dict__.update(self.__dict__)
            clone._lay_out(self._theta.copy(), **self._layout)
            return clone
        if spare is self or (type(spare), spare.lookback, spare.horizon, spare._layout) != (
                type(self), self.lookback, self.horizon, self._layout):
            raise ValidationError(f"a spare must be another {type(self).__name__} of its shapes")
        np.copyto(spare._theta, self._theta)
        return spare

    def __deepcopy__(self, memo) -> "Forecaster":
        return self.deep_clone()  # a member-wise copy would copy each view off the buffer

    def _check_window(self, window: np.ndarray) -> np.ndarray:
        arr = np.asarray(window, dtype=float)
        if arr.shape != (self.lookback,):
            raise ValidationError(f"window shape {arr.shape} != ({self.lookback},)")
        return arr


class NaiveForecaster(Forecaster):
    """Repeats the window's last value; training is a no-op."""

    def _forward(self, x):
        return np.full(self.horizon, x[-1]), None


class LinearForecaster(Forecaster):
    """Affine map window -> forecast, zero-initialized for reproducibility."""

    def __init__(self, lookback: int, horizon: int):
        super().__init__(lookback, horizon)
        self._lay_out(weights=(self.horizon, self.lookback), bias=(self.horizon,))
        self._lr_scale = 2.0 / self.horizon

    def _forward(self, x):
        return self.weights.dot(x) + self.bias, None

    def _gradient(self, x, err, cache):
        g_weights, g_bias = self._grads
        np.dot(err[:, None], x[None, :], out=g_weights)
        g_bias[:] = err


class MlpForecaster(Forecaster):
    """One hidden tanh layer; seeded uniform init scaled by 1/sqrt(fan-in)."""

    def __init__(self, lookback: int, horizon: int, hidden: int = 32, seed: int = 0):
        super().__init__(lookback, horizon)
        self.hidden = int(hidden)
        rng = np.random.default_rng(seed)
        try:
            self._lay_out(w1=(self.hidden, self.lookback), b1=(self.hidden,),
                          w2=(self.horizon, self.hidden), b2=(self.horizon,))
            self.w1[:] = rng.uniform(-1.0, 1.0, self.w1.shape) / np.sqrt(self.lookback)
            self.w2[:] = rng.uniform(-1.0, 1.0, self.w2.shape) / np.sqrt(self.hidden)
        except (ValueError, MemoryError):  # numpy refuses a size beyond its limits
            raise ValidationError(f"hidden must fit in memory, got {self.hidden}") from None

    def _forward(self, x):
        h = np.tanh(self.w1.dot(x) + self.b1)
        return self.w2.dot(h) + self.b2, h

    def _gradient(self, x, err, h):
        g_w1, g_b1, g_w2, g_b2 = self._grads
        np.divide(2.0 * err, self.horizon, out=g_b2)  # d_pred
        np.dot(g_b2[:, None], h[None, :], out=g_w2)
        np.multiply(g_b2.dot(self.w2), 1.0 - h * h, out=g_b1)  # d_pre
        np.dot(g_b1[:, None], x[None, :], out=g_w1)


class Kind(NamedTuple):
    """A forecaster kind, declared once in KINDS."""

    cls: type[Forecaster]
    default_lr: float  # the raw learning rate of a run that sets none
    options: tuple[str, ...] = ()  # the make_forecaster options its constructor takes


KINDS = {
    "naive": Kind(NaiveForecaster, 0.01),
    "linear": Kind(LinearForecaster, 0.01),
    "mlp": Kind(MlpForecaster, 0.003, ("hidden", "seed")),
}
FORECASTER_KINDS = tuple(KINDS)


def make_forecaster(kind: str, lookback: int, horizon: int, hidden: int = 32, seed: int = 0
                    ) -> Forecaster:
    """Factory keyed by kind name; hidden and seed only matter for the MLP."""
    if kind not in KINDS:
        raise ValidationError(f"unknown forecaster kind {kind!r}, not one of {FORECASTER_KINDS}")
    given = {"hidden": hidden, "seed": seed}
    return KINDS[kind].cls(lookback, horizon, **{k: given[k] for k in KINDS[kind].options})
