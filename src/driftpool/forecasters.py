"""Built-in forecasters: naive repeat, linear map, and a small MLP.

All of them share the same contract, which ``Forecaster`` owns: map a
lookback window of length L to a forecast of length H, take one
full-batch SGD step on MSE per train_step call, and support deep cloning
so a pool can split them without sharing parameters. A model states only
its forward pass and, if it learns, its update. Gradients are written out
by hand; the models are small enough that numpy is all we need.
"""

from __future__ import annotations

import copy
import hashlib
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

    A model supplies ``_forward(x) -> (forecast, cache)`` and, if it has
    parameters, ``_update(x, err, cache, lr)``, which takes one SGD step
    given ``err = forecast - truth`` and whatever its forward pass cached.
    """

    def __init__(self, lookback: int, horizon: int):
        self.lookback = int(lookback)
        self.horizon = int(horizon)

    @abstractmethod
    def _forward(self, x: np.ndarray) -> tuple[np.ndarray, object]: ...

    def _update(self, x: np.ndarray, err: np.ndarray, cache, lr: float) -> None:
        pass  # no parameters, nothing to train

    def predict(self, window: np.ndarray) -> np.ndarray:
        return self._forward(self._check_window(window))[0]

    def train_step(self, window: np.ndarray, truth: np.ndarray, lr: float) -> float:
        """One SGD step on MSE; returns the loss measured BEFORE the update."""
        x = self._check_window(window)
        y = np.asarray(truth, dtype=float)
        if y.shape != (self.horizon,):
            raise ValidationError(f"truth shape {y.shape} != ({self.horizon},)")
        if lr < 0:
            raise ValidationError(f"lr must be >= 0, got {lr}")
        forecast, cache = self._forward(x)
        err = forecast - y
        loss = _mean_square(err)
        if not math.isfinite(loss):
            raise NumericError("non-finite training loss")
        self._update(x, err, cache, lr)
        return loss

    def parameters(self) -> list[np.ndarray]:
        """Live references to all trainable arrays (may be empty)."""
        return []

    def deep_clone(self) -> "Forecaster":
        return copy.deepcopy(self)

    def parameter_checksum(self) -> str:
        h = hashlib.sha256()
        h.update(type(self).__name__.encode())
        for p in self.parameters():
            h.update(str(p.shape).encode())
            h.update(p.tobytes())
        return h.hexdigest()

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
        self.weights = np.zeros((self.horizon, self.lookback))
        self.bias = np.zeros(self.horizon)

    def parameters(self):
        return [self.weights, self.bias]

    def _forward(self, x):
        return self.weights @ x + self.bias, None

    def _update(self, x, err, cache, lr):
        scale = 2.0 / self.horizon
        self.weights -= lr * scale * np.multiply.outer(err, x)
        self.bias -= lr * scale * err


class MlpForecaster(Forecaster):
    """One hidden tanh layer; seeded uniform init scaled by 1/sqrt(fan-in)."""

    def __init__(self, lookback: int, horizon: int, hidden: int = 32, seed: int = 0):
        super().__init__(lookback, horizon)
        self.hidden = int(hidden)
        rng = np.random.default_rng(seed)
        self.w1 = rng.uniform(-1.0, 1.0, (self.hidden, self.lookback)) / np.sqrt(self.lookback)
        self.b1 = np.zeros(self.hidden)
        self.w2 = rng.uniform(-1.0, 1.0, (self.horizon, self.hidden)) / np.sqrt(self.hidden)
        self.b2 = np.zeros(self.horizon)

    def parameters(self):
        return [self.w1, self.b1, self.w2, self.b2]

    def _forward(self, x):
        h = np.tanh(self.w1 @ x + self.b1)
        return self.w2 @ h + self.b2, h

    def _update(self, x, err, h, lr):
        d_pred = 2.0 * err / self.horizon
        d_w2 = np.multiply.outer(d_pred, h)
        d_b2 = d_pred
        d_h = self.w2.T @ d_pred  # taken before w2 moves
        d_pre = d_h * (1.0 - h**2)
        d_w1 = np.multiply.outer(d_pre, x)
        d_b1 = d_pre
        self.w1 -= lr * d_w1
        self.b1 -= lr * d_b1
        self.w2 -= lr * d_w2
        self.b2 -= lr * d_b2


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
