"""Built-in forecasters: naive repeat, linear map, and a small MLP.

All of them share the same contract: map a lookback window of length L
to a forecast of length H, take one full-batch SGD step on MSE per
train_step call, and support deep cloning so a pool can split them
without sharing parameters. Gradients are written out by hand; the
models are small enough that numpy is all we need.
"""

from __future__ import annotations

import copy
import hashlib
from abc import ABC, abstractmethod

import numpy as np

from .errors import NumericError, ValidationError


def mse(pred: np.ndarray, truth: np.ndarray) -> float:
    """Mean squared error over the forecast horizon."""
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if pred.shape != truth.shape:
        raise ValidationError(f"shape mismatch: {pred.shape} vs {truth.shape}")
    return float(np.mean((pred - truth) ** 2))


class Forecaster(ABC):
    """predict / train_step / deep_clone contract for pool members."""

    lookback: int
    horizon: int

    @abstractmethod
    def predict(self, window: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def train_step(self, window: np.ndarray, truth: np.ndarray, lr: float) -> float:
        """One SGD step on MSE; returns the loss measured BEFORE the update."""

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

    def _check_pair(self, window, truth) -> tuple[np.ndarray, np.ndarray]:
        x = self._check_window(window)
        y = np.asarray(truth, dtype=float)
        if y.shape != (self.horizon,):
            raise ValidationError(f"truth shape {y.shape} != ({self.horizon},)")
        return x, y


class NaiveForecaster(Forecaster):
    """Repeats the window's last value; training is a no-op."""

    def __init__(self, lookback: int, horizon: int):
        self.lookback = int(lookback)
        self.horizon = int(horizon)

    def predict(self, window):
        x = self._check_window(window)
        return np.full(self.horizon, x[-1])

    def train_step(self, window, truth, lr):
        x, y = self._check_pair(window, truth)
        if lr < 0:
            raise ValidationError(f"lr must be >= 0, got {lr}")
        return mse(self.predict(x), y)


class LinearForecaster(Forecaster):
    """Affine map window -> forecast, zero-initialized for reproducibility."""

    def __init__(self, lookback: int, horizon: int):
        self.lookback = int(lookback)
        self.horizon = int(horizon)
        self.weights = np.zeros((self.horizon, self.lookback))
        self.bias = np.zeros(self.horizon)

    def parameters(self):
        return [self.weights, self.bias]

    def predict(self, window):
        x = self._check_window(window)
        return self.weights @ x + self.bias

    def train_step(self, window, truth, lr):
        x, y = self._check_pair(window, truth)
        if lr < 0:
            raise ValidationError(f"lr must be >= 0, got {lr}")
        pred = self.weights @ x + self.bias
        err = pred - y
        loss = float(np.mean(err**2))
        if not np.isfinite(loss):
            raise NumericError("non-finite training loss")
        scale = 2.0 / self.horizon
        self.weights -= lr * scale * np.outer(err, x)
        self.bias -= lr * scale * err
        return loss


class MlpForecaster(Forecaster):
    """One hidden tanh layer; seeded uniform init scaled by 1/sqrt(fan-in)."""

    def __init__(self, lookback: int, horizon: int, hidden: int = 32, seed: int = 0):
        self.lookback = int(lookback)
        self.horizon = int(horizon)
        self.hidden = int(hidden)
        rng = np.random.default_rng(seed)
        self.w1 = rng.uniform(-1.0, 1.0, (self.hidden, self.lookback)) / np.sqrt(self.lookback)
        self.b1 = np.zeros(self.hidden)
        self.w2 = rng.uniform(-1.0, 1.0, (self.horizon, self.hidden)) / np.sqrt(self.hidden)
        self.b2 = np.zeros(self.horizon)

    def parameters(self):
        return [self.w1, self.b1, self.w2, self.b2]

    def predict(self, window):
        x = self._check_window(window)
        h = np.tanh(self.w1 @ x + self.b1)
        return self.w2 @ h + self.b2

    def train_step(self, window, truth, lr):
        x, y = self._check_pair(window, truth)
        if lr < 0:
            raise ValidationError(f"lr must be >= 0, got {lr}")
        h = np.tanh(self.w1 @ x + self.b1)
        pred = self.w2 @ h + self.b2
        err = pred - y
        loss = float(np.mean(err**2))
        if not np.isfinite(loss):
            raise NumericError("non-finite training loss")
        d_pred = 2.0 * err / self.horizon
        d_w2 = np.outer(d_pred, h)
        d_b2 = d_pred
        d_h = self.w2.T @ d_pred
        d_pre = d_h * (1.0 - h**2)
        d_w1 = np.outer(d_pre, x)
        d_b1 = d_pre
        self.w1 -= lr * d_w1
        self.b1 -= lr * d_b1
        self.w2 -= lr * d_w2
        self.b2 -= lr * d_b2
        return loss


FORECASTER_KINDS = ("naive", "linear", "mlp")


def make_forecaster(
    kind: str, lookback: int, horizon: int, hidden: int = 32, seed: int = 0
) -> Forecaster:
    """Factory keyed by kind name; the seed only matters for the MLP."""
    if kind == "naive":
        return NaiveForecaster(lookback, horizon)
    if kind == "linear":
        return LinearForecaster(lookback, horizon)
    if kind == "mlp":
        return MlpForecaster(lookback, horizon, hidden=hidden, seed=seed)
    raise ValidationError(f"unknown forecaster kind {kind!r}, expected one of {FORECASTER_KINDS}")
