"""Statistical window signatures: computation, streaming updates, likelihood scores.

A signature ("gene") is the (mean, population std) pair of a data window.
Every forecaster in the pool carries two of them: a local one tracking
recent windows by exponential moving average, and a global one holding
exact running moments of all window means it has absorbed. Retrieval,
shift detection, and the likelihood score all operate on these pairs.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NumericError, ValidationError

# Constant windows produce sigma == 0, which would make the shift test and
# the likelihood score divide by zero. Every sigma used as a divisor or
# threshold is floored at this value.
SIGMA_FLOOR = 1e-8

# Windows per block of the vectorized signature pass. Its temporaries hold
# at most this many tails (120 KB of 60-point tails), however long the
# series; 4096-window blocks raised a short run's peak RSS by ~9%.
GENE_CHUNK = 256


def compute_gene(window: Sequence[float] | np.ndarray, scope: int) -> tuple[float, float]:
    """Signature ``(mu, sigma)`` of the most recent ``scope`` values of ``window``.

    Uses the population std (divisor n); the streaming global update is
    derived from 1/n second moments and both sides must agree. Raises
    NumericError on a non-finite value or a signature that overflows.
    """
    if scope < 1:
        raise ValidationError(f"scope must be >= 1, got {scope}")
    arr = np.asarray(window, dtype=float)
    if arr.size == 0:
        raise ValidationError("empty window")
    if not np.isfinite(arr).all():
        raise NumericError("non-finite input")
    tail = arr[-scope:]
    mu, sigma = float(tail.mean()), float(tail.std())
    if not (math.isfinite(mu) and math.isfinite(sigma)):
        raise NumericError(f"non-finite window signature ({mu!r}, {sigma!r})")
    return mu, sigma


def reject_non_finite(series: np.ndarray, starts: np.ndarray, length: int,
                      offset: int = 0) -> None:
    """Raise NumericError naming the first s whose ``series[s + offset:s + offset + length]``
    holds a non-finite value."""
    bad = np.concatenate(([0], np.cumsum(~np.isfinite(series))))
    hit = bad[starts + offset + length] > bad[starts + offset]
    if hit.any():
        raise NumericError(f"non-finite input in the window at t={starts[hit.argmax()]}")


def window_genes(series: np.ndarray, starts: np.ndarray, length: int, scope: int,
                 offset: int = 0, stds: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """``compute_gene(series[s + offset:s + offset + length], scope)`` for every s in
    ``starts``, as arrays.

    Returns the means and the stds, or the means and None without ``stds``.
    The tails are gathered GENE_CHUNK at a time and reduced row-wise, which
    matches the 1-D reductions of compute_gene bit for bit. Like compute_gene,
    it raises NumericError on a window with a non-finite value anywhere in it
    or with a signature (of those computed) that overflows, naming the first
    such window's s: a step's ground truth, signed at ``offset=lookback``, is
    named by the step.
    """
    if scope < 1:
        raise ValidationError(f"scope must be >= 1, got {scope}")
    if length < 1:
        raise ValidationError("empty window")
    series = np.asarray(series, dtype=float)
    starts = np.asarray(starts, dtype=np.intp)
    mu, sigma = np.empty(len(starts)), np.empty(len(starts)) if stds else None
    if not len(starts):
        return mu, sigma
    reject_non_finite(series, starts, length, offset)
    tail = min(scope, length)
    tails = sliding_window_view(series, tail)
    first = starts + (offset + length - tail)
    for lo in range(0, len(starts), GENE_CHUNK):
        block = tails[first[lo:lo + GENE_CHUNK]]
        mu[lo:lo + GENE_CHUNK] = block.mean(axis=1)
        if stds:
            sigma[lo:lo + GENE_CHUNK] = block.std(axis=1)
    finite = np.isfinite(mu) if sigma is None else np.isfinite(mu) & np.isfinite(sigma)
    if not finite.all():
        raise NumericError(f"non-finite window signature at t={starts[finite.argmin()]}")
    return mu, sigma


def blend(w: float, a: float, b: float) -> float:
    """w * a + (1 - w) * b: one component of an EMA step or of the local/global mix."""
    return w * a + (1.0 - w) * b


def fold_moments(mu: float, sigma: float, n: int, x: float) -> tuple[float, float]:
    """Mean and population std of n values (mu, sigma) after one more value x.

    Raises NumericError when the moments overflow.
    """
    new_mu = (n * mu + x) / (n + 1)
    try:
        new_var = (n / (n + 1)) * sigma**2 + (n / (n + 1) ** 2) * (mu - x) ** 2
    except OverflowError:
        new_var = math.inf
    if not (math.isfinite(new_mu) and math.isfinite(new_var)):
        raise NumericError(f"global moments overflow absorbing a window mean of {x!r}")
    return new_mu, math.sqrt(new_var)


def nlls(mu: float, sigma: float, candidates: Iterable) -> list[float]:
    """Negative log-likelihood of the sample stats (mu, sigma) under each candidate.

    2*log(s) + (sigma^2 + (mu - c.mu)^2) / s^2 with s the candidate's
    floored sigma. Raises NumericError at the first score that is not finite.
    """
    costs = []
    for c in candidates:
        s = max(c.sigma, SIGMA_FLOOR)
        try:
            cost = 2.0 * math.log(s) + (sigma**2 + (mu - c.mu) ** 2) / (s * s)
        except OverflowError:
            cost = math.inf
        if not math.isfinite(cost):
            raise NumericError(f"non-finite likelihood score for ({mu!r}, {sigma!r})"
                               f" under ({c.mu!r}, {c.sigma!r})")
        costs.append(cost)
    return costs
