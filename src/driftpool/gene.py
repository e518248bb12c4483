"""Statistical window signatures: computation, streaming updates, distances.

A signature ("gene") is the (mean, population std) pair of a data window.
Every forecaster in the pool carries two of them: a local one tracking
recent windows by exponential moving average, and a global one holding
exact running moments of all window means it has absorbed. Retrieval,
shift detection, and the likelihood score all operate on these pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


@dataclass(frozen=True)
class GeneVector:
    """(mean, std) summary of a window, in the units of the series."""

    mu: float
    sigma: float


@dataclass(frozen=True)
class GeneState:
    """One forecaster's pair of signatures plus its absorbed-sample count.

    ``n`` counts the window means folded into the global moments,
    including the seed value the state was created with, so it is always
    at least 1.
    """

    local: GeneVector
    global_: GeneVector
    n: int


def compute_gene(window: Sequence[float] | np.ndarray, scope: int) -> GeneVector:
    """Signature of the most recent ``scope`` values of ``window``.

    Uses the population std (divisor n); the streaming global update is
    derived from 1/n second moments and both sides must agree.
    """
    if scope < 1:
        raise ValidationError(f"scope must be >= 1, got {scope}")
    arr = np.asarray(window, dtype=float)
    if arr.size == 0:
        raise ValidationError("empty window")
    if not np.isfinite(arr).all():
        raise NumericError("non-finite input")
    tail = arr[-scope:]
    return GeneVector(float(tail.mean()), float(tail.std()))


def window_genes(series: np.ndarray, starts: np.ndarray, length: int, scope: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """``compute_gene(series[s:s + length], scope)`` for every s in ``starts``, as arrays.

    Returns the means and the stds. The tails are gathered GENE_CHUNK at a
    time and reduced row-wise, which matches the 1-D reductions of
    compute_gene bit for bit. Like compute_gene, it rejects a window with a
    non-finite value anywhere in it and leaves its outputs unchecked.
    """
    if scope < 1:
        raise ValidationError(f"scope must be >= 1, got {scope}")
    if length < 1:
        raise ValidationError("empty window")
    series = np.asarray(series, dtype=float)
    starts = np.asarray(starts, dtype=np.intp)
    mu, sigma = np.empty(len(starts)), np.empty(len(starts))
    if not len(starts):
        return mu, sigma
    bad = np.concatenate(([0], np.cumsum(~np.isfinite(series))))
    hit = bad[starts + length] > bad[starts]
    if hit.any():
        raise NumericError(f"non-finite input in the window at t={starts[hit.argmax()]}")
    tail = min(scope, length)
    tails = sliding_window_view(series, tail)
    first = starts + (length - tail)
    for lo in range(0, len(starts), GENE_CHUNK):
        block = tails[first[lo:lo + GENE_CHUNK]]
        mu[lo:lo + GENE_CHUNK] = block.mean(axis=1)
        sigma[lo:lo + GENE_CHUNK] = block.std(axis=1)
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


def distances(mu: float, sigma: float, candidates: Iterable) -> list[float]:
    """Euclidean distance from (mu, sigma) to each candidate's (mu, sigma).

    A candidate is anything with ``mu`` and ``sigma``: a GeneVector, or a
    pool entry's cached mixed signature.
    """
    return [math.hypot(mu - c.mu, sigma - c.sigma) for c in candidates]


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
