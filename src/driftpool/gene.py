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
from typing import Sequence

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


def fresh_state(seed: GeneVector | None = None) -> GeneState:
    """New state seeded with one value (zeros when none is given)."""
    g = seed if seed is not None else GeneVector(0.0, 0.0)
    return GeneState(local=g, global_=g, n=1)


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


def ema_update(local: GeneVector, instance_gene: GeneVector, tau_l: float) -> GeneVector:
    """Blend a new window signature into the local one: tau_l toward the new."""
    if not 0.0 < tau_l <= 1.0:
        raise ValidationError(f"tau_l must be in (0, 1], got {tau_l}")
    return GeneVector(
        tau_l * instance_gene.mu + (1.0 - tau_l) * local.mu,
        tau_l * instance_gene.sigma + (1.0 - tau_l) * local.sigma,
    )


def global_update(
    global_: GeneVector, n: int, instance_gene: GeneVector
) -> tuple[GeneVector, int]:
    """Fold one more window mean into the exact running moments.

    Only the mean of the incoming signature enters; the global sigma is
    the population std of all absorbed means. Equivalent to recomputing
    both moments from scratch over the full history, without storing it.
    """
    if n < 1:
        raise ValidationError(f"absorbed-sample count must be >= 1, got {n}")
    mu_g, x = global_.mu, instance_gene.mu
    new_mu = (n * mu_g + x) / (n + 1)
    new_var = (n / (n + 1)) * global_.sigma**2 + (n / (n + 1) ** 2) * (mu_g - x) ** 2
    return GeneVector(new_mu, math.sqrt(new_var)), n + 1


def mix_gene(state: GeneState, tau_gene: float) -> GeneVector:
    """Convex combination of the two signatures, tau_gene weighting the local one."""
    if not 0.0 <= tau_gene <= 1.0:
        raise ValidationError(f"tau_gene must be in [0, 1], got {tau_gene}")
    l, g = state.local, state.global_
    return GeneVector(
        tau_gene * l.mu + (1.0 - tau_gene) * g.mu,
        tau_gene * l.sigma + (1.0 - tau_gene) * g.sigma,
    )


def gene_distance(a: GeneVector, b: GeneVector) -> float:
    """Euclidean distance between two signatures."""
    return math.hypot(a.mu - b.mu, a.sigma - b.sigma)


def mle_cost(candidate: GeneVector, sample: GeneVector) -> float:
    """Negative log-likelihood of the sample stats under the candidate's Gaussian.

    2*log(s) + (sample.sigma^2 + (sample.mu - candidate.mu)^2) / s^2 with
    s the floored candidate sigma. Lower is a better match.
    """
    s = max(candidate.sigma, SIGMA_FLOOR)
    if not s > 0.0:
        raise NumericError(f"candidate sigma not positive after flooring: {candidate.sigma}")
    return 2.0 * math.log(s) + (sample.sigma**2 + (sample.mu - candidate.mu) ** 2) / (s * s)
