"""Forecaster pool lifecycle: retrieval, splitting, elimination, LR warming.

The pool keeps its entries in creation order, each owning one forecaster
and its gene state. Under the euclidean score it also keeps them sorted by
their mixed signature's mean, so retrieval scores only the entries near a
window's mean; an entry moves in that order whenever its mean changes. Entries
are created by splitting the nearest existing forecaster when a window's
mean deviates beyond the configured multiple of the matched gene's sigma,
and removed when their idle count outgrows their prediction count. Only
the code here writes an entry's signatures, its cached mixed signature and
the index, driven by the engine's sequential warm-up and online loops.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

from .errors import NumericError, ValidationError, check_fields, check_value, within
from .forecasters import Forecaster
from .gene import SIGMA_FLOOR, blend, fold_moments, nlls

RETRIEVAL_SCORES = ("euclidean", "mle")


@dataclass(frozen=True)
class CepConfig:
    """Thresholds, ablation switches, and windowing knobs for one run.

    tau_mu      splitting threshold in sigmas on the window mean
    tau_gene    local weight in the mixed gene
    tau_l       EMA rate of the local gene
    tau_safe    predictions an entry must make before it may split
    tau_e       idle/prediction ratio beyond which an entry is removed
    tau_lr      initial LR multiplier for a fresh split
    t_lr        training steps over which the LR is restored
    scope_s     how many trailing window values feed the signature
                (None means the full window)
    """

    tau_mu: float = within("(0, inf)", 3.0)
    tau_gene: float = within("[0, 1]", 0.8)
    tau_l: float = within("(0, 1]", 0.2)
    tau_safe: int = within("[0, inf)", 15)
    tau_e: float = within("(0, inf)", 1.5)
    tau_lr: float = within("(0, 1]", 0.5)
    t_lr: int = within("[1, inf)", 15)
    scope_s: int | None = within("[1, inf)", None)
    retrieval_score: str = within(RETRIEVAL_SCORES, "euclidean")
    evolution: bool = True
    elimination: bool = True
    gradient_abandonment: bool = True
    optimizer_adjustment: bool = True
    use_local_gene: bool = True
    use_global_gene: bool = True
    max_pool_size: int | None = within("[1, inf)", None)

    def __post_init__(self):
        check_fields(self)
        if not (self.use_local_gene or self.use_global_gene):
            raise ValidationError("at least one of use_local_gene/use_global_gene must be on")


class PoolEntry:
    """One forecaster plus its signatures, counters, and LR state.

    The signatures are plain floats: ``local_mu``/``local_sigma``,
    ``global_mu``/``global_sigma`` and the absorbed-sample count ``n``,
    seeded with one window's ``(mu, sigma)`` at ``n == 1``. ``mu``/``sigma``
    cache the effective (mixed) signature under ``config`` that retrieval
    scores. After the seed only ``absorb_instance`` writes the signatures, and
    ``_refresh`` recomputes the cache each time. ``last_served`` is the value of
    the pool's serve clock (``Pool.served``) when the entry last served a
    step, or when it was created; its idle count is ``Pool.served - last_served``.
    ``index`` is the ``Pool.index`` of the pool that holds the entry under
    the euclidean score, else None, and ``forecaster`` is None once removed.
    """

    __slots__ = ("forecaster", "id", "config", "n_pred", "last_served", "lr_current",
                 "local_mu", "local_sigma", "global_mu", "global_sigma", "n", "mu", "sigma",
                 "index")

    def __init__(self, forecaster: Forecaster, id: int, config: CepConfig,
                 mu: float, sigma: float, lr_current: float):
        self.forecaster, self.id, self.config = forecaster, id, config
        self.n_pred, self.last_served, self.lr_current = 0, 0, lr_current
        self.local_mu = self.global_mu = mu
        self.local_sigma = self.global_sigma = sigma
        self.n = 1
        self.index = None
        self._refresh()

    def _refresh(self) -> None:
        """Recompute the cached effective signature under the ablation switches.

        The only writer of ``mu``: it moves the entry to its new mean in
        ``index``, rewriting the mean in place when the order holds.
        """
        config = self.config
        if config.use_local_gene and config.use_global_gene:
            w = config.tau_gene
            mu = blend(w, self.local_mu, self.global_mu)
            self.sigma = blend(w, self.local_sigma, self.global_sigma)
        elif config.use_local_gene:
            mu, self.sigma = self.local_mu, self.local_sigma
        else:
            mu, self.sigma = self.global_mu, self.global_sigma
        index = self.index
        if index is not None:
            means, ranked = index
            k = _rank(means, ranked, self)
            if (k and mu < means[k - 1]) or (k + 1 < len(means) and means[k + 1] < mu):
                del means[k], ranked[k]
                _insert(means, ranked, mu, self)
            else:
                means[k] = mu
        self.mu = mu


def _insert(means: list[float], ranked: list[PoolEntry], mu: float, entry: PoolEntry) -> None:
    """Put ``entry`` into a pool's index at the mean ``mu``."""
    k = bisect_left(means, mu)
    means.insert(k, mu)
    ranked.insert(k, entry)


def _rank(means: list[float], ranked: list[PoolEntry], entry: PoolEntry) -> int:
    """Position of ``entry`` in a pool's index, looked up among the entries of its mean."""
    k = bisect_left(means, entry.mu)
    while ranked[k] is not entry:
        k += 1
    return k


def should_evolve(entry: PoolEntry, mu: float) -> bool:
    """Mean-shift test on a window mean, gated by the evolution switch and the safety period."""
    config = entry.config
    if not config.evolution:
        return False
    if entry.n_pred < config.tau_safe:
        return False
    return abs(mu - entry.mu) > config.tau_mu * max(entry.sigma, SIGMA_FLOOR)


def lr_tick(entry: PoolEntry, lr_raw: float) -> float:
    """Grow the entry's LR one notch back toward lr_raw, never past it."""
    factor = entry.config.tau_lr ** (-1 / entry.config.t_lr)  # int / int: no overflow at any t_lr
    entry.lr_current = min(lr_raw, factor * entry.lr_current)
    return entry.lr_current


def absorb_instance(entry: PoolEntry, mu: float, sigma: float) -> None:
    """Fold one input-window signature (mu, sigma) into both of the entry's genes.

    The local gene takes an EMA step at the entry's ``tau_l``, and the
    window mean is folded into the exact global moments (``fold_moments``);
    on a NumericError the entry is left unchanged.
    """
    tau_l = entry.config.tau_l
    entry.global_mu, entry.global_sigma = fold_moments(
        entry.global_mu, entry.global_sigma, entry.n, mu)
    entry.n += 1
    entry.local_mu = blend(tau_l, mu, entry.local_mu)
    entry.local_sigma = blend(tau_l, sigma, entry.local_sigma)
    entry._refresh()


class Pool:
    """Ordered collection of entries; ids increase in list order, oldest first.

    ``served`` counts the steps ``mark_selected`` has marked; an entry's idle
    count, ``served - entry.last_served``, is the steps marked since it last
    served one. Under the euclidean score, ``index`` is a pair of lists,
    ``(means, ranked)``, for ``nearest`` to search: the cached ``mu`` of
    every live entry, sorted (equal means in any order), and the entries in
    the same order. ``evolve`` and the removals add and drop entries, and
    ``PoolEntry._refresh`` moves them. Under ``mle`` it is None. ``_spares``
    holds the forecasters of removed entries, for ``evolve`` to reuse.
    """

    def __init__(self, first: Forecaster, lr_raw: float, config: CepConfig):
        check_value("lr_raw", lr_raw, float, domain="(0, inf)")
        self.lr_raw = float(lr_raw)
        self.config = config
        self.entries = []
        self.index = ([], []) if config.retrieval_score == "euclidean" else None
        self._next_id = 0
        self.served = 0
        self._spares = []
        self._add(first, 0.0, 0.0, self.lr_raw)

    def __len__(self) -> int:
        return len(self.entries)

    def nearest(self, mu: float, sigma: float) -> PoolEntry:
        """Entry with minimal retrieval cost for (mu, sigma); ties go to the smallest id.

        Scores each entry's cached mixed signature. Under ``mle`` every entry
        is scored (``nlls``), and the first minimal cost wins, the oldest
        entry. Under the euclidean score the index is searched outward from
        ``mu``, nearest mean first, each candidate scored by its Euclidean
        distance ``hypot(mu - m, sigma - s)``. The search stops once the next
        mean is farther than the best cost: ``hypot(a, b) >= |a|`` holds in
        floats too (``math.hypot`` errs by under 1 ulp), so no entry left
        unscored can reach the best cost, and the result is the full scan's.
        """
        if self.index is None:
            entries = self.entries
            costs = nlls(mu, sigma, entries)
            return entries[costs.index(min(costs))]
        means, ranked = self.index
        hypot = math.hypot
        hi = bisect_left(means, mu)
        lo, n = hi - 1, len(means)
        best = best_id = math.inf
        while lo >= 0 or hi < n:
            if hi == n or (lo >= 0 and mu - means[lo] <= means[hi] - mu):
                k, lo = lo, lo - 1
            else:
                k, hi = hi, hi + 1
            d = mu - means[k]
            if abs(d) > best:
                break
            entry = ranked[k]
            cost = hypot(d, sigma - entry.sigma)
            if cost < best or (cost == best and entry.id < best_id):
                best, best_id, found = cost, entry.id, entry
        if best_id == math.inf:  # every cost was NaN
            raise NumericError(f"non-finite window signature ({mu!r}, {sigma!r})")
        return found

    def _add(self, forecaster: Forecaster, mu: float, sigma: float, lr: float) -> PoolEntry:
        """Append a new entry with the next id, and index it."""
        entry = PoolEntry(forecaster, self._next_id, self.config, mu, sigma, lr)
        entry.last_served = self.served
        self._next_id += 1
        self.entries.append(entry)
        if self.index is not None:
            entry.index = self.index
            _insert(*self.index, entry.mu, entry)
        return entry

    def _retire(self, removed: list[PoolEntry]) -> None:
        """Unindex entries that left ``entries``, and move their forecasters to the spares."""
        for entry in removed:
            if entry.index is not None:
                means, ranked = entry.index
                k = _rank(means, ranked, entry)
                del means[k], ranked[k]
                entry.index = None
            self._spares.append(entry.forecaster)
            entry.forecaster = None

    def evolve(self, parent: PoolEntry, mu: float, sigma: float
               ) -> tuple[PoolEntry, list[int]]:
        """Split the parent: clone its forecaster, seed both genes with (mu, sigma).

        The clone reuses a spare, a removed entry's forecaster, if there is one.
        With optimizer adjustment on, the child starts at tau_lr * lr_raw and
        warms back over t_lr training steps. A configured size cap evicts the
        oldest entry, the list's first (FIFO). Returns the child and the ids evicted.
        """
        cfg = self.config
        lr0 = cfg.tau_lr * self.lr_raw if cfg.optimizer_adjustment else self.lr_raw
        spare = self._spares.pop() if self._spares else None
        child = self._add(parent.forecaster.deep_clone(spare), mu, sigma, lr0)
        if cfg.max_pool_size is not None and len(self.entries) > cfg.max_pool_size:
            oldest = self.entries.pop(0)
            self._retire([oldest])
            return child, [oldest.id]
        return child, []

    def mark_selected(self, selected: PoolEntry) -> None:
        """Count a step the entry served: one more prediction, and the serve clock
        ticks, so every other entry idles one step longer."""
        self.served += 1
        selected.n_pred += 1
        selected.last_served = self.served

    def eliminate_stale(self) -> list[int]:
        """Retire entries idle beyond tau_e times their prediction count (``_retire``).

        The most recently selected entry always survives, and so the pool
        never empties: ``mark_selected`` leaves it idle for 0 steps, a split's
        child also starts at 0, and only ``mark_selected`` advances the serve
        clock. Since ``tau_e > 0``, an entry idle for 0 steps is never stale.
        """
        if not self.config.elimination:
            return []
        served, tau_e = self.served, self.config.tau_e
        stale = [e for e in self.entries if served - e.last_served > tau_e * e.n_pred]
        if not stale:
            return []
        self._retire(stale)
        self.entries = [e for e in self.entries if e not in stale]
        return [e.id for e in stale]
