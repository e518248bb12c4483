"""Forecaster pool lifecycle: retrieval, splitting, elimination, LR warming.

The pool is a plain ordered list of entries, each owning one forecaster
and its gene state. Entries are created by splitting the nearest
existing forecaster when a window's mean deviates beyond the configured
multiple of the matched gene's sigma, and removed when their idle count
outgrows their prediction count. All mutation happens through the
methods here, driven by one sequential engine loop.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .forecasters import Forecaster
from .gene import SIGMA_FLOOR, GeneState, GeneVector, blend, distances, fold_moments, nlls

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

    tau_mu: float = 3.0
    tau_gene: float = 0.8
    tau_l: float = 0.2
    tau_safe: int = 15
    tau_e: float = 1.5
    tau_lr: float = 0.5
    t_lr: int = 15
    scope_s: int | None = None
    retrieval_score: str = "euclidean"
    evolution: bool = True
    elimination: bool = True
    gradient_abandonment: bool = True
    optimizer_adjustment: bool = True
    use_local_gene: bool = True
    use_global_gene: bool = True
    max_pool_size: int | None = None

    def __post_init__(self):
        if not self.tau_mu > 0:
            raise ValidationError(f"tau_mu must be > 0, got {self.tau_mu}")
        if not 0.0 <= self.tau_gene <= 1.0:
            raise ValidationError(f"tau_gene must be in [0, 1], got {self.tau_gene}")
        if not 0.0 < self.tau_l <= 1.0:
            raise ValidationError(f"tau_l must be in (0, 1], got {self.tau_l}")
        if not self.tau_e > 0:
            raise ValidationError(f"tau_e must be > 0, got {self.tau_e}")
        if not 0.0 < self.tau_lr <= 1.0:
            raise ValidationError(f"tau_lr must be in (0, 1], got {self.tau_lr}")
        if self.retrieval_score not in RETRIEVAL_SCORES:
            raise ValidationError(
                f"retrieval_score must be one of {RETRIEVAL_SCORES}, got {self.retrieval_score!r}"
            )
        if not (self.use_local_gene or self.use_global_gene):
            raise ValidationError("at least one of use_local_gene/use_global_gene must be on")
        for name, low in (("tau_safe", 0), ("t_lr", 1), ("scope_s", 1), ("max_pool_size", 1)):
            value = getattr(self, name)
            if value is not None and value < low:  # None leaves scope_s or max_pool_size unset
                raise ValidationError(f"{name} must be >= {low}, got {value}")


def _effective(config: CepConfig, local_mu: float, local_sigma: float,
               global_mu: float, global_sigma: float) -> tuple[float, float]:
    """Effective (mu, sigma) from the two signatures under the ablation switches."""
    if config.use_local_gene and config.use_global_gene:
        w = config.tau_gene
        return blend(w, local_mu, global_mu), blend(w, local_sigma, global_sigma)
    if config.use_local_gene:
        return local_mu, local_sigma
    return global_mu, global_sigma


class PoolEntry:
    """One forecaster plus its signatures, counters, and LR state.

    The signatures are plain floats: ``local_mu``/``local_sigma``,
    ``global_mu``/``global_sigma`` and the absorbed-sample count ``n``.
    ``mu``/``sigma`` cache the effective (mixed) signature under
    ``config``, which retrieval scores; every write of the signatures
    goes through ``absorb_instance`` or the ``genes`` setter, which
    refresh it.
    """

    __slots__ = ("forecaster", "id", "config", "n_pred", "n_wait", "lr_current",
                 "local_mu", "local_sigma", "global_mu", "global_sigma", "n",
                 "mu", "sigma")

    def __init__(self, forecaster: Forecaster, genes: GeneState, id: int, config: CepConfig,
                 n_pred: int = 0, n_wait: int = 0, lr_current: float = 0.0):
        self.forecaster, self.id, self.config = forecaster, id, config
        self.n_pred, self.n_wait, self.lr_current = n_pred, n_wait, lr_current
        self.genes = genes

    @property
    def genes(self) -> GeneState:
        """A snapshot of the signatures; assigning one replaces them."""
        return GeneState(GeneVector(self.local_mu, self.local_sigma),
                         GeneVector(self.global_mu, self.global_sigma), self.n)

    @genes.setter
    def genes(self, state: GeneState) -> None:
        if state.n < 1:
            raise ValidationError(f"absorbed-sample count must be >= 1, got {state.n}")
        self.local_mu, self.local_sigma = state.local.mu, state.local.sigma
        self.global_mu, self.global_sigma = state.global_.mu, state.global_.sigma
        self.n = state.n
        self._refresh()

    def _refresh(self) -> None:
        self.mu, self.sigma = _effective(
            self.config, self.local_mu, self.local_sigma, self.global_mu, self.global_sigma)


def should_evolve(entry: PoolEntry, mu: float) -> bool:
    """Mean-shift test on a window mean, gated by the evolution switch and the safety period."""
    config = entry.config
    if not config.evolution:
        return False
    if entry.n_pred < config.tau_safe:
        return False
    return abs(mu - entry.mu) > config.tau_mu * max(entry.sigma, SIGMA_FLOOR)


def lr_tick(entry: PoolEntry, lr_raw: float, config: CepConfig) -> float:
    """Grow the entry's LR one notch back toward lr_raw, never past it."""
    factor = config.tau_lr ** (-1.0 / config.t_lr)
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
    """Ordered collection of entries; ids increase in list order, oldest first."""

    def __init__(self, first: Forecaster, lr_raw: float, config: CepConfig):
        if not 0 < lr_raw < float("inf"):
            raise ValidationError(f"lr_raw must be finite and > 0, got {lr_raw}")
        self.lr_raw = float(lr_raw)
        self.config = config
        self._next_id = 0
        self.entries: list[PoolEntry] = []
        self._append(first, 0.0, 0.0, lr_current=self.lr_raw)

    def _append(self, forecaster: Forecaster, mu: float, sigma: float,
                lr_current: float) -> PoolEntry:
        g = GeneVector(mu, sigma)
        entry = PoolEntry(forecaster, GeneState(g, g, 1), self._next_id, self.config,
                          lr_current=lr_current)
        self._next_id += 1
        self.entries.append(entry)
        return entry

    def __len__(self) -> int:
        return len(self.entries)

    def nearest(self, mu: float, sigma: float) -> PoolEntry:
        """Entry with minimal retrieval cost for (mu, sigma); ties go to the smallest id.

        Scores each entry's cached mixed signature; ``min`` keeps the first
        minimal cost and ``index`` finds its first position, the oldest entry.
        """
        entries = self.entries
        if not entries:
            raise ValidationError("pool is empty")
        score = nlls if self.config.retrieval_score == "mle" else distances
        costs = score(mu, sigma, entries)
        return entries[costs.index(min(costs))]

    def evolve(self, parent: PoolEntry, mu: float, sigma: float
               ) -> tuple[PoolEntry, list[int]]:
        """Split the parent: clone its forecaster, seed both genes with (mu, sigma).

        With optimizer adjustment on, the child starts at tau_lr * lr_raw
        and warms back over t_lr training steps. A configured size cap
        evicts the oldest entry, the list's first (FIFO). Returns the child
        and the ids evicted.
        """
        cfg = self.config
        lr0 = cfg.tau_lr * self.lr_raw if cfg.optimizer_adjustment else self.lr_raw
        child = self._append(parent.forecaster.deep_clone(), mu, sigma, lr0)
        if cfg.max_pool_size is not None and len(self.entries) > cfg.max_pool_size:
            return child, [self.entries.pop(0).id]
        return child, []

    def mark_selected(self, selected: PoolEntry) -> None:
        """Update prediction/idle counters after the entry served an instance."""
        for entry in self.entries:
            if entry is selected:
                entry.n_pred += 1
                entry.n_wait = 0
            else:
                entry.n_wait += 1

    def eliminate_stale(self) -> list[int]:
        """Drop entries idle beyond tau_e times their prediction count.

        The most recently selected entry always survives, and so the pool
        never empties: ``mark_selected`` leaves it at ``n_wait == 0``, a
        split's child also starts at 0, and only ``mark_selected`` raises
        ``n_wait``. Since ``tau_e > 0``, an entry at 0 is never stale.
        """
        if not self.config.elimination:
            return []
        tau_e = self.config.tau_e
        removed = [e.id for e in self.entries if e.n_wait > tau_e * e.n_pred]
        if removed:
            self.entries = [e for e in self.entries if e.id not in removed]
        return removed
