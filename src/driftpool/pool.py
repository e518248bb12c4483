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
from .gene import (
    SIGMA_FLOOR,
    GeneState,
    GeneVector,
    ema_update,
    fresh_state,
    gene_distance,
    global_update,
    mix_gene,
    mle_cost,
)

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


@dataclass
class PoolEntry:
    """One forecaster plus its signatures, counters, and LR state."""

    forecaster: Forecaster
    genes: GeneState
    id: int
    n_pred: int = 0
    n_wait: int = 0
    lr_current: float = 0.0


def effective_gene(state: GeneState, config: CepConfig) -> GeneVector:
    """Mixed signature honoring the ablation switches (a lone part gets weight 1)."""
    if config.use_local_gene and config.use_global_gene:
        return mix_gene(state, config.tau_gene)
    if config.use_local_gene:
        return state.local
    return state.global_


def retrieval_cost(entry: PoolEntry, sample_gene: GeneVector, config: CepConfig) -> float:
    g = effective_gene(entry.genes, config)
    if config.retrieval_score == "mle":
        return mle_cost(g, sample_gene)
    return gene_distance(sample_gene, g)


def should_evolve(entry: PoolEntry, sample_gene: GeneVector, config: CepConfig) -> bool:
    """Mean-shift test gated by the evolution switch and the safety period."""
    if not config.evolution:
        return False
    if entry.n_pred < config.tau_safe:
        return False
    g = effective_gene(entry.genes, config)
    return abs(sample_gene.mu - g.mu) > config.tau_mu * max(g.sigma, SIGMA_FLOOR)


def lr_tick(entry: PoolEntry, lr_raw: float, config: CepConfig) -> float:
    """Grow the entry's LR one notch back toward lr_raw, never past it."""
    factor = config.tau_lr ** (-1.0 / config.t_lr)
    entry.lr_current = min(lr_raw, factor * entry.lr_current)
    return entry.lr_current


def absorb_instance(entry: PoolEntry, instance_gene: GeneVector, config: CepConfig) -> None:
    """Fold one input-window signature into both of the entry's genes."""
    state = entry.genes
    new_local = ema_update(state.local, instance_gene, config.tau_l)
    new_global, new_n = global_update(state.global_, state.n, instance_gene)
    entry.genes = GeneState(local=new_local, global_=new_global, n=new_n)


class Pool:
    """Ordered collection of entries; ids increase in list order, oldest first."""

    def __init__(self, first: Forecaster, lr_raw: float, config: CepConfig):
        if not 0 < lr_raw < float("inf"):
            raise ValidationError(f"lr_raw must be finite and > 0, got {lr_raw}")
        self.lr_raw = float(lr_raw)
        self.config = config
        self._next_id = 0
        self.last_selected_id: int | None = None
        self.entries: list[PoolEntry] = []
        self._append(first, fresh_state(), lr_current=self.lr_raw)

    def _append(self, forecaster: Forecaster, genes: GeneState,
                lr_current: float) -> PoolEntry:
        entry = PoolEntry(
            forecaster=forecaster, genes=genes, id=self._next_id, lr_current=lr_current,
        )
        self._next_id += 1
        self.entries.append(entry)
        return entry

    def __len__(self) -> int:
        return len(self.entries)

    def nearest(self, sample_gene: GeneVector) -> PoolEntry:
        """Entry with minimal retrieval cost; ties go to the smallest id."""
        if not self.entries:
            raise ValidationError("pool is empty")
        best = self.entries[0]
        best_cost = retrieval_cost(best, sample_gene, self.config)
        for entry in self.entries[1:]:
            cost = retrieval_cost(entry, sample_gene, self.config)
            if cost < best_cost:
                best, best_cost = entry, cost
        return best

    def evolve(self, parent: PoolEntry, sample_gene: GeneVector) -> tuple[PoolEntry, list[int]]:
        """Split the parent: clone its forecaster, seed genes from the sample.

        With optimizer adjustment on, the child starts at tau_lr * lr_raw
        and warms back over t_lr training steps. A configured size cap
        evicts the oldest entry, the list's first (FIFO). Returns the child
        and the ids evicted.
        """
        cfg = self.config
        lr0 = cfg.tau_lr * self.lr_raw if cfg.optimizer_adjustment else self.lr_raw
        child = self._append(parent.forecaster.deep_clone(), fresh_state(sample_gene), lr0)
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
        self.last_selected_id = selected.id

    def eliminate_stale(self) -> list[int]:
        """Drop entries idle beyond tau_e times their prediction count.

        The most recently selected entry is always kept, which also
        guarantees the pool never empties.
        """
        cfg = self.config
        if not cfg.elimination:
            return []
        removed = [e.id for e in self.entries
                   if e.n_wait > cfg.tau_e * e.n_pred and e.id != self.last_selected_id]
        if len(removed) == len(self.entries):  # no selection yet: keep the newest entry
            removed.pop()
        if removed:
            self.entries = [e for e in self.entries if e.id not in removed]
        return removed
