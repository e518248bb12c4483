"""End-to-end run orchestration: warm-up, online loop, metric accumulation.

A run splits the series 25:75 into a warm-up segment (stride-1 instance
pairs, conventional training of the single seed forecaster) and an
online segment whose instances advance by the full horizon, so no
ground-truth point is ever revealed before an earlier forecast of it
resolves. Each online step retrieves or splits a pool entry, forecasts,
scores, optionally trains (unless the ground truth itself signals a
shift, in which case the gradient is abandoned), and prunes the pool.
"""

from __future__ import annotations

import logging
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .data import warm_split_index
from .errors import NumericError, SizingError, ValidationError
from .forecasters import FORECASTER_KINDS, KINDS, make_forecaster, mse
from .gene import GeneVector, window_genes
from .gene import compute_gene  # unused: perfbench/child.py traces engine.compute_gene by name
from .pool import CepConfig, Pool, absorb_instance, lr_tick, should_evolve

log = logging.getLogger("driftpool.engine")


@dataclass(frozen=True)
class Instance:
    """Input window, its ground truth, the stream index of the window start,
    and both windows' signatures."""

    x: np.ndarray
    y: np.ndarray
    t: int
    z_x: GeneVector
    z_y: GeneVector


class InstanceSet(Sequence):
    """Instance pairs over one series, every window's signature computed once.

    Holds the window starts and the signature arrays rather than one object
    per instance; indexing builds the ``Instance``.
    """

    def __init__(self, series: np.ndarray, starts: np.ndarray, lookback: int,
                 horizon: int, scope: int):
        self.series, self.starts = series, starts
        self.lookback, self.horizon = lookback, horizon
        self.x_mu, self.x_sigma = window_genes(series, starts, lookback, scope)
        self.y_mu, self.y_sigma = window_genes(series, starts + lookback, horizon, scope)

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, i: int) -> Instance:
        t = int(self.starts[i])
        mid = t + self.lookback
        return Instance(
            x=self.series[t:mid],
            y=self.series[mid:mid + self.horizon],
            t=t,
            z_x=GeneVector(float(self.x_mu[i]), float(self.x_sigma[i])),
            z_y=GeneVector(float(self.y_mu[i]), float(self.y_sigma[i])),
        )


@dataclass(frozen=True)
class EngineConfig:
    """Everything a run needs besides the series itself."""

    lookback: int
    horizon: int
    cep: CepConfig = field(default_factory=CepConfig)
    forecaster: str = "linear"
    hidden: int = 32
    lr_raw: float | None = None
    warm_epochs: int = 5
    seed: int = 0

    def __post_init__(self):
        for name, low in (("lookback", 1), ("horizon", 1), ("hidden", 1), ("seed", 0),
                          ("warm_epochs", 0)):
            if getattr(self, name) < low:
                raise ValidationError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.forecaster not in FORECASTER_KINDS:
            raise ValidationError(
                f"forecaster must be one of {FORECASTER_KINDS}, got {self.forecaster!r}"
            )
        if self.lr_raw is not None and not 0 < self.lr_raw < float("inf"):
            raise ValidationError(f"lr_raw must be finite and > 0, got {self.lr_raw}")

    def resolved_lr(self) -> float:
        return self.lr_raw if self.lr_raw is not None else KINDS[self.forecaster].default_lr

    def scope(self) -> int:
        return self.cep.scope_s if self.cep.scope_s is not None else self.lookback


@dataclass(frozen=True)
class StepRecord:
    """What happened on one online instance."""

    t: int
    selected_entry_id: int
    mse: float
    evolved: bool
    evolved_from: int | None
    abandoned: bool
    eliminated_ids: tuple[int, ...]
    pool_size: int
    gene_mu: float
    gene_sigma: float
    forecast: tuple[float, ...] | None = None


@dataclass
class RunResult:
    """Per-instance records plus run-level aggregates."""

    records: list[StepRecord]
    mean_mse: float
    final_pool_size: int
    total_evolutions: int
    total_eliminations: int
    pool: Pool | None = field(default=None, compare=False, repr=False)


def make_instances(series: np.ndarray, start: int, stop: int, stride: int,
                   lookback: int, horizon: int, scope: int) -> InstanceSet:
    """Instance pairs with window starts in [start, stop) at the given stride.

    An instance is kept only if its ground truth fits inside the series;
    the ground truth begins exactly at t + lookback, never overlapping
    the input window. Signatures are taken over the last ``scope`` values.
    """
    limit = min(stop, len(series) - (lookback + horizon) + 1)
    return InstanceSet(series, np.arange(start, limit, stride), lookback, horizon, scope)


def split_instances(series: np.ndarray, config: EngineConfig
                    ) -> tuple[InstanceSet, InstanceSet]:
    """Warm (stride 1) and online (stride = horizon) instance sets for ``config``."""
    series = np.asarray(series, dtype=float)
    n = len(series)
    lookback, horizon, scope = config.lookback, config.horizon, config.scope()
    warm_len = warm_split_index(n)
    span = lookback + horizon
    if warm_len < span or (n - warm_len) < span:
        raise SizingError(
            f"series too short: {n} points; need at least {4 * span} "
            f"for lookback {lookback} and horizon {horizon}"
        )
    warm = make_instances(series, 0, warm_len - span + 1, 1, lookback, horizon, scope)
    online = make_instances(series, warm_len, n, horizon, lookback, horizon, scope)
    return warm, online


def warm_up(pool: Pool, warm_instances: InstanceSet, epochs: int) -> list[float]:
    """Train the seed forecaster at the pool's raw learning rate; absorb every window.

    Each training step counts toward the entry's prediction total, so it
    leaves the safety period before the online stage begins. Returns the
    per-step losses (handy for convergence checks); an empty warm set is
    a no-op.
    """
    if len(pool.entries) != 1:
        raise ValidationError(f"warm-up expects a single-entry pool, got {len(pool.entries)}")
    entry, lr_raw = pool.entries[0], pool.lr_raw
    series, lookback = warm_instances.series, warm_instances.lookback
    span = lookback + warm_instances.horizon
    steps = list(zip(warm_instances.starts.tolist(), warm_instances.x_mu.tolist(),
                     warm_instances.x_sigma.tolist()))
    losses: list[float] = []
    for _ in range(epochs):
        for t, mu, sigma in steps:
            x, y = series[t:t + lookback], series[t + lookback:t + span]
            losses.append(entry.forecaster.train_step(x, y, lr_raw))
            absorb_instance(entry, mu, sigma)
            pool.mark_selected(entry)
    return losses


def online_step(pool: Pool, instance: Instance, log_forecasts: bool = False) -> StepRecord:
    """One delayed-feedback step: retrieve or split, forecast, maybe train, prune.

    A trained step runs one forward pass: its recorded MSE is the loss
    ``train_step`` measures before the update. ``predict`` runs only on an
    abandoned step or when the forecast is logged.
    """
    cep = pool.config
    z_x = instance.z_x

    near = pool.nearest(z_x)
    evolved = should_evolve(near, z_x)
    if evolved:
        current, evicted = pool.evolve(near, z_x)
        log.debug("t=%d evolved entry %d from %d", instance.t, current.id, near.id)
    else:
        current, evicted = near, []

    abandoned = cep.gradient_abandonment and should_evolve(current, instance.z_y)
    if abandoned or log_forecasts:
        forecast = current.forecaster.predict(instance.x)
        if not np.isfinite(forecast).all():
            raise NumericError(f"non-finite forecast at t={instance.t}")
        err = mse(forecast, instance.y)
    if not abandoned:
        try:
            err = current.forecaster.train_step(instance.x, instance.y, current.lr_current)
        except NumericError as exc:
            raise NumericError(f"{exc} at t={instance.t}") from exc
        lr_tick(current, pool.lr_raw, cep)
        absorb_instance(current, z_x.mu, z_x.sigma)

    pool.mark_selected(current)
    removed = evicted + pool.eliminate_stale()
    if removed:
        log.debug("t=%d eliminated %s", instance.t, removed)

    return StepRecord(
        t=instance.t,
        selected_entry_id=current.id,
        mse=err,
        evolved=evolved,
        evolved_from=near.id if evolved else None,
        abandoned=abandoned,
        eliminated_ids=tuple(removed),
        pool_size=len(pool),
        gene_mu=current.mu,
        gene_sigma=current.sigma,
        forecast=tuple(float(v) for v in forecast) if log_forecasts else None,
    )


def run(series: np.ndarray, config: EngineConfig, log_forecasts: bool = False) -> RunResult:
    """Full pipeline over one series: split, warm up, stream every online instance."""
    warm, online = split_instances(series, config)
    forecaster = make_forecaster(config.forecaster, config.lookback, config.horizon,
                                 hidden=config.hidden, seed=config.seed)
    pool = Pool(forecaster, config.resolved_lr(), config.cep)
    warm_up(pool, warm, config.warm_epochs)
    log.info("warm-up done: %d instances x %d epochs", len(warm), config.warm_epochs)
    records = [online_step(pool, inst, log_forecasts) for inst in online]
    return RunResult(
        records=records,
        mean_mse=float(np.mean([r.mse for r in records])) if records else float("nan"),
        final_pool_size=len(pool),
        total_evolutions=sum(1 for r in records if r.evolved),
        total_eliminations=sum(len(r.eliminated_ids) for r in records),
        pool=pool,
    )
