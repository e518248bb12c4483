"""End-to-end run orchestration: warm-up, online loop, metric accumulation.

A run splits the series 25:75 into a warm-up segment (stride-1 instance
pairs, conventional training of the single seed forecaster) and an
online segment whose instances advance by the full horizon, so no
ground-truth point is ever revealed before an earlier forecast of it
resolves. Each online step retrieves or splits a pool entry, forecasts,
scores, optionally trains (unless the ground truth itself signals a
shift, in which case the gradient is abandoned), and prunes the pool;
it appends what happened to a columnar ``StepLog``. ``run`` returns that
log and its mean MSE, and every other total of a run is read off the log.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .data import warm_split_index
from .errors import NumericError, ValidationError, check_fields, within
from .forecasters import FORECASTER_KINDS, KINDS, make_forecaster, mse
from .gene import blend, fold_moments, reject_non_finite, window_genes
from .gene import compute_gene  # unused: perfbench/child.py traces engine.compute_gene by name
from .pool import CepConfig, Pool, absorb_instance, lr_tick, should_evolve

logger = logging.getLogger("driftpool.engine")


class InstanceSet:
    """Input/ground-truth window pairs over one series, every signature computed once.

    ``split_instances`` builds a run's two sets. The window starts and the input
    windows' ``x_mu``/``x_sigma`` are lists of Python floats, converted once, so
    a step does no numpy indexing. ``y_mu`` holds the ground-truth windows'
    means if signed, else None; either way each truth window is scanned once, a
    window holding a non-finite value raises NumericError, and a ground-truth
    window's error names its step ``t``, not its own start.
    """

    def __init__(self, series: np.ndarray, starts: np.ndarray, lookback: int,
                 horizon: int, scope: int, sign_truth: bool = False):
        self.series, self.lookback, self.horizon = series, lookback, horizon
        self.starts = starts.tolist()
        self.x_mu, self.x_sigma = (a.tolist() for a in window_genes(series, starts, lookback, scope))
        if sign_truth:
            self.y_mu = window_genes(series, starts, horizon, scope, lookback)[0].tolist()
        else:
            reject_non_finite(series, starts, horizon, lookback)
            self.y_mu = None

    def __len__(self) -> int:
        return len(self.starts)


@dataclass(frozen=True)
class EngineConfig:
    """Everything a run needs besides the series itself."""

    lookback: int = within("[1, inf)")
    horizon: int = within("[1, inf)")
    cep: CepConfig = field(default_factory=CepConfig)
    forecaster: str = within(FORECASTER_KINDS, "linear")
    hidden: int = within("[1, inf)", 32)
    lr_raw: float | None = within("(0, inf)", None)
    warm_epochs: int = within("[0, inf)", 5)
    seed: int = within("[0, inf)", 0)

    def __post_init__(self):
        check_fields(self)

    def resolved_lr(self) -> float:
        return self.lr_raw if self.lr_raw is not None else KINDS[self.forecaster].default_lr

    def scope(self) -> int:
        return self.cep.scope_s if self.cep.scope_s is not None else self.lookback


@dataclass
class StepLog:
    """The online steps as columns, one value per step in each list.

    ``online_step`` appends to every column, so a step builds no object of its
    own. A step split iff its ``evolved_from`` (the parent's id) is not None.
    """

    t: list[int] = field(default_factory=list)
    selected_entry_id: list[int] = field(default_factory=list)
    mse: list[float] = field(default_factory=list)
    evolved_from: list[int | None] = field(default_factory=list)
    abandoned: list[bool] = field(default_factory=list)
    eliminated_ids: list[tuple[int, ...]] = field(default_factory=list)
    pool_size: list[int] = field(default_factory=list)
    gene_mu: list[float] = field(default_factory=list)
    gene_sigma: list[float] = field(default_factory=list)
    forecast: list[tuple[float, ...] | None] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.t)


@dataclass
class RunResult:
    """The online stage's step log and its mean MSE; every other total is read off the log."""

    log: StepLog
    mean_mse: float


def split_instances(series: np.ndarray, config: EngineConfig
                    ) -> tuple[InstanceSet, InstanceSet]:
    """Warm (stride 1) and online (stride = horizon) instance sets for ``config``.

    An instance is kept only if its ground truth fits: in the warm segment for
    the warm set, in the series for the online set. The ground truth begins
    exactly at t + lookback, never overlapping the input window.
    """
    series = np.asarray(series, dtype=float)
    n = len(series)
    lookback, horizon, scope = config.lookback, config.horizon, config.scope()
    warm_len = warm_split_index(n)
    span = lookback + horizon
    if warm_len < span or (n - warm_len) < span:
        raise ValidationError(
            f"series too short: {n} points; need at least {4 * span} "
            f"for lookback {lookback} and horizon {horizon}"
        )
    warm = InstanceSet(series, np.arange(warm_len - span + 1), lookback, horizon, scope)
    online = InstanceSet(series, np.arange(warm_len, n - span + 1, horizon), lookback, horizon,
                         scope, sign_truth=True)
    return warm, online


def warm_up(pool: Pool, warm_instances: InstanceSet, epochs: int) -> list[float]:
    """Train the seed forecaster at the pool's raw learning rate; absorb every window.

    Each warm step trains, then folds its window's signature into the seed
    entry (``absorb_instance``'s arithmetic, on local floats written back
    once) and counts toward its prediction total, so the entry leaves the
    safety period before the online stage begins. Either failure names its
    step and epoch, and leaves the signatures and counts as they were.
    Returns the per-step losses; an empty warm set is a no-op.
    """
    if len(pool.entries) != 1:
        raise ValidationError(f"warm-up expects a single-entry pool, got {len(pool.entries)}")
    entry, lr_raw = pool.entries[0], pool.lr_raw
    series, lookback = warm_instances.series, warm_instances.lookback
    span = lookback + warm_instances.horizon
    train_step = entry.forecaster.train_step

    tau_l, n = entry.config.tau_l, entry.n
    g_mu, g_sigma, l_mu, l_sigma = (entry.global_mu, entry.global_sigma,
                                    entry.local_mu, entry.local_sigma)
    losses: list[float] = []
    for epoch in range(1, epochs + 1):
        for t, mu, sigma in zip(warm_instances.starts, warm_instances.x_mu,
                                warm_instances.x_sigma):
            try:
                losses.append(train_step(series[t:t + lookback], series[t + lookback:t + span],
                                         lr_raw))
                g_mu, g_sigma = fold_moments(g_mu, g_sigma, n, mu)
            except NumericError as exc:
                raise NumericError(f"{exc} at t={t} in warm-up epoch {epoch}") from exc
            n += 1
            l_mu = blend(tau_l, mu, l_mu)
            l_sigma = blend(tau_l, sigma, l_sigma)

    entry.n_pred += n - entry.n  # a lone entry never idles: the serve clock need not move
    entry.global_mu, entry.global_sigma, entry.local_mu, entry.local_sigma, entry.n = (
        g_mu, g_sigma, l_mu, l_sigma, n)
    entry._refresh()
    return losses


def online_step(pool: Pool, online: InstanceSet, i: int, log: StepLog,
                log_forecasts: bool = False) -> None:
    """Delayed-feedback step ``i``: retrieve or split, forecast, maybe train, prune.

    Appends the step to ``log``. A trained step runs one forward pass: its
    recorded MSE is the loss ``train_step`` measures before the update.
    ``predict`` runs only on an abandoned step or when the forecast is logged.
    Every NumericError of the step, retrieval included, is re-raised ending ``at t=<t>``.
    """
    cep = pool.config
    t, mu, sigma = online.starts[i], online.x_mu[i], online.x_sigma[i]
    mid = t + online.lookback
    x, y = online.series[t:mid], online.series[mid:mid + online.horizon]

    try:
        near = pool.nearest(mu, sigma)
        evolved = should_evolve(near, mu)
        if evolved:
            current, evicted = pool.evolve(near, mu, sigma)
            logger.debug("t=%d evolved entry %d from %d", t, current.id, near.id)
        else:
            current, evicted = near, []
        abandoned = cep.gradient_abandonment and should_evolve(current, online.y_mu[i])
        if abandoned or log_forecasts:
            forecast = current.forecaster.predict(x)
            if not np.isfinite(forecast).all():
                raise NumericError("non-finite forecast")
            err = mse(forecast, y)
        if not abandoned:
            err = current.forecaster.train_step(x, y, current.lr_current)
            lr_tick(current, pool.lr_raw)
            absorb_instance(current, mu, sigma)
    except NumericError as exc:
        raise NumericError(f"{exc} at t={t}") from exc

    pool.mark_selected(current)
    removed = evicted + pool.eliminate_stale()
    if removed:
        logger.debug("t=%d eliminated %s", t, removed)

    log.t.append(t)
    log.selected_entry_id.append(current.id)
    log.mse.append(err)
    log.evolved_from.append(near.id if evolved else None)
    log.abandoned.append(abandoned)
    log.eliminated_ids.append(tuple(removed))
    log.pool_size.append(len(pool))
    log.gene_mu.append(current.mu)
    log.gene_sigma.append(current.sigma)
    log.forecast.append(tuple(forecast.tolist()) if log_forecasts else None)


def run(series: np.ndarray, config: EngineConfig, log_forecasts: bool = False) -> RunResult:
    """Full pipeline over one series: split, warm up, stream every online instance.

    Numpy's overflow and invalid-value warnings are silenced for the run:
    every non-finite signature, loss, forecast or mean MSE raises NumericError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        warm, online = split_instances(series, config)
        forecaster = make_forecaster(config.forecaster, config.lookback, config.horizon,
                                     hidden=config.hidden, seed=config.seed)
        pool = Pool(forecaster, config.resolved_lr(), config.cep)
        warm_up(pool, warm, config.warm_epochs)
        logger.info("warm-up done: %d instances x %d epochs", len(warm), config.warm_epochs)
        log = StepLog()
        for i in range(len(online)):
            online_step(pool, online, i, log, log_forecasts)
        mean_mse = float(np.mean(log.mse))
    if not np.isfinite(mean_mse):
        raise NumericError(f"non-finite mean mse over {len(log)} online steps")
    return RunResult(log, mean_mse)
