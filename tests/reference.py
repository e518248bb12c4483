"""Straight-line reference run: PAPER.md's mechanics in scalar code.

The library's loop is optimised. It signs every window in one vectorised
pass, keeps each pool entry's signatures as floats beside a cached mixed
signature, scores that cache in one pass and records a trained step's loss
from ``train_step``'s own forward pass. This module does none of that:

- every window is signed with ``compute_gene`` when the step reaches it;
- each entry is a namespace holding a frozen ``GeneState``, mixed with
  ``blend`` on every read (a lone part when an ablation switch is off);
- retrieval is ``min`` over ``(cost, id)``, the shift test reads the mixed
  signature, and a split clones the parent and evicts FIFO past the cap;
- every online step runs ``predict`` and ``mse`` before ``train_step``;
- after ``mark_selected`` every entry idle beyond ``tau_e`` times its
  predictions is retired, with no exemption and no fallback.

``tests/test_reference.py`` requires ``engine.run`` to equal ``run`` here
record for record, bit for bit. This module imports no function and no
pool class from ``driftpool.engine`` or ``driftpool.pool``, only their
config and result dataclasses.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np

from driftpool.data import warm_split_index
from driftpool.engine import EngineConfig, RunResult, StepRecord
from driftpool.errors import NumericError, SizingError
from driftpool.forecasters import KINDS, make_forecaster, mse
from driftpool.gene import (
    SIGMA_FLOOR,
    GeneState,
    GeneVector,
    blend,
    compute_gene,
    distances,
    fold_moments,
    nlls,
)


def effective_gene(state, config):
    """Mixed signature under the ablation switches; a lone part is used as it is."""
    if config.use_local_gene and config.use_global_gene:
        w, lo, gl = config.tau_gene, state.local, state.global_
        return GeneVector(blend(w, lo.mu, gl.mu), blend(w, lo.sigma, gl.sigma))
    return state.local if config.use_local_gene else state.global_


def retrieval_cost(entry, sample, config):
    """The cost retrieval minimises for an entry (anything with ``genes``)."""
    score = nlls if config.retrieval_score == "mle" else distances
    return score(sample.mu, sample.sigma, [effective_gene(entry.genes, config)])[0]


def shifted(entry, sample, config):
    """Evolution on, safety period served, and the mean beyond tau_mu floored sigmas."""
    g = effective_gene(entry.genes, config)
    return (config.evolution and entry.n_pred >= config.tau_safe
            and abs(sample.mu - g.mu) > config.tau_mu * max(g.sigma, SIGMA_FLOOR))


def absorb(entry, z, config):
    """Fold one window signature into the entry's local (EMA) and global (exact) genes.

    Only the window's mean enters the global moments.
    """
    old, tau_l = entry.genes, config.tau_l
    new_global = GeneVector(*fold_moments(old.global_.mu, old.global_.sigma, old.n, z.mu))
    local = GeneVector(blend(tau_l, z.mu, old.local.mu), blend(tau_l, z.sigma, old.local.sigma))
    entry.genes = GeneState(local, new_global, old.n + 1)


def run(series, config: EngineConfig, log_forecasts: bool = False) -> RunResult:
    """Warm up the seed forecaster, then stream every online instance through the pool."""
    series = np.asarray(series, dtype=float)
    cep, lookback, horizon = config.cep, config.lookback, config.horizon
    span = lookback + horizon
    scope = cep.scope_s if cep.scope_s is not None else lookback
    lr_raw = config.lr_raw if config.lr_raw is not None else KINDS[config.forecaster].default_lr
    n = len(series)
    warm_len = warm_split_index(n)
    if warm_len < span or n - warm_len < span:
        raise SizingError(f"series too short: {n} points for a span of {span}")

    seed = SimpleNamespace(
        id=0, genes=GeneState(GeneVector(0.0, 0.0), GeneVector(0.0, 0.0), 1),
        n_pred=0, n_wait=0, lr=lr_raw,
        forecaster=make_forecaster(config.forecaster, lookback, horizon,
                                   hidden=config.hidden, seed=config.seed),
    )
    entries, next_id = [seed], 1

    # warm-up: stride 1 over the first quarter, at the raw lr
    for _ in range(config.warm_epochs):
        for t in range(warm_len - span + 1):
            x, y = series[t:t + lookback], series[t + lookback:t + span]
            z = compute_gene(x, scope)
            seed.forecaster.train_step(x, y, lr_raw)
            absorb(seed, z, cep)
            seed.n_pred += 1

    # online: instances advance by the full horizon
    records = []
    for t in range(warm_len, n - span + 1, horizon):
        x, y = series[t:t + lookback], series[t + lookback:t + span]
        z_x, z_y = compute_gene(x, scope), compute_gene(y, scope)
        removed = []

        near = min(entries, key=lambda e: (retrieval_cost(e, z_x, cep), e.id))
        evolved = shifted(near, z_x, cep)
        if evolved:
            current = SimpleNamespace(
                id=next_id, genes=GeneState(z_x, z_x, 1), n_pred=0, n_wait=0,
                lr=cep.tau_lr * lr_raw if cep.optimizer_adjustment else lr_raw,
                forecaster=near.forecaster.deep_clone(),
            )
            next_id += 1
            entries.append(current)
            if cep.max_pool_size is not None and len(entries) > cep.max_pool_size:
                removed.append(entries.pop(0).id)
        else:
            current = near

        abandoned = cep.gradient_abandonment and shifted(current, z_y, cep)
        forecast = current.forecaster.predict(x)
        if not np.isfinite(forecast).all():
            raise NumericError(f"non-finite forecast at t={t}")
        err = mse(forecast, y)
        if not abandoned:
            current.forecaster.train_step(x, y, current.lr)
            current.lr = min(lr_raw, cep.tau_lr ** (-1.0 / cep.t_lr) * current.lr)
            absorb(current, z_x, cep)

        for e in entries:
            if e is current:
                e.n_pred, e.n_wait = e.n_pred + 1, 0
            else:
                e.n_wait += 1
        if cep.elimination:
            stale = [e.id for e in entries if e.n_wait > cep.tau_e * e.n_pred]
            entries = [e for e in entries if e.id not in stale]
            removed += stale

        g = effective_gene(current.genes, cep)
        records.append(StepRecord(
            t=t,
            selected_entry_id=current.id,
            mse=err,
            evolved=evolved,
            evolved_from=near.id if evolved else None,
            abandoned=abandoned,
            eliminated_ids=tuple(removed),
            pool_size=len(entries),
            gene_mu=g.mu,
            gene_sigma=g.sigma,
            forecast=tuple(float(v) for v in forecast) if log_forecasts else None,
        ))

    return RunResult(
        records=records,
        mean_mse=float(np.mean([r.mse for r in records])),
        final_pool_size=len(entries),
        total_evolutions=sum(r.evolved for r in records),
        total_eliminations=sum(len(r.eliminated_ids) for r in records),
    )


def run_bare(series, config: EngineConfig, log_forecasts: bool = False) -> RunResult:
    """``run`` with evolution off: one forecaster trained on every instance.

    Without evolution the pool never splits, abandons or retires its only
    entry, so this is the single-forecaster baseline.
    """
    return run(series, replace(config, cep=replace(config.cep, evolution=False)), log_forecasts)
