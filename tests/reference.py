"""Straight-line reference run: PAPER.md's mechanics in scalar code.

The library's loop is optimised. It signs every window in one vectorised
pass, keeps each pool entry's signatures as floats beside a cached mixed
signature, scores that cache in one pass and records a trained step's loss
from ``train_step``'s own forward pass. This module does none of that:

- every window is signed with ``compute_gene`` when the step reaches it;
- each entry is a namespace holding its signatures as one tuple
  ``(local, global, n)`` of two ``Gene`` pairs and a count, replaced
  whole on every absorb and mixed with ``blend`` on every read (a lone
  part when an ablation switch is off);
- retrieval is ``min`` over ``(cost, id)``, the shift test reads the mixed
  signature, and a split clones the parent and evicts FIFO past the cap;
- every online step runs ``predict`` and ``mse`` before ``train_step``;
- after ``mark_selected`` every entry idle beyond ``tau_e`` times its
  predictions is retired, with no exemption and no fallback.

``tests/test_reference.py`` requires ``engine.run`` to equal ``run`` here
step for step, bit for bit. This module imports no function and no
pool class from ``driftpool.engine`` or ``driftpool.pool``, only their
config and result dataclasses. ``genes_of`` and ``set_genes`` read and
write a library pool entry's signature floats in the same tuple form.
``parameters``, ``parameter_checksum`` and ``n_wait`` read a library
forecaster's parameters and a library pool entry's idle count for tests.
"""

import hashlib
import math
from collections import namedtuple
from dataclasses import replace
from types import SimpleNamespace

import numpy as np

from driftpool.data import warm_split_index
from driftpool.engine import EngineConfig, RunResult, StepLog
from driftpool.errors import NumericError, ValidationError
from driftpool.forecasters import KINDS, make_forecaster, mse
from driftpool.gene import (
    SIGMA_FLOOR,
    blend,
    compute_gene,
    fold_moments,
    nlls,
)


# A window signature; ``distances`` and ``nlls`` score it as a candidate.
Gene = namedtuple("Gene", "mu sigma")


def distances(mu, sigma, candidates):
    """Euclidean distance from (mu, sigma) to each candidate's (mu, sigma).

    The oracle of ``Pool.nearest``'s euclidean score, which computes the
    same ``math.hypot`` inline. A candidate is anything with ``mu`` and
    ``sigma``, such as a pool entry's cached mixed signature.
    """
    return [math.hypot(mu - c.mu, sigma - c.sigma) for c in candidates]


def genes_of(entry):
    """A library pool entry's signatures as ``(local, global, n)``."""
    return (Gene(entry.local_mu, entry.local_sigma), Gene(entry.global_mu, entry.global_sigma),
            entry.n)


def set_genes(entry, genes):
    """Write ``(local, global, n)`` into a library pool entry's float slots and
    refresh its cached mixed signature."""
    (entry.local_mu, entry.local_sigma), (entry.global_mu, entry.global_sigma), entry.n = genes
    entry._refresh()


def parameters(model):
    """Live views of a forecaster's trainable arrays, in buffer order (may be empty)."""
    return [getattr(model, name) for name in model._layout]


def parameter_checksum(model):
    """sha256 over a forecaster's class name and each parameter's shape and bytes."""
    h = hashlib.sha256(type(model).__name__.encode())
    for p in parameters(model):
        h.update(str(p.shape).encode())
        h.update(p.tobytes())
    return h.hexdigest()


def n_wait(pool, entry):
    """Steps ``pool`` served since ``entry`` last served one (or was created)."""
    return pool.served - entry.last_served


def effective_gene(genes, config):
    """Mixed signature of ``(local, global, n)`` under the ablation switches; a lone
    part is used as it is."""
    local, global_, _ = genes
    if config.use_local_gene and config.use_global_gene:
        w = config.tau_gene
        return Gene(blend(w, local.mu, global_.mu), blend(w, local.sigma, global_.sigma))
    return local if config.use_local_gene else global_


def retrieval_cost(genes, sample, config):
    """The cost retrieval minimises for the signatures ``genes`` and a sample ``Gene``."""
    score = nlls if config.retrieval_score == "mle" else distances
    return score(sample.mu, sample.sigma, [effective_gene(genes, config)])[0]


def shifted(entry, sample, config):
    """Evolution on, safety period served, and the mean beyond tau_mu floored sigmas."""
    g = effective_gene(entry.genes, config)
    return (config.evolution and entry.n_pred >= config.tau_safe
            and abs(sample.mu - g.mu) > config.tau_mu * max(g.sigma, SIGMA_FLOOR))


def absorb(genes, z, config):
    """``genes`` after folding the window signature ``z`` into the local (EMA) and
    global (exact) parts.

    Only the window's mean enters the global moments.
    """
    local, global_, n = genes
    tau_l = config.tau_l
    return (Gene(blend(tau_l, z.mu, local.mu), blend(tau_l, z.sigma, local.sigma)),
            Gene(*fold_moments(global_.mu, global_.sigma, n, z.mu)), n + 1)


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
        raise ValidationError(f"series too short: {n} points for a span of {span}")

    seed = SimpleNamespace(
        id=0, genes=(Gene(0.0, 0.0), Gene(0.0, 0.0), 1),
        n_pred=0, n_wait=0, lr=lr_raw,
        forecaster=make_forecaster(config.forecaster, lookback, horizon,
                                   hidden=config.hidden, seed=config.seed),
    )
    entries, next_id = [seed], 1

    # warm-up: stride 1 over the first quarter, at the raw lr
    for _ in range(config.warm_epochs):
        for t in range(warm_len - span + 1):
            x, y = series[t:t + lookback], series[t + lookback:t + span]
            z = Gene(*compute_gene(x, scope))
            seed.forecaster.train_step(x, y, lr_raw)
            seed.genes = absorb(seed.genes, z, cep)
            seed.n_pred += 1

    # online: instances advance by the full horizon
    log = StepLog()
    for t in range(warm_len, n - span + 1, horizon):
        x, y = series[t:t + lookback], series[t + lookback:t + span]
        z_x, z_y = Gene(*compute_gene(x, scope)), Gene(*compute_gene(y, scope))
        removed = []

        near = min(entries, key=lambda e: (retrieval_cost(e.genes, z_x, cep), e.id))
        evolved = shifted(near, z_x, cep)
        if evolved:
            current = SimpleNamespace(
                id=next_id, genes=(z_x, z_x, 1), n_pred=0, n_wait=0,
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
            current.genes = absorb(current.genes, z_x, cep)

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
        log.t.append(t)
        log.selected_entry_id.append(current.id)
        log.mse.append(err)
        log.evolved_from.append(near.id if evolved else None)
        log.abandoned.append(abandoned)
        log.eliminated_ids.append(tuple(removed))
        log.pool_size.append(len(entries))
        log.gene_mu.append(g.mu)
        log.gene_sigma.append(g.sigma)
        log.forecast.append(tuple(float(v) for v in forecast) if log_forecasts else None)

    return RunResult(log, float(np.mean(log.mse)))


def run_bare(series, config: EngineConfig, log_forecasts: bool = False) -> RunResult:
    """``run`` with evolution off: one forecaster trained on every instance.

    Without evolution the pool never splits, abandons or retires its only
    entry, so this is the single-forecaster baseline.
    """
    return run(series, replace(config, cep=replace(config.cep, evolution=False)), log_forecasts)
