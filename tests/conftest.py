"""Fixtures shared by more than one test module."""

from types import SimpleNamespace

import numpy as np
import pytest

from driftpool.engine import EngineConfig, online_step, split_instances, warm_up
from driftpool.forecasters import LinearForecaster
from driftpool.pool import Pool


@pytest.fixture
def abandoned_step():
    """Run a stream up to the one step whose x lies wholly in the old concept and
    whose y lies wholly in the new one, then take that step.

    Returns the pool, the step's record and a snapshot of every entry taken just
    before the step (`before[id]` is a copy of the entry's fields).
    """
    lookback, horizon = 16, 8
    boundary = 400 + 5 * horizon + lookback  # aligns x fully before, y fully after
    series = np.concatenate([np.zeros(boundary), np.full(600, 50.0)])
    series = series + 0.01 * np.sin(np.arange(len(series)))
    config = EngineConfig(lookback=lookback, horizon=horizon, forecaster="linear",
                          lr_raw=1e-4, warm_epochs=1)
    warm, online = split_instances(series, config)
    pool = Pool(LinearForecaster(lookback, horizon), config.resolved_lr(), config.cep)
    warm_up(pool, warm, 1)

    target = next(i for i in online if i.t + lookback == boundary)
    for inst in online:
        if inst.t == target.t:
            break
        online_step(pool, inst)

    before = {
        e.id: SimpleNamespace(checksum=e.forecaster.parameter_checksum(), genes=e.genes,
                              n_pred=e.n_pred, n_wait=e.n_wait, lr_current=e.lr_current)
        for e in pool.entries
    }
    record = online_step(pool, target)
    return SimpleNamespace(pool=pool, record=record, before=before)
