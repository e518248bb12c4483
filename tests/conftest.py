"""Fixtures and hypothesis settings shared by more than one test module."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import Phase, settings

from driftpool.engine import EngineConfig, StepLog, online_step, split_instances, warm_up
from driftpool.forecasters import LinearForecaster
from driftpool.pool import Pool
from reference import genes_of, n_wait, parameter_checksum

# No explain phase for any property test: on a failing run it re-runs variants of
# the shrunk example to say which parts matter, which took one bundle test 40 s and
# 700 MB before it reported.
settings.register_profile("driftpool", phases=set(Phase) - {Phase.explain})
settings.load_profile("driftpool")


@pytest.fixture
def abandoned_step():
    """Run a stream up to the one step whose x lies wholly in the old concept and
    whose y lies wholly in the new one, then take that step.

    Returns the pool, the step as the last value of each log column and a snapshot
    of every entry taken just before the step (`before[id]` is a copy of the entry's
    fields).
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

    target = online.starts.index(boundary - lookback)
    log = StepLog()
    for i in range(target):
        online_step(pool, online, i, log)

    before = {
        e.id: SimpleNamespace(checksum=parameter_checksum(e.forecaster), genes=genes_of(e),
                              n_pred=e.n_pred, n_wait=n_wait(pool, e), lr_current=e.lr_current)
        for e in pool.entries
    }
    online_step(pool, online, target, log)
    record = SimpleNamespace(**{name: column[-1] for name, column in vars(log).items()})
    return SimpleNamespace(pool=pool, record=record, before=before)
