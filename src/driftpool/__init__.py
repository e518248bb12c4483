"""Streaming time-series forecasting with a self-managing pool of
concept-specialized forecasters.

The pool indexes lightweight models by statistical window signatures,
routes every incoming window to the nearest one, splits a new model on
statistically significant mean shifts, and retires models that stay
idle too long. Runs follow a delayed-feedback protocol: online
instances advance by the full forecast horizon.
"""

from .data import (
    ConceptSpec,
    SyntheticSpec,
    default_stream_spec,
    generate,
    load_csv,
    normalize,
)
from .engine import (
    EngineConfig,
    RunResult,
    StepLog,
    online_step,
    run,
    warm_up,
)
from .errors import (
    ColumnNotFoundError,
    DriftpoolError,
    FileFormatError,
    NumericError,
    RowParseError,
    SizingError,
    ValidationError,
)
from .forecasters import (
    Forecaster,
    LinearForecaster,
    MlpForecaster,
    NaiveForecaster,
    make_forecaster,
    mse,
)
from .gene import SIGMA_FLOOR, compute_gene
from .manifest import RunManifest, load_manifest, save_manifest
from .pool import CepConfig, Pool, PoolEntry, absorb_instance, lr_tick, should_evolve

__version__ = "0.1.0"

__all__ = [
    "CepConfig",
    "ColumnNotFoundError",
    "ConceptSpec",
    "DriftpoolError",
    "EngineConfig",
    "FileFormatError",
    "Forecaster",
    "LinearForecaster",
    "MlpForecaster",
    "NaiveForecaster",
    "NumericError",
    "Pool",
    "PoolEntry",
    "RowParseError",
    "RunManifest",
    "RunResult",
    "SIGMA_FLOOR",
    "SizingError",
    "StepLog",
    "SyntheticSpec",
    "ValidationError",
    "absorb_instance",
    "compute_gene",
    "default_stream_spec",
    "generate",
    "load_csv",
    "load_manifest",
    "lr_tick",
    "make_forecaster",
    "mse",
    "normalize",
    "online_step",
    "run",
    "save_manifest",
    "should_evolve",
    "warm_up",
]
