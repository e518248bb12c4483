"""Every setting of the five config dataclasses is declared once and checked by one reader.

A field's type comes from its annotation and its domain from ``within``;
``check_fields`` applies both at construction, so the library refuses what a
manifest or a config file refuses, with a ``ValidationError`` naming the field.
"""

import dataclasses
import math
import re

import pytest

from driftpool.data import ConceptSpec, SyntheticSpec, generate, spec_from_dict
from driftpool.engine import EngineConfig
from driftpool.errors import ValidationError, field_types
from driftpool.manifest import RunManifest
from driftpool.pool import CepConfig

# A valid instance's arguments for each class; each case below changes one field.
VALID = {
    EngineConfig: {"lookback": 8, "horizon": 4},
    CepConfig: {},
    ConceptSpec: {"level": 0.0},
    SyntheticSpec: {"concepts": (ConceptSpec(level=0.0),), "schedule": ((0, 10),)},
    RunManifest: {"data": {"kind": "csv", "path": "x.csv", "column": "v"},
                  "engine": EngineConfig(lookback=8, horizon=4)},
}
PATH_FIELDS = {"out_dir"}  # str fields that name a file or directory, not a choice
INTERVAL = re.compile(r"[\[(](-inf|-?\d+(\.\d+)?), (inf|-?\d+(\.\d+)?)[\])]")


def wrong_values(kind, optional):
    """Values of the wrong type, or non-finite floats, for a field of ``kind``."""
    if kind is int:
        bad = [True, 1.5, "1", math.nan, math.inf, -math.inf]
    elif kind is float:
        bad = [True, "1", math.nan, math.inf, -math.inf, 10**400]
    elif kind is bool:
        bad = [0, 1, "true"]
    else:  # str, dict, EngineConfig
        bad = [1, True]
    return bad + ([] if optional else [None])


CASES = [
    pytest.param(cls, name, value, id=f"{cls.__name__}.{name}={value!r:.12}")
    for cls in VALID
    for name, (kind, optional) in field_types(cls).items()
    for value in wrong_values(kind, optional)
]


@pytest.mark.parametrize("cls, name, value", CASES)
def test_a_wrong_value_is_refused_naming_its_field(cls, name, value):
    with pytest.raises(ValidationError, match=f"^{name} must be "):
        cls(**{**VALID[cls], name: value})


@pytest.mark.parametrize("cls, kwargs, message", [
    (EngineConfig, {"lookback": 60.0}, "lookback must be int, got 60.0"),
    (EngineConfig, {"warm_epochs": math.nan}, "warm_epochs must be int, got nan"),
    (CepConfig, {"tau_safe": math.nan}, "tau_safe must be int, got nan"),
    (CepConfig, {"max_pool_size": 2.5}, "max_pool_size must be int or null, got 2.5"),
    (CepConfig, {"evolution": 0}, "evolution must be bool, got 0"),
    (CepConfig, {"tau_mu": "3"}, "tau_mu must be float, got '3'"),
    (CepConfig, {"tau_gene": math.nan}, "tau_gene must be in [0, 1], got nan"),
    (ConceptSpec, {"amplitude": -math.inf}, "amplitude must be finite, got -inf"),
])
def test_a_value_that_used_to_slip_through(cls, kwargs, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        cls(**{**VALID[cls], **kwargs})


@pytest.mark.parametrize("concepts, schedule, seed, message", [
    ((ConceptSpec(level=0.0),), ((0, 10.0),), 0, "segment duration must be int, got 10.0"),
    ((ConceptSpec(level=0.0),), ((0.0, 10),), 0, "schedule index must be int, got 0.0"),
    ((ConceptSpec(level=0.0),), ((0, 10),), math.nan, "seed must be int, got nan"),
    ((), ((0, 10),), 0, "schedule references unknown concept 0"),
    (({"level": 0.0},), ((0, 10),), 0, "concept must be ConceptSpec, got {'level': 0.0}"),
])
def test_a_library_spec_is_refused_before_generate(concepts, schedule, seed, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        SyntheticSpec(concepts=concepts, schedule=schedule, seed=seed)


def test_a_fractional_period_keeps_working():
    d = {"concepts": [{"level": 0.0, "period": 24.5}], "schedule": [[0, 50]]}
    values, _ = generate(spec_from_dict(d))
    assert len(values) == 50


def test_a_generic_field_is_left_to_its_class():
    """``tuple[...]`` fields are read by their class's own loop, never passed to
    ``isinstance``; the test is by origin, since Python 3.10 calls a generic a type."""
    assert field_types(SyntheticSpec) == {"seed": (int, False)}

    @dataclasses.dataclass
    class Generic:
        pairs: tuple[int, ...]
        names: list[str] | None
        count: int | None

    assert field_types(Generic) == {"count": (int, True)}


def test_every_setting_declares_its_domain():
    """A new int or choice setting cannot land unchecked: each declares its domain."""
    for cls in VALID:
        types = field_types(cls)
        for f in dataclasses.fields(cls):
            domain = f.metadata.get("domain")
            kind = types.get(f.name, (None,))[0]
            where = f"{cls.__name__}.{f.name}"
            if kind is int:
                assert isinstance(domain, str), f"{where} declares no interval"
            if kind is str and f.name not in PATH_FIELDS:
                assert isinstance(domain, tuple) and domain, f"{where} declares no choices"
            if isinstance(domain, str):
                assert kind in (int, float) and INTERVAL.fullmatch(domain), where
            elif domain is not None:
                assert kind is str and all(type(choice) is str for choice in domain), where
