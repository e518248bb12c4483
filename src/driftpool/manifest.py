"""Run manifests and results bundles: the serialized face of the engine.

A manifest pins everything a run depends on, so re-running it
reproduces the result bit for bit; its hash doubles as a result
provenance tag. ``RunManifest.from_dict`` builds every manifest: from a
saved one, or from flags and config files via ``manifest_from_settings``.
Bundles are written as one self-describing JSON file plus flat CSV
extracts (per-instance errors, gene trajectories) that external plotting
can consume directly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .data import (
    atomic_open,
    generate,
    load_csv,
    normalize,
    open_text,
    spec_from_dict,
    write_column_csv,
)
from .engine import EngineConfig, RunResult
from .errors import ValidationError, check_fields, check_value, field_types, within
from .pool import CepConfig

SCHEMA_VERSION = 1

NORMALIZE_MODES = ("off", "warm_segment", "whole")


@dataclass(frozen=True)
class RunManifest:
    """Fully serializable description of one run.

    The JSON form is flat: the engine settings sit beside data and
    normalize, with the CepConfig fields nested under "cep".
    """

    data: dict
    engine: EngineConfig
    normalize: str = within(NORMALIZE_MODES, "off")
    out_dir: str | None = None

    def __post_init__(self):
        check_fields(self)
        kind = self.data.get("kind")
        if kind == "csv":
            if "path" not in self.data or "column" not in self.data:
                raise ValidationError("data.kind=csv requires data.path and data.column")
            _check_keys(self.data, _CSV_TYPES, "data")
            for key, value in self.data.items():
                check_value(f"data field {key}", value, _CSV_TYPES[key])
        elif kind == "synthetic":
            spec_from_dict(self.data)  # validates
        else:
            raise ValidationError(f"data.kind must be csv or synthetic, got {kind!r}")

    def to_dict(self) -> dict:
        d = {"data": self.data, **dataclasses.asdict(self.engine), "normalize": self.normalize}
        if self.out_dir is not None:
            d["out_dir"] = self.out_dir
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunManifest":
        _check_keys(d, {*_ENGINE_TYPES, *_RUN_TYPES, "data", "cep"}, "manifest")
        for key in ("data", *_REQUIRED):
            if key not in d:
                raise ValidationError(f"manifest is missing required field {key!r}")
        cep = d.get("cep", {})
        if not isinstance(cep, dict):
            raise ValidationError("cep must be an object of threshold/switch fields")
        _check_keys(cep, _CEP_TYPES, "cep")
        engine = {k: v for k, v in d.items() if k in _ENGINE_TYPES}
        run = {k: v for k, v in d.items() if k in _RUN_TYPES}
        return cls(data=d["data"], engine=EngineConfig(cep=CepConfig(**cep), **engine), **run)

    def config_hash(self) -> str:
        """Hash of everything that affects the result (the output dir does not)."""
        payload = self.to_dict()
        payload.pop("out_dir", None)
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


# --- the one key schema, read off the config dataclasses --------------------

_CEP_TYPES = field_types(CepConfig)
_ENGINE_TYPES = {k: v for k, v in field_types(EngineConfig).items() if k != "cep"}
_RUN_TYPES = {k: v for k, v in field_types(RunManifest).items() if k in ("normalize", "out_dir")}
_REQUIRED = tuple(f.name for f in dataclasses.fields(EngineConfig)
                  if f.default is dataclasses.MISSING
                  and f.default_factory is dataclasses.MISSING)
# A manifest's "data" object for a CSV source.
_CSV_TYPES = {"kind": str, "path": str, "column": str, "has_header": bool}
# Config files name a CSV source in place of a manifest's "data" object, its
# path under the key "data"; the output directory comes from --out.
CONFIG_TYPES = {
    **_CEP_TYPES, **_ENGINE_TYPES, "normalize": _RUN_TYPES["normalize"],
    **{key: (_CSV_TYPES[csv_key], False)
       for key, csv_key in (("data", "path"), ("column", "column"), ("has_header", "has_header"))},
}


def _check_keys(d: dict, known, what: str) -> None:
    unknown = d.keys() - known
    if unknown:
        raise ValidationError(f"unknown {what} fields: {sorted(unknown)}")


def save_manifest(manifest: RunManifest, path: str | Path) -> None:
    with atomic_open(path) as fh:
        json.dump(manifest.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path: str | Path) -> Any:
    with open_text(path) as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError:
            raise  # open_text reports it as a file-format problem
        except (ValueError, RecursionError) as exc:  # bad JSON, a huge int, deep nesting
            raise ValidationError(f"{path}: not valid JSON: {exc}") from exc


def load_manifest(path: str | Path) -> RunManifest:
    d = read_json(path)
    if not isinstance(d, dict):
        raise ValidationError(f"{path}: manifest must be a JSON object")
    return RunManifest.from_dict(d)


def resolve_series(manifest: RunManifest) -> tuple[np.ndarray, np.ndarray | None]:
    """The manifest's series, normalized as it says, and its labels (synthetic only)."""
    data = manifest.data
    if data["kind"] == "csv":
        values, labels = load_csv(data["path"], data["column"], data.get("has_header", True)), None
    else:
        values, labels = generate(spec_from_dict(data))
    if manifest.normalize != "off":
        values, _, _ = normalize(values, manifest.normalize)
    return values, labels


# --- flat key = value config files -----------------------------------------

def _coerce_bool(raw: str, key: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValidationError(f"config key {key}: expected a boolean, got {raw!r}")


def parse_config_file(path: str | Path) -> dict:
    """Parse `key = value` lines (# starts a comment) into typed settings."""
    settings: dict[str, Any] = {}
    with open_text(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValidationError(f"{path} line {line_no}: expected key = value")
            key, raw = (part.strip() for part in text.split("=", 1))
            if key not in CONFIG_TYPES:
                raise ValidationError(f"{path} line {line_no}: unknown key {key!r}")
            base, optional = CONFIG_TYPES[key]
            if raw.lower() in ("none", "null", ""):
                if not optional:
                    raise ValidationError(
                        f"{path} line {line_no}: {key} must be {base.__name__}, got {raw!r}"
                    )
                settings[key] = None
                continue
            try:
                settings[key] = _coerce_bool(raw, key) if base is bool else base(raw)
            except ValueError:
                raise ValidationError(
                    f"{path} line {line_no}: cannot parse {raw!r} for {key}"
                ) from None
    return settings


def manifest_from_settings(settings: dict, out_dir: str | None = None) -> RunManifest:
    """A CSV-source manifest from config keys, laid out in the JSON form and typed by
    ``RunManifest.from_dict``; absent keys take the defaults."""
    missing = [k for k in ("data", *_REQUIRED) if k not in settings]
    if missing:
        raise ValidationError(
            f"missing required setting(s) {', '.join(missing)}: set by flag or config file"
        )
    d = {k: v for k, v in settings.items()
         if k not in _CEP_TYPES and k not in ("column", "has_header")}
    d["data"] = {
        "kind": "csv",
        "path": settings["data"],
        "column": settings.get("column", "0"),
        "has_header": settings.get("has_header", True),
    }
    d["cep"] = {k: v for k, v in settings.items() if k in _CEP_TYPES}
    if out_dir is not None:
        d["out_dir"] = out_dir
    return RunManifest.from_dict(d)


# --- results bundles --------------------------------------------------------

def build_bundle(manifest: RunManifest, result: RunResult, n_points: int) -> dict:
    """The results bundle of a run, read off its log; a step split iff its ``evolved_from``
    is not None, and the log is never empty (``split_instances`` sees to that)."""
    log = result.log
    created = [{"id": 0, "t": None, "parent": None}]  # the warm-up seed entry
    eliminated, records = [], []
    for t, eid, err, parent, abandoned, ids, size, mu, sigma, forecast in zip(
            log.t, log.selected_entry_id, log.mse, log.evolved_from, log.abandoned,
            log.eliminated_ids, log.pool_size, log.gene_mu, log.gene_sigma, log.forecast):
        if parent is not None:
            created.append({"id": eid, "t": t, "parent": parent})
        for gone in ids:
            eliminated.append({"id": gone, "t": t})
        rec = {"t": t, "entry_id": eid, "mse": err, "evolved": parent is not None,
               "abandoned": abandoned, "eliminated_ids": list(ids), "pool_size": size,
               "gene_mu": mu, "gene_sigma": sigma}
        if forecast is not None:
            rec["forecast"] = list(forecast)
        records.append(rec)
    return {
        "schema_version": SCHEMA_VERSION,
        "config_hash": manifest.config_hash(),
        "manifest": manifest.to_dict(),
        "n_points": n_points,
        "aggregate": {
            "mean_mse": result.mean_mse,
            "n_instances": len(log),
            "final_pool_size": log.pool_size[-1],
            "total_evolutions": len(created) - 1,
            "total_eliminations": len(eliminated),
        },
        "events": {"created": created, "eliminated": eliminated},
        "records": records,
    }


# A record as json.dumps(bundle, indent=2, sort_keys=True) lays it out: an item
# of the top-level "records" list, keys sorted. The %s before "gene_mu" holds
# the "forecast" line of a run that logs forecasts, or nothing.
_RECORD_JSON = """\
    {
      "abandoned": %s,
      "eliminated_ids": %s,
      "entry_id": %d,
      "evolved": %s,
      %s"gene_mu": %r,
      "gene_sigma": %r,
      "mse": %r,
      "pool_size": %d,
      "t": %d
    }"""


def _list_json(values: list) -> str:
    """A record's list of ints or floats as it sits in results.json."""
    if not values:
        return "[]"
    return "[\n        " + ",\n        ".join(map(repr, values)) + "\n      ]"


def write_bundle(bundle: dict, out_dir: str | Path, labels: np.ndarray | None = None) -> dict:
    """Write results.json and the flat CSV extracts of a bundle that
    ``build_bundle`` made, in one walk over its records; returns the file map.

    Its records hold exact ints and bools and finite floats, so results.json is
    ``json.dumps(bundle, indent=2, sort_keys=True)`` plus a newline: json's
    indenting encoder is pure Python, so only the small head goes through it,
    and each record is written from the template, its values' repr being their
    JSON. A hand-edited record is not re-routed through json. The three files
    are written whole before any replaces its predecessor, so a record that
    fails to encode leaves the earlier bundle as it was.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "results": out / "results.json",
        "instances": out / "instances.csv",
        "trajectories": out / "trajectories.csv",
    }
    head = json.dumps({**bundle, "records": []}, indent=2, sort_keys=True)
    # a line at a two-space indent is a top-level key; strings hold no raw newline
    before, _, after = head.partition('\n  "records": []')
    with (atomic_open(paths["results"]) as results,
          atomic_open(paths["instances"]) as instances,
          atomic_open(paths["trajectories"]) as trajectories):
        results.write(before + '\n  "records": [')
        instances.write("t,entry_id,mse,evolved,abandoned,pool_size\n")
        trajectories.write("t,entry_id,mu,sigma\n")
        sep = "\n"
        for r in bundle["records"]:  # never empty: split_instances sees to that
            t, eid, err, evolved, abandoned, size, mu, sigma = (
                r["t"], r["entry_id"], r["mse"], r["evolved"], r["abandoned"], r["pool_size"],
                r["gene_mu"], r["gene_sigma"])
            forecast = f'"forecast": {_list_json(r["forecast"])},\n      ' if "forecast" in r else ""
            results.write(sep + _RECORD_JSON % (
                "true" if abandoned else "false", _list_json(r["eliminated_ids"]), eid,
                "true" if evolved else "false", forecast, mu, sigma, err, size, t))
            instances.write("%d,%d,%.17g,%d,%d,%d\n" % (t, eid, err, evolved, abandoned, size))
            trajectories.write("%d,%d,%.17g,%.17g\n" % (t, eid, mu, sigma))
            sep = ",\n"
        results.write("\n  ]" + after + "\n")
    if labels is not None:
        paths["labels"] = out / "labels.csv"
        write_column_csv(paths["labels"], labels, "label", "%d")
    return paths


def read_bundle(path: str | Path) -> dict:
    """A results bundle, checked for the integer fields that purity reads."""
    bundle = read_json(path)
    try:
        fields = [bundle["manifest"]["lookback"], bundle["manifest"]["cep"]["tau_safe"]]
        fields += [v for r in bundle["records"] for v in (r["t"], r["entry_id"])]
    except (KeyError, TypeError):  # a field is missing, or a JSON type is wrong
        fields = [None]
    # fields: lookback, tau_safe, then t and entry_id of each record in turn
    if not (all(type(v) is int for v in fields) and fields[0] >= 1
            and min(fields[2::2], default=0) >= 0):
        raise ValidationError(f"{path}: not a results bundle: purity needs integer lookback "
                              ">= 1, cep.tau_safe, and t >= 0 and entry_id in every record")
    return bundle
