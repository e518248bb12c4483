"""Command-line front end: run, compare, generate, purity.

Configuration precedence is defaults < config file (`key = value`
lines, # comments) < explicit CLI flags. A run can also be driven by a
saved JSON manifest, which pins every input, so it takes neither, and
reproduces its results bit for bit. Exit codes: 0 success, 2 validation problems, 3 runtime
failures, 4 file or data-format problems. Set DRIFTPOOL_LOG=debug|info
for progress logging.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import logging
import os
import sys
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from . import engine
from .data import (
    SyntheticSpec,
    atomic_open,
    default_stream_spec,
    generate,
    load_csv,
    spec_from_dict,
    write_column_csv,
)
from .errors import DriftpoolError, FileFormatError, ValidationError
from .forecasters import FORECASTER_KINDS
from .manifest import (
    CONFIG_TYPES,
    NORMALIZE_MODES,
    RunManifest,
    build_bundle,
    load_manifest,
    manifest_from_settings,
    parse_config_file,
    read_bundle,
    read_json,
    resolve_series,
    save_manifest,
    write_bundle,
)
from .pool import RETRIEVAL_SCORES

log = logging.getLogger("driftpool.cli")

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3
EXIT_IO = 4


# --- run --------------------------------------------------------------------

def cmd_run(manifest: RunManifest, out_dir: str | None = None,
            log_forecasts: bool = False) -> dict:
    """Execute one manifest; write the bundle when an output dir is known."""
    series, labels = resolve_series(manifest)
    log.info("running %s on %s (%d points)", manifest.engine.forecaster,
             manifest.data.get("path", "synthetic"), len(series))
    result = engine.run(series, manifest.engine, log_forecasts=log_forecasts)
    bundle = build_bundle(manifest, result, len(series))
    target = out_dir if out_dir is not None else manifest.out_dir
    if target is not None:
        paths = write_bundle(bundle, target, labels=labels)
        save_manifest(manifest, Path(target) / "manifest.json")
        log.info("wrote %s", paths["results"])
    agg = bundle["aggregate"]
    print(
        f"mean_mse={agg['mean_mse']:.6g} instances={agg['n_instances']} "
        f"pool={agg['final_pool_size']} evolutions={agg['total_evolutions']} "
        f"eliminations={agg['total_eliminations']} hash={bundle['config_hash'][:12]}"
    )
    return bundle


def _manifest_from_args(args) -> RunManifest:
    settings = parse_config_file(args.config) if args.config else {}
    # Flags override config-file values; a flag left unset is None and sets nothing.
    settings.update((k, v) for k, v in vars(args).items() if k in CONFIG_TYPES and v is not None)
    return manifest_from_settings(settings, out_dir=args.out)


def _run_command(args) -> None:
    if args.manifest:
        given = [flag for dest, flag in args.setting_flags.items()
                 if getattr(args, dest) is not None]
        if given:
            raise ValidationError(f"--manifest pins every setting; drop {', '.join(given)}")
        manifest = load_manifest(args.manifest)
    else:
        manifest = _manifest_from_args(args)
    cmd_run(manifest, out_dir=args.out, log_forecasts=args.log_forecasts)


# --- compare ------------------------------------------------------------------

def cmd_compare(manifests: list[RunManifest], names: list[str],
                out_dir: str | None = None) -> list[dict]:
    """Run every manifest, each row named by ``names``; report deltas against the first."""
    if len(manifests) < 2:
        raise ValidationError("compare needs at least 2 manifests")
    # MSEs are comparable only over one series, scaled alike and cut into the same windows
    first = manifests[0].engine
    series = []
    for i, m in enumerate(manifests, start=1):
        values, _ = resolve_series(m)
        if series and not (m.engine.lookback == first.lookback
                           and m.engine.horizon == first.horizon
                           and np.array_equal(values, series[0])):
            raise ValidationError(
                f"manifest #{i} differs from the baseline in series/lookback/horizon")
        series.append(values)
    rows = []
    for name, m, values in zip(names, manifests, series, strict=True):
        result = engine.run(values, m.engine)
        rows.append({"name": name, "mean_mse": result.mean_mse})
    base = rows[0]["mean_mse"]
    for row in rows:  # no relative delta exists against a zero-error baseline
        row["delta_pct"] = (row["mean_mse"] - base) / base * 100.0 if base else None

    width = max(len(r["name"]) for r in rows)
    print(f"{'manifest':<{width}}  {'mean_mse':>12}  {'delta':>9}")
    for i, row in enumerate(rows):
        if i == 0:
            delta = "-"
        else:
            delta = "n/a" if row["delta_pct"] is None else f"{row['delta_pct']:+.2f}%"
        print(f"{row['name']:<{width}}  {row['mean_mse']:>12.6f}  {delta:>9}")

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with atomic_open(out / "compare.csv") as fh:
            writer = csv.writer(fh, lineterminator="\n")  # quotes a name holding a comma
            writer.writerow(["manifest", "mean_mse", "delta_pct"])
            for row in rows:
                pct = "" if row["delta_pct"] is None else f"{row['delta_pct']:.2f}"
                writer.writerow([row["name"], f"{row['mean_mse']:.17g}", pct])
    return rows


def _compare_command(args) -> None:
    manifests = [load_manifest(p) for p in args.manifests]
    names = [Path(p).stem for p in args.manifests]
    if len(set(names)) != len(names):  # colliding file stems: name each row by its path
        names = list(args.manifests)
    cmd_compare(manifests, names=names, out_dir=args.out)


# --- generate -----------------------------------------------------------------

def cmd_generate(spec: SyntheticSpec, out_dir: str | Path) -> dict:
    """Write values.csv and labels.csv for a synthetic spec; print a summary."""
    values, labels = generate(spec)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    values_path = out / "values.csv"
    labels_path = out / "labels.csv"
    write_column_csv(values_path, values)
    write_column_csv(labels_path, labels, "label", "%d")

    print(f"points={len(values)} segments={len(spec.schedule)} seed={spec.seed}")
    for idx, concept in enumerate(spec.concepts):
        mask = labels == idx
        if mask.any():
            # moments at a power-of-two scale that puts the peak in [1, 2): exact, no overflow
            shift = 1 - np.frexp(np.abs(values[mask]).max())[1]
            points = np.ldexp(values[mask], shift)
            mean, std = (np.ldexp(m, -shift) for m in (points.mean(), points.std()))
            print(f"concept {idx}: level={concept.level} points={int(mask.sum())} "
                  f"mean={mean:.4f} std={std:.4f}")
    return {"values": values_path, "labels": labels_path, "n": len(values)}


def _generate_command(args) -> None:
    if args.spec:
        if args.noise is not None:
            raise ValidationError("--noise sets the built-in stream's noise; drop it beside --spec")
        spec = spec_from_dict(read_json(args.spec))
        if args.seed is not None:
            spec = dataclasses.replace(spec, seed=args.seed)
    else:  # an unset flag keeps the built-in default
        given = {"noise_sigma": args.noise, "seed": args.seed}
        spec = default_stream_spec(**{k: v for k, v in given.items() if v is not None})
    cmd_generate(spec, args.out)


# --- purity -------------------------------------------------------------------

def instance_label(labels: np.ndarray, t: int, lookback: int) -> int | None:
    """Most common label of the input window; None when another label is as common."""
    window = labels[t:t + lookback]
    counts = Counter(window.tolist())
    top = counts.most_common(2)
    if len(top) > 1 and top[0][1] == top[1][1]:
        return None
    return int(top[0][0])


def compute_purity(records: list[dict], labels: np.ndarray, lookback: int,
                   tau_safe: int, skip_safety: bool = False) -> dict:
    """Fraction of counted instances routed to an entry whose concept is theirs.

    A window's label is its most common label, and the window is counted only
    when no other label is as common. An entry's concept is its most common
    label, the smallest on a tie. With skip_safety, each entry's first
    tau_safe served instances are also left out.
    """
    if not records:
        raise ValidationError("no records to score")
    needed = max(r["t"] for r in records) + lookback
    if len(labels) < needed:
        raise ValidationError(
            f"length mismatch: records need {needed} label points, got {len(labels)}"
        )
    n_ties = 0
    n_safety = 0
    serves: dict[int, int] = defaultdict(int)
    per_entry: dict[int, Counter] = defaultdict(Counter)
    for rec in sorted(records, key=lambda r: r["t"]):
        entry = rec["entry_id"]
        serves[entry] += 1
        if skip_safety and serves[entry] <= tau_safe:
            n_safety += 1
        elif (label := instance_label(labels, rec["t"], lookback)) is None:
            n_ties += 1
        else:
            per_entry[entry][label] += 1
    if not per_entry:
        raise ValidationError("no instances with an unambiguous concept label")

    rows = {}
    for entry, counts in sorted(per_entry.items()):
        majority, matches = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        rows[entry] = {"instances": counts.total(), "majority": majority, "matches": matches}
    n_counted = sum(row["instances"] for row in rows.values())
    return {
        "purity": sum(row["matches"] for row in rows.values()) / n_counted,
        "n_counted": n_counted,
        "n_excluded_ties": n_ties,
        "n_excluded_safety": n_safety,
        "entries": rows,
    }


def cmd_purity(results_path: str | Path, labels_path: str | Path,
               skip_safety: bool = False) -> dict:
    """Score how cleanly a labeled synthetic run routed instances to entries."""
    bundle = read_bundle(results_path)
    values = load_csv(labels_path, "label", has_header=True)
    # below 2**53 in magnitude, distinct integers read as distinct floats
    bad = (values != np.round(values)) | (np.abs(values) >= 2.0**53)
    if bad.any():
        raise ValidationError(f"{labels_path}: labels must be integers below 2**53 in "
                              f"magnitude, got {float(values[bad.argmax()])!r}")
    labels = values.astype(np.int64)
    n_points = bundle.get("n_points")
    if n_points is not None and len(labels) != n_points:
        raise ValidationError(
            f"length mismatch: run covered {n_points} points, labels file has {len(labels)}"
        )
    lookback = bundle["manifest"]["lookback"]
    tau_safe = bundle["manifest"]["cep"]["tau_safe"]
    report = compute_purity(bundle["records"], labels, lookback, tau_safe,
                            skip_safety=skip_safety)
    print(
        f"purity={report['purity']:.4f} counted={report['n_counted']} "
        f"ties_excluded={report['n_excluded_ties']} "
        f"safety_excluded={report['n_excluded_safety']}"
    )
    for entry, info in report["entries"].items():
        print(
            f"entry {entry}: served={info['instances']} majority={info['majority']} "
            f"matches={info['matches']}"
        )
    return report


# --- parser -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftpool",
        description="Streaming forecasting with a pool of concept-specialized models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one run and write a results bundle")
    p_run.add_argument("--manifest", help="JSON manifest pinning the whole run")
    # Every dest below that names a config-file key sets that key (None: unset).
    p_run.add_argument("--data", help="CSV file with the input series")
    p_run.add_argument("--column", help="column name or zero-based index")
    p_run.add_argument("--no-header", dest="has_header", action="store_false", default=None,
                       help="file has no header row")
    p_run.add_argument("--lookback", type=int)
    p_run.add_argument("--horizon", type=int)
    p_run.add_argument("--forecaster", choices=FORECASTER_KINDS)
    p_run.add_argument("--hidden", type=int, help="MLP hidden width")
    p_run.add_argument("--config", help="flat key = value config file")
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--lr", dest="lr_raw", metavar="LR", type=float,
                       help="raw learning rate")
    p_run.add_argument("--warm-epochs", type=int, dest="warm_epochs")
    p_run.add_argument("--normalize", choices=NORMALIZE_MODES)
    p_run.add_argument("--out", help="output directory for the results bundle")
    p_run.add_argument("--no-evolution", dest="evolution", action="store_false", default=None)
    p_run.add_argument("--no-elimination", dest="elimination", action="store_false",
                       default=None)
    p_run.add_argument("--no-abandonment", dest="gradient_abandonment", action="store_false",
                       default=None)
    p_run.add_argument("--no-lr-adjust", dest="optimizer_adjustment", action="store_false",
                       default=None)
    p_run.add_argument("--local-only", dest="use_global_gene", action="store_false",
                       default=None, help="disable the global gene")
    p_run.add_argument("--global-only", dest="use_local_gene", action="store_false",
                       default=None, help="disable the local gene")
    p_run.add_argument("--max-pool", dest="max_pool_size", metavar="MAX_POOL", type=int,
                       help="FIFO cap on pool size")
    p_run.add_argument("--score", dest="retrieval_score", choices=RETRIEVAL_SCORES,
                       help="retrieval score")
    p_run.add_argument("--log-forecasts", action="store_true",
                       help="store full forecasts in the bundle")
    # --manifest pins every setting, so each flag that sets one is refused beside it
    p_run.set_defaults(func=_run_command, setting_flags={
        a.dest: a.option_strings[0] for a in p_run._actions
        if a.dest in CONFIG_TYPES or a.dest == "config"})

    p_cmp = sub.add_parser("compare", help="run several manifests and tabulate deltas")
    p_cmp.add_argument("manifests", nargs="+", help="manifest JSON files (first = baseline)")
    p_cmp.add_argument("--out", help="directory for compare.csv")
    p_cmp.set_defaults(func=_compare_command)

    p_gen = sub.add_parser("generate", help="write a synthetic labeled stream as CSV")
    p_gen.add_argument("--spec", help="JSON spec file (default: built-in recurring stream)")
    p_gen.add_argument("--seed", type=int, help="override the spec seed")
    p_gen.add_argument("--noise", type=float,
                       help="noise sigma of the built-in stream (refused beside --spec)")
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.set_defaults(func=_generate_command)

    p_pur = sub.add_parser("purity", help="score routing quality on a labeled run")
    p_pur.add_argument("--results", required=True, help="results.json from a run")
    p_pur.add_argument("--labels", required=True, help="labels.csv of the same stream")
    p_pur.add_argument("--skip-safety", action="store_true",
                       help="ignore each entry's first tau_safe served instances")
    p_pur.set_defaults(func=lambda a: cmd_purity(a.results, a.labels, a.skip_safety))

    return parser


def _setup_logging() -> None:
    level_name = os.environ.get("DRIFTPOOL_LOG", "warning").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (DriftpoolError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return (EXIT_VALIDATION if isinstance(exc, ValidationError)
                else EXIT_IO if isinstance(exc, (FileFormatError, OSError)) else EXIT_RUNTIME)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
