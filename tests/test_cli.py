"""CLI surface tests: manifests, bundles, comparisons, purity, exit codes."""

import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftpool.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_VALIDATION,
    cmd_compare,
    cmd_generate,
    cmd_purity,
    cmd_run,
    compute_purity,
    main,
)
from driftpool.data import (
    ConceptSpec,
    SyntheticSpec,
    default_stream_spec,
    generate,
    load_csv,
    spec_from_dict,
    write_column_csv,
)
from driftpool.engine import EngineConfig, run
from driftpool.errors import ValidationError, field_types
from driftpool.forecasters import FORECASTER_KINDS
from driftpool.manifest import (
    CONFIG_TYPES,
    RunManifest,
    build_bundle,
    load_manifest,
    manifest_from_settings,
    parse_config_file,
    read_bundle,
    save_manifest,
)
from driftpool.pool import RETRIEVAL_SCORES, CepConfig


def synthetic_manifest(data=None, out_dir=None, **engine):
    """Small fast manifest over a two-concept recurring stream."""
    if data is None:
        data = {
            "kind": "synthetic",
            "concepts": [
                {"level": 0.0, "amplitude": 1.0, "period": 24, "noise_sigma": 0.2},
                {"level": 8.0, "amplitude": 1.0, "period": 24, "noise_sigma": 0.2},
            ],
            "schedule": [[0, 400], [1, 400], [0, 400], [1, 400]],
            "seed": 3,
        }
    engine = {"lookback": 16, "horizon": 8, "forecaster": "naive", "warm_epochs": 1, **engine}
    return RunManifest(data=data, engine=EngineConfig(**engine), out_dir=out_dir)


def spiked(row, value):
    """1,200 zeros but ``value`` at ``row``."""
    values = np.zeros(1200)
    values[row] = value
    return values


def run_cli_process(*args):
    """``driftpool`` in a separate process, its output captured: pytest would
    capture numpy's RuntimeWarning, not print it."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-m", "driftpool.cli", *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=120)


class TestManifest:
    def test_round_trip_is_idempotent(self, tmp_path):
        manifest = synthetic_manifest(seed=9)
        path = tmp_path / "m.json"
        save_manifest(manifest, path)
        loaded = load_manifest(path)
        assert loaded == manifest
        path2 = tmp_path / "m2.json"
        save_manifest(loaded, path2)
        assert path.read_text() == path2.read_text()

    def test_hash_ignores_out_dir_only(self):
        a = synthetic_manifest()
        b = synthetic_manifest(out_dir="/somewhere/else")
        c = synthetic_manifest(seed=4)
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()

    def test_bad_tau_named_in_error(self):
        with pytest.raises(ValidationError, match=r"tau_l must be in \(0, 1\], got 1.5"):
            RunManifest.from_dict(
                {
                    "data": {"kind": "csv", "path": "x.csv", "column": "v"},
                    "lookback": 8,
                    "horizon": 4,
                    "cep": {"tau_l": 1.5},
                }
            )

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValidationError, match="unknown manifest fields"):
            RunManifest.from_dict({"data": {}, "lookback": 1, "horizon": 1, "extra": 2})
        with pytest.raises(ValidationError, match="unknown cep fields"):
            RunManifest.from_dict(
                {
                    "data": {"kind": "csv", "path": "x", "column": "v"},
                    "lookback": 1,
                    "horizon": 1,
                    "cep": {"tau_q": 1},
                }
            )

    def test_json_numbers_keep_their_type(self):
        d = synthetic_manifest().to_dict()
        d["cep"]["tau_e"] = 2  # an int in a float field must not become 2.0
        loaded = RunManifest.from_dict(d)
        assert type(loaded.engine.cep.tau_e) is int
        assert json.dumps(loaded.to_dict(), sort_keys=True) == json.dumps(d, sort_keys=True)

    def test_settings_are_typed_as_a_manifest(self):
        with pytest.raises(ValidationError, match=r"^lookback must be int, got 1\.5$"):
            manifest_from_settings({"data": "x.csv", "lookback": 1.5, "horizon": 4})

    def test_data_kind_required(self):
        with pytest.raises(ValidationError, match="kind"):
            synthetic_manifest(data={"path": "x.csv"})


class TestConfigFile:
    def test_parse_types_and_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# thresholds\n"
            "tau_mu = 2.5\n"
            "tau_safe = 10   # shorter safety period\n"
            "evolution = true\n"
            "elimination = off\n"
            "max_pool_size = none\n"
            "forecaster = naive\n"
            "lookback = 16\n"
        )
        settings = parse_config_file(path)
        assert settings["tau_mu"] == 2.5
        assert settings["tau_safe"] == 10
        assert settings["evolution"] is True
        assert settings["elimination"] is False
        assert settings["max_pool_size"] is None
        assert settings["forecaster"] == "naive"
        assert settings["lookback"] == 16

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("tau_x = 1\n")
        with pytest.raises(ValidationError, match="unknown key 'tau_x'"):
            parse_config_file(path)

    def test_bad_value_cites_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("tau_mu = 3\ntau_safe = soon\n")
        with pytest.raises(ValidationError, match="line 2"):
            parse_config_file(path)

    def test_flags_override_config_file(self, tmp_path, capsys):
        series_dir = tmp_path / "gen"
        cmd_generate(default_stream_spec(noise_sigma=0.2, seed=1, segment=300), series_dir)
        capsys.readouterr()
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lookback = 16\nhorizon = 8\nseed = 5\nwarm_epochs = 1\nforecaster = naive\n")
        out = tmp_path / "out"
        rc = main([
            "run", "--data", str(series_dir / "values.csv"), "--column", "value",
            "--config", str(cfg), "--seed", "9", "--out", str(out),
        ])
        assert rc == EXIT_OK
        bundle = read_bundle(out / "results.json")
        assert bundle["manifest"]["seed"] == 9  # flag wins
        assert bundle["manifest"]["lookback"] == 16  # config file supplies the rest

    def test_config_file_can_fully_specify_a_run(self, tmp_path, capsys):
        series_dir = tmp_path / "gen"
        cmd_generate(default_stream_spec(noise_sigma=0.2, seed=1, segment=300), series_dir)
        capsys.readouterr()
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"data = {series_dir / 'values.csv'}\n"
            "column = value\n"
            "lookback = 16\nhorizon = 8\nforecaster = naive\nwarm_epochs = 1\n"
        )
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == EXIT_OK
        bundle = read_bundle(tmp_path / "out" / "results.json")
        assert bundle["manifest"]["data"]["column"] == "value"

    def test_flags_config_file_and_saved_manifest_hash_alike(self, tmp_path, capsys):
        cmd_generate(default_stream_spec(noise_sigma=0.2, seed=1, segment=300), tmp_path)
        data = str(tmp_path / "values.csv")
        (tmp_path / "run.cfg").write_text(
            f"data = {data}\ncolumn = value\nlookback = 16\nhorizon = 8\n"
            "forecaster = naive\nwarm_epochs = 1\nlr_raw = 0.01\nnormalize = whole\n"
            "elimination = off\nretrieval_score = mle\nmax_pool_size = 4\n"
        )
        flags = ["--data", data, "--column", "value", "--lookback", "16", "--horizon", "8",
                 "--forecaster", "naive", "--warm-epochs", "1", "--lr", "0.01",
                 "--normalize", "whole", "--no-elimination", "--score", "mle",
                 "--max-pool", "4"]
        runs = {
            "flags": flags,
            "config": ["--config", str(tmp_path / "run.cfg")],
            "manifest": ["--manifest", str(tmp_path / "flags" / "manifest.json")],
        }
        for name, argv in runs.items():
            assert main(["run", *argv, "--out", str(tmp_path / name)]) == EXIT_OK
        hashes = {read_bundle(tmp_path / name / "results.json")["config_hash"] for name in runs}
        assert len(hashes) == 1
        cep = load_manifest(tmp_path / "config" / "manifest.json").engine.cep
        assert (cep.elimination, cep.retrieval_score, cep.max_pool_size) == (False, "mle", 4)

    @pytest.mark.parametrize("where", ["config", "manifest"])
    def test_a_byte_order_mark_is_dropped(self, tmp_path, capsys, where):
        cmd_generate(default_stream_spec(noise_sigma=0.2, seed=1, segment=300), tmp_path)
        if where == "config":
            text = (f"data = {tmp_path / 'values.csv'}\ncolumn = value\nlookback = 16\n"
                    "horizon = 8\nforecaster = naive\nwarm_epochs = 1\n")
        else:
            text = json.dumps(synthetic_manifest().to_dict())
        written = []
        for bom in ("", "\ufeff"):
            (tmp_path / "in").write_text(bom + text, encoding="utf-8")
            argv = ["run", f"--{where}", str(tmp_path / "in"), "--out", str(tmp_path / "out")]
            assert main(argv) == EXIT_OK
            written.append({p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()})
        assert written[0] == written[1]
        assert capsys.readouterr().err == ""


class TestCmdRun:
    def test_writes_bundle_and_extracts(self, tmp_path, capsys):
        manifest = synthetic_manifest()
        bundle = cmd_run(manifest, out_dir=tmp_path / "out")
        printed = capsys.readouterr().out
        assert "mean_mse=" in printed

        on_disk = read_bundle(tmp_path / "out" / "results.json")
        assert on_disk["config_hash"] == bundle["config_hash"]
        assert on_disk["schema_version"] == 1
        # every emitted CSV parses back through load_csv
        mse_col = load_csv(tmp_path / "out" / "instances.csv", "mse")
        assert len(mse_col) == on_disk["aggregate"]["n_instances"]
        mu_col = load_csv(tmp_path / "out" / "trajectories.csv", "mu")
        assert len(mu_col) == len(mse_col)
        labels = load_csv(tmp_path / "out" / "labels.csv", "label")
        assert len(labels) == on_disk["n_points"]
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_rerun_reproduces_hash_and_metrics(self, tmp_path, capsys):
        manifest = synthetic_manifest()
        a = cmd_run(manifest, out_dir=tmp_path / "a")
        b = cmd_run(manifest, out_dir=tmp_path / "b")
        assert a["config_hash"] == b["config_hash"]
        assert a["aggregate"] == b["aggregate"]
        assert a["records"] == b["records"]
        assert a["events"] == b["events"]

    def test_log_forecasts_is_an_output_switch(self, tmp_path, capsys):
        save_manifest(synthetic_manifest(), tmp_path / "m.json")
        for name, extra in (("plain", []), ("logged", ["--log-forecasts"])):
            argv = ["run", "--manifest", str(tmp_path / "m.json"), "--out", str(tmp_path / name)]
            assert main(argv + extra) == EXIT_OK
        plain = json.loads((tmp_path / "plain" / "results.json").read_text())
        logged = json.loads((tmp_path / "logged" / "results.json").read_text())
        assert all("forecast" not in r for r in plain["records"])
        assert all(len(r.pop("forecast")) == 8 for r in logged["records"])
        assert logged["records"] == plain["records"]
        assert logged["config_hash"] == plain["config_hash"]
        for name in ("plain", "logged"):
            echoed = json.loads((tmp_path / name / "manifest.json").read_text())
            assert "log_forecasts" not in echoed

    @pytest.mark.parametrize("edit, error, message", [
        (lambda r: r.pop("pool_size"), KeyError, "pool_size"),
        (lambda r: r.update(mse="0.5"), TypeError, "must be real number, not str"),
        (lambda r: r.update(gene_mu="0.5"), TypeError, "must be real number, not str"),
    ], ids=["results-missing-key", "instances-str-mse", "trajectories-str-gene_mu"])
    def test_failed_write_keeps_the_earlier_bundle(self, edit, error, message, tmp_path, capsys):
        from driftpool.manifest import write_bundle

        bundle = cmd_run(synthetic_manifest(), out_dir=tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        edit(bundle["records"][-1])  # the write fails near the end of one file
        with pytest.raises(error, match=message):
            write_bundle(bundle, tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_evolution_toggle_changes_result(self, tmp_path, capsys):
        on = cmd_run(synthetic_manifest(), out_dir=None)
        off = cmd_run(
            synthetic_manifest(cep=CepConfig(evolution=False)), out_dir=None
        )
        assert on["aggregate"]["total_evolutions"] > 0
        assert off["aggregate"]["total_evolutions"] == 0
        assert off["aggregate"]["final_pool_size"] == 1

    def test_evolution_off_bundle_matches_bare_loop(self, capsys):
        from driftpool.manifest import build_bundle, resolve_series
        from reference import run_bare

        manifest = synthetic_manifest(
            forecaster="linear", lr_raw=1e-3, cep=CepConfig(evolution=False)
        )
        bundle = cmd_run(manifest, out_dir=None)
        series, _ = resolve_series(manifest)
        bare = build_bundle(manifest, run_bare(series, manifest.engine), len(series))
        assert bundle["records"] == bare["records"]
        assert bundle["aggregate"] == bare["aggregate"]


@st.composite
def drawn_runs(draw):
    """(manifest, spec, log_forecasts) of a run over a three-concept stream, with the
    forecaster, retrieval score, pool cap (1 and 2 evict), elimination, abandonment
    and forecast logging drawn. The manifest's CSV path holds drawn text, which may
    hold the line the writer splices the records in at."""
    cep = CepConfig(retrieval_score=draw(st.sampled_from(RETRIEVAL_SCORES)),
                    max_pool_size=draw(st.sampled_from([None, 1, 2])),
                    elimination=draw(st.booleans()), gradient_abandonment=draw(st.booleans()),
                    tau_safe=draw(st.integers(0, 15)))
    engine = EngineConfig(lookback=8, horizon=4, forecaster=draw(st.sampled_from(FORECASTER_KINDS)),
                          hidden=4, lr_raw=1e-3, warm_epochs=1, cep=cep)
    path = draw(st.just('\n  "records": []') | st.text())
    manifest = RunManifest(data={"kind": "csv", "path": path, "column": "value"}, engine=engine)
    concepts = tuple(ConceptSpec(level, noise_sigma=0.2) for level in (0.0, 4.0, -4.0))
    order = draw(st.lists(st.sampled_from(range(3)), min_size=3, max_size=6))
    spec = SyntheticSpec(concepts, tuple((i, 200) for i in [0, *order]),
                         seed=draw(st.integers(0, 2**32 - 1)))
    return manifest, spec, draw(st.booleans())


class TestWriteBundle:
    @given(drawn=drawn_runs())
    @settings(max_examples=100, deadline=None)
    def test_results_json_is_json_dumps_of_the_bundle(self, drawn):
        from driftpool.manifest import write_bundle

        manifest, spec, log_forecasts = drawn
        values, _ = generate(spec)
        result = run(values, manifest.engine, log_forecasts=log_forecasts)
        # the config hash holds the drawn text too
        bundle = {**build_bundle(manifest, result, len(values)),
                  "config_hash": manifest.data["path"]}
        with tempfile.TemporaryDirectory() as out:
            write_bundle(bundle, out)
            written = (Path(out) / "results.json").read_text(encoding="utf-8")
        assert written == json.dumps(bundle, indent=2, sort_keys=True) + "\n"


class TestCmdCompare:
    def test_identical_manifests_zero_delta(self, capsys):
        rows = cmd_compare([synthetic_manifest(), synthetic_manifest()])
        out = capsys.readouterr().out
        assert rows[1]["delta_pct"] == 0.0
        assert "+0.00%" in out

    def test_delta_sign_and_format(self, tmp_path, capsys):
        # order the pair so the second manifest is the better one here
        first = synthetic_manifest(forecaster="linear", lr_raw=1e-3)
        second = synthetic_manifest(
            forecaster="linear", lr_raw=1e-3, cep=CepConfig(evolution=False)
        )
        rows = cmd_compare([first, second], names=["a", "b"], out_dir=tmp_path)
        out = capsys.readouterr().out
        expected = (rows[1]["mean_mse"] - rows[0]["mean_mse"]) / rows[0]["mean_mse"] * 100
        assert rows[1]["delta_pct"] == pytest.approx(expected)
        assert rows[1]["delta_pct"] < 0  # negative means the row beats the baseline
        assert f"{rows[1]['delta_pct']:+.2f}%" in out
        csv_text = (tmp_path / "compare.csv").read_text()
        assert csv_text.startswith("manifest,mean_mse,delta_pct\n")
        reread = load_csv(tmp_path / "compare.csv", "mean_mse")
        assert reread[0] == pytest.approx(rows[0]["mean_mse"])

    def test_three_rows_against_first(self, capsys):
        rows = cmd_compare(
            [synthetic_manifest(), synthetic_manifest(seed=1), synthetic_manifest(seed=2)]
        )
        assert len(rows) == 3
        assert rows[0]["delta_pct"] == 0.0

    def test_mismatched_data_rejected(self):
        a = synthetic_manifest()
        # MSEs over a raw and a normalized series differ in scale, not in quality
        for b in (synthetic_manifest(lookback=20),
                  dataclasses.replace(a, normalize="warm_segment")):
            with pytest.raises(ValidationError, match="differs from the baseline"):
                cmd_compare([a, b])

    def test_same_series_compares_across_omitted_defaults(self, tmp_path, capsys):
        # has_header defaults to true and a synthetic seed to 0; config_hash still
        # tells each pair apart
        write_column_csv(tmp_path / "series.csv", np.sin(np.arange(400) / 3.0), "v")
        csv_data = {"kind": "csv", "path": str(tmp_path / "series.csv"), "column": "v"}
        synthetic = {k: v for k, v in synthetic_manifest().data.items() if k != "seed"}
        for data, spelled in ((csv_data, {"has_header": True}), (synthetic, {"seed": 0})):
            a, b = synthetic_manifest(data=data), synthetic_manifest(data={**data, **spelled})
            assert a.config_hash() != b.config_hash()
            assert cmd_compare([a, b])[1]["delta_pct"] == 0.0

    def test_same_csv_compares_across_spellings(self, tmp_path, monkeypatch, capsys):
        # a column by name or by index, a path relative or absolute: one series
        values = np.sin(np.arange(400) / 3.0).tolist()
        (tmp_path / "s.csv").write_text(
            "v,w\n" + "".join(f"{v!r},{-v!r}\n" for v in values))
        monkeypatch.chdir(tmp_path)
        base = {"kind": "csv", "path": "s.csv", "column": "v"}
        for spelled in ({"column": "0"}, {"path": str(tmp_path / "s.csv")}):
            a, b = synthetic_manifest(data=base), synthetic_manifest(data={**base, **spelled})
            assert cmd_compare([a, b])[1]["delta_pct"] == 0.0
        for other in ({"column": "w"}, {"column": "1"}):
            b = synthetic_manifest(data={**base, **other})
            with pytest.raises(ValidationError, match="differs from the baseline"):
                cmd_compare([synthetic_manifest(data=base), b])

    def test_csv_written_by_generate_compares_equal_to_its_spec(self, tmp_path, capsys):
        # one series, generated from the spec or read back from the file it wrote
        spec = synthetic_manifest().data
        cmd_generate(spec_from_dict(spec), tmp_path)
        csv_data = {"kind": "csv", "path": str(tmp_path / "values.csv"), "column": "value"}
        for normalize in ("off", "warm_segment"):
            a, b = (dataclasses.replace(synthetic_manifest(data=data), normalize=normalize)
                    for data in (spec, csv_data))
            assert cmd_compare([a, b])[1]["delta_pct"] == 0.0
        other_seed = synthetic_manifest(data={**spec, "seed": 4})
        with pytest.raises(ValidationError, match="manifest #2 differs from the baseline"):
            cmd_compare([synthetic_manifest(data=csv_data), other_seed])

    def test_other_horizon_rejected(self):
        # one series cut into other windows
        with pytest.raises(ValidationError, match="manifest #2 differs from the baseline"):
            cmd_compare([synthetic_manifest(), synthetic_manifest(horizon=4)])

    def test_colliding_names_fall_back_to_the_paths_as_given(self, tmp_path, capsys):
        paths = [str(tmp_path / top / "x" / "m.json") for top in ("a", "b")]
        for path in paths:
            Path(path).parent.mkdir(parents=True)
            save_manifest(synthetic_manifest(), path)
        assert main(["compare", *paths, "--out", str(tmp_path / "cmp")]) == EXIT_OK
        table = capsys.readouterr().out.splitlines()[1:]
        assert [line.split()[0] for line in table] == paths
        with open(tmp_path / "cmp" / "compare.csv", newline="") as fh:
            assert [row[0] for row in csv.reader(fh)][1:] == paths

    def test_compare_csv_quotes_a_name_holding_a_comma(self, tmp_path, capsys):
        names = ["base", "a,b", 'say "hi"']
        rows = cmd_compare([synthetic_manifest()] * 3, names=names, out_dir=tmp_path)
        with open(tmp_path / "compare.csv", newline="") as fh:
            read = list(csv.reader(fh))
        assert read[0] == ["manifest", "mean_mse", "delta_pct"]
        assert [row[0] for row in read[1:]] == names
        assert [float(row[1]) for row in read[1:]] == [row["mean_mse"] for row in rows]
        text = (tmp_path / "compare.csv").read_text()
        assert text.splitlines()[2].startswith('"a,b",')
        assert "\r" not in text

    def test_zero_mse_baseline(self, tmp_path, capsys):
        write_column_csv(tmp_path / "flat.csv", np.full(800, 2.0), "v")
        data = {"kind": "csv", "path": str(tmp_path / "flat.csv"), "column": "v"}
        paths = []
        for name, seed in (("a", 0), ("b", 1)):
            paths.append(tmp_path / f"{name}.json")
            save_manifest(synthetic_manifest(data=data, seed=seed), paths[-1])
        rc = main(["compare", *map(str, paths), "--out", str(tmp_path / "cmp")])
        assert rc == EXIT_OK
        assert "n/a" in capsys.readouterr().out
        assert (tmp_path / "cmp" / "compare.csv").read_text().splitlines()[1:] == [
            "a,0,", "b,0,",
        ]

    def test_needs_two(self):
        with pytest.raises(ValidationError, match="at least 2"):
            cmd_compare([synthetic_manifest()])


class TestCmdGenerate:
    def test_default_spec_dimensions(self, tmp_path, capsys):
        paths = cmd_generate(default_stream_spec(seed=0), tmp_path)
        out = capsys.readouterr().out
        assert "points=18000 segments=6" in out
        values = load_csv(paths["values"], "value")
        labels = load_csv(paths["labels"], "label")
        assert len(values) == len(labels) == 18000

    def test_same_seed_byte_identical(self, tmp_path, capsys):
        a = cmd_generate(default_stream_spec(seed=5), tmp_path / "a")
        b = cmd_generate(default_stream_spec(seed=5), tmp_path / "b")
        assert (tmp_path / "a" / "values.csv").read_bytes() == (
            tmp_path / "b" / "values.csv"
        ).read_bytes()
        assert (tmp_path / "a" / "labels.csv").read_bytes() == (
            tmp_path / "b" / "labels.csv"
        ).read_bytes()

    def test_generate_then_run_csv(self, tmp_path, capsys):
        cmd_generate(default_stream_spec(noise_sigma=0.2, seed=2, segment=300), tmp_path)
        rc = main([
            "run", "--data", str(tmp_path / "values.csv"), "--column", "value",
            "--lookback", "16", "--horizon", "8", "--forecaster", "naive",
            "--warm-epochs", "1", "--out", str(tmp_path / "out"),
        ])
        assert rc == EXIT_OK
        assert (tmp_path / "out" / "results.json").exists()

    @pytest.mark.parametrize("noise, seed", [(0.0, 0), (3.0, 4)])
    def test_the_summary_gives_numpys_moments(self, tmp_path, capsys, noise, seed):
        spec = default_stream_spec(noise_sigma=noise, seed=seed)
        values, labels = generate(spec)
        cmd_generate(spec, tmp_path)
        lines = capsys.readouterr().out.splitlines()[1:]
        assert [line.split(" mean=")[1] for line in lines] == [
            f"{values[labels == k].mean():.4f} std={values[labels == k].std():.4f}"
            for k in range(len(spec.concepts))]

    def test_the_summary_of_a_concept_whose_sum_overflows_is_finite(self, tmp_path, capsys):
        # every point is finite, but the sum behind each concept's mean overflows a float
        levels = (1e308, -1.7e308)
        spec = SyntheticSpec(concepts=tuple(ConceptSpec(level=v, amplitude=0.0) for v in levels),
                             schedule=((0, 2000), (1, 1000), (0, 5)))
        cmd_generate(spec, tmp_path)
        lines = capsys.readouterr().out.splitlines()[1:]
        for level, line in zip(levels, lines, strict=True):
            mean, std = (float(x) for x in re.fullmatch(r".* mean=(\S+) std=(\S+)", line).groups())
            assert mean == pytest.approx(level, rel=1e-12)
            assert std <= 1e-12 * abs(level)

    def test_noise_is_refused_beside_spec(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"concepts": [{"level": 0.0}], "schedule": [[0, 10]]}))
        out = tmp_path / "g"
        rc = main(["generate", "--spec", str(spec), "--noise", "5", "--out", str(out)])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "--noise" in err
        assert not out.exists()

    def test_noise_alone_sets_the_built_in_stream(self, tmp_path, capsys):
        for name, noise in (("unset", []), ("half", ["--noise", "0.5"])):
            assert main(["generate", *noise, "--out", str(tmp_path / name)]) == EXIT_OK
        for name, spec in (("default", default_stream_spec()),
                           ("expected-half", default_stream_spec(noise_sigma=0.5))):
            cmd_generate(spec, tmp_path / name)
        values = {p.parent.name: p.read_bytes() for p in tmp_path.glob("*/values.csv")}
        assert values["unset"] == values["default"] != values["half"]
        assert values["half"] == values["expected-half"]


@st.composite
def purity_cases(draw):
    """Shuffled records with distinct t and repeated entries, over labels from five
    values, so that windows and entries often have tied most common labels."""
    lookback = draw(st.integers(1, 6))
    served = draw(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 3)), min_size=1,
                           max_size=30, unique_by=lambda r: r[0]))
    records = [{"t": t, "entry_id": entry} for t, entry in served]
    n = max(t for t, _ in served) + lookback
    labels = np.array(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
    return records, labels, lookback, draw(st.integers(0, 4)), draw(st.booleans())


def purity_oracle(records, labels, lookback, tau_safe, skip_safety):
    """The purity report by brute force from the documented rule: in t order, skip an
    entry's first tau_safe serves (with skip_safety) and each window where a second
    label is as common as the most common one; an entry's concept is its most common
    counted label, the smallest on a tie. None when no instance is counted."""
    served, labelled, n_ties, n_safety = {}, {}, 0, 0
    for rec in sorted(records, key=lambda r: r["t"]):
        entry = rec["entry_id"]
        served[entry] = served.get(entry, 0) + 1
        window = [int(v) for v in labels[rec["t"]:rec["t"] + lookback]]
        top = max(window.count(v) for v in window)
        modes = {v for v in window if window.count(v) == top}
        if skip_safety and served[entry] <= tau_safe:
            n_safety += 1
        elif len(modes) > 1:
            n_ties += 1
        else:
            labelled.setdefault(entry, []).append(modes.pop())
    concept = {}
    for entry, seen in labelled.items():
        top = max(seen.count(v) for v in seen)
        concept[entry] = min(v for v in seen if seen.count(v) == top)
    hits = [label == concept[entry] for entry, seen in labelled.items() for label in seen]
    if not hits:
        return None
    return {
        "purity": sum(hits) / len(hits),
        "n_counted": len(hits),
        "n_excluded_ties": n_ties,
        "n_excluded_safety": n_safety,
        "entries": {entry: {"instances": len(labelled[entry]), "majority": concept[entry],
                            "matches": labelled[entry].count(concept[entry])}
                    for entry in sorted(labelled)},
    }


class TestPurity:
    def run_records(self, manifest):
        bundle = cmd_run(manifest, out_dir=None)
        return bundle["records"]

    def test_single_concept_is_pure(self, capsys):
        manifest = synthetic_manifest(
            data={
                "kind": "synthetic",
                "concepts": [{"level": 0.0, "amplitude": 1.0, "period": 24, "noise_sigma": 0.1}],
                "schedule": [[0, 1200]],
                "seed": 0,
            }
        )
        records = self.run_records(manifest)
        labels = np.zeros(1200, dtype=int)
        report = compute_purity(records, labels, 16, 15)
        assert report["purity"] == 1.0
        assert len(report["entries"]) == 1

    def test_shuffled_labels_hit_chance_level(self, capsys):
        # enough instances per entry that the majority-fit bias is small
        data = synthetic_manifest().data | {
            "schedule": [[0, 1600], [1, 1600], [0, 1600], [1, 1600]]
        }
        manifest = synthetic_manifest(data=data, lookback=8, horizon=8)
        records = self.run_records(manifest)
        purities = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            labels = rng.integers(0, 3, 6400)
            report = compute_purity(records, labels, 8, 15)
            purities.append(report["purity"])
        assert abs(float(np.mean(purities)) - 1 / 3) < 0.05

    def test_skip_safety_flag_excludes_early_serves(self, capsys):
        manifest = synthetic_manifest()
        records = self.run_records(manifest)
        spec = spec_from_dict(manifest.data)
        _, labels = generate(spec)
        plain = compute_purity(records, labels, 16, 15, skip_safety=False)
        skipped = compute_purity(records, labels, 16, 15, skip_safety=True)
        assert skipped["n_excluded_safety"] > 0
        assert skipped["n_counted"] < plain["n_counted"]

    def test_window_and_entry_tie_rules(self):
        # [0, 0, 1, 2] has a unique most common label, 0; [0, 0, 1, 1] has none
        labels = np.array([0, 0, 1, 2, 0, 0, 1, 1, 3, 3, 3, 1, 1, 1, 2, 2, 2, 2])
        records = [{"t": 0, "entry_id": 0}, {"t": 4, "entry_id": 0},
                   {"t": 8, "entry_id": 5}, {"t": 11, "entry_id": 5},
                   {"t": 14, "entry_id": 5}]
        report = compute_purity(records, labels, 4, 0)
        assert report["n_excluded_ties"] == 1
        # entry 5 serves labels 3, 1 and 2 once each: its concept is the smallest, 1
        assert report["entries"] == {
            0: {"instances": 1, "majority": 0, "matches": 1},
            5: {"instances": 3, "majority": 1, "matches": 1},
        }
        assert report["purity"] == 2 / 4 and report["n_counted"] == 4

    @given(case=purity_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_documented_rule(self, case):
        records, labels, lookback, tau_safe, skip_safety = case
        expected = purity_oracle(records, labels, lookback, tau_safe, skip_safety)
        if expected is None:
            with pytest.raises(ValidationError, match="no instances with an unambiguous"):
                compute_purity(records, labels, lookback, tau_safe, skip_safety=skip_safety)
            return
        report = compute_purity(records, labels, lookback, tau_safe, skip_safety=skip_safety)
        assert repr(report) == repr(expected)  # same keys in order, same int and float values

    def test_length_mismatch_rejected(self, capsys):
        records = self.run_records(synthetic_manifest())
        with pytest.raises(ValidationError, match="length mismatch"):
            compute_purity(records, np.zeros(100, dtype=int), 16, 15)

    def test_cmd_purity_end_to_end(self, tmp_path, capsys):
        manifest = synthetic_manifest()
        cmd_run(manifest, out_dir=tmp_path)
        report = cmd_purity(tmp_path / "results.json", tmp_path / "labels.csv")
        out = capsys.readouterr().out
        assert "purity=" in out
        assert report["purity"] > 0.9

    def test_cmd_purity_rejects_wrong_label_count(self, tmp_path, capsys):
        cmd_run(synthetic_manifest(), out_dir=tmp_path)
        write_column_csv(tmp_path / "short.csv", np.zeros(10, dtype=int), "label", "%d")
        with pytest.raises(ValidationError, match="length mismatch"):
            cmd_purity(tmp_path / "results.json", tmp_path / "short.csv")


def numeric_fields(cls, path, *skip):
    """The key path of each int or float field of a config dataclass."""
    hints = typing.get_type_hints(cls)
    return [(*path, f.name) for f in dataclasses.fields(cls) if f.name not in skip
            and {int, float} & {*typing.get_args(hints[f.name]), hints[f.name]}]


# Every float field of a synthetic run manifest, as the key path into its JSON.
FLOAT_FIELDS = [
    *((name,) for name, (kind, _) in field_types(EngineConfig).items() if kind is float),
    *(("cep", name) for name, (kind, _) in field_types(CepConfig).items() if kind is float),
    *(("data", "concepts", 0, name) for name, (kind, _) in field_types(ConceptSpec).items()
      if kind is float),
]
# Every numeric field of a synthetic run manifest, as the key path into its JSON.
# warm_epochs is left out: 2**62 epochs is a valid run that never ends.
NUMERIC_FIELDS = [
    *numeric_fields(EngineConfig, (), "warm_epochs"),
    *numeric_fields(CepConfig, ("cep",)),
    *numeric_fields(ConceptSpec, ("data", "concepts", 0)),
    ("data", "schedule", 0, 0), ("data", "schedule", 0, 1), ("data", "seed"),
]


class TestMainExitCodes:
    def test_ok(self, tmp_path, capsys):
        manifest = synthetic_manifest()
        save_manifest(manifest, tmp_path / "m.json")
        assert main(["run", "--manifest", str(tmp_path / "m.json")]) == EXIT_OK

    @pytest.mark.parametrize("extra, named", [
        (["--lookback", "20"], ["--lookback"]),
        (["--no-evolution"], ["--no-evolution"]),
        (["--config", "missing.cfg"], ["--config"]),
        (["--lookback", "20", "--forecaster", "linear", "--no-evolution", "--config",
          "missing.cfg"], ["--lookback", "--forecaster", "--config", "--no-evolution"]),
    ], ids=["typed", "store-false", "config", "several"])
    def test_manifest_excludes_every_setting_flag(self, tmp_path, capsys, extra, named):
        save_manifest(synthetic_manifest(), tmp_path / "m.json")
        out = tmp_path / "out"
        rc = main(["run", "--manifest", str(tmp_path / "m.json"), *extra, "--out", str(out)])
        assert rc == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: --manifest pins every setting")
        assert re.findall(r"--[a-z-]+", line.split(";")[1]) == named
        assert not (out / "results.json").exists()

    def test_validation_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        manifest = synthetic_manifest().to_dict()
        manifest["cep"] = {"tau_l": 1.5}
        path.write_text(json.dumps(manifest))
        rc = main(["run", "--manifest", str(path)])
        assert rc == EXIT_VALIDATION
        assert "tau_l" in capsys.readouterr().err

    def test_io_error(self, tmp_path, capsys):
        rc = main([
            "run", "--data", str(tmp_path / "missing.csv"), "--column", "v",
            "--lookback", "8", "--horizon", "4",
        ])
        assert rc == EXIT_IO

    def test_missing_required_flags(self, tmp_path, capsys):
        rc = main(["run", "--data", "x.csv"])
        assert rc == EXIT_VALIDATION

    @pytest.mark.parametrize("values, flags, message", [
        (np.full(900, 50.0),
         ["--lr", "0.5", "--warm-epochs", "0", "--lookback", "20", "--horizon", "10"],
         r"non-finite training loss at t=\d+"),
        (spiked(409, 1.4e154), ["--forecaster", "naive", "--warm-epochs", "1", "--lookback", "8",
                                "--horizon", "4"], "non-finite mse at t=400"),
        (spiked(302, 1e155), ["--forecaster", "naive", "--warm-epochs", "1", "--no-evolution",
                              "--lookback", "8", "--horizon", "4"],
         "non-finite window signature at t=300"),
        (spiked(298, 1e155), ["--forecaster", "naive", "--warm-epochs", "1", "--lookback", "8",
                              "--horizon", "4"],
         "non-finite training loss at t=287 in warm-up epoch 1"),
        (spiked(1199, 1e155), ["--forecaster", "naive", "--warm-epochs", "1", "--lookback", "8",
                               "--horizon", "4"],
         "non-finite window signature at t=1188"),
        (spiked(1000, 1e150), ["--forecaster", "naive", "--warm-epochs", "1", "--lookback", "8",
                               "--horizon", "4", "--score", "mle"],
         re.escape("non-finite likelihood score for (1.25e+149, 3.307189138830738e+149)"
                   " under (0.0, 0.0) at t=996")),
        (np.concatenate([np.zeros(300), np.arange(900) // 4 % 2 * 5e153]),
         ["--forecaster", "naive", "--warm-epochs", "1", "--lookback", "8", "--horizon", "4"],
         "non-finite mean mse over 223 online steps"),
        (np.full(900, 50.0),
         ["--lr", "0.5", "--warm-epochs", "1", "--lookback", "20", "--horizon", "10"],
         "non-finite training loss at t=42 in warm-up epoch 1"),
    ], ids=["diverging-trained-step", "abandoned-step-spike", "overflowing-spread",
            "warm-truth-spike", "last-truth-spike", "mle-retrieval-overflow",
            "mean-mse-overflow", "diverging-warm-up"])
    def test_numeric_failure_prints_only_its_error_line(self, tmp_path, values, flags, message):
        # With no warm-up, the raw level-50 windows at lr 0.5 first blow the
        # linear weights up in a trained online step; with one, in the warm-up.
        # A finite spike whose square overflows fails the abandoned step's mse at
        # t=400, or, at 1e155, the std of online step t=300's input window. At
        # row 298 it lies only in warm ground truths, first in t=287's; at row
        # 1199, only in the ground truth of the last step, t=1188. At 1e150 in
        # row 1000, the likelihood score of t=996's window overflows in retrieval.
        # On the online square wave of 5e153 every step's MSE (2.5e307) is
        # finite, but their sum, and so np.mean, overflows.
        write_column_csv(tmp_path / "in.csv", values, "v")
        proc = run_cli_process("run", "--data", tmp_path / "in.csv", "--column", "v",
                               "--out", tmp_path / "out", *flags)
        assert proc.returncode == EXIT_RUNTIME
        assert re.fullmatch(f"error: {message}\n", proc.stderr), proc.stderr
        assert proc.stdout == ""
        assert not (tmp_path / "out" / "results.json").exists()

    def test_online_moments_overflow_names_its_step(self, tmp_path):
        # a ramp to 3e154 in the online stage: with a one-value scope, a trained
        # step's window mean first overflows the seed entry's global moments
        values = np.concatenate([np.zeros(1000), np.linspace(0, 3e154, 201)[1:]])
        write_column_csv(tmp_path / "in.csv", values)
        (tmp_path / "c.cfg").write_text("scope_s = 1\n")
        proc = run_cli_process(
            "run", "--data", tmp_path / "in.csv", "--column", "value", "--lookback", "8",
            "--horizon", "4", "--forecaster", "naive", "--warm-epochs", "1", "--no-evolution",
            "--no-abandonment", "--config", tmp_path / "c.cfg", "--out", tmp_path / "out")
        assert proc.returncode == EXIT_RUNTIME
        assert proc.stderr == ("error: global moments overflow absorbing a window mean of "
                               "1.3800000000000002e+154 at t=1084\n")
        assert not (tmp_path / "out" / "results.json").exists()

    @pytest.mark.parametrize("where, bad", [
        ("config", "hidden = none"),
        ("config", "tau_mu = none"),
        ("config", "has_header = none"),
        ("manifest", {"lookback": "10"}),
        ("manifest", {"cep": {"tau_mu": "3"}}),
        ("manifest", {"forecaster": "arima"}),
        ("concept", {"level": float("nan")}),
        ("concept", {"level": "abc"}),
        ("manifest", {"lr_raw": float("nan")}),
        ("manifest", {"lr_raw": float("inf")}),
        ("manifest", {"data": {"kind": "csv", "path": "x.csv", "column": "v",
                               "has_header": "false"}}),
        ("manifest", {"data": {"kind": "csv", "path": "x.csv", "column": 3}}),
        # integers no float can hold, for float-typed settings
        ("manifest", {"lr_raw": 10**400}),
        ("manifest", {"cep": {"tau_mu": 10**400}}),
        ("concept", {"amplitude": 10**400}),
        ("spec", {"level": 10**400}),
    ])
    def test_bad_config_values(self, tmp_path, capsys, where, bad):
        if where == "config":
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"data = x.csv\nlookback = 16\nhorizon = 8\n{bad}\n")
            argv = ["run", "--config", str(cfg)]
        elif where == "spec":
            spec = {"concepts": [{"level": 0.0, **bad}], "schedule": [[0, 400]]}
            (tmp_path / "spec.json").write_text(json.dumps(spec))
            argv = ["generate", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "g")]
        else:
            manifest = synthetic_manifest().to_dict()
            if where == "manifest":
                manifest.update(bad)
            else:
                manifest["data"]["concepts"][0].update(bad)
            (tmp_path / "m.json").write_text(json.dumps(manifest))
            argv = ["run", "--manifest", str(tmp_path / "m.json")]
        assert main(argv) == EXIT_VALIDATION
        [line] = capsys.readouterr().err.splitlines()
        key, value = bad.split(" = ") if where == "config" else list(bad.items())[-1]
        while isinstance(value, dict):  # the bad field is the last key of a nested object
            key, value = list(value.items())[-1]
        assert line.startswith("error: ") and key in line

    @pytest.mark.parametrize("field", ["tau_mu", "tau_e"])
    @pytest.mark.parametrize("where", ["manifest", "config"])
    def test_an_infinite_threshold_exits_2(self, tmp_path, capsys, where, field):
        # json.dumps writes inf as the bare token Infinity, which a strict parser
        # refuses; a config file's 1e400 reads as the same inf
        if where == "manifest":
            manifest = synthetic_manifest().to_dict()
            manifest["cep"][field] = math.inf
            (tmp_path / "m.json").write_text(json.dumps(manifest))
            argv = ["run", "--manifest", str(tmp_path / "m.json")]
        else:
            values, _ = generate(spec_from_dict(synthetic_manifest().data))
            write_column_csv(tmp_path / "in.csv", values)
            (tmp_path / "run.cfg").write_text(f"{field} = 1e400\n")
            argv = ["run", "--config", str(tmp_path / "run.cfg"), "--data",
                    str(tmp_path / "in.csv"), "--lookback", "16", "--horizon", "8"]
        assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {field} must be in (0, inf), got inf\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("where", ["manifest", "config"])
    def test_any_t_lr_runs(self, tmp_path, capsys, where):
        # an LR schedule longer than any float: each tick grows the rate by 1.0
        if where == "manifest":
            manifest = synthetic_manifest().to_dict()
            manifest["cep"]["t_lr"] = 10**400
            (tmp_path / "m.json").write_text(json.dumps(manifest))
            argv = ["run", "--manifest", str(tmp_path / "m.json")]
        else:
            values, _ = generate(spec_from_dict(synthetic_manifest().data))
            write_column_csv(tmp_path / "in.csv", values)
            (tmp_path / "run.cfg").write_text(f"t_lr = 1{'0' * 400}\n")
            argv = ["run", "--config", str(tmp_path / "run.cfg"), "--data",
                    str(tmp_path / "in.csv"), "--lookback", "16", "--horizon", "8"]
        assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_OK
        assert capsys.readouterr().err == ""
        saved = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert saved["cep"]["t_lr"] == 10**400

    def test_json_integer_over_the_digit_limit(self, tmp_path, capsys):
        # json.load raises a bare ValueError on an int past sys.get_int_max_str_digits()
        (tmp_path / "m.json").write_text('{"lookback": 1' + "0" * 5000 + "}")
        assert main(["run", "--manifest", str(tmp_path / "m.json")]) == EXIT_VALIDATION
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {tmp_path / 'm.json'}: not valid JSON: ")

    @pytest.mark.parametrize("argv", [
        ["run", "--manifest", "DEEP", "--out", "OUT"],
        ["compare", "DEEP", "MANIFEST", "--out", "OUT"],
        ["generate", "--spec", "DEEP", "--out", "OUT"],
        ["purity", "--results", "DEEP", "--labels", "LABELS"],
    ], ids=["run", "compare", "generate", "purity"])
    def test_deeply_nested_json_exits_2(self, tmp_path, capsys, argv):
        # json.load raises RecursionError, not ValueError, past the recursion limit
        (tmp_path / "deep.json").write_text("[" * 100_000)
        save_manifest(synthetic_manifest(), tmp_path / "m.json")
        write_column_csv(tmp_path / "labels.csv", np.zeros(3), "label", "%d")
        paths = {"DEEP": tmp_path / "deep.json", "OUT": tmp_path / "out",
                 "MANIFEST": tmp_path / "m.json", "LABELS": tmp_path / "labels.csv"}
        assert main([str(paths.get(a, a)) for a in argv]) == EXIT_VALIDATION
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {tmp_path / 'deep.json'}: not valid JSON: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, message", [
        (["generate", "--noise", "1e308"], r"point \d+ of concept \d is -?inf"),
        (["generate", "--spec", "SPEC"], "point 4 of concept 0 is inf"),
        (["run", "--manifest", "MANIFEST"], "point 4 of concept 0 is inf"),
    ], ids=["noise", "spec", "manifest"])
    def test_an_overflowing_synthetic_stream_exits_3(self, tmp_path, argv, message):
        # 1e308 + 1e308 * sin(2 pi i / 24) first passes the largest float at i = 4,
        # and noise of sigma 1e308 draws past it; numpy's own warning never prints
        spec = {"concepts": [{"level": 1e308, "amplitude": 1e308}], "schedule": [[0, 2000]]}
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        manifest = {"data": {"kind": "synthetic", **spec}, "lookback": 8, "horizon": 4}
        (tmp_path / "m.json").write_text(json.dumps(manifest))
        paths = {"SPEC": tmp_path / "spec.json", "MANIFEST": tmp_path / "m.json"}
        proc = run_cli_process(*(paths.get(a, a) for a in argv), "--out", tmp_path / "out")
        assert proc.returncode == EXIT_RUNTIME
        assert re.fullmatch(f"error: synthetic stream overflows: {message}\n", proc.stderr), \
            proc.stderr
        assert proc.stdout == ""
        assert not (tmp_path / "out").exists()

    def test_a_finite_stream_whose_moments_overflow_is_written_quietly(self, tmp_path):
        # every point is 1e308, but the sum behind a concept's summary mean overflows
        spec = {"concepts": [{"level": 1e308, "amplitude": 0.0}], "schedule": [[0, 2000]]}
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        proc = run_cli_process("generate", "--spec", tmp_path / "spec.json",
                               "--out", tmp_path / "out")
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        assert np.array_equal(load_csv(tmp_path / "out" / "values.csv", "value"),
                              np.full(2000, 1e308))

    @pytest.mark.parametrize("column", ["²", "①", "--1"])
    @pytest.mark.parametrize("has_header", [True, False], ids=["header", "headerless"])
    @pytest.mark.parametrize("route", ["flag", "config", "manifest", "compare"])
    def test_a_column_reference_that_is_no_index_exits_4(self, tmp_path, capsys, route,
                                                         has_header, column):
        # "²" and "①" are digits but not decimal, "--1" has two signs: int() refuses all three
        path = tmp_path / "in.csv"
        path.write_text(("a,b\n" if has_header else "") + "1,2\n" * 400)
        if route == "flag":
            argv = ["run", "--data", str(path), f"--column={column}", "--lookback", "8",
                    "--horizon", "4", *([] if has_header else ["--no-header"])]
        elif route == "config":
            (tmp_path / "run.cfg").write_text(
                f"data = {path}\ncolumn = {column}\nhas_header = {has_header}\n"
                "lookback = 8\nhorizon = 4\n")
            argv = ["run", "--config", str(tmp_path / "run.cfg")]
        else:
            data = {"kind": "csv", "path": str(path), "column": column, "has_header": has_header}
            (tmp_path / "m.json").write_text(json.dumps({"data": data, "lookback": 8,
                                                         "horizon": 4}))
            manifest = str(tmp_path / "m.json")
            argv = ["run", "--manifest", manifest] if route == "manifest" else [
                "compare", manifest, manifest]
        assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_IO
        message = (f"column {column!r} not found; available: ['a', 'b']" if has_header
                   else f"headerless file needs a zero-based column index, got {column!r}")
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["generate", "run-manifest", "run-hidden"])
    def test_a_size_numpy_refuses_exits_2(self, tmp_path, capsys, command):
        # 2**62 float64 values exceed numpy's limit on an array's bytes, so it
        # refuses before allocating anything
        huge = 2**62
        spec = {"concepts": [{"level": 0.0}], "schedule": [[0, huge]]}
        if command == "generate":
            (tmp_path / "spec.json").write_text(json.dumps(spec))
            argv = ["generate", "--spec", str(tmp_path / "spec.json")]
            named = f"schedule must fit in memory, got {huge} points"
        elif command == "run-manifest":
            manifest = {"data": {"kind": "synthetic", **spec}, "lookback": 8, "horizon": 4}
            (tmp_path / "m.json").write_text(json.dumps(manifest))
            argv = ["run", "--manifest", str(tmp_path / "m.json")]
            named = f"schedule must fit in memory, got {huge} points"
        else:
            write_column_csv(tmp_path / "in.csv", np.zeros(400))
            argv = ["run", "--data", str(tmp_path / "in.csv"), "--lookback", "8", "--horizon",
                    "4", "--forecaster", "mlp", "--hidden", str(huge)]
            named = f"hidden must fit in memory, got {huge}"
        assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err == f"error: {named}\n"
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [10**400, -10**400, 2**62, math.inf, -math.inf, math.nan],
                             ids=["1e400", "-1e400", "2^62", "inf", "-inf", "nan"])
    @pytest.mark.parametrize("path", NUMERIC_FIELDS, ids=lambda path: ".".join(map(str, path)))
    def test_no_numeric_setting_ends_in_a_traceback(self, tmp_path, capsys, path, value):
        manifest = synthetic_manifest(forecaster="mlp" if path == ("hidden",) else "linear",
                                      warm_epochs=1).to_dict()
        manifest["data"]["schedule"] = [[0, 150], [1, 150]]
        target = manifest
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        (tmp_path / "m.json").write_text(json.dumps(manifest))
        rc = main(["run", "--manifest", str(tmp_path / "m.json"), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc in (EXIT_OK, EXIT_VALIDATION, EXIT_RUNTIME, EXIT_IO)
        assert err.count("error:") <= 1 and "Traceback" not in err

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("where, path", [
        *(("manifest", path) for path in FLOAT_FIELDS),
        *(("config", (key,)) for key, (kind, _) in CONFIG_TYPES.items() if kind is float),
    ], ids=lambda p: p if isinstance(p, str) else ".".join(map(str, p)))
    def test_a_non_finite_float_exits_2(self, tmp_path, capsys, where, path, value):
        # json.dumps writes each as a bare token (Infinity, -Infinity, NaN) that
        # json.load reads back; a config file's float() reads the text as written
        if where == "manifest":
            manifest = synthetic_manifest().to_dict()
            target = manifest
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = float(value)
            (tmp_path / "m.json").write_text(json.dumps(manifest))
            argv = ["run", "--manifest", str(tmp_path / "m.json")]
        else:
            write_column_csv(tmp_path / "in.csv", np.zeros(400))
            (tmp_path / "run.cfg").write_text(f"{path[-1]} = {value}\n")
            argv = ["run", "--config", str(tmp_path / "run.cfg"), "--data",
                    str(tmp_path / "in.csv"), "--lookback", "16", "--horizon", "8"]
        assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
        [line] = capsys.readouterr().err.splitlines()
        assert re.match(rf"error: (bad synthetic spec: )?{path[-1]} must be ", line), line
        assert not (tmp_path / "out").exists()

    def test_overflowing_moments(self, tmp_path, capsys):
        # a constant 1e200 stream: (mu - x) ** 2 overflows in the global moments
        write_column_csv(tmp_path / "const.csv", np.full(800, 1e200))
        rc = main([
            "run", "--data", str(tmp_path / "const.csv"), "--column", "value",
            "--lookback", "8", "--horizon", "4", "--forecaster", "naive", "--warm-epochs", "1",
        ])
        assert rc == EXIT_RUNTIME
        assert "overflow" in capsys.readouterr().err

    def test_normalize_overflow(self, tmp_path, capsys):
        # finite values whose spread overflows: std = inf would scale them all to 0
        write_column_csv(tmp_path / "alt.csv", np.tile([1e200, -1e200], 400))
        rc = main([
            "run", "--data", str(tmp_path / "alt.csv"), "--column", "value",
            "--lookback", "8", "--horizon", "4", "--normalize", "warm_segment",
        ])
        assert rc == EXIT_RUNTIME
        assert "warm_segment segment moments overflow" in capsys.readouterr().err

    def test_non_integer_labels(self, tmp_path, capsys):
        save_manifest(synthetic_manifest(), tmp_path / "m.json")
        assert main(["run", "--manifest", str(tmp_path / "m.json"),
                     "--out", str(tmp_path)]) == EXIT_OK
        labels = load_csv(tmp_path / "labels.csv", "label")
        (tmp_path / "whole.csv").write_text("label\n" + "".join(f"{v:.1f}\n" for v in labels))
        (tmp_path / "frac.csv").write_text("label\n" + "".join(f"{v - 0.1}\n" for v in labels))
        argv = ["purity", "--results", str(tmp_path / "results.json"), "--labels"]
        assert main(argv + [str(tmp_path / "whole.csv")]) == EXIT_OK  # 1.0 is integral
        capsys.readouterr()
        assert main(argv + [str(tmp_path / "frac.csv")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == f"error: {tmp_path / 'frac.csv'}: labels must be integers, got -0.1\n"

    @pytest.mark.parametrize("scale", [1e19, -1e19])
    def test_labels_beyond_int64(self, scale, tmp_path, capsys):
        save_manifest(synthetic_manifest(), tmp_path / "m.json")
        assert main(["run", "--manifest", str(tmp_path / "m.json"),
                     "--out", str(tmp_path)]) == EXIT_OK
        # integral, but past int64: each concept would cast to -2**63 and score purity 1
        huge = ((load_csv(tmp_path / "labels.csv", "label") + 1) * scale).tolist()
        (tmp_path / "huge.csv").write_text("label\n" + "".join(f"{v!r}\n" for v in huge))
        capsys.readouterr()
        assert main(["purity", "--results", str(tmp_path / "results.json"),
                     "--labels", str(tmp_path / "huge.csv")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == (f"error: {tmp_path / 'huge.csv'}: labels must fit a 64-bit integer, "
                       f"got {huge[0]!r}\n")

    @pytest.mark.parametrize("where, content, argv", [
        ("csv", b"value\n\xff\n1.0\n",
         ["run", "--data", "BAD", "--column", "value", "--lookback", "8", "--horizon", "4"]),
        ("config", b"data = x.csv\n# \xff\n", ["run", "--config", "BAD"]),
        ("manifest", b'{"\xff": 1}', ["run", "--manifest", "BAD"]),
        ("spec", b'{"\xff": 1}', ["generate", "--spec", "BAD", "--out", "OUT"]),
        ("labels", b"label\n\xff\n", ["purity", "--results", "RESULTS", "--labels", "BAD"]),
    ], ids=["csv", "config", "manifest", "spec", "labels"])
    def test_undecodable_input_file(self, tmp_path, capsys, where, content, argv):
        (tmp_path / "bad").write_bytes(content)
        if where == "labels":  # purity needs a real bundle before it reads the labels
            save_manifest(synthetic_manifest(), tmp_path / "m.json")
            rc = main(["run", "--manifest", str(tmp_path / "m.json"), "--out", str(tmp_path)])
            assert rc == EXIT_OK
        paths = {"BAD": tmp_path / "bad", "OUT": tmp_path / "g",
                 "RESULTS": tmp_path / "results.json"}
        argv = [str(paths.get(a, a)) for a in argv]
        assert main(argv) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'bad'}: not UTF-8 text: ")

    @pytest.mark.parametrize("where, argv", [
        ("csv", ["run", "--data", "BAD", "--column", "value", "--lookback", "8",
                 "--horizon", "4"]),
        ("labels", ["purity", "--results", "RESULTS", "--labels", "BAD"]),
    ], ids=["csv", "labels"])
    def test_bad_csv_cell_names_the_file(self, tmp_path, capsys, where, argv):
        (tmp_path / "bad").write_text(f"{'value' if where == 'csv' else 'label'}\n1\nabc\n")
        if where == "labels":  # purity needs a real bundle before it reads the labels
            save_manifest(synthetic_manifest(), tmp_path / "m.json")
            rc = main(["run", "--manifest", str(tmp_path / "m.json"), "--out", str(tmp_path)])
            assert rc == EXIT_OK
        paths = {"BAD": tmp_path / "bad", "RESULTS": tmp_path / "results.json"}
        assert main([str(paths.get(a, a)) for a in argv]) == EXIT_IO
        err = capsys.readouterr().err
        assert err == f"error: {tmp_path / 'bad'}: row 3: cannot parse 'abc' as a number\n"

    @pytest.mark.parametrize("cell", ["1" * 200_000, '"' + "1" * 200_000 + '"'],
                             ids=["plain", "quoted"])
    def test_over_long_cell_prints_only_its_error_line(self, tmp_path, cell):
        (tmp_path / "in.csv").write_text(f"value\n{cell}\n2\n")
        proc = run_cli_process("run", "--data", tmp_path / "in.csv", "--column", "value",
                               "--lookback", "8", "--horizon", "4", "--out", tmp_path / "out")
        assert proc.returncode == EXIT_IO
        assert proc.stderr == (f"error: {tmp_path / 'in.csv'}: row 2: "
                               f"field larger than field limit ({csv.field_size_limit()})\n")
        assert not (tmp_path / "out" / "results.json").exists()

    @pytest.mark.parametrize("argv", [
        ["run", "--forecaster", "mlp", "--hidden", "-1"],
        ["run", "--forecaster", "mlp", "--hidden", "0"],
        ["run", "--forecaster", "mlp", "--seed", "-1"],
        ["run", "--forecaster", "linear", "--seed", "-1"],
    ])
    def test_bad_model_flags(self, tmp_path, capsys, argv):
        argv += ["--data", "x.csv", "--column", "value", "--lookback", "8", "--horizon", "4"]
        assert main(argv) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: ")

    def test_negative_generate_seed(self, tmp_path, capsys):
        assert main(["generate", "--seed", "-1", "--out", str(tmp_path / "g")]) == EXIT_VALIDATION
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"concepts": [{"level": 0.0}], "schedule": [[0, 10]]}))
        rc = main(["generate", "--spec", str(spec), "--seed", "-1", "--out", str(tmp_path / "g")])
        assert rc == EXIT_VALIDATION
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize("bundle", [
        {"records": []},
        {"manifest": {"lookback": 8, "cep": {"tau_safe": 1}}, "records": [{"t": 0}]},
        {"manifest": {"lookback": 8, "cep": {"tau_safe": 1}},
         "records": [{"t": 0, "entry_id": "0"}]},
        {"manifest": {"lookback": "8", "cep": {"tau_safe": 1}}, "records": []},
        {"manifest": {"lookback": 8, "cep": []}, "records": []},
        {"manifest": {"lookback": 8, "cep": {"tau_safe": 1}}, "records": 3},
        [],
        {"manifest": {"lookback": 8, "cep": {"tau_safe": 1}},
         "records": [{"t": -10, "entry_id": 0}]},
        {"manifest": {"lookback": 0, "cep": {"tau_safe": 1}},
         "records": [{"t": 0, "entry_id": 0}]},
    ])
    def test_bundle_without_purity_fields(self, tmp_path, capsys, bundle):
        (tmp_path / "results.json").write_text(json.dumps(bundle))
        (tmp_path / "labels.csv").write_text("label\n0\n")
        rc = main(["purity", "--results", str(tmp_path / "results.json"),
                   "--labels", str(tmp_path / "labels.csv")])
        assert rc == EXIT_VALIDATION
        assert "not a results bundle" in capsys.readouterr().err

    def test_malformed_generate_spec(self, tmp_path, capsys):
        bad = tmp_path / "spec.json"
        bad.write_text(json.dumps({"concepts": [{"level": 0.0}], "schedule": [[0, 0]]}))
        rc = main(["generate", "--spec", str(bad), "--out", str(tmp_path / "o")])
        assert rc == EXIT_VALIDATION

    @pytest.mark.parametrize("change", [
        {"seed": 1.5}, {"seed": True}, {"seed": "1"}, {"schedule": [[0, 400.9]]},
        {"schedule": [[0, "400"]]}, {"extra_key": 1},
    ], ids=["seed-float", "seed-bool", "seed-str", "duration-float", "duration-str",
            "unknown-key"])
    def test_synthetic_spec_is_not_truncated(self, tmp_path, capsys, change):
        # truncated or ignored, each would run seed 1 over 400 points under its own hash
        spec = {"concepts": [{"level": 0.0}], "schedule": [[0, 400]], "seed": 1, **change}
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        manifest = {"data": {"kind": "synthetic", **spec}, "lookback": 8, "horizon": 4}
        (tmp_path / "m.json").write_text(json.dumps(manifest))
        for argv in (["generate", "--spec", str(tmp_path / "spec.json")],
                     ["run", "--manifest", str(tmp_path / "m.json")]):
            assert main([*argv, "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
            assert capsys.readouterr().err.startswith("error: bad synthetic spec: ")
        assert not (tmp_path / "o").exists()

    def test_log_env_var_smoke(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("DRIFTPOOL_LOG", "debug")
        manifest = synthetic_manifest()
        save_manifest(manifest, tmp_path / "m.json")
        assert main(["run", "--manifest", str(tmp_path / "m.json")]) == EXIT_OK


class TestAblationFlags:
    def run_flags(self, tmp_path, *flags):
        from driftpool.cli import cmd_generate as gen

        gen(default_stream_spec(noise_sigma=0.2, seed=1, segment=300), tmp_path / "d")
        out = tmp_path / "out"
        rc = main([
            "run", "--data", str(tmp_path / "d" / "values.csv"), "--column", "value",
            "--lookback", "16", "--horizon", "8", "--forecaster", "naive",
            "--warm-epochs", "1", "--out", str(out), *flags,
        ])
        return rc, out

    def test_switches_land_in_manifest(self, tmp_path, capsys):
        rc, out = self.run_flags(
            tmp_path, "--no-elimination", "--no-abandonment", "--no-lr-adjust",
            "--local-only", "--score", "mle", "--max-pool", "4",
        )
        assert rc == EXIT_OK
        cep = read_bundle(out / "results.json")["manifest"]["cep"]
        assert cep["elimination"] is False
        assert cep["gradient_abandonment"] is False
        assert cep["optimizer_adjustment"] is False
        assert cep["use_global_gene"] is False
        assert cep["retrieval_score"] == "mle"
        assert cep["max_pool_size"] == 4

    def test_flags_set_their_config_keys(self):
        from driftpool.cli import _manifest_from_args, build_parser

        args = build_parser().parse_args([
            "run", "--data", "x.csv", "--lookback", "8", "--horizon", "4", "--no-header",
            "--no-evolution", "--global-only", "--lr", "0.5",
        ])
        d = _manifest_from_args(args).to_dict()
        assert d["data"]["has_header"] is False
        assert d["lr_raw"] == 0.5
        assert d["cep"]["evolution"] is False
        assert d["cep"]["use_local_gene"] is False
        assert d["cep"]["use_global_gene"] is True

    def test_both_gene_parts_off_rejected(self, tmp_path, capsys):
        rc, _ = self.run_flags(tmp_path, "--local-only", "--global-only")
        assert rc == EXIT_VALIDATION
        assert "use_local_gene" in capsys.readouterr().err
