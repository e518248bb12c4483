"""Ingestion, synthetic generation, and normalization tests."""

import numpy as np
import pytest

from driftpool.data import (
    ConceptSpec,
    SyntheticSpec,
    default_stream_spec,
    generate,
    load_csv,
    normalize,
    spec_from_dict,
    write_column_csv,
)
from driftpool.errors import ColumnNotFoundError, NumericError, RowParseError, ValidationError


class TestLoadCsv:
    def test_selects_named_column(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("a,b\n10,1\n20,2\n30,3\n")
        values = load_csv(path, "b")
        assert values.dtype == np.float64
        assert np.array_equal(values, [1.0, 2.0, 3.0])

    def test_missing_column_names_available(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ColumnNotFoundError, match=r"'z' not found.*\['a', 'b'\]"):
            load_csv(path, "z")

    def test_parse_error_cites_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = ["v"] + ["1.5"] * 5 + ["abc", "2.5"]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(RowParseError, match="row 7.*'abc'"):
            load_csv(path, "v")

    def test_non_finite_value_rejected(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("v\n1.0\ninf\n")
        with pytest.raises(RowParseError, match="row 3"):
            load_csv(path, "v")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv", "v")

    def test_headerless_index_selection(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("1,10\n2,20\n")
        values = load_csv(path, "1", has_header=False)
        assert np.array_equal(values, [10.0, 20.0])

    def test_headerless_requires_index(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("1,10\n")
        with pytest.raises(ColumnNotFoundError, match="zero-based"):
            load_csv(path, "value", has_header=False)

    def test_numeric_header_fallback_to_index(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b\n1,2\n")
        values = load_csv(path, "1")
        assert np.array_equal(values, [2.0])

    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.normal(0, 123.456, 500)
        path = tmp_path / "rt.csv"
        write_column_csv(path, values, "v")
        back = load_csv(path, "v")
        assert np.array_equal(back, values)

    def test_short_row_cites_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(RowParseError, match="row 3"):
            load_csv(path, "b")


class TestGenerate:
    def test_flat_noiseless_segment(self):
        spec = SyntheticSpec(
            concepts=(ConceptSpec(level=5.0, amplitude=0.0, period=24, noise_sigma=0.0),),
            schedule=((0, 10),),
        )
        values, labels = generate(spec)
        assert np.array_equal(values, np.full(10, 5.0))
        assert np.array_equal(labels, np.zeros(10, dtype=int))
        assert labels.dtype == np.int64

    def test_segment_means_concentrate_on_levels(self):
        for seed in range(5):
            spec = SyntheticSpec(
                concepts=(
                    ConceptSpec(level=0.0, amplitude=1.0, period=24, noise_sigma=0.1),
                    ConceptSpec(level=10.0, amplitude=1.0, period=24, noise_sigma=0.1),
                ),
                schedule=((0, 1000), (1, 1000), (0, 1000)),
                seed=seed,
            )
            values, _ = generate(spec)
            assert abs(values[:1000].mean() - 0.0) < 0.02
            assert abs(values[1000:2000].mean() - 10.0) < 0.02
            assert abs(values[2000:].mean() - 0.0) < 0.02

    def test_deterministic_per_seed(self):
        spec = default_stream_spec(seed=7)
        (a_values, a_labels), (b_values, b_labels) = generate(spec), generate(spec)
        assert np.array_equal(a_values, b_values)
        assert np.array_equal(a_labels, b_labels)
        other, _ = generate(default_stream_spec(seed=8))
        assert not np.array_equal(a_values, other)

    def test_labels_follow_schedule(self):
        spec = default_stream_spec()
        values, labels = generate(spec)
        assert len(values) == len(labels) == 18000
        expected = np.repeat([0, 1, 0, 2, 1, 0], 3000)
        assert np.array_equal(labels, expected)

    def test_spec_validation(self):
        concept = ConceptSpec(level=0.0)
        with pytest.raises(ValidationError, match="duration"):
            SyntheticSpec(concepts=(concept,), schedule=((0, 0),))
        with pytest.raises(ValidationError, match="unknown concept"):
            SyntheticSpec(concepts=(concept,), schedule=((3, 10),))
        with pytest.raises(ValidationError, match="noise_sigma"):
            SyntheticSpec(
                concepts=(ConceptSpec(level=0.0, noise_sigma=-1.0),),
                schedule=((0, 10),),
            )

    def test_negative_seed_rejected(self):
        # numpy's default_rng would raise a bare ValueError at generate()
        with pytest.raises(ValidationError, match="seed"):
            SyntheticSpec(concepts=(ConceptSpec(level=0.0),), schedule=((0, 10),), seed=-1)

    @pytest.mark.parametrize("key, value", [
        ("seed", 1.5), ("seed", True), ("seed", "1"), ("seed", None),
        ("schedule", [[0, 400.9]]), ("schedule", [[0, "400"]]), ("schedule", [[0.0, 400]]),
        ("schedule", [[False, 400]]),
    ], ids=["seed-float", "seed-bool", "seed-str", "seed-null", "duration-float",
            "duration-str", "index-float", "index-bool"])
    def test_spec_ints_are_checked_not_truncated(self, key, value):
        d = {"concepts": [{"level": 0.0}], "schedule": [[0, 400]], "seed": 1, key: value}
        with pytest.raises(ValidationError, match="^bad synthetic spec: .* must be ints, got"):
            spec_from_dict(d)

    @pytest.mark.parametrize("d, message", [
        ({"concepts": [{"level": 0.0}], "schedule": [[0, 400]], "extra_key": 1},
         r"unknown keys \['extra_key'\]"),
        ([], "'list' object has no attribute 'keys'"),
    ], ids=["unknown-key", "not-an-object"])
    def test_spec_has_only_its_keys(self, d, message):
        with pytest.raises(ValidationError, match=f"^bad synthetic spec: {message}"):
            spec_from_dict(d)

    def test_spec_from_dict_keeps_its_ints(self):
        d = {"kind": "synthetic", "concepts": [{"level": 0.0}], "schedule": [[0, 400]],
             "seed": 1}
        spec = spec_from_dict(d)
        assert (spec.schedule, spec.seed) == (((0, 400),), 1)
        assert spec_from_dict({k: d[k] for k in ("concepts", "schedule")}).seed == 0

    def test_default_spec_shape(self):
        spec = default_stream_spec()
        assert spec.total_points == 18000
        assert len(spec.schedule) == 6
        assert len(spec.concepts) == 3


class TestNormalize:
    def test_whole_series_stats(self):
        out, mean, std = normalize(np.array([0.0, 0.0, 10.0, 10.0]), "whole")
        assert (mean, std) == (5.0, 5.0)
        assert np.array_equal(out, [-1.0, -1.0, 1.0, 1.0])

    def test_constant_series_rejected(self):
        with pytest.raises(ValidationError, match="zero-variance"):
            normalize(np.full(40, 3.0), "whole")

    @pytest.mark.parametrize("stats_from", ["warm_segment", "whole"])
    def test_overflowing_spread_rejected(self, stats_from):
        # finite values whose variance overflows would otherwise scale to all zeros
        values = np.tile([1e200, -1e200], 40)
        with pytest.raises(NumericError, match=f"{stats_from} segment moments overflow"):
            normalize(values, stats_from)

    def test_warm_segment_stats_leave_online_shifted(self):
        values = np.concatenate([np.zeros(100) + np.sin(np.arange(100)), np.full(300, 10.0)])
        out, mean, std = normalize(values, "warm_segment")
        online = out[100:]
        assert abs(online.mean()) > 1.0  # drift survives leakage-safe scaling

    def test_round_trip_recovers_series(self):
        rng = np.random.default_rng(1)
        values = rng.normal(3.0, 2.0, 400)
        out, mean, std = normalize(values, "whole")
        recovered = out * std + mean
        assert np.allclose(recovered, values, rtol=1e-12, atol=1e-12)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValidationError, match="stats_from"):
            normalize(np.array([1.0, 2.0]), "online")
