"""Ingestion, synthetic generation, and normalization tests."""

import csv
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftpool import data
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
from driftpool.errors import DriftpoolError, FileFormatError, NumericError, ValidationError


def read_csv_text(path):
    """The text ``load_csv`` parses: the file's characters, line ends as written."""
    with data.open_text(path, newline="") as fh:
        return fh.read()


def load_checked(path, column, has_header=True):
    """``load_csv`` through the checked loop alone, the bulk parse left out."""
    path = Path(path)
    return data._checked_column(path, read_csv_text(path), column, has_header)


def outcome(load, *args):
    """What a load gives: the array's dtype, shape and bytes, or the error's type and text."""
    try:
        values = load(*args)
    except DriftpoolError as exc:
        return type(exc), str(exc)
    return values.dtype, values.shape, values.tobytes()


# Cells around the edges of float(): Unicode whitespace (U+001C passes str.strip
# but not float), underscores, overflow, non-finite words, text, an embedded
# comma or quote, and a finite number longer than the test's field limit of 40.
SPACES = ["", " ", "\t", "\u00a0", "\u2003", "\u3000", "\x1c"]
ODD_CELLS = ["1_000", "1__0", "1e999", "-1e999", "nan", "inf", "-Infinity", "abc", "", "  ",
             "1,5", 'say "hi"', "0x10", "0" * 45 + "1"]


@st.composite
def csv_files(draw):
    """(text, column, has_header) as a spreadsheet, a script or a hand could have
    written it: mostly finite numbers in rows as wide as the header, so that many
    texts load."""
    has_header = draw(st.booleans())
    quoting = draw(st.sampled_from([False, False, True]))
    ending = draw(st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"]))
    number = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                       st.integers(-10**20, 10**20).map(str))
    padded = st.builds(lambda a, n, b: a + n + b,
                       st.sampled_from(SPACES), number, st.sampled_from(SPACES))
    odd = st.sampled_from(ODD_CELLS) if draw(st.booleans()) else number
    cell = st.one_of(*[number] * 4, padded, odd)

    def render(c):
        quote = quoting and draw(st.booleans())
        return '"' + c.replace('"', '""') + '"' if quote else c

    width = draw(st.integers(1, 3))
    header = draw(st.lists(st.sampled_from(["v", "a", " v ", "", "0", "1"]),
                           min_size=width, max_size=width))
    row = st.one_of(*[st.lists(cell, min_size=width, max_size=width)] * 3,
                    st.lists(cell, max_size=3))
    with_header_row = has_header if draw(st.integers(0, 3)) else not has_header
    rows = ([header] if with_header_row else []) + draw(st.lists(row, max_size=8))
    lines = [",".join(render(c) for c in r) for r in rows]
    text = ending.join(lines) + (ending if draw(st.booleans()) else "")
    text = ("\ufeff" if draw(st.booleans()) else "") + text
    column = draw(st.one_of(st.sampled_from(header).map(str.strip),
                            st.sampled_from(["0", "1", "2", "-1", "x", "²", "①", "--1"])))
    return text, column, has_header


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
        with pytest.raises(FileFormatError, match=r"'z' not found.*\['a', 'b'\]"):
            load_csv(path, "z")

    def test_parse_error_cites_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = ["v"] + ["1.5"] * 5 + ["abc", "2.5"]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(FileFormatError, match="row 7.*'abc'"):
            load_csv(path, "v")

    def test_non_finite_value_rejected(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("v\n1.0\ninf\n")
        with pytest.raises(FileFormatError, match="row 3"):
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
        with pytest.raises(FileFormatError, match="zero-based"):
            load_csv(path, "value", has_header=False)

    @pytest.mark.parametrize("column", ["²", "①", "--1", "-1", "1" * 5000])
    @pytest.mark.parametrize("has_header", [True, False], ids=["header", "headerless"])
    def test_a_reference_that_is_no_column(self, tmp_path, column, has_header):
        # an index is an optional "-" and decimal digits, which "²" and "①" (digits,
        # not decimal) and "--1" are not; int() refuses 5,000 digits; -1 is below 0
        path = tmp_path / "two.csv"
        path.write_text("a,b\n1,2\n" if has_header else "1,2\n")
        if has_header:
            message = f"{path}: column {column!r} not found; available: ['a', 'b']"
        elif column == "-1":
            message = f"{path}: column index must be >= 0, got -1"
        else:
            message = f"{path}: headerless file needs a zero-based column index, got {column!r}"
        with pytest.raises(FileFormatError, match=f"^{re.escape(message)}$"):
            load_csv(path, column, has_header)

    def test_a_header_name_of_any_length_is_found(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text("1" * 5000 + ",b\n1,2\n")
        assert np.array_equal(load_csv(path, "1" * 5000), [1.0])

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
        with pytest.raises(FileFormatError, match="row 3"):
            load_csv(path, "b")

    @pytest.mark.parametrize("body", ["value\n1\n2\n", '"value"\n"1"\n2\n'],
                             ids=["plain", "quoted"])
    def test_byte_order_mark_is_dropped(self, tmp_path, body):
        path = tmp_path / "excel.csv"
        path.write_text("\ufeff" + body, encoding="utf-8")
        assert np.array_equal(load_csv(path, "value"), [1.0, 2.0])

    @pytest.mark.parametrize("body", ["value\n1\n2\n", 'value\n"1"\n2\n'],
                             ids=["plain", "quoted"])
    def test_only_one_byte_order_mark_is_dropped(self, tmp_path, body):
        # a second mark is text, part of the header name
        path = tmp_path / "twice.csv"
        path.write_text("\ufeff\ufeff" + body, encoding="utf-8")
        available = "available: " + repr(["\ufeffvalue"])
        with pytest.raises(FileFormatError, match=re.escape(available)):
            load_csv(path, "value")
        assert np.array_equal(load_csv(path, "\ufeffvalue"), [1.0, 2.0])

    @pytest.mark.parametrize("text, column, has_header", [
        ("value\n1.5\n-2\n 3 \n1_000\n\u20034e-3\u2003\n1e308\n", "value", True),
        ("a,b\n1,2\n3,4,5\n", "b", True),
        ("7\n8", "0", False),
        ("value\n", "value", True),
    ], ids=["one-column", "wide-row", "headerless-no-final-newline", "header-only"])
    def test_plain_text_is_parsed_in_bulk(self, tmp_path, text, column, has_header):
        path = tmp_path / "plain.csv"
        path.write_text(text, encoding="utf-8")
        bulk = data._plain_column(path, read_csv_text(path), column, has_header)
        assert bulk is not None
        assert outcome(lambda: bulk) == outcome(load_checked, path, column, has_header)

    @settings(max_examples=500, deadline=None)
    @given(csv_files())
    @example(("v\n" + "1" * 41 + "\n2\n", "v", True))
    @example(('v\n"' + "1" * 41 + '"\n2\n', "v", True))
    @example(("v\n0.5\n\n \n2\n", "v", True))
    @example(("v\r\n1\r2\n", "0", True))
    @example(('a,b,c\n"x,y",2,3\n', "c", True))  # a quoted comma shifts the split
    @example(("\n1\n", "", True))  # csv reads a blank first line as no cells, not one
    def test_load_matches_the_checked_loop(self, file):
        text, column, has_header = file
        limit = csv.field_size_limit(40)
        try:
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "in.csv"
                path.write_text(text, encoding="utf-8", newline="")
                assert (outcome(load_csv, path, column, has_header)
                        == outcome(load_checked, path, column, has_header))
        finally:
            csv.field_size_limit(limit)


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

    @pytest.mark.parametrize("key, value, message", [
        ("seed", 1.5, "seed must be int, got 1.5"),
        ("seed", True, "seed must be int, got True"),
        ("seed", "1", "seed must be int, got '1'"),
        ("seed", None, "seed must be int, got None"),
        ("schedule", [[0, 400.9]], "segment duration must be int, got 400.9"),
        ("schedule", [[0, "400"]], "segment duration must be int, got '400'"),
        ("schedule", [[0.0, 400]], "schedule index must be int, got 0.0"),
        ("schedule", [[False, 400]], "schedule index must be int, got False"),
    ], ids=["seed-float", "seed-bool", "seed-str", "seed-null", "duration-float",
            "duration-str", "index-float", "index-bool"])
    def test_spec_ints_are_checked_not_truncated(self, key, value, message):
        d = {"concepts": [{"level": 0.0}], "schedule": [[0, 400]], "seed": 1, key: value}
        with pytest.raises(ValidationError,
                           match=f"^{re.escape('bad synthetic spec: ' + message)}$"):
            spec_from_dict(d)

    @pytest.mark.parametrize("d, message", [
        ({"concepts": [{"level": 0.0}], "schedule": [[0, 400]], "extra_key": 1},
         r"unknown keys \['extra_key'\]"),
        ([], "'list' object has no attribute 'keys'"),
        ({"kind": "csv", "concepts": [{"level": 0.0}], "schedule": [[0, 10]]},
         "kind must be 'synthetic', got 'csv'"),
    ], ids=["unknown-key", "not-an-object", "other-kind"])
    def test_spec_has_only_its_keys(self, d, message):
        with pytest.raises(ValidationError, match=f"^bad synthetic spec: {message}"):
            spec_from_dict(d)

    def test_spec_from_dict_keeps_its_ints(self):
        d = {"kind": "synthetic", "concepts": [{"level": 0.0}], "schedule": [[0, 400]],
             "seed": 1}
        spec = spec_from_dict(d)
        assert (spec.schedule, spec.seed) == (((0, 400),), 1)
        assert spec_from_dict({k: d[k] for k in ("concepts", "schedule")}).seed == 0

    @pytest.mark.parametrize("concepts, schedule, message", [
        ([{"level": 1e308, "amplitude": 1e308}], [[0, 10]], "point 4 of concept 0 is inf"),
        ([{"level": 0.0}, {"level": -1e308, "amplitude": 1e308}], [[0, 5], [1, 20]],
         "point 16 of concept 1 is -inf"),
        ([{"level": 0.0, "noise_sigma": 1e308}], [[0, 100]], r"point \d+ of concept 0 is -?inf"),
    ], ids=["level-and-amplitude", "second-concept", "noise"])
    def test_an_overflowing_stream_is_refused(self, concepts, schedule, message):
        # each point is finite alone until level + amplitude * sin(2 pi i / 24), or
        # its noise, passes the largest float; numpy's overflow warning is kept quiet
        spec = spec_from_dict({"concepts": concepts, "schedule": schedule})
        with pytest.raises(NumericError, match=f"^synthetic stream overflows: {message}$"):
            generate(spec)

    @pytest.mark.parametrize("error", [ValueError("array is too big"), MemoryError()])
    def test_a_schedule_numpy_cannot_allocate_is_refused(self, monkeypatch, error):
        # numpy refuses a size past its limit with ValueError before allocating, and
        # a smaller one the machine lacks with MemoryError; both are planted here
        def refuse(*args, **kwargs):
            raise error

        monkeypatch.setattr(np, "empty", refuse)
        spec = SyntheticSpec(concepts=(ConceptSpec(level=0.0),), schedule=((0, 10),))
        with pytest.raises(ValidationError, match="^schedule must fit in memory, got 10 points$"):
            generate(spec)

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
