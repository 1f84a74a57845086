"""The JSONL readers and writer against line-at-a-time references.

`reference_read_jsonl` parses each stripped, non-blank line with json.loads,
and `reference_columns` builds a trajectory's arrays from one list of samples
per node sorted by time; the module's readers must give the same values, the
same errors and the same array bytes.
"""
import base64
import json
import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from mobman import anchoring
from mobman.anchoring import load_trajectories
from mobman.jsonl import (
    MalformedInputError,
    finite_float64,
    finite_numbers,
    finite_rows,
    float64_text,
    read_jsonl,
    write_jsonl,
)


def reference_read_jsonl(path):
    with open(path, "r", encoding="utf-8") as fh:
        for i, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedInputError(path, str(exc), i) from exc


def reference_columns(path) -> dict:
    rows: dict[str, list] = {}
    for rec in reference_read_jsonl(path):
        rows.setdefault(rec["node"], []).append(
            (float(rec["t"]), rec["pose"], float(rec.get("cov_trace", 0.0)))
        )
    out = {}
    for node, samples in rows.items():
        samples.sort(key=lambda r: r[0])
        out[node] = {
            "t": np.array([s[0] for s in samples]),
            "pos": np.array([s[1][0:3] for s in samples], dtype=float),
            "quat": np.array([s[1][3:7] for s in samples], dtype=float),
            "cov_trace": np.array([s[2] for s in samples]),
        }
    return out


def outcome(reader, path):
    """The repr of every value read before the first error, and that error's
    message and line number (None when the whole file reads)."""
    values = []
    try:
        for value in reader(path):
            values.append(repr(value))
    except MalformedInputError as exc:
        return values, (str(exc), exc.line_number)
    return values, None


# text without lone surrogates, which UTF-8 cannot encode
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),  # NaN, Infinity, -Infinity tokens
    TEXT,
)
VALUES = st.recursive(
    SCALARS,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4), st.dictionaries(TEXT, kids, max_size=4)
    ),
    max_leaves=8,
)


@st.composite
def rendered(draw) -> str:
    return json.dumps(
        draw(VALUES),
        ensure_ascii=draw(st.booleans()),
        separators=draw(st.sampled_from([None, (",", ":"), (" ,\t", " : ")])),
    )


# whitespace that str.strip removes but that does not end a line of a text
# file; only space and tab of it are JSON whitespace
PADDING = st.text(st.sampled_from(" \t\x0b\x0c\x1c\x1f\x85\xa0\u2003\u2028\u3000"), max_size=3)
MALFORMED = st.one_of(
    st.sampled_from(
        [
            '{"a": 1} x',
            "1, 2",
            '"unterminated',
            '\ufeff{"a": 1}',
            "]",
            "[1, 2",
            '{"a": }',
            '{"a": 1}{"b": 2}',
            "nan",
            "01",
            "[1,]",
            "'single'",
        ]
    ),
    # a valid value with trailing data, or cut short
    st.builds(lambda text, tail: text + tail, rendered(), st.sampled_from([" 1", "x", ",", "]"])),
    st.builds(lambda text, n: text[: max(1, len(text) - n)], rendered(), st.integers(1, 3)).filter(
        lambda text: not _parses(text)
    ),
)
LINES = st.builds(
    lambda lead, body, trail: lead + body + trail,
    PADDING,
    st.one_of(rendered(), st.just(""), MALFORMED),
    PADDING,
)


def _parses(text: str) -> bool:
    try:
        json.loads(text)
    except json.JSONDecodeError:
        return False
    return True


# every phase but explain, which can take minutes over one failing example here
PHASES = [phase for phase in Phase if phase is not Phase.explain]


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("jsonl") / "lines.jsonl"


class TestReadJsonl:
    @settings(max_examples=400, deadline=None, phases=PHASES)
    @given(line=LINES)
    def test_each_line_matches_json_loads(self, scratch, line):
        scratch.write_text(line + "\n", encoding="utf-8")
        got = outcome(read_jsonl, scratch)
        assert got == outcome(reference_read_jsonl, scratch)
        # a line the reference rejects raises at that line, and nothing else does
        assert (got[1] is None) == (not line.strip() or _parses(line.strip()))

    @settings(max_examples=150, deadline=None, phases=PHASES)
    @given(lines=st.lists(LINES, max_size=8), newline=st.sampled_from(["\n", "\r\n"]))
    def test_file_matches_line_by_line_reference(self, scratch, lines, newline):
        with open(scratch, "w", encoding="utf-8", newline="") as fh:
            fh.write("".join(line + newline for line in lines))
        assert outcome(read_jsonl, scratch) == outcome(reference_read_jsonl, scratch)

    def test_yields_each_line_before_reading_the_next(self, tmp_path):
        path = tmp_path / "two.jsonl"
        path.write_text('{"a": 1}\n\n1, 2\n')
        lines = read_jsonl(path)
        assert next(lines) == {"a": 1}
        with pytest.raises(MalformedInputError) as exc:
            next(lines)
        assert exc.value.line_number == 3
        assert str(exc.value) == f"{path}:3: Extra data: line 1 column 2 (char 1)"


class TestWriteJsonl:
    @settings(max_examples=150, deadline=None, phases=PHASES)
    @given(records=st.lists(st.dictionaries(TEXT, VALUES, max_size=4), max_size=5))
    def test_bytes_match_json_dumps_sort_keys(self, scratch, records):
        write_jsonl(scratch, records)
        expected = "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records)
        assert scratch.read_bytes() == expected.encode("utf-8")


# few distinct times, so that nodes interleave and times tie (0.0 and -0.0
# too), and NaN, which compares false with every time, is drawn often
TIMES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.1, 0.25, 1.0, math.nan, math.inf]),
    st.floats(allow_nan=True, allow_infinity=True),
)
POSE_VALUES = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.integers(-3, 3))
TRAJECTORY_RECORDS = st.lists(
    st.fixed_dictionaries(
        {
            "node": st.sampled_from(["chest", "hand", "aux"]),
            "t": TIMES,
            "pose": st.lists(POSE_VALUES, min_size=7, max_size=7),
        },
        optional={"cov_trace": st.one_of(st.floats(allow_nan=True), st.integers(0, 3))},
    ),
    min_size=1,
    max_size=30,
)


def _assert_same_columns(got: dict, expected: dict) -> None:
    assert list(got) == list(expected)
    for node, columns in expected.items():
        for name, want in columns.items():
            have = got[node][name]
            assert have.dtype == want.dtype and have.shape == want.shape, (node, name)
            assert have.tobytes() == want.tobytes(), (node, name)
            assert have.flags.c_contiguous, (node, name)


class TestLoadTrajectories:
    @settings(max_examples=200, deadline=None, phases=PHASES)
    @given(records=TRAJECTORY_RECORDS)
    def test_columns_match_sorted_samples_with_ties_and_nan(self, scratch, records):
        # VioTrajectory rejects tied and non-finite times, so the arrays are
        # taken as load_trajectories hands them to it
        scratch.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(anchoring, "VioTrajectory", lambda node_id, **columns: columns)
            got = load_trajectories(scratch)
        _assert_same_columns(got, reference_columns(scratch))

    @settings(max_examples=100, deadline=None, phases=PHASES)
    @given(
        data=st.data(),
        sizes=st.fixed_dictionaries({"chest": st.integers(1, 12), "hand": st.integers(1, 12)}),
    )
    def test_shuffled_interleaved_file(self, scratch, data, sizes):
        finite = st.floats(-10.0, 10.0, allow_nan=False)
        # VioTrajectory rejects a quaternion whose norm is zero
        pose = st.lists(finite, min_size=7, max_size=7).filter(
            lambda p: sum(v * v for v in p[3:]) > 0.0
        )
        records = [
            {
                "node": node,
                "t": t,
                "pose": data.draw(pose),
                "cov_trace": data.draw(st.floats(0.0, 1.0)),
            }
            for node, n in sizes.items()
            for t in data.draw(st.lists(finite, min_size=n, max_size=n, unique=True))
        ]
        records = data.draw(st.permutations(records))
        scratch.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        trajs = load_trajectories(scratch)
        got = {
            node: {"t": tr.t, "pos": tr.pos, "quat": tr.quat, "cov_trace": tr.cov_trace}
            for node, tr in trajs.items()
        }
        _assert_same_columns(got, reference_columns(scratch))


class TestFiniteNumbers:
    """The one reader of numbers from a file: its type rule, its single
    conversion and its two message forms."""

    def test_column_and_rows(self):
        column = finite_numbers([1, 2.5, np.float64(-3.0)], "x")
        assert column.dtype == float and column.tolist() == [1.0, 2.5, -3.0]
        rows = finite_numbers([[1, 2], [3.0, 4.0]], "x")
        assert rows.shape == (2, 2) and rows.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert finite_numbers([], "x").shape == (0,)

    @pytest.mark.parametrize(
        "values, kind",
        [
            ([1.0, "1"], "str"),
            ([True, 1.0], "bool"),
            ([None], "NoneType"),
            ([1.0, [1.0]], "list"),
            ([[1.0], 1.0], "list"),
            ([[1.0, False]], "bool"),
            ([[1.0], [[1.0]]], "list"),
        ],
    )
    def test_non_numeric(self, values, kind):
        with pytest.raises(ValueError, match=f"^non-numeric x value of type {kind}$"):
            finite_numbers(values, "x")

    @pytest.mark.parametrize("values", [5, "1234567", {"a": 1.0}, None])
    def test_not_a_list(self, values):
        with pytest.raises(ValueError, match="^x must be a list of numbers, got "):
            finite_numbers(values, "x")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite(self, bad):
        for values in ([0.0, bad, math.nan], [[0.0, 1.0], [2.0, bad]]):
            with pytest.raises(ValueError, match=f"^non-finite x value {bad}$"):
                finite_numbers(values, "x")

    def test_rows_of_one_width(self):
        assert finite_rows([[1, 2, 3], [4.0, 5.0, 6.0]], 3, "x").shape == (2, 3)
        assert finite_rows([], 3, "x").shape == (0, 3)
        with pytest.raises(ValueError, match="^x must have 3 values, got 2$"):
            finite_rows([[1.0, 2.0, 3.0], [1.0, 2.0]], 3, "x")
        with pytest.raises(ValueError, match="^x must have 3 values, got 4$"):
            finite_rows([[1.0, 2.0, 3.0, 4.0]], 3, "x")
        with pytest.raises(ValueError, match="^non-finite x value nan$"):
            finite_rows([[1.0, 2.0, 3.0], [1.0, math.nan, 3.0]], 3, "x")


class TestFiniteFloat64:
    """The reader of a weight array stored as float64 bytes: strict base64,
    exactly the values of its shape, each finite."""

    def test_round_trip(self):
        w = np.array([[0.0, -0.0, 5e-324], [1.5, -1e300, math.pi]])
        got = finite_float64(float64_text(w), (2, 3), "x")
        assert got.dtype == float and got.flags.writeable and got.tobytes() == w.tobytes()
        # C order, whatever the layout of the array saved
        assert finite_float64(float64_text(w.T), (3, 2), "x").tobytes() == w.T.copy().tobytes()

    @pytest.mark.parametrize("text", [None, 1.0, True, [1.0], {"a": "AA=="}])
    def test_not_a_string(self, text):
        with pytest.raises(ValueError, match="^x must be a base64 string, got "):
            finite_float64(text, (1,), "x")

    @pytest.mark.parametrize("text", ["*" + "A" * 11, "AAAAAAAAAAA", "AAAA\nAAAAAAAA", "AAAAAAAAAAé="])
    def test_not_base64(self, text):
        with pytest.raises(ValueError, match="^x is not base64: "):
            finite_float64(text, (1,), "x")

    @pytest.mark.parametrize("n_bytes", [0, 7, 9, 16])
    def test_wrong_byte_count(self, n_bytes):
        text = base64.b64encode(bytes(n_bytes)).decode()
        with pytest.raises(ValueError, match=f"^x must hold 1 float64 values, got {n_bytes} bytes$"):
            finite_float64(text, (1, 1), "x")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite(self, bad):
        with pytest.raises(ValueError, match=f"^non-finite x value {bad}$"):
            finite_float64(float64_text([0.0, bad, math.nan]), (3,), "x")
