"""The JSONL readers and writer against line-at-a-time references.

`reference_read_jsonl` parses each stripped, non-blank line with json.loads,
and `reference_columns` builds a trajectory's arrays from one list of samples
per node sorted by time; the module's readers must give the same values, the
same errors and the same array bytes.
"""
import base64
import json
import math
import re
import struct
import subprocess
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import mobman
from mobman import anchoring
from mobman.anchoring import load_trajectories
from mobman.cli import EXIT_OK, main
from mobman.jsonl import (
    MalformedInputError,
    fields_of,
    finite_float64,
    finite_numbers,
    finite_rows,
    float64_text,
    read_jsonl,
    write_jsonl,
)
from mobman.sim import make_scenario, save_expert_session, scripted_expert


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
# a float printed with 17 to 25 significant digits, more than repr prints: the
# number's text behind a lone surrogate (which TEXT never draws), a string
# that rendered() unquotes
LONG_FLOATS = st.builds(
    lambda digits, exponent: f"\ud800{digits[0]}.{digits[1:]}e{exponent}",
    st.integers(10**16, 10**25 - 1).map(str),
    st.integers(-345, 310),
)
_LONG_FLOAT = re.compile(r'"(?:\\ud800|\ud800)([^"]*)"')
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    # 2**62 to 2**100, plus or minus 2, either sign: on both sides of each end
    # of [-2**63, 2**64), beyond which orjson reads an integer as a float
    st.builds(
        lambda bits, offset, sign: sign * (2**bits + offset),
        st.integers(62, 100),
        st.integers(-2, 2),
        st.sampled_from([1, -1]),
    ),
    st.floats(allow_nan=True, allow_infinity=True),  # NaN, Infinity, -Infinity tokens
    LONG_FLOATS,
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
    text = json.dumps(
        draw(VALUES),
        ensure_ascii=draw(st.booleans()),
        separators=draw(st.sampled_from([None, (",", ":"), (" ,\t", " : ")])),
    )
    return _LONG_FLOAT.sub(r"\1", text)


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


class TestWhereDecodersDiffer:
    """Lines on which orjson and json differ, or could: each reads with json's
    value and type, whatever line of the file holds it."""

    # outside [-2**63, 2**64), where orjson reads an integer as a float
    WIDE_INTS = [str(-(2**63) - 1), str(2**64), str(10**30), str(10**400)]

    @pytest.mark.parametrize(
        "token", [*WIDE_INTS, "NaN", "Infinity", "-Infinity", '"\\ud800"', "1e400", "-1e400"]
    )
    @pytest.mark.parametrize("where", [0, 2, 4])
    def test_reads_json_value(self, tmp_path, token, where):
        lines = ['{"t": 0.5, "pose": [1, 2.25]}', "3", '"x"', "[true, null]", "-0.0"]
        lines[where] = f'{{"v": [{token}, 1.5]}}'
        path = tmp_path / "lines.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        got = outcome(read_jsonl, path)
        assert got[1] is None and got == outcome(reference_read_jsonl, path)

    @pytest.mark.parametrize("pad", ["", " ", "\t", "\x0c", "\x85", "\xa0", "\u3000"])
    @pytest.mark.parametrize("token", WIDE_INTS)
    def test_wide_int_line_in_any_padding(self, tmp_path, pad, token):
        path = tmp_path / "lines.jsonl"
        path.write_text(f'{{"a": 1}}\n{pad}{token}{pad}\n', encoding="utf-8")
        values = list(read_jsonl(path))
        assert values == [{"a": 1}, int(token)] and type(values[1]) is int

    def test_undecodable_file_reads_the_lines_before(self, tmp_path):
        # the lines before the bad byte's line read as the line-at-a-time
        # reference reads them, and a line's error comes first; then the bad
        # byte, past the first 8 KiB, is a MalformedInputError naming its line
        # and its offset in the file
        good = "".join(json.dumps({"t": i / 10, "pose": [0.5] * 7}) + "\n" for i in range(200))
        path, clean = tmp_path / "lines.jsonl", tmp_path / "clean.jsonl"
        for first in ("", '{"t": \n'):
            text = first + good
            path.write_bytes(text.encode("utf-8") + b"\xff\n")
            if first:
                expected = outcome(reference_read_jsonl, path)
                assert expected[1][1] == 1
            else:
                clean.write_text(text, encoding="utf-8")
                line = text.count("\n") + 1
                reason = f"not UTF-8: invalid start byte at byte {len(text)}"
                expected = (outcome(reference_read_jsonl, clean)[0], (f"{path}:{line}: {reason}", line))
                assert len(text) > 8192 and len(expected[0]) == 200
            assert outcome(read_jsonl, path) == expected

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_undecodable_byte_line_counts_text_mode_line_ends(self, tmp_path, newline):
        path = tmp_path / "lines.jsonl"
        path.write_bytes(f'{{"a": 1}}{newline}{{"b": 2}}{newline}{{"c": '.encode("utf-8") + b"\xff}\n")
        values, error = outcome(read_jsonl, path)
        assert values == ["{'a': 1}", "{'b': 2}"]
        assert error == (f"{path}:3: not UTF-8: invalid start byte at byte {22 + 2 * len(newline)}", 3)


class TestNesting:
    """Input nested deeper than json's recursion limit is a MalformedInputError
    naming the file, never a RecursionError, nor orjson's crash."""

    @pytest.mark.parametrize("kind, opening, closing", [("array", "[", "]"), ("object", '{"a":', "}")])
    def test_line_nested_past_json_limit_is_malformed(self, tmp_path, kind, opening, closing):
        path = tmp_path / "lines.jsonl"
        path.write_text(f'{{"a": 1}}\n{opening * 100000}1{closing * 100000}\n', encoding="utf-8")
        lines = read_jsonl(path)
        assert next(lines) == {"a": 1}
        with pytest.raises(MalformedInputError) as exc:
            next(lines)
        assert exc.value.line_number == 2
        assert str(exc.value) == (
            f"{path}:2: maximum recursion depth exceeded while decoding a JSON {kind} from a unicode string"
        )

    def test_field_read_nested_too_deep_names_file(self, tmp_path):
        deep = []
        for _ in range(100000):
            deep = [deep]
        with pytest.raises(MalformedInputError, match=f"^{re.escape(str(tmp_path))}: maximum recursion"):
            with fields_of(tmp_path):
                repr(deep)


def _number_table() -> list[str]:
    """JSON numbers on which a float parser that does not round correctly
    can go wrong: for doubles of every third exponent, subnormals included,
    and seven mantissa patterns, alternately signed, the shortest repr; the
    exact value to 17 to 25 significant digits; the exact decimal midpoint to
    the next double, and that midpoint 1e-12 ulp above and below. Then ±0.0
    and the integers 2**63 - 1, -2**63 and 2**64 - 1 at the ends of
    orjson's integer range."""
    texts = ["0.0", "-0.0", str(2**63 - 1), str(-(2**63)), str(2**64 - 1)]
    mantissas = (1, 2**51, 2**52 - 1, 0x5555555555555, 0xAAAAAAAAAAAAA, 0x123456789ABCD, 0)
    with localcontext() as ctx:
        ctx.prec = 2000  # exact: a subnormal's expansion has some 770 digits
        for exponent in range(0, 2047, 3):
            for k, mantissa in enumerate(mantissas):
                x = struct.unpack("<d", struct.pack("<Q", exponent << 52 | mantissa))[0]
                if x == 0.0:
                    continue
                x = -x if k % 2 else x
                exact = Decimal(x)
                texts.append(repr(x))
                texts += [format(exact, f".{digits - 1}e") for digits in range(17, 26)]
                above = math.nextafter(x, math.inf)
                if math.isinf(above):
                    continue
                midpoint = (exact + Decimal(above)) / 2
                tweak = (Decimal(above) - exact) * Decimal("1e-12")
                texts += [format(v, "e") for v in (midpoint, midpoint + tweak, midpoint - tweak)]
    return texts


def _same_number(a, b) -> bool:
    if type(a) is not type(b):
        return False
    return struct.pack("<d", a) == struct.pack("<d", b) if type(a) is float else a == b


class TestOrjsonDecodesLikeJson:
    """The premise of read_jsonl's orjson path: on every number of an
    enumerated table, orjson.loads gives json.loads' type and bits. An orjson
    whose float parsing does not round correctly fails here by name."""

    def test_number_table(self):
        texts = _number_table()
        assert len(texts) > 60000
        assert [t for t in texts if not _same_number(orjson.loads(t), json.loads(t))] == []


class TestFastPath:
    """The toolkit's own files never reach json.loads, so a change that
    quietly sends every line through json fails here."""

    def test_session_and_dataset_lines_decode_with_orjson(self, tmp_path, monkeypatch):
        raw, anchor, out = tmp_path / "raw", tmp_path / "anchor.json", tmp_path / "out"
        expert = scripted_expert(make_scenario("nav_reach"), seed=1, sigma_pos=1e-3, sigma_rot=1e-3)
        save_expert_session(raw, expert)
        assert main([
            "anchor", "--trajectories", str(raw / "trajectories.jsonl"),
            "--detections", str(raw / "detections.jsonl"),
            "--extrinsics", str(raw / "extrinsics.json"), "--output", str(anchor),
        ]) == EXIT_OK
        assert main(["process", "--raw", str(raw), "--anchor", str(anchor), "--output", str(out)]) == EXIT_OK
        names = ("trajectories.jsonl", "detections.jsonl", "markers.jsonl")
        paths = [raw / name for name in names] + [out / "dataset.jsonl"]
        expected = [list(map(repr, reference_read_jsonl(path))) for path in paths]
        calls = []
        loads = json.loads
        monkeypatch.setattr(json, "loads", lambda *a, **kw: calls.append(a) or loads(*a, **kw))
        got = [list(map(repr, read_jsonl(path))) for path in paths]
        assert calls == [] and got == expected
        assert min(map(len, got)) > 0

    def test_simulation_imports_no_orjson(self):
        # orjson (and the uuid and zoneinfo modules it imports) loads on the
        # first JSONL read, not with the modules that read none
        src = str(Path(mobman.__file__).resolve().parents[1])
        code = f"import sys; sys.path.insert(0, {src!r}); import mobman.sim; print('orjson' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


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
