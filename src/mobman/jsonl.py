"""Line-oriented JSON helpers shared by every file format in the toolkit."""
from __future__ import annotations

import base64
import json
import math
from contextlib import contextmanager
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np


class MalformedInputError(ValueError):
    """A file that does not parse (at line_number), or parses but does not
    hold what its format requires (line_number None)."""

    def __init__(self, path, reason: str, line_number: int | None = None):
        where = path if line_number is None else f"{path}:{line_number}"
        super().__init__(f"{where}: {reason}")
        self.path = path
        self.line_number = line_number


@contextmanager
def fields_of(path):
    """Report a missing or mistyped field read from `path`, or one nested too
    deep to read, as MalformedInputError."""
    try:
        yield
    except MalformedInputError:
        raise
    except KeyError as exc:
        raise MalformedInputError(path, f"missing field {exc}") from exc
    except (AttributeError, IndexError, OverflowError, RecursionError, TypeError, ValueError) as exc:
        raise MalformedInputError(path, str(exc)) from exc


_NUMBER_TYPES = {int, float}


def check_numbers(values: Iterable, what: str) -> None:
    """ValueError unless every item of values is an int or a float (numpy's
    float64 included): never a bool, a string or None, which float() and
    numpy would take as numbers. Only the set of the items' types is looked
    at, so a column of numbers costs one pass in C."""
    for kind in set(map(type, values)) - _NUMBER_TYPES:
        if kind is bool or not issubclass(kind, (int, float)):
            raise ValueError(f"non-numeric {what} value of type {kind.__name__}")


def finite_numbers(values: Sequence, what: str) -> np.ndarray:
    """values, a list of numbers or of equal-length rows of them, as one float
    array; a ValueError naming `what` unless check_numbers passes the numbers
    and every one is finite. The loaders read every numeric field through it,
    but for checkpoint weights (finite_float64) and trajectory columns, whose
    finiteness VioTrajectory checks."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{what} must be a list of numbers, got {type(values).__name__}")
    # the numbers of rows are checked; only a list of rows pays for the pass
    rows = values and type(values[0]) is list and set(map(type, values)) == {list}
    check_numbers(chain.from_iterable(values) if rows else values, what)
    return _finite(np.array(values, dtype=float), what)


def finite_rows(values: Sequence, width: int, what: str) -> np.ndarray:
    """values, a list of rows of `width` numbers each, as one (n, width)
    float array with finite_numbers' values and errors; a ValueError naming
    `what` for a row of another length.

    A list of list rows is converted in one np.fromiter pass over its
    numbers, which gives np.array's bits, and its OverflowError for an
    integer too wide for a float; anything else goes to finite_numbers."""
    widths = set(map(len, values)) - {width}
    if widths:
        raise ValueError(f"{what} must have {width} values, got {min(widths)}")
    if not (values and type(values) is list and set(map(type, values)) == {list}):
        return finite_numbers(values, what).reshape(-1, width)
    check_numbers(chain.from_iterable(values), what)
    numbers = chain.from_iterable(values)
    return _finite(np.fromiter(numbers, float, count=len(values) * width).reshape(-1, width), what)


def _finite(array: np.ndarray, what: str) -> np.ndarray:
    """array, or a ValueError naming `what` and its first non-finite value."""
    bad = array[~np.isfinite(array)]
    if len(bad):
        raise ValueError(f"non-finite {what} value {bad[0]}")
    return array


def float64_text(values) -> str:
    """Base64 of values' little-endian float64 bytes in C order, which
    finite_float64 reads back bit for bit; raises unless values are numbers."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def finite_float64(text, shape: tuple, what: str) -> np.ndarray:
    """A float array of `shape` from float64_text's text; a ValueError naming
    `what` unless text is a strict base64 string of exactly the float64 bytes
    the shape holds, each value finite."""
    if not isinstance(text, str):
        raise ValueError(f"{what} must be a base64 string, got {type(text).__name__}")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise ValueError(f"{what} is not base64: {exc}") from exc
    n = math.prod(shape)
    if len(raw) != 8 * n:
        raise ValueError(f"{what} must hold {n} float64 values, got {len(raw)} bytes")
    return _finite(np.frombuffer(raw, dtype="<f8").astype(float).reshape(shape), what)


# the class of each ASCII character, for _may_hold_wide_int
_DIGIT_RUNS = str.maketrans(
    {chr(c): " " for c in range(128)} | dict.fromkeys(".eE+", ".") | dict.fromkeys("0123456789", "0")
)
_WIDE_INT = " " + "0" * 19
# orjson builds a nested value on the C stack and crashes the process some
# 50000 object levels deep on an 8 MiB stack, sooner on a smaller one; a line
# that could nest deeper than json's default recursion limit goes to json,
# which raises RecursionError instead.
_ORJSON_MAX_DEPTH = 1000


def read_jsonl(path) -> Iterator[dict]:
    """Yield the value of each non-blank line, one line at a time: json.loads
    of the stripped line, or a MalformedInputError at that line with the
    message of json's error.

    The file is read whole and each line decoded by orjson, which is several
    times faster. A line goes to json.loads where the two could differ: a line
    orjson rejects (NaN, Infinity, a lone surrogate escape, 1e400, malformed
    or padded with non-JSON whitespace), one that could nest too deep for
    orjson, and every line of a file that may hold an integer too wide for
    orjson. The lines before a byte that is not UTF-8 come first (_read_text).
    """
    text, undecodable = _read_text(path)
    yield from _decode_lines(path, text.split("\n"), fast=not _may_hold_wide_int(text))
    if undecodable:
        raise undecodable


def _read_text(path) -> tuple[str, MalformedInputError | None]:
    """A file's text as text mode reads it ("\\r\\n" and a lone "\\r" end a
    line), and None; or, in a file with a byte that is not UTF-8, the lines
    before that byte's line and the MalformedInputError naming the line and
    the byte's offset in the file."""
    data = Path(path).read_bytes()
    try:
        text, bad = data.decode("utf-8"), None
    except UnicodeDecodeError as exc:
        text, bad = data[: exc.start].decode("utf-8"), exc
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    if bad is None:
        return text, None
    reason = f"not UTF-8: {bad.reason} at byte {bad.start}"
    return text[: text.rfind("\n") + 1], MalformedInputError(path, reason, text.count("\n") + 1)


def _may_hold_wide_int(text: str) -> bool:
    """Whether text may hold an integer literal outside [-2**63, 2**64).

    orjson gives json's value, type and float bits for every line that both
    accept (TestOrjsonDecodesLikeJson), but for such a literal, which it
    returns as a float. The literal has 19 digits or more, and in a line that
    orjson accepts, its first digit follows "-", JSON whitespace, "[", ",",
    ":" or the start of the line: an ASCII character or none, as orjson gets
    the line unstripped. So text may hold one if it holds a run of 19 digits
    that follows no digit, ".", "e", "E" or "+" (which start a fraction or an
    exponent). _DIGIT_RUNS maps each digit to "0", each of ".eE+" to "." and
    every other ASCII character to " ", and the run shows as _WIDE_INT.
    """
    digits = text.translate(_DIGIT_RUNS)
    return digits.startswith(_WIDE_INT[1:]) or _WIDE_INT in digits


def _decode_lines(path, lines: Iterable[str], fast: bool) -> Iterator:
    """read_jsonl's values of lines, numbered from 1; orjson decodes a line
    only when fast is true. orjson gets the line unstripped, so that a line it
    accepts is padded with JSON whitespace only (which json skips as well)."""
    # imported here, so that a program that reads no JSONL (a simulation)
    # does not pay for orjson's import and what it imports
    import orjson

    for i, line in enumerate(lines, start=1):
        if fast and (
            len(line) <= _ORJSON_MAX_DEPTH
            or line.count("[") + line.count("{") <= _ORJSON_MAX_DEPTH
        ):
            try:
                value = orjson.loads(line)
            except orjson.JSONDecodeError:
                pass
            else:
                yield value
                continue
        line = line.strip()
        if not line:
            continue
        try:
            yield json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise MalformedInputError(path, str(exc), i) from exc


def write_lines(path, line: str, values: list, floats: Iterable[np.ndarray], what: str) -> None:
    """Write `line` once per record, formatted with values (the records'
    fields in line order), in one write. line is json.dumps(rec,
    sort_keys=True) of one record with %s for each string already
    JSON-encoded and %r for each float, which json writes as float.__repr__
    does if it is a Python float (not a numpy one). Before the file is opened,
    _finite's ValueError naming `what` for a NaN or infinity in floats' arrays."""
    for array in floats:
        _finite(array, what)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(line * (len(values) // line.count("%")) % tuple(values), encoding="utf-8")


def write_json(path, obj) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def read_json(path):
    text, undecodable = _read_text(path)
    if undecodable:
        raise undecodable
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInputError(path, exc.msg, exc.lineno) from exc
    except RecursionError as exc:  # nested deeper than json's recursion limit
        raise MalformedInputError(path, str(exc)) from exc
