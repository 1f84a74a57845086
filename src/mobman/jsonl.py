"""Line-oriented JSON helpers shared by every file format in the toolkit."""
from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator


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
    """Report a missing or mistyped field read from `path` as MalformedInputError."""
    try:
        yield
    except MalformedInputError:
        raise
    except KeyError as exc:
        raise MalformedInputError(path, f"missing field {exc}") from exc
    except (AttributeError, IndexError, TypeError, ValueError) as exc:
        raise MalformedInputError(path, str(exc)) from exc


def read_jsonl(path) -> Iterator[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        for i, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedInputError(path, str(exc), i) from exc


def write_jsonl(path, records: Iterable[dict]) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True))
            fh.write("\n")


def write_json(path, obj) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise MalformedInputError(path, exc.msg, exc.lineno) from exc
