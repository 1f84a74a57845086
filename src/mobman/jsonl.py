"""Line-oriented JSON helpers shared by every file format in the toolkit."""
from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator


class MalformedLineError(ValueError):
    def __init__(self, path, line_number: int, reason: str):
        super().__init__(f"{path}:{line_number}: {reason}")
        self.path = path
        self.line_number = line_number


def read_jsonl(path) -> Iterator[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        for i, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedLineError(path, i, str(exc)) from exc


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
            raise MalformedLineError(path, exc.lineno, exc.msg) from exc
