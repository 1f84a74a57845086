"""Run manifests: enough metadata to reproduce any command bit-identically.

Every CLI command emits one manifest next to its outputs. A manifest records
the command name, the resolved configuration, every seed, content hashes of
all inputs, and the paths (plus hashes) of all outputs, so a rerun from the
same inputs can be checked byte for byte.
"""
from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .jsonl import MalformedInputError, fields_of, read_json, write_json

ARTIFACT_VERSION = "0.1.0"


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def hash_tree(path) -> dict[str, str]:
    """Hash a file, or every file under a directory (relative keys)."""
    p = Path(path)
    if p.is_file():
        return {p.name: file_sha256(p)}
    out = {}
    for f in sorted(p.rglob("*")):
        if f.is_file():
            out[str(f.relative_to(p))] = file_sha256(f)
    return out


@dataclass
class RunManifest:
    command: str
    config: dict
    seed: int
    inputs: dict[str, dict[str, str]] = field(default_factory=dict)  # label -> {file: hash}
    outputs: dict[str, str] = field(default_factory=dict)  # path -> hash
    version: str = ARTIFACT_VERSION

    def add_input(self, label: str, path) -> None:
        self.inputs[label] = hash_tree(path)

    def add_output(self, path) -> None:
        self.outputs[str(path)] = file_sha256(path)

    def save(self, path) -> None:
        write_json(path, asdict(self))

    @staticmethod
    def load(path) -> "RunManifest":
        """The manifest a file holds; a MalformedInputError naming it unless each
        field has the type that save writes and version is ARTIFACT_VERSION.
        Missing inputs or outputs are empty; a missing version reads as current."""
        doc = read_json(path)
        with fields_of(path):
            man = RunManifest(
                doc["command"], doc["config"], doc["seed"],
                doc.get("inputs", {}), doc.get("outputs", {}), doc.get("version", ARTIFACT_VERSION),
            )
        hashes = lambda d: isinstance(d, dict) and all(isinstance(v, str) for v in d.values())
        for name, ok, rule in (
            ("command", isinstance(man.command, str), "a string"),
            ("config", isinstance(man.config, dict), "an object"),
            ("seed", type(man.seed) is int, "an integer"),
            ("inputs", isinstance(man.inputs, dict) and all(map(hashes, man.inputs.values())),
             "an object of {file: hash} objects"),
            ("outputs", hashes(man.outputs), "an object of {path: hash}"),
            ("version", man.version == ARTIFACT_VERSION, repr(ARTIFACT_VERSION)),
        ):
            if not ok:
                raise MalformedInputError(path, f"{name} must be {rule}, not {getattr(man, name)!r}")
        return man
