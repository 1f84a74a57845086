"""Smoke test of the benchmark itself: each workload at a tiny size.

    python -m pytest benchmarks/test_smoke.py -q

It lives outside the tier-1 `testpaths`, so the main suite does not grow.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmarks" / "run.py"), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_metric(workload, trace):
    proc = _run(
        "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace),
        "--size", "smoke",
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    table = "\n".join(lines[:-1])
    for name in list(spec) + ["failed_ops_frac"]:
        assert f" {name} " in table


def test_per_layer_list_matches_the_traced_run():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import spans

    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == spans.per_layer_spec()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("_*"))
    proc = _run("--workload", WORKLOADS[0], "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
