"""The benchmark's own output checks hold on the current program.

benchmarks/workloads.py checks every demo_ingest op by integrating the
processed dataset's action labels back (`_round_trip_error`), through
`DemoDataset.steps`, `make_action_labels` and `integrate_labels`, and every
replay_matrix op at its digest seed against `MATRIX_DIGESTS`. A change that
breaks either check would otherwise fail only in a benchmark run; this runs
the first on processed noisy demos and the second on every matrix cell.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

from mobman.cli import EXIT_OK, main
from mobman.sim import (
    SCENARIO_NAMES,
    compare_conditions,
    make_scenario,
    save_expert_session,
    scripted_expert,
)

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    name = "mobman_bench_workloads"
    spec = importlib.util.spec_from_file_location(name, WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while they are built
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


@pytest.mark.parametrize("scenario", SCENARIO_NAMES)
def test_round_trip_check_holds_on_noisy_demo(workloads, scenario, tmp_path):
    expert = scripted_expert(make_scenario(scenario), seed=5, sigma_pos=1e-3, sigma_rot=1e-3)
    raw = tmp_path / "raw"
    save_expert_session(raw, expert)
    anchors = tmp_path / "anchors.json"
    argv = [
        "anchor",
        "--trajectories", str(raw / "trajectories.jsonl"),
        "--detections", str(raw / "detections.jsonl"),
        "--extrinsics", str(raw / "extrinsics.json"),
        "--output", str(anchors),
    ]
    assert main(argv) == EXIT_OK
    out = tmp_path / "demo"
    assert main(["process", "--raw", str(raw), "--anchor", str(anchors), "--output", str(out)]) == EXIT_OK
    err = workloads._round_trip_error(out / "dataset.jsonl")
    assert 0.0 <= err < workloads.ROUND_TRIP_TOL


def test_matrix_rows_match_recorded_digests(workloads):
    # the rows of every replay_matrix cell at the digest seed keep their bytes
    got, recorded = {}, {}
    for scenario in workloads.MATRIX_SCENARIOS:
        for cond in workloads.MATRIX:
            cell = f"{scenario}/{cond.name}"
            rows, _ = compare_conditions([cond], scenario, 1, master_seed=workloads.DIGEST_SEED)
            got[cell] = workloads.rows_digest(rows)
            recorded[cell] = workloads.MATRIX_DIGESTS[cell]
    assert got == recorded
