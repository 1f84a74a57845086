"""The traced benchmark's wrappers still bind to the names mobman calls.

benchmarks/spans.py rebinds mobman functions and methods by name. A rename in
src would only show up in the benchmark's own smoke test, outside this suite;
these tests install the wrappers, run one short episode through them and check
that removing them restores every original. The training and sampling paths
are checked too: a refactor that stops calling a wrapped name would zero its
per-layer metrics without failing anything else.
"""
import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import mobman.anchoring as anchoring
import mobman.cli as cli
import mobman.diffusion as diffusion
import mobman.executor as executor
import mobman.geometry as geometry
import mobman.manifest as manifest
import mobman.pipeline as pipeline
import mobman.sim as sim

SPANS_PY = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"

OWNERS = [
    anchoring, cli, diffusion, executor, geometry, manifest, pipeline, sim,
    sim.Plant, sim.ExpertReplayPolicy, cli.DiffusionReplayPolicy,
    diffusion.ToyDenoiser, diffusion.Adam, geometry.Pose3,
]


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("mobman_bench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot():
    return [dict(vars(owner)) for owner in OWNERS]


def test_install_wraps_and_uninstall_restores(spans):
    before = _snapshot()
    rec = spans.Recorder()
    uninstall = spans.install(rec)
    try:
        during = _snapshot()
        sim.compare_conditions([sim.Condition("c")], "cruise", n_trials=1)
    finally:
        uninstall()
    for owner, attr, _ in spans.SPANS:
        i = OWNERS.index(owner)
        assert during[i][attr] is not before[i][attr], (owner, attr)
    after = _snapshot()
    for owner, b, a in zip(OWNERS, before, after):
        assert a.keys() == b.keys(), owner
        assert all(a[k] is b[k] for k in b), owner
    recorded = {span[0] for span in rec.spans}
    for name in (
        "sim.trial",
        "sim.run_episode",
        "sim.plant.step_to",
        "sim.replay_policy.chunk",
        "executor.run_executor",
    ):
        assert name in recorded
    # the per-layer split of one executor tick: each layer is a module function
    # that run_executor calls by name, so inlining one would zero its metrics
    calls = Counter(span[0] for span in rec.spans)
    for name in (
        "executor.forward_rollout",
        "executor.state_match",
        "executor.splice",
        "executor.command_to_target",
    ):
        assert calls[name] >= 1, name
    assert rec.counts["episodes"] == 1


def test_anchoring_calls_no_slerp(spans, tmp_path):
    # episodes sample their script with slerp_rows, and anchoring samples all
    # of a node's detections in one sample_rows call: neither calls slerp,
    # which the wrapper still counts under its old name
    expert = sim.scripted_expert(sim.make_scenario("cruise"), seed=0)
    sim.save_expert_session(tmp_path, expert)
    rec = spans.Recorder()
    uninstall = spans.install(rec)
    try:
        rc = cli.main(
            [
                "anchor",
                "--trajectories", str(tmp_path / "trajectories.jsonl"),
                "--detections", str(tmp_path / "detections.jsonl"),
                "--extrinsics", str(tmp_path / "extrinsics.json"),
                "--output", str(tmp_path / "anchors.json"),
            ]
        )
    finally:
        uninstall()
    assert rc == 0
    assert Counter(span[0] for span in rec.spans)["anchoring.anchor_node"] == 2
    assert rec.counts["slerp"] == 0


def test_training_and_chunk_spans_count_per_step(spans):
    rng = np.random.default_rng(0)
    conds = rng.normal(size=(16, diffusion.COND_DIM))
    a0s = 0.05 * rng.normal(size=(16, diffusion.ACTION_DIM))
    rec = spans.Recorder()
    uninstall = spans.install(rec)
    try:
        model, sched, _ = cli.train_toy(conds, a0s, diffusion.TrainConfig(steps=3))
        policy = cli.DiffusionReplayPolicy(model, sched)
        obs = (0.0, 0.0, 0.0, 0.3, 0.0, -0.2, 1.0, 0.0, 0.0, 0.0, 1.0)
        forwards_before_chunk = rec.counts["forward"]
        policy(obs, 0.0)
    finally:
        uninstall()
    calls = Counter(span[0] for span in rec.spans)
    assert calls["diffusion.train_toy"] == 1
    assert calls["diffusion.loss_and_grads"] == 3
    assert calls["diffusion.adam_step"] == 3
    assert calls["diffusion.ema_update"] == 3
    assert calls["diffusion.chunk"] == 1
    assert calls["diffusion.ddim_sample"] == 16
    # 16 rows of 10 DDIM steps, one forward each
    assert rec.counts["forward"] - forwards_before_chunk == 160
