"""In-memory span recorder and the wrappers of the traced run.

A span is (name, start, end, parent span, op id). Spans nest strictly because
the workloads are single-threaded, so a span's self time is its duration
minus the summed durations of its direct children.

Wrappers are installed by rebinding names where the *caller* looks them up:
a module-level name in the namespace of the module that calls it, or a method
on its class. `install()` returns a callable that restores every original, and
the untraced run never calls `install()`.
"""
from __future__ import annotations

import json
import math
import time
from collections import Counter, defaultdict

import numpy as np

import mobman.anchoring as anchoring
import mobman.cli as cli
import mobman.diffusion as diffusion
import mobman.executor as executor
import mobman.geometry as geometry
import mobman.manifest as manifest
import mobman.pipeline as pipeline
import mobman.sim as sim

# (owner, attribute, span name). Owners are the namespaces the callers read.
SPANS = [
    (sim, "scripted_expert", "sim.scripted_expert"),
    (cli, "scripted_expert", "sim.scripted_expert"),
    (sim, "run_condition_trial", "sim.trial"),
    (sim.Plant, "state_at", "sim.plant.state_at"),
    (sim.ExpertReplayPolicy, "__call__", "sim.replay_policy.chunk"),
    (sim, "run_executor", "executor.run_executor"),
    (executor, "forward_rollout", "executor.forward_rollout"),
    (executor, "state_match", "executor.state_match"),
    (executor, "splice", "executor.splice"),
    (executor, "command_to_target", "executor.command_to_target"),
    (cli.DiffusionReplayPolicy, "__call__", "diffusion.chunk"),
    (cli, "ddim_sample", "diffusion.ddim_sample"),
    (cli, "load_checkpoint", "diffusion.load_checkpoint"),
    (cli, "save_checkpoint", "diffusion.save_checkpoint"),
    (cli, "train_toy", "diffusion.train_toy"),
    (diffusion.ToyDenoiser, "loss_and_grads", "diffusion.loss_and_grads"),
    (diffusion.Adam, "step", "diffusion.adam_step"),
    (diffusion, "ema_update", "diffusion.ema_update"),
    (pipeline, "quality_filter", "pipeline.quality_filter"),
    (pipeline, "resample_to_grid", "pipeline.resample_to_grid"),
    (pipeline, "smooth_pose_arrays", "pipeline.smooth_pose_arrays"),
    (cli, "save_dataset", "pipeline.save_dataset"),
    (cli, "load_dataset", "pipeline.load_dataset"),
    (cli, "load_trajectories", "anchoring.load_trajectories"),
    (manifest, "file_sha256", "manifest.hash"),
]

# Spans whose wrappers also record counts or observations (see install()).
SPECIAL_SPANS = [
    "sim.run_episode",
    "sim.plant.step_to",
    "diffusion.forward",
    "pipeline.assemble_dataset",
    "anchoring.anchor_node",
    "jsonl.read_jsonl",
]

# Spans opened by the benchmark around its own calls into mobman.
OWN_SPANS = ["cli.anchor", "cli.process", "cli.train-toy", "cli.simulate"]

# Spans that have child spans; they also report self time. A leaf span's
# self time equals its `.ms`.
PARENT_SPANS = [
    "sim.trial",
    "sim.run_episode",
    "sim.plant.step_to",
    "executor.run_executor",
    "diffusion.chunk",
    "diffusion.ddim_sample",
    "diffusion.train_toy",
    "pipeline.assemble_dataset",
    "pipeline.load_dataset",
    "anchoring.load_trajectories",
] + OWN_SPANS

ALL_SPANS = list(dict.fromkeys([name for _, _, name in SPANS] + SPECIAL_SPANS + OWN_SPANS))

# Episode wall time percentiles are reported for the scenarios the workloads run.
EPISODE_SCENARIOS = ["nav_reach", "long_horizon"]

DERIVED_METRICS = [
    ("sim.scripted_expert.share", "ratio"),
    ("sim.plant.substeps", "count"),
    ("sim.ticks_per_episode", "count"),
    ("sim.success_rate", "ratio"),
    *[(f"sim.episode_s.{s}.{p}", "s") for s in EPISODE_SCENARIOS for p in ("p50", "p90")],
    ("executor.rows_dispatched_frac", "ratio"),
    ("executor.rows_dispatched", "count"),
    ("executor.rows_planned", "count"),
    ("executor.i_star_mean", "rows"),
    ("diffusion.chunk_ms.p50", "ms"),
    ("diffusion.chunk_ms.p90", "ms"),
    ("diffusion.forward_calls_per_chunk", "count"),
    ("pipeline.steps_per_session", "count"),
    ("anchoring.detections_used_frac", "ratio"),
    ("anchoring.detections_offered", "count"),
    ("geometry.slerp.calls", "count"),
    ("geometry.pose3_created", "count"),
    ("trace.overhead_frac", "ratio"),
]


def per_layer_spec() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, as (name, unit).

    `.calls` and every count are per work item (episode or session).
    """
    spec = []
    for name in ALL_SPANS:
        spec.append((f"{name}.ms", "ms"))
        if name in PARENT_SPANS:
            spec.append((f"{name}.self_ms", "ms"))
        spec.append((f"{name}.calls", "count"))
    return spec + DERIVED_METRICS


class Recorder:
    """Spans and counters of one traced run, kept in memory until written."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self.op: int | None = None
        # per op: factor from wall time to scaled time (see run.py)
        self.op_scale: dict[int, float] = {}
        self.counts: Counter = Counter()
        self.obs: dict[str, list] = defaultdict(list)

    def open(self) -> int:
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid

    def close(self, sid: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans[sid] = (name, start, end, parent, self.op)

    def call(self, name: str, fn, *args, **kwargs):
        sid = self.open()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(sid, name, start)

    def wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "start": start - self.t0,
                            "end": end - self.t0,
                            "parent": parent,
                            "op": op,
                            "scale": self.op_scale.get(op),
                        }
                    )
                )
                fh.write("\n")


def _original(owner, attr):
    # class attributes are read from __dict__ so that what gets wrapped and
    # later restored is the plain function, not a bound method
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def _rebind(owner, attr, value, undo: list) -> None:
    undo.append((owner, attr, _original(owner, attr)))
    setattr(owner, attr, value)


def install(rec: Recorder):
    """Install every wrapper; returns a function that removes them again."""
    undo: list = []
    for owner, attr, name in SPANS:
        _rebind(owner, attr, rec.wrap(name, _original(owner, attr)), undo)

    run_episode = sim.run_episode

    def traced_run_episode(policy, scenario, plant_cfg, exec_cfg, seed, *args, **kwargs):
        sid = rec.open()
        start = time.perf_counter()
        try:
            metrics, log = run_episode(policy, scenario, plant_cfg, exec_cfg, seed, *args, **kwargs)
        finally:
            rec.close(sid, "sim.run_episode", start)
        rec.obs["episodes"].append((scenario.name, sid))
        ticks = int(round(metrics.completion_time / exec_cfg.dt)) + (1 if metrics.success else 0)
        rec.counts["ticks"] += ticks
        rec.counts["episodes"] += 1
        rec.counts["successes"] += int(metrics.success)
        rec.counts["rows_planned"] += exec_cfg.horizon * sum(
            1 for e in log.events if e["kind"] == "plan_request"
        )
        rec.counts["rows_dispatched"] += sum(
            1 for e in log.events if e["kind"] == "command" and "row" in e["payload"]
        )
        rec.obs["i_star"].extend(log.i_star_values())
        return metrics, log

    _rebind(sim, "run_episode", traced_run_episode, undo)
    _rebind(cli, "run_episode", traced_run_episode, undo)

    step_to = _original(sim.Plant, "step_to")

    def traced_step_to(self, t):
        before = self.t
        rec.call("sim.plant.step_to", step_to, self, t)
        rec.counts["substeps"] += int(round((self.t - before) / self.config.dt_sub))

    _rebind(sim.Plant, "step_to", traced_step_to, undo)

    forward = _original(diffusion.ToyDenoiser, "forward")

    def traced_forward(self, *args, **kwargs):
        rec.counts["forward"] += 1
        return rec.call("diffusion.forward", forward, self, *args, **kwargs)

    _rebind(diffusion.ToyDenoiser, "forward", traced_forward, undo)

    assemble = cli.assemble_dataset

    def traced_assemble(*args, **kwargs):
        dataset = rec.call("pipeline.assemble_dataset", assemble, *args, **kwargs)
        rec.obs["steps_per_session"].append(len(dataset))
        return dataset

    _rebind(cli, "assemble_dataset", traced_assemble, undo)

    anchor_node = cli.anchor_node

    def traced_anchor_node(traj, ext, detections, *args, **kwargs):
        res = rec.call("anchoring.anchor_node", anchor_node, traj, ext, detections, *args, **kwargs)
        rec.counts["detections_used"] += res.detection_count
        rec.counts["detections_offered"] += sum(1 for d in detections if d.node_id == traj.node_id)
        return res

    _rebind(cli, "anchor_node", traced_anchor_node, undo)

    # read_jsonl is a generator: the span materialises it so that it covers
    # reading and parsing, not the caller's work between items.
    for owner in (anchoring, pipeline, cli):
        read_jsonl = owner.read_jsonl
        _rebind(
            owner,
            "read_jsonl",
            rec.wrap("jsonl.read_jsonl", lambda path, _r=read_jsonl: iter(list(_r(path)))),
            undo,
        )

    # geometry is counted, not spanned: a span would cost more than the call
    for owner in (sim, anchoring):
        slerp = owner.slerp

        def counted_slerp(*args, _s=slerp):
            rec.counts["slerp"] += 1
            return _s(*args)

        _rebind(owner, "slerp", counted_slerp, undo)

    post_init = _original(geometry.Pose3, "__post_init__")

    def counted_post_init(self):
        rec.counts["pose3"] += 1
        post_init(self)

    _rebind(geometry.Pose3, "__post_init__", counted_post_init, undo)

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def per_layer_metrics(rec: Recorder, items: int, overhead_frac: float) -> dict[str, float]:
    """Reduce the recorded spans and counts to the per-layer metrics.

    Durations are scaled with their op's factor, like the end-to-end times.
    """
    n = len(rec.spans)
    dur = [0.0] * n
    child = [0.0] * n
    for sid, (_, start, end, parent, op) in enumerate(rec.spans):
        dur[sid] = (end - start) * rec.op_scale.get(op, 1.0)
        if parent is not None:
            child[parent] += dur[sid]
    calls: Counter = Counter()
    total: Counter = Counter()
    self_total: Counter = Counter()
    by_name: dict[str, list[float]] = defaultdict(list)
    for sid, (name, *_rest) in enumerate(rec.spans):
        calls[name] += 1
        total[name] += dur[sid]
        self_total[name] += dur[sid] - child[sid]
        by_name[name].append(dur[sid])

    per_item = 1.0 / max(items, 1)
    out: dict[str, float] = {}
    for name in ALL_SPANS:
        c = calls[name]
        out[f"{name}.ms"] = 1e3 * total[name] / c if c else 0.0
        if name in PARENT_SPANS:
            out[f"{name}.self_ms"] = 1e3 * self_total[name] / c if c else 0.0
        out[f"{name}.calls"] = c * per_item

    counts = rec.counts
    episodes = counts["episodes"]
    trial_s = total["sim.trial"]
    out["sim.scripted_expert.share"] = total["sim.scripted_expert"] / trial_s if trial_s else 0.0
    out["sim.plant.substeps"] = counts["substeps"] * per_item
    out["sim.ticks_per_episode"] = counts["ticks"] / episodes if episodes else 0.0
    out["sim.success_rate"] = counts["successes"] / episodes if episodes else 0.0
    for s in EPISODE_SCENARIOS:
        values = [dur[sid] for name, sid in rec.obs.get("episodes", []) if name == s]
        out[f"sim.episode_s.{s}.p50"] = _pct(values, 50)
        out[f"sim.episode_s.{s}.p90"] = _pct(values, 90)
    planned = counts["rows_planned"]
    out["executor.rows_dispatched_frac"] = counts["rows_dispatched"] / planned if planned else 0.0
    out["executor.rows_dispatched"] = counts["rows_dispatched"] * per_item
    out["executor.rows_planned"] = planned * per_item
    i_star = rec.obs.get("i_star", [])
    out["executor.i_star_mean"] = float(np.mean(i_star)) if i_star else 0.0
    chunk_ms = [1e3 * d for d in by_name["diffusion.chunk"]]
    out["diffusion.chunk_ms.p50"] = _pct(chunk_ms, 50)
    out["diffusion.chunk_ms.p90"] = _pct(chunk_ms, 90)
    chunks = calls["diffusion.chunk"]
    out["diffusion.forward_calls_per_chunk"] = counts["forward"] / chunks if chunks else 0.0
    steps = rec.obs.get("steps_per_session", [])
    out["pipeline.steps_per_session"] = float(np.mean(steps)) if steps else 0.0
    offered = counts["detections_offered"]
    out["anchoring.detections_used_frac"] = counts["detections_used"] / offered if offered else 0.0
    out["anchoring.detections_offered"] = offered * per_item
    out["geometry.slerp.calls"] = counts["slerp"] * per_item
    out["geometry.pose3_created"] = counts["pose3"] * per_item
    out["trace.overhead_frac"] = overhead_frac
    bad = [k for k, v in out.items() if not math.isfinite(v)]
    if bad:
        raise ValueError(f"non-finite per-layer metrics: {', '.join(bad)}")
    return out
