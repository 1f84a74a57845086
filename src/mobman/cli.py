"""Command-line surface: anchor, process, train-toy, simulate, report, replay.

Every command resolves its flags into a plain config dict and goes through
one runner, _run. Before any work the runner checks the output path, checks
each input path flag (metavar FILE or DIR) under the flag's name, and refuses
an output that would change an input. It then runs the command's body, a
function of the config and of the output paths that only reads, computes and
writes, and builds the run manifest: the inputs by flag, then the outputs.
The replay command reruns a manifest through the same runner into a
temporary directory and verifies that its inputs and regenerated outputs
hash-match the recorded ones. Exit codes: 0 success, 1 domain rejection
(filter/divergence/mismatch), 2 usage error.
"""
from __future__ import annotations

import argparse
import csv
import functools
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .anchoring import (
    CHEST,
    TimestampError,
    HAND,
    anchor_node,
    anchor_result_to_dict,
    cross_node_transform,
    load_detections,
    load_extrinsics,
    load_trajectories,
)
from .diffusion import (
    ACTION_DIM,
    ActionChunkTensor,
    COND_DIM,
    DEFAULT_DDIM_STEPS,
    DEFAULT_HORIZON,
    NoiseSchedule,
    ToyDenoiser,
    TrainConfig,
    TrainingDivergedError,
    ddim_sample,
    load_checkpoint,
    model_eps_fn,
    obs_to_condition,
    save_checkpoint,
    train_toy,
)
from .geometry import DegeneratePitchError, Pose2, Pose3, quat_canonical_floats, quat_canonical_rows
from .jsonl import MalformedInputError, fields_of, finite_numbers, read_json, read_jsonl, write_json
from .manifest import RunManifest
from .pipeline import (
    GripperCalib,
    PipelineConfig,
    PipelineError,
    RawSession,
    assemble_dataset,
    lateral_quantile,
    load_dataset,
    make_action_labels,
    project_nonholonomic,
    save_dataset,
)
from .report import REPORT_FILES, _finite_nonnegative, load_metrics, write_report
from .sim import (
    Condition,
    CruisePolicy,
    DEFAULT_CALIB,
    PlantConfig,
    SCENARIO_NAMES,
    compare_conditions,
    run_episode,  # noqa: F401  benchmarks/spans.py rebinds it under this name
    scripted_expert,  # noqa: F401  benchmarks/spans.py traces it under this name
)
from .executor import NonFiniteChunkError

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


class DomainError(Exception):
    pass


def _require_path(path, what: str, is_dir: bool = False) -> Path:
    """Usage error naming what and path unless path is a directory (is_dir)
    or a file."""
    p = Path(path)
    if not p.exists():
        raise UsageError(f"{what} not found: {p}")
    if p.is_dir() != is_dir:
        raise UsageError(f"{what} is {'not ' if is_dir else ''}a directory: {p}")
    return p


def _require_output(path, files: tuple[str, ...] | None) -> tuple[list[Path], Path]:
    """The files written at output path, a file (files None) or a directory
    holding `files`, and the manifest saved with them, inside the directory or
    beside the file. Usage error naming path unless all can be written: an
    existing path of the other kind, one under a file, or a directory where
    one of the files goes."""
    p = Path(path)
    is_dir = files is not None
    nearest = next(q for q in (p, *p.parents) if q.exists())
    if nearest != p and not nearest.is_dir():
        raise UsageError(f"output {p} lies under {nearest}, which is not a directory")
    if nearest == p and p.is_dir() != is_dir:
        raise UsageError(f"output {p} is {'not ' if is_dir else ''}a directory")
    written = [p / name for name in files] if is_dir else [p]
    manifest = p / "manifest.json" if is_dir else p.with_suffix(".manifest.json")
    for q in (*written, manifest):
        if q.is_dir():
            raise UsageError(f"output file {q} is a directory")
    return written, manifest


def _check_flag(cfg: dict, name: str, ok, rule: str) -> None:
    """Usage error naming the flag unless ok(cfg[name]); rule says what ok asks."""
    if not ok(cfg[name]):
        raise UsageError(f"--{name.replace('_', '-')} must be {rule}, got {cfg[name]}")


# ---------------------------------------------------------------------------
# anchor
# ---------------------------------------------------------------------------


def cmd_anchor(cfg: dict, anchor_path: Path) -> None:
    _check_flag(cfg, "cov_threshold", _finite_nonnegative, "finite and >= 0")
    trajs = load_trajectories(cfg["trajectories"])
    dets = load_detections(cfg["detections"])
    exts = load_extrinsics(cfg["extrinsics"])
    for node in (CHEST, HAND):
        if node not in trajs:
            raise UsageError(f"trajectory stream for node {node!r} missing")
        if node not in exts:
            raise UsageError(f"extrinsic for node {node!r} missing")
    results = {}
    for node in (CHEST, HAND):
        try:
            results[node] = anchor_node(
                trajs[node], exts[node], dets, cov_threshold=cfg["cov_threshold"]
            )
        except ValueError as exc:
            raise DomainError(str(exc)) from exc
    if any(r.ill_conditioned for r in results.values()):
        raise DomainError("anchoring ill-conditioned: rotation spread exceeds 90 degrees")
    cross = cross_node_transform(
        results[CHEST].T_world_tag, results[HAND].T_world_tag
    )
    out = {
        "anchors": {n: anchor_result_to_dict(r) for n, r in results.items()},
        "cross_node": cross.to_list(),
    }
    write_json(anchor_path, out)
    for n, r in results.items():
        print(
            f"{n}: {r.detection_count} detections, residual RMS "
            f"{r.position_rms * 1e3:.2f} mm / {np.degrees(r.rotation_rms):.3f} deg"
        )


# ---------------------------------------------------------------------------
# process
# ---------------------------------------------------------------------------


def _load_raw_session(raw_dir: Path, cross_node: Pose3) -> RawSession:
    trajs = load_trajectories(_require_path(raw_dir / "trajectories.jsonl", "trajectories"))
    for node in (CHEST, HAND):
        if node not in trajs:
            raise UsageError(f"trajectory stream for node {node!r} missing")
    markers_path = _require_path(raw_dir / "markers.jsonl", "marker stream")
    markers = list(read_jsonl(markers_path))
    with fields_of(markers_path):
        marker_t = finite_numbers([m["t"] for m in markers], "marker t")
        marker_d = finite_numbers([m["distance_m"] for m in markers], "marker distance_m")
    negative = marker_d[marker_d < 0.0]
    if len(negative):
        raise MalformedInputError(markers_path, f"negative marker distance_m value {negative[0]}")
    # lines may come in any order, as trajectory samples may
    order = np.argsort(marker_t, kind="stable")
    marker_t, marker_d = marker_t[order], marker_d[order]
    repeated = marker_t[1:][np.diff(marker_t) == 0.0]
    if len(repeated):
        raise MalformedInputError(markers_path, f"repeated marker timestamp t={repeated[0]}")
    return RawSession(
        session_id=raw_dir.name,
        chest=trajs[CHEST],
        hand=trajs[HAND],
        cross_node=cross_node,
        marker_t=marker_t,
        marker_d=marker_d,
    )


def cmd_process(cfg: dict, dataset_path: Path) -> None:
    anchor_doc = read_json(cfg["anchor"])
    with fields_of(cfg["anchor"]):
        cross = Pose3.from_list(anchor_doc["cross_node"])
    calib = DEFAULT_CALIB
    if cfg["calib"]:
        cal_doc = read_json(cfg["calib"])
        with fields_of(cfg["calib"]):
            d = finite_numbers((cal_doc["d_closed"], cal_doc["d_open"]), "calibration")
            calib = GripperCalib(*d.tolist())
    session = _load_raw_session(Path(cfg["raw"]), cross)
    pipe_cfg = PipelineConfig(smoothing=cfg["smoothing"])
    try:
        dataset = assemble_dataset(session, calib, pipe_cfg)
    except (PipelineError, TimestampError, DegeneratePitchError) as exc:
        raise DomainError(str(exc)) from exc

    save_dataset(dataset_path, dataset)
    bases = [Pose2.of_wrapped(*b) for b in dataset.states[:, :3].tolist()]
    _, residuals = project_nonholonomic(bases, dt=0.1)
    q99 = lateral_quantile(residuals)
    print(f"{len(dataset)} steps, lateral q0.99 = {q99:.4f} m/s")


# ---------------------------------------------------------------------------
# train-toy
# ---------------------------------------------------------------------------


def _dataset_to_pairs(dataset) -> tuple[np.ndarray, np.ndarray]:
    """(condition, next-action) training pairs from one processed demo: row i
    is obs_to_condition of state i and of label i - 1 (zeros for i = 0)."""
    labels = make_action_labels(dataset)
    prev = np.vstack([np.zeros(ACTION_DIM), labels[:-1]])
    return obs_to_condition(dataset.states[:-1], prev, ()), labels


def cmd_train_toy(cfg: dict, ckpt: Path, curve_path: Path) -> None:
    _check_flag(cfg, "steps", lambda v: v >= 1, "at least 1")
    _check_flag(cfg, "seed", lambda v: v >= 0, ">= 0")
    dataset = load_dataset(cfg["dataset"])
    if len(dataset) < 2:
        raise UsageError("dataset too small to form training pairs")
    conds, a0s = _dataset_to_pairs(dataset)
    train_cfg = TrainConfig(steps=cfg["steps"], seed=cfg["seed"])
    try:
        model, sched, curve = train_toy(conds, a0s, train_cfg)
    except TrainingDivergedError as exc:
        raise DomainError(f"training diverged: {exc}") from exc

    save_checkpoint(ckpt, model, sched)
    with open(curve_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["step", "loss"])
        for i, loss in enumerate(curve):
            w.writerow([i, f"{loss:.6e}"])
    print(f"final loss {curve[-1]:.4e} over {len(curve)} steps")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


class DiffusionReplayPolicy:
    """Policy adapter around a trained model and its noise schedule.

    Samples one 11-D action row at a time (the condition includes the
    previous row), chaining horizon rows into a chunk. Each chunk's sampler
    is seeded from [seed, 0xD1, number of earlier calls], so repeated runs
    are deterministic.
    """

    def __init__(self, model: ToyDenoiser, sched: NoiseSchedule, seed: int = 0):
        self.sched = sched
        self.seed = seed
        self._eps_fn = model_eps_fn(model)
        self._calls = 0

    def __call__(self, obs: tuple, obs_t: float) -> ActionChunkTensor:
        rng = np.random.default_rng([self.seed, 0xD1, self._calls])
        self._calls += 1
        # the hand quaternion is canonicalised again, as a Pose3 of it was
        state = np.array((*obs[:6], *quat_canonical_floats(*obs[6:10]), obs[10]))
        prev, rows = np.zeros(ACTION_DIM), []
        # an entry that overflows to inf or NaN is left to the finite check below
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(DEFAULT_HORIZON):
                cond = obs_to_condition(state, prev, ())
                prev = ddim_sample(self._eps_fn, cond, self.sched, rng=rng, sample_dim=ACTION_DIM)[0]
                rows.append(prev)
            rows = np.array(rows)
            # rows with a NaN or infinite entry, or with a quaternion block so large
            # that its norm overflows, are rejected before anything executes them
            if np.isfinite(rows).all():
                try:
                    # the quaternion-increment block, renormalised row-wise with w >= 0
                    rows[:, 6:10] = quat_canonical_rows(rows[:, 6:10])
                except ValueError:  # a quaternion block that cannot be normalised
                    pass
                else:
                    return ActionChunkTensor(tuple(map(tuple, rows.tolist())))
        raise NonFiniteChunkError(
            "sampled an action chunk with a non-finite entry or a quaternion block "
            f"that cannot be normalised (trial seed {self.seed})"
        )


# The --policy words that name a built-in policy, not a checkpoint file, and
# the policy factory of each (None replays the scripted expert).
_POLICY_WORDS = {"replay": None, "cruise": lambda trial_seed: CruisePolicy()}


def cmd_simulate(cfg: dict, metrics_path: Path, aggregate_path: Path) -> None:
    if cfg["scenario"] not in SCENARIO_NAMES:
        raise UsageError(
            f"unknown scenario {cfg['scenario']!r}; choose from {', '.join(SCENARIO_NAMES)}"
        )
    _check_flag(cfg, "trials", lambda v: v >= 1, "at least 1")
    _check_flag(cfg, "seed", lambda v: v >= 0, ">= 0")
    for flag in ("latency_ms", "jitter_ms"):
        _check_flag(cfg, flag, _finite_nonnegative, "finite and >= 0")
    source = cfg["policy"]
    if source in _POLICY_WORDS:
        make_policy = _POLICY_WORDS[source]
    else:
        model, sched = load_checkpoint(source)
        if sched.K < DEFAULT_DDIM_STEPS:
            raise MalformedInputError(
                source, f"schedule K {sched.K} is below the sampler's {DEFAULT_DDIM_STEPS} steps"
            )
        dims = (model.input_dim, model.cond_dim)
        need = (ACTION_DIM, COND_DIM)
        if dims != need:
            raise MalformedInputError(source, f"(input_dim, cond_dim) is {dims}, the policy needs {need}")
        make_policy = lambda trial_seed: DiffusionReplayPolicy(model, sched, seed=trial_seed)
    cond = Condition(
        name=f"match_{'on' if cfg['matching'] else 'off'}_label_{cfg['label']}",
        matching=cfg["matching"],
        label_frame=cfg["label"],
        latency_ms=cfg["latency_ms"],
        jitter_ms=cfg["jitter_ms"],
        locomotion_variation=cfg["variation"],
    )
    try:
        rows, aggregate = compare_conditions(
            [cond],
            cfg["scenario"],
            cfg["trials"],
            master_seed=cfg["seed"],
            plant_cfg=PlantConfig(kinematic=cfg["kinematic"]),
            make_policy=make_policy,
        )
    except NonFiniteChunkError as exc:
        raise DomainError(f"policy {source}: {exc}") from exc

    metrics_path.parent.mkdir(parents=True, exist_ok=True)
    with open(metrics_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)
    write_json(aggregate_path, aggregate)
    a = aggregate[cond.name]
    print(
        f"{cond.name}: {a['trials']} trials, success {a['success_rate']:.1%}, "
        f"rollbacks {a['mean_rollbacks']}, jitter {a['mean_jitter']}, "
        f"i* {a['i_star_mean']}"
    )


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def cmd_report(cfg: dict, *paths: Path) -> None:
    rows = load_metrics(cfg["metrics"])
    if not rows:
        raise DomainError("metrics files contain no episodes")
    write_report(rows, cfg["output"], title=cfg["title"])
    print(f"wrote {', '.join(map(str, paths))}")


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------

# command -> (body, the names of the files it writes into its --output
# directory, or None where --output is the one file it writes); the runner
# calls body(cfg, *the paths of those files).
_COMMANDS = {
    "anchor": (cmd_anchor, None),
    "process": (cmd_process, ("dataset.jsonl",)),
    "train-toy": (cmd_train_toy, ("model.json", "curve.csv")),
    "simulate": (cmd_simulate, ("metrics.csv", "aggregate.json")),
    "report": (cmd_report, REPORT_FILES),
}


def _flag_actions(command: str) -> list[argparse.Action]:
    """The parser actions of a command's flags, one per config key."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [a for a in sub.choices[command]._actions if a.dest != "help"]


def _run(command: str, cfg: dict) -> tuple[RunManifest, Path]:
    """Run a command on cfg; return its manifest and the path to save it at.

    Before any work: the output is checked; so is every other FILE or DIR
    flag's path, under the flag's name, unless it is a --policy word or the
    empty value of an optional flag without a default; and no written file,
    the manifest included, may be an input or lie in an input directory
    (compared as absolute paths, links unresolved). The manifest records each
    input under its flag's dest (dest_i for the i-th file of a flag that
    takes several), then the outputs in the table's order."""
    body, files = _COMMANDS[command]
    written, manifest_path = _require_output(cfg["output"], files)
    inputs = []  # (label, flag, path)
    for a in _flag_actions(command):
        if a.metavar not in ("FILE", "DIR") or a.dest == "output":
            continue
        flag, several = a.option_strings[0], a.nargs == "+"
        unset = (None, "") if a.default is None and not a.required else ()
        for i, path in enumerate(cfg[a.dest] if several else [cfg[a.dest]]):
            if path not in unset and not (a.dest == "policy" and path in _POLICY_WORDS):
                _require_path(path, flag, is_dir=a.metavar == "DIR")
                inputs.append((f"{a.dest}_{i}" if several else a.dest, flag, path))
    # w is path or lies in it when w's separator-ended form starts with path's
    ended = lambda p: os.path.join(os.path.abspath(p), "")
    for w in (*written, manifest_path):
        for _, flag, path in inputs:
            if ended(w).startswith(ended(path)):
                raise UsageError(f"output {w} would change input {flag} {path}")
    body(cfg, *written)
    man = RunManifest(command, cfg, seed=cfg.get("seed", 0))
    for label, _, path in inputs:
        man.add_input(label, path)
    for w in written:
        man.add_output(w)
    return man, manifest_path


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


def _fits_flag(command: str, action: argparse.Action, value) -> bool:
    """Whether value is one that the flag of action can put into the config."""
    if action.nargs == 0 or (command, action.dest) in _ON_OFF_FLAGS:
        return isinstance(value, bool)
    if action.nargs == "+":
        return isinstance(value, list) and bool(value) and all(isinstance(v, str) for v in value)
    if action.choices is not None:
        return isinstance(value, str) and value in action.choices
    if action.type is int:
        return type(value) is int
    if action.type is float:
        return type(value) in (int, float)
    optional_none = value is None and action.default is None and not action.required
    return isinstance(value, str) or optional_none


def _differing(recorded: dict, rerun: dict) -> list:
    """The keys whose values differ between recorded and rerun, or that only one has."""
    return [k for k in recorded.keys() | rerun.keys() if recorded.get(k) != rerun.get(k)]


def _machine() -> str:
    """This process's numpy and BLAS. Byte-exact outputs rest on the BLAS dot
    kernel, so a replay on another machine can differ in the last bit."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return (
        f"this machine runs numpy {np.__version__} with BLAS "
        f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}"
    )


def cmd_replay(cfg: dict) -> None:
    manifest_path = _require_path(cfg["manifest"], "--manifest")
    recorded = RunManifest.load(manifest_path)
    if recorded.command not in _COMMANDS:
        raise UsageError(f"manifest records unknown command {recorded.command!r}")
    actions = _flag_actions(recorded.command)
    missing = sorted({a.dest for a in actions} - set(recorded.config))
    if missing:
        raise MalformedInputError(manifest_path, f"config lacks {', '.join(missing)}")
    misfits = [
        f"{a.dest}={recorded.config[a.dest]!r}"
        for a in actions
        if not _fits_flag(recorded.command, a, recorded.config[a.dest])
    ]
    if misfits:
        raise MalformedInputError(
            manifest_path, f"config holds values its flags cannot give: {', '.join(misfits)}"
        )
    root = Path(recorded.config["output"])
    outside = [p for p in recorded.outputs if not Path(p).is_relative_to(root)]
    if outside:
        raise MalformedInputError(
            manifest_path, f"outputs outside the recorded output {root}: {', '.join(outside)}"
        )
    # the rerun writes into a temporary directory, so a mismatch leaves the
    # recorded outputs as they are; outputs are compared by their path
    # relative to the output file or directory, and an input or output that
    # only one side has is a mismatch too
    with tempfile.TemporaryDirectory() as tmp:
        rerun = Path(tmp) / "output"
        man, _ = _run(recorded.command, {**recorded.config, "output": str(rerun)})
    changed = sorted(_differing(recorded.inputs, man.inputs))
    if changed:
        raise DomainError("replay inputs differ from manifest: " + ", ".join(changed))
    expected = {Path(p).relative_to(root): d for p, d in recorded.outputs.items()}
    produced = {Path(p).relative_to(rerun): d for p, d in man.outputs.items()}
    mismatched = sorted(str(root / rel) for rel in _differing(expected, produced))
    if mismatched:
        raise DomainError(
            f"replay outputs differ from manifest: {', '.join(mismatched)} ({_machine()})"
        )
    print(f"replay of {recorded.command!r} reproduced {len(man.outputs)} outputs")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2 already; keep message
        self.print_usage(sys.stderr)
        raise UsageError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parsing does not change it."""
    p = _Parser(prog="mobman", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    a = sub.add_parser("anchor", help="average board detections into a cross-node transform")
    a.add_argument("--trajectories", required=True, metavar="FILE")
    a.add_argument("--detections", required=True, metavar="FILE")
    a.add_argument("--extrinsics", required=True, metavar="FILE")
    a.add_argument("--output", required=True, metavar="FILE")
    a.add_argument("--cov-threshold", type=float, default=0.01)

    pr = sub.add_parser("process", help="raw capture session -> 10 Hz demo dataset")
    pr.add_argument("--raw", required=True, metavar="DIR", help="session directory")
    pr.add_argument(
        "--anchor", required=True, metavar="FILE", help="anchor JSON from the anchor command"
    )
    pr.add_argument("--calib", default=None, metavar="FILE", help="gripper calibration JSON")
    pr.add_argument("--output", required=True, metavar="DIR")
    pr.add_argument("--no-smoothing", dest="smoothing", action="store_false")

    tr = sub.add_parser("train-toy", help="train the toy denoiser on a demo dataset")
    tr.add_argument("--dataset", required=True, metavar="FILE")
    tr.add_argument("--output", required=True, metavar="DIR")
    tr.add_argument("--steps", type=int, default=3000)
    tr.add_argument("--seed", type=int, default=0)

    si = sub.add_parser("simulate", help="run seeded episodes under one condition")
    si.add_argument("--scenario", default="nav_reach")
    si.add_argument(
        "--policy", default="replay", metavar="FILE", help="'replay', 'cruise' or checkpoint path"
    )
    si.add_argument("--matching", choices=("on", "off"), default="on")
    si.add_argument("--label", choices=("relative", "global"), default="relative")
    si.add_argument("--latency-ms", type=float, default=142.0)
    si.add_argument("--jitter-ms", type=float, default=0.0)
    si.add_argument("--trials", type=int, default=10)
    si.add_argument("--seed", type=int, default=0)
    si.add_argument("--kinematic", action="store_true")
    si.add_argument("--variation", action="store_true", help="per-trial task-frame shift")
    si.add_argument("--output", required=True, metavar="DIR")

    re = sub.add_parser("report", help="render metrics CSVs into markdown + SVG")
    re.add_argument("--metrics", nargs="+", required=True, metavar="FILE")
    re.add_argument("--output", required=True, metavar="DIR")
    re.add_argument("--title", default="Condition comparison")

    rp = sub.add_parser("replay", help="re-run a manifest and verify identical outputs")
    rp.add_argument("--manifest", required=True, metavar="FILE")
    return p


# (command, config key) of the on/off choices that the config records as a bool.
_ON_OFF_FLAGS = {("simulate", "matching")}


def _args_to_config(args: argparse.Namespace) -> dict:
    cfg = {k: v for k, v in vars(args).items() if k != "command"}
    for command, key in _ON_OFF_FLAGS:
        if args.command == command:
            cfg[key] = cfg[key] == "on"
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _args_to_config(args)
        if args.command == "replay":
            cmd_replay(cfg)
        else:
            man, manifest_path = _run(args.command, cfg)
            man.save(manifest_path)
    except (UsageError, MalformedInputError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return EXIT_REJECTED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
