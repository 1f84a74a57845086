"""Every function, class, method and line in src/mobman is used by the program.

Three guards check it, each with an allowlist that gives the reason each
entry stays:
- test_every_definition_is_referenced reads the source. A definition counts
  as used when its name is read somewhere in src/mobman outside its own
  definition, or anywhere in benchmarks/*.py, where names are also rebound by
  their string (benchmarks/spans.py). The check is by name, so it misses a
  dead method whose name is read elsewhere.
- test_every_function_runs and test_every_line_runs read one run of the
  program: a CLI tour (_tour), with one bad input for each error path that a
  file or a flag reaches, in a fresh interpreter under sys.settrace. Each
  code object that ran is matched to its def by file and first line, so a
  dead method is found whatever its name; each executable line that never
  ran counts for its innermost function, so a dead branch is found inside a
  function that runs.
Tests do not count as users: code that only a test calls is dead weight for
the program. test_tour_outputs_are_finite parses every file the tour wrote.

    python tests/test_unreferenced.py

prints the never-run lines by module.qualname, each with its count and the
reason its allowlist gives, then the total.
"""
import ast
import contextlib
import csv
import dis
import io
import json
import math
import re
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mobman"

# name -> why it stays although no src or benchmark code reads it
ALLOWED = {
    "as_matrix": "the rotation-matrix oracle of acceptance criterion 1",
    "lift": "criterion 3 lifts a Pose2 into SE(3) (tests/test_acceptance.py:190)",
    "scaled": "acceptance criterion 8 scales MatchWeights with it",
    "train_regression": "the mean-regression control of criterion 5d and ROADMAP item 4",
    "project_nonholonomic": "criterion 4 projects Pose2 records with it (tests/test_acceptance.py:262)",
}

# module.qualname -> why it stays although the tour never runs it
NEVER_RUN = {
    "geometry.Pose2.__post_init__": "criterion 3 builds a Pose2 (tests/test_acceptance.py:190)",
    "geometry.Pose2.of_wrapped": "DemoDataset.steps, for criteria 3 and 4",
    "geometry.Pose2.lift": "criterion 3 lifts a Pose2 into SE(3) (tests/test_acceptance.py:190)",
    "geometry.Pose3.as_matrix": "the rotation-matrix oracle of criterion 1",
    "geometry.quat_to_matrix": "Pose3.as_matrix, for criterion 1",
    "geometry.slerp": "benchmarks/spans.py counts its calls (ROADMAP item 19 moves it to the tests)",
    "executor.MatchWeights.scaled": "criterion 8 scales MatchWeights with it",
    "diffusion.train_regression": "the mean-regression control of criterion 5d",
    "diffusion.TrainingDivergedError.__init__": (
        "no file reaches it: load_dataset bounds every column, and bounded data does not "
        "overflow Adam; the CLI still maps it to exit 1 (test_cli sets bases after loading)"
    ),
    "diffusion.train_regression.zeroed": "train_regression's batch, for criterion 5d",
    "pipeline.DemoDataset.steps": "criteria 3 and 4 read demo rows as pose records",
    "pipeline.integrate_labels": "the label round trip of benchmarks/workloads.py",
    "pipeline.project_nonholonomic": "criterion 4 projects Pose2 records with it (tests/test_acceptance.py:262)",
}

# module.qualname -> (count, why) of the never-run lines of a function that the
# tour calls; a module's own name counts its lines outside every function.
# An error path is here only when no file or flag reaches it.
NEVER_RUN_LINES = {
    "cli": (1, "`python -m mobman.cli` calls main; the tour calls it in-process"),
    "cli.cmd_train_toy": (2, "training that diverges, which no file reaches (NEVER_RUN's TrainingDivergedError)"),
    "anchoring.VioTrajectory.__post_init__": (
        2, "an empty node or a pose of another width: load_trajectories builds a node from its "
        "lines, each pose checked for 7 values first",
    ),
    "anchoring.VioTrajectory.sample_rows": (
        3, "a time outside the span: anchor_node drops detections outside it, and "
        "resample_to_grid samples inside the streams' overlap",
    ),
    "diffusion.cosine_schedule": (1, "K < 1: train_toy passes DEFAULT_K"),
    "diffusion.forward_noise": (1, "a step outside [0, K]: train_toy draws its steps inside the schedule"),
    "diffusion._check_finite": (
        1, "non-finite weights: load_checkpoint reads finite ones, and training on bounded data "
        "keeps them finite",
    ),
    "diffusion.ToyDenoiser.forward": (2, "the path without frozen weights, which only acceptance criterion 5d takes"),
    "diffusion.ToyDenoiser.loss_and_grads": (
        2, "a target of another shape (train_toy's target is the noise it drew); and "
        "grads_out None, which only acceptance criterion 5c takes",
    ),
    "diffusion.ema_update": (1, "arrays of different shapes: _fit pairs each EMA array with the weights of its name"),
    "diffusion._fit": (
        4, "an empty or mismatched training set (cmd_train_toy refuses a dataset under two "
        "rows first); and divergence, which no file reaches",
    ),
    "diffusion.ddim_sample": (
        3, "n_steps outside [1, K] (cmd_simulate refuses a schedule K under "
        "DEFAULT_DDIM_STEPS first); and rng None, which only acceptance criterion 5b takes",
    ),
    "diffusion.ActionChunkTensor.__post_init__": (
        2, "a chunk of another width or a rollout of another length: each policy in src "
        "builds rows of ACTION_DIM floats and one rollout state more than rows",
    ),
    "diffusion.obs_to_condition": (
        2, "a previous action of another width (callers pass ACTION_DIM); and scenario "
        "features, which every src caller leaves empty until ROADMAP item 4",
    ),
    "diffusion.save_checkpoint": (3, "a write that fails part way (a full disk) removes its temporary file"),
    "executor.MatchWeights.__post_init__": (2, "negative or all-zero weights: the executor runs the default weights"),
    "executor.state_match": (1, "an empty rollout: a chunk has at least one row"),
    "executor.splice": (1, "i_star out of range: state_match picks it among the rollout's rows"),
    "executor.LatencyConfig.__post_init__": (1, "a negative delay: cmd_simulate refuses a negative --latency-ms first"),
    "executor.run_executor": (2, "a chunk of another horizon: each policy in src returns DEFAULT_HORIZON rows"),
    "geometry.slerp_floats": (
        1, "a slerp of near-zero quaternions, which the program never takes; slerp_rows has "
        "the same branch, and TestRowHelpers compares the two bit for bit",
    ),
    "pipeline.GripperCalib.__post_init__": (1, "a non-finite value: cmd_process reads the calibration through finite_numbers"),
    "pipeline.savgol_smooth": (
        3, "a window that is even, under 5 or longer than the series: the callers pass "
        "SAVGOL_WINDOW, and assemble_dataset smooths only series at least that long",
    ),
    "pipeline.project_nonholonomic_floats": (1, "fewer than two poses: resample_to_grid makes at least two rows"),
    "pipeline.lateral_quantile": (
        2, "an empty series or a quantile outside (0, 1]: cmd_process passes the residuals "
        "of at least two rows at the default quantile",
    ),
    "pipeline.assemble_dataset": (1, "no cross-node transform: cmd_process reads one from the anchor file"),
    "pipeline.make_action_labels": (1, "fewer than two rows: cmd_train_toy refuses such a dataset first"),
    "sim.ExpertScript.states_at": (1, "an empty script: each scenario's script has segments"),
    "sim.SimScenario.__post_init__": (1, "a script longer than its time limit: the scenarios are fixed at import"),
    "sim.make_scenario": (1, "an unknown name: cmd_simulate checks --scenario against SCENARIO_NAMES first"),
    "sim.scripted_expert": (1, "negative or non-finite noise: no command synthesises a session"),
    "sim.ExpertReplayPolicy.__init__": (1, "another label frame: --label offers relative and global only"),
    "sim.compare_conditions": (1, "repeated condition names: cmd_simulate runs one condition"),
}

# Run in a fresh interpreter so that the tracer is on before mobman is
# imported: importing sim builds every scenario's script. Only frames whose
# file is in src get a local tracer, so the rest of the process runs
# untraced. argv: src/mobman, the src directory, this file's directory and the
# tour's root directory. Prints {file: {"calls": the first lines of the code
# objects called, "lines": the lines run}} as JSON.
_TRACED_TOUR = """
import json, os, sys
mobman, src, tests, root = sys.argv[1:]
mobman = os.path.join(mobman, "")
calls, lines = {}, {}

def local(frame, event, arg):
    if event == "line":
        lines[frame.f_code.co_filename].add(frame.f_lineno)
    return local

def trace(frame, event, arg):
    code = frame.f_code
    if not code.co_filename.startswith(mobman):
        return None
    calls.setdefault(code.co_filename, set()).add(code.co_firstlineno)
    lines.setdefault(code.co_filename, set())
    return local

sys.path[:0] = [src, tests]
import test_unreferenced
sys.settrace(trace)
test_unreferenced._tour(root)
sys.settrace(None)
print(json.dumps({f: {"calls": sorted(calls[f]), "lines": sorted(lines[f])} for f in calls}))
"""


def _reads(tree: ast.AST, strings: bool) -> list[tuple[str, int]]:
    """(name, line) of every name and attribute read in tree, and of every string if strings."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.append((node.value, node.lineno))
    return out


def _unreferenced() -> list[str]:
    paths = sorted(SRC.glob("*.py"))
    src = {p: ast.parse(p.read_text(encoding="utf-8")) for p in paths}
    reads = {p: _reads(tree, strings=False) for p, tree in src.items()}
    bench = {
        name
        for p in (ROOT / "benchmarks").glob("*.py")
        for name, _ in _reads(ast.parse(p.read_text(encoding="utf-8")), strings=True)
    }
    dead = []
    for path, tree in src.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if (name.startswith("__") and name.endswith("__")) or name in bench:
                continue
            if any(
                n == name and (p != path or not node.lineno <= line <= node.end_lineno)
                for p, found in reads.items()
                for n, line in found
            ):
                continue
            dead.append(f"{path.name}:{node.lineno} {name}")
    return dead


def test_every_definition_is_referenced():
    dead = _unreferenced()
    assert [d for d in dead if d.split()[-1] not in ALLOWED] == []
    # an allowed name that the program has come to use, or has dropped, leaves the list
    assert sorted({d.split()[-1] for d in dead}) == sorted(ALLOWED)


# ---------------------------------------------------------------------------
# The runtime guard
# ---------------------------------------------------------------------------


def _tour(root) -> None:
    """Run every CLI command on small inputs, then one bad input for each
    error path that a file or a flag reaches. Outputs go under root/out and
    bad inputs under root/bad; an AssertionError names a command that exits
    with another code than planned."""
    import numpy as np

    from mobman.cli import EXIT_OK, EXIT_REJECTED, EXIT_USAGE, main
    from mobman.diffusion import ACTION_DIM, COND_DIM, ToyDenoiser, cosine_schedule, save_checkpoint
    from mobman.jsonl import float64_text
    from mobman.sim import make_scenario, save_expert_session, scripted_expert

    out, bad = Path(root) / "out", Path(root) / "bad"
    out.mkdir(parents=True)
    bad.mkdir()

    def run(expect: int, *argv) -> None:
        argv = [str(a) for a in argv]
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            rc = main(argv)
        assert rc == expect, f"mobman {' '.join(argv)} exited {rc}, not {expect}:\n{log.getvalue()}"

    def anchor(raw: Path, output: Path, **files) -> list:
        """anchor's argv for the session in raw, files[flag] in place of raw's file."""
        names = {
            "trajectories": "trajectories.jsonl", "detections": "detections.jsonl", "extrinsics": "extrinsics.json"
        }
        flags = [(f"--{flag}", files.get(flag, raw / name)) for flag, name in names.items()]
        return ["anchor", *(a for pair in flags for a in pair), "--output", output]

    # the third session: position noise only, and its gripper calibration
    # from a file with \r\n line ends
    calib = out / "calib.json"
    text = json.dumps({"d_closed": 0.01, "d_open": 0.09}, indent=1)
    calib.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
    for name, sigma_pos, sigma_rot, flags in (
        ("nav_reach", 0.0, 0.0, []),
        ("long_horizon", 1e-3, 1e-3, ["--no-smoothing"]),
        ("nav_turn_place", 1e-3, 0.0, ["--calib", calib]),
    ):
        raw, anchored = out / "raw" / name, out / f"{name}.anchor.json"
        save_expert_session(raw, scripted_expert(make_scenario(name), 3, sigma_pos, sigma_rot))
        run(EXIT_OK, *anchor(raw, anchored))
        run(EXIT_OK, "process", "--raw", raw, "--anchor", anchored, "--output", out / name, *flags)
    dataset = out / "nav_reach" / "dataset.jsonl"
    run(EXIT_OK, "train-toy", "--dataset", dataset, "--steps", 20, "--output", out / "model")
    model = out / "model" / "model.json"
    simulations = {
        "checkpoint": ["--policy", model],
        "cruise": ["--policy", "cruise"],
        "kinematic_turn_place": ["--kinematic", "--scenario", "nav_turn_place"],
        # each chunk arrives after the one before has run out: the plant holds
        # in place, the next request goes out at once, and commands queue up
        "turn_place_latency_3000": ["--scenario", "nav_turn_place", "--latency-ms", 3000],
        "global_jitter_variation": ["--label", "global", "--jitter-ms", 18, "--variation"],
        "global_off": ["--label", "global", "--matching", "off"],
        "off_latency_0": ["--matching", "off", "--latency-ms", 0],
    }
    for name, flags in simulations.items():
        run(EXIT_OK, "simulate", "--trials", 1, *flags, "--output", out / "sim" / name)
    # the conditions are the four cells of the matching x label-frame matrix
    metrics = [out / "sim" / name / "metrics.csv" for name in simulations]
    run(EXIT_OK, "report", "--metrics", *metrics, "--output", out / "report")
    manifest = out / "report" / "manifest.json"
    run(EXIT_OK, "replay", "--manifest", manifest)
    # a simulate config holds a flag of every kind: on/off, store_true, choice, int and float
    run(EXIT_OK, "replay", "--manifest", out / "sim" / "cruise" / "manifest.json")

    # -- bad inputs, each an edited copy of a good one ------------------------

    def records(path: Path) -> list:
        return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]

    def put(name: str, content) -> Path:
        """bad/name holding content: bytes, text, or a list of JSONL records."""
        path = bad / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(content, list):
            content = "".join(json.dumps(r) + "\n" for r in content)
        if isinstance(content, str):
            content = content.encode("utf-8")
        path.write_bytes(content)
        return path

    def first(recs: list, **fields) -> list:
        return [{**recs[0], **fields}, *recs[1:]]

    raw, anchored = out / "raw" / "nav_reach", out / "nav_reach.anchor.json"
    traj, dets = records(raw / "trajectories.jsonl"), records(raw / "detections.jsonl")
    pose, tag = traj[0]["pose"], dets[0]["tag_pose"]
    hand = next(i for i, r in enumerate(dets) if r["node"] == "hand")
    # one hand sighting of the board a half turn about z, over 90 degrees from the rest
    turned = {**dets[hand], "tag_pose": [*dets[hand]["tag_pose"][:3], 0.0, 0.0, 0.0, 1.0]}
    exts = json.loads((raw / "extrinsics.json").read_text(encoding="utf-8"))
    # every pose carried 1.7e308 m along x: finite, but the anchoring sums
    # overflow, and the chest world's base lies outside the dataset's workspace
    shifted = [{**r, "pose": [r["pose"][0] + 1.7e308, *r["pose"][1:]]} for r in traj]
    for expect, flag, name, content in (
        (EXIT_USAGE, "trajectories", "nan.jsonl", first(traj, pose=[math.nan, *pose[1:]])),
        (EXIT_USAGE, "trajectories", "zero_quaternion.jsonl", first(traj, pose=[*pose[:3], 0, 0, 0, 0])),
        (EXIT_USAGE, "trajectories", "repeated_t.jsonl", traj + traj[-1:]),
        (EXIT_USAGE, "trajectories", "negative_cov.jsonl", first(traj, cov_trace=-1.0)),
        (EXIT_USAGE, "trajectories", "node_number.jsonl", first(traj, node=5)),
        (EXIT_USAGE, "trajectories", "pose_of_6.jsonl", first(traj, pose=pose[:6])),
        (EXIT_USAGE, "trajectories", "t_missing.jsonl", [{"node": "chest", "pose": pose}, *traj[1:]]),
        (EXIT_USAGE, "trajectories", "t_text.jsonl", first(traj, t="x")),
        (EXIT_USAGE, "trajectories", "no_hand.jsonl", [r for r in traj if r["node"] != "hand"]),
        # no hand sample under the covariance threshold, so no usable hand detection
        (EXIT_REJECTED, "trajectories", "hand_cov.jsonl",
         [{**r, "cov_trace": 1.0} if r["node"] == "hand" else r for r in traj]),
        (EXIT_USAGE, "trajectories", "0xff.jsonl", (raw / "trajectories.jsonl").read_bytes() + b"\xff"),
        (EXIT_REJECTED, "trajectories", "shifted.jsonl", shifted),
        (EXIT_USAGE, "detections", "t_nan.jsonl", first(dets, t=math.nan)),
        (EXIT_USAGE, "detections", "tag_pose_of_6.jsonl", first(dets, tag_pose=tag[:6])),
        # a string of 7 characters, which has a pose's length
        (EXIT_USAGE, "detections", "tag_pose_text.jsonl", first(dets, tag_pose="1234567")),
        (EXIT_REJECTED, "detections", "turned.jsonl", [*dets[:hand], turned, *dets[hand + 1:]]),
        (EXIT_USAGE, "extrinsics", "no_hand.json", json.dumps({"chest": exts["chest"]})),
        (EXIT_USAGE, "extrinsics", "zero_quaternion.json",
         json.dumps({**exts, "hand": [*exts["hand"][:3], 0, 0, 0, 0]})),
        (EXIT_USAGE, "extrinsics", "cut.json", json.dumps(exts)[:-1]),
        (EXIT_USAGE, "extrinsics", "deep.json", "[" * 100000 + "]" * 100000),
        (EXIT_USAGE, "extrinsics", "0xff.json", json.dumps(exts).encode("utf-8") + b"\xff"),
    ):
        run(expect, *anchor(raw, bad / "anchor.json", **{flag: put(f"{flag}/{name}", content)}))
    run(EXIT_USAGE, *anchor(raw, bad / "anchor.json"), "--cov-threshold", -1)

    marks = records(raw / "markers.jsonl")
    # every covariance above the threshold, and the chest carried off 100 m
    chest = max(i for i, r in enumerate(traj) if r["node"] == "chest")
    spread = [{**r, "cov_trace": 0.5} for r in traj]
    spread[chest] = {**spread[chest], "pose": [pose[0] + 100.0, *traj[chest]["pose"][1:]]}
    # the chest pitched -90 degrees about y: its forward axis points straight up
    up = [math.sqrt(0.5), 0.0, -math.sqrt(0.5), 0.0]
    # every trajectory and marker time scaled by 1e300: finite, but the
    # overlap spans more grid steps than resample_to_grid makes
    late = {"trajectories": traj, "markers": marks}
    late = {stream: [{**r, "t": r["t"] * 1e300} for r in recs] for stream, recs in late.items()}
    for expect, name, streams in (
        (EXIT_USAGE, "no_hand", {"trajectories": [r for r in traj if r["node"] != "hand"]}),
        (EXIT_REJECTED, "spread", {"trajectories": spread}),
        (EXIT_REJECTED, "shifted", {"trajectories": shifted}),
        (EXIT_REJECTED, "vertical_chest",
         {"trajectories": [{**r, "pose": [*r["pose"][:3], *up]} if r["node"] == "chest" else r for r in traj]}),
        (EXIT_USAGE, "negative_distance", {"markers": first(marks, distance_m=-1.0)}),
        (EXIT_USAGE, "repeated_t", {"markers": marks + marks[-1:]}),
        (EXIT_USAGE, "0xff", {"markers": (raw / "markers.jsonl").read_bytes() + b"\xff"}),
        (EXIT_REJECTED, "no_markers", {"markers": []}),
        (EXIT_REJECTED, "one_marker", {"markers": marks[:1]}),
        (EXIT_REJECTED, "times_1e300", late),
    ):
        session = bad / "raw" / name
        for stream in ("trajectories", "markers"):
            put(f"raw/{name}/{stream}.jsonl", streams.get(stream, (raw / f"{stream}.jsonl").read_bytes()))
        run(expect, "process", "--raw", session, "--anchor", anchored, "--output", bad / "processed")
    closed_above_open = put("calib.json", json.dumps({"d_closed": 0.09, "d_open": 0.01}))
    for expect, flags in (
        (EXIT_USAGE, ["--raw", raw, "--anchor", anchored, "--calib", closed_above_open]),
        (EXIT_USAGE, ["--raw", raw / "markers.jsonl", "--anchor", anchored]),
        (EXIT_USAGE, ["--raw", raw, "--anchor", bad / "missing.json"]),
    ):
        run(expect, "process", *flags, "--output", bad / "processed")
    # outputs that cannot be written: inside an input, under a file, a
    # directory for a file, and a file where a directory goes
    run(EXIT_USAGE, "process", "--raw", raw, "--anchor", anchored, "--output", raw / "processed")
    run(EXIT_USAGE, "simulate", "--output", model / "sim")
    run(EXIT_USAGE, "simulate", "--output", model)
    (bad / "occupied" / "metrics.csv").mkdir(parents=True)
    run(EXIT_USAGE, "simulate", "--output", bad / "occupied")

    rows = records(dataset)
    hand_rel = rows[0]["hand_rel"]
    for expect, name, content in (
        # a line cut short
        (EXIT_USAGE, "cut.jsonl", dataset.read_text(encoding="utf-8").split("\n", 1)[0][:-1] + "\n"),
        # a line nested deeper than json's recursion limit
        (EXIT_USAGE, "deep.jsonl", "[" * 100000 + "]" * 100000 + "\n"),
        # base x of 1e300 on every line: outside the dataset's workspace
        # (before the column bounds, Adam's second moment overflowed on it)
        (EXIT_USAGE, "huge.jsonl", [{**r, "base": [1e300, *r["base"][1:]]} for r in rows]),
        (EXIT_USAGE, "zero_quaternion.jsonl", first(rows, hand_rel=[*hand_rel[:3], 0, 0, 0, 0])),
        # one line, whose quaternion's w is 0
        (EXIT_USAGE, "one_line.jsonl", first(rows[:1], hand_rel=[*hand_rel[:3], 0, 0, -1, 0])),
    ):
        run(expect, "train-toy", "--dataset", put(f"dataset/{name}", content), "--steps", 20, "--output", bad / "model")

    doc = json.loads(model.read_text(encoding="utf-8"))
    ema, alpha_bar = doc["ema"], doc["alpha_bar"]
    # the weights of ema[name] all set to value
    fill = lambda name, value: float64_text([value] * (len(ema[name]) * 3 // 4 // 8))
    short, long = cosine_schedule(5), cosine_schedule(200)
    for expect, name, fields in (
        (EXIT_USAGE, "version_2", {"version": 2}),
        (EXIT_USAGE, "hidden_0", {"hidden": 0}),
        (EXIT_USAGE, "no_W1", {"ema": {k: v for k, v in ema.items() if k != "W1"}}),
        (EXIT_USAGE, "W3_number", {"ema": {**ema, "W3": 5}}),
        (EXIT_USAGE, "W3_not_base64", {"ema": {**ema, "W3": "!!"}}),
        (EXIT_USAGE, "W3_3_bytes", {"ema": {**ema, "W3": "AAAA"}}),
        (EXIT_USAGE, "W3_nan", {"ema": {**ema, "W3": fill("W3", math.nan)}}),
        (EXIT_USAGE, "alpha_bar_text", {"alpha_bar": "x"}),
        (EXIT_USAGE, "alpha_bar_short", {"alpha_bar": alpha_bar[:-1]}),
        (EXIT_USAGE, "alpha_bar_zero", {"alpha_bar": [*alpha_bar[:-1], 0.0]}),
        (EXIT_USAGE, "alpha_bar_halved", {"alpha_bar": [a / 2 for a in alpha_bar]}),
        (EXIT_USAGE, "alpha_bar_rising", {"alpha_bar": [*alpha_bar[:-2], alpha_bar[-1], alpha_bar[-2]]}),
        (EXIT_USAGE, "K_5", {"K": 5, "alpha_bar": short.alpha_bar.tolist()}),
        # output weights so large that a sampled row is not finite; an output
        # bias so large that a row's quaternion block has a norm that
        # overflows, or that it is finite but out of range (over 200 steps,
        # each beyond the step features' table, embedded on its own)
        (EXIT_REJECTED, "W3_1e300", {"ema": {**ema, "W3": fill("W3", 1e300)}}),
        (EXIT_REJECTED, "b3_1e200", {"ema": {**ema, "W3": fill("W3", 0.0), "b3": fill("b3", 1e200)}}),
        (EXIT_REJECTED, "b3_1e120", {"K": 200, "alpha_bar": long.alpha_bar.tolist(),
                                     "ema": {**ema, "W3": fill("W3", 0.0), "b3": fill("b3", 1e120)}}),
    ):
        run(expect, "simulate", "--policy", put(f"model/{name}.json", json.dumps({**doc, **fields})),
            "--trials", 1, "--output", bad / "sim")
    # a checkpoint whose dimensions are not the policy's
    other = ToyDenoiser(input_dim=ACTION_DIM, cond_dim=COND_DIM + 1, hidden=4, kemb_dim=4, temb_dim=4)
    other.init_params(np.random.default_rng(0))
    save_checkpoint(bad / "model" / "cond_dim.json", other, cosine_schedule())
    run(EXIT_USAGE, "simulate", "--policy", bad / "model" / "cond_dim.json", "--output", bad / "sim")
    run(EXIT_USAGE, "simulate", "--scenario", "moon", "--output", bad / "sim")
    run(EXIT_USAGE, "simulate", "--matching", "maybe", "--output", bad / "sim")

    header = (out / "sim" / "cruise" / "metrics.csv").read_text(encoding="utf-8").splitlines()
    negative = header[1].split(",")
    negative[header[0].split(",").index("rollbacks")] = "-1"
    for expect, name, content in (
        (EXIT_REJECTED, "header_only.csv", header[0] + "\n"),
        (EXIT_USAGE, "negative_rollbacks.csv", "\n".join([header[0], ",".join(negative), ""])),
    ):
        run(expect, "report", "--metrics", put(f"metrics/{name}", content), "--output", bad / "report")

    # manifests: one character of a recorded digest changed, so that the
    # rerun's input or output differs from the record, and fields that no
    # run of the recorded command writes
    recorded = json.loads(manifest.read_text(encoding="utf-8"))
    flip = lambda digest: "01"[digest[0] == "0"] + digest[1:]
    label, files = next(iter(recorded["inputs"].items()))
    path = next(iter(files))
    out_path = next(iter(recorded["outputs"]))
    config = recorded["config"]
    for expect, name, fields in (
        (EXIT_REJECTED, "output_changed", {"outputs": {**recorded["outputs"], out_path: flip(recorded["outputs"][out_path])}}),
        (EXIT_REJECTED, "input_changed", {"inputs": {**recorded["inputs"], label: {path: flip(files[path])}}}),
        (EXIT_USAGE, "seed_text", {"seed": "x"}),
        (EXIT_USAGE, "unknown_command", {"command": "dance"}),
        (EXIT_USAGE, "no_title", {"config": {k: v for k, v in config.items() if k != "title"}}),
        (EXIT_USAGE, "title_number", {"config": {**config, "title": 5}}),
        (EXIT_USAGE, "output_outside", {"outputs": {"/elsewhere/report.md": flip(recorded["outputs"][out_path])}}),
    ):
        run(expect, "replay", "--manifest", put(f"manifest/{name}.json", json.dumps({**recorded, **fields})))


def _functions() -> dict[tuple[Path, int], tuple[str, int, int]]:
    """(file, first line) -> (module.qualname, first line, last line) of every
    function in src/mobman. A decorated function's first line is its first
    decorator's, as is its code object's co_firstlineno."""
    found = {}

    def visit(node: ast.AST, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[path, first] = (name, first, child.end_lineno)
            visit(child, path, name)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, path.stem)
    return found


def _code_lines(code: types.CodeType) -> set[int]:
    """The lines of code and of the code objects nested in it that fire a line
    event when they run: every line of the line table but the prologue's,
    which sits on the def line (the enclosing code runs that line)."""
    resume = next((i.offset for i in dis.get_instructions(code) if i.opname == "RESUME"), -1)
    lines = {line for start, _, line in code.co_lines() if line is not None and start > resume}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def _trace(root) -> dict[Path, dict[str, set[int]]]:
    """Run the tour under root in a fresh interpreter under sys.settrace;
    file -> {"calls": the first lines of the code objects called, "lines":
    the lines run} of every file in src/mobman that ran."""
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_TOUR, str(SRC), str(SRC.parent), str(Path(__file__).parent), str(root)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    ran = json.loads(proc.stdout)
    return {Path(f).resolve(): {k: set(v) for k, v in found.items()} for f, found in ran.items()}


def _never_run(ran) -> list[str]:
    """module.qualname of every function in src/mobman that the traced tour
    never calls, in source order."""
    return [
        name
        for (path, first), (name, _, _) in _functions().items()
        if first not in ran.get(path, {}).get("calls", ())
    ]


def _never_run_lines(ran) -> dict[str, int]:
    """module.qualname -> the number of its executable lines (docstrings and
    def lines aside) that the traced tour never runs; each line counts for
    its innermost function, and a line outside every function for its
    module."""
    functions = _functions()
    never: dict[str, int] = {}
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        run = ran.get(path, {"lines": set()})
        spans = sorted((first, last, name) for (p, first), (name, _, last) in functions.items() if p == path)
        for line in sorted(_code_lines(compile(text, str(path), "exec")) - run["lines"]):
            owner = path.stem
            for first, last, name in spans:
                if first <= line <= last:
                    owner = name
            never[owner] = never.get(owner, 0) + 1
    return never


@pytest.fixture(scope="module")
def tour(tmp_path_factory):
    """The tour's root directory and what it ran in src/mobman (_trace)."""
    root = tmp_path_factory.mktemp("tour")
    return root, _trace(root)


def test_every_function_runs(tour):
    never = _never_run(tour[1])
    assert [name for name in never if name not in NEVER_RUN] == []
    # an allowed function that the tour has come to run, or that src has dropped, leaves the list
    assert sorted(never) == sorted(NEVER_RUN)


def test_every_line_runs(tour):
    """Every line of a function the tour calls runs, but those that an entry
    of NEVER_RUN_LINES counts; NEVER_RUN's functions are test_every_function_runs'.
    An entry whose count has fallen must be lowered, so that a line that
    leaves src or comes to run cannot make room for a new one."""
    never = {k: n for k, n in _never_run_lines(tour[1]).items() if k not in NEVER_RUN}
    allowed = {k: n for k, (n, _) in NEVER_RUN_LINES.items()}
    rose = {k: (n, allowed.get(k, 0)) for k, n in never.items() if n > allowed.get(k, 0)}
    assert rose == {}, "(never run, allowed) lines: run them in _tour, remove them, or give a reason"
    fell = {k: (never.get(k, 0), n) for k, n in allowed.items() if never.get(k, 0) < n}
    assert fell == {}, "(never run, allowed) lines: lower the entry's count, or drop it at 0"


# ---------------------------------------------------------------------------
# No output of the tour holds NaN or Infinity (parsed, not grepped: a
# checkpoint's base64 weight text can hold the letters "NaN")
# ---------------------------------------------------------------------------

# a number in text, or the word nan, inf or infinity in any case
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\b(?:nan|inf(?:inity)?)\b", re.I)


def _no_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def _assert_finite_file(path: Path) -> None:
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        json.loads(text, parse_constant=_no_constant)
        if path.name == "model.json":
            from mobman.diffusion import load_checkpoint

            model, sched = load_checkpoint(path)
            arrays = [*model.ema.values(), sched.alpha_bar]
            assert all(math.isfinite(v) for a in arrays for v in a.ravel().tolist())
    elif path.suffix == ".jsonl":
        for line in filter(None, text.splitlines()):
            json.loads(line, parse_constant=_no_constant)
    elif path.suffix == ".csv":
        for cell in (c for row in csv.reader(io.StringIO(text)) for c in row):
            try:
                value = float(cell)
            except ValueError:
                continue
            assert math.isfinite(value), cell
    elif path.suffix in (".svg", ".md"):
        for number in _NUMBER.findall(text):
            assert math.isfinite(float(number)), number
    else:
        raise AssertionError(f"no finiteness check for the tour output {path.name}")


def test_tour_outputs_are_finite(tour):
    files = sorted(p for p in (tour[0] / "out").rglob("*") if p.is_file())
    assert {p.suffix for p in files} == {".json", ".jsonl", ".csv", ".svg", ".md"}
    for path in files:
        _assert_finite_file(path)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        never = _never_run_lines(_trace(tmp))
    for name, n in never.items():
        why = NEVER_RUN[name] if name in NEVER_RUN else NEVER_RUN_LINES.get(name, (0, "NO REASON"))[1]
        print(f"{name}: {n} lines: {why}")
    print(f"{sum(never.values())} lines never run")
