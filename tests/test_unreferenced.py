"""Every function, class and method in src/mobman is used by the program.

Two guards check it, each with an allowlist that gives the reason each
entry stays:
- test_every_definition_is_referenced reads the source. A definition counts
  as used when its name is read somewhere in src/mobman outside its own
  definition, or anywhere in benchmarks/*.py, where names are also rebound by
  their string (benchmarks/spans.py). The check is by name, so it misses a
  dead method whose name is read elsewhere.
- test_every_function_runs runs the program: a small CLI tour (_tour), with
  one bad input for each error path, in a fresh interpreter under
  sys.setprofile. Each code object that ran is matched to its def by file and
  first line, so a dead method is found whatever its name.
Tests do not count as users: code that only a test calls is dead weight for
the program. test_tour_outputs_are_finite parses every file the tour wrote.

    python tests/test_unreferenced.py

prints each function that the tour never runs, with its line count.
"""
import ast
import contextlib
import csv
import io
import json
import math
import re
import subprocess
import sys
import tempfile
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
}

# module.qualname -> why it stays although the tour never runs it
NEVER_RUN = {
    "geometry.Pose2.__post_init__": "criterion 3 builds a Pose2 (tests/test_acceptance.py:190)",
    "geometry.Pose2.lift": "criterion 3 lifts a Pose2 into SE(3) (tests/test_acceptance.py:190)",
    "geometry.rot_z": "Pose2.lift, for criterion 3",
    "geometry.Pose3.as_matrix": "the rotation-matrix oracle of criterion 1",
    "geometry.quat_to_matrix": "Pose3.as_matrix, for criterion 1",
    "geometry.slerp": "benchmarks/spans.py counts its calls (ROADMAP item 5 moves it to the tests)",
    "executor.MatchWeights.scaled": "criterion 8 scales MatchWeights with it",
    "diffusion.train_regression": "the mean-regression control of criterion 5d",
    "diffusion.TrainingDivergedError.__init__": (
        "no file reaches it: load_dataset bounds every column, and bounded data does not "
        "overflow Adam; the CLI still maps it to exit 1 (test_cli sets bases after loading)"
    ),
    "diffusion.train_regression.zeroed": "train_regression's batch, for criterion 5d",
    "pipeline.DemoDataset.steps": "criteria 3 and 4 read demo rows as pose records",
    "pipeline.integrate_labels": "the label round trip of benchmarks/workloads.py",
}

# Run in a fresh interpreter so that the profiler is on before mobman is
# imported: importing sim builds every scenario's script. argv: the src
# directory, this file's directory and the tour's root directory.
_PROFILED_TOUR = """
import sys
ran = set()
sys.setprofile(lambda frame, event, arg: event == "call" and ran.add(frame.f_code))
src, tests, root = sys.argv[1:]
sys.path[:0] = [src, tests]
import test_unreferenced
test_unreferenced._tour(root)
sys.setprofile(None)
print("\\n".join(f"{code.co_firstlineno} {code.co_filename}" for code in ran))
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
    error path. Outputs go under root/out and bad inputs under root/bad; an
    AssertionError names a command that exits with another code than planned."""
    from mobman.cli import EXIT_OK, EXIT_REJECTED, EXIT_USAGE, main
    from mobman.sim import make_scenario, save_expert_session, scripted_expert

    out, bad = Path(root) / "out", Path(root) / "bad"
    bad.mkdir(parents=True)

    def run(expect: int, *argv) -> None:
        argv = [str(a) for a in argv]
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            rc = main(argv)
        assert rc == expect, f"mobman {' '.join(argv)} exited {rc}, not {expect}:\n{log.getvalue()}"

    for name, sigma, smoothing in (("nav_reach", 0.0, []), ("long_horizon", 1e-3, ["--no-smoothing"])):
        raw, anchor = out / "raw" / name, out / f"{name}.anchor.json"
        expert = scripted_expert(make_scenario(name), seed=3, sigma_pos=sigma, sigma_rot=sigma)
        save_expert_session(raw, expert)
        run(EXIT_OK, "anchor", "--trajectories", raw / "trajectories.jsonl",
            "--detections", raw / "detections.jsonl", "--extrinsics", raw / "extrinsics.json",
            "--output", anchor)
        run(EXIT_OK, "process", "--raw", raw, "--anchor", anchor, "--output", out / name, *smoothing)
    dataset = out / "nav_reach" / "dataset.jsonl"
    run(EXIT_OK, "train-toy", "--dataset", dataset, "--steps", 20, "--output", out / "model")
    simulations = {
        "checkpoint": ["--policy", out / "model" / "model.json"],
        "cruise": ["--policy", "cruise"],
        "long_horizon_global_off": ["--scenario", "long_horizon", "--label", "global", "--matching", "off"],
        "jitter_variation": ["--jitter-ms", 18, "--variation"],
        "kinematic": ["--kinematic"],
        "latency_300": ["--latency-ms", 300],
        "global": ["--label", "global"],
    }
    for name, flags in simulations.items():
        run(EXIT_OK, "simulate", "--trials", 1, *flags, "--output", out / "sim" / name)
    metrics = [out / "sim" / name / "metrics.csv" for name in simulations]
    run(EXIT_OK, "report", "--metrics", *metrics, "--output", out / "report")
    manifest = out / "report" / "manifest.json"
    run(EXIT_OK, "replay", "--manifest", manifest)

    # a dataset line cut short
    broken = bad / "broken.jsonl"
    first_line = dataset.read_text(encoding="utf-8").split("\n", 1)[0]
    broken.write_text(first_line[:-1] + "\n", encoding="utf-8")
    run(EXIT_USAGE, "train-toy", "--dataset", broken, "--output", bad / "model")
    # a dataset line nested deeper than json's recursion limit
    deep = bad / "deep.jsonl"
    deep.write_text("[" * 100000 + "]" * 100000 + "\n", encoding="utf-8")
    run(EXIT_USAGE, "train-toy", "--dataset", deep, "--output", bad / "model")
    # base x of 1e300 on every line: outside the dataset's workspace (before
    # the column bounds, Adam's second moment overflowed on it)
    huge = bad / "huge.jsonl"
    records = [json.loads(line) for line in dataset.read_text(encoding="utf-8").splitlines()]
    for record in records:
        record["base"][0] = 1e300
    huge.write_text("".join(json.dumps(record) + "\n" for record in records), encoding="utf-8")
    run(EXIT_USAGE, "train-toy", "--dataset", huge, "--steps", 20, "--output", bad / "model")
    run(EXIT_USAGE, "simulate", "--matching", "maybe", "--output", bad / "sim")
    # one character of an output's recorded digest changed: the rerun's
    # output differs from the record
    doc = json.loads(manifest.read_text(encoding="utf-8"))
    first = next(iter(doc["outputs"]))
    digest = doc["outputs"][first]
    doc["outputs"][first] = "01"[digest[0] == "0"] + digest[1:]
    (bad / "manifest.json").write_text(json.dumps(doc), encoding="utf-8")
    run(EXIT_REJECTED, "replay", "--manifest", bad / "manifest.json")


def _functions() -> dict[tuple[Path, int], tuple[str, int]]:
    """(file, first line) -> (module.qualname, line count) of every function
    in src/mobman. A decorated function's first line is its first
    decorator's, as is its code object's co_firstlineno."""
    found = {}

    def visit(node: ast.AST, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[path, first] = (name, child.end_lineno - first + 1)
            visit(child, path, name)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, path.stem)
    return found


def _never_run(root) -> list[tuple[str, int]]:
    """(module.qualname, line count) of every function in src/mobman that
    the profiled tour, run under root, never calls; in source order."""
    proc = subprocess.run(
        [sys.executable, "-c", _PROFILED_TOUR, str(SRC.parent), str(Path(__file__).parent), str(root)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    ran = set()
    for line in proc.stdout.splitlines():
        first, filename = line.split(" ", 1)
        ran.add((Path(filename).resolve(), int(first)))
    return [fn for key, fn in _functions().items() if key not in ran]


@pytest.fixture(scope="module")
def tour(tmp_path_factory):
    """The tour's root directory and the functions it never ran."""
    root = tmp_path_factory.mktemp("tour")
    return root, _never_run(root)


def test_every_function_runs(tour):
    never = [name for name, _ in tour[1]]
    assert [name for name in never if name not in NEVER_RUN] == []
    # an allowed function that the tour has come to run, or that src has dropped, leaves the list
    assert sorted(never) == sorted(NEVER_RUN)


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
        never = _never_run(tmp)
    for name, lines in never:
        print(f"{name}: {lines} lines")
    print(f"{len(never)} functions, {sum(lines for _, lines in never)} lines never run")
