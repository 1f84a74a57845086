"""mobman benchmark: end-to-end metrics untraced, per-layer metrics traced.

    python3 benchmarks/run.py --workload replay_matrix --seed 0 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all

Run from anywhere; mobman is imported from the `src/` next to this directory.
The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. The full result, with an environment
stamp, and the spans of a traced run are written under benchmarks/_out/.
Exit codes: 0 correct, 1 an op failed or gave a wrong output, 2 usage error
or mobman not found.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
WORK = HERE / "_work"

WORKLOAD_NAMES = ("replay_matrix", "policy_loop", "demo_ingest")
SETUPS = {"full": 5, "smoke": 1}  # set-ups per run; setup_s is their median
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# A 2-vCPU host shared with other tenants can run at about half speed for
# seconds to minutes at a time. Every timing is therefore scaled by a probe of
# the machine's speed taken around it: the wall time of a fixed kernel that
# calls no mobman code, against its time (CAL_NOMINAL_S) on such a host when
# it is not contended.
CAL_LOOPS = 12000
CAL_NOMINAL_S = 0.003

# name -> (unit, meaning per workload); the per-workload names are those the
# metrics go by in ROADMAP and the benchmark doc
END_TO_END = {
    "setup_s": ("s", "imports, input generation and warm-up op (median set-up)"),
    "items_per_s": ("1/s", {
        "replay_matrix": "episodes_per_s",
        "policy_loop": "episodes_per_s",
        "demo_ingest": "sessions_per_s",
    }),
    "steps_per_s": ("1/s", {
        "replay_matrix": "control ticks per second of timed ops",
        "policy_loop": "train_steps_per_s (train-toy call only)",
        "demo_ingest": "dataset steps per second of timed ops",
    }),
    "peak_rss_mb": ("MB", "peak resident memory of the process"),
}


def _probe() -> float:
    start = time.perf_counter()
    acc: dict[int, float] = {}
    for i in range(CAL_LOOPS):
        x = math.sin(i * 1e-3) * math.sqrt(i + 1.0)
        acc[i % 97] = acc.get(i % 97, 0.0) + x
    return time.perf_counter() - start


class Clock:
    """Scales wall times to nominal machine speed with probes around them."""

    def __init__(self):
        self.last = self.probe()
        self.probes = [self.last]

    def probe(self) -> float:
        return statistics.median(_probe() for _ in range(3))

    def scale(self) -> float:
        """Factor for the interval since the previous call."""
        before, self.last = self.last, self.probe()
        self.probes.append(self.last)
        return CAL_NOMINAL_S / (0.5 * (before + self.last))


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0


@dataclass
class Phase:
    """Results of the timed ops, by their slot in the round."""

    rounds: int = 0
    slots: dict = field(default_factory=lambda: defaultdict(list))

    def results(self):
        return [r for rs in self.slots.values() for r in rs]

    def round_s(self) -> tuple[float, float]:
        """Scaled time of one round and of its steps: the sum over the
        round's ops of each op's median time. Every round runs the same ops,
        so a stall of the machine during a few ops moves neither median."""
        op_s = sum(statistics.median(r.op_s for r in rs) for rs in self.slots.values())
        step_s = sum(
            statistics.median(r.op_s if r.step_s is None else r.step_s for r in rs)
            for rs in self.slots.values()
        )
        return op_s, step_s

    def rates(self) -> tuple[float, float]:
        """Items and steps per scaled second."""
        if not self.slots:
            return 0.0, 0.0
        items = sum(rs[0].items for rs in self.slots.values())
        steps = sum(rs[0].steps for rs in self.slots.values())
        op_s, step_s = self.round_s()
        return items / op_s, steps / step_s if step_s else 0.0


def run_op(w, k: int, tally: Tally, clock: Clock, rec=None):
    """One op, timed and scaled; its outputs are checked after the clock stops."""
    tally.attempted += 1
    if rec is not None:
        rec.op = tally.attempted
    try:
        start = time.perf_counter()
        out = w.run(k)
        op_s = time.perf_counter() - start
        scale = clock.scale()
        res = w.check(k, out)
    except Exception:  # a failed op is counted and reported; the run goes on
        tally.failed += 1
        print(f"op {k} of {w.name} failed:", file=sys.stderr)
        traceback.print_exc()
        clock.scale()
        return None
    if rec is not None:
        rec.op_scale[rec.op] = scale
    res.raw_s = op_s
    res.op_s = op_s * scale
    if res.step_s is not None:
        res.step_s *= scale
    return res


def run_round(w, tally: Tally, clock: Clock, ph: Phase, k: int, rec=None) -> int:
    """One round of ops, starting at op index k; returns the next index."""
    for slot in range(w.round_ops):
        res = run_op(w, k, tally, clock, rec)
        k += 1
        if res is not None:
            ph.slots[slot].append(res)
    ph.rounds += 1
    return k


def measure(w, tally: Tally, clock: Clock, seconds: float) -> Phase:
    """Whole rounds of ops until `seconds` have passed."""
    ph = Phase()
    start = time.perf_counter()
    k = 0
    while time.perf_counter() - start < seconds:
        k = run_round(w, tally, clock, ph, k)
    return ph


def measure_traced(w, tally: Tally, clock: Clock, seconds: float, rec, install):
    """Untraced and traced rounds, alternating until `seconds` have passed.

    Alternating the same rounds keeps drift in machine speed out of the
    tracing overhead; only the traced rounds feed the recorder.
    """
    plain, traced = Phase(), Phase()
    start = time.perf_counter()
    k = 0
    while time.perf_counter() - start < seconds:
        k = run_round(w, tally, clock, plain, k)
        uninstall = install(rec)
        w.rec = rec
        try:
            k = run_round(w, tally, clock, traced, k, rec)
        finally:
            uninstall()
            w.rec = None
    return plain, traced


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    """Recorded only; the benchmark sets none of these."""

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ},
        "git_commit": _git_commit(),
        "seed": seed,
    }


def run_workload(args) -> int:
    if not (SRC / "mobman" / "__init__.py").is_file():
        print(f"mobman sources not found under {SRC}", file=sys.stderr)
        return 2
    clock = Clock()
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    import_s = (time.perf_counter() - start) * clock.scale()
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    w = workloads.WORKLOADS[args.workload](args.seed, args.size, workdir)
    tally = Tally()
    try:
        setup_times = []
        for _ in range(SETUPS[args.size]):
            start = time.perf_counter()
            w.setup()
            setup_s = (time.perf_counter() - start) * clock.scale()
            warm = run_op(w, 0, tally, clock)  # warm-up op, part of set-up
            setup_times.append(setup_s + (warm.op_s if warm else 0.0))
        if not args.trace:
            ph = measure(w, tally, clock, args.seconds)
            items_per_s, steps_per_s = ph.rates()
            results = ph.results()
            items = sum(r.items for r in results)
            metrics = {
                "setup_s": import_s + statistics.median(setup_times),
                "items_per_s": items_per_s,
                "steps_per_s": steps_per_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = {name: END_TO_END[name][0] for name in metrics}
            extra = {
                "items": items,
                "rounds": ph.rounds,
                "import_s": import_s,
                "setup_runs_s": setup_times,
                "op_s_by_slot": {j: [r.op_s for r in rs] for j, rs in ph.slots.items()},
                "raw_s_by_slot": {j: [r.raw_s for r in rs] for j, rs in ph.slots.items()},
                "probes": clock.probes,
            }
            if w.item == "episode":
                extra["success_rate"] = sum(r.successes for r in results) / items if items else 0.0
        else:
            rec = spans.Recorder()
            plain, ph = measure_traced(w, tally, clock, args.seconds, rec, spans.install)
            overhead = ph.round_s()[0] / plain.round_s()[0] - 1.0 if plain.slots else 0.0
            items = sum(r.items for r in ph.results())
            metrics = spans.per_layer_metrics(rec, items, overhead)
            units = dict(spans.per_layer_spec())
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            rec.write(spans_path)
            extra = {"items": items, "rounds": ph.rounds, "spans_file": str(spans_path)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    extra["failed_ops_frac"] = tally.failed / tally.attempted
    extra["probe_s"] = {
        "median": statistics.median(clock.probes),
        "min": min(clock.probes),
        "max": max(clock.probes),
        "nominal": CAL_NOMINAL_S,
    }
    env = environment(args.seed)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"env": env, "result": result, "extra": extra}, fh, indent=2)

    print(f"mobman benchmark: {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} size={args.size}")
    print("env: " + json.dumps(env, sort_keys=True))
    for name, v in metrics.items():
        meaning = END_TO_END.get(name, (None, ""))[1]
        if isinstance(meaning, dict):
            meaning = meaning[args.workload]
        print(f"  {name:42s} {v:14.6g} {units[name]:6s} {meaning}")
    for name in ("success_rate", "failed_ops_frac"):
        if name in extra:
            print(f"  {name:42s} {extra[name]:14.6g} {'ratio':6s} (printed, not in BENCHMARK.json)")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(argv, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name} exited {proc.returncode}", file=sys.stderr)
            return 2
        res = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(SETUPS), default="full",
                   help="'smoke' runs tiny inputs for the benchmark's own test")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
