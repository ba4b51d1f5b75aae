"""Outside-in benchmark of the ``repro`` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark writes its seeded decks,
spawns ``python -m repro ...`` once per op (closed loop, one client),
checks every op's artifacts after the timed window, and prints one line
per metric (name, value, unit, samples) followed by a last line of JSON:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs every
scheduled op twice, once through ``launcher.py`` (spans around each
layer) and once plain, and reports the per-layer metrics.  The exit code
is 0 only when every op and every output check passed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
import shutil
import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from measure import (  # noqa: E402
    OpResult, above_median, host_probe, run_op, summarize, tail,
)
from workloads import WORKLOADS, Step, Workload  # noqa: E402

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Budget for one op before it is killed (and counted as failed).
OP_TIMEOUT_S = 40.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "decks_per_s": "1/s",
    "cpu_s_per_deck": "s",
    "peak_rss_mb": "MB",
}


class Bench:
    """Spawns ops for one run: plain ``python -m repro`` or traced."""

    def __init__(self, root: Path, run_dir: Path):
        self.run_dir = run_dir
        tmp = run_dir / "tmp"  # keeps the ops' temp files in the checkout
        tmp.mkdir(parents=True)
        self.env = dict(os.environ)
        self.env.update(
            PYTHONPATH=str(root / "src"),
            TMPDIR=str(tmp),
            PYTHONHASHSEED="0",
            # The only parallelism the workloads allow is batch --jobs.
            OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        # Ops import repro the way an installed package does: from
        # bytecode the warm-up op wrote, not recompiled every time.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env.pop("PYTHONSTARTUP", None)
        # next() on a count is atomic, so ops spawned from threads (the
        # references) never share a directory.
        self.numbers = itertools.count(1)

    def op_dir(self, tag: str) -> Path:
        return self.run_dir / "ops" / f"{next(self.numbers):04d}-{tag}"

    def run(self, step: Step, traced: bool = False,
            extra_argv: Tuple[str, ...] = ()) -> OpResult:
        extra = step.prepare() if step.prepare else {}
        cwd = self.op_dir(step.kind)
        env = self.env
        if traced:
            trace_dir = cwd / "trace"
            trace_dir.mkdir(parents=True)
            env = dict(env, PERFBENCH_TRACE_DIR=str(trace_dir))
            argv = [sys.executable, str(HERE / "launcher.py")]
        else:
            argv = [sys.executable, "-m", "repro"]
        result = run_op(step.kind, argv + step.argv + list(extra_argv), cwd,
                        env, decks=step.decks, timeout_s=OP_TIMEOUT_S)
        result.traced = traced
        result.extra.update(extra)
        if not result.ok:
            result.error += ": " + tail(cwd / "stderr.txt")
        return result


def check(step: Step, op: OpResult) -> None:
    """Run a step's output check on a finished op (errors mark it)."""
    if not op.ok:
        return
    try:
        op.error = step.check(op)
    except Exception as exc:  # a crashing check is a failed check
        op.error = f"check raised {exc!r}"


def set_up(bench: Bench, name: str, seed: int) -> Tuple[Workload, float]:
    """Seeded deck generation + warm-up op (+ cold cache pass)."""
    t = time.perf_counter()
    workload = WORKLOADS[name](random.Random(seed), bench.run_dir / "work")
    workload.generate()
    for step in filter(None, (workload.warmup(), workload.cold_pass())):
        op = bench.run(step)
        check(step, op)
        if not op.ok:
            raise RuntimeError(f"set-up op {step.argv} failed: {op.error}")
    return workload, time.perf_counter() - t


def timed_window(bench: Bench, workload: Workload, seconds: float,
                 traced: bool) -> List[Tuple[Step, OpResult]]:
    """Closed loop until the deadline; the op in flight finishes."""
    ops: List[Tuple[Step, OpResult]] = []
    schedule = workload.schedule()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        step = next(schedule)
        if traced:
            # Traced and plain twins of one step, in alternating order,
            # so the overhead estimate sees the same decks and the same
            # spell of host speed on both sides.
            first = len(ops) // 2 % 2 == 0
            for flag in (first, not first):
                ops.append((step, bench.run(step, traced=flag)))
        else:
            ops.append((step, bench.run(step)))
    return ops


def after_window(bench: Bench, workload: Workload,
                 ops: List[Tuple[Step, OpResult]]) -> List[str]:
    """Per-op checks, reference runs and cross-op checks."""
    for step, op in ops:
        check(step, op)
    refs: Dict[str, OpResult] = {}
    problems: List[str] = []
    references = workload.reference_steps()
    with ThreadPoolExecutor(max_workers=2) as pool:
        done = list(pool.map(lambda kv: (kv, bench.run(kv[1])), references))
    for (key, step), op in done:
        check(step, op)
        refs[key] = op
        if not op.ok:
            problems.append(f"reference {key}: {op.error}")
    workload.final_check(ops, refs)
    return problems


def trace_metrics(bench: Bench, workload: Workload,
                  ops: List[Tuple[Step, OpResult]]
                  ) -> Tuple[Dict[str, float], List[str]]:
    problems: List[str] = []
    loaded, walls = [], []
    worst_identity = 0.0
    for _, op in ops:
        if not op.traced or not op.ok:
            continue
        wall, counts, _ = layers.load_op(op.out_dir / "trace", op.t_spawn,
                                         op.t_exit)
        unknown = layers.unknown_layers(wall)
        if unknown:
            problems.append(f"spans with unknown layers: {unknown}")
        if counts.get("trace.missing_wrappers", 0.0) > 0:
            problems.append(f"{op.out_dir.name}: the launcher found no "
                            "target for some wrappers (see its stderr)")
        worst_identity = max(worst_identity, layers.identity_error(
            wall, op.t_spawn, op.t_exit))
        loaded.append((wall, counts))
        walls.append(op.wall_s)
    if not loaded:
        return {}, ["no traced op succeeded"]
    if worst_identity > 1e-6:
        problems.append(f"layers do not add up to the wall: off by "
                        f"{worst_identity:.2e}s")
    metrics = layers.aggregate(loaded, walls)
    traced = [op.latency_s for _, op in ops if op.traced]
    plain = [op.latency_s for _, op in ops if not op.traced]
    metrics["trace.overhead_frac"] = (statistics.median(traced)
                                      / statistics.median(plain) - 1.0)
    print(f"# identity: max |sum(layers) + unattributed - wall| = "
          f"{worst_identity:.2e} s over {len(loaded)} traced ops")
    # Cross-check the wrappers against the program's own --report spans.
    worst = 0.0
    for deck in workload.crosscheck_decks():
        step = workload.program_step(deck)
        op = bench.run(step, traced=True, extra_argv=("--report",
                                                      "report.json"))
        check(step, op)
        if not op.ok:
            problems.append(f"cross-check op failed: {op.error}")
            continue
        _, _, track = layers.load_op(op.out_dir / "trace", op.t_spawn,
                                     op.t_exit)
        errors, dev = layers.crosscheck(op.out_dir / "report.json", track)
        worst = max(worst, dev)
        problems += [f"cross-check {deck.path.name}: {e}" for e in errors]
    print(f"# cross-check: traced spans vs --report, worst deviation "
          f"{worst:.1%} (allowed {layers.CROSSCHECK_SHARE:.0%} or "
          f"{layers.CROSSCHECK_FLOOR_S * 1000:.0f} ms)")
    return metrics, problems


#: Stands in for an infinite metric (a median over mostly failed ops),
#: which JSON cannot carry.
INFINITE = 1e9


def report(metrics: Dict[str, float], units: Dict[str, str],
           samples: Dict[str, int]) -> Dict[str, Dict[str, object]]:
    out = {}
    for name, unit in units.items():
        value = metrics[name]
        if not math.isfinite(value):
            value = INFINITE
        print(f"{name:32s} {value:14.6g} {unit:15s} samples={samples[name]}")
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__main__.py").is_file():
        print(f"error: {root} holds no src/repro: run from the root of a "
              "repro checkout", file=sys.stderr)
        return 2
    run_dir = root / ".perfbench_work" / (
        f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    if run_dir.exists():
        shutil.rmtree(run_dir)
    try:
        return run(args, root, run_dir)
    except RuntimeError as exc:  # a set-up op failed: no result to print
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def run(args: argparse.Namespace, root: Path, run_dir: Path) -> int:
    # One BLAS thread in this process too: idle spinning BLAS threads
    # would steal a core from the ops.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import numpy  # for the host probe only; never repro

    probe_start = host_probe(numpy)
    setups: List[float] = []
    for rep in range(SETUP_REPS):
        bench = Bench(root, run_dir / f"setup{rep}")
        workload, seconds = set_up(bench, args.workload, args.seed)
        setups.append(seconds)
        if rep < SETUP_REPS - 1:
            shutil.rmtree(bench.run_dir)
    traced = bool(args.trace)
    ops = timed_window(bench, workload, args.seconds, traced)
    problems = after_window(bench, workload, ops)
    probe_end = host_probe(numpy)

    failed = [op for _, op in ops if not op.ok]
    for op in failed[:5]:
        print(f"# FAILED {op.kind} in {op.out_dir.name}: {op.error}")
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(ops)} ops, {len(failed)} failed, set-ups "
          + ", ".join(f"{s:.3f}" for s in setups) + " s")
    print("# host probe (informational, never scales a metric): start "
          + json.dumps({k: round(v, 4) for k, v in probe_start.items()})
          + " end " + json.dumps({k: round(v, 4) for k, v in probe_end.items()}))
    if traced:
        metrics, trace_problems = trace_metrics(bench, workload, ops)
        problems += trace_problems
        units = layers.metric_units()
        n = sum(1 for _, op in ops if op.traced and op.ok)
        samples = {name: n for name in units}
        samples["trace.overhead_frac"] = len(ops)
    else:
        plain = [op for _, op in ops]
        metrics = summarize(plain)
        metrics["setup_s"] = statistics.median(setups)
        units = END_TO_END_UNITS
        latencies = [op.latency_s for op in plain]
        samples = {name: len(plain) for name in units}
        samples["setup_s"] = len(setups)
        print(f"# op_p50_s has {above_median(latencies)} samples above it")
    for problem in problems:
        print(f"# CHECK FAILED: {problem}")
    correct = not failed and not problems and bool(metrics)
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": report(metrics, units, samples) if metrics else {},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
