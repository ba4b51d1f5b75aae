"""Spawning one op, timing it, and summarising many of them.

An op is one CLI process.  Its wall time runs from just before the
spawn to the moment ``os.wait4`` reaps it; its CPU time and peak RSS
come from the same ``wait4`` rusage, which includes every descendant
the op itself reaped (batch pool workers).
"""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Sequence

#: Latency a failed op is given: slower than any limit, never dropped.
FAILED = math.inf


@dataclass
class OpResult:
    kind: str
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    code: int
    decks: int
    t_spawn: float
    t_exit: float
    out_dir: Path
    traced: bool = False
    error: str = ""
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.code == 0 and not self.error

    @property
    def latency_s(self) -> float:
        return self.wall_s if self.ok else FAILED


def run_op(kind: str, argv: Sequence[str], cwd: Path, env: Dict[str, str],
           decks: int = 1, timeout_s: float = 120.0) -> OpResult:
    """Spawn ``argv`` in ``cwd``, wait for it, return its measurements.

    stdout and stderr go to files in ``cwd`` so a chatty op can never
    block on a full pipe.
    """
    cwd.mkdir(parents=True, exist_ok=True)
    with open(cwd / "stdout.txt", "wb") as out, \
            open(cwd / "stderr.txt", "wb") as err:
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(list(argv), cwd=cwd, env=env, stdout=out,
                                stderr=err, stdin=subprocess.DEVNULL)
        killer = threading.Timer(timeout_s, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        t_exit = time.perf_counter()
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code  # reaped here; stop Popen from waiting again
    return OpResult(
        kind=kind, wall_s=t_exit - t_spawn,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0, code=code, decks=decks,
        t_spawn=t_spawn, t_exit=t_exit, out_dir=cwd,
        error="" if code == 0 else f"exit code {code}",
    )


def summarize(results: Sequence[OpResult]) -> Dict[str, float]:
    """The five end-to-end metrics over one run's timed ops."""
    if not results:
        raise ValueError("a run needs at least one op")
    latencies = [r.latency_s for r in results]
    busy = sum(r.wall_s for r in results)
    decks = sum(r.decks for r in results if r.ok)
    all_decks = sum(r.decks for r in results)
    return {
        "op_p50_s": statistics.median(latencies),
        "decks_per_s": decks / busy,
        "cpu_s_per_deck": sum(r.cpu_s for r in results) / all_decks,
        "peak_rss_mb": max(r.maxrss_mb for r in results),
    }


def above_median(values: Sequence[float]) -> int:
    """Samples strictly above the median (the count p50 'has above it')."""
    med = statistics.median(values)
    return sum(1 for v in values if v > med)


# ----------------------------------------------------------------------
# Host-speed probe
# ----------------------------------------------------------------------

def host_probe(np_module: Optional[object] = None) -> Dict[str, float]:
    """Time a fixed pure-Python loop and a fixed numpy kernel.

    Informational only: it is printed beside the metrics so run-to-run
    spread can be put down to the machine, and it never scales them.
    Each figure is the best of three, so one preemption does not
    dominate it.
    """
    def loop() -> float:
        t = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        return time.perf_counter() - t

    out = {"python_loop_s": min(loop() for _ in range(3))}
    if np_module is not None:
        a = np_module.arange(250 * 250, dtype=float).reshape(250, 250)
        a = a / a.max()

        def kernel() -> float:
            t = time.perf_counter()
            for _ in range(8):
                a @ a
            return time.perf_counter() - t

        kernel()  # first use pays for library set-up
        out["numpy_matmul_s"] = min(kernel() for _ in range(3))
    return out


def read_text(path: Path) -> str:
    try:
        return path.read_text()
    except OSError:
        return ""


def tail(path: Path, n: int = 400) -> str:
    return read_text(path)[-n:].strip().replace("\n", " | ")
