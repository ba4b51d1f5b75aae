"""``obs top``: a live per-worker dashboard over a running batch.

The run ledger streams every lifecycle event and, under ``--series``,
the fleet's levels as ``sample`` events; this module folds them into
one refreshing terminal view — who is running what, on which stage,
which attempt, and how the run is moving (throughput, cache hits, RSS).

:func:`fold_events` is a pure reducer from a ledger event list to a
:class:`TopState` (the newest ``sample`` included); :func:`render_top`
draws one frame from that state; :func:`run_top` is the CLI loop, re-
reading the ledger each refresh with the same torn-tail tolerance
``obs tail`` has (a live writer can always be mid-line).  Interior
corruption is an :class:`~repro.errors.ObsError`, not an empty frame.
``--once`` draws a single frame and exits, which is what CI smokes and
post-mortems on a finished run want.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, TextIO, Union

from repro.obs.events import ledger_path, read_events

#: Seconds between frames in follow mode.
DEFAULT_REFRESH_S = 1.0

#: ANSI: clear screen, cursor home.  Kept out of --once output so CI
#: logs stay grep-able.
_CLEAR = "\x1b[2J\x1b[H"


@dataclass
class WorkerView:
    """What one worker process is doing right now."""

    pid: int
    job_id: Optional[str] = None   # None: idle between jobs
    attempt: int = 1
    stage: Optional[str] = None
    since: Optional[float] = None  # ts the current job started
    done: int = 0                  # attempts this pid has finished


@dataclass
class TopState:
    """The folded run: header counters plus one view per worker pid."""

    total_jobs: int = 0
    pool_workers: int = 0
    retries: int = 0
    started_ts: Optional[float] = None
    finished_ts: Optional[float] = None
    last_ts: Optional[float] = None
    ok: int = 0
    failed: int = 0
    rejected: int = 0
    cache_hits: int = 0
    sample: Optional[Dict[str, Any]] = None  # newest ``sample`` event
    workers: Dict[int, WorkerView] = field(default_factory=dict)

    @property
    def done(self) -> int:
        return self.ok + self.failed + self.rejected + self.cache_hits

    @property
    def running(self) -> bool:
        return self.started_ts is not None and self.finished_ts is None


def fold_events(events: List[Dict[str, Any]]) -> TopState:
    """Reduce a ledger event list to the current fleet state."""
    state = TopState()
    for record in events:
        event = record.get("event")
        if event == "sample":
            state.sample = record
            continue
        ts = record.get("ts")
        pid = record.get("pid")
        if isinstance(ts, (int, float)):
            state.last_ts = ts
        if event == "run_started":
            state.total_jobs = int(record.get("jobs", 0))
            state.pool_workers = int(record.get("workers", 0))
            state.retries = int(record.get("retries", 0))
            state.started_ts = ts if isinstance(ts, (int, float)) else None
        elif event == "run_finished":
            state.finished_ts = ts if isinstance(ts, (int, float)) else None
        elif event == "job_cache_hit":
            state.cache_hits += 1
        elif event == "job_lint_rejected":
            state.rejected += 1
        elif event == "job_finished":
            if record.get("status") == "ok":
                state.ok += 1
            else:
                state.failed += 1
        elif (isinstance(pid, int)
              and event in ("job_started", "stage_open",
                            "job_attempt_finished")):
            # Only events a *worker* emits create a row — the
            # coordinator's pid rides on job_queued/job_finished too,
            # but it is not a worker and must not render as one.
            view = state.workers.setdefault(pid, WorkerView(pid=pid))
            if event == "job_started":
                view.job_id = record.get("job_id")
                view.attempt = int(record.get("attempt", 1))
                view.stage = None
                view.since = ts if isinstance(ts, (int, float)) else None
            elif event == "stage_open":
                view.stage = record.get("stage")
            else:  # job_attempt_finished
                view.done += 1
                view.job_id = None
                view.stage = None
                view.since = None
    return state


def _fmt_age(seconds: Optional[float]) -> str:
    if seconds is None or seconds < 0:
        return "    --"
    if seconds < 60:
        return f"{seconds:5.1f}s"
    return f"{int(seconds // 60):3d}m{int(seconds % 60):02d}"


def render_top(state: TopState, now: Optional[float] = None) -> str:
    """One dashboard frame (no ANSI — the loop adds the clear)."""
    now = now if now is not None else time.time()
    sample = state.sample
    lines: List[str] = []
    phase = ("finished" if state.finished_ts is not None
             else "running" if state.started_ts is not None else "no run")
    elapsed = None
    if state.started_ts is not None:
        end = state.finished_ts if state.finished_ts is not None else now
        elapsed = max(0.0, end - state.started_ts)
    lines.append(
        f"batch {phase}: {state.done}/{state.total_jobs} done "
        f"({state.ok} ok, {state.failed} failed, "
        f"{state.rejected} rejected, {state.cache_hits} cached)"
        + (f"  elapsed {elapsed:.1f}s" if elapsed is not None else "")
    )
    gauges: List[str] = []
    if sample:
        if "rss_kb" in sample:
            gauges.append(f"rss={sample['rss_kb'] / 1024.0:.1f}MB")
        if "cpu_pct" in sample:
            gauges.append(f"cpu={sample['cpu_pct']:.0f}%")
        for key in ("queue_depth", "decks_sec", "cache_hit_rate"):
            value = sample.get(key)
            if value is not None:
                gauges.append(f"{key}={value}")
    elif elapsed and elapsed > 0:
        gauges.append(f"decks_sec={state.done / elapsed:.2f}")
    if gauges:
        lines.append("  " + "  ".join(gauges))
    if state.workers:
        lines.append(
            f"  {'pid':>8s} {'job':<22s} {'att':>5s} "
            f"{'stage':<26s} {'age':>6s} {'done':>4s}"
        )
        for pid in sorted(state.workers):
            view = state.workers[pid]
            if view.job_id is not None:
                attempt = f"{view.attempt}/{state.retries + 1}"
                age = _fmt_age((state.last_ts or now) - view.since
                               if view.since is not None else None)
                lines.append(
                    f"  {pid:>8d} {view.job_id:<22s} {attempt:>5s} "
                    f"{view.stage or '-':<26s} {age:>6s} {view.done:>4d}"
                )
            else:
                lines.append(
                    f"  {pid:>8d} {'(idle)':<22s} {'':>5s} "
                    f"{'-':<26s} {'':>6s} {view.done:>4d}"
                )
    else:
        lines.append("  no worker activity yet")
    return "\n".join(lines)


def run_top(target: Union[str, Path], once: bool = False,
            refresh_s: float = DEFAULT_REFRESH_S,
            max_frames: Optional[int] = None,
            out: Optional[TextIO] = None) -> int:
    """The ``obs top`` loop: fold, render, repeat until the run ends.

    ``target`` is the ledger file or its directory; a ledger not
    created yet draws the empty frame.  Follow mode exits on its own
    once a ``run_finished`` event lands (after drawing the final
    frame).  ``max_frames`` bounds the loop for tests.
    """
    out = out if out is not None else sys.stdout
    ledger = ledger_path(target)
    frames = 0
    while True:
        events = read_events(ledger)[0] if ledger.exists() else []
        state = fold_events(events)
        frame = render_top(state)
        if once:
            print(frame, file=out, flush=True)
            return 0
        print(_CLEAR + frame, file=out, flush=True)
        frames += 1
        if state.finished_ts is not None:
            return 0
        if max_frames is not None and frames >= max_frames:
            return 0
        time.sleep(refresh_s)
