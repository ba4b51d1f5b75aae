"""The batch worker: run one job, never raise.

:func:`run_job` is the function the scheduler ships across the process
pool (and calls inline when ``--jobs 1``).  It takes a pickled
:class:`~repro.batch.jobs.JobSpec` dict and returns a plain result dict;
every failure mode -- parse error, limit violation, timeout, even a
stray ``KeyError`` in the pipeline -- is captured into that dict so one
bad deck can never take its siblings (or the pool) down with it.

Each job runs under its own observability capture; the health
snapshots, counters and the **full span tree** it collects ride back in
the result and end up embedded in the batch manifest, so a post-mortem
on a batch of 500 decks has the same per-stage evidence a single
``--trace``/``--health`` run prints — and :mod:`repro.obs.assemble` can
graft every job's spans back onto one fleet-wide trace.  The spec's
trace context (``trace_id``, ``parent_span``) is adopted verbatim; a
``ledger`` path enables lifecycle-event appends for the duration of the
job, and ``profile`` turns on per-stage cProfile hotspot tables.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import traceback
from pathlib import Path
from typing import Any, Dict, Optional


class JobTimeout(BaseException):
    """The job exceeded its wall-clock budget.

    A ``BaseException`` because the alarm can fire at any bytecode
    boundary: blanket ``except Exception`` recovery paths (the stage
    runner's error wrapping, the cache's degrade-to-miss handlers) must
    neither swallow nor relabel it.
    """


class _Deadline:
    """SIGALRM-based wall-clock limit around one job.

    Works only on the main thread of a process with ``SIGALRM`` (every
    pool worker qualifies; so does the CLI's inline path).  Anywhere
    else it degrades to no limit rather than refusing to run.
    """

    def __init__(self, seconds: Optional[float]):
        self.seconds = seconds
        self._armed = False

    def __enter__(self) -> "_Deadline":
        if (self.seconds is not None and self.seconds > 0
                and hasattr(signal, "SIGALRM")
                and threading.current_thread() is threading.main_thread()):
            def _expire(signum: int, frame: Any) -> None:
                raise JobTimeout(
                    f"job exceeded its {self.seconds:g}s wall-clock limit"
                )

            self._previous = signal.signal(signal.SIGALRM, _expire)
            signal.setitimer(signal.ITIMER_REAL, self.seconds)
            self._armed = True
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        return False


def _execute(spec: Dict[str, Any]
             ) -> "tuple[Dict[str, Any], list]":
    """Run the program named by the spec.

    Returns ``(summary, stages)``: the program-products digest and the
    per-stage execution records (cache hit/miss, wall time) the manifest
    embeds.
    """
    from repro.core.idlz.program import run_idlz_files
    from repro.core.ospl.program import run_ospl_files
    from repro.pipeline.cache import StageCache

    deck = Path(spec["deck"])
    out_dir = Path(spec["out_dir"])
    if out_dir.is_dir():
        # A retry must not inherit the half-written products of the
        # attempt that failed; the directory is job-private by contract.
        for stale in out_dir.iterdir():
            if stale.is_file():
                stale.unlink()
    out_dir.mkdir(parents=True, exist_ok=True)
    stage_cache = (StageCache(spec["stage_cache"])
                   if spec.get("stage_cache") else None)
    strict = bool(spec.get("strict"))
    if spec["program"] == "idlz":
        runs = run_idlz_files(deck, out_dir, strict=strict,
                              stage_cache=stage_cache)
        return (
            {"problems": [run.summary_dict() for run in runs]},
            [d for run in runs for d in run.stage_dicts()],
        )
    if spec["program"] == "analyze":
        from repro.analyze.program import run_analyze_files

        analyze_run = run_analyze_files(deck, out_dir, strict=strict,
                                        stage_cache=stage_cache)
        return ({"problems": [analyze_run.summary_dict()]},
                analyze_run.stage_dicts())
    run = run_ospl_files(deck, out_dir / "plot.svg", strict=strict,
                         stage_cache=stage_cache)
    return {"problems": [run.summary_dict()]}, run.stage_dicts()


def run_job(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one job spec; always returns, never raises.

    The result dict is the manifest's per-attempt record::

        {"job_id", "status": "ok"|"failed", "wall_s",
         "summary": {...} | None,          # program products digest
         "stages": [{stage, cache, wall_s, key}, ...],
         "artifacts": [names...],          # files under the job out dir
         "obs": {"trace_id", "parent_span", "pid", "origin_unix",
                 "spans": [...],           # the full worker span tree
                 "health": [...], "counters": {...},
                 "resources": [...],       # per-stage RSS/GC/FD deltas
                 "profile": {...}},        # only under --profile
         "error": {"type", "message", "traceback"} | None}
    """
    from repro import obs
    from repro.obs import events

    start = time.perf_counter()
    result: Dict[str, Any] = {
        "job_id": spec["job_id"],
        "status": "ok",
        "summary": None,
        "stages": [],
        "artifacts": [],
        "obs": {},
        "error": None,
    }
    observer = obs.enable(obs.Observer(
        trace_id=spec.get("trace_id"),
        profile=bool(spec.get("profile")),
    ))
    if spec.get("ledger"):
        events.enable(spec["ledger"])
        events.set_context(job_id=spec["job_id"],
                           trace_id=observer.trace_id)
        events.emit("job_started", program=spec["program"],
                    attempt=spec.get("attempt", 1))
    try:
        with _Deadline(spec.get("timeout_s")):
            with obs.span("batch.job", job_id=spec["job_id"],
                          program=spec["program"]):
                result["summary"], result["stages"] = _execute(spec)
    except (Exception, JobTimeout) as exc:
        result["status"] = "failed"
        result["error"] = {
            "type": type(exc).__name__,
            "message": str(exc),
            "traceback": traceback.format_exc(limit=20),
        }
    finally:
        report = observer.report(job_id=spec["job_id"],
                                 program=spec["program"])
        obs.disable(observer)
        if spec.get("ledger"):
            events.emit("job_attempt_finished", status=result["status"],
                        attempt=spec.get("attempt", 1),
                        wall_s=round(time.perf_counter() - start, 6))
            events.disable()
    result["obs"] = {
        "trace_id": observer.trace_id,
        "parent_span": spec.get("parent_span"),
        "pid": os.getpid(),
        "origin_unix": observer.tracer.origin_unix,
        "spans": report.spans,
        "health": report.health,
        "counters": report.counters(),
        "resources": report.resources,
    }
    if report.profile:
        result["obs"]["profile"] = report.profile
    out_dir = Path(spec["out_dir"])
    if out_dir.is_dir():
        result["artifacts"] = sorted(
            p.name for p in out_dir.iterdir() if p.is_file()
        )
    result["wall_s"] = time.perf_counter() - start
    return result
