"""The batch scheduler: fan jobs out, retry failures, account for all.

Execution plan for one batch:

1. **Cache pass** (in the parent, serial -- it is only a hash and a file
   copy): every job whose key is already in the artifact cache has its
   products restored into its out dir and never reaches the pool, which
   is what makes a fully warm rerun near-instant.
2. **Execution rounds** over a ``ProcessPoolExecutor`` (or inline when
   ``jobs == 1``): round 1 runs every miss; each later round re-runs the
   previous round's failures after an exponential backoff, up to
   ``retries`` extra attempts per job.  The wall-clock limit is enforced
   *inside* the worker (SIGALRM), so a timed-out job ends as a recorded
   failure without poisoning the pool.
3. **Accounting**: every job -- hit, success or exhausted failure --
   gets a record in the ``repro.batch/v1`` manifest, and fresh successes
   are stored back into the cache.

A worker that dies outright (OOM-killed, interpreter abort) surfaces as
a ``BrokenProcessPool``; the scheduler records the failure against the
jobs in flight, rebuilds the pool and carries on with the rest of the
round, preserving failure isolation even for crashes the worker's own
``except`` can never see.
"""

from __future__ import annotations

import logging
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from pathlib import Path
from typing import (Any, Dict, Iterator, List, Optional, Sequence, Tuple,
                    Union)

from repro import obs
from repro._version import __version__
from repro.batch.cache import ArtifactCache, cache_key, lint_key
from repro.batch.jobs import JobSpec
from repro.batch.manifest import BatchManifest, summarize_jobs
from repro.batch.worker import run_job
from repro.cards.card import deck_fingerprint
from repro.errors import BatchError
from repro.obs import events
from repro.obs.span import new_span_id, new_trace_id

log = logging.getLogger("repro.batch")

#: Ceiling on one inter-round backoff sleep, however many retries deep.
MAX_BACKOFF_S = 30.0

#: Per-job timeout = ``PLAN_TIMEOUT_FACTOR x predicted wall`` -- wide
#: enough that the planner's documented 2x error band plus machine
#: variance never kills a healthy job, tight enough that a hung tiny
#: job dies in seconds instead of riding out a flat fleet timeout.
PLAN_TIMEOUT_FACTOR = 40.0

#: Floor on a plan-scaled timeout (predictions run to milliseconds;
#: process scheduling does not).
PLAN_TIMEOUT_MIN_S = 1.0


@dataclass
class BatchOptions:
    """Knobs of one batch run (mirrored into the manifest)."""

    jobs: int = 1
    timeout_s: Optional[float] = None
    retries: int = 0
    backoff_s: float = 0.1
    strict: bool = False
    cache_dir: Optional[Union[str, Path]] = None
    lint: bool = False
    #: Price every deck with the static cost planner: stamps ``plan``
    #: blocks into the manifest, schedules longest-expected-first, and
    #: scales each job's timeout from its prediction (``timeout_s``
    #: then acts as a ceiling, not a flat per-job limit).
    plan: bool = True
    #: Directory (or file) the JSONL run ledger is appended to.
    ledger: Optional[Union[str, Path]] = None
    #: Per-stage cProfile hotspot tables in every worker.
    profile: bool = False
    #: Background sampler appending ``sample`` events to the ledger
    #: (``OUT/events.jsonl`` when no ledger is configured).
    series: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "jobs": self.jobs,
            "timeout_s": self.timeout_s,
            "retries": self.retries,
            "backoff_s": self.backoff_s,
            "strict": self.strict,
            "lint": self.lint,
            "plan": self.plan,
            "ledger": (str(self.ledger)
                       if self.ledger is not None else None),
            "profile": self.profile,
            "series": self.series,
        }


def job_fingerprint(spec: JobSpec) -> str:
    """The deck-content fingerprint for one job spec."""
    return deck_fingerprint(Path(spec.deck).read_text(), spec.program)


def job_cache_key(spec: JobSpec, fingerprint: str) -> str:
    """The artifact-cache key: deck content + options + code digest."""
    return cache_key(fingerprint, spec.program,
                     options={"strict": spec.strict})


def _lint_verdict(cache: Optional[ArtifactCache], spec: JobSpec,
                  fingerprint: str) -> Dict[str, Any]:
    """The lint verdict for one job, through the cache sidecar.

    Verdicts are keyed on deck content + program + strict + the code
    digest, so a warm rerun skips the analysis entirely and any source
    change -- a rule, a checker, a parser -- invalidates every stored
    verdict at once.
    """
    if cache is not None:
        key = lint_key(fingerprint, spec.program, spec.strict)
        cached = cache.lookup_lint(key)
        if cached is not None:
            obs.count("batch.lint_cache_hits")
            return cached
    from repro.lint import lint_text

    result = lint_text(Path(spec.deck).read_text(), spec.deck,
                       program=spec.program, strict=spec.strict)
    verdict = result.to_dict()
    if cache is not None:
        cache.store_lint(key, verdict)
    return verdict


def run_batch(specs: Sequence[JobSpec],
              options: Optional[BatchOptions] = None,
              out_root: Union[str, Path] = ".") -> BatchManifest:
    """Run every job and return the complete manifest.

    Never raises for per-job failures; :class:`~repro.errors.BatchError`
    only escapes for setup problems (an unreadable deck file counts --
    if the batch cannot even fingerprint a deck it cannot promise cache
    correctness for it).
    """
    options = options or BatchOptions()
    if options.jobs < 1:
        raise BatchError(f"--jobs must be >= 1, got {options.jobs}")
    if options.retries < 0:
        raise BatchError(f"--retries must be >= 0, got {options.retries}")
    started = time.perf_counter()
    started_unix = time.time()
    cache = (ArtifactCache(options.cache_dir)
             if options.cache_dir is not None else None)

    # Trace context: adopt the caller's trace id when observation is on
    # (so `batch run --report` and the assembled trace agree), otherwise
    # mint one.  Every worker fragment hangs off root_span.
    trace_id = obs.trace_id() or new_trace_id()
    root_span = new_span_id()
    ledger_file = (str(events.ledger_path(options.ledger))
                   if options.ledger is not None
                   else str(Path(out_root, events.LEDGER_FILENAME))
                   if options.series else None)
    if ledger_file is not None:
        ledger = events.enable(ledger_file)
        events.set_context(trace_id=trace_id)
        events.emit("run_started", schema=events.SCHEMA,
                    jobs=len(specs), workers=options.jobs,
                    retries=options.retries)

    def _carry_context(spec: JobSpec) -> JobSpec:
        return replace(spec, trace_id=trace_id, parent_span=root_span,
                       ledger=ledger_file, profile=options.profile)

    # Fleet gauges for the --series sampler: the coordinator updates
    # this dict as jobs settle (cache hit, lint reject, finish); the
    # sampler thread only reads it, and plain-dict reads of int values
    # are safe under the GIL.
    progress = {"done": 0, "cache_hits": 0}

    def _fleet_gauges() -> Dict[str, Any]:
        done = progress["done"]
        elapsed = time.perf_counter() - started
        return {
            "queue_depth": max(0, len(specs) - done),
            "decks_sec": (round(done / elapsed, 3)
                          if elapsed > 0 else 0.0),
            "cache_hit_rate": (round(progress["cache_hits"] / done, 3)
                               if done else None),
        }

    sampler: Optional[events.Sampler] = None
    if options.series:
        sampler = events.Sampler(ledger, provider=_fleet_gauges).start()

    try:
        records: Dict[str, Dict[str, Any]] = {}
        pending: List[JobSpec] = []
        plans: Dict[str, Any] = {}
        calibration = None
        if options.plan:
            from repro.plan import load_calibration

            calibration = load_calibration()
        with obs.span("batch.run", jobs=len(specs), workers=options.jobs):
            with obs.span("batch.cache_pass", enabled=cache is not None):
                for spec in specs:
                    try:
                        fingerprint = job_fingerprint(spec)
                    except OSError as exc:
                        raise BatchError(
                            f"cannot read deck {spec.deck}: {exc}"
                        ) from exc
                    records[spec.job_id] = _base_record(spec, fingerprint)
                    if options.plan:
                        from repro.plan import plan_text

                        plan = plan_text(Path(spec.deck).read_text(),
                                         spec.deck, program=spec.program,
                                         calibration=calibration)
                        plans[spec.job_id] = plan
                        records[spec.job_id]["plan"] = plan.batch_block()
                    events.emit("job_queued", job_id=spec.job_id,
                                program=spec.program, deck=spec.deck)
                    if options.lint:
                        verdict = _lint_verdict(cache, spec, fingerprint)
                        record = records[spec.job_id]
                        record["lint"] = verdict
                        if not verdict.get("ok", False):
                            counts = verdict.get("counts") or {}
                            n_errors = counts.get("error", 0)
                            first = next(
                                (d for d in verdict.get("diagnostics", [])
                                 if d.get("severity") == "error"), {})
                            record.update(
                                status="rejected",
                                error={
                                    "type": "lint",
                                    "message": (
                                        f"{n_errors} lint error(s); first: "
                                        f"{first.get('code', '?')}: "
                                        f"{first.get('message', '?')}"
                                    ),
                                    "traceback": "",
                                },
                            )
                            obs.count("batch.jobs_rejected")
                            progress["done"] += 1
                            events.emit("job_lint_rejected",
                                        job_id=spec.job_id, errors=n_errors)
                            log.warning(
                                "job %s: rejected by lint (%d error(s))",
                                spec.job_id, n_errors,
                            )
                            continue
                    if cache is None:
                        pending.append(_carry_context(spec))
                        continue
                    entry = cache.lookup(job_cache_key(spec, fingerprint))
                    restore_start = time.perf_counter()
                    artifacts = (None if entry is None
                                 else entry.restore_into(spec.out_dir))
                    if artifacts is None:
                        records[spec.job_id]["cache"] = "miss"
                        # A whole-deck miss still reuses every pipeline
                        # stage whose inputs are unchanged, through the
                        # stage cache rooted next to the artifact entries.
                        pending.append(_carry_context(replace(
                            spec, stage_cache=str(cache.stage_root)
                        )))
                        continue
                    record = records[spec.job_id]
                    record.update(entry.result)
                    record.update(
                        cache="hit",
                        status="ok",
                        attempts=0,
                        artifacts=artifacts,
                        out_dir=spec.out_dir,
                        wall_s=time.perf_counter() - restore_start,
                    )
                    obs.count("batch.cache_hits")
                    progress["done"] += 1
                    progress["cache_hits"] += 1
                    events.emit("job_cache_hit", job_id=spec.job_id,
                                wall_s=round(record["wall_s"], 6))
                    log.info("job %s: cache hit", spec.job_id)
            for spec in pending:
                obs.count("batch.cache_misses" if cache else "batch.uncached")
            if options.plan:
                pending = _schedule(pending, plans, records, options)

            with obs.span("batch.execute", pending=len(pending)):
                for spec, result, attempts in _execute_all(pending, options):
                    record = records[spec.job_id]
                    record.update(result)
                    record["attempts"] = attempts
                    _stamp_wall_error(record)
                    progress["done"] += 1
                    events.emit("job_finished", job_id=spec.job_id,
                                status=record["status"], attempts=attempts,
                                wall_s=record.get("wall_s"))
                    if record["status"] == "ok":
                        obs.count("batch.jobs_ok")
                        if cache is not None:
                            _store(cache, spec, record)
                    else:
                        obs.count("batch.jobs_failed")
                        error = record.get("error") or {}
                        log.warning(
                            "job %s: failed after %d attempt(s): %s: %s",
                            spec.job_id, attempts, error.get("type", "?"),
                            error.get("message", "?"),
                        )

        jobs = [records[spec.job_id] for spec in specs]
        manifest = BatchManifest(
            meta={
                "created_unix": time.time(),
                "code_version": __version__,
                "out_root": str(out_root),
                "cache_dir": (str(options.cache_dir)
                              if options.cache_dir is not None else None),
                # Trace context for repro.obs.assemble: the fleet-wide
                # trace id, the synthetic root span every worker fragment
                # parents to, and the absolute start of the run.
                "trace_id": trace_id,
                "root_span": root_span,
                "started_unix": started_unix,
                "pid": os.getpid(),
            },
            options=options.to_dict(),
            jobs=jobs,
            summary=summarize_jobs(
                jobs, wall_s=time.perf_counter() - started
            ),
        )
        obs.gauge("batch.wall_s", manifest.summary["wall_s"])
        if sampler is not None:
            # The closing sample (queue_depth 0) lands before
            # run_finished, so the ledger ends on the lifecycle event.
            sampler.stop()
            sampler = None
        events.emit("run_finished", ok=manifest.summary["ok"],
                    failed=manifest.summary["failed"],
                    rejected=manifest.summary["rejected"],
                    wall_s=round(manifest.summary["wall_s"], 6))
        return manifest
    finally:
        if sampler is not None:
            sampler.stop()
        if ledger_file is not None:
            events.disable()


def _base_record(spec: JobSpec, fingerprint: str) -> Dict[str, Any]:
    return {
        "job_id": spec.job_id,
        "deck": spec.deck,
        "program": spec.program,
        "fingerprint": fingerprint,
        "cache": "off",
        "status": "failed",
        "attempts": 0,
        "wall_s": None,
        "out_dir": spec.out_dir,
        "artifacts": [],
        "summary": None,
        "stages": [],
        "obs": {},
        "lint": None,
        "plan": None,
        "error": None,
    }


def _schedule(pending: List[JobSpec], plans: Dict[str, Any],
              records: Dict[str, Dict[str, Any]],
              options: BatchOptions) -> List[JobSpec]:
    """Cost-aware scheduling: order and time-limit jobs by their plans.

    Jobs run **longest-expected-first** so the stragglers that dominate
    the batch's wall clock start immediately instead of queueing behind
    quick wins; unplannable jobs count as unknown-and-possibly-long and
    go first.  Each plannable job's flat ``timeout_s`` is replaced by
    ``PLAN_TIMEOUT_FACTOR x`` its predicted wall (floored at
    ``PLAN_TIMEOUT_MIN_S``); a configured ``timeout_s`` still caps the
    scaled value, so the operator's ceiling is never exceeded.
    """
    def expected_wall(spec: JobSpec) -> float:
        plan = plans.get(spec.job_id)
        if plan is None or not plan.plannable:
            return float("inf")
        return plan.wall_s

    ordered = sorted(pending, key=expected_wall, reverse=True)
    scheduled: List[JobSpec] = []
    for rank, spec in enumerate(ordered):
        plan = plans.get(spec.job_id)
        block = records[spec.job_id].get("plan")
        timeout = spec.timeout_s
        if plan is not None and plan.plannable:
            scaled = max(PLAN_TIMEOUT_MIN_S,
                         PLAN_TIMEOUT_FACTOR * plan.wall_s)
            timeout = (min(scaled, spec.timeout_s)
                       if spec.timeout_s is not None else scaled)
        if block is not None:
            block["rank"] = rank
            block["timeout_s"] = (round(timeout, 3)
                                  if timeout is not None else None)
        scheduled.append(replace(spec, timeout_s=timeout))
    return scheduled


def _stamp_wall_error(record: Dict[str, Any]) -> None:
    """Predicted-vs-actual: actual/predicted wall ratio, once a job ran."""
    block = record.get("plan")
    wall = record.get("wall_s")
    if (block is None or not block.get("plannable")
            or not isinstance(wall, (int, float))):
        return
    predicted = block.get("wall_s") or 0.0
    if predicted > 0:
        block["wall_error"] = round(wall / predicted, 4)


def _store(cache: ArtifactCache, spec: JobSpec,
           record: Dict[str, Any]) -> None:
    """Store a fresh success (a failed store leaves the job ``ok``)."""
    cache.store(job_cache_key(spec, record["fingerprint"]), {
        "status": "ok",
        "summary": record.get("summary"),
        "obs": record.get("obs"),
        "error": None,
    }, spec.out_dir)


def _execute_all(
    pending: Sequence[JobSpec], options: BatchOptions,
) -> Iterator[Tuple[JobSpec, Dict[str, Any], int]]:
    """Yield ``(spec, result, attempts)`` for every pending job.

    Round ``r`` runs every job still failing after ``r - 1`` attempts;
    rounds after the first sleep an exponentially growing backoff first.
    """
    attempts = {spec.job_id: 0 for spec in pending}
    queue = list(pending)
    round_no = 0
    while queue:
        round_no += 1
        if round_no > 1:
            delay = min(options.backoff_s * (2.0 ** (round_no - 2)),
                        MAX_BACKOFF_S)
            if delay > 0:
                log.info("retry round %d: %d job(s) after %.2gs backoff",
                         round_no, len(queue), delay)
                time.sleep(delay)
        retry: List[JobSpec] = []
        for spec, result in _run_round(queue, options):
            attempts[spec.job_id] += 1
            if (result["status"] != "ok"
                    and attempts[spec.job_id] <= options.retries):
                events.emit("job_retried", job_id=spec.job_id,
                            attempt=attempts[spec.job_id])
                # The next round's spec knows which attempt it is, so
                # the worker's own ledger events can carry it too.
                retry.append(replace(spec,
                                     attempt=attempts[spec.job_id] + 1))
                continue
            yield spec, result, attempts[spec.job_id]
        queue = retry


def _run_round(queue: Sequence[JobSpec], options: BatchOptions
               ) -> List[Tuple[JobSpec, Dict[str, Any]]]:
    """One attempt for each queued job, inline or across the pool."""
    if options.jobs == 1 or len(queue) == 1:
        return [(spec, run_job(spec.to_dict())) for spec in queue]
    if any(spec.program == "analyze" for spec in queue):
        # Forked workers inherit the coordinator's modules: import the
        # analyze program and the FEM stack once here instead of once
        # per worker.  scipy is not part of it: a MODAL, THERMAL or
        # SOLVER SPARSE job imports it in the worker that runs it.
        import repro.analyze.program  # noqa: F401
    results: List[Tuple[JobSpec, Dict[str, Any]]] = []
    workers = min(options.jobs, len(queue))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [(pool.submit(run_job, spec.to_dict()), spec)
                   for spec in queue]
        for future, spec in futures:
            try:
                results.append((spec, future.result()))
            except BrokenProcessPool as exc:
                # The worker process died outright (OOM kill, interpreter
                # abort) -- something run_job's own except can never
                # report.  Record the crash against this job; siblings on
                # the same dead pool fail the same way and any retry
                # round builds a fresh pool.
                results.append((spec, _crash_result(spec, exc)))
            except Exception as exc:  # unpicklable result, cancellation
                results.append((spec, _crash_result(spec, exc)))
    return results


def _crash_result(spec: JobSpec, exc: BaseException) -> Dict[str, Any]:
    """A result record for a job whose worker never reported back."""
    return {
        "job_id": spec.job_id,
        "status": "failed",
        "summary": None,
        "stages": [],
        "artifacts": [],
        "obs": {},
        "wall_s": None,
        "error": {
            "type": type(exc).__name__,
            "message": str(exc),
            "traceback": "",
        },
    }
