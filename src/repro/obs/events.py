"""The run ledger: an append-only JSONL stream of lifecycle events.

Spans and reports are *post-hoc* — they exist once a run finishes and
its observer is frozen.  The ledger is the *live* view: every process
of a batch run (the coordinator and each pool worker) appends one JSON
line per lifecycle event as it happens, so ``obs tail`` can follow a
running fleet and a crashed run still leaves its history behind.

Schema ``repro.obs-events/v1``: one JSON object per line, newline
terminated, never rewritten.  Every record carries at least::

    {"ts": <unix seconds>, "pid": <writer pid>, "event": "<name>"}

plus event-specific fields (``job_id``, ``trace_id``, ``stage``,
``status``, ``wall_s``...).  Well-known event names:

==================  ====================================================
``run_started``     batch accepted (fields: ``jobs``, ``trace_id``)
``run_finished``    manifest written (``ok``, ``failed``, ``wall_s``)
``job_queued``      job admitted to the schedule
``job_cache_hit``   served whole from the artifact cache
``job_lint_rejected``  failed the ``--lint`` pre-flight, never ran
``job_started``     a worker picked the job up (``attempt``)
``job_attempt_finished``  one attempt's verdict, from the worker
``job_retried``     failed attempt re-queued for another round
``job_finished``    final accounting by the coordinator (``status``,
                    ``attempts``)
``stage_open``      a pipeline stage began (``stage``, ``cache``)
``stage_close``     ...and ended (``wall_s``)
``sample``          ``--series`` gauges from the coordinator's
                    :class:`Sampler` (``rss_kb``, ``cpu_pct``,
                    ``queue_depth``, ``decks_sec``, ``cache_hit_rate``)
==================  ====================================================

**Atomicity.**  Writers open the file ``O_APPEND`` and emit each record
as a single ``os.write`` of one complete line; POSIX appends of this
size are not interleaved, so concurrent workers can share one ledger
without locks.  The one failure mode left is a writer dying mid-write,
which can only truncate the *final* line; :func:`read_events` therefore
treats a torn final line as truncation, not corruption.  A torn line
*earlier* than that means the file was edited or two ledgers were
concatenated — that is corruption and raises
:class:`~repro.errors.ObsError`.

The module-level facade mirrors :mod:`repro.obs`: :func:`enable` a
ledger (workers do this from their job spec), :func:`emit` from
anywhere, and everything is a cheap no-op while disabled.  Context
fields (:func:`set_context`) ride on every subsequent record, so the
pipeline runner can emit bare ``stage_open`` events and still have them
carry the worker's ``job_id`` and ``trace_id``.

The ledger is unbounded: a ``--series`` run adds four ``sample``
records a second (~140 bytes each), about 50 MB a day of soak.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from pathlib import Path
from typing import (Any, Callable, Dict, Iterator, List, Optional, Tuple,
                    Union)

from repro.errors import ObsError
from repro.obs.resources import current_rss_kb

SCHEMA = "repro.obs-events/v1"

log = logging.getLogger("repro.obs")

#: File name used when a ledger is given as a directory.
LEDGER_FILENAME = "events.jsonl"


def ledger_path(path: Union[str, Path]) -> Path:
    """Resolve a ``--ledger`` argument: a directory means
    ``DIR/events.jsonl``; anything else is the ledger file itself."""
    path = Path(path)
    if path.is_dir() or not path.suffix:
        return path / LEDGER_FILENAME
    return path


class EventLedger:
    """One append-only JSONL event stream (multi-process safe)."""

    def __init__(self, path: Union[str, Path]):
        self.path = ledger_path(path)
        self._fd: Optional[int] = None
        # The coordinator's ledger is shared with the --series sampler
        # thread: two first emits must not both open (and leak) an fd.
        self._open_lock = threading.Lock()

    def _ensure_open(self) -> int:
        with self._open_lock:
            if self._fd is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._fd = os.open(
                    str(self.path),
                    os.O_WRONLY | os.O_APPEND | os.O_CREAT,
                    0o644,
                )
            return self._fd

    def emit(self, event: str, **fields: Any) -> None:
        """Append one event record (a single atomic write)."""
        record: Dict[str, Any] = {
            "ts": round(time.time(), 6),
            "pid": os.getpid(),
            "event": event,
        }
        record.update(fields)
        line = json.dumps(record, separators=(",", ":"),
                          default=str) + "\n"
        os.write(self._ensure_open(), line.encode("utf-8"))

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "EventLedger":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        self.close()
        return False


# ----------------------------------------------------------------------
# The --series sampler
# ----------------------------------------------------------------------

#: Seconds between ``sample`` events: fast enough that a few-second
#: batch still leaves a usable trace, slow enough to stay far under the
#: 2% ``series_pct`` budget.
SAMPLE_INTERVAL_S = 0.25


def _process_tree_cpu_s() -> float:
    """CPU seconds of this process *and its reaped children*.

    ``os.times`` folds a pool worker's CPU in once the coordinator waits
    on it, so ``cpu_pct`` reflects the fleet -- with steps as worker
    generations retire -- rather than the mostly-idle coordinator.
    """
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class Sampler:
    """A daemon thread appending one ``sample`` event per interval.

    It holds the coordinator's own :class:`EventLedger`, not the facade:
    a ``--jobs 1`` run pushes the inline worker's ledger and ``job_id``
    onto the facade stack, and samples must not carry them.  ``cpu_pct``
    is the process-tree CPU delta over the wall delta since the previous
    sample (above 100 means more than one busy core).  ``provider`` adds
    the fleet gauges; an exception there, or an ``OSError`` writing,
    loses that one sample and never the run.  :meth:`stop` joins the
    thread and takes the closing sample, so call it before the final
    lifecycle event.
    """

    def __init__(self, ledger: EventLedger,
                 provider: Optional[Callable[[], Dict[str, Any]]] = None,
                 interval_s: float = SAMPLE_INTERVAL_S):
        self.ledger = ledger
        self.provider = provider
        self.interval_s = interval_s
        self.samples_taken = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._last_wall = time.perf_counter()
        self._last_cpu = _process_tree_cpu_s()

    def sample_once(self) -> Dict[str, Any]:
        """Take and append one sample; returns its fields."""
        now_wall, now_cpu = time.perf_counter(), _process_tree_cpu_s()
        dt = now_wall - self._last_wall
        cpu_pct = 100.0 * (now_cpu - self._last_cpu) / dt if dt > 0 else 0.0
        self._last_wall, self._last_cpu = now_wall, now_cpu
        fields: Dict[str, Any] = {"rss_kb": current_rss_kb(),
                                  "cpu_pct": round(cpu_pct, 2)}
        try:
            fields.update(self.provider() if self.provider else {})
        except Exception:  # the thread outlives a bad gauge callback
            log.debug("sample provider failed", exc_info=True)
        try:
            self.ledger.emit("sample", **fields)
        except OSError:
            pass
        self.samples_taken += 1
        return fields

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample_once()

    def start(self) -> "Sampler":
        self._thread = threading.Thread(
            target=self._run, name="obs-sampler", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Join the thread, then take the closing sample."""
        thread, self._thread = self._thread, None
        if thread is not None:
            self._stop.set()
            thread.join(timeout=5.0)
            self.sample_once()


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------

def parse_events(text: str, source: str = "<ledger>"
                 ) -> Tuple[List[Dict[str, Any]], bool]:
    """Parse ledger text into ``(events, truncated)``.

    ``truncated`` is True when the final line was torn (no trailing
    newline, or newline-terminated but not valid JSON — a writer died
    mid-record).  Anything unparsable *before* the final line raises
    :class:`ObsError`: an append-only file cannot legitimately contain
    interior garbage.
    """
    events: List[Dict[str, Any]] = []
    lines = text.split("\n")
    # A well-formed ledger ends with "\n", so split() leaves a final "".
    complete, tail = lines[:-1], lines[-1]
    truncated = bool(tail.strip())
    for i, line in enumerate(complete):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if i == len(complete) - 1:
                # Newline made it out but the record body did not
                # (interrupted os.write): still the torn-final-line case.
                truncated = True
                break
            raise ObsError(
                f"{source}: corrupt ledger line {i + 1}: {exc}"
            ) from exc
        if not isinstance(record, dict):
            raise ObsError(
                f"{source}: ledger line {i + 1} is not a JSON object"
            )
        events.append(record)
    return events, truncated


def read_events(path: Union[str, Path]
                ) -> Tuple[List[Dict[str, Any]], bool]:
    """Read a ledger file; returns ``(events, truncated)``."""
    path = ledger_path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ObsError(f"cannot read ledger {path}: {exc}") from exc
    return parse_events(text, source=str(path))


def follow_events(path: Union[str, Path], poll_s: float = 0.2,
                  once: bool = False) -> Iterator[Dict[str, Any]]:
    """Yield ledger events as they appear (the ``obs tail`` engine).

    Buffers partial trailing lines until their newline arrives, so a
    record being written *right now* is never mis-read.  With ``once``
    the generator drains what is on disk and returns; otherwise it
    polls forever (callers stop it by breaking out / KeyboardInterrupt).
    """
    path = ledger_path(path)
    buffer = ""
    offset = 0
    while True:
        try:
            size = path.stat().st_size
        except OSError:
            size = 0
        if size > offset:
            with open(path, "r", encoding="utf-8") as fh:
                fh.seek(offset)
                buffer += fh.read()
                offset = fh.tell()
            while "\n" in buffer:
                line, buffer = buffer.split("\n", 1)
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn by a dead writer; skip the stub
                if isinstance(record, dict):
                    yield record
        if once:
            return
        time.sleep(poll_s)


def render_event(record: Dict[str, Any]) -> str:
    """One human-readable ledger line (the ``obs tail`` output)."""
    ts = record.get("ts")
    if isinstance(ts, (int, float)):
        clock = time.strftime("%H:%M:%S", time.localtime(ts))
        stamp = f"{clock}.{int((ts % 1.0) * 1000):03d}"
    else:
        stamp = "--:--:--.---"
    pid = record.get("pid", "?")
    event = record.get("event", "?")
    skip = {"ts", "pid", "event", "schema"}
    pairs = " ".join(
        f"{key}={_fmt_value(value)}"
        for key, value in record.items() if key not in skip
    )
    return f"{stamp} [{pid:>7}] {event:<18s} {pairs}".rstrip()


def _fmt_value(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


# ----------------------------------------------------------------------
# Module facade (no-op while disabled, like the span/metric facade)
# ----------------------------------------------------------------------

#: Stack of ``(ledger, context)`` pairs; emits land on the top entry.
#: A stack (not a single slot) so an inline worker enabling its own
#: ledger around one job cannot clobber the coordinator's — the
#: ``--jobs 1`` path runs :func:`repro.batch.worker.run_job` in the
#: coordinator process itself.
_stack: List[Tuple[EventLedger, Dict[str, Any]]] = []


def enable(target: Union[str, Path, EventLedger]) -> EventLedger:
    """Push a ledger; subsequent :func:`emit` calls land on it."""
    ledger = (target if isinstance(target, EventLedger)
              else EventLedger(target))
    _stack.append((ledger, {}))
    return ledger


def disable() -> None:
    """Pop (and close) the most recently enabled ledger."""
    if _stack:
        ledger, _ = _stack.pop()
        ledger.close()


def enabled() -> bool:
    return bool(_stack)


def set_context(**fields: Any) -> None:
    """Fields stamped onto every subsequent record (job_id, trace_id)."""
    if _stack:
        _stack[-1][1].update(fields)


def emit(event: str, **fields: Any) -> None:
    """Append one event through the facade; no-op while disabled.

    A full disk or revoked ledger file must never take the run down:
    write failures are swallowed (the ledger is telemetry, not truth —
    the manifest is the durable record).
    """
    if not _stack:
        return
    ledger, context = _stack[-1]
    merged = dict(context)
    merged.update(fields)
    try:
        ledger.emit(event, **merged)
    except OSError:
        pass
