"""Per-stage resource telemetry: memory, garbage collection, descriptors.

Spans answer *where the wall-clock goes*; this module answers *what the
run cost the machine*.  A :func:`sample` freezes one moment of the
process::

    rss_kb        resident set right now (/proc/self/statm, Linux)
    gc_gen0/1/2   cumulative collector runs per generation
    open_fds      entries in /proc/self/fd (or a best-effort fallback)
    tracemalloc_kb  traced-allocation peak, when tracemalloc is running

and :func:`stage_delta` turns a before/after pair into the per-stage
record the pipeline runner attaches to every stage span and files on
the observer's :class:`ResourceLog`::

    {"rss_delta_kb": 1024,      # resident growth across the stage
     "gc_gen0": 3, "gc_gen1": 0, "gc_gen2": 0,   # collections *during*
     "open_fds": 7, "fd_delta": 0}               # descriptor accounting

Every field is true of its stage.  The high-water RSS is not: getrusage
``ru_maxrss`` is the process's mark, so it is taken once per run, by
:meth:`repro.obs.Observer.report`, as ``meta["peak_rss_kb"]``
(:func:`peak_rss_kb`).  Records ride in the ``resources`` section of
``repro.obs/v1.3`` run reports and in each batch job's manifest ``obs``
block.

Everything here is stdlib-only and cheap (two /proc reads and a tuple
of gc counters -- single-digit microseconds), so the stage runner
samples whenever an observer is enabled; the 5% ledger+tracing overhead
budget prices it.
"""

from __future__ import annotations

import gc
import os
import resource
import threading
import tracemalloc
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

#: ru_maxrss unit: kilobytes on Linux, bytes on macOS.
_MAXRSS_DIVISOR = 1024 if os.uname().sysname == "Darwin" else 1

_PAGE_KB = os.sysconf("SC_PAGE_SIZE") // 1024 if hasattr(os, "sysconf") \
    else 4


@dataclass(frozen=True)
class ResourceSample:
    """One frozen moment of the process's resource state."""

    rss_kb: int
    gc_collections: Tuple[int, int, int]
    open_fds: int
    tracemalloc_kb: Optional[int] = None


def current_rss_kb() -> int:
    """Resident set size right now, in kilobytes (0 when unreadable)."""
    try:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * _PAGE_KB
    except (OSError, ValueError, IndexError):
        # Non-Linux fallback: the high-water mark is the best we have.
        return peak_rss_kb()


def peak_rss_kb() -> int:
    """High-water resident set size, in kilobytes."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               // _MAXRSS_DIVISOR)


def gc_collections() -> Tuple[int, int, int]:
    """Cumulative collector runs per generation (gen0, gen1, gen2)."""
    stats = gc.get_stats()
    counts = [int(s.get("collections", 0)) for s in stats[:3]]
    while len(counts) < 3:
        counts.append(0)
    return (counts[0], counts[1], counts[2])


def open_fd_count() -> int:
    """Open file descriptors of this process (0 when undeterminable)."""
    try:
        return len(os.listdir("/proc/self/fd")) - 1  # minus the listing fd
    except OSError:
        pass
    # Portable fallback: probe a bounded range.  Coarse but monotonic
    # enough for delta accounting on platforms without /proc.
    count = 0
    for fd in range(256):
        try:
            os.fstat(fd)
        except OSError:
            continue
        count += 1
    return count


def sample() -> ResourceSample:
    """Freeze the process's current resource state."""
    traced: Optional[int] = None
    if tracemalloc.is_tracing():
        _, peak = tracemalloc.get_traced_memory()
        traced = peak // 1024
    return ResourceSample(
        rss_kb=current_rss_kb(),
        gc_collections=gc_collections(),
        open_fds=open_fd_count(),
        tracemalloc_kb=traced,
    )


def stage_delta(before: ResourceSample,
                after: Optional[ResourceSample] = None) -> Dict[str, Any]:
    """The per-stage resource record: what one stage did to the process.

    The absolute ``open_fds`` comes from ``after``; deltas are ``after - before``.  GC deltas are clamped at zero — a
    mid-stage ``gc.collect(); gc.set_threshold(...)`` dance cannot make
    a stage report negative collections.
    """
    if after is None:
        after = sample()
    record: Dict[str, Any] = {
        "rss_delta_kb": after.rss_kb - before.rss_kb,
        "gc_gen0": max(after.gc_collections[0] - before.gc_collections[0], 0),
        "gc_gen1": max(after.gc_collections[1] - before.gc_collections[1], 0),
        "gc_gen2": max(after.gc_collections[2] - before.gc_collections[2], 0),
        "open_fds": after.open_fds,
        "fd_delta": after.open_fds - before.open_fds,
    }
    if after.tracemalloc_kb is not None:
        record["tracemalloc_kb"] = after.tracemalloc_kb
    return record


class ResourceLog:
    """Ordered, thread-safe per-stage resource records.

    Mirrors :class:`~repro.obs.health.HealthLog`: one entry per stage
    *execution* (a stage repeated across a multi-problem deck records
    once per problem), serialised into the ``resources`` section of a
    ``repro.obs/v1.3`` run report.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: List[Tuple[str, Dict[str, Any]]] = []

    def record(self, stage: str, values: Dict[str, Any]) -> None:
        with self._lock:
            self._entries.append((stage, dict(values)))

    def to_list(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [{"stage": stage, "values": dict(values)}
                    for stage, values in self._entries]


def render_resources(entries: List[Dict[str, Any]]) -> str:
    """Human-readable per-stage resource table (``obs render``)."""
    if not entries:
        return "resources: no samples recorded"
    lines = ["per-stage resources",
             f"  {'stage':<22s} {'ΔRSS':>9s} "
             f"{'gc 0/1/2':>9s} {'fds':>4s}"]
    for entry in entries:
        values = entry.get("values", {})
        gens = "/".join(str(values.get(f"gc_gen{g}", 0)) for g in range(3))
        lines.append(
            f"  {entry.get('stage', '?'):<22s}"
            f" {values.get('rss_delta_kb', 0):+8d}K"
            f" {gens:>9s}"
            f" {values.get('open_fds', 0):>4d}"
        )
    return "\n".join(lines)
