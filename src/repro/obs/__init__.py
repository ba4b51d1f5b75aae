"""Observability: structured spans, a metrics registry, and run reports.

The subsystem is **off by default** and costs next to nothing while off:
every facade call is a module-global load, a truthiness test and a
return.  Code throughout the pipeline instruments itself unconditionally
through this facade::

    from repro import obs

    with obs.span("idlz.shape", subdivisions=4):
        ...
    obs.count("idlz.nodes_numbered", grid.n_nodes)
    obs.gauge("idlz.bandwidth_after", bw)

and an interested caller turns collection on around a region of work::

    with obs.capture() as observer:
        run_idlz_files(deck, out)
    report = observer.report(command="idlz")
    report.save("run.json")          # machine-readable
    print(report.render_tree())      # human-readable

Observers nest (a stack); span/metric calls always land on the most
recently enabled observer.  See docs/OBSERVABILITY.md for naming
conventions and the report schema.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, List, Optional

from repro.obs.health import HealthLog, HealthSnapshot
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.profile import ProfileLog
from repro.obs.report import SCHEMA, RunReport
from repro.obs.resources import ResourceLog
from repro.obs.span import Span, Tracer, new_span_id, new_trace_id

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "HealthLog", "HealthSnapshot", "ProfileLog", "ResourceLog",
    "RunReport", "SCHEMA", "Span", "Tracer", "Observer",
    "capture", "count", "current", "disable", "enable", "enabled",
    "gauge", "health", "health_enabled", "new_span_id", "new_trace_id",
    "observe", "profiling", "resource_record", "span", "trace_id",
]


class Observer:
    """One enabled observation: tracer, metrics, health, profiles.

    ``trace_id`` groups this observation's spans with fragments from
    other processes working on the same logical run (a batch run ships
    its trace id to every worker; see docs/OBSERVABILITY.md).  With
    ``profile=True`` the stage-pipeline runner wraps each stage body in
    cProfile and files the hotspot tables here.  ``collect_health=False``
    keeps spans and metrics but skips the numerical-health snapshots --
    their *construction* (mesh walks, residual matvecs) is the one
    genuinely expensive part of observation, so cost-sensitive captures
    (the overhead benchmark prices ledger + tracing this way) can opt
    out while call sites stay unconditional.
    """

    def __init__(self, trace_id: Optional[str] = None,
                 profile: bool = False,
                 collect_health: bool = True):
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        self.health = HealthLog()
        self.trace_id = trace_id if trace_id else new_trace_id()
        self.profile = profile
        self.collect_health = collect_health
        self.profiles = ProfileLog()
        self.resources = ResourceLog()

    def report(self, **meta: Any) -> RunReport:
        """Freeze everything collected so far into a :class:`RunReport`.

        The report's meta always carries the trace context
        (``trace_id``, ``origin_unix``, ``pid``) so saved reports stay
        assemblable, and the process's high-water RSS so far
        (``peak_rss_kb``); explicit ``meta`` keys win.
        """
        import os

        from repro.obs.resources import peak_rss_kb

        meta.setdefault("trace_id", self.trace_id)
        meta.setdefault("origin_unix", self.tracer.origin_unix)
        meta.setdefault("pid", os.getpid())
        meta.setdefault("peak_rss_kb", peak_rss_kb())
        return RunReport.from_observer(self, meta)


class _NoopSpanHandle:
    """Shared do-nothing context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NOOP_SPAN = _NoopSpanHandle()

#: Stack of enabled observers; empty means observability is off.
_observers: List[Observer] = []


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------

def enable(observer: Optional[Observer] = None) -> Observer:
    """Push an observer; subsequent span/metric calls land on it."""
    ob = observer if observer is not None else Observer()
    _observers.append(ob)
    return ob


def disable(observer: Optional[Observer] = None) -> None:
    """Pop an observer (the given one, or the most recent)."""
    if not _observers:
        return
    if observer is None:
        _observers.pop()
    else:
        try:
            _observers.remove(observer)
        except ValueError:
            pass


def enabled() -> bool:
    return bool(_observers)


def current() -> Optional[Observer]:
    return _observers[-1] if _observers else None


@contextmanager
def capture() -> Iterator[Observer]:
    """Enable observation for a ``with`` block."""
    ob = enable()
    try:
        yield ob
    finally:
        disable(ob)


# ----------------------------------------------------------------------
# Instrumentation facade (near-zero cost while disabled)
# ----------------------------------------------------------------------

def span(name: str, **attrs: Any):
    """A context manager timing one named region, nested per thread."""
    if not _observers:
        return _NOOP_SPAN
    return _observers[-1].tracer.span(name, **attrs)


def count(name: str, amount: int = 1) -> None:
    """Increment a counter."""
    if _observers:
        _observers[-1].metrics.count(name, amount)


def gauge(name: str, value: Any) -> None:
    """Set a gauge to the latest value."""
    if _observers:
        _observers[-1].metrics.set_gauge(name, value)


def observe(name: str, value: float) -> None:
    """Record one observation into a histogram."""
    if _observers:
        _observers[-1].metrics.observe(name, value)


def trace_id() -> Optional[str]:
    """The enabled observer's trace id, or ``None`` while disabled."""
    return _observers[-1].trace_id if _observers else None


def profiling() -> bool:
    """True when the enabled observer wants per-stage cProfile data."""
    return bool(_observers) and _observers[-1].profile


def health_enabled() -> bool:
    """True when the enabled observer collects health snapshots."""
    return bool(_observers) and _observers[-1].collect_health


def resource_record(stage: str, values: Any) -> None:
    """File one stage's resource record; no-op while disabled."""
    if _observers:
        _observers[-1].resources.record(stage, values)


def health(name: str, snapshot: HealthSnapshot) -> None:
    """Publish a numerical-health snapshot under a stage name.

    No-op while no observer is enabled (or the observer opted out of
    health).  Building a snapshot usually costs real work (walking a
    mesh, a matvec), so call sites should gate the *construction* on
    :func:`health_enabled`::

        if obs.health_enabled():
            obs.health("idlz.reform", mesh_health(mesh))
    """
    if _observers and _observers[-1].collect_health:
        _observers[-1].health.publish(name, snapshot)
