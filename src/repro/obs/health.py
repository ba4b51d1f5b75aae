"""Numerical-health snapshots: mesh quality, solver conditioning, fields.

The span/metric layer answers *where time and payload go*; this module
answers *is the arithmetic healthy*.  The paper's quality story is
numerical: IDLZ's reformation pass exists to kill "needle-like"
elements, and the banded solver is "sensitive to the node numbering".
A :class:`HealthSnapshot` freezes one stage's numerical state —

* mesh quality after each IDLZ stage (min angle, worst/p95 aspect
  ratio, needle count), so the reformation pass's effect is quantified;
* solver health (relative residual, smallest/largest Cholesky pivot and
  their ratio as a condition proxy, fill-in);
* field health before contouring (min/max/range, degenerate-interval
  detection).

Stages publish through the facade, ``obs.health("idlz.reform", snap)``,
which is a no-op while no observer collects health; builders below
that walk a mesh or a field are meant to be *called* only when
``obs.health_enabled()``, so disabled (or health-opted-out) runs never
pay for them.  Snapshots serialize into the
``health`` section of the ``repro.obs/v1.3`` run report.

Like :mod:`repro.obs.span`, this module is import-cheap: numpy and the
FEM quality measures are imported inside the builder functions only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import percentile

#: Aspect ratio beyond which an element counts as a needle (an
#: equilateral triangle scores 1.0; the reformation pass targets these).
NEEDLE_ASPECT = 4.0

#: Relative spread below which a field is degenerate for contouring.
DEGENERATE_RANGE_REL = 1e-12


@dataclass
class HealthSnapshot:
    """One stage's numerical-health record: a kind plus scalar values."""

    kind: str
    values: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "values": dict(self.values)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "HealthSnapshot":
        return cls(kind=str(data.get("kind", "generic")),
                   values=dict(data.get("values", {})))


class HealthLog:
    """Ordered, thread-safe collection of named snapshots."""

    def __init__(self):
        import threading

        self._lock = threading.Lock()
        self._entries: List[Tuple[str, HealthSnapshot]] = []

    def publish(self, name: str, snapshot: HealthSnapshot) -> None:
        with self._lock:
            self._entries.append((name, snapshot))

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> List[Tuple[str, HealthSnapshot]]:
        with self._lock:
            return list(self._entries)

    def to_list(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [
                {"name": name, **snap.to_dict()}
                for name, snap in self._entries
            ]


# ----------------------------------------------------------------------
# Snapshot builders.  These do real work (they walk meshes / fields), so
# call sites gate them on ``obs.health_enabled()``.
# ----------------------------------------------------------------------

def mesh_health(mesh: Any, needle_aspect: float = NEEDLE_ASPECT,
                **extra: Any) -> HealthSnapshot:
    """Quality snapshot of a triangular mesh (kind ``"mesh"``).

    Degenerate (zero-area) elements are counted rather than raised on —
    a health probe must survive the unhealthy meshes it exists to flag.
    """
    import numpy as np

    from repro.fem.quality import triangle_measures

    m = triangle_measures(*mesh.element_corners())
    good = ~m.flat
    degenerate = int(m.flat.sum())
    aspects = m.aspect[good]
    min_angles = np.degrees(m.min_angle[good])
    needles = degenerate + int((aspects > needle_aspect).sum())
    values: Dict[str, Any] = {
        "n_elements": int(mesh.n_elements),
        "degenerate_count": degenerate,
        "needle_count": needles,
    }
    if len(aspects):
        aspects = np.sort(aspects)
        values.update({
            "min_angle_deg": round(float(min_angles.min()), 6),
            "mean_min_angle_deg": round(float(np.mean(min_angles)), 6),
            "worst_aspect": round(float(aspects[-1]), 6),
            "p95_aspect": round(float(percentile(aspects, 0.95)), 6),
        })
    values.update(extra)
    return HealthSnapshot(kind="mesh", values=values)


def solver_health(*, residual_rel: Optional[float] = None,
                  pivot_min: Optional[float] = None,
                  pivot_max: Optional[float] = None,
                  fillin: Optional[int] = None,
                  **extra: Any) -> HealthSnapshot:
    """Solver snapshot (kind ``"solver"``): residual, pivots, fill-in.

    ``pivot_ratio`` (largest/smallest Cholesky pivot, a cheap condition
    proxy) is derived when both pivots are given.
    """
    values: Dict[str, Any] = {}
    if residual_rel is not None:
        values["residual_rel"] = float(residual_rel)
    if pivot_min is not None:
        values["pivot_min"] = float(pivot_min)
    if pivot_max is not None:
        values["pivot_max"] = float(pivot_max)
    if pivot_min is not None and pivot_max is not None and pivot_min > 0.0:
        values["pivot_ratio"] = float(pivot_max) / float(pivot_min)
    if fillin is not None:
        values["fillin"] = int(fillin)
    values.update(extra)
    return HealthSnapshot(kind="solver", values=values)


def field_health(values: Any, **extra: Any) -> HealthSnapshot:
    """Field snapshot (kind ``"field"``) ahead of contour-interval choice.

    Flags the two conditions Appendix D cannot survive: non-finite
    values and a (near-)zero range, for which ``choose_interval`` has no
    answer ("a constant field has no isograms").
    """
    import numpy as np

    arr = np.asarray(values, dtype=float).ravel()
    n = int(arr.size)
    finite = arr[np.isfinite(arr)]
    n_nonfinite = n - int(finite.size)
    out: Dict[str, Any] = {"n_values": n, "nonfinite_count": n_nonfinite}
    if finite.size:
        vmin = float(finite.min())
        vmax = float(finite.max())
        span = vmax - vmin
        scale = max(abs(vmin), abs(vmax), 1.0)
        out.update({
            "min": vmin,
            "max": vmax,
            "range": span,
            "degenerate": bool(
                n_nonfinite > 0 or span <= DEGENERATE_RANGE_REL * scale
            ),
        })
    else:
        out["degenerate"] = True
    out.update(extra)
    return HealthSnapshot(kind="field", values=out)
