"""Cost calibration: turning BENCH history rows into per-unit rates.

The estimator prices every pipeline stage as ``rate x units`` where the
unit is the stage's natural cost driver (nodes, elements, banded-solve
FLOPs, or element-x-plot products).  Rates come from the checked-in
``BENCH_history.jsonl`` rows: each row records the aggregate stage wall
of a **reference workload** of known size, so ``rate = wall / units``
of that workload.  The three recorded experiments are:

``idlz_stages``
    :func:`benchmarks.common.idlz_stage_probe` -- one 41x61
    subdivision: 2501 nodes, 4800 elements.

``analyze_stages``
    :func:`benchmarks.common.analyze_stage_probe` -- the densified
    plate deck: a 33x25 lattice, 825 nodes, 1536 elements, 1650
    equations, half-bandwidth bound 69 (so the banded solve is
    ``1650 * 69**2 ~= 7.86e6`` FLOPs), two plot fields.

``idlz_large``
    :func:`benchmarks.common.idlz_large_probe` -- the 1001x1001
    lattice: 1 002 001 nodes, 2 000 000 elements, idealized (NONUMB)
    and contoured.

Rates are medians over the newest ``window`` rows per stage, matching
``obs trend``'s window semantics.  Stages with no history rows (and
every stage, when the history file is absent) fall back to the
constants below, which were measured once on the reference container
and are documented in ``docs/PLAN.md`` -- predictions made this way are
flagged ``calibrated: false`` so schedulers can widen their margins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.obs.history import DEFAULT_WINDOW, load_history

#: Default history file, matching ``repro obs record``'s default.
DEFAULT_HISTORY = "BENCH_history.jsonl"

#: Stage span name -> cost-driver unit.
STAGE_UNITS: Dict[str, str] = {
    "idlz.number": "nodes",
    "idlz.elements": "elements",
    "idlz.shape": "elements",
    "idlz.reform": "elements",
    "idlz.renumber": "elements",
    "analyze.number": "nodes",
    "analyze.elements": "elements",
    "analyze.shape": "elements",
    "analyze.reform": "elements",
    "analyze.renumber": "elements",
    "analyze.materials": "elements",
    "analyze.assemble": "elements",
    "analyze.constrain": "nodes",
    "analyze.loads": "nodes",
    "analyze.solve": "flops",
    "analyze.recover": "element_plots",
    "analyze.isograms": "element_plots",
    "ospl.intervals": "nodes",
    "ospl.contour": "elements",
    "ospl.labels": "elements",
    "ospl.plot": "elements",
}

#: Unit sizes of each experiment's reference workload (see module doc).
REFERENCE_UNITS: Dict[str, Dict[str, float]] = {
    "idlz_stages": {"nodes": 2501.0, "elements": 4800.0},
    "analyze_stages": {"nodes": 825.0, "elements": 1536.0,
                       "flops": 7_855_650.0, "element_plots": 3072.0},
    # benchmarks.common.idlz_large_probe -- the 1001x1001 lattice
    # (1 002 001 nodes, 2 000 000 elements) through idealization and
    # contour extraction.  Its rows keep the medians honest at the
    # million-node scale, where the batched kernels run memory-bound
    # rather than loop-bound.
    "idlz_large": {"nodes": 1_002_001.0, "elements": 2_000_000.0},
}

#: Uncalibrated fallback rates (seconds per unit), measured once on the
#: reference container; the documented safety net when history is
#: absent.  OSPL rates derive from the isogram sub-spans of the
#: analyze reference run (OSPL has no bench experiment of its own yet).
#: Restamped after the array-native kernel rewrite (vectorized
#: numbering, zipper, shaping, reform and contour extraction), the
#: analyze assemble / solve rates again after the one-scatter assembly,
#: and the solve rate once more for the numpy blocked band factor (the
#: median ``analyze.solve`` wall of observed analyze-probe runs over
#: the probe's flops) -- see docs/PERFORMANCE.md and docs/PLAN.md.
FALLBACK_RATES: Dict[str, float] = {
    "idlz.number": 2.3e-07,
    "idlz.elements": 3.0e-07,
    "idlz.shape": 2.7e-07,
    "idlz.reform": 1.7e-06,
    "idlz.renumber": 3.4e-06,
    "analyze.number": 3.4e-07,
    "analyze.elements": 3.7e-07,
    "analyze.shape": 6.3e-07,
    "analyze.reform": 1.9e-06,
    "analyze.renumber": 3.6e-06,
    "analyze.materials": 2.6e-08,
    "analyze.assemble": 1.7e-05,
    "analyze.constrain": 1.9e-07,
    "analyze.loads": 4.6e-06,
    "analyze.solve": 1.7e-09,
    "analyze.recover": 9.0e-06,
    "analyze.isograms": 1.2e-05,
    "ospl.intervals": 2.6e-07,
    "ospl.contour": 7.2e-06,
    "ospl.labels": 5.7e-06,
    "ospl.plot": 1.0e-05,
}

#: Per-stage fixed overhead (span bookkeeping, argument plumbing); added
#: on top of ``rate x units`` so tiny decks are not priced at ~0.
STAGE_FLOOR_S = 1e-4

#: Interpreter baseline RSS when no history row carries one.
FALLBACK_BASE_RSS_KB = 69576.0


@dataclass(frozen=True)
class Calibration:
    """Per-stage rates, each flagged calibrated (history) or fallback."""

    source: Optional[str] = None
    rows: int = 0
    base_rss_kb: float = FALLBACK_BASE_RSS_KB
    _rates: Dict[str, Tuple[float, bool]] = field(default_factory=dict)

    def rate(self, stage: str) -> float:
        """Seconds per unit for one stage span name."""
        entry = self._rates.get(stage)
        if entry is not None:
            return entry[0]
        return FALLBACK_RATES[stage]

    def is_calibrated(self, stage: str) -> bool:
        entry = self._rates.get(stage)
        return entry is not None and entry[1]

    def stage_wall(self, stage: str, units: float) -> float:
        """Predicted wall seconds for one stage invocation."""
        return STAGE_FLOOR_S + self.rate(stage) * max(units, 0.0)

    def describe(self) -> Dict[str, Any]:
        """The ``calibration`` block of a full plan report."""
        return {
            "source": self.source,
            "rows": self.rows,
            "calibrated_stages": sorted(
                s for s, (_, hit) in self._rates.items() if hit
            ),
            "base_rss_kb": round(self.base_rss_kb, 1),
        }


def load_calibration(history: Union[str, Path, None] = DEFAULT_HISTORY,
                     window: int = DEFAULT_WINDOW) -> Calibration:
    """Build a calibration from a BENCH history file.

    A missing or empty file yields the all-fallback calibration (every
    prediction flagged uncalibrated) -- the documented degraded mode,
    never an error.
    """
    if history is None:
        return Calibration()
    path = Path(history)
    rows, _truncated = load_history(path)
    samples: Dict[str, List[float]] = {}
    rss: List[float] = []
    for row in rows:
        reference = REFERENCE_UNITS.get(row.get("experiment") or "")
        if reference is None:
            continue
        if isinstance(row.get("peak_rss_kb"), (int, float)):
            rss.append(float(row["peak_rss_kb"]))
        for stage, agg in (row.get("stages") or {}).items():
            unit = STAGE_UNITS.get(stage)
            if unit is None or unit not in reference:
                continue
            wall = agg.get("wall_s")
            if isinstance(wall, (int, float)) and wall >= 0:
                samples.setdefault(stage, []).append(
                    float(wall) / reference[unit]
                )
    rates: Dict[str, Tuple[float, bool]] = {
        stage: (median(vals[-window:]), True)
        for stage, vals in samples.items()
    }
    return Calibration(
        source=str(path) if rows else None,
        rows=len(rows),
        base_rss_kb=median(rss) if rss else FALLBACK_BASE_RSS_KB,
        _rates=rates,
    )
