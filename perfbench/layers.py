"""Per-layer metrics of the traced run: loading spans and adding them up.

Time metrics are wall-clock attributions (see ``spans.attribute_wall``)
averaged per traced op, so for every op, and hence for their means,

    sum(layer times) + unattributed_s == op wall

Count metrics are per-op means of what the launcher counted.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from launcher import STAGE_LAYERS
from spans import UNATTRIBUTED, Span, attribute_wall

#: Layers that own wall time, in report order.
TIME_LAYERS = [
    "interp.start", "import.repro", "cards.read",
    "idlz.number", "idlz.elements", "idlz.shape", "idlz.reform",
    "idlz.renumber", "idlz.output",
    "ospl.deck", "ospl.intervals", "ospl.contour", "ospl.labels",
    "ospl.plot",
    "fem.assemble", "fem.factor", "fem.substitute", "fem.recover",
    "plotter.svg", "analyze.run",
    "pipeline.cache_lookup", "pipeline.cache_store",
    "batch.coordinator", "batch.fingerprint", "batch.artifact_lookup",
    "batch.artifact_store", "batch.run_job", "batch.pool_wait",
    "batch.manifest", "lint.lint", "plan.plan",
]

#: Counted per-layer metrics: name -> unit.
COUNTS = {
    "import.modules": "count",
    "import.scipy_loaded": "share",
    "import.rss_mb": "MB",
    "cards.cards": "count",
    "idlz.reform_swaps": "count",
    "idlz.output_mb": "MB",
    "idlz.reform_rss_rise_mb": "MB",
    "ospl.segments": "count",
    "fem.dofs": "count",
    "fem.half_bandwidth": "count",
    "fem.factor_mflop": "Mflop-computed",
    "fem.factor_rss_rise_mb": "MB",
    "plotter.svg_mb": "MB",
    "pipeline.cache_hits": "count",
    "pipeline.cache_misses": "count",
    "pipeline.cache_store_mb": "MB",
    "batch.artifact_hits": "count",
    "lint.verdict_hits": "count",
    # Wrapper targets the launcher could not find (renamed or removed
    # functions): their time falls to the enclosing span.
    "trace.missing_wrappers": "count",
}

#: Whole-run metrics computed from the others.
DERIVED = {
    "pipeline.cache_hit_ratio": "share",
    "unattributed_s": "s",
    "unattributed_frac": "share",
    "trace.overhead_frac": "share",
}


def metric_units() -> Dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {f"{layer}_s": "s" for layer in TIME_LAYERS}
    units.update(COUNTS)
    units.update(DERIVED)
    return units


def load_op(trace_dir: Path, t_spawn: float, t_exit: float
            ) -> Tuple[Dict[str, float], Dict[str, float], List[Span]]:
    """One traced op -> (wall per layer, counts, main-track spans)."""
    main = json.loads((trace_dir / "main.json").read_text())
    track = [Span("interp.start", t_spawn, main["t0"], -1, "interp.start")]
    # Launcher parents index its own list, one behind ``track``.
    track += [Span(name, start, end, parent + 1 if parent >= 0 else -1,
                   layer)
              for name, start, end, parent, layer in main["spans"]]
    counts = dict(main["counts"])
    counts["import.modules"] = main["modules"]
    counts["import.scipy_loaded"] = 1.0 if main["scipy_loaded"] else 0.0
    workers: List[List[Span]] = []
    for path in sorted(trace_dir.glob("worker-*.jsonl")):
        for line in path.read_text().splitlines():
            job = json.loads(line)
            workers.append([Span(n, s, e, p, layer)
                            for n, s, e, p, layer in job["spans"]])
            for key, value in job["counts"].items():
                counts[key] = counts.get(key, 0.0) + value
    wall = attribute_wall((t_spawn, t_exit), track, workers)
    return wall, counts, track


def aggregate(ops: List[Tuple[Dict[str, float], Dict[str, float]]],
              walls: List[float]) -> Dict[str, float]:
    """Per-op means of every per-layer metric over the traced ops."""
    n = len(ops)
    out: Dict[str, float] = {}
    for layer in TIME_LAYERS:
        out[f"{layer}_s"] = sum(w.get(layer, 0.0) for w, _ in ops) / n
    unattributed = sum(w.get(UNATTRIBUTED, 0.0) for w, _ in ops)
    out["unattributed_s"] = unattributed / n
    out["unattributed_frac"] = unattributed / sum(walls)
    for name in COUNTS:
        out[name] = sum(c.get(name, 0.0) for _, c in ops) / n
    hits = sum(c.get("pipeline.cache_hits", 0.0) for _, c in ops)
    misses = sum(c.get("pipeline.cache_misses", 0.0) for _, c in ops)
    out["pipeline.cache_hit_ratio"] = (hits / (hits + misses)
                                       if hits + misses else 0.0)
    return out


def identity_error(wall: Dict[str, float], t_spawn: float,
                   t_exit: float) -> float:
    """|sum of layers + unattributed - wall| for one op (seconds)."""
    return abs(sum(wall.values()) - (t_exit - t_spawn))


def unknown_layers(wall: Dict[str, float]) -> List[str]:
    known = set(TIME_LAYERS) | {UNATTRIBUTED}
    return sorted(set(wall) - known)


# ----------------------------------------------------------------------
# Cross-check against the program's own --report spans
# ----------------------------------------------------------------------

#: Launcher callee span -> the program's own span over the same call.
CALLEE_REPORT_NAMES = {
    "idlz.reverse_cuthill_mckee": "fem.renumber.rcm",
    "fem.assemble_banded": "fem.assemble.banded",
    "fem.assemble_sparse": "fem.assemble.sparse",
    "fem.assemble_skyline": "fem.assemble.skyline",
    "fem.recover_stresses": "fem.stress_recovery",
    "fem.cholesky": "fem.solve.banded",
    "fem.substitute": "fem.solve.banded",
}

#: Agreement asked of each span pair: share of the report's wall ...
CROSSCHECK_SHARE = 0.15
#: ... or this many seconds, whichever is larger; shorter spans are skipped.
CROSSCHECK_FLOOR_S = 0.005


def crosscheck(report_path: Path, track: List[Span]
               ) -> Tuple[List[str], float]:
    """Compare traced span totals with the program's report, by name.

    Stage spans (``stage:<pipeline>.<stage>``) match the report's stage
    spans; wrapped callees match the program's own kernel spans.  A
    wrapper that missed a ``from ... import`` call site leaves its total
    at zero, far outside the allowed share.  Returns the errors and the
    largest relative deviation seen.
    """
    report = json.loads(report_path.read_text())
    theirs: Dict[str, float] = {}

    def walk(node: dict) -> None:
        theirs[node["name"]] = theirs.get(node["name"], 0.0) + node["wall_s"]
        for child in node.get("children", []):
            walk(child)

    for node in report["spans"]:
        walk(node)
    ours: Dict[str, float] = {}
    for span in track:
        name: Optional[str] = None
        if span.name.startswith("stage:"):
            name = span.name[len("stage:"):]
        elif span.name in CALLEE_REPORT_NAMES:
            name = CALLEE_REPORT_NAMES[span.name]
        if name is not None:
            ours[name] = ours.get(name, 0.0) + span.duration
    errors: List[str] = []
    worst = 0.0
    for name, wall in sorted(theirs.items()):
        if wall < CROSSCHECK_FLOOR_S or not _comparable(name):
            continue
        got = ours.get(name, 0.0)
        dev = abs(got - wall) / wall
        worst = max(worst, dev)
        if abs(got - wall) > max(CROSSCHECK_SHARE * wall, CROSSCHECK_FLOOR_S):
            errors.append(f"{name}: traced {got:.4f}s vs report {wall:.4f}s")
    return errors, worst


def _comparable(name: str) -> bool:
    """Report spans the launcher brackets: stages and mapped kernels."""
    stage = name.rpartition(".")[2]
    return (name in CALLEE_REPORT_NAMES.values()
            or (name.count(".") == 1 and stage in STAGE_LAYERS))
