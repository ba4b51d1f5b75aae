"""The abstract interpreter: deck text -> :class:`DeckPlan`.

Everything here is derived from the parsed card tray; of the program
only the number -> elements stages run, and nothing is shaped, solved
or written:

* **node count, element count, bandwidth bound** -- the program's own
  number -> elements stages run over the type-4 cards
  (:func:`repro.pipeline.idlz.lattice_counts`, the slice ``repro lint``
  counts with): the lattice's nodes, its triangles, and the worst
  node-index spread of any triangle under the initial (l, k)
  numbering, before reform and renumbering;
* **shaping growth** -- the type-6 real-coordinate bounding box versus
  the lattice extent, a bound on how far shaping stretches the frame;
* **wall/memory** -- the per-stage rate model of
  :mod:`repro.plan.calibrate` applied to those counts.

Decks whose cost cannot be derived (unbuildable subdivisions, truncated
trays, empty files) produce ``plannable=False`` plans with a reason --
the planner never raises on deck content.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.cards.parse import (
    PARSERS,
    AnalyzeDeckModel,
    IdlzDeckModel,
    OsplDeckModel,
    RawIdlzProblem,
    classify_deck,
)
from repro.cards.reader import CardReader
from repro.errors import CardError, IdealizationError, PlanError
from repro.plan.calibrate import Calibration, load_calibration
from repro.plan.model import DeckPlan, ProblemPlan

#: File extension the tray scan collects (same as lint and batch).
DECK_SUFFIX = ".deck"

# ----------------------------------------------------------------------
# Memory model constants (bytes).  Tuned against tracemalloc peaks of
# instrumented runs on the reference container -- see docs/PLAN.md for
# the measurement protocol and the 1.5x error band they must satisfy.
# ----------------------------------------------------------------------
#: Fixed working set per problem: listing buffers, stage context,
#: format machinery -- the intercept of the two-scale fit.
PROBLEM_FIXED_BYTES = 150_000
#: Working-set bytes per node: lattice tuples, grid maps, coordinate
#: pairs, renumber permutations (pure-python objects dominate).
NODE_BYTES = 300
#: Working-set bytes per element: triangle tuples, reform quality
#: records, adjacency lists.
ELEM_BYTES = 600
#: Assembly scratch on top of the banded store (index maps, element
#: matrices); multiplies the matrix bytes.
MATRIX_OVERHEAD = 2.0
#: CSR bytes per stored entry (data + indices + indptr amortized).
SPARSE_BYTES_PER_ENTRY = 20
#: Average stored entries per dof row for a triangulated lattice.
SPARSE_ENTRIES_PER_DOF = 14
#: OSPL working set per element (contour segments, label candidates).
OSPL_ELEM_BYTES = 1200
#: Fixed working set per isogram plot (frame, label layout, fonts).
PLOT_FIXED_BYTES = 150_000
#: Per-plot SVG frame construction bytes per element.
PLOT_ELEM_BYTES = 400
#: Fixed wall per isogram plot (frame setup, label layout) on top of
#: the per-element contouring rate.
PLOT_FIXED_S = 1.3e-2

_IDLZ_STAGES = ("idlz.number", "idlz.elements", "idlz.shape",
                "idlz.reform", "idlz.renumber")
_ANALYZE_MESH_STAGES = ("analyze.number", "analyze.elements",
                        "analyze.shape", "analyze.reform",
                        "analyze.renumber")
_ANALYZE_SOLVE_STAGES = ("analyze.materials", "analyze.assemble",
                         "analyze.constrain", "analyze.loads",
                         "analyze.solve", "analyze.recover",
                         "analyze.isograms")
_OSPL_STAGES = ("ospl.intervals", "ospl.contour", "ospl.labels",
                "ospl.plot")


class _Unplannable(Exception):
    """Internal: this deck's cost cannot be derived (reason in args)."""


# ----------------------------------------------------------------------
# Geometry: counts and the bandwidth bound
# ----------------------------------------------------------------------

def plan_problem(problem: RawIdlzProblem) -> ProblemPlan:
    """The static estimate for one IDLZ problem.

    Raises :class:`_Unplannable` (internal) when the problem's cost is
    not derivable; callers fold that into ``plannable=False``.
    """
    built = {}
    for raw in problem.subdivisions:
        if raw.index in built:
            continue  # duplicate definitions: first wins, like the run
        try:
            built[raw.index] = raw.build()
        except IdealizationError as exc:
            raise _Unplannable(f"problem {problem.number}: {exc}") from exc
    if not built:
        raise _Unplannable(
            f"problem {problem.number}: no type-4 subdivision cards"
        )
    from repro.pipeline.idlz import lattice_counts

    counts = lattice_counts(list(built.values()), "plan")
    return ProblemPlan(
        index=problem.number,
        title=problem.title_card.text.strip() if problem.title_card else "",
        n_nodes=counts.n_nodes,
        n_elements=counts.n_elements,
        node_half_bandwidth=counts.half_bandwidth,
        growth=_growth(problem, counts.points),
    )


def _growth(problem: RawIdlzProblem,
            points: np.ndarray) -> Optional[Dict[str, object]]:
    """Shaping growth bound: type-6 bbox versus the lattice extent."""
    xs: List[float] = []
    ys: List[float] = []
    for seg in problem.segments:
        for value in (seg.x1, seg.x2):
            if isinstance(value, (int, float)):
                xs.append(float(value))
        for value in (seg.y1, seg.y2):
            if isinstance(value, (int, float)):
                ys.append(float(value))
    if not xs or not ys:
        return None
    lattice = tuple(float(v) for v in np.ptp(points, axis=0))
    real = (max(xs) - min(xs), max(ys) - min(ys))
    factors = [real[i] / lattice[i] for i in range(2) if lattice[i] > 0]
    return {
        "lattice_extent": list(lattice),
        "real_extent": [round(v, 6) for v in real],
        "factor": round(max(factors), 6) if factors else None,
    }


# ----------------------------------------------------------------------
# Per-program planners
# ----------------------------------------------------------------------

def _mesh_bytes(p: ProblemPlan) -> int:
    return (PROBLEM_FIXED_BYTES + NODE_BYTES * p.n_nodes
            + ELEM_BYTES * p.n_elements)


def _plan_idlz(model: IdlzDeckModel, path: str,
               calibration: Calibration) -> DeckPlan:
    if model.truncated:
        return _unplannable(path, "idlz", "deck truncated mid-card-tray")
    if not model.problems:
        return _unplannable(path, "idlz", "deck declares no problems")
    problems = [plan_problem(p) for p in model.problems]
    stages: Dict[str, float] = {}
    for stage in _IDLZ_STAGES:
        unit_kind = "nodes" if stage == "idlz.number" else "elements"
        stages[stage] = sum(
            calibration.stage_wall(
                stage,
                p.n_nodes if unit_kind == "nodes" else p.n_elements)
            for p in problems
        )
    peak = max(_mesh_bytes(p) for p in problems)
    return _assemble_plan(path, "idlz", problems, stages, peak,
                          calibration, used=_IDLZ_STAGES)


def _plan_ospl(model: OsplDeckModel, path: str,
               calibration: Calibration) -> DeckPlan:
    if model.truncated:
        return _unplannable(path, "ospl", "deck truncated mid-card-tray")
    if not isinstance(model.nn, int) or not isinstance(model.ne, int) \
            or model.nn <= 0 or model.ne <= 0:
        return _unplannable(
            path, "ospl",
            "type-1 card does not declare usable node/element counts")
    title = model.title_cards[0].text.strip() if model.title_cards else ""
    problem = ProblemPlan(index=1, title=title,
                          n_nodes=model.nn, n_elements=model.ne,
                          node_half_bandwidth=0)
    stages = {
        stage: calibration.stage_wall(
            stage,
            model.nn if stage == "ospl.intervals" else model.ne)
        for stage in _OSPL_STAGES
    }
    peak = NODE_BYTES * model.nn + OSPL_ELEM_BYTES * model.ne
    return _assemble_plan(path, "ospl", [problem], stages, peak,
                          calibration, used=_OSPL_STAGES)


def _plan_analyze(model: AnalyzeDeckModel, path: str,
                  calibration: Calibration) -> DeckPlan:
    if model.truncated:
        return _unplannable(path, "analyze",
                            "deck truncated mid-card-tray")
    if not model.idlz.problems:
        return _unplannable(path, "analyze",
                            "deck declares no IDLZ problem")
    problems = [plan_problem(p) for p in model.idlz.problems]
    mesh = problems[0]
    analysis = model.analysis or "plane_stress"
    solver = model.solver or "banded"
    dofs = 1 if analysis == "thermal" else 2
    ndof = dofs * mesh.n_nodes
    # One lattice node couples dofs within a node pair, so the matrix
    # half-bandwidth follows the node bound: dofs*(hb_node + 1) - 1.
    half_bandwidth = dofs * (mesh.node_half_bandwidth + 1) - 1
    flops = float(ndof) * half_bandwidth * half_bandwidth
    n_plots = len(model.plots) or 1
    if analysis == "modal":
        # Dense mass + stiffness pair; the eigensolver works in-place.
        matrix_bytes = 2 * 8 * ndof * ndof
    elif solver == "sparse":
        matrix_bytes = (SPARSE_BYTES_PER_ENTRY * SPARSE_ENTRIES_PER_DOF
                        * ndof)
    else:  # banded / skyline: the band store bounds the skyline store
        matrix_bytes = 8 * ndof * (half_bandwidth + 1)
    stages: Dict[str, float] = {}
    for stage in _ANALYZE_MESH_STAGES:
        units = (mesh.n_nodes if stage == "analyze.number"
                 else mesh.n_elements)
        stages[stage] = calibration.stage_wall(stage, units)
    units_by_stage = {
        "analyze.materials": mesh.n_elements,
        "analyze.assemble": mesh.n_elements,
        "analyze.constrain": mesh.n_nodes,
        "analyze.loads": mesh.n_nodes,
        "analyze.solve": flops,
        "analyze.recover": mesh.n_elements * n_plots,
        "analyze.isograms": mesh.n_elements * n_plots,
    }
    for stage in _ANALYZE_SOLVE_STAGES:
        stages[stage] = calibration.stage_wall(stage, units_by_stage[stage])
    stages["analyze.isograms"] += n_plots * PLOT_FIXED_S
    peak = int(_mesh_bytes(mesh)
               + MATRIX_OVERHEAD * matrix_bytes
               + n_plots * (PLOT_FIXED_BYTES
                            + PLOT_ELEM_BYTES * mesh.n_elements))
    used = _ANALYZE_MESH_STAGES + _ANALYZE_SOLVE_STAGES
    plan = _assemble_plan(path, "analyze", problems, stages, peak,
                          calibration, used=used)
    plan.solve = {
        "analysis": analysis,
        "solver": solver,
        "dofs_per_node": dofs,
        "n_dof": ndof,
        "matrix_half_bandwidth": half_bandwidth,
        "flops": int(flops),
        "matrix_bytes": int(matrix_bytes),
        "n_plots": n_plots,
    }
    return plan


def _assemble_plan(path: str, program: str,
                   problems: List[ProblemPlan],
                   stages: Dict[str, float], peak_bytes: float,
                   calibration: Calibration,
                   used: Sequence[str]) -> DeckPlan:
    return DeckPlan(
        path=path, program=program, plannable=True,
        problems=problems, stages=stages,
        wall_s=sum(stages.values()),
        peak_bytes=int(peak_bytes),
        baseline_rss_kb=calibration.base_rss_kb,
        calibrated=any(calibration.is_calibrated(s) for s in used),
        calibration=calibration.describe(),
    )


def _unplannable(path: str, program: Optional[str],
                 reason: str) -> DeckPlan:
    return DeckPlan(path=path, program=program, plannable=False,
                    reason=reason)


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

#: Program -> its planner over the parsed model.
_PLANNERS = {"idlz": _plan_idlz, "ospl": _plan_ospl,
             "analyze": _plan_analyze}


def _unknown_program(program: str) -> PlanError:
    return PlanError(f"unknown program {program!r}; expected "
                     "'idlz', 'ospl' or 'analyze'")


def plan_model(model: Union[IdlzDeckModel, OsplDeckModel,
                            AnalyzeDeckModel],
               program: str, path: str = "<deck>",
               calibration: Optional[Calibration] = None) -> DeckPlan:
    """Plan an already-parsed deck model (the lint engine's entry)."""
    if program not in _PLANNERS:
        raise _unknown_program(program)
    calibration = calibration or load_calibration()
    try:
        return _PLANNERS[program](model, path, calibration)
    except _Unplannable as exc:
        return _unplannable(path, program, str(exc))


def plan_text(text: str, path: str = "<deck>",
              program: Optional[str] = None,
              calibration: Optional[Calibration] = None) -> DeckPlan:
    """Statically estimate one deck blob; never raises on content."""
    reader = CardReader.from_text(text)
    if program is None:
        try:
            program = classify_deck(reader.images)
        except CardError as exc:
            return _unplannable(path, None, str(exc))
    if program not in PARSERS:
        raise _unknown_program(program)
    return plan_model(PARSERS[program](reader, path), program, path,
                      calibration)


def plan_path(path: Union[str, Path],
              calibration: Optional[Calibration] = None) -> DeckPlan:
    """Statically estimate one deck file."""
    path = Path(path)
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        return _unplannable(str(path), None, f"not a text deck: {exc}")
    return plan_text(text, str(path), calibration=calibration)


def collect_decks(paths: Sequence[Union[str, Path]],
                  recursive: bool = False) -> List[Path]:
    """Expand files/directories into a sorted ``*.deck`` work list."""
    decks: List[Path] = []
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            pattern = f"**/*{DECK_SUFFIX}" if recursive \
                else f"*{DECK_SUFFIX}"
            decks.extend(sorted(entry.glob(pattern)))
        elif entry.exists():
            decks.append(entry)
        else:
            raise PlanError(f"no such deck: {entry}")
    if not decks:
        raise PlanError(
            f"no {DECK_SUFFIX} files matched "
            f"{', '.join(str(p) for p in paths)}"
        )
    return decks


def plan_paths(paths: Sequence[Union[str, Path]],
               recursive: bool = False,
               calibration: Optional[Calibration] = None
               ) -> List[DeckPlan]:
    """Plan files and/or directories of ``*.deck`` files."""
    calibration = calibration or load_calibration()
    return [plan_path(deck, calibration=calibration)
            for deck in collect_decks(paths, recursive=recursive)]
