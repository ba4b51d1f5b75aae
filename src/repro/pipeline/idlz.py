"""Program IDLZ as pipeline stages.

The seven boxes of the Appendix-E flow diagram, each a
:class:`~repro.pipeline.stage.Stage`:

    read -> number -> elements -> shape -> reform -> renumber -> output

``read`` runs once per deck (a deck is NSET problems); the remaining six
run per problem.  Fingerprints are sliced so a deck edit invalidates
exactly the first stage that reads the edited cards:

    =========  =====================================================
    stage      direct parameters in its fingerprint
    =========  =====================================================
    number     type-4 subdivision cards, the strict flag
    elements   (pure function of the grid -- upstream key only)
    shape      type-6 shaping cards, preferred interpolation pairs
    reform     the reform on/off option
    renumber   the NONUMB option
    output     title, NOPLOT/NOPNCH options, type-7 FORMAT cards
    =========  =====================================================

Editing only a deck's type-6 shaping cards therefore reuses the cached
``number`` and ``elements`` results and re-runs from ``shape``; editing
the title re-runs only ``output``.

:class:`repro.core.idlz.pipeline.Idealizer` and
:func:`repro.core.idlz.program.run_idlz` are thin facades over these
builders; use :func:`run_idealization` for the in-memory path and
:func:`idlz_problem_pipeline` when you need the stage records (cache
hits, wall times) as well.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Any, Dict, List, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

from repro import limits, obs
from repro.core.idlz.elements import create_elements
from repro.core.idlz.grid import LatticeGrid
from repro.core.idlz.reform import reform_elements
from repro.core.idlz.shaping import Shaper, ShapingSegment
from repro.core.idlz.subdivision import Subdivision
from repro.errors import IdealizationError
from repro.fem.bandwidth import mesh_bandwidth, reverse_cuthill_mckee
from repro.fem.mesh import Mesh
from repro.obs.health import mesh_health
from repro.pipeline.cache import StageCache, stable_digest
from repro.pipeline.context import Context
from repro.pipeline.runner import Pipeline, PipelineResult
from repro.pipeline.stage import stage

if TYPE_CHECKING:
    from repro.core.idlz.pipeline import Idealization


# ----------------------------------------------------------------------
# Stages
# ----------------------------------------------------------------------

@stage("read", requires=("reader",), provides=("problems",),
       transparent=True)
def read_stage(ctx: Context) -> Dict[str, Any]:
    """Parse the card tray into problems (Appendix-B card types 1-7)."""
    from repro.core.idlz.deck import read_idlz_deck

    return {"problems": read_idlz_deck(ctx["reader"])}


@stage("number", requires=("subdivisions", "strict"), provides=("grid",),
       fingerprint=lambda ctx: stable_digest(ctx["subdivisions"],
                                             ctx["strict"]),
       span_attrs=lambda ctx: {"subdivisions": len(ctx["subdivisions"])})
def number_stage(ctx: Context) -> Dict[str, Any]:
    """Number the lattice nodes left-to-right, bottom-to-top."""
    subdivisions: Sequence[Subdivision] = ctx["subdivisions"]
    for sub in subdivisions:
        # A built subdivision's only possible fault: a corner below the
        # lattice origin (IDZ106), which no numbering can address.
        faults = sub.faults()
        if faults:
            raise IdealizationError(f"subdivision {sub.index}: {faults[0]}")
    limits.check(limits.grid_excesses(subdivisions), ctx["strict"])
    grid = LatticeGrid(subdivisions)
    obs.count("idlz.nodes_numbered", grid.n_nodes)
    return {"grid": grid}


@stage("elements", requires=("grid", "strict"),
       provides=("triangles", "groups", "lattice_mesh"),
       fingerprint=lambda ctx: "-")
def elements_stage(ctx: Context) -> Dict[str, Any]:
    """Create the triangles and the integer-lattice mesh."""
    grid: LatticeGrid = ctx["grid"]
    triangles, groups = create_elements(grid)
    limits.check(limits.count_excesses("idlz", grid.n_nodes,
                                       len(triangles)), ctx["strict"])
    lattice_mesh = Mesh(
        nodes=grid.lattice_coordinates_array(),
        elements=np.array(triangles, dtype=int),
        element_groups=np.array(groups, dtype=int),
    )
    lattice_mesh.orient_ccw()
    obs.count("idlz.elements_created", len(triangles))
    if obs.health_enabled():
        obs.health("idlz.elements", mesh_health(lattice_mesh))
    return {"triangles": triangles, "groups": groups,
            "lattice_mesh": lattice_mesh}


@stage("shape",
       requires=("grid", "subdivisions", "segments", "prefer_pairs"),
       provides=("positions",),
       fingerprint=lambda ctx: stable_digest(ctx["segments"],
                                             ctx["prefer_pairs"]),
       span_attrs=lambda ctx: {"segments": len(ctx["segments"])})
def shape_stage(ctx: Context) -> Dict[str, Any]:
    """Apply the type-6 boundary cards and interpolate the interior."""
    grid: LatticeGrid = ctx["grid"]
    subdivisions: Sequence[Subdivision] = ctx["subdivisions"]
    segments: Sequence[ShapingSegment] = ctx["segments"]
    prefer_pairs: Dict[int, str] = ctx["prefer_pairs"]
    shaper = Shaper(grid)
    by_subdivision: Dict[int, List[ShapingSegment]] = {}
    for seg in segments:
        by_subdivision.setdefault(seg.subdivision, []).append(seg)
    known = {sub.index for sub in subdivisions}
    orphans = set(by_subdivision) - known
    if orphans:
        raise IdealizationError(
            f"shaping cards reference unknown subdivision(s) "
            f"{sorted(orphans)}"
        )
    for sub in subdivisions:
        for seg in by_subdivision.get(sub.index, []):
            shaper.apply_segment(seg)
        shaper.shape_subdivision(
            sub, prefer_pair=prefer_pairs.get(sub.index)
        )
    return {"positions": shaper.positions}


@stage("reform", requires=("positions", "triangles", "groups", "reform"),
       provides=("reformed_mesh", "prereform_mesh", "swaps"),
       fingerprint=lambda ctx: stable_digest(ctx["reform"]),
       span_attrs=lambda ctx: {"enabled": ctx["reform"]})
def reform_stage(ctx: Context) -> Dict[str, Any]:
    """Swap diagonals where the shaped geometry wants the other split."""
    mesh = Mesh(
        nodes=ctx["positions"].copy(),
        elements=np.array(ctx["triangles"], dtype=int),
        element_groups=np.array(ctx["groups"], dtype=int),
    )
    mesh.orient_ccw()
    mesh.validate()
    prereform_mesh = mesh.copy()
    if obs.health_enabled():
        # The shaped-but-unreformed mesh: the reformation pass's
        # "before" picture.
        obs.health("idlz.shape", mesh_health(prereform_mesh))
    swaps = reform_elements(mesh) if ctx["reform"] else 0
    mesh.compute_boundary_flags()
    if obs.health_enabled():
        obs.health("idlz.reform", mesh_health(mesh, swaps=swaps))
    return {"reformed_mesh": mesh, "prereform_mesh": prereform_mesh,
            "swaps": swaps}


@stage("renumber", requires=("reformed_mesh", "swaps", "renumber"),
       provides=("mesh", "permutation", "bandwidth_before",
                 "bandwidth_after"),
       fingerprint=lambda ctx: stable_digest(ctx["renumber"]),
       span_attrs=lambda ctx: {"enabled": ctx["renumber"]})
def renumber_stage(ctx: Context) -> Dict[str, Any]:
    """Renumber for bandwidth (NONUMB), never accepting a worse result."""
    mesh: Mesh = ctx["reformed_mesh"]
    bandwidth_before = mesh_bandwidth(mesh)
    permutation: Optional[List[int]] = None
    bandwidth_after = bandwidth_before
    if ctx["renumber"]:
        permutation = reverse_cuthill_mckee(mesh)
        candidate = mesh.renumbered(permutation)
        candidate_bandwidth = mesh_bandwidth(candidate)
        if candidate_bandwidth > bandwidth_before:
            # RCM is a heuristic; never accept a worse numbering.  The
            # pre-renumber mesh is kept as-is -- its reformation already
            # ran once and its swap count is the one reported.
            permutation = None
        else:
            mesh = candidate
            bandwidth_after = candidate_bandwidth
    obs.count("idlz.diagonal_swaps", ctx["swaps"])
    obs.gauge("idlz.bandwidth_before", bandwidth_before)
    obs.gauge("idlz.bandwidth_after", bandwidth_after)
    if obs.health_enabled():
        obs.health("idlz.renumber", mesh_health(
            mesh,
            bandwidth_before=bandwidth_before,
            bandwidth_after=bandwidth_after,
        ))
    return {"mesh": mesh, "permutation": permutation,
            "bandwidth_before": bandwidth_before,
            "bandwidth_after": bandwidth_after}


@stage("output",
       requires=("mesh", "grid", "lattice_mesh", "prereform_mesh",
                 "swaps", "permutation", "bandwidth_before",
                 "bandwidth_after", "title", "noplot", "nopnch",
                 "nodal_format", "element_format"),
       provides=("idealization", "listing", "frames", "punched"),
       fingerprint=lambda ctx: stable_digest(
           ctx["title"], ctx["noplot"], ctx["nopnch"],
           ctx["nodal_format"], ctx["element_format"]),
       span_attrs=lambda ctx: {"noplot": ctx["noplot"],
                               "nopnch": ctx["nopnch"]})
def output_stage(ctx: Context) -> Dict[str, Any]:
    """Produce the listing, the NOPLOT frames and the NOPNCH cards."""
    # Imported here so the lint analyzer's number -> elements slice
    # never loads the plotter.
    from repro.core.idlz.output import plot_all, print_listing, punch_cards

    ideal = assemble_idealization(ctx)
    listing = print_listing(ideal)
    frames = plot_all(ideal) if ctx["noplot"] else []
    punched = None
    if ctx["nopnch"]:
        punched = punch_cards(
            ideal,
            nodal_format=ctx["nodal_format"],
            element_format=ctx["element_format"],
        )
        obs.count("idlz.cards_punched", len(punched))
    return {"idealization": ideal, "listing": listing,
            "frames": frames, "punched": punched}


def assemble_idealization(ctx: Context) -> "Idealization":
    """Fold the compute stages' context values into an Idealization."""
    from repro.core.idlz.pipeline import Idealization

    return Idealization(
        title=ctx["title"],
        grid=ctx["grid"],
        mesh=ctx["mesh"],
        lattice_mesh=ctx["lattice_mesh"],
        prereform_mesh=ctx["prereform_mesh"],
        swaps=ctx["swaps"],
        renumbered=ctx["permutation"] is not None,
        permutation=ctx["permutation"],
        bandwidth_before=ctx["bandwidth_before"],
        bandwidth_after=ctx["bandwidth_after"],
    )


# ----------------------------------------------------------------------
# Pipeline builders
# ----------------------------------------------------------------------

#: Seed keys of the per-problem pipelines.
PROBLEM_INPUTS: Tuple[str, ...] = (
    "subdivisions", "segments", "strict", "prefer_pairs",
    "reform", "renumber",
)

_OUTPUT_INPUTS: Tuple[str, ...] = (
    "title", "noplot", "nopnch", "nodal_format", "element_format",
)


def read_pipeline() -> Pipeline:
    """The per-deck stage: parse the tray into NSET problems."""
    return Pipeline("idlz", [read_stage], inputs=("reader",))


def idealization_pipeline() -> Pipeline:
    """number -> elements -> shape -> reform -> renumber.

    The in-memory compute flow of :class:`Idealizer` (no card output);
    what the benchmarks execute.
    """
    return Pipeline(
        "idlz",
        [number_stage, elements_stage, shape_stage, reform_stage,
         renumber_stage],
        inputs=PROBLEM_INPUTS,
    )


def idlz_problem_pipeline() -> Pipeline:
    """The six per-problem stages, card products included."""
    return Pipeline(
        "idlz",
        [number_stage, elements_stage, shape_stage, reform_stage,
         renumber_stage, output_stage],
        inputs=PROBLEM_INPUTS + _OUTPUT_INPUTS,
    )


class LatticeCounts(NamedTuple):
    """What a run's number and elements stages would produce."""

    n_nodes: int
    n_elements: int
    #: Worst node-index spread of any triangle before reform and
    #: renumbering: the initial numbering's node half-bandwidth.
    half_bandwidth: int
    #: (k, l) of every node, in the initial numbering.
    points: np.ndarray


def lattice_counts(subdivisions: Sequence[Subdivision],
                   name: str) -> LatticeCounts:
    """Run the number -> elements slice of the program and count what
    it made: the counts ``repro lint`` and ``repro plan`` report.

    No shaping, reform or output runs; raises what those two stages
    raise (``IdealizationError``).  ``name`` prefixes the stage spans:
    the analyzers pass ``"lint"`` or ``"plan"`` so their probe runs show
    up as ``lint.number`` or ``plan.elements``, not as program runs.
    """
    result = Pipeline(
        name, [number_stage, elements_stage],
        inputs=("subdivisions", "strict"),
    ).run({"subdivisions": list(subdivisions), "strict": False})
    triangles = result["triangles"]
    spread = triangles.max(axis=1) - triangles.min(axis=1)
    return LatticeCounts(result["grid"].n_nodes, len(triangles),
                         int(spread.max()), result["grid"].points)


def run_idealization(title: str,
                     subdivisions: Sequence[Subdivision],
                     segments: Sequence[ShapingSegment],
                     renumber: bool = True,
                     reform: bool = True,
                     strict: bool = False,
                     prefer_pairs: Optional[Dict[int, str]] = None,
                     cache: Optional[StageCache] = None,
                     ) -> Tuple["Idealization", PipelineResult]:
    """Execute the compute stages and assemble the Idealization."""
    result = idealization_pipeline().run({
        "subdivisions": list(subdivisions),
        "segments": list(segments),
        "strict": strict,
        "prefer_pairs": dict(prefer_pairs or {}),
        "reform": reform,
        "renumber": renumber,
    }, cache=cache)
    ctx = result.values.derive({"title": title})
    return assemble_idealization(ctx), result
