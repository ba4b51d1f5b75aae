"""The analyze flow as pipeline stages: idealize, solve, contour.

The IDLZ compute stages (number -> elements -> shape -> reform ->
renumber) are reused verbatim from :mod:`repro.pipeline.idlz` -- same
:class:`~repro.pipeline.stage.Stage` objects, new ``analyze.*`` span
names and a separate cache chain -- and seven FEM/OSPL stages continue
where they stop::

    number -> elements -> shape -> reform -> renumber
        -> materials -> assemble -> constrain -> loads
        -> solve -> recover -> isograms

Fingerprints are sliced the same way IDLZ's are, so a deck edit
invalidates exactly the first stage that reads the edited cards:

    =========  ====================================================
    stage      direct parameters in its fingerprint
    =========  ====================================================
    materials  analysis family, MAT / TMAT cards
    assemble   analysis family, SOLVER card
    constrain  FIX / TEMP cards
    loads      PRESSURE / FORCE / FLUX cards
    solve      MODES card
    recover    PLOT cards
    isograms   the deck title
    =========  ====================================================

Editing only a load card therefore reuses the cached idealization,
materials, stiffness and constraints and re-runs from ``loads``;
editing a PLOT card re-runs only recovery and plotting.

Boundary conditions and loads address *geometry*: a FIX or PRESSURE
card names a coordinate line (``X 0.0``), and the stage resolves it to
nodes or boundary edges of the *final, renumbered* mesh -- node numbers
never appear in the deck, exactly the paper's division of labour.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from repro import obs
from repro.analyze.deck import AnalyzeSpec, LoadCardSpec, STRESS_PLOTS
from repro.core.ospl.plot import ContourPlot, conplt
from repro.errors import AnalyzeError
from repro.fem.bc import Constraints
from repro.fem.dynamics import mass_density, modal_analysis
from repro.fem.loads import LoadCase, edges_on_predicate
from repro.fem.materials import IsotropicElastic, ThermalMaterial
from repro.fem.mesh import Mesh
from repro.fem.results import NodalField
from repro.fem.solve import assemble_static, solve_static
from repro.fem.stress import StressComponent, recover_stresses
from repro.fem.thermal import ThermalAnalysis
from repro.pipeline.cache import stable_digest
from repro.pipeline.context import Context
from repro.pipeline.idlz import (
    PROBLEM_INPUTS,
    elements_stage,
    number_stage,
    reform_stage,
    renumber_stage,
    shape_stage,
)
from repro.pipeline.runner import Pipeline
from repro.pipeline.stage import stage

#: Seed keys of the per-problem analyze pipeline.
ANALYZE_INPUTS: Tuple[str, ...] = PROBLEM_INPUTS + ("spec", "title")


# ----------------------------------------------------------------------
# Geometric selectors
# ----------------------------------------------------------------------

def selector_tolerance(mesh: Mesh) -> float:
    """Coordinate tolerance for line selectors: 1e-6 of the extent.

    Shaped boundaries land nodes on nominal coordinates only to within
    interpolation round-off, so an exact match would silently select
    nothing on a perfectly good deck.
    """
    box = mesh.bounding_box()
    extent = max(box.xmax - box.xmin, box.ymax - box.ymin)
    return 1e-6 * max(extent, 1.0)


def select_nodes(mesh: Mesh, axis: str, coord: float) -> List[int]:
    """Nodes on the line ``axis = coord``; empty selections raise."""
    tol = selector_tolerance(mesh)
    if axis == "x":
        nodes = mesh.nodes_near(x=coord, tol=tol)
    else:
        nodes = mesh.nodes_near(y=coord, tol=tol)
    if not nodes:
        raise AnalyzeError(
            f"selector {axis.upper()} = {coord:g} matches no nodes "
            f"(mesh bounding box {mesh.bounding_box()})"
        )
    return nodes


def select_edges(mesh: Mesh, axis: str, coord: float
                 ) -> List[Tuple[int, int]]:
    """Boundary edges both of whose endpoints lie on ``axis = coord``."""
    tol = selector_tolerance(mesh)
    index = 0 if axis == "x" else 1
    edges = edges_on_predicate(
        mesh, lambda p: abs((p.x, p.y)[index] - coord) <= tol
    )
    if not edges:
        raise AnalyzeError(
            f"selector {axis.upper()} = {coord:g} matches no boundary "
            f"edges (mesh bounding box {mesh.bounding_box()})"
        )
    return edges


# ----------------------------------------------------------------------
# FEM stages
# ----------------------------------------------------------------------

@stage("materials", requires=("spec", "subdivisions"),
       provides=("materials", "densities"),
       fingerprint=lambda ctx: stable_digest(
           ctx["spec"].analysis, ctx["spec"].materials,
           ctx["spec"].thermal_materials),
       span_attrs=lambda ctx: {"analysis": ctx["spec"].analysis})
def materials_stage(ctx: Context) -> Dict[str, Any]:
    """Attach MAT / TMAT cards to the mesh element groups.

    Card groups are *subdivision indices* (the type-4 card's first
    field); mesh element groups are their zero-based positions, so the
    stage translates through the deck's subdivision order.
    """
    spec: AnalyzeSpec = ctx["spec"]
    subdivisions = ctx["subdivisions"]
    group_of = {sub.index: gi for gi, sub in enumerate(subdivisions)}
    materials: Dict[int, object] = {}
    densities: Dict[int, float] = {}
    if spec.analysis == "thermal":
        for card in spec.thermal_materials:
            materials[_mesh_group(card.group, group_of, "TMAT")] = (
                ThermalMaterial(conductivity=card.conductivity,
                                density=card.density,
                                specific_heat=card.specific_heat)
            )
    else:
        for card in spec.materials:
            gi = _mesh_group(card.group, group_of, "MAT")
            materials[gi] = IsotropicElastic(
                youngs=card.youngs, poisson=card.poisson,
                thickness=card.thickness,
            )
            if card.density > 0.0:
                densities[gi] = mass_density(card.density)
    missing = sorted(
        sub.index for gi, sub in enumerate(subdivisions)
        if gi not in materials
    )
    if missing:
        kind = "TMAT" if spec.analysis == "thermal" else "MAT"
        raise AnalyzeError(
            f"no {kind} card for subdivision(s) "
            f"{', '.join(str(i) for i in missing)}"
        )
    if spec.analysis == "modal":
        weightless = sorted(
            sub.index for gi, sub in enumerate(subdivisions)
            if gi not in densities
        )
        if weightless:
            raise AnalyzeError(
                "modal analysis needs a weight density on every MAT "
                "card; subdivision(s) "
                f"{', '.join(str(i) for i in weightless)} have none"
            )
    return {"materials": materials, "densities": densities}


def _mesh_group(card_group: int, group_of: Dict[int, int],
                kind: str) -> int:
    if card_group not in group_of:
        raise AnalyzeError(
            f"{kind} card references subdivision {card_group}, which "
            f"the deck does not define (known: "
            f"{', '.join(str(i) for i in sorted(group_of))})"
        )
    return group_of[card_group]


@stage("assemble", requires=("mesh", "materials", "spec"),
       provides=("system",),
       fingerprint=lambda ctx: stable_digest(ctx["spec"].analysis,
                                             ctx["spec"].solver),
       span_attrs=lambda ctx: {"analysis": ctx["spec"].analysis,
                               "solver": ctx["spec"].solver})
def assemble_stage(ctx: Context) -> Dict[str, Any]:
    """Assemble the global system the chosen solver wants.

    Static analyses produce the banded / skyline / sparse stiffness;
    thermal analyses the conductivity + capacitance pair (inside a
    :class:`~repro.fem.thermal.ThermalAnalysis`); modal analyses defer
    -- their eigensolver assembles stiffness and mass together.
    """
    spec: AnalyzeSpec = ctx["spec"]
    mesh: Mesh = ctx["mesh"]
    materials = ctx["materials"]
    system: Dict[str, Any]
    if spec.analysis == "thermal":
        system = {"kind": "thermal",
                  "analysis": ThermalAnalysis(mesh, materials)}
    elif spec.analysis == "modal":
        system = {"kind": "modal"}
    else:
        matrix = assemble_static(mesh, materials, spec.analysis,
                                 spec.solver)
        system = {"kind": "static", "matrix": matrix}
    obs.gauge("analyze.ndof", 2 * mesh.n_nodes)
    return {"system": system}


@stage("constrain", requires=("mesh", "spec"),
       provides=("constraints",),
       fingerprint=lambda ctx: stable_digest(ctx["spec"].supports,
                                             ctx["spec"].temps),
       span_attrs=lambda ctx: {"supports": len(ctx["spec"].supports),
                               "temps": len(ctx["spec"].temps)})
def constrain_stage(ctx: Context) -> Dict[str, Any]:
    """Resolve FIX / TEMP cards against the final mesh geometry.

    A node two cards prescribe differently (two TEMP lines through one
    corner) is a :class:`~repro.errors.BoundaryConditionError`.
    """
    spec: AnalyzeSpec = ctx["spec"]
    mesh: Mesh = ctx["mesh"]
    if spec.analysis == "thermal":
        constraints = Constraints(dofs_per_node=1)
        for card in spec.temps:
            constraints.fix_nodes(select_nodes(mesh, card.axis, card.coord),
                                  0, card.value)
        return {"constraints": constraints}
    constraints = Constraints(dofs_per_node=2)
    for card in spec.supports:
        nodes = select_nodes(mesh, card.axis, card.coord)
        if "u" in card.dofs:
            constraints.fix_nodes(nodes, direction=0)
        if "v" in card.dofs:
            constraints.fix_nodes(nodes, direction=1)
    return {"constraints": constraints}


@stage("loads", requires=("mesh", "spec", "materials"),
       provides=("load_case", "flux_loads"),
       fingerprint=lambda ctx: stable_digest(ctx["spec"].loads),
       span_attrs=lambda ctx: {"loads": len(ctx["spec"].loads)})
def loads_stage(ctx: Context) -> Dict[str, Any]:
    """Resolve PRESSURE / FORCE / FLUX cards into a load vector.

    A PRESSURE card loads the boundary edges on its coordinate line
    (plane edges use the owning element's material thickness); a FORCE
    card splits its total (FX, FY) evenly over the line's nodes; FLUX
    cards collect thermal surface fluxes for the solve stage.
    """
    spec: AnalyzeSpec = ctx["spec"]
    mesh: Mesh = ctx["mesh"]
    load_case = LoadCase()
    flux_loads: List[Tuple[List[Tuple[int, int]], float]] = []
    # The owner of a boundary edge is the one element holding its row.
    table = mesh.edge_table()
    lone = table.count == 1
    owners = dict(zip(zip(table.a[lone].tolist(), table.b[lone].tolist()),
                      np.asarray(mesh.element_groups)[table.e1[lone]]
                      .tolist()))
    for card in spec.loads:
        if card.kind == "flux":
            if spec.analysis != "thermal":
                raise AnalyzeError(
                    "FLUX cards only apply to THERMAL analyses"
                )
            flux_loads.append(
                (select_edges(mesh, card.axis, card.coord),
                 card.values[0])
            )
        elif card.kind == "pressure":
            _apply_pressure(load_case, mesh, spec, card, owners,
                            ctx["materials"])
        else:
            nodes = select_nodes(mesh, card.axis, card.coord)
            fx, fy = card.values
            for node in nodes:
                load_case.add_force(node, 0, fx / len(nodes))
                load_case.add_force(node, 1, fy / len(nodes))
    return {"load_case": load_case, "flux_loads": flux_loads}


def _apply_pressure(load_case: LoadCase, mesh: Mesh, spec: AnalyzeSpec,
                    card: LoadCardSpec,
                    owners: Dict[Tuple[int, int], int],
                    materials: Dict[int, object]) -> None:
    if spec.analysis == "thermal":
        raise AnalyzeError("PRESSURE cards do not apply to THERMAL "
                           "analyses (use FLUX)")
    edges = select_edges(mesh, card.axis, card.coord)
    pressure = card.values[0]
    if spec.analysis == "axisymmetric":
        load_case.add_edge_pressure_axisym(mesh, edges, pressure)
        return
    for edge in edges:
        material = materials[owners[edge]]
        thickness = (getattr(material, "thickness", 1.0)
                     if spec.analysis == "plane_stress" else 1.0)
        load_case.add_edge_pressure_plane(mesh, [edge], pressure,
                                          thickness=thickness)


@stage("solve",
       requires=("mesh", "system", "materials", "densities",
                 "constraints", "load_case",
                 "flux_loads", "spec"),
       provides=("solution",),
       fingerprint=lambda ctx: stable_digest(ctx["spec"].modes),
       span_attrs=lambda ctx: {"analysis": ctx["spec"].analysis,
                               "solver": ctx["spec"].solver})
def solve_stage(ctx: Context) -> Dict[str, Any]:
    """Apply the resolved conditions and solve the system.

    Static analyses go through :func:`repro.fem.solve.solve_static`, the
    same driver :class:`~repro.fem.solve.StaticAnalysis` uses.
    """
    spec: AnalyzeSpec = ctx["spec"]
    mesh: Mesh = ctx["mesh"]
    system = ctx["system"]
    if spec.analysis == "thermal":
        analysis: ThermalAnalysis = system["analysis"]
        analysis.constraints = ctx["constraints"]
        for edges, flux in ctx["flux_loads"]:
            analysis.add_constant_flux(edges, flux)
        with obs.span("fem.solve.thermal", ndof=mesh.n_nodes):
            field = analysis.solve_steady()
        return {"solution": {"kind": "thermal", "temperature": field}}
    constraints: Constraints = ctx["constraints"]
    if spec.analysis == "modal":
        with obs.span("fem.solve.modal", ndof=2 * mesh.n_nodes):
            modal = modal_analysis(
                mesh, ctx["materials"], ctx["densities"], constraints,
                analysis_type="plane_stress", n_modes=spec.modes,
            )
        return {"solution": {"kind": "modal", "modal": modal}}
    rhs = ctx["load_case"].vector(mesh.n_nodes, dofs_per_node=2)
    disp = solve_static(system["matrix"], rhs, constraints, mesh.n_nodes)
    return {"solution": {"kind": "static", "displacements": disp}}


@stage("recover", requires=("mesh", "materials", "solution", "spec"),
       provides=("fields", "result_summary"),
       fingerprint=lambda ctx: stable_digest(ctx["spec"].plots),
       span_attrs=lambda ctx: {"plots": len(ctx["spec"].plots)})
def recover_stage(ctx: Context) -> Dict[str, Any]:
    """Recover the nodal fields the PLOT cards (or defaults) request."""
    spec: AnalyzeSpec = ctx["spec"]
    mesh: Mesh = ctx["mesh"]
    solution = ctx["solution"]
    fields: Dict[str, NodalField] = {}
    summary: Dict[str, Any] = {}
    if solution["kind"] == "thermal":
        temperature: NodalField = solution["temperature"]
        for name in spec.plots or ("temperature",):
            if name != "temperature":
                raise AnalyzeError(
                    f"THERMAL analyses can only PLOT TEMPERATURE, "
                    f"not {name.upper()}"
                )
            fields[name] = temperature
        summary["max_temperature"] = float(np.max(temperature.values))
        summary["min_temperature"] = float(np.min(temperature.values))
    elif solution["kind"] == "modal":
        modal = solution["modal"]
        n_modes = modal.modes.shape[1]
        for name in spec.plots or ("mode1",):
            index = _mode_index(name, n_modes)
            fields[name] = modal.mode_magnitude(index)
        summary["frequencies_hz"] = [
            round(float(f), 4) for f in modal.frequencies_hz
        ]
    else:
        disp = solution["displacements"]
        with obs.span("fem.stress_recovery"):
            stresses = recover_stresses(mesh, disp, ctx["materials"],
                                        spec.analysis)
        for name in spec.plots or ("effective",):
            fields[name] = _static_field(name, spec, disp, stresses)
        u, v = disp[0::2], disp[1::2]
        summary["max_displacement"] = float(np.sqrt(u * u + v * v).max())
        effective = stresses.nodal(StressComponent.EFFECTIVE)
        summary["max_effective_stress"] = float(np.max(effective.values))
    return {"fields": fields, "result_summary": summary}


def _mode_index(name: str, n_modes: int) -> int:
    if name.startswith("mode"):
        try:
            index = int(name[4:]) - 1
        except ValueError:
            index = -1
        if 0 <= index < n_modes:
            return index
    raise AnalyzeError(
        f"MODAL analyses PLOT MODE1 .. MODE{n_modes}, "
        f"not {name.upper()}"
    )


def _static_field(name: str, spec: AnalyzeSpec, disp: np.ndarray,
                  stresses: Any) -> NodalField:
    if name == "displacement":
        u, v = disp[0::2], disp[1::2]
        return NodalField("displacement", np.sqrt(u * u + v * v))
    allowed = tuple(
        p for p in STRESS_PLOTS
        if p != "circumferential" or spec.analysis == "axisymmetric"
    )
    if name not in allowed:
        raise AnalyzeError(
            f"unknown PLOT field {name.upper()} for "
            f"{spec.analysis} (known: "
            f"{', '.join(p.upper() for p in allowed + ('displacement',))})"
        )
    return stresses.nodal(StressComponent(name))


@stage("isograms", requires=("mesh", "fields", "title", "strict"),
       provides=("plots", "frames"),
       fingerprint=lambda ctx: stable_digest(ctx["title"]),
       span_attrs=lambda ctx: {"fields": len(ctx["fields"])})
def isograms_stage(ctx: Context) -> Dict[str, Any]:
    """Contour every recovered field through OSPL's CONPLT entry."""
    mesh: Mesh = ctx["mesh"]
    plots: Dict[str, ContourPlot] = {}
    for name, nodal in ctx["fields"].items():
        plots[name] = conplt(
            mesh, nodal, title=ctx["title"],
            subtitle=f"{name.upper()} ISOGRAM",
            strict=ctx["strict"],
        )
    obs.count("analyze.isograms", len(plots))
    return {"plots": plots,
            "frames": [plot.frame for plot in plots.values()]}


# ----------------------------------------------------------------------
# Pipeline builder
# ----------------------------------------------------------------------

def analyze_problem_pipeline() -> Pipeline:
    """The full twelve-stage flow, idealization through isograms."""
    return Pipeline(
        "analyze",
        [number_stage, elements_stage, shape_stage, reform_stage,
         renumber_stage, materials_stage, assemble_stage,
         constrain_stage, loads_stage, solve_stage, recover_stage,
         isograms_stage],
        inputs=ANALYZE_INPUTS,
    )
