"""The static analysis driver -- our stand-in for the paper's Reference 1.

Usage mirrors how the 1970 pipeline ran: take the IDLZ mesh, attach
materials per element group, constrain, load, solve, recover stresses.

    analysis = StaticAnalysis(mesh, {0: TITANIUM}, AnalysisType.AXISYMMETRIC)
    analysis.constraints.fix_nodes(axis_nodes, direction=0)
    analysis.loads.add_edge_pressure_axisym(mesh, outer_edges, 1000.0)
    result = analysis.solve()
    field = result.stresses.nodal(StressComponent.EFFECTIVE)

Three solvers are available: the era-authentic banded Cholesky (default,
sensitive to the node numbering exactly as the paper describes), the
envelope (skyline) Cholesky, and a scipy sparse factorisation used for
ablation and cross-checking.  All three read the one
:class:`~repro.fem.bc.DofPartition` of the constraints.
:func:`assemble_static` and :func:`solve_static` are the one static
path: :class:`StaticAnalysis` and the analyze pipeline's assemble /
solve stages both call them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Tuple, Union

import numpy as np

from repro import obs
from repro.errors import SolverError
from repro.fem.assembly import assemble_banded, assemble_sparse
from repro.fem.banded import BandedSymmetricMatrix
from repro.fem.bc import Constraints, DofPartition
from repro.fem.loads import LoadCase
# AnalysisType lives in the scipy-free materials module so that the
# structure library can name it without loading scipy; callers that
# import it from here get the same class.
from repro.fem.materials import AnalysisType
from repro.fem.mesh import Mesh
from repro.fem.skyline import SkylineMatrix, assemble_skyline
from repro.fem.stress import StressField, recover_stresses
from repro.obs.health import solver_health

if TYPE_CHECKING:
    import scipy.sparse as sp

#: Global stiffness in one of the three solver storages.
StaticMatrix = Union[BandedSymmetricMatrix, SkylineMatrix, "sp.csr_matrix"]


@dataclass
class StaticResult:
    """Solution bundle: displacements plus recovered stresses."""

    mesh: Mesh
    displacements: np.ndarray
    stresses: StressField

    def displacement_of(self, node: int) -> Tuple[float, float]:
        return (
            float(self.displacements[2 * node]),
            float(self.displacements[2 * node + 1]),
        )

    def max_displacement(self) -> float:
        u = self.displacements[0::2]
        v = self.displacements[1::2]
        return float(np.sqrt(u * u + v * v).max())


class StaticAnalysis:
    """Linear static analysis on a triangular mesh."""

    def __init__(self, mesh: Mesh, materials: Mapping[int, Any],
                 analysis_type: AnalysisType = AnalysisType.PLANE_STRESS
                 ) -> None:
        mesh.validate()
        self.mesh = mesh
        self.materials = materials
        self.analysis_type = analysis_type
        self.constraints = Constraints(dofs_per_node=2)
        self.loads = LoadCase()

    def solve(self, solver: str = "banded") -> StaticResult:
        """Assemble, constrain, solve and recover stresses.

        ``solver`` is ``'banded'`` (band Cholesky), ``'skyline'``
        (envelope Cholesky) or ``'sparse'`` (scipy sparse LU); see
        :func:`assemble_static` and :func:`solve_static`.
        """
        kind = self.analysis_type.value
        matrix = assemble_static(self.mesh, self.materials, kind, solver)
        rhs = self.loads.vector(self.mesh.n_nodes, dofs_per_node=2)
        disp = solve_static(matrix, rhs, self.constraints, self.mesh.n_nodes)
        with obs.span("fem.stress_recovery"):
            stresses = recover_stresses(self.mesh, disp, self.materials,
                                        kind)
        return StaticResult(mesh=self.mesh, displacements=disp,
                            stresses=stresses)


def assemble_static(mesh: Mesh, materials: Mapping[int, Any],
                    analysis_type: str, solver: str) -> StaticMatrix:
    """The global stiffness in the storage ``solver`` factors."""
    if solver == "banded":
        return assemble_banded(mesh, materials, analysis_type)
    if solver == "skyline":
        return assemble_skyline(mesh, materials, analysis_type)
    if solver == "sparse":
        return assemble_sparse(mesh, materials, analysis_type)
    raise SolverError(f"unknown solver {solver!r}")


def solve_static(matrix: StaticMatrix, rhs: np.ndarray,
                 constraints: Constraints, n_nodes: int) -> np.ndarray:
    """Constrain and solve K u = f; returns the displacements.

    Consumes ``matrix`` and ``rhs``: banded and skyline storage are
    constrained in place by row/column elimination, without a copy, so
    peak memory stays at one stiffness.  Raises :class:`SolverError`
    when the model has no constraints at all -- a guaranteed rigid-body
    singularity the 1970 program would only discover as a zero pivot.
    """
    if len(constraints) == 0:
        raise SolverError(
            "the model has no displacement constraints; the stiffness "
            "matrix is singular (rigid-body motion)"
        )
    part = constraints.partition(n_nodes)
    if not isinstance(matrix, (BandedSymmetricMatrix, SkylineMatrix)):
        with obs.span("fem.solve.sparse", ndof=matrix.shape[0]):
            return _solve_sparse(matrix, rhs, part)
    solver = ("banded" if isinstance(matrix, BandedSymmetricMatrix)
              else "skyline")
    with obs.span(f"fem.solve.{solver}", ndof=matrix.n):
        matrix.constrain(part.fixed, part.values, rhs)
        disp = matrix.solve(rhs)
    if obs.health_enabled():
        # Residual of the constrained system the factorisation actually
        # saw: ||K u - f|| / ||f||.
        obs.health(f"fem.solve.{solver}", solver_health(
            residual_rel=_relative_residual(matrix.matvec(disp), rhs),
            ndof=matrix.n,
        ))
    return disp


def _solve_sparse(k: sp.csr_matrix, rhs: np.ndarray,
                  part: DofPartition) -> np.ndarray:
    """Solve the reduced sparse system ``K_ff u_f = f_f - K_fc u_c``."""
    import scipy.sparse.linalg as spla

    if part.free.size == 0:
        return part.expand(np.zeros(0))
    kff, lift = part.reduce(k)
    obs.gauge("fem.solver_fillin", int(kff.nnz))
    reduced_rhs = rhs[part.free] - lift
    try:
        solution = spla.spsolve(kff.tocsc(), reduced_rhs)
    except Exception as exc:  # scipy raises several flavours here
        raise SolverError(f"sparse solve failed: {exc}") from exc
    if np.any(~np.isfinite(solution)):
        raise SolverError("sparse solve produced non-finite displacements "
                          "(singular stiffness)")
    if obs.health_enabled():
        obs.health("fem.solve.sparse", solver_health(
            residual_rel=_relative_residual(kff @ solution, reduced_rhs),
            fillin=int(kff.nnz),
            ndof=int(part.free.size),
        ))
    return part.expand(solution)


def _relative_residual(ku: np.ndarray, f: np.ndarray) -> float:
    """||K u - f|| / ||f|| (2-norms; a zero load vector divides by 1)."""
    denom = float(np.linalg.norm(f))
    return float(np.linalg.norm(ku - f)) / (denom if denom > 0.0 else 1.0)
