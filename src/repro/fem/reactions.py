"""Reaction recovery and global equilibrium checks.

A 1970 analyst's first sanity check on a new idealization: do the
support reactions balance the applied loads?  With the solved
displacement vector the reactions are

    R = K u - f_applied

evaluated with the *unconstrained* stiffness; R is (numerically) zero at
every free dof and carries the support force at each constrained one.
:func:`equilibrium_report` folds the axisymmetric subtlety in: only the
axial resultant is meaningful for a ring model (radial nodal forces of a
ring sum over the circumference, not the section).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import MeshError
from repro.fem.assembly import assemble_sparse
from repro.fem.bc import Constraints
from repro.fem.loads import LoadCase
from repro.fem.mesh import Mesh
from repro.fem.solve import AnalysisType, StaticAnalysis, StaticResult


@dataclass
class ReactionReport:
    """Support reactions plus residual diagnostics."""

    reactions: np.ndarray          # full-length vector, zero at free dofs
    constrained_dofs: List[int]
    free_residual: float           # max |K u - f| over the free dofs
    applied_resultant: Tuple[float, float]
    reaction_resultant: Tuple[float, float]

    def reaction_at(self, node: int) -> Tuple[float, float]:
        return (float(self.reactions[2 * node]),
                float(self.reactions[2 * node + 1]))

    def balances(self, tol: float = 1e-6) -> bool:
        """Whether reactions cancel the applied loads (per resultant).

        ``tol`` is relative to the applied-load magnitude.
        """
        scale = max(abs(self.applied_resultant[0]),
                    abs(self.applied_resultant[1]), 1.0)
        return (
            abs(self.applied_resultant[0] + self.reaction_resultant[0])
            <= tol * scale
            and abs(self.applied_resultant[1] + self.reaction_resultant[1])
            <= tol * scale
        )


def compute_reactions(mesh: Mesh, materials: Dict[int, object],
                      analysis_type: AnalysisType,
                      constraints: Constraints,
                      loads: LoadCase,
                      displacements: np.ndarray) -> ReactionReport:
    """Recover support reactions from a solved displacement field."""
    ndof = 2 * mesh.n_nodes
    disp = np.asarray(displacements, dtype=float)
    if disp.shape != (ndof,):
        raise MeshError(f"displacement vector must have length {ndof}")
    k = assemble_sparse(mesh, materials, analysis_type.value)
    f_applied = loads.vector(mesh.n_nodes)
    residual = k @ disp - f_applied
    part = constraints.partition(mesh.n_nodes)
    reactions = np.zeros(ndof)
    reactions[part.fixed] = residual[part.fixed]
    free_residual = (float(np.abs(residual[part.free]).max())
                     if part.free.size else 0.0)
    return ReactionReport(
        reactions=reactions,
        constrained_dofs=part.fixed.tolist(),
        free_residual=free_residual,
        applied_resultant=(float(f_applied[0::2].sum()),
                           float(f_applied[1::2].sum())),
        reaction_resultant=(float(reactions[0::2].sum()),
                            float(reactions[1::2].sum())),
    )


def reactions_for(analysis: StaticAnalysis,
                  result: StaticResult) -> ReactionReport:
    """Convenience wrapper taking the analysis that produced ``result``."""
    return compute_reactions(
        analysis.mesh, analysis.materials, analysis.analysis_type,
        analysis.constraints, analysis.loads, result.displacements,
    )
