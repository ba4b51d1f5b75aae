"""Mass matrices and free-vibration (modal) analysis.

IDLZ and OSPL "work equally as well with any plane stress or plane
strain analysis program" -- including the dynamic analyses NSRDC ran on
the same idealizations.  This module supplies the missing piece: element
mass matrices (consistent and lumped) and a small-scale eigenvalue
solver for natural frequencies and mode shapes.  A mode shape is just
another nodal field, so OSPL contours it like a stress.

Units follow the rest of the library: with E in psi, lengths in inches
and density in lb/in^3, densities must be divided by g = 386.09 in/s^2
to become mass densities (lbf s^2/in^4); the catalogue helper
:func:`mass_density` does that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping, Tuple

import numpy as np

from repro.errors import MeshError, SolverError
from repro.fem.assembly import (
    _material_for,
    assemble_sparse,
    element_blocks,
    scatter,
)
from repro.fem.bc import Constraints
from repro.fem.elements.cst import _geometry
from repro.fem.mesh import Mesh
from repro.fem.results import NodalField

#: Standard gravity, in/s^2 (for lbf-in-s unit bookkeeping).
GRAVITY_IN_S2 = 386.09


def mass_density(weight_density: float) -> float:
    """Convert a weight density (lb/in^3) to mass density."""
    return weight_density / GRAVITY_IN_S2


def cst_mass_matrix(xy: np.ndarray, density: float,
                    thickness: float = 1.0,
                    lumped: bool = False) -> np.ndarray:
    """6 x 6 CST mass matrix (consistent by default).

    Consistent form: ``rho t A / 12 * (1 + I)`` on each displacement
    component; lumped form puts ``rho t A / 3`` at each node.
    """
    xy = np.asarray(xy, dtype=float)
    _, _, area = _geometry(xy)
    if area <= 0.0:
        raise MeshError(f"mass element has non-positive area {area:g}")
    total = density * thickness * area
    if lumped:
        return (total / 3.0) * np.eye(6)
    m = np.zeros((6, 6))
    for a in range(3):
        for b in range(3):
            factor = 2.0 if a == b else 1.0
            m[2 * a, 2 * b] = factor
            m[2 * a + 1, 2 * b + 1] = factor
    return (total / 12.0) * m


def assemble_mass(mesh: Mesh, materials: Mapping[int, Any],
                  densities: Mapping[int, float],
                  lumped: bool = False) -> np.ndarray:
    """Dense global mass matrix (modal problems here are small)."""
    # Pair each group's material with its density, so both lookups
    # raise the same typed error for a group that lacks one.
    per_group = {
        group: (_material_for(materials, group),
                _material_for(densities, group, "density"))
        for group in map(int, np.unique(mesh.element_groups))
    }

    def block(xy: np.ndarray, pair: Tuple[Any, float]) -> np.ndarray:
        material, density = pair
        return cst_mass_matrix(xy, density, lumped=lumped,
                               thickness=getattr(material, "thickness", 1.0))

    rows, cols, vals = scatter(mesh.elements,
                               element_blocks(mesh, per_group, block))
    ndof = 2 * mesh.n_nodes
    m = np.zeros((ndof, ndof))
    np.add.at(m, (rows, cols), vals)
    return m


@dataclass
class ModalResult:
    """Natural frequencies and mass-normalised mode shapes."""

    frequencies_hz: np.ndarray      # ascending
    modes: np.ndarray               # (ndof, n_modes)
    mesh: Mesh

    def mode_shape(self, i: int) -> np.ndarray:
        """Full displacement vector of mode ``i`` (0-based)."""
        return self.modes[:, i]

    def mode_magnitude(self, i: int) -> NodalField:
        """|u| per node -- the field OSPL contours for a mode plot."""
        phi = self.modes[:, i]
        mag = np.sqrt(phi[0::2] ** 2 + phi[1::2] ** 2)
        return NodalField(f"mode {i + 1} "
                          f"({self.frequencies_hz[i]:.1f} Hz)", mag)


def modal_analysis(mesh: Mesh, materials: Mapping[int, Any],
                   densities: Mapping[int, float],
                   constraints: Constraints,
                   analysis_type: str = "plane_stress",
                   n_modes: int = 6,
                   lumped_mass: bool = False) -> ModalResult:
    """Solve K phi = omega^2 M phi on the constrained dofs.

    Small dense symmetric eigensolve -- appropriate for 1970-scale
    meshes (Table 2 caps the model at 1000 dofs).
    """
    import scipy.linalg

    if len(constraints) == 0:
        raise SolverError(
            "modal analysis needs constraints (free-free modes are all "
            "rigid-body at zero frequency)"
        )
    ndof = 2 * mesh.n_nodes
    k = assemble_sparse(mesh, materials, analysis_type).toarray()
    m = assemble_mass(mesh, materials, densities, lumped=lumped_mass)
    free = constraints.partition(mesh.n_nodes).free
    if free.size == 0:
        raise SolverError("every dof is constrained; nothing vibrates")
    kff = k[np.ix_(free, free)]
    mff = m[np.ix_(free, free)]
    try:
        eigvals, eigvecs = scipy.linalg.eigh(kff, mff)
    except scipy.linalg.LinAlgError as exc:
        raise SolverError(f"modal eigensolve failed: {exc}") from exc
    eigvals = np.clip(eigvals, 0.0, None)
    n_modes = min(n_modes, free.size)
    omegas = np.sqrt(eigvals[:n_modes])
    modes = np.zeros((ndof, n_modes))
    modes[free, :] = eigvecs[:, :n_modes]
    return ModalResult(
        frequencies_hz=omegas / (2.0 * math.pi),
        modes=modes,
        mesh=mesh,
    )
