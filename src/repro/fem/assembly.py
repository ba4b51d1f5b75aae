"""Global system assembly: one scatter for every storage.

Assembly is two array steps.  :func:`element_blocks` stacks one dense
block per element (looking each element's material up by its *group*,
the region ids IDLZ subdivisions map onto), and :func:`scatter` turns
``mesh.elements`` plus that stack into global ``(rows, cols, vals)``
triplets by index broadcasting.  Every storage is summed from those
triplets:

* the era-authentic :class:`BandedSymmetricMatrix`, whose cost profile is
  what IDLZ's renumbering pass optimises;
* a scipy CSR matrix, used as the ablation baseline and as an independent
  cross-check in the tests;
* skyline storage (:func:`repro.fem.skyline.assemble_skyline`), the
  thermal K and C pair, and the dense modal mass matrix.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Mapping, Tuple

import numpy as np

from repro import obs
from repro.errors import MaterialError, MeshError
from repro.fem.banded import BandedSymmetricMatrix
from repro.fem.bandwidth import matrix_bandwidth_for_dofs, mesh_bandwidth
from repro.fem.elements.axisym import axisym_stiffness
from repro.fem.elements.cst import cst_stiffness
from repro.fem.elements.heat import (
    heat_capacity_matrix,
    heat_capacity_matrix_axisym,
    heat_conductivity_matrix,
    heat_conductivity_matrix_axisym,
)
from repro.fem.mesh import Mesh

if TYPE_CHECKING:
    import scipy.sparse as sp

Triplets = Tuple[np.ndarray, np.ndarray, np.ndarray]

#: Element block of an analysis, from vertex coordinates and material.
BlockFn = Callable[[np.ndarray, Any], np.ndarray]

_STIFFNESS: Dict[str, BlockFn] = {
    "plane_stress": lambda xy, m: cst_stiffness(
        xy, m.d_plane_stress(), thickness=m.thickness),
    "plane_strain": lambda xy, m: cst_stiffness(
        xy, m.d_plane_strain(), thickness=1.0),
    "axisymmetric": lambda xy, m: axisym_stiffness(
        xy, m.d_axisymmetric()),
}


def _material_for(materials: Mapping[int, Any], group: int,
                  what: str = "material") -> Any:
    try:
        return materials[group]
    except KeyError:
        raise MaterialError(
            f"no {what} assigned to element group {group}; "
            f"known groups: {sorted(materials)}"
        ) from None


def element_blocks(mesh: Mesh, materials: Mapping[int, Any],
                   block: BlockFn) -> np.ndarray:
    """Stack ``block(xy, material)`` over every element: ``(E, ...)``."""
    if mesh.n_elements == 0:
        raise MeshError("cannot assemble a mesh with no elements")
    return np.stack([
        block(mesh.nodes[tri], _material_for(materials, int(group)))
        for tri, group in zip(mesh.elements, mesh.element_groups)
    ])


def stiffness_blocks(mesh: Mesh, materials: Mapping[int, Any],
                     analysis_type: str) -> np.ndarray:
    """The ``(E, 6, 6)`` element stiffness stack of one analysis."""
    if analysis_type not in _STIFFNESS:
        raise MeshError(f"unknown analysis type {analysis_type!r}")
    return element_blocks(mesh, materials, _STIFFNESS[analysis_type])


def scatter(elements: np.ndarray, blocks: np.ndarray) -> Triplets:
    """Global ``(rows, cols, vals)`` of an element block stack.

    ``blocks`` is ``(E, m, m)`` with ``m = 3 * dofs_per_node`` and dofs
    interleaved per node (node ``n`` owns ``n * dofs_per_node + d``).
    One triplet per block entry, in element-then-entry order; storages
    sum the duplicates.
    """
    n_elem, m, _ = blocks.shape
    dofs_per_node = m // elements.shape[1]
    dofs = (elements[:, :, None] * dofs_per_node
            + np.arange(dofs_per_node)).reshape(n_elem, m)
    rows = np.broadcast_to(dofs[:, :, None], blocks.shape).ravel()
    cols = np.broadcast_to(dofs[:, None, :], blocks.shape).ravel()
    return rows, cols, blocks.ravel()


def stiffness_triplets(mesh: Mesh, materials: Mapping[int, Any],
                       analysis_type: str) -> Triplets:
    """Global stiffness triplets (2 dofs per node)."""
    return scatter(mesh.elements,
                   stiffness_blocks(mesh, materials, analysis_type))


def _csr(n: int, triplets: Triplets) -> sp.csr_matrix:
    # scipy loads only for the storages that need it (sparse, thermal,
    # modal), never on the banded path.
    import scipy.sparse as sp

    rows, cols, vals = triplets
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def assemble_banded(mesh: Mesh, materials: Mapping[int, Any],
                    analysis_type: str) -> BandedSymmetricMatrix:
    """Assemble the global stiffness in banded storage."""
    with obs.span("fem.assemble.banded", elements=mesh.n_elements):
        triplets = stiffness_triplets(mesh, materials, analysis_type)
        hb = matrix_bandwidth_for_dofs(mesh_bandwidth(mesh), 2)
        ndof = 2 * mesh.n_nodes
        k = BandedSymmetricMatrix.from_triplets(ndof, hb, *triplets)
    obs.gauge("fem.ndof", ndof)
    obs.gauge("fem.matrix_half_bandwidth", hb)
    # Band storage holds (hb + 1) entries per row: the Cholesky fill-in
    # ceiling the renumbering pass exists to shrink.
    obs.gauge("fem.solver_fillin", ndof * (hb + 1))
    return k


def assemble_sparse(mesh: Mesh, materials: Mapping[int, Any],
                    analysis_type: str) -> sp.csr_matrix:
    """Assemble the global stiffness as a scipy CSR matrix."""
    with obs.span("fem.assemble.sparse", elements=mesh.n_elements):
        ndof = 2 * mesh.n_nodes
        k = _csr(ndof, stiffness_triplets(mesh, materials, analysis_type))
    obs.gauge("fem.ndof", ndof)
    obs.gauge("fem.sparse_nnz", int(k.nnz))
    return k


# ----------------------------------------------------------------------
# Thermal assembly (1 dof per node)
# ----------------------------------------------------------------------

def assemble_thermal(mesh: Mesh, materials: Mapping[int, Any],
                     lumped: bool = True, axisymmetric: bool = False
                     ) -> Tuple[sp.csr_matrix, sp.csr_matrix]:
    """(conductivity K, capacitance C) for the heat-conduction problem.

    ``axisymmetric`` switches to ring elements (coordinates interpreted
    as (r, z), matrices weighted by ``2 pi r_bar``).
    """
    conductivity: Callable[..., np.ndarray] = (
        heat_conductivity_matrix_axisym if axisymmetric
        else heat_conductivity_matrix)
    capacity: Callable[..., np.ndarray] = (
        heat_capacity_matrix_axisym if axisymmetric
        else heat_capacity_matrix)

    def block(xy: np.ndarray, material: Any) -> np.ndarray:
        return np.stack([
            conductivity(xy, material.conductivity),
            capacity(xy, material.volumetric_heat_capacity,
                     lumped=lumped),
        ])

    with obs.span("fem.assemble.thermal", elements=mesh.n_elements,
                  axisymmetric=axisymmetric):
        blocks = element_blocks(mesh, materials, block)
        n = mesh.n_nodes
        k = _csr(n, scatter(mesh.elements, blocks[:, 0]))
        c = _csr(n, scatter(mesh.elements, blocks[:, 1]))
    return k, c
