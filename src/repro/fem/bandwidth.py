"""Bandwidth metrics and the renumbering scheme of the paper's Reference 2.

IDLZ first numbers nodes "arbitrarily from left to right and bottom to top
with programming convenience being the prime consideration", then -- "if
the user desires" -- applies a renumbering to ensure a narrow bandwidth.
The contemporaneous algorithm (Cuthill & McKee, 1969) orders nodes by a
breadth-first sweep from a peripheral node, visiting neighbours in order
of increasing degree; the *reverse* ordering (George, 1971) never has a
larger profile, so we implement RCM and expose plain CM as well.

All functions speak in terms of node numbering; the matrix half-bandwidth
for a 2-dof-per-node elasticity problem is ``2 * (node_hb + 1) - 1``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.errors import MeshError
from repro.fem.mesh import Mesh


def mesh_bandwidth(mesh: Mesh) -> int:
    """Node half-bandwidth: max |i - j| over element node pairs."""
    if mesh.n_elements == 0:
        return 0
    tri = mesh.elements
    diffs = [
        np.abs(tri[:, 0] - tri[:, 1]),
        np.abs(tri[:, 1] - tri[:, 2]),
        np.abs(tri[:, 2] - tri[:, 0]),
    ]
    return int(np.max(np.stack(diffs)))


def matrix_bandwidth_for_dofs(node_bandwidth: int, dofs_per_node: int) -> int:
    """Matrix half-bandwidth for interleaved multi-dof numbering."""
    return dofs_per_node * (node_bandwidth + 1) - 1


def profile(mesh: Mesh) -> int:
    """Envelope (profile) size: sum over rows of (i - min connected j)."""
    lowest = np.arange(mesh.n_nodes)
    np.minimum.at(lowest, mesh.elements.ravel(),
                  np.repeat(mesh.elements.min(axis=1), 3))
    return int(np.sum(np.arange(mesh.n_nodes) - lowest))


def _csr_adjacency(mesh: Mesh) -> Tuple[np.ndarray, np.ndarray]:
    """Node adjacency as CSR ``(indptr, indices)`` from the edge table.

    Each node's neighbours are ordered by (degree, index): the
    Cuthill-McKee tie-break.
    """
    table = mesh.edge_table()
    lo, hi = table.lo, table.hi
    owner = np.concatenate((lo, hi))
    other = np.concatenate((hi, lo))
    degree = np.bincount(owner, minlength=mesh.n_nodes)
    order = np.lexsort((other, degree[other], owner))
    indptr = np.concatenate(([0], np.cumsum(degree)))
    return indptr, other[order]


def _level_sets(indptr: np.ndarray, indices: np.ndarray, root: int,
                seen: np.ndarray) -> List[np.ndarray]:
    """Breadth-first levels from ``root`` over nodes not yet ``seen``.

    Each level is the first occurrence of every unseen node among the
    previous level's concatenated neighbour rows -- the order a
    sequential FIFO queue visits them in.  Marks every reached node in
    ``seen``.
    """
    seen[root] = True
    levels = [np.array([root])]
    while True:
        frontier = levels[-1]
        starts = indptr[frontier]
        sizes = indptr[frontier + 1] - starts
        ends = np.cumsum(sizes)
        slots = np.arange(ends[-1]) + np.repeat(starts - ends + sizes, sizes)
        reached = indices[slots]
        reached = reached[~seen[reached]]
        if not reached.size:
            return levels
        _, first = np.unique(reached, return_index=True)
        level = reached[np.sort(first)]
        seen[level] = True
        levels.append(level)


def _pseudo_peripheral(indptr: np.ndarray, indices: np.ndarray,
                       seed: int) -> int:
    """A good BFS start for ``seed``'s component: the far end of a
    repeated level-structure sweep.

    Ties among candidates of minimum degree go to the lowest node index.
    """
    degree = np.diff(indptr)

    def sweep(root: int) -> List[np.ndarray]:
        return _level_sets(indptr, indices, root,
                           np.zeros(len(degree), dtype=bool))

    def lowest_degree(nodes: np.ndarray) -> int:
        nodes = np.sort(nodes)
        return int(nodes[np.argmin(degree[nodes])])

    start = lowest_degree(np.concatenate(sweep(seed)))
    levels = sweep(start)
    for _ in range(4):
        candidate = lowest_degree(levels[-1])
        if candidate == start:
            break
        new_levels = sweep(candidate)
        start = candidate
        if len(new_levels) <= len(levels):
            break
        levels = new_levels
    return start


def cuthill_mckee(mesh: Mesh, start: Optional[int] = None) -> List[int]:
    """Cuthill-McKee visit order (old node indices, in visit sequence).

    Each component is swept from a pseudo-peripheral node of the
    component holding the lowest unvisited node index (``start``, when
    given, roots the first sweep instead).  Isolated nodes (in no
    element) are appended last, preserving their relative order.
    """
    n = mesh.n_nodes
    if start is not None and not 0 <= start < n:
        raise MeshError(f"start node {start} out of range")
    indptr, indices = _csr_adjacency(mesh)
    connected = np.diff(indptr) > 0
    seen = np.zeros(n, dtype=bool)
    levels: List[np.ndarray] = []
    if start is not None:
        levels += _level_sets(indptr, indices, start, seen)
    for seed in np.flatnonzero(connected).tolist():
        if not seen[seed]:
            root = _pseudo_peripheral(indptr, indices, seed)
            levels += _level_sets(indptr, indices, root, seen)
    levels.append(np.flatnonzero(~seen))
    order: List[int] = np.concatenate(levels).tolist()
    return order


def _permutation(order: Sequence[int]) -> List[int]:
    """``perm[old] = new`` for a visit order of old node indices."""
    perm = np.empty(len(order), dtype=int)
    perm[np.asarray(order, dtype=int)] = np.arange(len(order))
    inverse: List[int] = perm.tolist()
    return inverse


def reverse_cuthill_mckee(mesh: Mesh, start: Optional[int] = None) -> List[int]:
    """RCM permutation: ``perm[old] = new`` node number."""
    with obs.span("fem.renumber.rcm", nodes=mesh.n_nodes):
        return _permutation(cuthill_mckee(mesh, start=start)[::-1])


def renumber_mesh(mesh: Mesh, method: str = "rcm",
                  start: Optional[int] = None) -> Mesh:
    """Renumbered copy of ``mesh`` (methods: ``'rcm'``, ``'cm'``)."""
    if method == "rcm":
        perm = reverse_cuthill_mckee(mesh, start=start)
    elif method == "cm":
        perm = _permutation(cuthill_mckee(mesh, start=start))
    else:
        raise MeshError(f"unknown renumbering method {method!r}")
    return mesh.renumbered(perm)
