"""Triangular finite-element meshes.

The mesh is the contract between the three programs: IDLZ produces one,
the analysis program consumes and decorates it, and OSPL plots fields over
it.  Node boundary flags follow the OSPL card convention (Appendix C,
type-3 cards):

* ``0`` -- interior node,
* ``1`` -- boundary node belonging to more than one element,
* ``2`` -- boundary node belonging to exactly one element.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import GeometryError, MeshError
from repro.fem.quality import triangle_min_angles
from repro.geometry.primitives import BoundingBox, Point

#: OSPL boundary-flag values.
INTERIOR, BOUNDARY_SHARED, BOUNDARY_LONE = 0, 1, 2


@dataclass
class Mesh:
    """Nodes + three-node triangles.

    Attributes
    ----------
    nodes:
        ``(n, 2)`` float array of coordinates (x, y) or (r, z).
    elements:
        ``(e, 3)`` int array of 0-based node indices, CCW per element.
    boundary_flags:
        length-``n`` int array of OSPL flags; computed on demand when not
        supplied.
    element_groups:
        optional length-``e`` int array tagging each element with a region
        (material) id; defaults to all zeros.
    """

    nodes: np.ndarray
    elements: np.ndarray
    boundary_flags: Optional[np.ndarray] = None
    element_groups: Optional[np.ndarray] = None

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.elements = np.asarray(self.elements, dtype=int)
        if self.nodes.ndim != 2 or self.nodes.shape[1] != 2:
            raise MeshError(f"nodes must be (n, 2); got {self.nodes.shape}")
        if self.elements.size and (
            self.elements.ndim != 2 or self.elements.shape[1] != 3
        ):
            raise MeshError(
                f"elements must be (e, 3); got {self.elements.shape}"
            )
        if self.elements.size == 0:
            self.elements = self.elements.reshape(0, 3)
        if self.elements.size:
            if self.elements.min() < 0 or self.elements.max() >= len(self.nodes):
                raise MeshError("element connectivity references missing nodes")
        if self.element_groups is None:
            self.element_groups = np.zeros(len(self.elements), dtype=int)
        else:
            self.element_groups = np.asarray(self.element_groups, dtype=int)
            if len(self.element_groups) != len(self.elements):
                raise MeshError("element_groups length mismatch")
        if self.boundary_flags is not None:
            self.boundary_flags = np.asarray(self.boundary_flags, dtype=int)
            if len(self.boundary_flags) != len(self.nodes):
                raise MeshError("boundary_flags length mismatch")

    # ------------------------------------------------------------------
    # Sizes and access
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    def node_point(self, i: int) -> Point:
        return Point(float(self.nodes[i, 0]), float(self.nodes[i, 1]))

    def element_points(self, e: int) -> Tuple[Point, Point, Point]:
        i, j, k = self.elements[e]
        return (self.node_point(i), self.node_point(j), self.node_point(k))

    def element_corners(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ``(e, 2)`` corner arrays (a, b, c) of every element."""
        p = self.nodes[self.elements]
        return p[:, 0], p[:, 1], p[:, 2]

    def bounding_box(self) -> BoundingBox:
        return BoundingBox(
            float(self.nodes[:, 0].min()), float(self.nodes[:, 1].min()),
            float(self.nodes[:, 0].max()), float(self.nodes[:, 1].max()),
        )

    # ------------------------------------------------------------------
    # Quality and validation
    # ------------------------------------------------------------------
    def element_areas(self) -> np.ndarray:
        """Signed areas of every element (positive when CCW)."""
        p = self.nodes[self.elements]
        return 0.5 * (
            (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
            - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
        )

    def orient_ccw(self) -> int:
        """Flip clockwise elements in place; returns how many were flipped."""
        flip = self.element_areas() < 0
        self.elements[flip] = self.elements[flip][:, [0, 2, 1]]
        return int(flip.sum())

    def validate(self, min_area: float = 0.0) -> None:
        """Raise :class:`MeshError` on degenerate or inverted elements."""
        areas = self.element_areas()
        bad = np.nonzero(areas <= min_area)[0]
        if bad.size:
            raise MeshError(
                f"{bad.size} element(s) have non-positive area; first is "
                f"element {bad[0]} with area {areas[bad[0]]:g}"
            )

    def min_angle(self) -> float:
        """Smallest interior angle over the mesh (radians)."""
        if self.n_elements == 0:
            raise MeshError("mesh has no elements")
        return float(self.min_angles_per_element().min())

    def min_angles_per_element(self) -> np.ndarray:
        """Smallest interior angle (radians) of every element at once.

        A reduction of :func:`repro.fem.quality.triangle_min_angles`; a
        degenerate element (coincident vertices) raises exactly as
        :func:`repro.geometry.polygon.triangle_angles` does.
        """
        angles, coincident = triangle_min_angles(*self.element_corners())
        if coincident.any():
            raise GeometryError("triangle has coincident vertices")
        return angles

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def _edge_keys(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Directed edges in flat (element, slot) order plus their keys.

        Returns ``(edge_a, edge_b, keys)`` over the ``3e`` directed
        element edges; ``keys`` encodes each undirected edge as
        ``min * n_nodes + max``.
        """
        edge_a = self.elements.ravel()
        edge_b = self.elements[:, [1, 2, 0]].ravel()
        keys = (
            np.minimum(edge_a, edge_b).astype(np.int64) * self.n_nodes
            + np.maximum(edge_a, edge_b)
        )
        return edge_a, edge_b, keys

    def _edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Directed edges in element order plus per-edge share counts.

        Returns ``(edge_a, edge_b, n_sharing)``; ``n_sharing`` is how
        many elements contain each edge's undirected key.
        """
        edge_a, edge_b, keys = self._edge_keys()
        _, inverse, counts = np.unique(
            keys, return_inverse=True, return_counts=True
        )
        return edge_a, edge_b, counts[inverse]

    def edge_counts(self) -> Dict[Tuple[int, int], int]:
        """How many elements share each (sorted) edge."""
        edge_a, edge_b, n_sharing = self._edge_arrays()
        lo = np.minimum(edge_a, edge_b)
        hi = np.maximum(edge_a, edge_b)
        return {
            (a, b): n
            for a, b, n in zip(lo.tolist(), hi.tolist(), n_sharing.tolist())
        }

    def boundary_edges(self) -> List[Tuple[int, int]]:
        """Edges belonging to exactly one element, in element order."""
        edge_a, edge_b, n_sharing = self._edge_arrays()
        sel = n_sharing == 1
        return list(zip(edge_a[sel].tolist(), edge_b[sel].tolist()))

    def _per_node(self, owner: np.ndarray, items: np.ndarray
                  ) -> List[List[int]]:
        """``items`` grouped by ``owner`` node, stable within a node."""
        order = np.argsort(owner, kind="stable")
        ends = np.cumsum(np.bincount(owner, minlength=self.n_nodes)).tolist()
        flat = items[order].tolist()
        return [flat[lo:hi] for lo, hi in zip([0] + ends[:-1], ends)]

    def node_elements(self) -> List[List[int]]:
        """For each node, the list of elements containing it."""
        flat = self.elements.ravel()
        return self._per_node(flat, np.arange(flat.size) // 3)

    def node_adjacency(self) -> List[Set[int]]:
        """Node-to-node adjacency through element edges."""
        keys = np.unique(self._edge_keys()[2])
        lo, hi = np.divmod(keys, self.n_nodes)
        both = self._per_node(np.concatenate((lo, hi)),
                              np.concatenate((hi, lo)))
        return [set(neighbours) for neighbours in both]

    def compute_boundary_flags(self) -> np.ndarray:
        """Derive the OSPL flags (0/1/2) from the connectivity."""
        flags = np.zeros(self.n_nodes, dtype=int)
        edge_a, edge_b, n_sharing = self._edge_arrays()
        sel = n_sharing == 1
        on_boundary = np.zeros(self.n_nodes, dtype=bool)
        on_boundary[edge_a[sel]] = True
        on_boundary[edge_b[sel]] = True
        incidence = np.bincount(
            self.elements.ravel(), minlength=self.n_nodes
        )
        flags[on_boundary] = np.where(
            incidence[on_boundary] == 1, BOUNDARY_LONE, BOUNDARY_SHARED
        )
        self.boundary_flags = flags
        return flags

    def flags(self) -> np.ndarray:
        """Boundary flags, computing them if absent."""
        if self.boundary_flags is None:
            self.compute_boundary_flags()
        return self.boundary_flags

    # ------------------------------------------------------------------
    # Node finding (for boundary conditions on generated meshes)
    # ------------------------------------------------------------------
    def find_nodes(self, predicate) -> List[int]:
        """Indices of nodes whose Point satisfies ``predicate``."""
        return [
            i for i in range(self.n_nodes) if predicate(self.node_point(i))
        ]

    def nodes_near(self, x: Optional[float] = None, y: Optional[float] = None,
                   tol: float = 1e-9) -> List[int]:
        """Nodes on the line x = const and/or y = const (within ``tol``)."""
        sel = np.ones(self.n_nodes, dtype=bool)
        if x is not None:
            sel &= np.abs(self.nodes[:, 0] - x) <= tol
        if y is not None:
            sel &= np.abs(self.nodes[:, 1] - y) <= tol
        return [int(i) for i in np.nonzero(sel)[0]]

    def nearest_node(self, x: float, y: float) -> int:
        """Index of the node closest to (x, y)."""
        if self.n_nodes == 0:
            raise MeshError("mesh has no nodes")
        d2 = (self.nodes[:, 0] - x) ** 2 + (self.nodes[:, 1] - y) ** 2
        return int(np.argmin(d2))

    # ------------------------------------------------------------------
    # Transformation
    # ------------------------------------------------------------------
    def renumbered(self, permutation: Sequence[int]) -> "Mesh":
        """A copy with nodes renumbered: new index = permutation[old index].

        ``permutation`` maps old node indices to new ones and must be a
        bijection on ``range(n_nodes)``.
        """
        perm = np.asarray(permutation, dtype=int)
        if sorted(perm.tolist()) != list(range(self.n_nodes)):
            raise MeshError("permutation is not a bijection on the nodes")
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(self.n_nodes)
        new_nodes = self.nodes[inverse]
        new_elements = perm[self.elements]
        new_flags = None
        if self.boundary_flags is not None:
            new_flags = self.boundary_flags[inverse]
        return Mesh(
            nodes=new_nodes,
            elements=new_elements,
            boundary_flags=new_flags,
            element_groups=None if self.element_groups is None
            else self.element_groups.copy(),
        )

    def copy(self) -> "Mesh":
        return Mesh(
            nodes=self.nodes.copy(),
            elements=self.elements.copy(),
            boundary_flags=None if self.boundary_flags is None
            else self.boundary_flags.copy(),
            element_groups=None if self.element_groups is None
            else self.element_groups.copy(),
        )
