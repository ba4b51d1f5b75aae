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

from dataclasses import dataclass
from typing import (
    Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

from repro.errors import GeometryError, MeshError
from repro.fem.quality import triangle_min_angles
from repro.geometry.primitives import BoundingBox, Point

#: OSPL boundary-flag values.
INTERIOR, BOUNDARY_SHARED, BOUNDARY_LONE = 0, 1, 2


class EdgeTable(NamedTuple):
    """One row per unique mesh edge, in first-encounter order.

    ``a``/``b`` are the edge's first directed occurrence, ``count`` how
    many elements share it (1 on the boundary, 2 inside, more where the
    mesh is non-manifold), ``e1`` the first of those elements and
    ``e2`` the second (-1 when there is none).
    """

    a: np.ndarray
    b: np.ndarray
    count: np.ndarray
    e1: np.ndarray
    e2: np.ndarray

    @property
    def lo(self) -> np.ndarray:
        return np.minimum(self.a, self.b)

    @property
    def hi(self) -> np.ndarray:
        return np.maximum(self.a, self.b)


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

    def __post_init__(self) -> None:
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
    def edge_table(self) -> EdgeTable:
        """The mesh's unique edges in first-encounter order.

        One stable argsort of the ``min * n_nodes + max`` keys of the
        ``3e`` directed element edges (element-major, slots ``(0, 1)``,
        ``(1, 2)``, ``(2, 0)``) groups every undirected edge; the rows
        are then ordered by each edge's first (element, slot) occurrence.
        Built on demand and never cached: reform and :meth:`orient_ccw`
        rewrite ``elements`` in place.
        """
        edge_a = self.elements.ravel()
        edge_b = self.elements[:, [1, 2, 0]].ravel()
        keys = (
            np.minimum(edge_a, edge_b).astype(np.int64) * self.n_nodes
            + np.maximum(edge_a, edge_b)
        )
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        is_start = np.ones(len(order), dtype=bool)
        is_start[1:] = sorted_keys[1:] != sorted_keys[:-1]
        starts = np.flatnonzero(is_start)
        count = np.diff(np.append(starts, len(order)))
        # Each edge's first two occurrences (the second is read only
        # where the edge is shared); rows go in first-occurrence order.
        first = order[starts]
        second = np.append(order, -1)[starts + 1]
        rows = np.argsort(first)
        first, second, count = first[rows], second[rows], count[rows]
        return EdgeTable(
            a=edge_a[first], b=edge_b[first], count=count,
            e1=first // 3, e2=np.where(count > 1, second // 3, -1),
        )

    def edge_counts(self) -> Dict[Tuple[int, int], int]:
        """How many elements share each (sorted) edge."""
        table = self.edge_table()
        return dict(zip(zip(table.lo.tolist(), table.hi.tolist()),
                        table.count.tolist()))

    def boundary_edges(self) -> List[Tuple[int, int]]:
        """Edges belonging to exactly one element, in element order."""
        table = self.edge_table()
        sel = table.count == 1
        return list(zip(table.a[sel].tolist(), table.b[sel].tolist()))

    def compute_boundary_flags(self, table: Optional[EdgeTable] = None
                               ) -> np.ndarray:
        """Derive the OSPL flags (0/1/2) from the connectivity (from
        ``table`` when the caller already holds this mesh's edges)."""
        flags = np.zeros(self.n_nodes, dtype=int)
        if table is None:
            table = self.edge_table()
        sel = table.count == 1
        on_boundary = np.zeros(self.n_nodes, dtype=bool)
        on_boundary[table.a[sel]] = True
        on_boundary[table.b[sel]] = True
        incidence = np.bincount(
            self.elements.ravel(), minlength=self.n_nodes
        )
        flags[on_boundary] = np.where(
            incidence[on_boundary] == 1, BOUNDARY_LONE, BOUNDARY_SHARED
        )
        self.boundary_flags = flags
        return flags

    def flags(self, table: Optional[EdgeTable] = None) -> np.ndarray:
        """Boundary flags, computing them (from ``table``, if given) when
        absent."""
        if self.boundary_flags is None:
            return self.compute_boundary_flags(table)
        return self.boundary_flags

    # ------------------------------------------------------------------
    # Node finding (for boundary conditions on generated meshes)
    # ------------------------------------------------------------------
    def find_nodes(self, predicate: Callable[[Point], bool]) -> List[int]:
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
