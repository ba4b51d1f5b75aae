"""The global integer lattice and initial node numbering.

"Points in the grid of integer coordinates across the surface of the
assemblage represent nodal points.  These are first numbered arbitrarily
from left to right and bottom to top" -- nodes shared between adjacent
subdivisions are identified by their lattice coordinates and numbered
exactly once.  The original stored this in the NUMBER(41, 61) array; we
generalise it to a dynamically-sized array form: every subdivision's
lattice points are generated as one ``(n, 2)`` block, the union is the
sorted distinct ``(l, k)``-major integer keys (which *is* the
bottom-to-top, left-to-right numbering), and lookups are vectorized
binary searches over the sorted keys -- no per-point Python loop and no
fixed 41 x 61 bound anywhere.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.idlz.subdivision import LatticePoint, Subdivision
from repro.errors import IdealizationError


class LatticeGrid:
    """Union of all subdivision lattice points with global node numbers."""

    def __init__(self, subdivisions: Sequence[Subdivision]):
        if not subdivisions:
            raise IdealizationError("an assemblage needs at least one "
                                    "subdivision")
        seen_ids = set()
        for sub in subdivisions:
            if sub.index in seen_ids:
                raise IdealizationError(
                    f"duplicate subdivision number {sub.index}"
                )
            seen_ids.add(sub.index)
        self.subdivisions = list(subdivisions)
        pts = np.concatenate(
            [sub.lattice_points_array() for sub in self.subdivisions],
            axis=0,
        )
        self._kmin = int(pts[:, 0].min())
        self._kspan = int(pts[:, 0].max()) - self._kmin + 1
        self._lmin = int(pts[:, 1].min())
        self._lspan = int(pts[:, 1].max()) - self._lmin + 1
        # Bottom-to-top, left-to-right within a row: the distinct keys,
        # sorted by (l, k).  A sort and a neighbour diff rather than
        # np.unique, whose masked-array check loads numpy.ma.
        keys = np.sort(self._encode(pts[:, 0], pts[:, 1]))
        distinct = np.ones(len(keys), dtype=bool)
        distinct[1:] = keys[1:] != keys[:-1]
        self._keys = keys[distinct]
        #: ``(n, 2)`` int array of (k, l) per node, in node order.
        self.points = np.column_stack((
            self._keys % self._kspan + self._kmin,
            self._keys // self._kspan + self._lmin,
        ))
        self._point_of: List[LatticePoint] = []
        self._node_of: Dict[LatticePoint, int] = {}

    def _encode(self, k: np.ndarray, l: np.ndarray) -> np.ndarray:
        """(l, k)-major integer key of in-range lattice coordinates."""
        return (
            (l.astype(np.int64) - self._lmin) * self._kspan
            + (k.astype(np.int64) - self._kmin)
        )

    @property
    def n_nodes(self) -> int:
        return len(self.points)

    @property
    def point_of(self) -> List[LatticePoint]:
        """Node number -> lattice point, as a list of tuples."""
        if len(self._point_of) != self.n_nodes:
            self._point_of = list(map(tuple, self.points.tolist()))
        return self._point_of

    @property
    def node_of(self) -> Dict[LatticePoint, int]:
        """Lattice point -> node number (built on first use)."""
        if len(self._node_of) != self.n_nodes:
            self._node_of = {pt: i for i, pt in enumerate(self.point_of)}
        return self._node_of

    def node(self, k: int, l: int) -> int:
        """Global node number at lattice point (k, l)."""
        if (self._kmin <= k < self._kmin + self._kspan
                and self._lmin <= l < self._lmin + self._lspan):
            key = (l - self._lmin) * self._kspan + (k - self._kmin)
            i = int(np.searchsorted(self._keys, key))
            if i < len(self._keys) and self._keys[i] == key:
                return i
        raise IdealizationError(f"no node at lattice point ({k}, {l})")

    def node_array(self, points: np.ndarray) -> np.ndarray:
        """Global node numbers of an ``(n, 2)`` array of (k, l) points.

        The vectorized form of :meth:`node`; raises
        :class:`IdealizationError` naming the first absent point.
        """
        points = np.asarray(points)
        if points.size == 0:
            return np.zeros(0, dtype=np.int64)
        k = points[:, 0]
        l = points[:, 1]
        in_box = (
            (k >= self._kmin) & (k < self._kmin + self._kspan)
            & (l >= self._lmin) & (l < self._lmin + self._lspan)
        )
        keys = self._encode(np.where(in_box, k, self._kmin),
                            np.where(in_box, l, self._lmin))
        idx = np.searchsorted(self._keys, keys)
        idx_safe = np.minimum(idx, len(self._keys) - 1)
        found = in_box & (self._keys[idx_safe] == keys)
        if not found.all():
            bad = int(np.argmin(found))
            raise IdealizationError(
                f"no node at lattice point ({int(k[bad])}, {int(l[bad])})"
            )
        return idx_safe

    def has_node(self, k: int, l: int) -> bool:
        try:
            self.node(k, l)
            return True
        except IdealizationError:
            return False

    def lattice_coordinates_array(self) -> np.ndarray:
        """``(n, 2)`` float array of the raw integer-lattice positions."""
        return self.points.astype(float)

    def lattice_coordinates(self) -> List[Tuple[float, float]]:
        """Node positions *before shaping*: the raw integer lattice.

        These are the coordinates the "initial representation" plots use
        (Figures 1a, 6a, ... of the paper).
        """
        return list(map(tuple, self.lattice_coordinates_array().tolist()))

    def subdivision_nodes(self, sub: Subdivision) -> List[int]:
        """Global node numbers inside one subdivision."""
        return self.node_array(sub.lattice_points_array()).tolist()
