"""Isogram extraction: the per-element contouring of program OSPL.

"Taking one element at a time, the steps below are repeated until the plot
is complete: (1) the number and size of the contours passing through the
element are determined; (2) two pairs of adjacent corners are found, each
of whose values bound the subject contour; (3) end points ... are found by
interpolating linearly between the values at the adjacent corners of each
pair; (4) a straight line is drawn between these end points."

Each contour endpoint remembers the element edge (node pair) it lies on;
that is what lets the label pass find intersections with the mesh
boundary without any geometric searching.  A :class:`ContourSet` keeps
them as arrays per level (:class:`LevelSegments`), never per segment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ContourError
from repro.fem.mesh import Mesh
from repro.fem.results import NodalField
from repro.core.ospl.intervals import classify_levels
from repro.geometry.clip import clip_segments
from repro.geometry.primitives import BoundingBox, Point


def triangle_crossings(points: Sequence[Point], values: Sequence[float],
                       level: float
                       ) -> List[Tuple[Point, Tuple[int, int]]]:
    """The 0 or 2 points where ``level`` crosses the triangle's edges.

    Vertices exactly on the level are resolved by the half-open
    classification ``value >= level`` so that adjacent elements produce
    consistent, crack-free polylines.  Each point comes with the sorted
    *local* (0, 1, 2) corner pair of its edge.  :class:`ContourSet` is
    this, batched; the tests hold the two together.
    """
    if len(points) != 3 or len(values) != 3:
        raise ContourError("triangle_crossings needs exactly 3 corners")
    above = [v >= level for v in values]
    crossings: List[Tuple[Point, Tuple[int, int]]] = []
    for a, b in ((0, 1), (1, 2), (2, 0)):
        if above[a] == above[b]:
            continue
        va, vb = values[a], values[b]
        t = (level - va) / (vb - va)
        p = Point(
            points[a].x + t * (points[b].x - points[a].x),
            points[a].y + t * (points[b].y - points[a].y),
        )
        crossings.append((p, (min(a, b), max(a, b))))
    return crossings


@dataclass(frozen=True)
class LevelSegments:
    """The isogram segments of one level, in ascending element order.

    ``points[s, i]`` is end ``i`` (start, end) of segment ``s`` as
    ``(x, y)``; ``edges[s, i]`` the sorted node pair of the edge it lies
    on, ``(-1, -1)`` where the window clip moved it; ``elements[s]`` the
    element it crosses.
    """

    points: np.ndarray
    edges: np.ndarray
    elements: np.ndarray

    def __len__(self) -> int:
        return len(self.elements)


_NO_SEGMENTS = LevelSegments(np.zeros((0, 2, 2)),
                             np.zeros((0, 2, 2), dtype=np.int64),
                             np.zeros(0, dtype=np.int64))


class ContourSet:
    """All isogram segments of one field over one mesh."""

    def __init__(self, mesh: Mesh, field: NodalField, interval: float,
                 levels: Sequence[float],
                 window: Optional[BoundingBox] = None):
        self.mesh = mesh
        self.field = field
        self.interval = interval
        self.levels = list(levels)
        self.window = window
        self.segments_by_level: Dict[float, LevelSegments] = {
            level: _NO_SEGMENTS for level in self.levels
        }
        self._extract()

    def _extract(self) -> None:
        """Batched extraction: one numpy sweep per contour level.

        Element-by-element this is exactly :func:`triangle_crossings`
        under the scalar driver loop -- same half-open ``value >= level``
        corner classification, same edge scan order (so the same
        start/end pairing), same pinch filter, same ascending element
        order within each level's arrays.
        """
        if self.mesh.n_elements == 0 or not self.levels:
            return
        values = np.asarray(self.field.values, dtype=float)
        tri = self.mesh.elements
        corner_vals = values[tri]
        corner_pts = self.mesh.nodes[tri]
        first, stop = classify_levels(
            corner_vals.min(axis=1), corner_vals.max(axis=1), self.levels
        )
        edge_a = np.array([0, 1, 2])
        edge_b = np.array([1, 2, 0])
        for li, level in enumerate(self.levels):
            idx = np.nonzero((first <= li) & (li < stop))[0]
            if not len(idx):
                continue
            v = corner_vals[idx]
            above = v >= level
            crossing = above[:, edge_a] != above[:, edge_b]
            two = crossing.sum(axis=1) == 2
            idx = idx[two]
            if not len(idx):
                continue  # level touches only a vertex, or misses
            v = v[two]
            crossing = crossing[two]
            rows = np.arange(len(idx))
            # The two crossing edges in scan order (0,1), (1,2), (2,0):
            # first and last set bit of each row's crossing mask.
            e_first = np.argmax(crossing, axis=1)
            e_second = 2 - np.argmax(crossing[:, ::-1], axis=1)
            p = corner_pts[idx]
            t_rows = tri[idx]

            def endpoint(edge: np.ndarray) -> Tuple[np.ndarray, ...]:
                a, b = edge_a[edge], edge_b[edge]
                va, vb = v[rows, a], v[rows, b]
                t = (level - va) / (vb - va)
                ax, ay = p[rows, a, 0], p[rows, a, 1]
                bx, by = p[rows, b, 0], p[rows, b, 1]
                ga, gb = t_rows[rows, a], t_rows[rows, b]
                return (ax + t * (bx - ax), ay + t * (by - ay),
                        np.minimum(ga, gb), np.maximum(ga, gb))

            x1, y1, lo1, hi1 = endpoint(e_first)
            x2, y2, lo2, hi2 = endpoint(e_second)
            keep = ~((np.abs(x1 - x2) < 1e-14)
                     & (np.abs(y1 - y2) < 1e-14))  # pinched to a vertex
            if not keep.any():
                continue
            points = np.stack((x1, y1, x2, y2), axis=1)[keep]
            edges = np.stack((lo1, hi1, lo2, hi2), axis=1)[keep]
            elements = idx[keep]
            if self.window is not None:
                # An endpoint the clip moved sits on the window, not on
                # a mesh edge: its edge pair becomes (-1, -1).
                ok, *ends = clip_segments(*points.T, self.window)
                clipped = np.stack(ends, axis=1)[ok]
                moved = (clipped != points[ok]).reshape(-1, 2, 2).any(2)
                points, edges, elements = clipped, edges[ok], elements[ok]
                edges.reshape(-1, 2, 2)[moved] = -1
            if len(elements):
                self.segments_by_level[level] = LevelSegments(
                    points.reshape(-1, 2, 2), edges.reshape(-1, 2, 2),
                    elements)

    # ------------------------------------------------------------------
    def all_points(self) -> np.ndarray:
        """Every segment's ``(2, 2)`` endpoints, level by level."""
        return np.concatenate([_NO_SEGMENTS.points] + [
            segs.points for segs in self.segments_by_level.values()])

    def segments_at(self, level: float) -> LevelSegments:
        try:
            return self.segments_by_level[level]
        except KeyError:
            raise ContourError(f"{level} is not one of the plotted levels")

    def n_segments(self) -> int:
        return sum(len(v) for v in self.segments_by_level.values())

    def nonempty_levels(self) -> List[float]:
        return [lv for lv in self.levels if len(self.segments_by_level[lv])]


def contour_mesh(mesh: Mesh, field: NodalField,
                 interval: Optional[float] = None,
                 lowest: Optional[float] = None,
                 window: Optional[BoundingBox] = None) -> ContourSet:
    """Contour ``field`` over ``mesh``.

    ``interval`` of ``None`` (the DELTA = 0 card option) engages the
    Appendix-D automatic choice.  ``window`` restricts the plot ("zoom").
    Runs the intervals and contour stages of :mod:`repro.pipeline.ospl`.
    """
    from repro.pipeline.ospl import contour_pipeline

    result = contour_pipeline().run({
        "mesh": mesh, "field": field, "interval": interval,
        "lowest": lowest, "window": window, "strict": False,
    })
    contours: ContourSet = result["contours"]
    return contours
