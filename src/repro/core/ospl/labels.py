"""Contour labelling.

"The value of each contour is printed next to its intersection with the
boundary of the plot unless adjacent labels overlap.  All contours of zero
value are labeled ...  Since adjacent contours are either one interval
apart or of equal value, these labels sufficiently specify the value at
any point inside the boundary."

A label candidate is any contour endpoint lying on a mesh boundary edge
(or on the zoom window, when clipping moved it there).  Candidates are
placed in order; one that would overlap an already-placed label is
suppressed -- except that zero contours always win.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.ospl.boundary import boundary_pairs
from repro.core.ospl.contour import ContourSet
from repro.plotter.device import CoordinateMap
from repro.plotter.text import boxes_overlap, text_box


@dataclass(frozen=True)
class Label:
    """A contour-value annotation anchored in world coordinates."""

    level: float
    x: float
    y: float
    text: str


def format_level(level: float) -> str:
    """The 4020-style numeric label: explicit sign, trailing point.

    Figures 13-18 label contours like ``+22500.`` and ``-.50``; we
    reproduce signed fixed notation trimmed of trailing zeros.
    """
    if level == 0.0:
        return "0."
    text = f"{level:+.4f}".rstrip("0")
    if text.endswith("."):
        pass  # keep the trailing point, as the 4020 plots did
    # Drop a redundant leading zero: +0.50 -> +.5
    if text.startswith("+0.") or text.startswith("-0."):
        text = text[0] + text[2:]
    return text


def boundary_label_candidates(
        contours: ContourSet,
        boundary: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> List[Label]:
    """Every contour/boundary intersection, as an unfiltered label list.

    One candidate is produced per (level, boundary crossing point); the
    crossing is detected by the endpoint's element edge being a boundary
    edge (its ``lo * n + hi`` key is a boundary row's).  Clipped
    endpoints (edge ``(-1, -1)``) sit on the zoom window and also qualify.
    ``boundary`` is the mesh's :func:`boundary_pairs`, when the caller
    already holds them.
    """
    mesh = contours.mesh
    n = mesh.n_nodes
    if boundary is None:
        boundary = boundary_pairs(mesh)
    a, b = (v.astype(np.int64) for v in boundary)
    # Sorted, with a sentinel above every real key for the lookups.
    boundary_keys = np.sort(np.append(np.minimum(a, b) * n + np.maximum(a, b),
                                      np.iinfo(np.int64).max))
    flagged = mesh.nodes[mesh.flags() > 0]
    # A crossing at a parameter of exactly 0 or 1 lands on a node and may
    # be recorded against an *interior* edge; those still intersect the
    # outline when the node itself is a boundary node.  The test is the
    # ``round(v, 9)`` key of the node, with Python's rounding.
    boundary_node_keys = {
        (round(x, 9), round(y, 9)) for x, y in flagged.tolist()
    }
    candidates: List[Label] = []
    seen: set = set()
    for level in contours.levels:
        segs = contours.segments_at(level)
        points = segs.points.reshape(-1, 2)
        edges = segs.edges.reshape(-1, 2).astype(np.int64)
        keys = edges[:, 0] * n + edges[:, 1]
        on_line = (edges[:, 0] == -1) \
            | (boundary_keys[np.searchsorted(boundary_keys, keys)] == keys)
        rows = np.nonzero(on_line | _near_nodes(points, flagged))[0]
        text = format_level(level)
        for (x, y), sure in zip(points[rows].tolist(),
                                on_line[rows].tolist()):
            xy = (round(x, 9), round(y, 9))
            if not sure and xy not in boundary_node_keys:
                continue
            key = (level, *xy)
            if key in seen:
                continue
            seen.add(key)
            candidates.append(Label(level=level, x=x, y=y, text=text))
    return candidates


def _near_nodes(points: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """A superset of the points whose ``round(v, 9)`` key is a node's:
    equal keys lie within 1e-9 (and a few ULP) of each other, so keep a
    point whose x and y each lie that close to some node's."""
    near = np.ones(len(points), dtype=bool)
    for v, values in zip(points.T, np.sort(nodes, axis=0).T):
        scale = np.maximum(np.abs(v), np.abs(values).max(initial=0.0))
        tol = 1.5e-9 + 8.0 * np.spacing(scale)
        near &= np.searchsorted(values, v + tol, side="right") \
            > np.searchsorted(values, v - tol, side="left")
    return near


def place_labels(contours: ContourSet, cmap: CoordinateMap,
                 size: int = 9,
                 boundary: Optional[Tuple[np.ndarray, np.ndarray]] = None
                 ) -> List[Label]:
    """Select the labels to draw, suppressing overlaps.

    Zero contours are placed first so they always survive; the rest are
    placed in boundary order and dropped when their raster text box would
    intersect one already placed.
    """
    candidates = boundary_label_candidates(contours, boundary)
    candidates.sort(key=lambda lab: (lab.level != 0.0, lab.level,
                                     lab.x, lab.y))
    placed: List[Label] = []
    placed_boxes: List[Tuple[float, float, float, float]] = []
    for lab in candidates:
        rx, ry = cmap.to_raster(lab.x, lab.y)
        box = text_box(rx + 3, ry + 3, lab.text, size)
        if any(boxes_overlap(box, other) for other in placed_boxes):
            continue
        placed.append(lab)
        placed_boxes.append(box)
    return placed
