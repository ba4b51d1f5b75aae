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
from typing import List, Tuple

from repro.core.ospl.boundary import boundary_edge_list
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


def boundary_label_candidates(contours: ContourSet) -> List[Label]:
    """Every contour/boundary intersection, as an unfiltered label list.

    One candidate is produced per (level, boundary crossing point); the
    crossing is detected by the endpoint's element edge being a boundary
    edge.  Clipped endpoints (edge ``(-1, -1)``) sit on the zoom window
    and also qualify.
    """
    mesh = contours.mesh
    boundary = {(min(a, b), max(a, b)) for a, b in boundary_edge_list(mesh)}
    flags = mesh.flags()
    # A crossing at a parameter of exactly 0 or 1 lands on a node and may
    # be recorded against an *interior* edge; those still intersect the
    # outline when the node itself is a boundary node.
    boundary_node_keys = {
        (round(float(mesh.nodes[n, 0]), 9), round(float(mesh.nodes[n, 1]), 9))
        for n in range(mesh.n_nodes) if flags[n] > 0
    }
    candidates: List[Label] = []
    seen: set = set()
    for level in contours.levels:
        for seg in contours.segments_at(level):
            for endpoint in (seg.start, seg.end):
                on_window = endpoint.edge == (-1, -1)
                on_node = (
                    round(endpoint.x, 9), round(endpoint.y, 9)
                ) in boundary_node_keys
                if not on_window and not on_node \
                        and endpoint.edge not in boundary:
                    continue
                key = (level, round(endpoint.x, 9), round(endpoint.y, 9))
                if key in seen:
                    continue
                seen.add(key)
                candidates.append(Label(
                    level=level, x=endpoint.x, y=endpoint.y,
                    text=format_level(level),
                ))
    return candidates


def place_labels(contours: ContourSet, cmap: CoordinateMap,
                 size: int = 9) -> List[Label]:
    """Select the labels to draw, suppressing overlaps.

    Zero contours are placed first so they always survive; the rest are
    placed in boundary order and dropped when their raster text box would
    intersect one already placed.
    """
    candidates = boundary_label_candidates(contours)
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
