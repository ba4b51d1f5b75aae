"""Cohen-Sutherland segment clipping against an axis-aligned window.

OSPL accepts a plot window (XMN/XMX/YMN/YMX) so the analyst can "zoom-in on
a critical area even though some nodes in the data set are outside that
area"; every contour and boundary segment is clipped to that window before
being handed to the plotter.  The SC-4020 simulator also clips to its
raster.  :func:`clip_segments` runs the classic loop over whole arrays.
"""

from __future__ import annotations

from enum import IntFlag
from typing import Optional, Tuple

import numpy as np

from repro.geometry.primitives import BoundingBox, Point, Segment


class OutCode(IntFlag):
    """Cohen-Sutherland region codes."""

    INSIDE = 0
    LEFT = 1
    RIGHT = 2
    BOTTOM = 4
    TOP = 8


#: Clipping steps a segment may take.  Two per endpoint suffice in exact
#: arithmetic; a segment still undecided after this many is cycling.
MAX_CLIPS = 16


def _outcodes(x: np.ndarray, y: np.ndarray, box: BoundingBox) -> np.ndarray:
    code = np.where(x < box.xmin, OutCode.LEFT,
                    np.where(x > box.xmax, OutCode.RIGHT, 0))
    return code | np.where(y < box.ymin, OutCode.BOTTOM,
                           np.where(y > box.ymax, OutCode.TOP, 0))


def clip_segments(x0: np.ndarray, y0: np.ndarray, x1: np.ndarray,
                  y1: np.ndarray, box: BoundingBox
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                             np.ndarray, np.ndarray]:
    """Clip every segment ``(x0, y0) -> (x1, y1)`` to ``box``.

    Returns ``(keep, x0, y0, x1, y1)``: the mask of segments with a part
    inside the box and the clipped endpoint arrays (rows with ``keep``
    false hold no meaningful coordinates).  Each pass moves one outside
    endpoint of every undecided row onto the window edge its outcode
    names (TOP, BOTTOM, RIGHT, LEFT; start point first), with the scalar
    loop's expressions, so every row is bit-for-bit the per-segment
    loop's.  Degenerate windows (zero width or height) still clip
    correctly.  A segment still undecided after :data:`MAX_CLIPS` steps
    grazes a window corner (rounding throws each intersection just past
    the other edge) and is kept with its endpoints clamped onto the box.
    """
    sx, sy, ex, ey = (np.array(v, dtype=float) for v in (x0, y0, x1, y1))
    code0 = _outcodes(sx, sy, box)
    code1 = _outcodes(ex, ey, box)
    keep = (code0 | code1) == 0
    rows = np.nonzero(~keep & ((code0 & code1) == 0))[0]
    for _ in range(MAX_CLIPS):
        if not len(rows):
            break
        c0 = code0[rows]
        start = c0 != 0
        out = np.where(start, c0, code1[rows])
        ax, ay, bx, by = sx[rows], sy[rows], ex[rows], ey[rows]
        edge_y = np.where(out & OutCode.TOP, box.ymax, box.ymin)
        edge_x = np.where(out & OutCode.RIGHT, box.xmax, box.xmin)
        with np.errstate(all="ignore"):
            t = (edge_y - ay) / (by - ay)
            x_at_y = ax + t * (bx - ax)
            t = (edge_x - ax) / (bx - ax)
            y_at_x = ay + t * (by - ay)
        vertical = (out & (OutCode.TOP | OutCode.BOTTOM)) != 0
        nx = np.where(vertical, x_at_y, edge_x)
        ny = np.where(vertical, edge_y, y_at_x)
        code = _outcodes(nx, ny, box)
        sx[rows[start]], sy[rows[start]] = nx[start], ny[start]
        code0[rows[start]] = code[start]
        ex[rows[~start]], ey[rows[~start]] = nx[~start], ny[~start]
        code1[rows[~start]] = code[~start]
        c0, c1 = code0[rows], code1[rows]
        keep[rows] = (c0 | c1) == 0
        rows = rows[((c0 | c1) != 0) & ((c0 & c1) == 0)]
    for v, lo, hi in ((sx, box.xmin, box.xmax), (sy, box.ymin, box.ymax),
                      (ex, box.xmin, box.xmax), (ey, box.ymin, box.ymax)):
        v[rows] = np.minimum(np.maximum(v[rows], lo), hi)
    keep[rows] = True
    return keep, sx, sy, ex, ey


def clip_segment(seg: Segment, box: BoundingBox) -> Optional[Segment]:
    """Clip ``seg`` to ``box``; ``None`` when entirely outside."""
    keep, *ends = clip_segments(*np.reshape(seg, (4, 1)), box)
    x0, y0, x1, y1 = (float(v[0]) for v in ends)
    return Segment(Point(x0, y0), Point(x1, y1)) if keep[0] else None
