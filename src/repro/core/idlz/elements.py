"""Element creation: triangulating the strips of every subdivision.

"Elements are created by grouping three adjacent nodes together.  The
first elements ... are the result of a convenient arbitrary procedure"
that the reformation pass later cleans up.  Between two consecutive node
strips (rows of a row-oriented subdivision, columns of a column-oriented
one) we march a zipper: at each step the strip whose next node sits at the
smaller along-strip lattice position is advanced, which for equal-length
strips degenerates to the classic alternate-diagonal quad split and for a
trapezoid's unequal strips produces the corner fans visible in the paper's
Figures 3-5.

The zipper is a *stable merge* of the two strips' interior positions
(ties advance the lower strip), which is what makes it vectorizable: the
interleaving of lower and upper advances is recovered with two
``searchsorted`` calls instead of a per-node Python loop, and the
all-rectangle case collapses further to pure index arithmetic over the
whole subdivision at once.

Each element is tagged with its subdivision's index (zero-based group),
which downstream becomes the material region id.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.core.idlz.grid import LatticeGrid
from repro.core.idlz.subdivision import Subdivision
from repro.errors import IdealizationError

Triangle = Tuple[int, int, int]


def _merge_zipper(lower_ids: np.ndarray, lower_pos: np.ndarray,
                  upper_ids: np.ndarray, upper_pos: np.ndarray
                  ) -> np.ndarray:
    """The zipper as a stable merge, for non-decreasing positions.

    A lower advance at interior position ``lower_pos[m + 1]`` happens
    after exactly the upper advances whose positions are strictly
    smaller (ties go to the lower strip); an upper advance at
    ``upper_pos[q + 1]`` happens after the lower advances with positions
    smaller or equal.  Those counts are ``searchsorted`` lookups, and
    count-of-predecessors + own index is each triangle's slot in the
    merged output.
    """
    a = lower_pos[1:]
    b = upper_pos[1:]
    n_low = len(a)
    n_up = len(b)
    out = np.empty((n_low + n_up, 3), dtype=np.int64)
    if n_low:
        j = np.searchsorted(b, a, side="left")
        slot = np.arange(n_low) + j
        out[slot, 0] = lower_ids[:-1]
        out[slot, 1] = lower_ids[1:]
        out[slot, 2] = upper_ids[j]
    if n_up:
        i = np.searchsorted(a, b, side="right")
        slot = i + np.arange(n_up)
        out[slot, 0] = lower_ids[i]
        out[slot, 1] = upper_ids[1:]
        out[slot, 2] = upper_ids[:-1]
    return out


def triangulate_strip(lower_ids: Sequence[int], lower_pos: Sequence[float],
                      upper_ids: Sequence[int], upper_pos: Sequence[float]
                      ) -> List[Triangle]:
    """Zipper triangulation between two node strips.

    ``*_pos`` are scalar along-strip lattice positions, non-decreasing
    along each strip (unsorted positions raise
    :class:`IdealizationError`).  Triangles are emitted CCW assuming the
    lower strip lies below the upper one (the caller re-orients after
    shaping anyway).  A strip pair where either side has a single node
    becomes a pure fan.
    """
    if len(lower_ids) != len(lower_pos) or len(upper_ids) != len(upper_pos):
        raise IdealizationError("strip ids and positions disagree in length")
    if len(lower_ids) < 1 or len(upper_ids) < 1:
        raise IdealizationError("strips must contain at least one node")
    if len(lower_ids) == 1 and len(upper_ids) == 1:
        raise IdealizationError("cannot triangulate two single-node strips")
    lo_pos = np.asarray(lower_pos, dtype=float)
    up_pos = np.asarray(upper_pos, dtype=float)
    if np.any(np.diff(lo_pos) < 0) or np.any(np.diff(up_pos) < 0):
        raise IdealizationError("strip positions must not decrease")
    tris = _merge_zipper(
        np.asarray(lower_ids, dtype=np.int64), lo_pos,
        np.asarray(upper_ids, dtype=np.int64), up_pos,
    )
    return list(map(tuple, tris.tolist()))


def _rectangle_elements(ids: np.ndarray) -> np.ndarray:
    """All triangles of an ``(n_rows, n_cols)`` node-id block at once.

    Equal-length strips zip into the alternate-diagonal split: cell
    (r, c) always yields ``(L[c], L[c+1], U[c])`` then
    ``(L[c+1], U[c+1], U[c])``.
    """
    lower = ids[:-1]
    upper = ids[1:]
    n_rows, n_cols = lower.shape[0], lower.shape[1] - 1
    out = np.empty((n_rows, n_cols, 2, 3), dtype=np.int64)
    out[:, :, 0, 0] = lower[:, :-1]
    out[:, :, 0, 1] = lower[:, 1:]
    out[:, :, 0, 2] = upper[:, :-1]
    out[:, :, 1, 0] = lower[:, 1:]
    out[:, :, 1, 1] = upper[:, 1:]
    out[:, :, 1, 2] = upper[:, :-1]
    return out.reshape(-1, 3)


def subdivision_elements_array(grid: LatticeGrid, sub: Subdivision
                               ) -> np.ndarray:
    """All elements of one subdivision as an ``(e, 3)`` int array."""
    fixed, lo, hi = sub.strip_bounds()
    if len(fixed) < 2:
        raise IdealizationError(
            f"subdivision {sub.index} has fewer than two strips"
        )
    ids = grid.node_array(sub.lattice_points_array())
    if sub.kind == "rectangle":
        return _rectangle_elements(ids.reshape(len(fixed), -1))
    counts = hi - lo + 1
    starts = np.concatenate(([0], np.cumsum(counts)))
    pieces = []
    for s in range(len(fixed) - 1):
        lower_ids = ids[starts[s]:starts[s + 1]]
        upper_ids = ids[starts[s + 1]:starts[s + 2]]
        lower_pos = np.arange(lo[s], hi[s] + 1, dtype=float)
        upper_pos = np.arange(lo[s + 1], hi[s + 1] + 1, dtype=float)
        pieces.append(
            _merge_zipper(lower_ids, lower_pos, upper_ids, upper_pos)
        )
    return np.concatenate(pieces, axis=0)


def subdivision_elements(grid: LatticeGrid, sub: Subdivision
                         ) -> List[Triangle]:
    """All elements of one subdivision, via its strips."""
    return list(map(tuple, subdivision_elements_array(grid, sub).tolist()))


def create_elements(grid: LatticeGrid
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Elements for the whole assemblage.

    Returns ``(triangles, groups)``: an ``(e, 3)`` int array of node
    triples and a length-``e`` int array where ``groups[e]`` is the
    zero-based index into ``grid.subdivisions`` of the subdivision that
    produced element ``e`` -- the multi-material region tag.
    """
    pieces = [
        subdivision_elements_array(grid, sub) for sub in grid.subdivisions
    ]
    triangles = np.concatenate(pieces, axis=0)
    groups = np.repeat(
        np.arange(len(pieces)), [len(p) for p in pieces]
    )
    return triangles, groups
