"""Subdivisions: the rectangles, trapezoids and triangles of IDLZ.

The analyst represents the surface by an assemblage of subdivisions on an
integer lattice.  Each type-4 card carries the subdivision's lower-left
(KK1, LL1) and upper-right (KK2, LL2) integer corners -- the bounding box
-- plus two trapezoid indicators:

* ``NTAPRW`` != 0: an isosceles trapezoid whose *horizontal* sides are
  parallel.  Positive means the top side is the long one.  |NTAPRW| is
  half the change in node count from one row to the next, i.e. each row
  towards the short side loses |NTAPRW| nodes *on each end*.
* ``NTAPCM`` != 0: the 90-degree-rotated case -- *vertical* parallel
  sides; positive means the left side is the short one; each column
  towards the short side loses |NTAPCM| nodes on each end.

At most one indicator may be non-zero.  When the short parallel side
shrinks to a single node the subdivision is the paper's *triangular
subdivision* ("an isosceles trapezoid with its short parallel side reduced
to a point").

A subdivision knows its lattice points, its rows (or columns) and its four
logical sides; everything downstream (node numbering, element creation,
shaping) is phrased in terms of those.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import IdealizationError

#: Logical side names.  For row trapezoids LEFT/RIGHT are the slanted
#: sides; for column trapezoids TOP/BOTTOM slant.
SIDES = ("bottom", "right", "top", "left")

LatticePoint = Tuple[int, int]

#: Integer lattice coordinates start at 1 in both directions (the
#: paper's grids are 1-based).
MIN_K = 1
MIN_L = 1

#: The geometry faults a type-4 card can carry, as lint rule templates.
FAULT_MESSAGES: Dict[str, str] = {
    "IDZ101": "corners ({kk1},{ll1})-({kk2},{ll2}) do not span a box",
    "IDZ102": "NTAPRW = {ntaprw} and NTAPCM = {ntapcm} cannot both be "
              "non-zero",
    "IDZ103": "{indicator} = {value} shrinks the short parallel side "
              "below one node (would be {short})",
    "IDZ106": "lattice corner ({kk1},{ll1}) is below the grid origin; "
              "integer coordinates start at ({min_k},{min_l})",
}


@dataclass(frozen=True)
class Fault:
    """One geometry fault of a type-4 card."""

    code: str
    values: Dict[str, object]

    def __str__(self) -> str:
        return FAULT_MESSAGES[self.code].format(**self.values)


def _short_side(along: int, across: int, taper: int) -> int:
    """Nodes left on the short parallel side: each of the ``across - 1``
    strip steps loses ``|taper|`` nodes at each end of ``along``."""
    return along - 2 * abs(taper) * (across - 1)


def subdivision_faults(kk1: int, ll1: int, kk2: int, ll2: int,
                       ntaprw: int = 0, ntapcm: int = 0) -> List[Fault]:
    """Every geometry fault of one subdivision's card fields, in the
    order the runtime refuses them: IDZ101, IDZ106, IDZ102, IDZ103.

    The one statement of what a type-4 card may say: the strict
    :class:`Subdivision`, the deck readers, the number stage's origin
    floor and ``repro lint`` all ask it.
    """
    faults: List[Fault] = []
    boxed = kk2 > kk1 and ll2 > ll1
    if not boxed:
        faults.append(Fault("IDZ101", {"kk1": kk1, "ll1": ll1,
                                       "kk2": kk2, "ll2": ll2}))
    if kk1 < MIN_K or ll1 < MIN_L:
        faults.append(Fault("IDZ106", {"kk1": kk1, "ll1": ll1,
                                       "min_k": MIN_K, "min_l": MIN_L}))
    if ntaprw and ntapcm:
        faults.append(Fault("IDZ102", {"ntaprw": ntaprw,
                                       "ntapcm": ntapcm}))
    elif boxed:
        n_rows = ll2 - ll1 + 1
        n_cols = kk2 - kk1 + 1
        for indicator, value, along, across in (
                ("NTAPRW", ntaprw, n_cols, n_rows),
                ("NTAPCM", ntapcm, n_rows, n_cols)):
            short = _short_side(along, across, value)
            if value and short < 1:
                faults.append(Fault("IDZ103", {"indicator": indicator,
                                               "value": value,
                                               "short": short}))
    return faults


@dataclass(frozen=True)
class Subdivision:
    """One card-type-4 subdivision.

    Construction refuses the card faults IDZ101-103 as
    :class:`IdealizationError`.  A corner below the lattice origin
    (IDZ106) is a fault of the numbering, refused when the lattice is
    numbered (and by the deck readers, on the card).
    """

    index: int
    kk1: int
    ll1: int
    kk2: int
    ll2: int
    ntaprw: int = 0
    ntapcm: int = 0

    def __post_init__(self) -> None:
        faults = [f for f in self.faults() if f.code != "IDZ106"]
        if faults:
            raise IdealizationError(f"subdivision {self.index}: {faults[0]}")

    def faults(self) -> List[Fault]:
        """:func:`subdivision_faults` of this subdivision's fields."""
        return subdivision_faults(self.kk1, self.ll1, self.kk2, self.ll2,
                                  self.ntaprw, self.ntapcm)

    # ------------------------------------------------------------------
    # Basic shape queries
    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        """Lattice rows spanned by the bounding box."""
        return self.ll2 - self.ll1 + 1

    @property
    def n_cols(self) -> int:
        """Lattice columns spanned by the bounding box."""
        return self.kk2 - self.kk1 + 1

    @property
    def kind(self) -> str:
        """``'rectangle'``, ``'row_trapezoid'``, ``'column_trapezoid'``,
        or the degenerate ``'triangle'`` variants."""
        if self.ntaprw:
            short = _short_side(self.n_cols, self.n_rows, self.ntaprw)
            return "triangle" if short == 1 else "row_trapezoid"
        if self.ntapcm:
            short = _short_side(self.n_rows, self.n_cols, self.ntapcm)
            return "triangle" if short == 1 else "column_trapezoid"
        return "rectangle"

    @property
    def is_column_oriented(self) -> bool:
        """Whether the natural strips run column-to-column (NTAPCM)."""
        return self.ntapcm != 0

    # ------------------------------------------------------------------
    # Row/column spans
    # ------------------------------------------------------------------
    def row_span(self, l: int) -> Tuple[int, int]:
        """Inclusive (k_start, k_end) of the lattice row at height ``l``."""
        if not (self.ll1 <= l <= self.ll2):
            raise IdealizationError(
                f"subdivision {self.index}: row {l} outside "
                f"[{self.ll1}, {self.ll2}]"
            )
        p = self.ntaprw
        if p == 0:
            # Rectangles and column trapezoids: row extent comes from the
            # column spans (handled by lattice_points for the latter).
            if self.ntapcm == 0:
                return (self.kk1, self.kk2)
            raise IdealizationError(
                f"subdivision {self.index}: row_span undefined for a "
                "column trapezoid; use column_span"
            )
        if p > 0:
            inset = p * (self.ll2 - l)      # long side on top
        else:
            inset = -p * (l - self.ll1)     # long side on the bottom
        return (self.kk1 + inset, self.kk2 - inset)

    def column_span(self, k: int) -> Tuple[int, int]:
        """Inclusive (l_start, l_end) of the lattice column at ``k``."""
        if not (self.kk1 <= k <= self.kk2):
            raise IdealizationError(
                f"subdivision {self.index}: column {k} outside "
                f"[{self.kk1}, {self.kk2}]"
            )
        q = self.ntapcm
        if q == 0:
            if self.ntaprw == 0:
                return (self.ll1, self.ll2)
            raise IdealizationError(
                f"subdivision {self.index}: column_span undefined for a "
                "row trapezoid; use row_span"
            )
        if q > 0:
            inset = q * (self.kk2 - k)      # long side on the right
        else:
            inset = -q * (k - self.kk1)     # long side on the left
        return (self.ll1 + inset, self.ll2 - inset)

    def strip_bounds(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-strip ``(fixed, lo, hi)`` arrays: the strip's fixed lattice
        coordinate and its inclusive along-strip range.

        Row-oriented subdivisions yield ``(l, k_start, k_end)`` per row;
        column-oriented ones ``(k, l_start, l_end)`` per column.  This is
        the array form of :meth:`row_span`/:meth:`column_span` over every
        strip at once -- the generator the vectorized kernels build on.
        """
        if self.is_column_oriented:
            ks = np.arange(self.kk1, self.kk2 + 1)
            q = self.ntapcm
            if q > 0:
                inset = q * (self.kk2 - ks)       # long side on the right
            else:
                inset = -q * (ks - self.kk1)      # long side on the left
            return ks, self.ll1 + inset, self.ll2 - inset
        ls = np.arange(self.ll1, self.ll2 + 1)
        p = self.ntaprw
        if p > 0:
            inset = p * (self.ll2 - ls)           # long side on top
        elif p < 0:
            inset = -p * (ls - self.ll1)          # long side on the bottom
        else:
            inset = np.zeros_like(ls)
        return ls, self.kk1 + inset, self.kk2 - inset

    def lattice_points_array(self) -> np.ndarray:
        """``(n, 2)`` int array of ``(k, l)`` points in strip order.

        Same points, same order as :meth:`lattice_points`, generated
        without a Python-level loop over the points.
        """
        fixed, lo, hi = self.strip_bounds()
        counts = hi - lo + 1
        total = int(counts.sum())
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        strip = np.repeat(np.arange(len(counts)), counts)
        along = lo[strip] + (np.arange(total) - starts[strip])
        across = fixed[strip]
        if self.is_column_oriented:
            return np.column_stack((across, along))
        return np.column_stack((along, across))

    def strips(self) -> List[List[LatticePoint]]:
        """The node strips between which elements are built.

        Row-oriented subdivisions return one list per lattice row (bottom
        to top, each left to right); column-oriented ones return one list
        per column (left to right, each bottom to top).
        """
        if self.is_column_oriented:
            out = []
            for k in range(self.kk1, self.kk2 + 1):
                l0, l1 = self.column_span(k)
                out.append([(k, l) for l in range(l0, l1 + 1)])
            return out
        out = []
        for l in range(self.ll1, self.ll2 + 1):
            if self.ntaprw:
                k0, k1 = self.row_span(l)
            else:
                k0, k1 = self.kk1, self.kk2
            out.append([(k, l) for k in range(k0, k1 + 1)])
        return out

    def lattice_points(self) -> List[LatticePoint]:
        """Every lattice point of the subdivision (no duplicates)."""
        return list(map(tuple, self.lattice_points_array().tolist()))

    def contains(self, k: int, l: int) -> bool:
        if not (self.kk1 <= k <= self.kk2 and self.ll1 <= l <= self.ll2):
            return False
        if self.ntaprw:
            k0, k1 = self.row_span(l)
            return k0 <= k <= k1
        if self.ntapcm:
            l0, l1 = self.column_span(k)
            return l0 <= l <= l1
        return True

    # ------------------------------------------------------------------
    # Sides
    # ------------------------------------------------------------------
    def side_path(self, side: str) -> List[LatticePoint]:
        """Ordered lattice points along a logical side.

        Orientation convention: ``bottom``/``top`` run left to right,
        ``left``/``right`` run bottom to top.  For a triangular
        subdivision the degenerate side is a single point (the paper:
        "the point is located as if it were a line").
        """
        if side not in SIDES:
            raise IdealizationError(
                f"unknown side {side!r}; expected one of {SIDES}"
            )
        fixed, lo, hi = self.strip_bounds()
        if self.is_column_oriented:
            # Strip c is column kk1+c, bottom to top.
            if side == "left":
                k = self.kk1
                return [(k, l) for l in range(int(lo[0]), int(hi[0]) + 1)]
            if side == "right":
                k = self.kk2
                return [(k, l) for l in range(int(lo[-1]), int(hi[-1]) + 1)]
            ends = lo if side == "bottom" else hi
            return list(zip(fixed.tolist(), ends.tolist()))
        # Row-oriented: strip r is row ll1+r, left to right.
        if side == "bottom":
            l = self.ll1
            return [(k, l) for k in range(int(lo[0]), int(hi[0]) + 1)]
        if side == "top":
            l = self.ll2
            return [(k, l) for k in range(int(lo[-1]), int(hi[-1]) + 1)]
        ends = lo if side == "left" else hi
        return list(zip(ends.tolist(), fixed.tolist()))

    def opposite(self, side: str) -> str:
        return {"bottom": "top", "top": "bottom",
                "left": "right", "right": "left"}[side]

    def side_of_points(self, a: LatticePoint, b: LatticePoint) -> str:
        """Which side contains both lattice points (for shaping cards).

        Corner points belong to two sides; the side containing *both*
        points wins, preferring the one where they are distinct entries.
        Raises :class:`IdealizationError` when no side holds both.
        """
        candidates = []
        for side in SIDES:
            path = self.side_path(side)
            if a in path and b in path:
                candidates.append((side, len(path)))
        if not candidates:
            raise IdealizationError(
                f"subdivision {self.index}: lattice points {a} and {b} do "
                "not lie on a common side"
            )
        # Prefer the longest matching side (a point-side matches trivially
        # only when a == b is that point).
        candidates.sort(key=lambda c: -c[1])
        return candidates[0][0]

    def __str__(self) -> str:
        return (
            f"subdivision {self.index} [{self.kind}] "
            f"({self.kk1},{self.ll1})-({self.kk2},{self.ll2}) "
            f"NTAPRW={self.ntaprw} NTAPCM={self.ntapcm}"
        )
