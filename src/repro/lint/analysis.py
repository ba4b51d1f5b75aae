"""Pure-analysis wrappers over the runtime geometry objects.

The rules want the *runtime* semantics -- which side a segment lies on,
how many nodes a lattice produces -- without the runtime's raise-on-bad
behaviour.  :class:`ProblemAnalysis` builds each raw subdivision into a
strict :class:`~repro.core.idlz.subdivision.Subdivision` where possible,
remembers which ones failed (so rules can report them without cascading
noise), and lazily derives the grid-level facts several rule families
share: node/element counts, segment-side classification, and the
coordinate extremes of the shaping cards.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cards.parse import RawIdlzProblem, RawSegment
from repro.core.idlz.subdivision import Subdivision
from repro.errors import IdealizationError


class ProblemAnalysis:
    """Derived facts about one raw IDLZ problem."""

    def __init__(self, problem: RawIdlzProblem):
        self.problem = problem
        #: Strict subdivisions by index (first definition wins).
        self.built: Dict[int, Subdivision] = {}
        #: Raw subdivisions whose strict build failed.
        self.unbuildable: List[int] = []
        for raw in problem.subdivisions:
            try:
                sub = raw.build()
            except IdealizationError:
                self.unbuildable.append(raw.index)
                continue
            self.built.setdefault(raw.index, sub)
        self._counts: Optional[Tuple[int, int]] = None
        self._counts_known = False
        self._sides: Dict[int, Optional[str]] = {}

    @property
    def complete(self) -> bool:
        """Whether every subdivision built (duplicates aside)."""
        return not self.unbuildable

    def declared_indexes(self) -> List[int]:
        """Subdivision numbers on the type-4 cards, in order."""
        return [raw.index for raw in self.problem.subdivisions]

    # ------------------------------------------------------------------
    # Counts (nodes / elements the idealization would produce)
    # ------------------------------------------------------------------
    def counts(self) -> Optional[Tuple[int, int]]:
        """(n_nodes, n_elements), or ``None`` when not derivable."""
        if self._counts_known:
            return self._counts
        self._counts_known = True
        if not self.complete or not self.built:
            return None
        from repro.pipeline.idlz import lattice_counts

        # The number -> elements slice of the program pipeline: the
        # counts the full run would produce, without shaping, reforming
        # or touching disk.
        counts = lattice_counts(list(self.built.values()), "lint")
        self._counts = (counts.n_nodes, counts.n_elements)
        return self._counts

    # ------------------------------------------------------------------
    # Segment classification
    # ------------------------------------------------------------------
    def segment_side(self, seg: RawSegment) -> Optional[str]:
        """Which side of its subdivision a segment locates.

        Returns a side name, ``"point"`` for a point location, or
        ``None`` when the endpoints lie on no common side (or the
        subdivision never built).  Memoised by card number.
        """
        key = seg.card.number
        if key in self._sides:
            return self._sides[key]
        side = self._classify(seg)
        self._sides[key] = side
        return side

    def _classify(self, seg: RawSegment) -> Optional[str]:
        sub = self.built.get(seg.subdivision)
        if sub is None:
            return None
        a = (seg.k1, seg.l1)
        b = (seg.k2, seg.l2)
        if a == b:
            return "point" if sub.contains(*a) else None
        try:
            return sub.side_of_points(a, b)
        except IdealizationError:
            return None

    # ------------------------------------------------------------------
    # Real-coordinate extremes (for the FORMAT width rules)
    # ------------------------------------------------------------------
    def coordinate_extremes(self) -> Optional[Tuple[float, float,
                                                    float, float]]:
        """(xmin, xmax, ymin, ymax) over the shaping cards, or ``None``."""
        xs: List[float] = []
        ys: List[float] = []
        for seg in self.problem.segments:
            xs.extend((seg.x1, seg.x2))
            ys.extend((seg.y1, seg.y2))
        if not xs:
            return None
        return (min(xs), max(xs), min(ys), max(ys))
