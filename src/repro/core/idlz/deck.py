"""The IDLZ input deck: card types 1-7 of Appendix B.

Deck layout (one run = NSET problems):

    type 1  (I5)            NSET
    -- per problem --------------------------------------------------
    type 2  (12A6)          title
    type 3  (4I5)           NOPLOT, NONUMB, NOPNCH, NSBDVN
    type 4  (5I5, 5X, 2I5)  I, KK1, LL1, KK2, LL2, NTAPRW, NTAPCM
                            ... one per subdivision ...
    -- per subdivision ----------------------------------------------
    type 5  (2I5)           I, NLINES
    type 6  (4I5, 5F8.4)    K1, L1, K2, L2, X1, Y1, X2, Y2, RADIUS
                            ... NLINES of them ...
    -- finally ------------------------------------------------------
    type 7  (12A6)          nodal-card FORMAT
    type 7  (12A6)          element-card FORMAT

Reading and writing round-trip byte-exactly for decks this module
produces.  F8.4 fields honour FORTRAN implied-decimal input.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from repro.cards.parse import (
    IDLZ_TYPE1,
    IDLZ_TYPE3,
    IDLZ_TYPE4,
    IDLZ_TYPE5,
    IDLZ_TYPE6,
    RawIdlzProblem,
    parse_idlz,
    read_or_refuse,
)
from repro.cards.reader import CardReader
from repro.cards.writer import CardWriter
from repro.core.idlz.pipeline import Idealization, Idealizer
from repro.core.idlz.shaping import ShapingSegment
from repro.core.idlz.subdivision import Subdivision
from repro.errors import LimitError

#: The FORMATs "compatible with the finite element analysis program of
#: reference 1" quoted in Appendix B.
DEFAULT_NODAL_FORMAT = "(2F9.5, 51X, I3, 5X, I3)"
DEFAULT_ELEMENT_FORMAT = "(3I5, 62X, I3)"


@dataclass
class IdlzProblem:
    """One data set of the IDLZ deck."""

    title: str
    subdivisions: List[Subdivision]
    segments: List[ShapingSegment]
    noplot: int = 0
    nonumb: int = 1
    nopnch: int = 0
    nodal_format: str = DEFAULT_NODAL_FORMAT
    element_format: str = DEFAULT_ELEMENT_FORMAT
    #: The parsed cards, when the problem came off a deck.
    source: Optional[RawIdlzProblem] = field(default=None, compare=False,
                                             repr=False)

    def idealizer(self, strict: bool = False,
                  prefer_pairs: Optional[Dict[int, str]] = None) -> Idealizer:
        return Idealizer(
            title=self.title,
            subdivisions=self.subdivisions,
            renumber=bool(self.nonumb),
            strict=strict,
            prefer_pairs=prefer_pairs,
        )

    def run(self, strict: bool = False) -> Idealization:
        with self.cards_named():
            return self.idealizer(strict=strict).run(self.segments)

    @contextmanager
    def cards_named(self) -> Iterator[None]:
        """Name the deck card of a :class:`LimitError` raised inside."""
        try:
            yield
        except LimitError as exc:
            card = self.source.limit_card(exc.index) if self.source else None
            if card is None:
                raise
            raise exc.at_card(card.number) from None

    def input_value_count(self) -> int:
        """Data values the analyst keypunched for this problem.

        Counts the numeric payload of the type 3-6 cards (titles and
        FORMAT cards are bookkeeping, as is NSET); used for the paper's
        "less than five percent" claim.
        """
        count = 4  # type 3
        count += 7 * len(self.subdivisions)  # type 4
        by_sub: Dict[int, int] = {}
        for seg in self.segments:
            by_sub[seg.subdivision] = by_sub.get(seg.subdivision, 0) + 1
        for sub in self.subdivisions:
            count += 2  # type 5
            count += 9 * by_sub.get(sub.index, 0)  # type 6
        return count


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------

def read_idlz_deck(reader: CardReader) -> List[IdlzProblem]:
    """Parse a full IDLZ card deck into problems.

    Refuses the deck on the first error of :func:`parse_idlz`, then on
    the first geometry fault of a type-4 card, as
    ``IdealizationError("card N (IDZ10x): ...")``.
    """
    model = read_or_refuse(parse_idlz, reader)
    return [problem_from_raw(raw) for raw in model.problems]


def problem_from_raw(raw: RawIdlzProblem) -> IdlzProblem:
    """The runtime problem of one fully parsed data set."""
    assert raw.title_card is not None
    assert raw.nodal_format is not None and raw.element_format is not None
    return IdlzProblem(
        title=raw.title_card.hollerith,
        subdivisions=[sub.build() for sub in raw.subdivisions],
        segments=[seg.to_segment() for seg in raw.segments],
        noplot=raw.noplot,
        nonumb=raw.nonumb,
        nopnch=raw.nopnch,
        nodal_format=raw.nodal_format.spec or DEFAULT_NODAL_FORMAT,
        element_format=raw.element_format.spec or DEFAULT_ELEMENT_FORMAT,
        source=raw,
    )


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------

def write_idlz_deck(problems: Sequence[IdlzProblem]) -> CardWriter:
    """Punch a complete IDLZ input deck."""
    writer = CardWriter()
    writer.punch(IDLZ_TYPE1, [len(problems)])
    for problem in problems:
        _write_problem(writer, problem)
    return writer


def _write_problem(writer: CardWriter, problem: IdlzProblem) -> None:
    writer.punch_card(problem.title[:72])
    writer.punch(IDLZ_TYPE3, [
        problem.noplot, problem.nonumb, problem.nopnch,
        len(problem.subdivisions),
    ])
    for sub in problem.subdivisions:
        writer.punch(IDLZ_TYPE4, [
            sub.index, sub.kk1, sub.ll1, sub.kk2, sub.ll2,
            sub.ntaprw, sub.ntapcm,
        ])
    by_sub: Dict[int, List[ShapingSegment]] = {}
    for seg in problem.segments:
        by_sub.setdefault(seg.subdivision, []).append(seg)
    for sub in problem.subdivisions:
        segs = by_sub.get(sub.index, [])
        writer.punch(IDLZ_TYPE5, [sub.index, len(segs)])
        for seg in segs:
            writer.punch(IDLZ_TYPE6, [
                seg.k1, seg.l1, seg.k2, seg.l2,
                seg.x1, seg.y1, seg.x2, seg.y2, seg.radius,
            ])
    writer.punch_card(problem.nodal_format[:72])
    writer.punch_card(problem.element_format[:72])
