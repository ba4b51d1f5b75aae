"""The one card walk: tolerant, card-located parses of every deck.

The three programs read their decks through this module, and so do
``repro lint`` and ``repro plan``, so all of them share one definition
of what a deck says.  A parse walks the card images a
:class:`~repro.cards.reader.CardReader` holds and

* keeps a :class:`CardView` (1-based card number + image) on every parsed
  entity, so rules and error messages can point at the exact card;
* records the problems no program can read past -- a truncated tray,
  an unreadable field, control characters, an over-wide card, a count
  that declares nothing, a reference off the node table, a request no
  analysis honours -- as diagnostics instead of raising, parsing as far
  as the deck stays coherent;
* defers semantic validation: a subdivision whose corners do not span a
  box still parses (:meth:`RawSubdivision.build` refuses it on its
  card, with the same code and words lint reports).

The runtime readers refuse a deck on the first of those diagnostics
(:func:`read_or_refuse`); lint reports them all.  A deck that lints
clean therefore reads, and a read failure names the card lint names.
Only a failing parse formats a rule message: a clean deck never loads
the lint package.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple,
    TypeVar, Union,
)

import numpy as np

from repro import obs
from repro.cards.card import CARD_WIDTH
from repro.cards.fortran_format import FortranFormat
from repro.cards.reader import CardReader
from repro.core.idlz.shaping import ShapingSegment
from repro.core.idlz.subdivision import Fault, Subdivision, subdivision_faults
from repro.errors import CardError, FormatError, IdealizationError

if TYPE_CHECKING:
    from repro.lint.diagnostics import Diagnostic

# ----------------------------------------------------------------------
# Card layouts (title and FORMAT cards are 12A6: CardView.hollerith)
# ----------------------------------------------------------------------

#: IDLZ, Appendix B: NSET; NOPLOT, NONUMB, NOPNCH, NSBDVN; a subdivision;
#: I, NLINES; a shaping line.
IDLZ_TYPE1 = FortranFormat("(I5)")
IDLZ_TYPE3 = FortranFormat("(4I5)")
IDLZ_TYPE4 = FortranFormat("(5I5, 5X, 2I5)")
IDLZ_TYPE5 = FortranFormat("(2I5)")
IDLZ_TYPE6 = FortranFormat("(4I5, 5F8.4)")

#: OSPL, Appendix C: NN, NE and the window; a node; an element.
OSPL_TYPE1 = FortranFormat("(2I5, 5F10.4)")
OSPL_TYPE3 = FortranFormat("(2F9.5, 22X, F10.3, I1)")
OSPL_TYPE4 = FortranFormat("(3I5)")

#: Keyword -> card format, for every card of an ANALYZE ... END section.
SECTION_FORMATS: Dict[str, FortranFormat] = {
    "ANALYZE": FortranFormat("(A8, A16)"),
    "MAT": FortranFormat("(A8, I8, 4F16.4)"),
    "TMAT": FortranFormat("(A8, I8, 3F16.4)"),
    "FIX": FortranFormat("(A8, A8, F16.4, A8)"),
    "TEMP": FortranFormat("(A8, A8, 2F16.4)"),
    "PRESSURE": FortranFormat("(A8, A8, 2F16.4)"),
    "FORCE": FortranFormat("(A8, A8, 3F16.4)"),
    "FLUX": FortranFormat("(A8, A8, 2F16.4)"),
    "PLOT": FortranFormat("(A8, A16)"),
    "SOLVER": FortranFormat("(A8, A8)"),
    "MODES": FortranFormat("(A8, I8)"),
    "END": FortranFormat("(A8)"),
}

#: Header keyword -> analysis family.
ANALYSES: Dict[str, str] = {
    "PSTRESS": "plane_stress",
    "PSTRAIN": "plane_strain",
    "AXISYM": "axisymmetric",
    "THERMAL": "thermal",
    "MODAL": "modal",
}

#: Solvers a SOLVER card may request (static analyses only).
SOLVERS: Tuple[str, ...] = ("banded", "skyline", "sparse")

#: Coordinate axes a selector card may address.
AXES: Tuple[str, ...] = ("x", "y")

#: Dof selections a FIX card may prescribe.
FIX_DOFS: Tuple[str, ...] = ("u", "v", "uv")

#: Control characters never come off a card punch.
_CONTROL = re.compile(r"[\x00-\x1f]")


@dataclass(frozen=True)
class CardView:
    """One card of the deck file, with its 1-based position."""

    number: int          # 1-based line number in the file
    text: str

    @property
    def hollerith(self) -> str:
        """The card read under 12A6: columns 1-72, trailing blanks
        dropped (titles and FORMAT cards)."""
        return self.text[:72].rstrip()


# ----------------------------------------------------------------------
# IDLZ raw entities
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RawSubdivision:
    """A type-4 card, unvalidated."""

    card: CardView
    index: int
    kk1: int
    ll1: int
    kk2: int
    ll2: int
    ntaprw: int
    ntapcm: int

    def faults(self) -> List[Fault]:
        """The card's geometry faults (IDZ101-103, IDZ106)."""
        return subdivision_faults(self.kk1, self.ll1, self.kk2, self.ll2,
                                  self.ntaprw, self.ntapcm)

    def build(self) -> Subdivision:
        """The runtime object; the card's first geometry fault is
        refused as ``IdealizationError("card N (IDZ10x): ...")``."""
        faults = self.faults()
        if faults:
            raise IdealizationError(
                f"card {self.card.number} ({faults[0].code}): {faults[0]}")
        return Subdivision(index=self.index, kk1=self.kk1, ll1=self.ll1,
                           kk2=self.kk2, ll2=self.ll2,
                           ntaprw=self.ntaprw, ntapcm=self.ntapcm)


@dataclass(frozen=True)
class RawSegment:
    """A type-6 card, unvalidated."""

    card: CardView
    subdivision: int
    k1: int
    l1: int
    k2: int
    l2: int
    x1: float
    y1: float
    x2: float
    y2: float
    radius: float

    def to_segment(self) -> ShapingSegment:
        return ShapingSegment(
            subdivision=self.subdivision, k1=self.k1, l1=self.l1,
            k2=self.k2, l2=self.l2, x1=self.x1, y1=self.y1,
            x2=self.x2, y2=self.y2, radius=self.radius,
        )


@dataclass(frozen=True)
class RawType5:
    """A type-5 card: which subdivision the next NLINES cards shape."""

    card: CardView
    subdivision: int
    nlines: int


@dataclass(frozen=True)
class RawFormat:
    """A type-7 card: one of the two punch FORMATs (blank = default)."""

    card: CardView
    role: str            # "nodal" | "element"
    spec: str


@dataclass
class RawIdlzProblem:
    """One data set of the deck, as far as it parsed."""

    number: int                       # 1-based problem index
    title_card: Optional[CardView] = None
    option_card: Optional[CardView] = None
    noplot: int = 0
    nonumb: int = 0
    nopnch: int = 0
    nsbdvn: int = 0
    subdivisions: List[RawSubdivision] = field(default_factory=list)
    type5: List[RawType5] = field(default_factory=list)
    segments: List[RawSegment] = field(default_factory=list)
    nodal_format: Optional[RawFormat] = None
    element_format: Optional[RawFormat] = None

    def limit_card(self, index: Optional[int]) -> Optional[CardView]:
        """The card a Table-2 excess is reported on: subdivision
        ``index``'s type-4 card for a corner past the grid, the type-3
        option card for a count."""
        return next((raw.card for raw in self.subdivisions
                     if raw.index == index), self.option_card)


@dataclass
class IdlzDeckModel:
    """A whole IDLZ deck, parsed."""

    path: str
    reader: CardReader
    nset: int = 0
    nset_card: Optional[CardView] = None
    problems: List[RawIdlzProblem] = field(default_factory=list)
    parse_diagnostics: List[Diagnostic] = field(default_factory=list)
    truncated: bool = False           # tray ran out mid-parse
    cards_consumed: int = 0           # how far the parse got


# ----------------------------------------------------------------------
# OSPL: type-3/4 cards are positional, so they are held as columns
# ----------------------------------------------------------------------

@dataclass
class OsplDeckModel:
    """A whole OSPL deck, parsed.

    Node ``i`` is the ``i``-th type-3 card and element ``j`` the
    ``j``-th type-4 card, so a row's card number is its offset from the
    first node card: :meth:`node_card` / :meth:`element_card`.
    """

    path: str
    reader: CardReader
    type1_card: Optional[CardView] = None
    nn: int = 0
    ne: int = 0
    xmx: float = 0.0
    xmn: float = 0.0
    ymx: float = 0.0
    ymn: float = 0.0
    delta: float = 0.0
    title_cards: List[CardView] = field(default_factory=list)
    first_node: int = 0               # card number of node 1
    #: One row per node read: (X, Y), S and the boundary flag N.
    xy: np.ndarray = field(default_factory=lambda: np.zeros((0, 2)))
    values: np.ndarray = field(default_factory=lambda: np.zeros(0))
    flags: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=int))
    #: One row per element read: N1, N2, N3 as punched (1-based).
    elements: np.ndarray = field(
        default_factory=lambda: np.zeros((0, 3), dtype=int))
    parse_diagnostics: List[Diagnostic] = field(default_factory=list)
    truncated: bool = False
    cards_consumed: int = 0

    def node_card(self, index: int) -> CardView:
        """The type-3 card of 1-based node ``index``."""
        number = self.first_node + index - 1
        return CardView(number, self.reader.images[number - 1])

    def element_card(self, index: int) -> CardView:
        """The type-4 card of 1-based element ``index``."""
        return self.node_card(self.nn + index)


# ----------------------------------------------------------------------
# Analyze raw entities
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RawMaterial:
    """A MAT card (a blank thickness reads as 1)."""

    card: CardView
    group: int
    youngs: float
    poisson: float
    thickness: float
    density: float


@dataclass(frozen=True)
class RawThermalMaterial:
    """A TMAT card (a blank density or specific heat reads as 1)."""

    card: CardView
    group: int
    conductivity: float
    density: float
    specific_heat: float


@dataclass(frozen=True)
class RawSupport:
    """A FIX card; ``axis`` and ``dofs`` are stripped field text."""

    card: CardView
    axis: str
    coord: float
    dofs: str


@dataclass(frozen=True)
class RawTemp:
    """A TEMP card; ``axis`` is stripped field text."""

    card: CardView
    axis: str
    coord: float
    value: float


@dataclass(frozen=True)
class RawLoad:
    """A PRESSURE, FORCE or FLUX card; ``kind`` is the keyword."""

    card: CardView
    kind: str
    axis: str
    coord: float
    values: Tuple[float, ...]


@dataclass(frozen=True)
class RawPlot:
    """A PLOT card; ``name`` is lower-cased field text."""

    card: CardView
    name: str


@dataclass
class AnalyzeDeckModel:
    """A whole analyze deck: the IDLZ prefix model plus the parse of
    the ANALYZE ... END section, off the same tray."""

    path: str
    reader: CardReader
    idlz: IdlzDeckModel
    header_card: Optional[CardView] = None
    family: Optional[str] = None      # header keyword, e.g. "PSTRESS"
    analysis: Optional[str] = None    # mapped family; None when unknown
    materials: List[RawMaterial] = field(default_factory=list)
    thermal_materials: List[RawThermalMaterial] = \
        field(default_factory=list)
    supports: List[RawSupport] = field(default_factory=list)
    temps: List[RawTemp] = field(default_factory=list)
    loads: List[RawLoad] = field(default_factory=list)
    plots: List[RawPlot] = field(default_factory=list)
    solver_card: Optional[CardView] = None
    solver: str = "banded"
    modes_card: Optional[CardView] = None
    modes: int = 3
    end_card: Optional[CardView] = None
    parse_diagnostics: List[Diagnostic] = field(default_factory=list)
    truncated: bool = False
    cards_consumed: int = 0


# ----------------------------------------------------------------------
# The walk
# ----------------------------------------------------------------------

_Model = TypeVar("_Model", IdlzDeckModel, OsplDeckModel, AnalyzeDeckModel)


class _Walk:
    """A cursor over a reader's card images that files diagnostics."""

    def __init__(self, source: Union[str, CardReader], path: str,
                 family: str):
        self.reader = (source if isinstance(source, CardReader)
                       else CardReader.from_text(source))
        self.images = self.reader.images
        self.pos = self.reader.position
        self.path = path
        self.family = family          # IDZ / OSP / ANA structural codes
        self.diagnostics: List[Diagnostic] = []
        self.truncated = False

    def close(self, model: _Model) -> _Model:
        """Stamp how far the walk got on ``model``; park the reader
        after it."""
        model.parse_diagnostics = list(self.diagnostics)
        model.truncated = self.truncated
        model.cards_consumed = self.reader.position = self.pos
        return model

    def emit(self, code: str, card: Optional[CardView], where: str,
             **values: Any) -> None:
        from repro.lint.context import LintContext

        LintContext(self.path, diagnostics=self.diagnostics).emit(
            code, card, where, **values)

    def check(self, number: int, text: str, expect: str,
              where: str) -> None:
        """What no card of any deck may be: wider than 80 columns, or
        holding control characters."""
        if len(text) > CARD_WIDTH:
            self.emit("IDZ004", CardView(number, text), where,
                      width=len(text), max=CARD_WIDTH)
        if _CONTROL.search(text):
            self.emit(f"{self.family}003", CardView(number, text), where,
                      expect=expect,
                      detail="card image contains control characters")

    def take(self, expect: str, where: str) -> Optional[CardView]:
        """The next card, or ``None`` (+ one truncation diagnostic)."""
        if self.pos >= len(self.images):
            if not self.truncated:
                self.truncated = True
                self.emit(f"{self.family}002", None, where,
                          count=len(self.images), expect=expect)
            return None
        card = CardView(self.pos + 1, self.images[self.pos])
        self.pos += 1
        self.check(card.number, card.text, expect, where)
        return card

    def take_nonblank(self, expect: str, where: str) -> Optional[CardView]:
        """The next card with any content (the analysis section skips
        blank cards)."""
        while True:
            card = self.take(expect, where)
            if card is None or card.text.strip():
                return card

    def read(self, fmt: FortranFormat, expect: str, where: str
             ) -> Tuple[Optional[CardView], Optional[List[Any]]]:
        """Read one card under ``fmt``; bad fields become diagnostics."""
        card = self.take(expect, where)
        if card is None:
            return None, None
        try:
            return card, fmt.read(card.text)
        except FormatError as exc:
            self.emit(f"{self.family}003", card, where,
                      expect=expect, detail=str(exc))
            return card, None

    def rows(self, fmt: FortranFormat, count: int, expect: str,
             noun: str) -> Tuple[List[List[Any]], bool]:
        """Up to ``count`` consecutive cards under one format, as value
        rows with no per-card objects; ``False`` when the walk lost
        coherence."""
        images, start = self.images, self.pos
        stop = min(start + count, len(images))
        rows: List[List[Any]] = []
        read = fmt.read
        for pos in range(start, stop):
            text = images[pos]
            if len(text) > CARD_WIDTH or _CONTROL.search(text):
                self.check(pos + 1, text, expect, f"{noun} {pos - start + 1}")
            try:
                rows.append(read(text))
            except FormatError as exc:
                self.pos = pos + 1
                self.emit(f"{self.family}003", CardView(pos + 1, text),
                          f"{noun} {pos - start + 1}", expect=expect,
                          detail=str(exc))
                return rows, False
        self.pos = stop
        if stop < start + count:
            self.take(expect, f"{noun} {stop - start + 1}")
            return rows, False
        return rows, True


def read_or_refuse(parse: Callable[[CardReader], _Model],
                   reader: CardReader) -> _Model:
    """Parse the way a program reads: count the cards consumed, then
    refuse the deck on the error on its earliest card, as a
    :class:`CardError` naming that card (an exhausted tray comes after
    every card)."""
    start = reader.position
    model = parse(reader)
    obs.count("cards.read", reader.position - start)
    errors = [d for d in model.parse_diagnostics if d.severity == "error"]
    if errors:
        first = min(errors, key=lambda d: d.location.card or math.inf)
        site = (f"card {first.location.card}" if first.location.card
                else "deck exhausted")
        raise CardError(f"{site} ({first.code}): {first.message}")
    return model


# ----------------------------------------------------------------------
# IDLZ
# ----------------------------------------------------------------------

def parse_idlz(source: Union[str, CardReader],
               path: str = "<deck>") -> IdlzDeckModel:
    """Parse an IDLZ deck as far as it stays structurally coherent."""
    walk = _Walk(source, path, "IDZ")
    return walk.close(_walk_idlz(walk))


def _walk_idlz(walk: _Walk) -> IdlzDeckModel:
    model = IdlzDeckModel(path=walk.path, reader=walk.reader)
    card, values = walk.read(IDLZ_TYPE1, "the type-1 card (NSET)", "deck")
    model.nset_card = card
    if values is None:
        return model
    model.nset = values[0]
    if model.nset < 1:
        walk.emit("IDZ001", card, "deck",
                  detail=f"NSET = {model.nset} declares no problems")
        return model
    for problem_no in range(1, model.nset + 1):
        problem = RawIdlzProblem(number=problem_no)
        model.problems.append(problem)
        if not _walk_idlz_problem(walk, problem, f"problem {problem_no}"):
            break
    return model


def _walk_idlz_problem(walk: _Walk, problem: RawIdlzProblem,
                       where: str) -> bool:
    """One data set; ``False`` when the tray lost coherence."""
    problem.title_card = walk.take("the type-2 title card", where)
    if problem.title_card is None:
        return False
    card, values = walk.read(IDLZ_TYPE3, "the type-3 option card", where)
    problem.option_card = card
    if values is None:
        return False
    problem.noplot, problem.nonumb, problem.nopnch, problem.nsbdvn = values
    if problem.nsbdvn < 1:
        walk.emit("IDZ008", card, where, nsbdvn=problem.nsbdvn)
        return False
    for _ in range(problem.nsbdvn):
        card, values = walk.read(IDLZ_TYPE4, "a type-4 subdivision card",
                                 where)
        if card is None or values is None:
            return False
        problem.subdivisions.append(RawSubdivision(card, *values))
    for _ in range(problem.nsbdvn):
        card, values = walk.read(IDLZ_TYPE5, "a type-5 card", where)
        if card is None or values is None:
            return False
        sub_no, nlines = values
        problem.type5.append(RawType5(card, sub_no, nlines))
        if nlines < 0:
            walk.emit("IDZ009", card, where, nlines=nlines,
                      subdivision=sub_no)
            return False
        for _ in range(nlines):
            card, values = walk.read(IDLZ_TYPE6, "a type-6 shaping card",
                                     where)
            if card is None or values is None:
                return False
            problem.segments.append(RawSegment(card, sub_no, *values))
    for role in ("nodal", "element"):
        card = walk.take(f"the {role} type-7 FORMAT card", where)
        if card is None:
            return False
        raw = RawFormat(card, role, card.hollerith)
        if role == "nodal":
            problem.nodal_format = raw
        else:
            problem.element_format = raw
    return True


# ----------------------------------------------------------------------
# OSPL
# ----------------------------------------------------------------------

def parse_ospl(source: Union[str, CardReader],
               path: str = "<deck>") -> OsplDeckModel:
    """Parse an OSPL deck as far as it stays structurally coherent."""
    walk = _Walk(source, path, "OSP")
    model = OsplDeckModel(path=path, reader=walk.reader)
    card, values = walk.read(OSPL_TYPE1, "the type-1 card (NN, NE, ...)",
                             "deck")
    model.type1_card = card
    if values is None:
        return walk.close(model)
    (model.nn, model.ne, model.xmx, model.xmn,
     model.ymx, model.ymn, model.delta) = values
    if model.nn < 3 or model.ne < 1:
        walk.emit("OSP001", card, "deck", nn=model.nn, ne=model.ne)
        return walk.close(model)
    for _ in range(2):
        title = walk.take("a type-2 title card", "deck")
        if title is None:
            return walk.close(model)
        model.title_cards.append(title)
    model.first_node = walk.pos + 1
    rows, coherent = walk.rows(OSPL_TYPE3, model.nn, "a type-3 nodal card",
                               "node")
    table = np.array(rows, dtype=float).reshape(-1, 4)
    model.xy = np.ascontiguousarray(table[:, :2])
    model.values = table[:, 2].copy()
    model.flags = table[:, 3].astype(int)
    if not coherent:
        return walk.close(model)
    rows, _ = walk.rows(OSPL_TYPE4, model.ne, "a type-4 element card",
                        "element")
    model.elements = np.array(rows, dtype=int).reshape(-1, 3)
    off_table = (model.elements < 1) | (model.elements > model.nn)
    for row, col in np.argwhere(off_table).tolist():
        walk.emit("OSP005", model.element_card(row + 1),
                  f"element {row + 1}", index=row + 1,
                  node=int(model.elements[row, col]), nn=model.nn)
    return walk.close(model)


# ----------------------------------------------------------------------
# Analyze
# ----------------------------------------------------------------------

def parse_analyze(source: Union[str, CardReader],
                  path: str = "<deck>") -> AnalyzeDeckModel:
    """Parse a combined deck: the IDLZ prefix, then the analysis cards.

    The section starts where the IDLZ walk stopped.  A missing or
    unrecognisable header card ends the walk (and consumes the rest of
    the tray so the trailing-card rule stays quiet -- one ANA001 tells
    the story).
    """
    walk = _Walk(source, path, "IDZ")
    idlz = walk.close(_walk_idlz(walk))
    model = AnalyzeDeckModel(path=path, reader=walk.reader, idlz=idlz)
    walk.family = "ANA"
    if idlz.truncated:
        return walk.close(model)
    if idlz.nset != 1:
        walk.emit("ANA010", idlz.nset_card, "deck", nset=idlz.nset)
    header = walk.take_nonblank("the ANALYZE header card", "analysis")
    if header is None:
        return walk.close(model)
    model.header_card = header
    keyword = header.text[:8].strip().upper()
    family = header.text[8:24].strip().upper()
    if keyword != "ANALYZE":
        walk.emit("ANA001", header, "analysis",
                  detail=f"got keyword {keyword!r}")
        walk.pos = len(walk.images)
        return walk.close(model)
    model.family = family
    model.analysis = ANALYSES.get(family)
    if model.analysis is None:
        walk.emit("ANA001", header, "analysis",
                  detail=f"unknown analysis {family!r} (known: "
                         f"{', '.join(sorted(ANALYSES))})")
        walk.pos = len(walk.images)
        return walk.close(model)
    while True:
        card = walk.take_nonblank("an analysis card (or END)", "analysis")
        if card is None:
            break
        keyword = card.text[:8].strip().upper()
        if keyword == "END":
            model.end_card = card
            break
        fmt = SECTION_FORMATS.get(keyword)
        if fmt is None or keyword == "ANALYZE":
            known = ", ".join(sorted(
                k for k in SECTION_FORMATS if k != "ANALYZE"
            ))
            walk.emit("ANA004", card, "analysis", keyword=keyword,
                      known=known)
            continue
        try:
            values = fmt.read(card.text)
        except FormatError as exc:
            walk.emit("ANA003", card, "analysis",
                      expect=f"a {keyword} card", detail=str(exc))
            continue
        _collect_analyze_card(walk, model, card, keyword, values)
    if model.solver not in SOLVERS:
        walk.emit("ANA009", model.solver_card, "analysis", keyword="SOLVER",
                  detail=f"unknown solver {model.solver!r} "
                         f"(known: {', '.join(SOLVERS)})")
    if model.modes < 1:
        walk.emit("ANA009", model.modes_card, "analysis", keyword="MODES",
                  detail=f"MODES = {model.modes} must be >= 1")
    return walk.close(model)


def _collect_analyze_card(walk: _Walk, model: AnalyzeDeckModel,
                          card: CardView, keyword: str,
                          values: List[Any]) -> None:
    """File one decoded analysis card into the model."""
    if keyword == "MAT":
        _, group, youngs, poisson, thickness, density = values
        model.materials.append(RawMaterial(
            card, group, youngs, poisson,
            thickness if thickness != 0.0 else 1.0, density))
    elif keyword == "TMAT":
        _, group, conductivity, density, specific_heat = values
        model.thermal_materials.append(RawThermalMaterial(
            card, group, conductivity,
            density if density != 0.0 else 1.0,
            specific_heat if specific_heat != 0.0 else 1.0))
    elif keyword == "PLOT":
        model.plots.append(RawPlot(card, values[1].strip().lower()))
    elif keyword == "SOLVER":
        model.solver_card = card
        model.solver = values[1].strip().lower()
    elif keyword == "MODES":
        model.modes_card = card
        model.modes = values[1]
    else:  # a selector card: FIX, TEMP or a load
        _, axis, coord, *rest = values
        axis = axis.strip()
        if axis.lower() not in AXES:
            walk.emit("ANA009", card, "analysis", keyword=keyword,
                      detail=f"selector axis must be X or Y, got {axis!r}")
        if keyword == "FIX":
            dofs = rest[0].strip()
            model.supports.append(RawSupport(card, axis, coord, dofs))
            if dofs.lower() not in FIX_DOFS:
                walk.emit("ANA009", card, "analysis", keyword="FIX",
                          detail=f"dofs must be U, V or UV, got {dofs!r}")
        elif keyword == "TEMP":
            model.temps.append(RawTemp(card, axis, coord, rest[0]))
        else:
            model.loads.append(RawLoad(card, keyword, axis, coord,
                                       tuple(rest)))


# ----------------------------------------------------------------------
# Programs: which one a tray belongs to, and its parse
# ----------------------------------------------------------------------

def classify_deck(images: Sequence[str]) -> str:
    """Decide whether a tray of card images is an IDLZ, OSPL or analyze
    deck.

    An IDLZ deck opens with a type-1 ``(I5)`` card carrying only NSET in
    columns 1-5, while an OSPL deck opens with ``(2I5, 5F10.4)`` -- NE
    is mandatory, so column 6 onward is never blank.  Leading blank
    cards are skipped.  An analyze deck is IDLZ-shaped but carries an
    ``ANALYZE <family>`` header card further down; both fields must
    match, so an IDLZ title card that merely *starts* with the word
    ANALYZE does not reclassify the deck.  A tray that fits none of
    these raises :class:`CardError`.
    """
    for line in images:
        if not line.strip():
            continue
        head = line[:5].strip()
        if not head:
            raise CardError(
                "cannot classify deck: first card has blank columns 1-5"
            )
        try:
            int(head)
        except ValueError:
            raise CardError(
                f"cannot classify deck: first card starts {head!r}, "
                "expected an integer count field"
            ) from None
        if line[5:].strip():
            return "ospl"
        if any(card[:8].strip().upper() == "ANALYZE"
               and card[8:24].strip().upper() in ANALYSES
               for card in images):
            return "analyze"
        return "idlz"
    raise CardError("cannot classify deck: no non-blank cards")


#: Program (as :func:`classify_deck` names it) -> its tolerant parse.
PARSERS = {"idlz": parse_idlz, "ospl": parse_ospl, "analyze": parse_analyze}
