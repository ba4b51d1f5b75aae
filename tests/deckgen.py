"""Seeded card decks: valid IDLZ, OSPL and analyze decks, and single-card
mutations of them.

The assemblage strategies also drive the kernel cross-checks
(``tests/test_kernel_crosscheck.py``).  Every generated deck is written
by the programs' own card writers, so a valid deck is exactly what the
punch would produce; a :class:`Deck` also records the role of each
card, which is what the mutations aim at.  Run the strategies under
``settings(derandomize=True)`` to keep them seeded.
"""

from dataclasses import dataclass
from typing import Dict, List

import numpy as np
from hypothesis import strategies as st

from repro.analyze.deck import (
    AnalyzeDeck,
    AnalyzeSpec,
    LoadCardSpec,
    MaterialCard,
    SupportCard,
    TempCard,
    ThermalMaterialCard,
    write_analyze_deck,
)
from repro.core.idlz.deck import IdlzProblem, write_idlz_deck
from repro.core.idlz.shaping import ShapingSegment
from repro.core.idlz.subdivision import Subdivision
from repro.core.ospl.deck import problem_from_analysis, write_ospl_deck
from repro.fem.mesh import Mesh
from repro.fem.results import NodalField

# ----------------------------------------------------------------------
# Assemblages
# ----------------------------------------------------------------------


@st.composite
def chain_assemblages(draw):
    """A horizontal chain of rectangles shaped to a random quad strip.

    Bottom and top boundary heights vary per breakpoint, so shaping
    produces skewed quads and the reform sweep has real work to do.
    """
    n_subs = draw(st.integers(1, 3))
    widths = [draw(st.integers(1, 3)) for _ in range(n_subs)]
    rows = draw(st.integers(1, 4))
    ks = [1]
    for w in widths:
        ks.append(ks[-1] + w)
    total = ks[-1] - 1
    span = draw(st.floats(2.0, 15.0))
    xs = [span * (k - 1) / total for k in ks]
    y_bot = [draw(st.floats(-1.0, 1.0)) for _ in ks]
    y_top = [draw(st.floats(3.0, 6.0)) for _ in ks]
    subdivisions = []
    segments = []
    for i in range(n_subs):
        subdivisions.append(Subdivision(
            index=i + 1, kk1=ks[i], ll1=1, kk2=ks[i + 1], ll2=1 + rows,
        ))
        segments.append(ShapingSegment(
            i + 1, ks[i], 1, ks[i + 1], 1,
            xs[i], y_bot[i], xs[i + 1], y_bot[i + 1],
        ))
        segments.append(ShapingSegment(
            i + 1, ks[i], 1 + rows, ks[i + 1], 1 + rows,
            xs[i], y_top[i], xs[i + 1], y_top[i + 1],
        ))
    return subdivisions, segments


@st.composite
def tapered_assemblages(draw):
    """A single tapered subdivision: trapezoid or triangle, either
    orientation, shaped by its two parallel (possibly degenerate)
    sides."""
    taper = draw(st.sampled_from([1, -1]))
    across = draw(st.integers(2, 4))       # strips
    long_side = draw(st.integers(2 * (across - 1) + 1,
                                 2 * (across - 1) + 5))
    column = draw(st.booleans())
    width = draw(st.floats(2.0, 10.0))
    height = draw(st.floats(2.0, 10.0))
    if column:
        sub = Subdivision(index=1, kk1=1, ll1=1,
                          kk2=across, ll2=long_side, ntapcm=taper)
        (l0a, l1a) = sub.column_span(sub.kk1)
        (l0b, l1b) = sub.column_span(sub.kk2)
        segments = [
            ShapingSegment(1, sub.kk1, l0a, sub.kk1, l1a,
                           0.0, float(l0a - 1) * height / long_side,
                           0.0, float(l1a - 1) * height / long_side),
            ShapingSegment(1, sub.kk2, l0b, sub.kk2, l1b,
                           width, float(l0b - 1) * height / long_side,
                           width, float(l1b - 1) * height / long_side),
        ]
    else:
        sub = Subdivision(index=1, kk1=1, ll1=1,
                          kk2=long_side, ll2=across, ntaprw=taper)
        (k0a, k1a) = sub.row_span(sub.ll1)
        (k0b, k1b) = sub.row_span(sub.ll2)
        segments = [
            ShapingSegment(1, k0a, sub.ll1, k1a, sub.ll1,
                           float(k0a - 1) * width / long_side, 0.0,
                           float(k1a - 1) * width / long_side, 0.0),
            ShapingSegment(1, k0b, sub.ll2, k1b, sub.ll2,
                           float(k0b - 1) * width / long_side, height,
                           float(k1b - 1) * width / long_side, height),
        ]
    return [sub], segments


def any_assemblage():
    return st.one_of(chain_assemblages(), tapered_assemblages())


# ----------------------------------------------------------------------
# Valid decks
# ----------------------------------------------------------------------


@dataclass
class Deck:
    """A deck's card images, and what each card is (``roles[i]``)."""

    program: str
    cards: List[str]
    roles: List[str]

    def text(self) -> str:
        return text_of(self.cards)


def _idlz_roles(problem: IdlzProblem) -> List[str]:
    roles = ["NSET", "title", "NSBDVN"]
    roles += ["subdivision"] * len(problem.subdivisions)
    for sub in problem.subdivisions:
        lines = sum(seg.subdivision == sub.index for seg in problem.segments)
        roles += ["NLINES"] + ["segment"] * lines
    return roles + ["format", "format"]


@st.composite
def idlz_decks(draw):
    subdivisions, segments = draw(any_assemblage())
    problem = IdlzProblem(title="GENERATED", subdivisions=subdivisions,
                          segments=segments)
    cards = [str(c) for c in write_idlz_deck([problem]).cards]
    return Deck("idlz", cards, _idlz_roles(problem))


@st.composite
def ospl_decks(draw):
    """A K x L grid of right triangles under a linear field."""
    k = draw(st.integers(2, 5))
    l = draw(st.integers(2, 5))
    dx = draw(st.floats(0.5, 10.0))
    dy = draw(st.floats(0.5, 10.0))
    slope = draw(st.floats(1.0, 50.0))
    xs, ys = np.meshgrid(np.arange(k) * dx, np.arange(l) * dy)
    nodes = np.column_stack([xs.ravel(), ys.ravel()])
    elements = []
    for j in range(l - 1):
        for i in range(k - 1):
            a, b = j * k + i, j * k + i + 1
            c, d = b + k, a + k
            elements += [(a, b, c), (a, c, d)]
    mesh = Mesh(nodes=nodes, elements=np.array(elements))
    field = NodalField("S", slope * (nodes[:, 0] + 2.0 * nodes[:, 1]))
    problem = problem_from_analysis(mesh, field, title1="GENERATED",
                                    title2="FIELD")
    cards = [str(c) for c in write_ospl_deck(problem).cards]
    roles = (["NN", "title", "title"] + ["node"] * len(nodes)
             + ["element"] * len(elements))
    return Deck("ospl", cards, roles)


@st.composite
def analyze_decks(draw):
    """A chain of flat rectangles, clamped at the bottom and loaded at
    the top, under one of the five analysis families."""
    n_subs = draw(st.integers(1, 2))
    widths = [draw(st.integers(1, 2)) for _ in range(n_subs)]
    rows = draw(st.integers(1, 3))
    x0 = draw(st.floats(1.0, 5.0))           # off the axis (AXISYM)
    step = draw(st.floats(0.5, 3.0))
    height = round(draw(st.floats(1.0, 8.0)), 4)
    ks = [1]
    for w in widths:
        ks.append(ks[-1] + w)
    subdivisions, segments = [], []
    for i in range(n_subs):
        subdivisions.append(Subdivision(index=i + 1, kk1=ks[i], ll1=1,
                                        kk2=ks[i + 1], ll2=1 + rows))
        xa = round(x0 + step * (ks[i] - 1), 4)
        xb = round(x0 + step * (ks[i + 1] - 1), 4)
        segments += [
            ShapingSegment(i + 1, ks[i], 1, ks[i + 1], 1, xa, 0.0, xb, 0.0),
            ShapingSegment(i + 1, ks[i], 1 + rows, ks[i + 1], 1 + rows,
                           xa, height, xb, height),
        ]
    problem = IdlzProblem(title="GENERATED", subdivisions=subdivisions,
                          segments=segments)
    analysis = draw(st.sampled_from([
        "plane_stress", "plane_strain", "axisymmetric", "thermal", "modal"]))
    groups = range(1, n_subs + 1)
    if analysis == "thermal":
        spec = AnalyzeSpec(
            analysis=analysis,
            thermal_materials=tuple(
                ThermalMaterialCard(group=g, conductivity=45.0)
                for g in groups),
            temps=(TempCard(axis="y", coord=0.0, value=100.0),
                   TempCard(axis="y", coord=height, value=0.0)),
            plots=("temperature",),
        )
    else:
        modal = analysis == "modal"
        spec = AnalyzeSpec(
            analysis=analysis,
            materials=tuple(
                MaterialCard(group=g, youngs=30.0e6, poisson=0.3,
                             thickness=0.25, density=0.28 if modal else 0.0)
                for g in groups),
            supports=(SupportCard(axis="y", coord=0.0, dofs="uv"),),
            loads=() if modal else (LoadCardSpec(
                kind="pressure", axis="y", coord=height, values=(1000.0,)),),
            plots=("mode1",) if modal else ("effective", "displacement"),
            modes=2 if modal else 3,
        )
    deck = AnalyzeDeck(problem=problem, spec=spec)
    cards = [str(c) for c in write_analyze_deck(deck).cards]
    roles = _idlz_roles(problem)
    roles += [card[:8].strip() for card in cards[len(roles):]]
    return Deck("analyze", cards, roles)


# ----------------------------------------------------------------------
# Single-card mutations
# ----------------------------------------------------------------------

#: Role -> column of a numeric field the garble mutation overwrites.
_NUMERIC_COLUMN = {
    "NSET": 3, "NSBDVN": 3, "subdivision": 3, "NLINES": 3, "segment": 3,
    "NN": 3, "node": 3, "element": 3,
    "MAT": 12, "TMAT": 12, "MODES": 12,
    "FIX": 20, "TEMP": 20, "PRESSURE": 20, "FORCE": 20, "FLUX": 20,
}

#: Role -> (first column, width) of the count the bump mutation changes.
_COUNT_FIELD = {"NSET": (0, 5), "NSBDVN": (15, 5), "NLINES": (5, 5),
                "NN": (0, 5)}

#: Control characters a card might pick up (none of them ends a line).
_CONTROLS = "\t\x00\x01\x07\x1b"


def _replace(text: str, column: int, new: str) -> str:
    text = text.ljust(column + len(new))
    return text[:column] + new + text[column + len(new):]


def _at(deck: Deck, roles):
    """An index of a card with one of ``roles`` (nothing if none)."""
    indexes = [i for i, role in enumerate(deck.roles) if role in roles]
    return st.sampled_from(indexes) if indexes else st.nothing()


def _edit(deck: Deck, index: int, text: str) -> List[str]:
    cards = list(deck.cards)
    cards[index] = text
    return cards


def _before_end(deck: Deck, card: str) -> List[str]:
    end = deck.roles.index("END")
    return deck.cards[:end] + [card] + deck.cards[end:]


def mutations(deck: Deck) -> Dict[str, st.SearchStrategy]:
    """Kind -> strategy of mutated card lists: one card dropped, edited
    or added, the way a keypunch operator could get it wrong."""
    n = len(deck.cards)
    cards = deck.cards
    kinds = {
        "drop": st.integers(0, n - 1).map(
            lambda i: cards[:i] + cards[i + 1:]),
        "garble": _at(deck, _NUMERIC_COLUMN).map(lambda i: _edit(
            deck, i, _replace(cards[i], _NUMERIC_COLUMN[deck.roles[i]],
                              "X"))),
        "widen": st.integers(0, n - 1).map(
            lambda i: _edit(deck, i, cards[i].ljust(81))),
        "control": st.tuples(st.integers(0, n - 1), st.integers(0, 79),
                             st.sampled_from(_CONTROLS)).map(
            lambda t: _edit(deck, t[0],
                            cards[t[0]][:t[1]] + t[2] + cards[t[0]][t[1]:])),
        "bump": st.tuples(_at(deck, _COUNT_FIELD),
                          st.sampled_from([-2, -1, 1, 2])).map(
            lambda t: _edit(deck, t[0], _bump(deck, *t))),
    }
    if deck.program in ("idlz", "analyze"):
        kinds.update(geometry_mutations(deck))
    if deck.program == "ospl":
        nn = int(cards[0][:5])
        kinds["node"] = st.tuples(
            _at(deck, ("element",)), st.integers(0, 2),
            st.sampled_from([0, -1, nn + 1, nn + 7]),
        ).map(lambda t: _edit(
            deck, t[0], _replace(cards[t[0]], 5 * t[1], f"{t[2]:5d}")))
    if deck.program == "analyze":
        kinds.update({
            "keyword": _at(deck, ("ANALYZE", "MAT", "TMAT", "FIX", "TEMP",
                                  "PRESSURE", "PLOT", "MODES", "END")
                           ).map(lambda i: _edit(
                deck, i, _replace(cards[i], 0, cards[i][:8][::-1]))),
            "axis": _at(deck, ("FIX", "TEMP", "PRESSURE")).map(
                lambda i: _edit(deck, i, _replace(cards[i], 8, "Z" * 8))),
            "dofs": _at(deck, ("FIX",)).map(
                lambda i: _edit(deck, i, _replace(cards[i], 32, "W" * 8))),
            "solver": st.sampled_from(["GAUSS", "", "BAND"]).map(
                lambda name: _before_end(deck, f"{'SOLVER':<8}{name:<8}")),
            "modes": st.sampled_from([-2, 0]).map(
                lambda modes: _before_end(deck, f"{'MODES':<8}{modes:8d}")),
        })
    return kinds


#: Type-4 card columns (5I5, 5X, 2I5) of KK1, LL1, KK2, LL2, NTAPRW and
#: NTAPCM; type-6 columns (4I5, ...) of K1 and K2.
_KK1, _LL1, _KK2, _NTAPRW, _NTAPCM = 5, 10, 15, 30, 35
_K1, _K2 = 0, 10


def _field(card: str, column: int) -> int:
    return int(card[column:column + 5].strip() or 0)


def _set(card: str, **fields: int) -> str:
    columns = {"kk1": _KK1, "ll1": _LL1, "kk2": _KK2, "ntaprw": _NTAPRW,
               "ntapcm": _NTAPCM, "k1": _K1, "k2": _K2}
    for name, value in fields.items():
        card = _replace(card, columns[name], f"{value:5d}")
    return card


def shifted(deck: Deck, dk: int) -> List[str]:
    """The whole assemblage moved ``dk`` lattice columns right: every
    type-4 and type-6 card, so the deck stays valid."""
    out = []
    for card, role in zip(deck.cards, deck.roles):
        if role == "subdivision":
            card = _set(card, kk1=_field(card, _KK1) + dk,
                        kk2=_field(card, _KK2) + dk)
        elif role == "segment":
            card = _set(card, k1=_field(card, _K1) + dk,
                        k2=_field(card, _K2) + dk)
        out.append(card)
    return out


def geometry_mutations(deck: Deck) -> Dict[str, st.SearchStrategy]:
    """Kind -> strategy of IDLZ geometry faults: one type-4 card edited
    into a collapsed box (IDZ101), both taper flags (IDZ102), an
    over-taper (IDZ103) or a corner below the origin (IDZ106); or the
    whole assemblage moved past the Table-2 grid (LIM002, a valid
    deck)."""
    cards = deck.cards

    def edit(**fields: object) -> st.SearchStrategy:
        def one(i: int) -> List[str]:
            values = {name: (value(cards[i]) if callable(value) else value)
                      for name, value in fields.items()}
            return _edit(deck, i, _set(cards[i], **values))
        return _at(deck, ("subdivision",)).map(one)

    return {
        "collapse": edit(kk2=lambda card: _field(card, _KK1)),
        "both_tapers": edit(
            ntaprw=lambda card: _field(card, _NTAPRW) or 1,
            ntapcm=lambda card: _field(card, _NTAPCM) or 1),
        "over_taper": edit(ntaprw=9, ntapcm=0),
        "below_origin": st.one_of(edit(kk1=0), edit(ll1=0)),
        "past_table2": st.just(shifted(deck, 40)),
    }


def any_mutation(deck: Deck) -> st.SearchStrategy:
    return st.one_of(list(mutations(deck).values()))


def _bump(deck: Deck, index: int, delta: int) -> str:
    column, width = _COUNT_FIELD[deck.roles[index]]
    text = deck.cards[index]
    value = int(text[column:column + width]) + delta
    return _replace(text, column, f"{value:{width}d}")


def text_of(cards: List[str]) -> str:
    return "\n".join(cards) + "\n"
