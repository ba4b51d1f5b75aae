"""Seeded card decks, written as fixed-column text by the benchmark itself.

Nothing here imports ``repro``: the decks are a function of the seed
alone, so the same seed gives byte-identical decks on every commit of
the program under test.  Every generator also returns the counts the
program should report, known in closed form:

* an IDLZ rectangle with KK2 x LL2 lattice points has ``K * L`` nodes and
  ``2 (K-1) (L-1)`` triangles, whatever the shaping lines do to the
  coordinates (reform only swaps diagonals);
* an OSPL deck lists its nodes and triangles explicitly, and with an
  explicit DELTA its isogram levels are the multiples of DELTA inside
  the field's range.

Card layouts (Appendix B and C, and the ANALYZE section):

    IDLZ   I5 | 12A6 | 4I5 | 5I5,5X,2I5 | 2I5 | 4I5,5F8.4 | 12A6 x2
    OSPL   2I5,5F10.4 | 12A6 x2 | 2F9.5,22X,F10.3,I1 | 3I5
    ANALYZE keyword A8, then A8 / I8 / F16.4 fields
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

NODAL_FORMAT = "(2F9.5, 51X, I3, 5X, I3)"
ELEMENT_FORMAT = "(3I5, 62X, I3)"

#: Fields a PLOT card may name in every static family.
STATIC_PLOTS = ("EFFECTIVE", "SHEAR", "PRINCIPAL_MIN", "DISPLACEMENT")

#: Distinct PLOT selections, in the order edits walk through them.
PLOT_SETS: Tuple[Tuple[str, ...], ...] = tuple(
    [(p,) for p in STATIC_PLOTS]
    + [(a, b) for i, a in enumerate(STATIC_PLOTS)
       for b in STATIC_PLOTS[i + 1:]]
)

ANALYSES = ("PSTRESS", "PSTRAIN", "AXISYM")


def _i5(*values: int) -> str:
    return "".join(f"{v:5d}" for v in values)


def _f(value: float, width: int, decimals: int) -> str:
    text = f"{value:{width}.{decimals}f}"
    if len(text) > width:
        raise ValueError(f"{value} does not fit F{width}.{decimals}")
    return text


@dataclass
class IdlzSpec:
    """One single-subdivision IDLZ problem: a shaped K x L lattice.

    The bottom row runs from (0, 0) to (width, 0); the top row from
    (inset, height) to (width - inset + shear, height + top_rise).
    A non-zero inset makes a trapezoid, a non-zero shear or rise a
    skewed plate whose diagonals reform swaps.
    """

    title: str
    k: int
    l: int
    width: float
    height: float
    inset: float = 0.0
    shear: float = 0.0
    top_rise: float = 0.0
    noplot: int = 0
    nonumb: int = 1
    nopnch: int = 0

    @property
    def nodes(self) -> int:
        return self.k * self.l

    @property
    def elements(self) -> int:
        return 2 * (self.k - 1) * (self.l - 1)

    def cards(self) -> List[str]:
        k, l = self.k, self.l
        x1t = self.inset
        x2t = self.width - self.inset + self.shear
        return [
            self.title[:72],
            _i5(self.noplot, self.nonumb, self.nopnch, 1),
            _i5(1, 1, 1, k, l) + " " * 5 + _i5(0, 0),
            _i5(1, 2),
            _i5(1, 1, k, 1) + "".join(_f(v, 8, 4) for v in (
                0.0, 0.0, self.width, 0.0, 0.0)),
            _i5(1, l, k, l) + "".join(_f(v, 8, 4) for v in (
                x1t, self.height, x2t, self.height + self.top_rise, 0.0)),
            NODAL_FORMAT,
            ELEMENT_FORMAT,
        ]

    def deck(self) -> str:
        return _text([_i5(1)] + self.cards())


@dataclass
class AnalyzeSpec:
    """An IDLZ problem plus an ANALYZE section: fixed bottom, loaded top."""

    idlz: IdlzSpec
    analysis: str = "PSTRESS"
    youngs: float = 30.0e6
    poisson: float = 0.3
    thickness: float = 0.25
    pressure: float = 1000.0
    plots: Tuple[str, ...] = ("EFFECTIVE",)
    solver: str = ""

    @property
    def nodes(self) -> int:
        return self.idlz.nodes

    @property
    def elements(self) -> int:
        return self.idlz.elements

    def cards(self) -> List[str]:
        top = self.idlz.height + self.idlz.top_rise
        cards = [
            f"{'ANALYZE':<8}{self.analysis:<16}",
            f"{'MAT':<8}{1:8d}" + "".join(_f(v, 16, 4) for v in (
                self.youngs, self.poisson, self.thickness, 0.0)),
            f"{'FIX':<8}{'Y':<8}{_f(0.0, 16, 4)}{'UV':<8}",
            f"{'PRESSURE':<8}{'Y':<8}{_f(top, 16, 4)}"
            f"{_f(self.pressure, 16, 4)}",
        ]
        cards += [f"{'PLOT':<8}{p:<16}" for p in self.plots]
        if self.solver:
            cards.append(f"{'SOLVER':<8}{self.solver:<8}")
        cards.append(f"{'END':<8}")
        return cards

    def deck(self) -> str:
        # The ANALYZE section addresses the top edge by its y coordinate,
        # so the top row must stay level.
        if self.idlz.top_rise != 0.0:
            raise ValueError("analyze decks need a level top row")
        return _text([_i5(1)] + self.idlz.cards() + self.cards())


@dataclass
class OsplSpec:
    """A triangulated K x L grid carrying a smooth synthetic field."""

    title: str
    k: int
    l: int
    width: float
    height: float
    phase: float
    amplitude: float
    delta: float
    values: List[float] = field(default_factory=list, repr=False)

    @property
    def nodes(self) -> int:
        return self.k * self.l

    @property
    def elements(self) -> int:
        return 2 * (self.k - 1) * (self.l - 1)

    @property
    def boundary_edges(self) -> int:
        return 2 * (self.k - 1) + 2 * (self.l - 1)

    def _coords(self) -> List[Tuple[float, float, float]]:
        pts = []
        for j in range(self.l):
            y = self.height * j / (self.l - 1)
            for i in range(self.k):
                x = self.width * i / (self.k - 1)
                s = self.amplitude * (
                    math.sin(2.1 * x / self.width * math.pi + self.phase)
                    * math.cos(1.3 * y / self.height * math.pi)
                    + 0.35 * x / self.width)
                pts.append((x, y, s))
        return pts

    def levels(self) -> int:
        """Isogram levels: multiples of DELTA inside the printed field."""
        values = self.values or [round(s, 3) for *_, s in self._coords()]
        lo = math.ceil(min(values) / self.delta - 1e-9)
        hi = math.floor(max(values) / self.delta + 1e-9)
        return hi - lo + 1

    def deck(self) -> str:
        k, l = self.k, self.l
        if self.elements > 99999:
            raise ValueError("OSPL NE must fit an I5 field")
        cards = [
            _i5(self.nodes, self.elements)
            + "".join(_f(v, 10, 4) for v in (
                self.width, 0.0, self.height, 0.0, self.delta)),
            self.title[:72],
            "SYNTHETIC FIELD",
        ]
        values = []
        for n, (x, y, s) in enumerate(self._coords()):
            i, j = n % k, n // k
            edge = (i in (0, k - 1)) + (j in (0, l - 1))
            cards.append(_f(x, 9, 5) + _f(y, 9, 5) + " " * 22
                         + _f(s, 10, 3) + str(edge))
            values.append(round(s, 3))
        self.values = values
        for j in range(l - 1):
            for i in range(k - 1):
                a = j * k + i + 1
                b, c, d = a + 1, a + k + 1, a + k
                cards.append(_i5(a, b, c))
                cards.append(_i5(a, c, d))
        return _text(cards)


def _text(cards: List[str]) -> str:
    return "\n".join(c.rstrip() for c in cards) + "\n"


# ----------------------------------------------------------------------
# Seeded families
# ----------------------------------------------------------------------

KINDS = ("plate", "trapezoid", "skew")


def _shape(rng: random.Random, width: float, kind: str
           ) -> Tuple[float, float]:
    """Inset and shear of a plate, trapezoid or skewed plate."""
    if kind == "trapezoid":
        return round(width * rng.uniform(0.15, 0.25), 2), 0.0
    if kind == "skew":
        return 0.0, round(width * rng.uniform(0.15, 0.25)
                          * rng.choice((-1, 1)), 2)
    return 0.0, 0.0


def idlz_spec(rng: random.Random, name: str, k: int, l: int,
              plot: bool = False, kind: str = "") -> IdlzSpec:
    """A seeded plate, trapezoid or skewed plate on a K x L lattice.

    ``kind`` pins the shape (and so, closely, the work); otherwise the
    seed picks it.
    """
    kind = kind or rng.choice(KINDS)
    width = round(rng.uniform(6.0, 40.0), 2)
    height = round(width * (l - 1) / (k - 1) * rng.uniform(0.85, 1.15), 2)
    inset, shear = _shape(rng, width, kind)
    rise = round(height * rng.uniform(0.05, 0.1) * rng.choice((-1, 1)), 2) \
        if kind == "skew" else 0.0
    return IdlzSpec(title=f"{name} {kind.upper()} {k}X{l}", k=k, l=l,
                    width=width, height=height, inset=inset, shear=shear,
                    top_rise=rise, noplot=int(plot))


def analyze_spec(rng: random.Random, name: str, k: int,
                 l: int) -> AnalyzeSpec:
    """A seeded static analyze deck: level rows, fixed base, top pressure.

    The seed picks the family, the shape and the PLOT cards.
    """
    analysis = rng.choice(ANALYSES)
    kind = rng.choice(KINDS)
    width = round(rng.uniform(6.0, 30.0), 2)
    height = round(width * (l - 1) / (k - 1) * rng.uniform(0.85, 1.15), 2)
    inset, shear = _shape(rng, width, kind)
    if analysis == "AXISYM":
        shear = abs(shear)  # keep every radius positive
    problem = IdlzSpec(title=f"{name} {analysis} {k}X{l}", k=k, l=l,
                       width=width, height=height, inset=inset, shear=shear,
                       noplot=0, nonumb=1, nopnch=0)
    return AnalyzeSpec(
        idlz=problem, analysis=analysis,
        youngs=round(rng.uniform(10.0e6, 30.0e6), -3),
        poisson=round(rng.uniform(0.2, 0.35), 4),
        thickness=round(rng.uniform(0.1, 1.0), 4),
        pressure=round(rng.uniform(200.0, 2000.0), 4),
        plots=PLOT_SETS[rng.randrange(len(PLOT_SETS))],
    )


def ospl_spec(rng: random.Random, name: str, k: int, l: int,
              levels: int = 12) -> OsplSpec:
    """A seeded smooth field on a K x L grid with about ``levels`` levels."""
    width = round(rng.uniform(5.0, 60.0), 2)
    height = round(width * (l - 1) / (k - 1), 2)
    amplitude = round(rng.uniform(50.0, 900.0), 1)
    # The field spans roughly 2.35 x amplitude; an explicit DELTA pins
    # the level ladder so the check knows it without the program.
    delta = round(2.35 * amplitude / levels, 2)
    return OsplSpec(title=f"{name} FIELD {k}X{l}", k=k, l=l, width=width,
                    height=height, phase=round(rng.uniform(0, 6.28), 3),
                    amplitude=amplitude, delta=delta)


def render(spec: object) -> Tuple[str, Dict[str, int]]:
    """Deck text plus the closed-form counts the checks compare against."""
    text = spec.deck()  # type: ignore[attr-defined]
    counts = {"nodes": spec.nodes,  # type: ignore[attr-defined]
              "elements": spec.elements}  # type: ignore[attr-defined]
    if isinstance(spec, OsplSpec):
        counts["levels"] = spec.levels()
        counts["boundary_edges"] = spec.boundary_edges
    return text, counts
