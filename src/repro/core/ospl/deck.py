"""The OSPL input deck: card types 1-4 of Appendix C.

    type 1  (2I5, 5F10.4)          NN, NE, XMX, XMN, YMX, YMN, DELTA
    type 2  (12A6)                 title (two cards)
    type 3  (2F9.5, 22X, F10.3, I1)  X, Y, S, N   -- one per node
    type 4  (3I5)                  N1, N2, N3     -- one per element

Node numbers on type-4 cards are 1-based ("the order in which these
'nodal' cards are received by the computer is the order in which the
nodes are given nodal numbers").  ``DELTA = 0`` requests the automatic
interval; the XMX/XMN/YMX/YMN window supports the zoom feature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cards.parse import (
    OSPL_TYPE1,
    OSPL_TYPE3,
    OSPL_TYPE4,
    parse_ospl,
    read_or_refuse,
)
from repro.cards.reader import CardReader
from repro.cards.writer import CardWriter
from repro.core.ospl.plot import ContourPlot, conplt
from repro.fem.mesh import Mesh
from repro.fem.results import NodalField
from repro.geometry.primitives import BoundingBox
from repro.plotter.device import Plotter4020


@dataclass
class OsplProblem:
    """One OSPL data set: a mesh, a field, a window and plot titles."""

    mesh: Mesh
    field: NodalField
    window: BoundingBox
    delta: float = 0.0
    title1: str = ""
    title2: str = ""

    def plot(self, strict: bool = False,
             plotter: Optional[Plotter4020] = None) -> ContourPlot:
        interval = None if self.delta == 0.0 else self.delta
        return conplt(
            self.mesh, self.field,
            title=self.title1, subtitle=self.title2,
            interval=interval, window=self.window,
            strict=strict, plotter=plotter,
        )

    def input_value_count(self) -> int:
        """Numeric payload of the deck (for the data-volume claims)."""
        return 7 + 4 * self.mesh.n_nodes + 3 * self.mesh.n_elements


def read_ospl_deck(reader: CardReader) -> OsplProblem:
    """Parse one OSPL data set from the card tray (refusing the deck on
    the first error of :func:`parse_ospl`)."""
    model = read_or_refuse(parse_ospl, reader)
    mesh = Mesh(nodes=model.xy, elements=model.elements - 1,
                boundary_flags=model.flags)
    mesh.orient_ccw()
    title1, title2 = (card.hollerith for card in model.title_cards)
    return OsplProblem(
        mesh=mesh, field=NodalField("S", model.values),
        window=BoundingBox(xmin=model.xmn, ymin=model.ymn,
                           xmax=model.xmx, ymax=model.ymx),
        delta=model.delta, title1=title1, title2=title2,
    )


def write_ospl_deck(problem: OsplProblem) -> CardWriter:
    """Punch an OSPL data set (round-trips with :func:`read_ospl_deck`)."""
    writer = CardWriter()
    w = problem.window
    writer.punch(OSPL_TYPE1, [
        problem.mesh.n_nodes, problem.mesh.n_elements,
        w.xmax, w.xmin, w.ymax, w.ymin, problem.delta,
    ])
    writer.punch_card(problem.title1[:72])
    writer.punch_card(problem.title2[:72])
    flags = problem.mesh.flags()
    for i in range(problem.mesh.n_nodes):
        x, y = problem.mesh.nodes[i]
        writer.punch(OSPL_TYPE3, [
            float(x), float(y), float(problem.field.values[i]),
            int(flags[i]),
        ])
    for tri in problem.mesh.elements:
        writer.punch(OSPL_TYPE4, [int(tri[0]) + 1, int(tri[1]) + 1,
                                 int(tri[2]) + 1])
    return writer


def problem_from_analysis(mesh: Mesh, field: NodalField,
                          title1: str = "", title2: str = "",
                          delta: float = 0.0,
                          window: Optional[BoundingBox] = None
                          ) -> OsplProblem:
    """Attach OSPL to an analysis in memory (the CALL CONPLT route)."""
    if window is None:
        window = mesh.bounding_box()
    return OsplProblem(mesh=mesh, field=field, window=window, delta=delta,
                       title1=title1, title2=title2)
