"""OSPL rules (OSP0xx): mesh coherence of the contour-plot deck.

OSP001-OSP003 and OSP005 (a reference off the node table) are emitted
by the deck parser (:mod:`repro.cards.parse`), so the runtime reader
refuses exactly those decks; the checkers below examine the parsed node
and element columns for the mistakes that would quietly ruin the
contour run: degenerate triangles, a window or interval request the
plotter cannot honour, stray or doubled nodes.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.cards.parse import OsplDeckModel
from repro.lint.context import LintContext
from repro.lint.registry import checker, register_rule

#: Triangles flatter than this (absolute area) count as zero-area.
_AREA_TOL = 1e-9

register_rule(
    "OSP001", "error", "type-1 card is not a mesh",
    "type-1 card: NN = {nn}, NE = {ne} is not a mesh (need NN >= 3, "
    "NE >= 1)",
    """OSPL's type-1 card declares NN nodes and NE elements; fewer than
three nodes or one element cannot form a triangulated surface, and the
counts drive how many type-3/type-4 cards are read, so nothing after
this card can be trusted either.""")

register_rule(
    "OSP002", "error", "deck truncated",
    "the tray ran out after {count} card(s) while reading {expect}",
    """NN and NE on the type-1 card promise more type-3/type-4 cards
than the file holds; a card was dropped from the tray or a count is
mis-punched.""")

register_rule(
    "OSP003", "error", "unreadable card field",
    "unreadable card under {expect}: {detail}",
    """A field of this card does not decode under its FORTRAN FORMAT.
Parsing stops here because every later card boundary is suspect.""")

register_rule(
    "OSP004", "warning", "trailing cards never read",
    "{count} trailing card(s) after the declared deck are never read",
    """The NN + NE cards promised by the type-1 card were all read
before the file ended; the remainder is dead weight -- usually a
mis-punched count or a second data set the program will never see.""")

register_rule(
    "OSP005", "error", "element references undefined node",
    "element {index} references node {node}; the deck declares nodes "
    "1..{nn}",
    """Type-4 cards index the type-3 cards in arrival order, 1-based.
A reference outside 1..NN read garbage storage on the 7090; the
runtime halts on it.""")

register_rule(
    "OSP006", "error", "degenerate element",
    "element {index} repeats node {node}; a triangle needs three "
    "distinct corners",
    """An element card naming the same node twice describes a line, not
a triangle; its contours would be undefined.""")

register_rule(
    "OSP007", "error", "zero-area element",
    "element {index} has zero area (nodes {n1}, {n2}, {n3} are "
    "collinear)",
    """Three distinct but collinear nodes still span no area; the
linear interpolation over the element divides by that area when
tracing contour segments.""")

register_rule(
    "OSP008", "error", "automatic interval over a constant field",
    "DELTA = 0 requests the automatic contour interval, but the field "
    "is constant at {value}",
    """DELTA = 0 asks OSPL to derive a contour interval from the field's
range; a constant field has no range and the interval search fails.
Either the S values are mis-punched or the plot is pointless.""")

register_rule(
    "OSP009", "error", "negative contour interval",
    "DELTA = {delta} must be >= 0 (0 requests the automatic interval)",
    """Contour levels march upward from the field minimum in steps of
DELTA; a negative step never terminates.  Zero is the documented way
to request the automatic interval.""")

register_rule(
    "OSP010", "error", "degenerate zoom window",
    "zoom window [{xmn}, {xmx}] x [{ymn}, {ymx}] is degenerate",
    """The XMX/XMN/YMX/YMN window on the type-1 card frames the plot;
XMX must exceed XMN and YMX must exceed YMN or the SC-4020 raster
transform divides by a zero extent.""")

register_rule(
    "OSP011", "warning", "unreferenced node",
    "node {index} is referenced by no element",
    """A type-3 card that no element card uses contributes nothing to
the plot but still counts against the 800-point allowance; usually an
element card was dropped.""")

register_rule(
    "OSP012", "warning", "duplicate node coordinates",
    "node {index} duplicates the coordinates of node {other} "
    "({x}, {y})",
    """Two type-3 cards at the same (X, Y) usually mean one physical
node was punched twice and the elements around it are stitched to the
wrong copy, leaving an invisible seam in the contours.""")


@checker("ospl")
def check_window(ctx: LintContext, model: OsplDeckModel) -> None:
    """Type-1 window and interval sanity (OSP008-010)."""
    card = model.type1_card
    if card is None or model.nn < 3 or model.ne < 1:
        return  # OSP001/OSP002 already told the story
    if model.delta < 0.0:
        ctx.emit("OSP009", card, "deck", delta=f"{model.delta:g}")
    if model.xmx <= model.xmn or model.ymx <= model.ymn:
        ctx.emit("OSP010", card, "deck",
                 xmn=f"{model.xmn:g}", xmx=f"{model.xmx:g}",
                 ymn=f"{model.ymn:g}", ymx=f"{model.ymx:g}")
    values = model.values
    if (model.delta == 0.0 and len(values) == model.nn
            and values.min() == values.max()):
        ctx.emit("OSP008", card, "deck", value=f"{values[0]:g}")


@checker("ospl")
def check_elements(ctx: LintContext, model: OsplDeckModel) -> None:
    """Element shape (OSP006-007) over the elements whose nodes exist."""
    xy = model.xy.tolist()
    for index, nodes in enumerate(model.elements.tolist(), start=1):
        if min(nodes) < 1 or max(nodes) > model.nn:
            continue  # OSP005, from the parser
        where = f"element {index}"
        if len(set(nodes)) < 3:
            repeated = max(nodes, key=nodes.count)
            ctx.emit("OSP006", model.element_card(index), where,
                     index=index, node=repeated)
            continue
        (x1, y1), (x2, y2), (x3, y3) = (xy[n - 1] for n in nodes)
        area = abs((x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)) / 2.0
        if area < _AREA_TOL:
            n1, n2, n3 = nodes
            ctx.emit("OSP007", model.element_card(index), where,
                     index=index, n1=n1, n2=n2, n3=n3)


@checker("ospl")
def check_nodes(ctx: LintContext, model: OsplDeckModel) -> None:
    """Node usage and duplication (OSP011-012)."""
    if model.truncated:
        return  # half a deck would drown in spurious "unreferenced"s
    referenced = set(model.elements.ravel().tolist())
    seen: Dict[Tuple[float, float], int] = {}
    for index, (x, y) in enumerate(model.xy.tolist(), start=1):
        if index not in referenced:
            ctx.emit("OSP011", model.node_card(index), f"node {index}",
                     index=index)
        first = seen.setdefault((x, y), index)
        if first != index:
            ctx.emit("OSP012", model.node_card(index), f"node {index}",
                     index=index, other=first, x=f"{x:g}", y=f"{y:g}")
