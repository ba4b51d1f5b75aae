"""IDLZ rules: structural (IDZ0xx), geometry (IDZ1xx), shaping (IDZ2xx).

The structural codes are emitted by the deck parser in
:mod:`repro.cards.parse` while it walks the tray; the geometry and
shaping checkers below run over the parsed model, reusing the runtime's
own :class:`~repro.core.idlz.subdivision.Subdivision` and
:func:`~repro.geometry.arc.arc_through` in pure-analysis mode so lint
and execution can never disagree about what a card means.
"""

from __future__ import annotations

import math
from typing import Dict, List, Set, Tuple

from repro.cards.parse import IdlzDeckModel, RawSegment
from repro.errors import ArcError
from repro.geometry.arc import arc_through
from repro.geometry.primitives import Point
from repro.core.idlz.subdivision import FAULT_MESSAGES
from repro.lint.analysis import ProblemAnalysis
from repro.lint.context import LintContext
from repro.lint.registry import checker, register_rule

#: Tolerance for contradictory real locations of one lattice point
#: (matches the runtime shaper's ``_POSITION_TOL``).
_POSITION_TOL = 1e-6

#: Slack on the 90-degree arc rule (matches ``repro.geometry.arc``).
_ANGLE_TOL = 1e-9

# ----------------------------------------------------------------------
# Structural rules (emitted by the parser; registered here)
# ----------------------------------------------------------------------

register_rule(
    "IDZ001", "error", "invalid leading count card",
    "the deck's leading count card is invalid: {detail}",
    """Every deck opens with a count card: IDLZ's type-1 card carries
NSET (the number of problems, at least 1) in columns 1-5, and OSPL's
carries NN and NE.  A deck whose first card is blank, non-numeric or
declares no problems cannot be scheduled at all.  Example: a type-1
card reading `    0` declares zero problems and trips this rule.""")

register_rule(
    "IDZ002", "error", "deck truncated",
    "the tray ran out after {count} card(s) while reading {expect}",
    """The card counts declared earlier in the deck (NSET, NSBDVN,
NLINES) promise more cards than the file holds.  The 1970 program
halted on the end-of-file mid-run; statically this means a card was
dropped from the tray or a count field is too large.""")

register_rule(
    "IDZ003", "error", "unreadable card field",
    "unreadable card under {expect}: {detail}",
    """A field of this card does not decode under its FORTRAN FORMAT --
letters in an integer column, for instance.  On the 7090 this read
garbage into the problem; the analyzer stops parsing the deck here
because every later card boundary is suspect.""")

register_rule(
    "IDZ004", "error", "card exceeds 80 columns",
    "card image is {width} columns; punched cards hold {max}",
    """A punched card holds 80 columns; a longer line cannot have come
from a card tray and its tail would be silently lost on re-punch.""")

register_rule(
    "IDZ005", "error", "duplicate subdivision number",
    "subdivision number {index} is declared more than once",
    """Two type-4 cards carry the same subdivision number, so type-5 and
type-6 references to that number are ambiguous.  The runtime refuses
the assemblage outright.""")

register_rule(
    "IDZ006", "error", "reference to undefined subdivision",
    "{kind} card references subdivision {index}, which no type-4 card "
    "declares",
    """A type-5 or type-6 card names a subdivision that the problem's
type-4 cards never declared.  The shaping cards would be applied to
nothing and the run would halt.""")

register_rule(
    "IDZ007", "warning", "trailing cards never read",
    "{count} trailing card(s) after the declared deck are never read",
    """The declared counts were satisfied before the file ended, so the
remaining cards are dead weight -- usually a forgotten problem or a
mis-punched NSET.  The runtime silently ignores them.""")

register_rule(
    "IDZ008", "error", "problem declares no subdivisions",
    "type-3 card: NSBDVN = {nsbdvn}; a problem needs at least one "
    "subdivision",
    """NSBDVN on the type-3 option card tells IDLZ how many type-4
cards follow; zero or negative leaves nothing to idealize.""")

register_rule(
    "IDZ009", "error", "negative shaping-card count",
    "type-5 card: NLINES = {nlines} for subdivision {subdivision} must "
    "be >= 0",
    """NLINES counts the type-6 cards that follow for one subdivision; a
negative count cannot be honoured and the card boundaries after it are
unknowable.""")

# ----------------------------------------------------------------------
# Geometry rules
# ----------------------------------------------------------------------

register_rule(
    "IDZ101", "error", "corners do not span a box",
    FAULT_MESSAGES["IDZ101"],
    """A type-4 card gives the lower-left (KK1, LL1) and upper-right
(KK2, LL2) integer corners of the subdivision's bounding box; KK2 must
exceed KK1 and LL2 must exceed LL1 or there is no box to mesh.""")

register_rule(
    "IDZ102", "error", "both trapezoid indicators set",
    FAULT_MESSAGES["IDZ102"],
    """A subdivision is a row trapezoid (NTAPRW) or a column trapezoid
(NTAPCM), never both; the two indicators describe perpendicular taper
directions.""")

register_rule(
    "IDZ103", "error", "taper shrinks short side away",
    FAULT_MESSAGES["IDZ103"],
    """Each lattice row (or column) towards the short parallel side
loses |NTAPRW| (|NTAPCM|) nodes on each end; with too strong a taper
the short side vanishes before the box is crossed.  The limit case of
exactly one node is the paper's triangular subdivision.""")

register_rule(
    "IDZ104", "error", "overlapping subdivisions",
    "subdivisions {a} and {b} overlap on the lattice (both cover cell "
    "({k},{l}))",
    """Two subdivisions may share boundary lattice points (that is how
the assemblage knits together) but never interior cells: overlapping
cells would create coincident duplicate elements and a singular
stiffness downstream.""")

register_rule(
    "IDZ105", "warning", "disconnected assemblage",
    "the assemblage is disconnected: subdivision(s) {island} share no "
    "lattice points with the rest",
    """Every subdivision should share at least one lattice point with
the rest of the assemblage; an island is usually a typo in the integer
corners and leaves a gap in the idealized structure.""")

register_rule(
    "IDZ106", "error", "lattice coordinate below origin",
    FAULT_MESSAGES["IDZ106"],
    """The integer grid of the paper is 1-based: NUMBER(41, 61) had no
row or column zero.  Zero or negative corners address storage that does
not exist, so every run refuses the card, ``--strict`` or not.""")

# ----------------------------------------------------------------------
# Shaping rules
# ----------------------------------------------------------------------

register_rule(
    "IDZ201", "error", "segment off every side",
    "lattice endpoints ({k1},{l1}) and ({k2},{l2}) lie on no common "
    "side of subdivision {index}",
    """A type-6 card locates a run of nodes along one side of its
subdivision, so both integer endpoints must lie on the same side
(corners belong to two).  Endpoints on different sides -- or off the
subdivision entirely -- locate nothing.""")

register_rule(
    "IDZ202", "error", "coincident real endpoints",
    "straight segment has coincident real endpoints ({x},{y})",
    """A straight segment (RADIUS = 0) between two distinct lattice
points must span a real distance; coincident end coordinates would
collapse the whole run of nodes onto one point.""")

register_rule(
    "IDZ203", "error", "arc wound clockwise",
    "RADIUS = {radius} winds the arc clockwise; the paper requires "
    "counter-clockwise travel (use a positive radius, swapping the "
    "endpoints if needed)",
    """"The center of curvature is located such that moving from end 1
to end 2 on the arc is a counterclockwise motion" -- the sign of RADIUS
is not a direction switch, so a negative radius is a mis-punched card,
not a clockwise arc.""")

register_rule(
    "IDZ204", "error", "chord exceeds diameter",
    "chord length {chord} exceeds the arc diameter {diameter}; no "
    "circle of radius {radius} passes through both endpoints",
    """No circle of the given radius passes through endpoints further
apart than its diameter; the radius is too small for the span.""")

register_rule(
    "IDZ205", "error", "arc subtends more than 90 degrees",
    "arc subtends {sweep} deg, more than the permitted 90 deg",
    """Appendix A's GENERAL RESTRICTIONS: "the angle subtended by the
arc must be less than or equal to 90 degrees".  Split the boundary into
two shaping cards of at most a quarter circle each.""")

register_rule(
    "IDZ206", "error", "conflicting node locations",
    "lattice point ({k},{l}) located at ({x},{y}) here but at "
    "({ox},{oy}) by the card at line {other}",
    """Two shaping cards pin the same lattice point to different real
coordinates.  A node once located is never moved, so the second card
would be rejected mid-run; statically it means two boundary pieces
disagree about a shared corner.""")

register_rule(
    "IDZ207", "error", "no located pair of opposite sides",
    "no opposite pair of sides of subdivision {index} will be located "
    "when it shapes (incomplete: {missing})",
    """Subdivisions shape strictly in input order, interpolating between
two fully located *opposite* sides -- located by this subdivision's own
type-6 cards or by an earlier subdivision sharing the side.  This is
the error the 1970 program only discovered mid-run, one overnight
submission per mistake.""")

register_rule(
    "IDZ208", "warning", "all four sides located",
    "all four sides of subdivision {index} are located; the "
    "interpolation pair choice may silently ignore some cards",
    """Interpolation uses one pair of opposite sides; when all four are
located the unused pair's cards constrain nothing, which is legal but
usually means the deck says more than its author intended.""")

register_rule(
    "IDZ209", "error", "point location off the subdivision",
    "point location ({k},{l}) is not a lattice point of subdivision "
    "{index}",
    """A type-6 card with equal integer endpoints locates a single point
(the paper: a triangle tip is "located as if it were a line"); the
point must actually belong to the subdivision's lattice.""")


# ----------------------------------------------------------------------
# Checkers
# ----------------------------------------------------------------------

@checker("idlz")
def check_structure(ctx: LintContext, model: IdlzDeckModel,
                    analyses: List[ProblemAnalysis]) -> None:
    """Duplicate subdivision numbers and dangling references."""
    for problem in model.problems:
        where = f"problem {problem.number}"
        declared: Set[int] = set()
        for raw in problem.subdivisions:
            if raw.index in declared:
                ctx.emit("IDZ005", raw.card, where, index=raw.index)
            declared.add(raw.index)
        for t5 in problem.type5:
            if t5.subdivision not in declared:
                ctx.emit("IDZ006", t5.card, where, kind="type-5",
                         index=t5.subdivision)
        for seg in problem.segments:
            if seg.subdivision not in declared:
                ctx.emit("IDZ006", seg.card, where, kind="type-6",
                         index=seg.subdivision)


@checker("idlz")
def check_geometry(ctx: LintContext, model: IdlzDeckModel,
                   analyses: List[ProblemAnalysis]) -> None:
    """Per-subdivision shape validity (IDZ101-103, IDZ106)."""
    for problem in model.problems:
        where = f"problem {problem.number}"
        for raw in problem.subdivisions:
            for fault in raw.faults():
                ctx.emit(fault.code, raw.card, where, **fault.values)


@checker("idlz")
def check_assemblage(ctx: LintContext, model: IdlzDeckModel,
                     analyses: List[ProblemAnalysis]) -> None:
    """Overlapping subdivisions and disconnected islands (IDZ104/105)."""
    for analysis in analyses:
        problem = analysis.problem
        where = f"problem {problem.number}"
        cards = {raw.index: raw.card for raw in problem.subdivisions}
        # Overlap: two subdivisions covering the same unit lattice cell.
        cell_owner: Dict[Tuple[int, int], int] = {}
        reported: Set[Tuple[int, int]] = set()
        for index in analysis.declared_indexes():
            sub = analysis.built.get(index)
            if sub is None:
                continue
            for k in range(sub.kk1, sub.kk2):
                for l in range(sub.ll1, sub.ll2):
                    if not all(sub.contains(kk, ll)
                               for kk in (k, k + 1) for ll in (l, l + 1)):
                        continue
                    owner = cell_owner.setdefault((k, l), index)
                    pair = (owner, index)
                    if owner != index and pair not in reported:
                        reported.add(pair)
                        ctx.emit("IDZ104", cards[index], where,
                                 a=owner, b=index, k=k, l=l)
        # Connectivity: subdivisions sharing lattice points form one
        # component; extra components are islands.
        point_owner: Dict[Tuple[int, int], int] = {}
        parent: Dict[int, int] = {}

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        ordered = [i for i in analysis.declared_indexes()
                   if i in analysis.built]
        for index in ordered:
            parent.setdefault(index, index)
            for pt in analysis.built[index].lattice_points():
                other = point_owner.setdefault(pt, index)
                if other != index:
                    parent[find(index)] = find(other)
        components: Dict[int, List[int]] = {}
        for index in ordered:
            components.setdefault(find(index), []).append(index)
        if len(components) > 1:
            islands = sorted(components.values(), key=lambda c: c[0])
            for island in islands[1:]:
                ctx.emit("IDZ105", cards[island[0]], where,
                         island=", ".join(str(i) for i in island))


@checker("idlz")
def check_segments(ctx: LintContext, model: IdlzDeckModel,
                   analyses: List[ProblemAnalysis]) -> None:
    """Per-card shaping validity (IDZ201-206, IDZ209)."""
    for analysis in analyses:
        problem = analysis.problem
        where = f"problem {problem.number}"
        located: Dict[Tuple[int, int],
                      Tuple[float, float, RawSegment]] = {}
        for seg in problem.segments:
            sub = analysis.built.get(seg.subdivision)
            if sub is None:
                continue  # IDZ006 / geometry rules already fired
            a = (seg.k1, seg.l1)
            b = (seg.k2, seg.l2)
            side = analysis.segment_side(seg)
            if a == b:
                if side is None:
                    ctx.emit("IDZ209", seg.card, where, k=seg.k1,
                             l=seg.l1, index=seg.subdivision)
                    continue
                _record_location(ctx, located, a, seg.x1, seg.y1, seg,
                                 where)
                continue
            if side is None:
                ctx.emit("IDZ201", seg.card, where, k1=seg.k1, l1=seg.l1,
                         k2=seg.k2, l2=seg.l2, index=seg.subdivision)
                continue
            _check_path(ctx, seg, where)
            _record_location(ctx, located, a, seg.x1, seg.y1, seg, where)
            _record_location(ctx, located, b, seg.x2, seg.y2, seg, where)


def _check_path(ctx: LintContext, seg: RawSegment, where: str) -> None:
    """The real-space line or arc of one card (IDZ202-205)."""
    chord = math.hypot(seg.x2 - seg.x1, seg.y2 - seg.y1)
    if seg.radius == 0.0:
        if chord == 0.0:
            ctx.emit("IDZ202", seg.card, where, x=f"{seg.x1:g}",
                     y=f"{seg.y1:g}")
        return
    if seg.radius < 0.0:
        ctx.emit("IDZ203", seg.card, where, radius=f"{seg.radius:g}")
        return
    if chord == 0.0:
        ctx.emit("IDZ202", seg.card, where, x=f"{seg.x1:g}",
                 y=f"{seg.y1:g}")
        return
    try:
        # Allow any sweep here; the 90-degree rule is reported
        # separately so the analyst sees the *actual* subtended angle.
        arc = arc_through(Point(seg.x1, seg.y1), Point(seg.x2, seg.y2),
                          seg.radius, max_sweep=math.pi)
    except ArcError:
        ctx.emit("IDZ204", seg.card, where, chord=f"{chord:g}",
                 diameter=f"{2.0 * seg.radius:g}",
                 radius=f"{seg.radius:g}")
        return
    if arc.sweep > math.pi / 2.0 + _ANGLE_TOL:
        ctx.emit("IDZ205", seg.card, where,
                 sweep=f"{math.degrees(arc.sweep):.3f}")


def _record_location(ctx: LintContext,
                     located: Dict[Tuple[int, int],
                                   Tuple[float, float, RawSegment]],
                     pt: Tuple[int, int], x: float, y: float,
                     seg: RawSegment, where: str) -> None:
    """Track card-pinned lattice points; report contradictions."""
    previous = located.get(pt)
    if previous is None:
        located[pt] = (x, y, seg)
        return
    ox, oy, other = previous
    if (abs(ox - x) > _POSITION_TOL or abs(oy - y) > _POSITION_TOL):
        ctx.emit("IDZ206", seg.card, where, k=pt[0], l=pt[1],
                 x=f"{x:g}", y=f"{y:g}", ox=f"{ox:g}", oy=f"{oy:g}",
                 other=other.card.number)


@checker("idlz")
def check_shapeability(ctx: LintContext, model: IdlzDeckModel,
                       analyses: List[ProblemAnalysis]) -> None:
    """The dependency walk over shaping order (IDZ207/IDZ208).

    Tracks which lattice points each subdivision's cards (or an
    earlier, fully shaped neighbour) locate and proves an opposite pair
    exists when the subdivision's turn comes -- the error IDLZ itself
    only finds mid-run.
    """
    for analysis in analyses:
        problem = analysis.problem
        if not analysis.complete:
            continue  # build failures already reported; walk is moot
        where = f"problem {problem.number}"
        segments_by_sub: Dict[int, List[RawSegment]] = {}
        for seg in problem.segments:
            segments_by_sub.setdefault(seg.subdivision, []).append(seg)
        located: Set[Tuple[int, int]] = set()
        walked: Set[int] = set()
        for raw in problem.subdivisions:
            sub = analysis.built.get(raw.index)
            if sub is None or raw.index in walked:
                continue  # unbuildable, or a duplicate type-4 card
            walked.add(raw.index)
            for seg in segments_by_sub.get(raw.index, []):
                side = analysis.segment_side(seg)
                if side is None:
                    continue  # already reported by check_segments
                if side == "point":
                    located.add((seg.k1, seg.l1))
                    continue
                path = sub.side_path(side)
                ia = path.index((seg.k1, seg.l1))
                ib = path.index((seg.k2, seg.l2))
                lo, hi = min(ia, ib), max(ia, ib)
                located.update(path[lo:hi + 1])
            sides_done = {
                side: all(pt in located for pt in sub.side_path(side))
                for side in ("bottom", "top", "left", "right")
            }
            pair_found = any(
                sides_done[one] and sides_done[other]
                for one, other in (("bottom", "top"), ("left", "right"))
            )
            if not pair_found:
                missing = sorted(s for s, done in sides_done.items()
                                 if not done)
                ctx.emit("IDZ207", raw.card, where, index=raw.index,
                         missing=", ".join(missing))
            else:
                located.update(sub.lattice_points())
            if (all(sides_done.values())
                    and len(segments_by_sub.get(raw.index, [])) > 2):
                ctx.emit("IDZ208", raw.card, where, index=raw.index)
