"""FORMAT rules (FMT0xx): the user-supplied type-7 punch FORMATs.

IDLZ punches its output decks "in the form specified by the user"; a
FORMAT that parses but is too narrow for the idealization's own numbers
punches asterisks -- discovered only when the next program chokes on
the cards.  The checker encodes the extreme values the run *would*
punch through the very :func:`repro.cards.fortran_format._encode` the
punch path uses, so lint and runtime can never disagree about a width.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

# _encode is the punch path's own field encoder; using it (rather than
# re-deriving the asterisk rule) keeps this analysis exact.
from repro.cards.fortran_format import FieldSpec, FortranFormat, _encode
from repro.cards.parse import IdlzDeckModel, RawFormat
from repro.errors import FormatError
from repro.lint.analysis import ProblemAnalysis
from repro.lint.context import LintContext
from repro.lint.registry import checker, register_rule

#: Values IDLZ punches per nodal / element card (see ``output.punch_cards``).
_VALUES_PER_CARD = 4

register_rule(
    "FMT001", "error", "malformed FORMAT",
    "FORMAT is malformed: {detail}",
    """The type-7 card's FORMAT string does not parse under the
FORTRAN-66 edit-descriptor language (unbalanced parentheses, a
descriptor with no width, an unsupported letter).  The 1970 run
aborted in the FORTRAN I/O library at punch time, after the whole
idealization had already been computed.""")

register_rule(
    "FMT002", "warning", "FORMAT consumes too few values",
    "FORMAT consumes {got} value(s) per card; IDLZ punches {want} "
    "({values})",
    """Each punched card carries a fixed value list; a FORMAT with
fewer consuming descriptors spills the remainder onto extra reverted
cards, which downstream readers expecting one card per node (or
element) will misparse.""")

register_rule(
    "FMT003", "warning", "integer descriptor too narrow",
    "descriptor {descriptor} is too narrow for {what} up to {value}; "
    "FORTRAN punches asterisks",
    """Right-justified integer output that overflows its width is
punched as asterisks, silently corrupting the deck.  Widen the
descriptor to hold the largest number this idealization produces.""")

register_rule(
    "FMT004", "warning", "real descriptor too narrow",
    "descriptor {descriptor} is too narrow for {what} {value}; "
    "FORTRAN punches asterisks",
    """Fixed-point output wider than its field (after the classic
leading-zero drop) is punched as asterisks.  Widen the descriptor or
reduce the decimal count to hold this deck's coordinate extremes.""")


def _descriptor(field: FieldSpec) -> str:
    if field.kind in ("F", "E"):
        return f"{field.kind}{field.width}.{field.decimals}"
    return f"{field.kind}{field.width}"


def _overflows(field: FieldSpec, value: object) -> bool:
    try:
        return _encode(field, value).startswith("*")
    except FormatError:
        return False  # type mismatch is the analyst's intent; leave it


@checker("idlz")
def check_formats(ctx: LintContext, model: IdlzDeckModel,
                  analyses: List[ProblemAnalysis]) -> None:
    """Both type-7 cards of every problem (FMT001-FMT004)."""
    for analysis in analyses:
        problem = analysis.problem
        where = f"problem {problem.number}"
        counts = analysis.counts()
        extremes = analysis.coordinate_extremes()
        if extremes is None and analysis.built:
            # Unshaped assemblage: nodes sit on the integer lattice.
            subs = analysis.built.values()
            extremes = (float(min(s.kk1 for s in subs)),
                        float(max(s.kk2 for s in subs)),
                        float(min(s.ll1 for s in subs)),
                        float(max(s.ll2 for s in subs)))
        for raw in (problem.nodal_format, problem.element_format):
            if raw is None or not raw.spec:
                continue  # missing/blank card: truncation or defaults
            fmt = _parse(ctx, raw, where)
            if fmt is None or not problem.nopnch:
                continue  # NOPNCH = 0 never punches; widths are moot
            _check_widths(ctx, raw, fmt, counts, extremes, where)


def _parse(ctx: LintContext, raw: RawFormat,
           where: str) -> Optional[FortranFormat]:
    try:
        return FortranFormat(raw.spec.strip())
    except FormatError as exc:
        ctx.emit("FMT001", raw.card, f"{where}, {raw.role} FORMAT",
                 detail=str(exc))
        return None


def _check_widths(ctx: LintContext, raw: RawFormat, fmt: FortranFormat,
                  counts: Optional[Tuple[int, int]],
                  extremes: Optional[Tuple[float, float, float, float]],
                  where: str) -> None:
    where = f"{where}, {raw.role} FORMAT"
    consuming = [f for f in fmt.fields if f.consumes_value]
    if len(consuming) < _VALUES_PER_CARD:
        values = ("X, Y, boundary flag, node number" if raw.role == "nodal"
                  else "three node numbers, element number")
        ctx.emit("FMT002", raw.card, where, got=len(consuming),
                 want=_VALUES_PER_CARD, values=values)
    if counts is None:
        return  # idealization not derivable; width checks need numbers
    n_nodes, n_elements = counts
    slots: List[List[Tuple[object, str]]]
    if raw.role == "nodal":
        # punch_cards writes [x, y, flag, node number] per node.
        xs: List[Tuple[object, str]] = []
        ys: List[Tuple[object, str]] = []
        if extremes is not None:
            xmin, xmax, ymin, ymax = extremes
            xs = [(xmin, "X coordinates"), (xmax, "X coordinates")]
            ys = [(ymin, "Y coordinates"), (ymax, "Y coordinates")]
        slots = [xs, ys, [(1, "boundary flags")],
                 [(n_nodes, "node numbers")]]
    else:
        # punch_cards writes [i, j, k, element number] per element.
        node: List[Tuple[object, str]] = [(n_nodes, "node numbers")]
        slots = [node, node, node, [(n_elements, "element numbers")]]
    for field, candidates in zip(consuming, slots):
        for value, what in candidates:
            if _overflows(field, value):
                code = "FMT004" if field.kind in ("F", "E") else "FMT003"
                shown = f"{value:g}" if isinstance(value, float) else value
                ctx.emit(code, raw.card, where,
                         descriptor=_descriptor(field), what=what,
                         value=shown)
                break
