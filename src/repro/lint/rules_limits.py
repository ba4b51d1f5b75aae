"""Limit rules (LIM0xx): the Table 1 / Table 2 allowances of 1970.

Every rule here quotes :data:`repro.limits.TABLE_1970` -- the same
specs the runtime's strict profiles enforce -- so the two can never
drift.  The codes are *warnings* by default (a modern reproduction runs
fine past them) and escalate to errors under ``--strict``, mirroring
the runtime's STRICT_1970 profile.
"""

from __future__ import annotations

from typing import List

from repro.cards.parse import IdlzDeckModel, OsplDeckModel
from repro.limits import limit
from repro.lint.analysis import ProblemAnalysis
from repro.lint.context import LintContext
from repro.lint.registry import checker, register_rule

register_rule(
    "LIM001", "warning", "too many subdivisions",
    "{count} subdivisions exceed the Table-2 allowance of {maximum}",
    """Table 2: "Maximum number of subdivisions ... 50".  IDLZ's
subdivision tables were dimensioned for 50 entries; more overwrote
adjacent storage on the 7090.""")

register_rule(
    "LIM002", "warning", "horizontal coordinate beyond the grid",
    "horizontal coordinate {value} of subdivision {index} exceeds the "
    "Table-2 maximum of {maximum}",
    """Table 2: "Maximum horizontal integer coordinate ... 40".  The
original NUMBER array was dimensioned (41, 61), so a larger KK2
indexed off its row on the 7090.  This reproduction numbers the
lattice with dynamically-sized arrays (grids beyond 1000x1000 are
benchmarked -- see docs/PERFORMANCE.md), so the warning records
1970-portability only; ``--strict`` escalates it for decks that must
run on the original.""")

register_rule(
    "LIM003", "warning", "vertical coordinate beyond the grid",
    "vertical coordinate {value} of subdivision {index} exceeds the "
    "Table-2 maximum of {maximum}",
    """Table 2: "Maximum vertical integer coordinate ... 60".  The
original NUMBER array was dimensioned (41, 61), so a larger LL2
indexed off its column on the 7090.  As with LIM002, this
reproduction has no fixed grid array: the warning records
1970-portability only, and ``--strict`` escalates it for decks that
must run on the original.""")

register_rule(
    "LIM004", "warning", "too many nodes",
    "the idealization would number {value} nodes, more than the "
    "Table-2 allowance of {maximum}",
    """Table 2: "Maximum number of nodes ... 500".  The count is
derived statically by numbering the assemblage's lattice exactly as
the run would.""")

register_rule(
    "LIM005", "warning", "too many elements",
    "the idealization would create {value} elements, more than the "
    "Table-2 allowance of {maximum}",
    """Table 2: "Maximum number of elements ... 850".  The count is
derived statically by building the assemblage's element strips exactly
as the run would.""")

register_rule(
    "LIM006", "warning", "too many OSPL points",
    "NN = {value} points exceed the Table-1 allowance of {maximum}",
    """Table 1: "Maximum number of points ... 800".  OSPL's nodal
tables were dimensioned for 800 entries.""")

register_rule(
    "LIM007", "warning", "too many OSPL elements",
    "NE = {value} elements exceed the Table-1 allowance of {maximum}",
    """Table 1: "Maximum number of elements ... 1000".  OSPL's element
tables were dimensioned for 1000 entries.""")


@checker("idlz")
def check_idlz_limits(ctx: LintContext, model: IdlzDeckModel,
                      analyses: List[ProblemAnalysis]) -> None:
    """Table-2 allowances over every problem (LIM001-LIM005)."""
    max_subs = limit("idlz.max_subdivisions")
    max_k = limit("idlz.max_k")
    max_l = limit("idlz.max_l")
    max_nodes = limit("idlz.max_nodes")
    max_elements = limit("idlz.max_elements")
    for analysis in analyses:
        problem = analysis.problem
        where = f"problem {problem.number}"
        if len(problem.subdivisions) > max_subs.value:
            ctx.emit("LIM001", problem.option_card, where,
                     count=len(problem.subdivisions),
                     maximum=max_subs.value)
        for raw in problem.subdivisions:
            if max(raw.kk1, raw.kk2) > max_k.value:
                ctx.emit("LIM002", raw.card, where,
                         value=max(raw.kk1, raw.kk2), index=raw.index,
                         maximum=max_k.value)
            if max(raw.ll1, raw.ll2) > max_l.value:
                ctx.emit("LIM003", raw.card, where,
                         value=max(raw.ll1, raw.ll2), index=raw.index,
                         maximum=max_l.value)
        counts = analysis.counts()
        if counts is None:
            continue
        n_nodes, n_elements = counts
        if n_nodes > max_nodes.value:
            ctx.emit("LIM004", problem.option_card, where,
                     value=n_nodes, maximum=max_nodes.value)
        if n_elements > max_elements.value:
            ctx.emit("LIM005", problem.option_card, where,
                     value=n_elements, maximum=max_elements.value)


@checker("ospl")
def check_ospl_limits(ctx: LintContext, model: OsplDeckModel) -> None:
    """Table-1 allowances on the type-1 card (LIM006/LIM007)."""
    if model.type1_card is None:
        return
    max_nodes = limit("ospl.max_nodes")
    max_elements = limit("ospl.max_elements")
    if model.nn > max_nodes.value:
        ctx.emit("LIM006", model.type1_card, "deck",
                 value=model.nn, maximum=max_nodes.value)
    if model.ne > max_elements.value:
        ctx.emit("LIM007", model.type1_card, "deck",
                 value=model.ne, maximum=max_elements.value)
