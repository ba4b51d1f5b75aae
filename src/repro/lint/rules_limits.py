"""Limit rules (LIM0xx): the Table 1 / Table 2 allowances of 1970.

Every rule here reports what :mod:`repro.limits` finds -- the same
comparisons a ``strict=True`` run refuses on -- with each rule's
message template taken from its :class:`~repro.limits.LimitSpec`, so
the two can never drift.  The codes are *warnings* by default (a modern
reproduction runs fine past them) and escalate to errors under
``--strict``, where the runtime refuses the first of them.
"""

from __future__ import annotations

from typing import List

from repro.cards.parse import IdlzDeckModel, OsplDeckModel
from repro.limits import BY_CODE, count_excesses, grid_excesses
from repro.lint.analysis import ProblemAnalysis
from repro.lint.context import LintContext
from repro.lint.registry import checker, register_rule

register_rule(
    "LIM001", "warning", "too many subdivisions",
    BY_CODE["LIM001"].message,
    """Table 2: "Maximum number of subdivisions ... 50".  IDLZ's
subdivision tables were dimensioned for 50 entries; more overwrote
adjacent storage on the 7090.""")

register_rule(
    "LIM002", "warning", "horizontal coordinate beyond the grid",
    BY_CODE["LIM002"].message,
    """Table 2: "Maximum horizontal integer coordinate ... 40".  The
original NUMBER array was dimensioned (41, 61), so a larger KK2
indexed off its row on the 7090.  This reproduction numbers the
lattice with dynamically-sized arrays (grids beyond 1000x1000 are
benchmarked -- see docs/PERFORMANCE.md), so the warning records
1970-portability only; ``--strict`` escalates it for decks that must
run on the original.""")

register_rule(
    "LIM003", "warning", "vertical coordinate beyond the grid",
    BY_CODE["LIM003"].message,
    """Table 2: "Maximum vertical integer coordinate ... 60".  The
original NUMBER array was dimensioned (41, 61), so a larger LL2
indexed off its column on the 7090.  As with LIM002, this
reproduction has no fixed grid array: the warning records
1970-portability only, and ``--strict`` escalates it for decks that
must run on the original.""")

register_rule(
    "LIM004", "warning", "too many nodes",
    BY_CODE["LIM004"].message,
    """Table 2: "Maximum number of nodes ... 500".  The count is
derived statically by numbering the assemblage's lattice exactly as
the run would.""")

register_rule(
    "LIM005", "warning", "too many elements",
    BY_CODE["LIM005"].message,
    """Table 2: "Maximum number of elements ... 850".  The count is
derived statically by building the assemblage's element strips exactly
as the run would.""")

register_rule(
    "LIM006", "warning", "too many OSPL points",
    BY_CODE["LIM006"].message,
    """Table 1: "Maximum number of points ... 800".  OSPL's nodal
tables were dimensioned for 800 entries.""")

register_rule(
    "LIM007", "warning", "too many OSPL elements",
    BY_CODE["LIM007"].message,
    """Table 1: "Maximum number of elements ... 1000".  OSPL's element
tables were dimensioned for 1000 entries.""")


@checker("idlz")
def check_idlz_limits(ctx: LintContext, model: IdlzDeckModel,
                      analyses: List[ProblemAnalysis]) -> None:
    """Table-2 allowances over every problem (LIM001-LIM005)."""
    for analysis in analyses:
        problem = analysis.problem
        excesses = grid_excesses(problem.subdivisions)
        counts = analysis.counts()
        if counts is not None:
            excesses += count_excesses("idlz", *counts)
        for excess in excesses:
            ctx.emit(excess.code, problem.limit_card(excess.index),
                     f"problem {problem.number}", **excess.values())


@checker("ospl")
def check_ospl_limits(ctx: LintContext, model: OsplDeckModel) -> None:
    """Table-1 allowances on the type-1 card (LIM006/LIM007)."""
    if model.type1_card is None:
        return
    for excess in count_excesses("ospl", model.nn, model.ne):
        ctx.emit(excess.code, model.type1_card, "deck", **excess.values())
