"""PLN0xx: capacity rules backed by the static cost planner.

These rules price a deck with :mod:`repro.plan` -- the same abstract
interpreter the batch scheduler uses -- and compare the prediction
against operator-supplied thresholds.  They are **threshold-gated**:
without ``--budget`` or ``--deadline`` on the lint invocation nothing
in this family fires, so default lint runs (and the CI deck gate) stay
byte-identical to a planner-free analyzer.

Unlike the other families these rules are not registered through the
per-program checker tables: the engine calls :func:`apply_plan_rules`
once per deck after the program checkers, because the planner consumes
the *top-level* model (an analyze deck must be priced as an analyze
job, solve stage included, not as its embedded IDLZ prefix).
"""

from __future__ import annotations

from typing import Optional, Union

from repro.cards.parse import (
    AnalyzeDeckModel,
    CardView,
    IdlzDeckModel,
    OsplDeckModel,
)
from repro.lint.context import LintContext
from repro.lint.registry import register_rule

register_rule(
    "PLN001", "error", "predicted memory exceeds the budget",
    "predicted working set {predicted} exceeds --budget {budget}",
    """The static cost planner (``repro plan``) predicts this deck's
peak working set -- mesh structures plus, for combined decks, the
assembled matrix -- above the memory budget the invocation supplied
with ``--budget``.  The prediction carries the planner's documented
1.5x error band (docs/PLAN.md), so treat a marginal excess as a
capacity risk, not a certainty.  Shrink the lattice, split the
assemblage, or raise the budget.""")

register_rule(
    "PLN002", "error", "predicted wall time exceeds the deadline",
    "predicted wall time {predicted} exceeds --deadline {deadline}",
    """The static cost planner prices every pipeline stage of this deck
(calibrated against the checked-in bench history when available) and
the summed wall-time prediction lands beyond the ``--deadline`` the
invocation supplied.  The prediction carries the planner's documented
2x error band (docs/PLAN.md).  Coarsen the lattice, drop plot
requests, or schedule the job into a longer window.""")

register_rule(
    "PLN003", "error", "deck cost cannot be estimated",
    "cannot estimate cost: {reason}",
    """A ``--budget`` or ``--deadline`` threshold was supplied, but the
planner cannot derive this deck's cost -- the tray is truncated, a
subdivision does not build, or the deck declares no problems.  An
unpriceable deck cannot be admitted against a capacity threshold, so
this is an error whenever a threshold was requested (and silent
otherwise; the validity families already diagnose the underlying
defect).""")


def apply_plan_rules(ctx: LintContext, program: str,
                     model: Union[IdlzDeckModel, OsplDeckModel,
                                  AnalyzeDeckModel]) -> None:
    """Price the deck and emit PLN diagnostics against the thresholds.

    Called by the engine only when ``ctx`` carries a budget or a
    deadline; imports the planner lazily so threshold-free lint runs
    never pay for it.
    """
    from repro.plan import format_bytes, plan_model

    if ctx.budget_bytes is None and ctx.deadline_s is None:
        return
    plan = plan_model(model, program, ctx.path)
    anchor: Optional[CardView]
    if isinstance(model, AnalyzeDeckModel):
        anchor = model.header_card
    elif isinstance(model, OsplDeckModel):
        anchor = model.type1_card
    else:
        anchor = model.nset_card
    if not plan.plannable:
        ctx.emit("PLN003", anchor, "plan", reason=plan.reason)
        return
    if ctx.budget_bytes is not None \
            and plan.peak_bytes > ctx.budget_bytes:
        ctx.emit("PLN001", anchor, "plan",
                 predicted=format_bytes(plan.peak_bytes),
                 budget=format_bytes(ctx.budget_bytes))
    if ctx.deadline_s is not None and plan.wall_s > ctx.deadline_s:
        ctx.emit("PLN002", anchor, "plan",
                 predicted=f"{plan.wall_s * 1e3:.1f} ms",
                 deadline=f"{ctx.deadline_s * 1e3:.1f} ms")
