"""Analyze rules (ANA0xx): the analysis section of a combined deck.

ANA001-ANA004 and ANA010 are structural and emitted by the deck
parser (:func:`repro.cards.parse.parse_analyze`), as is ANA009 for a
selector axis, FIX dofs, SOLVER or MODES that no analysis honours --
the runtime reader refuses exactly those decks.  The checkers below
examine the parsed section against the IDLZ problem it rides on, for
the mistakes that would halt the solve: a subdivision no MAT/TMAT card
covers, inadmissible elastic constants, an unconstrained (singular)
model, and PLOT / load requests the analysis family cannot honour
(the analyze pipeline refuses those too, for specs built in Python).
The embedded IDLZ problem itself is checked by the full IDZ / FMT /
LIM rule set, which the engine runs over the same deck first.
"""

from __future__ import annotations

import re
from typing import List, Optional

from repro.analyze.deck import STRESS_PLOTS
from repro.cards.parse import AnalyzeDeckModel, RawLoad
from repro.errors import MaterialError
from repro.fem.materials import IsotropicElastic, ThermalMaterial
from repro.lint.analysis import ProblemAnalysis
from repro.lint.context import LintContext
from repro.lint.registry import checker, register_rule

#: Families whose solution is a static displacement field.
_STATIC = ("plane_stress", "plane_strain", "axisymmetric")

register_rule(
    "ANA001", "error", "missing or invalid ANALYZE header",
    "expected an `ANALYZE <family>` header card after the IDLZ "
    "problem: {detail}",
    """An analyze deck is one IDLZ data set followed by an analysis
section whose first card reads ``ANALYZE`` in columns 1-8 and a family
keyword (PSTRESS, PSTRAIN, AXISYM, THERMAL, MODAL) in columns 9-24.
Without that header nothing after the IDLZ problem can be interpreted,
so the walk stops here.""")

register_rule(
    "ANA002", "error", "analysis section truncated",
    "the tray ran out after {count} card(s) while reading {expect}",
    """The analysis section must close with an END card; the file ended
first.  A card was dropped from the tray, or the END card was never
punched.""")

register_rule(
    "ANA003", "error", "unreadable analysis card",
    "unreadable card under {expect}: {detail}",
    """A field of this analysis card does not decode under its FORTRAN
FORMAT (keyword cards carry ``A8`` keywords, ``I8`` group numbers and
``F16.4`` reals).  The card is skipped and the walk continues with the
next one.""")

register_rule(
    "ANA004", "error", "unknown analysis keyword",
    "unknown analysis card keyword {keyword} (known: {known})",
    """Cards between the ANALYZE header and END must open with a known
keyword in columns 1-8.  A typo here means the runtime reader halts the
whole deck on this card.""")

register_rule(
    "ANA005", "error", "subdivision has no material",
    "subdivision {group} has no {kind} card; the {analysis} analysis "
    "cannot assemble it",
    """Every subdivision of the IDLZ problem becomes an element group of
the mesh, and the assembler needs constants for each: MAT cards for
static and modal analyses, TMAT cards for thermal ones.  Group numbers
on the material cards are the type-4 subdivision indices.""")

register_rule(
    "ANA006", "error", "inadmissible material card",
    "{kind} card for group {group}: {detail}",
    """The constants on this material card cannot build a valid
material: a non-positive Young's modulus or thickness, a Poisson ratio
outside (-1, 0.5), non-positive conduction constants, a group number
naming no subdivision, or a MODAL analysis whose MAT card carries no
weight density.""")

register_rule(
    "ANA007", "error", "analysis is unconstrained",
    "no {keyword} cards: the {analysis} analysis has no boundary "
    "conditions to hold it",
    """Static and modal analyses need at least one FIX card or the
stiffness matrix is singular (rigid-body motion); thermal analyses need
at least one TEMP card or the steady-state temperature level is
undetermined.""")

register_rule(
    "ANA008", "warning", "static analysis carries no loads",
    "no PRESSURE or FORCE cards: the {analysis} solution is "
    "identically zero",
    """A static analysis with an empty load vector solves to zero
displacement everywhere -- legal, but almost certainly a forgotten
card.  Thermal decks may drive the solution through TEMP cards alone
and modal decks need no loads, so only static families warn.""")

register_rule(
    "ANA009", "error", "inadmissible analysis request",
    "{keyword} card: {detail}",
    """This card asks for something the chosen analysis family cannot
honour: a selector axis other than X or Y, FIX dofs other than U, V or
UV, an unknown SOLVER, MODES below one, a FLUX load outside THERMAL
(or a PRESSURE/FORCE load inside it), or a PLOT of a field the
analysis does not produce.""")

register_rule(
    "ANA010", "error", "analyze deck must hold exactly one problem",
    "NSET = {nset}: analyze decks take exactly one IDLZ problem",
    """The analysis cards address one mesh; a deck whose type-1 card
declares several IDLZ data sets (or none) cannot say which one they
mean.  Split the deck, one analysis per tray.""")

register_rule(
    "ANA011", "warning", "trailing cards never read",
    "{count} trailing card(s) after the END card are never read",
    """The analysis section closed with its END card before the file
ended; the remainder is dead weight -- usually a second data set the
program will never see.""")


@checker("analyze")
def check_materials(ctx: LintContext, model: AnalyzeDeckModel,
                    analyses: List[ProblemAnalysis]) -> None:
    """Material coverage and admissibility (ANA005-006)."""
    if model.analysis is None or model.truncated or not analyses:
        return
    declared = analyses[0].declared_indexes()
    thermal = model.analysis == "thermal"
    covered = {m.group for m in (model.thermal_materials if thermal
                                 else model.materials)}
    kind = "TMAT" if thermal else "MAT"
    for index in declared:
        if index not in covered:
            ctx.emit("ANA005", model.header_card, "analysis",
                     group=index, kind=kind, analysis=model.analysis)
    if thermal:
        for tmat in model.thermal_materials:
            if declared and tmat.group not in declared:
                ctx.emit("ANA006", tmat.card, "analysis", kind="TMAT",
                         group=tmat.group,
                         detail=f"no subdivision {tmat.group} "
                                "in the problem")
            try:
                ThermalMaterial(conductivity=tmat.conductivity,
                                density=tmat.density,
                                specific_heat=tmat.specific_heat)
            except MaterialError as exc:
                ctx.emit("ANA006", tmat.card, "analysis", kind="TMAT",
                         group=tmat.group, detail=str(exc))
        return
    for mat in model.materials:
        if declared and mat.group not in declared:
            ctx.emit("ANA006", mat.card, "analysis", kind="MAT",
                     group=mat.group,
                     detail=f"no subdivision {mat.group} in the problem")
        try:
            IsotropicElastic(youngs=mat.youngs, poisson=mat.poisson,
                             thickness=mat.thickness)
        except MaterialError as exc:
            ctx.emit("ANA006", mat.card, "analysis", kind="MAT",
                     group=mat.group, detail=str(exc))
        if model.analysis == "modal" and mat.density <= 0.0:
            ctx.emit("ANA006", mat.card, "analysis", kind="MAT",
                     group=mat.group,
                     detail="a MODAL analysis needs a positive weight "
                            "density")


@checker("analyze")
def check_constraints(ctx: LintContext, model: AnalyzeDeckModel,
                      analyses: List[ProblemAnalysis]) -> None:
    """Boundary-condition and load presence (ANA007-008)."""
    if model.analysis is None or model.truncated:
        return
    if model.analysis == "thermal":
        if not model.temps:
            ctx.emit("ANA007", model.header_card, "analysis",
                     keyword="TEMP", analysis=model.analysis)
    elif not model.supports:
        ctx.emit("ANA007", model.header_card, "analysis",
                 keyword="FIX", analysis=model.analysis)
    if (model.analysis in _STATIC
            and not any(load.kind in ("PRESSURE", "FORCE")
                        for load in model.loads)):
        ctx.emit("ANA008", model.header_card, "analysis",
                 analysis=model.analysis)


@checker("analyze")
def check_requests(ctx: LintContext, model: AnalyzeDeckModel,
                   analyses: List[ProblemAnalysis]) -> None:
    """Load-kind and plot requests (ANA009; the parser checks the
    rest of ANA009 card by card)."""
    if model.analysis is None:
        return
    for load in model.loads:
        detail = _load_problem(model, load)
        if detail is not None:
            ctx.emit("ANA009", load.card, "analysis", keyword=load.kind,
                     detail=detail)
    for plot in model.plots:
        detail = _plot_problem(model, plot.name)
        if detail is not None:
            ctx.emit("ANA009", plot.card, "analysis", keyword="PLOT",
                     detail=detail)


def _load_problem(model: AnalyzeDeckModel,
                  load: RawLoad) -> Optional[str]:
    """Why this load card cannot drive this analysis family, if so."""
    thermal = model.analysis == "thermal"
    if load.kind == "FLUX" and not thermal:
        return f"FLUX loads apply only to THERMAL analyses, not {model.family}"
    if load.kind in ("PRESSURE", "FORCE") and thermal:
        return f"a THERMAL analysis takes FLUX loads, not {load.kind}"
    return None


def _plot_problem(model: AnalyzeDeckModel,
                  name: str) -> Optional[str]:
    """Why this PLOT request cannot be honoured, if so."""
    static = model.analysis in _STATIC
    if name in STRESS_PLOTS:
        if not static:
            return (f"stress component {name.upper()} needs a static "
                    f"analysis, not {model.family}")
        if (name == "circumferential"
                and model.analysis != "axisymmetric"):
            return ("circumferential stress exists only in AXISYM "
                    "analyses")
        return None
    if name == "displacement":
        if static:
            return None
        return f"displacement plots need a static analysis, not {model.family}"
    if name == "temperature":
        if model.analysis == "thermal":
            return None
        return f"temperature plots need a THERMAL analysis, not {model.family}"
    mode = re.fullmatch(r"mode(\d+)", name)
    if mode is not None:
        if model.analysis != "modal":
            return f"mode plots need a MODAL analysis, not {model.family}"
        n = int(mode.group(1))
        if not 1 <= n <= model.modes:
            return (f"mode {n} is outside the computed range "
                    f"1..{model.modes}")
        return None
    if model.analysis == "thermal":
        allowed = ("TEMPERATURE",)
    elif model.analysis == "modal":
        allowed = (f"MODE1..MODE{model.modes}",)
    else:
        allowed = tuple(
            p.upper() for p in STRESS_PLOTS
            if p != "circumferential" or model.analysis == "axisymmetric"
        ) + ("DISPLACEMENT",)
    return (f"unknown plot field {name.upper()} "
            f"(known: {', '.join(allowed)})")
