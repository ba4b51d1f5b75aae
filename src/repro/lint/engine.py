"""The analyzer's entry points: lint text, a file, or a tray of files.

``lint_text`` is the whole pipeline for one deck: classify (IDLZ,
OSPL or analyze), parse with the programs' own tolerant parser
(:mod:`repro.cards.parse`), derive the per-problem analyses, run every
registered checker, and close with the trailing-card scan.  Nothing in
here executes a deck -- the heaviest work is numbering an assemblage's
lattice, which is exactly what makes the LIM and FMT rules honest.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence, Union

from repro import obs
from repro.cards.parse import (
    PARSERS,
    AnalyzeDeckModel,
    CardView,
    IdlzDeckModel,
    OsplDeckModel,
    classify_deck,
)
from repro.cards.reader import CardReader
from repro.errors import CardError, LintError
from repro.lint.analysis import ProblemAnalysis
from repro.lint.context import LintContext
from repro.lint.diagnostics import FileLintResult
from repro.lint.registry import checkers_for

#: File extension the tray scan collects (same as the batch engine).
DECK_SUFFIX = ".deck"


def lint_text(text: str, path: str = "<deck>",
              program: Optional[str] = None,
              strict: bool = False,
              budget_bytes: Optional[float] = None,
              deadline_s: Optional[float] = None) -> FileLintResult:
    """Statically analyze one deck blob; never raises on deck content.

    ``budget_bytes`` / ``deadline_s`` arm the PLN capacity family:
    the deck is priced by :mod:`repro.plan` and predictions beyond a
    threshold become errors.  Both default to off, leaving the report
    identical to a planner-free run.
    """
    with obs.span("lint.deck", path=path):
        ctx = LintContext(path=path, strict=strict,
                          budget_bytes=budget_bytes,
                          deadline_s=deadline_s)
        reader = CardReader.from_text(text)
        if program is None:
            try:
                program = classify_deck(reader.images)
            except CardError as exc:
                ctx.emit("IDZ001", None, "deck", detail=str(exc))
                if budget_bytes is not None or deadline_s is not None:
                    # An unclassifiable deck is unpriceable too; a
                    # capacity threshold turns that into PLN003.
                    ctx.emit("PLN003", None, "plan",
                             reason=str(exc))
                return _finish(FileLintResult(
                    path=path, program=None,
                    diagnostics=ctx.diagnostics))
        if program not in PARSERS:
            raise LintError(
                f"unknown program {program!r}; expected 'idlz', "
                "'ospl' or 'analyze'"
            )
        model = PARSERS[program](reader, path)
        ctx.diagnostics.extend(model.parse_diagnostics)
        check, trailing_code = _CHECKS[program]
        check(ctx, model)
        _check_trailing(ctx, model, trailing_code)
        _check_plan(ctx, program, model)
        return _finish(FileLintResult(
            path=path, program=program,
            diagnostics=ctx.diagnostics))


def _check_idlz(ctx: LintContext,
                model: IdlzDeckModel) -> List[ProblemAnalysis]:
    analyses = [ProblemAnalysis(p) for p in model.problems]
    for check in checkers_for("idlz"):
        check(ctx, model, analyses)
    return analyses


def _check_analyze(ctx: LintContext, model: AnalyzeDeckModel) -> None:
    # The embedded IDLZ problem gets the full IDZ/FMT/LIM treatment
    # before the analysis-section rules run over it.
    analyses = _check_idlz(ctx, model.idlz)
    for check in checkers_for("analyze"):
        check(ctx, model, analyses)


def _check_ospl(ctx: LintContext, model: OsplDeckModel) -> None:
    for check in checkers_for("ospl"):
        check(ctx, model)


#: Program -> (its rule pass, the code for cards past the deck).
_CHECKS = {
    "idlz": (_check_idlz, "IDZ007"),
    "analyze": (_check_analyze, "ANA011"),
    "ospl": (_check_ospl, "OSP004"),
}


def _check_plan(ctx: LintContext, program: str,
                model: Union[IdlzDeckModel, OsplDeckModel,
                             AnalyzeDeckModel]) -> None:
    """The threshold-gated PLN family (no-op without thresholds)."""
    if ctx.budget_bytes is None and ctx.deadline_s is None:
        return
    from repro.lint.rules_plan import apply_plan_rules
    apply_plan_rules(ctx, program, model)


def _check_trailing(ctx: LintContext,
                    model: Union[IdlzDeckModel, OsplDeckModel,
                                 AnalyzeDeckModel],
                    code: str) -> None:
    """Cards past the declared deck that the run would never read."""
    if model.truncated:
        return
    trailing = model.reader.images[model.cards_consumed:]
    if any(text.strip() for text in trailing):
        ctx.emit(code, CardView(model.cards_consumed + 1, trailing[0]),
                 "deck", count=len(trailing))


def _finish(result: FileLintResult) -> FileLintResult:
    result.diagnostics = result.sorted_diagnostics()
    obs.count("lint.decks")
    obs.count("lint.diagnostics", len(result.diagnostics))
    obs.count("lint.errors", len(result.errors))
    if not result.ok:
        obs.count("lint.decks_rejected")
    return result


def lint_path(path: Union[str, Path],
              strict: bool = False,
              budget_bytes: Optional[float] = None,
              deadline_s: Optional[float] = None) -> FileLintResult:
    """Statically analyze one deck file."""
    path = Path(path)
    return lint_text(path.read_text(), str(path), strict=strict,
                     budget_bytes=budget_bytes, deadline_s=deadline_s)


def lint_paths(paths: Sequence[Union[str, Path]],
               recursive: bool = False,
               strict: bool = False,
               budget_bytes: Optional[float] = None,
               deadline_s: Optional[float] = None) -> List[FileLintResult]:
    """Analyze files and/or directories of ``*.deck`` files.

    Directories contribute their ``*.deck`` entries (recursively with
    ``recursive``), sorted for a stable report order.  Raises
    :class:`LintError` when nothing matches -- a silent empty report
    would read as a clean bill of health.
    """
    decks: List[Path] = []
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            pattern = f"**/*{DECK_SUFFIX}" if recursive \
                else f"*{DECK_SUFFIX}"
            decks.extend(sorted(entry.glob(pattern)))
        elif entry.exists():
            decks.append(entry)
        else:
            raise LintError(f"no such deck: {entry}")
    if not decks:
        raise LintError(
            f"no {DECK_SUFFIX} files matched "
            f"{', '.join(str(p) for p in paths)}"
        )
    return [lint_path(deck, strict=strict, budget_bytes=budget_bytes,
                      deadline_s=deadline_s) for deck in decks]
