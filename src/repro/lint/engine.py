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
from repro.batch.jobs import classify_deck_text
from repro.cards.parse import (
    AnalyzeDeckModel,
    CardView,
    IdlzDeckModel,
    OsplDeckModel,
    parse_analyze,
    parse_idlz,
    parse_ospl,
)
from repro.errors import BatchError, LintError
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
        if program is None:
            try:
                program = classify_deck_text(text)
            except BatchError as exc:
                ctx.emit("IDZ001", None, "deck", detail=str(exc))
                if budget_bytes is not None or deadline_s is not None:
                    # An unclassifiable deck is unpriceable too; a
                    # capacity threshold turns that into PLN003.
                    ctx.emit("PLN003", None, "plan",
                             reason=str(exc))
                return _finish(FileLintResult(
                    path=path, program=None,
                    diagnostics=ctx.diagnostics))
        if program == "idlz":
            model = parse_idlz(text, path)
            ctx.diagnostics.extend(model.parse_diagnostics)
            analyses = [ProblemAnalysis(p) for p in model.problems]
            for check in checkers_for("idlz"):
                check(ctx, model, analyses)
            _check_trailing(ctx, model, "IDZ007")
            _check_plan(ctx, "idlz", model)
        elif program == "analyze":
            analyze_model = parse_analyze(text, path)
            ctx.diagnostics.extend(analyze_model.parse_diagnostics)
            analyses = [ProblemAnalysis(p)
                        for p in analyze_model.idlz.problems]
            # The embedded IDLZ problem gets the full IDZ/FMT/LIM
            # treatment before the analysis-section rules run over it.
            for check in checkers_for("idlz"):
                check(ctx, analyze_model.idlz, analyses)
            for check in checkers_for("analyze"):
                check(ctx, analyze_model, analyses)
            _check_trailing(ctx, analyze_model, "ANA011")
            _check_plan(ctx, "analyze", analyze_model)
        elif program == "ospl":
            model = parse_ospl(text, path)
            ctx.diagnostics.extend(model.parse_diagnostics)
            for check in checkers_for("ospl"):
                check(ctx, model)
            _check_trailing(ctx, model, "OSP004")
            _check_plan(ctx, "ospl", model)
        else:
            raise LintError(
                f"unknown program {program!r}; expected 'idlz', "
                "'ospl' or 'analyze'"
            )
        return _finish(FileLintResult(
            path=path, program=program,
            diagnostics=ctx.diagnostics))


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
