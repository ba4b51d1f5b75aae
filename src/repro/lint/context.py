"""The context rules emit through.

A :class:`LintContext` carries the deck path, the limit profile, and the
growing diagnostic list.  Rules never build :class:`Diagnostic` objects
by hand: :meth:`LintContext.emit` resolves the registered rule, formats
its stable message template, applies the strict-mode escalation (LIM
rules are warnings by default, errors under ``--strict``) and stamps the
card-level source location.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional

from repro.cards.parse import CardView
from repro.lint.diagnostics import Diagnostic, SourceLocation
from repro.lint.registry import get_rule


@dataclass
class LintContext:
    """Shared state for one deck's rule run."""

    path: str
    strict: bool = False
    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: Capacity thresholds for the PLN rules; ``None`` disarms them.
    budget_bytes: Optional[float] = None
    deadline_s: Optional[float] = None

    def emit(self, code: str, card: Optional[CardView] = None,
             where: str = "", **values: Any) -> Diagnostic:
        """Report one finding against a card (or the whole deck)."""
        rule = get_rule(code)
        severity = rule.severity
        if self.strict and code.startswith("LIM") and severity == "warning":
            severity = "error"
        location = (SourceLocation(path=self.path, card=card.number,
                                   text=card.text)
                    if card is not None else SourceLocation(path=self.path))
        diagnostic = Diagnostic(
            code=rule.code, severity=severity,
            message=rule.format(**values), location=location, where=where,
        )
        self.diagnostics.append(diagnostic)
        return diagnostic
