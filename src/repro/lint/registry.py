"""The rule registry: every diagnostic code the analyzer can emit.

A :class:`Rule` binds a **stable** code (``IDZ205``), a severity, a
short title, and a message template.  Codes never change meaning once
shipped -- a snapshot test pins every (code, severity, title, template)
triple -- so harnesses can grep manifests and CI logs for a code and
trust it means the same thing next release.

Code families::

    IDZ0xx   IDLZ structural   (card layout, counts, references)
    IDZ1xx   IDLZ geometry     (subdivision shapes on the lattice)
    IDZ2xx   IDLZ shaping      (type-6 boundary cards, shapeability)
    OSP0xx   OSPL              (mesh, field and window checks)
    ANA0xx   analyze section   (materials, BCs, loads, plot requests)
    FMT0xx   FORTRAN FORMATs   (the type-7 punch formats)
    LIM0xx   Table 1/2 limits  (warnings; errors under --strict)
    PLN0xx   capacity          (cost planner vs --budget/--deadline)

Checker functions live in :mod:`repro.lint.rules_idlz`,
:mod:`repro.lint.rules_ospl`, :mod:`repro.lint.rules_format` and
:mod:`repro.lint.rules_limits`; they are registered per program and
driven by :mod:`repro.lint.engine`.  The PLN family
(:mod:`repro.lint.rules_plan`) is threshold-gated and applied once per
deck by the engine rather than through the checker tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.errors import LintError
from repro.lint.diagnostics import SEVERITIES


@dataclass(frozen=True)
class Rule:
    """One diagnostic the analyzer can produce."""

    code: str
    severity: str        # declared severity ("LIM" rules escalate on strict)
    title: str           # one line, stable
    template: str        # message template with {field} placeholders, stable
    explain: str         # catalog prose shown by ``lint --explain CODE``

    def format(self, **values: object) -> str:
        try:
            return self.template.format(**values)
        except (KeyError, IndexError) as exc:
            raise LintError(
                f"rule {self.code}: template is missing value {exc}"
            ) from exc


_RULES: Dict[str, Rule] = {}

#: Checker functions by program; each takes a LintContext and emits
#: diagnostics through it.
_CHECKERS: Dict[str, List[Callable[..., None]]] = {
    "idlz": [], "ospl": [], "analyze": [],
}


def register_rule(code: str, severity: str, title: str, template: str,
                  explain: str) -> Rule:
    """Add one rule to the registry (import-time, module body)."""
    if severity not in SEVERITIES:
        raise LintError(f"rule {code}: unknown severity {severity!r}")
    if code in _RULES:
        raise LintError(f"duplicate rule code {code}")
    rule = Rule(code=code, severity=severity, title=title,
                template=template, explain=explain)
    _RULES[code] = rule
    return rule


def checker(*programs: str) -> Callable[[Callable[..., None]],
                                        Callable[..., None]]:
    """Decorator registering a checker function for the given programs."""
    def wrap(fn: Callable[..., None]) -> Callable[..., None]:
        for program in programs:
            if program not in _CHECKERS:
                raise LintError(f"unknown program {program!r}")
            _CHECKERS[program].append(fn)
        return fn
    return wrap


def get_rule(code: str) -> Rule:
    """The rule for ``code``; raises :class:`LintError` if unknown."""
    _load_rules()
    try:
        return _RULES[code.upper()]
    except KeyError:
        known = ", ".join(sorted(_RULES))
        raise LintError(f"unknown rule code {code!r} (known: {known})"
                        ) from None


def all_rules() -> List[Rule]:
    """Every registered rule, sorted by code."""
    _load_rules()
    return [_RULES[code] for code in sorted(_RULES)]


def checkers_for(program: str) -> List[Callable[..., None]]:
    """The checker functions registered for one program."""
    _load_rules()
    return list(_CHECKERS[program])


def explain(code: str) -> str:
    """The ``--explain`` catalog entry for one code."""
    rule = get_rule(code)
    return (f"{rule.code} ({rule.severity}): {rule.title}\n\n"
            f"{rule.explain.strip()}\n")


_loaded = False


def _load_rules() -> None:
    """Import the rule modules exactly once (they register on import)."""
    global _loaded
    if _loaded:
        return
    _loaded = True
    from repro.lint import (  # noqa: F401  (import registers the rules)
        rules_analyze,
        rules_format,
        rules_idlz,
        rules_limits,
        rules_ospl,
        rules_plan,
    )
