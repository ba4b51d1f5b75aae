"""The typed stage contract.

A :class:`Stage` is one box of an Appendix-E flow diagram: a named unit
of work with declared inputs (``requires``) and outputs (``provides``)
over the pipeline :class:`~repro.pipeline.context.Context`.  The
declarations are checked twice -- at pipeline construction (every
required key must be provided by an earlier stage or seeded by the
caller) and after each stage runs (every declared output must actually
be present in the returned dict).

Cacheability is opt-in per stage through ``fingerprint``: a callable
digesting the stage's *direct* parameters (not its upstream data, which
is covered by the chained upstream keys -- see
:mod:`repro.pipeline.cache`).  A stage without a fingerprint always
runs; set ``transparent=True`` when such a stage is a pure, cheap
restatement of seed inputs whose variability downstream fingerprints
fully cover (deck parsing is the canonical case), so it does not break
the cache chain for the stages after it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.pipeline.context import Context

#: A stage body: context in, provided values out.
RunFn = Callable[[Context], Dict[str, Any]]

#: Digest of a stage's direct parameters, or ``None`` for "not cacheable
#: this run" (e.g. a caller-supplied stateful plotter is in play).
FingerprintFn = Callable[[Context], Optional[str]]

#: Attributes stamped onto the stage's observability span.
AttrsFn = Callable[[Context], Dict[str, Any]]


@dataclass(frozen=True)
class Stage:
    """One named, typed unit of a pipeline."""

    name: str
    run: RunFn
    requires: Tuple[str, ...] = ()
    provides: Tuple[str, ...] = ()
    fingerprint: Optional[FingerprintFn] = None
    transparent: bool = False
    span_attrs: Optional[AttrsFn] = field(default=None, compare=False)

    @property
    def cacheable(self) -> bool:
        return self.fingerprint is not None


def stage(name: str,
          requires: Tuple[str, ...] = (),
          provides: Tuple[str, ...] = (),
          fingerprint: Optional[FingerprintFn] = None,
          transparent: bool = False,
          span_attrs: Optional[AttrsFn] = None) -> Callable[[RunFn], Stage]:
    """Decorator sugar: turn a context function into a :class:`Stage`.

    ::

        @stage("number", requires=("subdivisions", "strict"),
               provides=("grid",))
        def number_stage(ctx):
            ...
            return {"grid": grid}
    """
    def wrap(fn: RunFn) -> Stage:
        return Stage(name=name, run=fn, requires=requires,
                     provides=provides, fingerprint=fingerprint,
                     transparent=transparent, span_attrs=span_attrs)
    return wrap
