"""The typed stage-pipeline framework IDLZ and OSPL run on.

A pipeline is an ordered list of :class:`Stage` objects with declared
inputs and outputs, executed over a frozen :class:`Context`.  The runner
gives every stage a uniform observability span, uniform error wrapping
(:class:`~repro.errors.StageError`), and -- when a :class:`StageCache`
is supplied -- stage-granular content-addressed caching keyed by chained
upstream digests (see docs/PIPELINE.md).

Program wiring lives in :mod:`repro.pipeline.idlz` and
:mod:`repro.pipeline.ospl`; the legacy entry points
(:class:`repro.core.idlz.pipeline.Idealizer`,
:func:`repro.core.ospl.plot.conplt`, the ``run_*`` drivers) are thin
facades over those builders.
"""

from repro.pipeline.cache import (
    StageCache,
    chain_key,
    chain_root,
    stable_digest,
)
from repro.pipeline.context import Context
from repro.pipeline.runner import Pipeline, PipelineResult, StageRecord
from repro.pipeline.stage import Stage, stage

__all__ = [
    "Context",
    "Pipeline",
    "PipelineResult",
    "Stage",
    "StageCache",
    "StageRecord",
    "chain_key",
    "chain_root",
    "stable_digest",
    "stage",
]
