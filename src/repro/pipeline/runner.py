"""The pipeline executor: wiring checks, spans, caching, error wrapping.

A :class:`Pipeline` is an ordered list of stages over a declared set of
seed inputs.  Construction validates the wiring (every ``requires`` must
be seeded or provided earlier; duplicate stage or output declarations
are rejected), so a mis-wired flow fails when it is *built*, not halfway
through a run.

``run()`` threads a frozen :class:`~repro.pipeline.context.Context`
through the stages.  Every stage is executed under an observability span
named ``<pipeline>.<stage>`` carrying the stage's declared attributes
(plus ``cache="hit"|"miss"`` when a cache is active), so instrumentation
is uniform across programs instead of hand-rolled per driver.  When the
enabled observer asks for profiling, the stage body additionally runs
under :class:`cProfile.Profile` and its hotspot table is filed on the
observer; when it collects resources (the default), a cheap
before/after :mod:`repro.obs.resources` sample brackets the body and
the delta (peak RSS, GC collections, FDs) rides on the span attrs and
the report's ``resources`` section; when a run ledger is enabled
(:mod:`repro.obs.events`), each stage emits
``stage_open``/``stage_close`` lifecycle events.  Unexpected
exceptions are wrapped into :class:`~repro.errors.StageError` naming the
pipeline and stage; :class:`~repro.errors.ReproError` subclasses pass
through untouched so callers keep catching the domain types they always
caught.

With a :class:`~repro.pipeline.cache.StageCache`, each cacheable stage
is keyed by the chained upstream keys plus its own fingerprint (see
:mod:`repro.pipeline.cache`); hits restore the stage's outputs without
running it, and the per-stage hit/miss record rides out on the
:class:`PipelineResult` for manifests and reports.
"""

from __future__ import annotations

import cProfile
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro import obs
from repro.errors import PipelineError, ReproError, StageError
from repro.obs import events, resources
from repro.obs.profile import hotspot_table
from repro.pipeline.cache import StageCache, chain_key, chain_root
from repro.pipeline.context import Context
from repro.pipeline.stage import Stage


@dataclass(frozen=True)
class StageRecord:
    """How one stage of one run went (the manifest's per-stage row)."""

    stage: str                 # fully qualified span name, "idlz.shape"
    cache: str                 # "hit" | "miss" | "off"
    wall_s: float
    key: Optional[str] = None  # content address when a cache was active

    def to_dict(self) -> Dict[str, Any]:
        return {"stage": self.stage, "cache": self.cache,
                "wall_s": self.wall_s, "key": self.key}


@dataclass(frozen=True)
class PipelineResult:
    """The final context plus the per-stage execution record."""

    values: Context
    stages: Tuple[StageRecord, ...]

    def __getitem__(self, key: str) -> Any:
        return self.values[key]

    def cache_counts(self) -> Dict[str, int]:
        counts = {"hit": 0, "miss": 0, "off": 0}
        for record in self.stages:
            counts[record.cache] += 1
        return counts

    def stage_dicts(self) -> List[Dict[str, Any]]:
        return [record.to_dict() for record in self.stages]


class Pipeline:
    """An ordered, wiring-checked sequence of stages."""

    def __init__(self, name: str, stages: Sequence[Stage],
                 inputs: Sequence[str] = ()):
        if not stages:
            raise PipelineError(f"pipeline {name!r} has no stages")
        self.name = name
        self.stages: Tuple[Stage, ...] = tuple(stages)
        self.inputs: Tuple[str, ...] = tuple(inputs)
        available: Set[str] = set(self.inputs)
        seen: Set[str] = set()
        for stage in self.stages:
            if stage.name in seen:
                raise PipelineError(
                    f"pipeline {name!r} declares stage "
                    f"{stage.name!r} twice"
                )
            seen.add(stage.name)
            missing = [key for key in stage.requires
                       if key not in available]
            if missing:
                raise PipelineError(
                    f"stage {name}.{stage.name} requires "
                    f"{', '.join(sorted(missing))} which no earlier "
                    f"stage provides and the pipeline does not seed"
                )
            available.update(stage.provides)

    def __repr__(self) -> str:
        flow = " -> ".join(s.name for s in self.stages)
        return f"Pipeline({self.name}: {flow})"

    # ------------------------------------------------------------------
    def run(self, values: Mapping[str, Any],
            cache: Optional[StageCache] = None) -> PipelineResult:
        """Execute the stages over seeded ``values``.

        Seeds missing a declared pipeline input fail up front; extra
        seed keys are allowed (stages simply ignore them).
        """
        missing = [key for key in self.inputs if key not in values]
        if missing:
            raise PipelineError(
                f"pipeline {self.name!r} needs seed value(s) "
                f"{', '.join(sorted(missing))}"
            )
        ctx = Context(values)
        chain: Optional[str] = (chain_root(self.name)
                                if cache is not None else None)
        records: List[StageRecord] = []
        for stage in self.stages:
            ctx, record, chain = self._run_stage(stage, ctx, cache, chain)
            records.append(record)
        return PipelineResult(values=ctx, stages=tuple(records))

    # ------------------------------------------------------------------
    def _run_stage(self, stage: Stage, ctx: Context,
                   cache: Optional[StageCache], chain: Optional[str],
                   ) -> Tuple[Context, StageRecord, Optional[str]]:
        qualified = f"{self.name}.{stage.name}"
        key: Optional[str] = None
        cached: Optional[Dict[str, Any]] = None
        status = "off"
        if cache is not None and chain is not None and stage.cacheable:
            fingerprint = stage.fingerprint(ctx)  # type: ignore[misc]
            if fingerprint is None:
                # Uncacheable this run (e.g. caller-supplied stateful
                # device); downstream keys would no longer describe
                # their inputs, so the chain stops here.
                chain = None
            else:
                key = chain_key(chain, stage.name, fingerprint)
                chain = key
                cached = cache.lookup(key)
                status = "hit" if cached is not None else "miss"
        elif cache is not None and chain is not None and stage.transparent:
            pass  # runs every time; chain flows through unchanged
        elif cache is not None:
            chain = None

        attrs = dict(stage.span_attrs(ctx)) if stage.span_attrs else {}
        if status != "off":
            attrs["cache"] = status
            obs.count("pipeline.stage_hits" if status == "hit"
                      else "pipeline.stage_misses")
        events.emit("stage_open", stage=qualified, cache=status)
        # Resource telemetry: a before/after pair brackets the stage
        # body (cache restores included -- unpickling allocates too);
        # the delta lands on the span attrs and the observer's
        # ResourceLog, becoming the report's ``resources`` section.
        res_before = resources.sample() if obs.enabled() else None
        start = perf_counter()
        with obs.span(qualified, **attrs) as span_handle:
            if cached is not None:
                outputs = cached
            else:
                # Under --profile each stage body runs inside its own
                # cProfile capture; the top-N hotspot table lands on the
                # observer keyed by the qualified stage name (repeats of
                # the same stage across problems merge).
                profiler: Optional[cProfile.Profile] = None
                if obs.profiling():
                    profiler = cProfile.Profile()
                    profiler.enable()
                try:
                    outputs = stage.run(ctx)
                except ReproError:
                    raise
                except Exception as exc:
                    raise StageError(self.name, stage.name, exc) from exc
                finally:
                    if profiler is not None:
                        profiler.disable()
                        observer = obs.current()
                        if observer is not None:
                            observer.profiles.record(
                                qualified, hotspot_table(profiler)
                            )
                if not isinstance(outputs, dict):
                    raise PipelineError(
                        f"stage {qualified} returned "
                        f"{type(outputs).__name__}, not a dict of its "
                        f"provided values"
                    )
                undeclared = [k for k in stage.provides
                              if k not in outputs]
                if undeclared:
                    raise PipelineError(
                        f"stage {qualified} did not produce declared "
                        f"output(s) {', '.join(sorted(undeclared))}"
                    )
                if key is not None:
                    cache.store(key, outputs)  # type: ignore[union-attr]
            if res_before is not None:
                res_record = resources.stage_delta(res_before)
                obs.resource_record(qualified, res_record)
                if span_handle is not None:
                    span_handle.set_attr("rss_delta_kb",
                                         res_record["rss_delta_kb"])
        record = StageRecord(stage=qualified, cache=status,
                             wall_s=perf_counter() - start, key=key)
        events.emit("stage_close", stage=qualified, cache=status,
                    wall_s=round(record.wall_s, 6))
        return ctx.derive(outputs), record, chain
