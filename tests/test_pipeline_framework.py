"""Tests for the typed stage-pipeline framework itself.

The IDLZ/OSPL stage definitions get their own golden-equivalence and
cache suites; this file exercises the framework contracts -- wiring
validation at construction, the frozen context, uniform error wrapping,
output-declaration checks, span instrumentation and the fingerprint
helpers -- against small synthetic pipelines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro import obs
from repro.errors import MeshError, PipelineError, ReproError, StageError
from repro.pipeline import (
    Context,
    Pipeline,
    StageCache,
    chain_key,
    chain_root,
    stable_digest,
    stage,
)


@stage("double", requires=("x",), provides=("doubled",),
       fingerprint=lambda ctx: stable_digest(ctx["x"]))
def double_stage(ctx):
    return {"doubled": ctx["x"] * 2}


@stage("shift", requires=("doubled", "offset"), provides=("shifted",),
       fingerprint=lambda ctx: stable_digest(ctx["offset"]))
def shift_stage(ctx):
    return {"shifted": ctx["doubled"] + ctx["offset"]}


def tiny_pipeline() -> Pipeline:
    return Pipeline("tiny", [double_stage, shift_stage],
                    inputs=("x", "offset"))


class TestWiring:
    def test_valid_pipeline_builds_and_runs(self):
        result = tiny_pipeline().run({"x": 4, "offset": 1})
        assert result["shifted"] == 9
        assert [r.stage for r in result.stages] == ["tiny.double",
                                                    "tiny.shift"]

    def test_empty_pipeline_rejected(self):
        with pytest.raises(PipelineError, match="no stages"):
            Pipeline("empty", [])

    def test_unprovided_requirement_rejected_at_build(self):
        with pytest.raises(PipelineError, match="shift.*requires"):
            Pipeline("broken", [shift_stage], inputs=("offset",))

    def test_requirement_from_later_stage_rejected(self):
        # Declaration order matters: shift needs double's output first.
        with pytest.raises(PipelineError):
            Pipeline("reversed", [shift_stage, double_stage],
                     inputs=("x", "offset"))

    def test_duplicate_stage_name_rejected(self):
        with pytest.raises(PipelineError, match="twice"):
            Pipeline("dup", [double_stage, double_stage], inputs=("x",))

    def test_missing_seed_value_rejected_at_run(self):
        with pytest.raises(PipelineError, match="seed value"):
            tiny_pipeline().run({"x": 4})

    def test_extra_seed_values_ignored(self):
        result = tiny_pipeline().run({"x": 4, "offset": 1, "spare": 9})
        assert result["shifted"] == 9

    def test_repr_names_the_flow(self):
        assert repr(tiny_pipeline()) == "Pipeline(tiny: double -> shift)"


class TestContext:
    def test_frozen_against_setattr(self):
        ctx = Context({"a": 1})
        with pytest.raises(AttributeError, match="frozen"):
            ctx.a = 2

    def test_missing_key_is_pipeline_error_naming_known_keys(self):
        with pytest.raises(PipelineError, match="has: a, b"):
            Context({"a": 1, "b": 2})["missing"]

    def test_derive_leaves_original_untouched(self):
        base = Context({"a": 1})
        derived = base.derive({"a": 2, "b": 3})
        assert base["a"] == 1 and "b" not in base
        assert derived["a"] == 2 and derived["b"] == 3

    def test_mapping_protocol(self):
        ctx = Context({"a": 1, "b": 2})
        assert sorted(ctx) == ["a", "b"]
        assert len(ctx) == 2
        assert "a" in ctx and "z" not in ctx


class TestErrorPolicy:
    def test_unexpected_exception_wrapped_as_stage_error(self):
        @stage("boom", provides=("y",))
        def boom(ctx):
            raise ValueError("internal detail")

        with pytest.raises(StageError) as excinfo:
            Pipeline("p", [boom]).run({})
        assert "p.boom" in str(excinfo.value)
        assert "ValueError" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_domain_errors_pass_through_unwrapped(self):
        @stage("strict", provides=("y",))
        def strict(ctx):
            raise MeshError("bad connectivity")

        with pytest.raises(MeshError, match="bad connectivity"):
            Pipeline("p", [strict]).run({})

    def test_stage_error_is_a_repro_error(self):
        # Callers catching the library base keep working.
        assert issubclass(StageError, ReproError)


class TestOutputValidation:
    def test_non_dict_return_rejected(self):
        @stage("bad", provides=("y",))
        def bad(ctx):
            return [1, 2]

        with pytest.raises(PipelineError, match="not a dict"):
            Pipeline("p", [bad]).run({})

    def test_missing_declared_output_rejected(self):
        @stage("partial", provides=("y", "z"))
        def partial(ctx):
            return {"y": 1}

        with pytest.raises(PipelineError, match="declared output.*z"):
            Pipeline("p", [partial]).run({})

    def test_undeclared_extras_are_allowed(self):
        @stage("chatty", provides=("y",))
        def chatty(ctx):
            return {"y": 1, "debug": "extra"}

        result = Pipeline("p", [chatty]).run({})
        assert result["y"] == 1 and result["debug"] == "extra"


class TestDecorator:
    def test_decorator_builds_a_stage(self):
        assert double_stage.name == "double"
        assert double_stage.requires == ("x",)
        assert double_stage.provides == ("doubled",)
        assert double_stage.cacheable

    def test_stage_without_fingerprint_not_cacheable(self):
        @stage("plain", provides=("y",))
        def plain(ctx):
            return {"y": 1}

        assert not plain.cacheable and not plain.transparent


class TestInstrumentation:
    def test_stages_run_under_qualified_spans(self):
        with obs.capture() as observer:
            tiny_pipeline().run({"x": 4, "offset": 1})
        assert {"tiny.double",
                "tiny.shift"} <= observer.tracer.span_names()

    def test_span_attrs_and_cache_status_stamped(self, tmp_path):
        @stage("attrs", requires=("x",), provides=("y",),
               fingerprint=lambda ctx: stable_digest(ctx["x"]),
               span_attrs=lambda ctx: {"x": ctx["x"]})
        def attrs(ctx):
            return {"y": ctx["x"]}

        cache = StageCache(tmp_path / "stages")
        with obs.capture() as observer:
            Pipeline("p", [attrs], inputs=("x",)).run({"x": 7},
                                                      cache=cache)
        span = next(s for s in observer.tracer.roots
                    if s.name == "p.attrs")
        assert span.attrs["x"] == 7
        assert span.attrs["cache"] == "miss"


class TestFingerprints:
    def test_stable_digest_is_deterministic(self):
        assert stable_digest(1, "a", [2.0]) == stable_digest(1, "a", [2.0])

    def test_distinct_values_distinct_digests(self):
        # Type tags keep look-alikes apart.
        assert stable_digest(1) != stable_digest("1")
        assert stable_digest(1) != stable_digest(1.0)
        assert stable_digest(True) != stable_digest(1)
        assert stable_digest([1, 2]) != stable_digest([2, 1])

    def test_numpy_arrays_digest_by_content(self):
        a = np.arange(6, dtype=np.float64).reshape(2, 3)
        assert stable_digest(a) == stable_digest(a.copy())
        assert stable_digest(a) != stable_digest(a.T.copy())
        assert stable_digest(a) != stable_digest(a.astype(np.float32))

    def test_dataclasses_digest_by_fields(self):
        @dataclass
        class Options:
            n: int
            tag: str

        assert stable_digest(Options(1, "a")) == stable_digest(Options(1, "a"))
        assert stable_digest(Options(1, "a")) != stable_digest(Options(2, "a"))

    def test_unknown_types_refused(self):
        with pytest.raises(PipelineError, match="cannot fingerprint"):
            stable_digest(object())

    def test_chain_keys_fold_upstream_and_version(self, monkeypatch):
        root_a = chain_root("idlz")
        assert root_a == chain_root("idlz")
        assert root_a != chain_root("ospl")
        # Any source change moves the code digest, orphaning entries.
        monkeypatch.setattr("repro.pipeline.cache.code_digest",
                            lambda: "edited source")
        root_b = chain_root("idlz")
        assert root_a != root_b
        key = chain_key(root_a, "number", "fp")
        assert key != chain_key(root_b, "number", "fp")
        assert key != chain_key(root_a, "number", "fp2")
        assert key != chain_key(root_a, "elements", "fp")


class TestResult:
    def test_cache_counts_off_without_cache(self):
        result = tiny_pipeline().run({"x": 4, "offset": 1})
        assert result.cache_counts() == {"hit": 0, "miss": 0, "off": 2}
        rows = result.stage_dicts()
        assert rows[0]["stage"] == "tiny.double"
        assert rows[0]["cache"] == "off"
        assert rows[0]["key"] is None
