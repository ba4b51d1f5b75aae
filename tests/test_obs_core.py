"""The observability layer: spans, metrics, reports, disabled overhead."""

from __future__ import annotations

import threading
import time

import pytest

from repro import obs
from repro.core.idlz.pipeline import Idealizer
from repro.core.idlz.shaping import ShapingSegment
from repro.core.idlz.subdivision import Subdivision
from repro.errors import ObsError
from repro.obs.metrics import MetricsRegistry, percentile
from repro.obs.report import RunReport


def idealize_plate(cols: int = 40, rows: int = 60):
    """A paper-scale rectangular idealization (the overhead workload)."""
    sub = Subdivision(index=1, kk1=1, ll1=1, kk2=cols + 1, ll2=rows + 1)
    segments = [
        ShapingSegment(1, 1, 1, cols + 1, 1,
                       0.0, 0.0, float(cols), 0.0),
        ShapingSegment(1, 1, rows + 1, cols + 1, rows + 1,
                       0.0, float(rows), float(cols), float(rows)),
    ]
    return Idealizer(title=f"PLATE {cols}X{rows}",
                     subdivisions=[sub]).run(segments)


class TestSpans:
    def test_nesting_and_ordering(self):
        with obs.capture() as ob:
            with obs.span("a", kind="outer"):
                with obs.span("b"):
                    pass
                with obs.span("c"):
                    pass
            with obs.span("d"):
                pass
        roots = ob.tracer.to_list()
        assert [r["name"] for r in roots] == ["a", "d"]
        a = roots[0]
        assert [c["name"] for c in a["children"]] == ["b", "c"]
        assert a["attrs"] == {"kind": "outer"}
        child_wall = sum(c["wall_s"] for c in a["children"])
        assert a["wall_s"] >= child_wall
        for span in (a, *a["children"], roots[1]):
            assert span["wall_s"] >= 0.0
            assert span["cpu_s"] >= 0.0
            assert span["start_s"] >= 0.0

    def test_span_timing_measures_work(self):
        with obs.capture() as ob:
            with obs.span("sleepy"):
                time.sleep(0.02)
        (root,) = ob.tracer.to_list()
        assert root["wall_s"] >= 0.015
        # Sleeping burns wall clock, not CPU.
        assert root["cpu_s"] < root["wall_s"]

    def test_exception_closes_span_and_tags_error(self):
        with obs.capture() as ob:
            with pytest.raises(ValueError):
                with obs.span("boom"):
                    raise ValueError("no")
            with obs.span("after"):
                pass
        roots = ob.tracer.to_list()
        assert [r["name"] for r in roots] == ["boom", "after"]
        assert roots[0]["attrs"]["error"] == "ValueError"
        assert roots[0]["wall_s"] is not None

    def test_threads_get_independent_stacks(self):
        with obs.capture() as ob:
            def work(i: int) -> None:
                with obs.span(f"thread-{i}"):
                    with obs.span("inner"):
                        pass

            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        roots = ob.tracer.to_list()
        assert sorted(r["name"] for r in roots) == [
            f"thread-{i}" for i in range(4)
        ]
        for root in roots:
            assert [c["name"] for c in root["children"]] == ["inner"]

    def test_nested_observers_stack(self):
        with obs.capture() as outer:
            with obs.span("outer-only"):
                pass
            with obs.capture() as inner:
                with obs.span("inner-only"):
                    pass
            with obs.span("outer-again"):
                pass
        assert outer.tracer.span_names() == {"outer-only", "outer-again"}
        assert inner.tracer.span_names() == {"inner-only"}


class TestMetrics:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.count("n")
        reg.count("n", 4)
        reg.count("other", 2)
        assert reg.counter("n").value == 5
        assert reg.to_dict()["counters"] == {"n": 5, "other": 2}

    def test_gauge_keeps_last_value(self):
        reg = MetricsRegistry()
        reg.set_gauge("bw", 41)
        reg.set_gauge("bw", 7)
        assert reg.to_dict()["gauges"] == {"bw": 7}

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        for v in [1.0, 2.0, 3.0, 4.0, 10.0]:
            reg.observe("h", v)
        summary = reg.to_dict()["histograms"]["h"]
        assert summary["count"] == 5
        assert summary["min"] == 1.0
        assert summary["max"] == 10.0
        assert summary["mean"] == pytest.approx(4.0)
        assert summary["total"] == pytest.approx(20.0)
        assert summary["p50"] == 3.0
        assert summary["p95"] == 10.0

    def test_empty_histogram_summarises_to_count_zero(self):
        reg = MetricsRegistry()
        reg.histogram("h")  # created but never observed
        assert reg.to_dict()["histograms"]["h"] == {"count": 0}

    def test_single_sample_histogram_percentiles(self):
        reg = MetricsRegistry()
        reg.observe("h", 7.5)
        summary = reg.to_dict()["histograms"]["h"]
        assert summary == {
            "count": 1, "min": 7.5, "max": 7.5, "mean": 7.5,
            "total": 7.5, "p50": 7.5, "p95": 7.5,
        }

    def test_all_equal_samples_histogram_percentiles(self):
        reg = MetricsRegistry()
        for _ in range(9):
            reg.observe("h", 3.0)
        summary = reg.to_dict()["histograms"]["h"]
        assert summary["count"] == 9
        for key in ("min", "max", "mean", "p50", "p95"):
            assert summary[key] == 3.0
        assert summary["total"] == pytest.approx(27.0)

    def test_percentile_rejects_empty_and_clamps_q(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        assert percentile([4.0], 0.0) == 4.0
        assert percentile([4.0], 1.0) == 4.0
        values = [1.0, 2.0, 3.0]
        assert percentile(values, -0.5) == 1.0
        assert percentile(values, 1.5) == 3.0

    def test_facade_routes_to_current_observer(self):
        with obs.capture() as ob:
            obs.count("c", 3)
            obs.gauge("g", 1.5)
            obs.observe("h", 2.0)
        metrics = ob.metrics.to_dict()
        assert metrics["counters"] == {"c": 3}
        assert metrics["gauges"] == {"g": 1.5}
        assert metrics["histograms"]["h"]["count"] == 1

    def test_facade_is_silent_when_disabled(self):
        assert not obs.enabled()
        obs.count("nope")
        obs.gauge("nope", 1)
        obs.observe("nope", 1.0)  # all no-ops, nothing to assert but no error


class TestRunReport:
    def build_report(self) -> RunReport:
        with obs.capture() as ob:
            with obs.span("stage.one", size=3):
                obs.count("things", 7)
            obs.gauge("level", 2)
            obs.observe("dist", 1.0)
        return ob.report(command="test", note="round-trip")

    def test_json_round_trip(self):
        report = self.build_report()
        again = RunReport.from_json(report.to_json())
        assert again.to_dict() == report.to_dict()
        assert again.meta["note"] == "round-trip"
        assert again.counters() == {"things": 7}
        assert again.gauges() == {"level": 2}
        assert again.span_names() == {"stage.one"}

    def test_save_and_load(self, tmp_path):
        report = self.build_report()
        path = report.save(tmp_path / "sub" / "run.json")
        assert path.exists()
        assert RunReport.load(path).to_dict() == report.to_dict()

    def test_rejects_foreign_schema(self):
        with pytest.raises(ObsError, match="something-else"):
            RunReport.from_dict({"schema": "something-else"})

    def test_rejects_missing_schema_with_clean_error(self):
        with pytest.raises(ObsError, match="missing 'schema'"):
            RunReport.from_dict({"spans": [], "metrics": {}})

    def test_rejects_non_object_payload(self):
        with pytest.raises(ObsError, match="JSON object"):
            RunReport.from_dict([1, 2, 3])

    def test_rejects_invalid_json_text(self):
        with pytest.raises(ObsError, match="not valid JSON"):
            RunReport.from_json("{not json")

    def test_rejects_pre_v13_reports(self):
        # v1.3 is the one report format: every checked-in record is v1.3.
        for legacy in ("repro.obs/v1", "repro.obs/v1.1", "repro.obs/v1.2"):
            with pytest.raises(ObsError, match="unsupported report schema"):
                RunReport.from_dict({"schema": legacy, "meta": {},
                                     "spans": [], "metrics": {}})

    def test_render_tree_mentions_spans_and_metrics(self):
        report = self.build_report()
        tree = report.render_tree()
        assert "stage.one" in tree
        assert "things" in tree
        assert "level" in tree

    def test_find_spans(self):
        report = self.build_report()
        (span,) = report.find_spans("stage.one")
        assert span["attrs"] == {"size": 3}
        assert report.find_spans("missing") == []


class TestPipelineObservation:
    def test_idealizer_emits_stage_spans_and_metrics(self):
        with obs.capture() as ob:
            ideal = idealize_plate(8, 6)
        report = ob.report()
        assert {"idlz.number", "idlz.elements", "idlz.shape",
                "idlz.reform", "idlz.renumber"} <= report.span_names()
        counters = report.counters()
        assert counters["idlz.nodes_numbered"] == ideal.n_nodes
        assert counters["idlz.elements_created"] == ideal.n_elements
        assert counters["idlz.diagonal_swaps"] == ideal.swaps
        gauges = report.gauges()
        assert gauges["idlz.bandwidth_before"] == ideal.bandwidth_before
        assert gauges["idlz.bandwidth_after"] == ideal.bandwidth_after


class TestConcurrentCapture:
    def test_two_threads_running_idlz_nest_their_own_forests(self, tmp_path):
        """Two run_idlz_files calls under one capture stay disentangled.

        Each thread must contribute its own ``idlz.read`` root and its
        own ``idlz.problem`` root with the stage spans nested inside it
        -- not a merged or interleaved tree.
        """
        from repro.core.idlz.deck import IdlzProblem, write_idlz_deck
        from repro.core.idlz.program import run_idlz_files

        decks = {}
        for label, cols in (("alpha", 4), ("beta", 6)):
            sub = Subdivision(index=1, kk1=1, ll1=1,
                              kk2=cols + 1, ll2=5)
            segments = [
                ShapingSegment(1, 1, 1, cols + 1, 1,
                               0.0, 0.0, float(cols), 0.0),
                ShapingSegment(1, 1, 5, cols + 1, 5,
                               0.0, 4.0, float(cols), 4.0),
            ]
            problem = IdlzProblem(title=f"THREAD {label.upper()}",
                                  subdivisions=[sub], segments=segments)
            deck = tmp_path / f"{label}.deck"
            deck.write_text(write_idlz_deck([problem]).to_text())
            decks[label] = deck

        errors = []

        def work(label: str) -> None:
            try:
                run_idlz_files(decks[label], tmp_path / f"out_{label}")
            except Exception as exc:  # pragma: no cover - reported below
                errors.append((label, exc))

        with obs.capture() as ob:
            threads = [threading.Thread(target=work, args=(label,))
                       for label in decks]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert errors == []

        roots = ob.tracer.to_list()
        names = [r["name"] for r in roots]
        assert names.count("idlz.read") == 2
        problem_roots = [r for r in roots if r["name"] == "idlz.problem"]
        assert len(problem_roots) == 2
        titles = {r["attrs"]["title"] for r in problem_roots}
        assert titles == {"THREAD ALPHA", "THREAD BETA"}
        stage_names = {"idlz.number", "idlz.elements", "idlz.shape",
                       "idlz.reform", "idlz.renumber", "idlz.output"}
        for root in problem_roots:
            children = [c["name"] for c in root["children"]]
            assert stage_names <= set(children)
            # Every span in this subtree closed (a cross-thread mixup
            # leaves spans dangling open).
            def closed(span):
                assert span["wall_s"] is not None
                for child in span.get("children", []):
                    closed(child)
            closed(root)


class TestDisabledOverhead:
    def test_disabled_span_is_shared_noop(self):
        assert not obs.enabled()
        assert obs.span("a") is obs.span("b")
        with obs.span("anything") as span:
            assert span is None

    def test_disabled_overhead_on_40x60_idealization_under_5pct(self):
        """Projected cost of disabled-mode facade calls is < 5% of the run.

        The 40 x 60 idealization crosses well under 1000 instrumentation
        points (stage spans plus end-of-stage metric calls); we measure
        the disabled facade's per-call price and project 1000 of them
        against the measured pipeline time.
        """
        assert not obs.enabled()
        t_run = min(
            _timed(lambda: idealize_plate(40, 60)) for _ in range(2)
        )

        iters = 20_000

        def facade_burn():
            for _ in range(iters):
                with obs.span("x"):
                    pass
                obs.count("c")
                obs.gauge("g", 1)

        t_calls = min(_timed(facade_burn) for _ in range(3))
        per_call_set = t_calls / iters
        projected_overhead = per_call_set * 1000
        assert projected_overhead < 0.05 * t_run, (
            f"disabled obs overhead projected at {projected_overhead:.4f}s "
            f"against a {t_run:.4f}s idealization"
        )


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0
