"""Resource telemetry: sampling, per-stage deltas, the v1.3 report."""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs.resources import (
    ResourceLog,
    current_rss_kb,
    gc_collections,
    open_fd_count,
    peak_rss_kb,
    render_resources,
    sample,
    stage_delta,
)
from repro.pipeline import Pipeline
from repro.pipeline.stage import stage


@pytest.fixture(autouse=True)
def clean_observers():
    yield
    while obs.enabled():
        obs.disable()


class TestSampling:
    def test_rss_values_plausible(self):
        rss = current_rss_kb()
        peak = peak_rss_kb()
        # A running CPython interpreter needs megabytes; 10GB means a
        # unit slipped (ru_maxrss is bytes on some BSDs).
        assert 1_000 < rss < 10_000_000
        assert 1_000 < peak < 10_000_000
        assert peak >= rss // 2  # same order of magnitude

    def test_gc_and_fd_counts(self):
        gens = gc_collections()
        assert len(gens) == 3
        assert all(g >= 0 for g in gens)
        assert open_fd_count() > 0

    def test_sample_fields(self):
        snap = sample()
        assert snap.rss_kb > 0
        assert len(snap.gc_collections) == 3

    def test_stage_delta_shape(self):
        before = sample()
        blob = [list(range(1000)) for _ in range(100)]
        delta = stage_delta(before)
        assert blob  # keep it alive across the delta
        for key in ("rss_delta_kb", "gc_gen0",
                    "gc_gen1", "gc_gen2", "open_fds", "fd_delta"):
            assert key in delta
        # The process high-water mark is not a per-stage value.
        assert "peak_rss_kb" not in delta
        assert delta["gc_gen0"] >= 0

    def test_fd_delta_sees_an_opened_file(self, tmp_path):
        before = sample()
        handle = open(tmp_path / "f.txt", "w")
        try:
            delta = stage_delta(before)
            assert delta["fd_delta"] >= 1
        finally:
            handle.close()


class TestResourceLog:
    def test_record_and_listing(self):
        log = ResourceLog()
        log.record("idlz.shape", {"rss_delta_kb": 5})
        log.record("idlz.reform", {"rss_delta_kb": 2})
        entries = log.to_list()
        assert [e["stage"] for e in entries] == ["idlz.shape",
                                                "idlz.reform"]
        assert entries[1]["values"] == {"rss_delta_kb": 2}

    def test_render_table(self):
        entries = [{"stage": "idlz.shape",
                    "values": {"rss_delta_kb": 512,
                               "gc_gen0": 3, "open_fds": 6}}]
        table = render_resources(entries)
        assert "idlz.shape" in table
        assert render_resources([]).startswith("resources:")


class TestPipelineIntegration:
    def _pipeline(self):
        @stage("work", requires=("x",), provides=("y",))
        def work(ctx):
            return {"y": [i * 2 for i in range(20_000)]}

        return Pipeline("bench", [work], inputs=("x",))

    def test_stage_delta_lands_on_report(self):
        with obs.capture() as observer:
            self._pipeline().run({"x": 1})
        report = observer.report()
        entries = report.resource_entries("bench.work")
        assert len(entries) == 1
        values = entries[0]["values"]
        assert "rss_delta_kb" in values
        assert "peak_rss_kb" not in values
        # The run's high-water mark is taken once, in the report meta.
        assert report.meta["peak_rss_kb"] > 0
        assert report.peak_rss_kb() == report.meta["peak_rss_kb"]

    def test_span_attrs_carry_rss(self):
        with obs.capture() as observer:
            self._pipeline().run({"x": 1})
        span = observer.report().find_spans("bench.work")[0]
        assert "peak_rss_kb" not in span["attrs"]
        assert "rss_delta_kb" in span["attrs"]

    def test_disabled_observer_records_nothing(self):
        result = self._pipeline().run({"x": 1})
        assert len(result["y"]) == 20_000


class TestReportSchema:
    def test_v13_round_trip_keeps_resources(self):
        with obs.capture() as observer:
            observer.resources.record("idlz.shape", {"rss_delta_kb": 9})
        report = observer.report()
        data = report.to_dict()
        assert data["schema"] == "repro.obs/v1.3"
        from repro.obs.report import RunReport

        loaded = RunReport.from_dict(data)
        assert loaded.resource_entries("idlz.shape")[0]["values"] == {
            "rss_delta_kb": 9}
        assert loaded.peak_rss_kb() == report.meta["peak_rss_kb"]
        assert "idlz.shape" in loaded.render_resources()

    def test_report_without_meta_peak_has_none(self):
        from repro.obs.report import RunReport

        loaded = RunReport.from_dict({
            "schema": "repro.obs/v1.3",
            "meta": {}, "spans": [],
            "metrics": {"counters": {}, "gauges": {}},
        })
        assert loaded.resources == []
        assert loaded.peak_rss_kb() is None
