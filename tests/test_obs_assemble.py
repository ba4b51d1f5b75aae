"""Cross-process trace assembly: batch fragments onto one timeline."""

from __future__ import annotations

import pytest

from repro import obs
from repro.batch import BatchOptions, discover_jobs, run_batch
from repro.cli import main
from repro.core.idlz.deck import IdlzProblem, write_idlz_deck
from repro.core.idlz.shaping import ShapingSegment
from repro.core.idlz.subdivision import Subdivision
from repro.errors import ObsError
from repro.obs.assemble import (
    SYNTH_JOB_SPAN,
    assemble_batch_trace,
    assemble_report_trace,
    render_timeline,
    render_trace,
)

OSPL_DECK = """\
    6    4    4.0000    0.0000    2.0000    0.0000    0.0000
TEST FIELD
TEST SUBTITLE
  0.00000  0.00000                           0.0001
  2.00000  0.00000                          12.0001
  4.00000  0.00000                          30.0002
  0.00000  2.00000                           6.0002
  2.00000  2.00000                          18.0001
  4.00000  2.00000                          42.0001
    1    2    5
    1    5    4
    2    3    6
    2    6    5
"""


def _idlz_deck_text(title="ASSEMBLY PLATE"):
    sub = Subdivision(index=1, kk1=1, ll1=1, kk2=4, ll2=4)
    segments = [
        ShapingSegment(1, 1, 1, 4, 1, 0.0, 0.0, 3.0, 0.0),
        ShapingSegment(1, 1, 4, 4, 4, 0.0, 3.0, 3.0, 3.0),
    ]
    problem = IdlzProblem(title=title, subdivisions=[sub],
                          segments=segments, nopnch=1)
    return write_idlz_deck([problem]).to_text()


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    """One 2-worker batch over two decks, run once for the module."""
    root = tmp_path_factory.mktemp("fleet")
    decks = root / "decks"
    decks.mkdir()
    (decks / "plate.deck").write_text(_idlz_deck_text())
    (decks / "field.deck").write_text(OSPL_DECK)
    specs = discover_jobs([str(decks / "*.deck")], root / "out")
    manifest = run_batch(specs, BatchOptions(jobs=2), out_root=root / "out")
    path = manifest.save(root / "out" / "batch_manifest.json")
    return manifest, path


class TestBatchAssembly:
    def test_one_trace_from_two_workers(self, fleet):
        manifest, _ = fleet
        trace = assemble_batch_trace(manifest)
        assert trace.trace_id == manifest.meta["trace_id"]
        assert trace.root.span_id == manifest.meta["root_span"]
        assert trace.root.name == "batch.run"
        # The coordinator's synthesized root, then every pool worker
        # that ran a job: one worker may take both jobs.
        pids = trace.pids()
        assert pids[0] == trace.root.pid == manifest.meta["pid"]
        assert set(pids) == {trace.root.pid} | {
            record["obs"]["pid"] for record in manifest.jobs}

    def test_every_job_fragment_resolves_to_the_root_trace(self, fleet):
        manifest, _ = fleet
        trace = assemble_batch_trace(manifest)
        # Every worker adopted the run's trace id...
        for record in manifest.jobs:
            assert record["obs"]["trace_id"] == trace.trace_id
            assert record["obs"]["parent_span"] == trace.root.span_id
        # ...and every stage span landed in the assembled tree.
        names = {span.name for span, _ in trace.walk()}
        assert {"batch.run", "batch.job", "idlz.read", "idlz.reform",
                "ospl.deck", "ospl.contour"} <= names

    def test_fragments_land_inside_the_run_window(self, fleet):
        manifest, _ = fleet
        trace = assemble_batch_trace(manifest)
        t0, t1 = trace.root.start_unix, trace.root.end_unix
        slack = 0.05  # clock-sample skew between processes
        for span, _ in trace.walk():
            assert span.start_unix >= t0 - slack
            assert span.end_unix <= t1 + slack

    def test_stage_spans_keep_their_job_and_pid(self, fleet):
        manifest, _ = fleet
        trace = assemble_batch_trace(manifest)
        by_job = {}
        for span, _ in trace.walk():
            if span.job_id is not None:
                by_job.setdefault(span.job_id, set()).add(span.pid)
        assert set(by_job) == {"plate", "field"}
        for pids in by_job.values():
            assert len(pids) == 1  # one worker per job fragment

    def test_span_count_and_render(self, fleet):
        manifest, _ = fleet
        trace = assemble_batch_trace(manifest)
        rendered = render_trace(trace)
        assert f"assembled trace {trace.trace_id}" in rendered
        assert rendered.count("\n") + 1 == trace.span_count() + 1
        assert "job=plate" in rendered
        assert "idlz.reform" in rendered

    def test_timeline_bars(self, fleet):
        manifest, _ = fleet
        timeline = render_timeline(assemble_batch_trace(manifest))
        assert "2 job(s)" in timeline
        assert "plate" in timeline and "field" in timeline
        assert "#" in timeline

    def test_timeline_fits_narrow_terminal(self, fleet, monkeypatch):
        manifest, _ = fleet
        monkeypatch.setenv("COLUMNS", "70")
        monkeypatch.setenv("LINES", "24")
        narrow = render_timeline(assemble_batch_trace(manifest))
        wide_width = max(len(line) for line in narrow.splitlines())
        monkeypatch.setenv("COLUMNS", "200")
        wide = render_timeline(assemble_batch_trace(manifest))
        assert max(len(line) for line in wide.splitlines()) > wide_width
        # The floor: bars never collapse below 40 columns however
        # narrow the terminal claims to be.
        monkeypatch.setenv("COLUMNS", "20")
        floored = render_timeline(assemble_batch_trace(manifest))
        bar_line = next(line for line in floored.splitlines()
                        if "|" in line)
        bar = bar_line.split("|")[1]
        assert len(bar) == 40

    def test_timeline_explicit_width_honoured(self, fleet):
        manifest, _ = fleet
        timeline = render_timeline(assemble_batch_trace(manifest),
                                   width=50)
        bar_line = next(line for line in timeline.splitlines()
                        if "|" in line)
        assert len(bar_line.split("|")[1]) == 50

    def test_legacy_manifest_without_trace_context_rejected(self, fleet):
        manifest, _ = fleet
        meta = dict(manifest.meta)
        meta.pop("trace_id")
        legacy = type(manifest)(meta=meta, options=manifest.options,
                                jobs=manifest.jobs,
                                summary=manifest.summary)
        with pytest.raises(ObsError, match="trace_id"):
            assemble_batch_trace(legacy)


class TestCacheHitSynthesis:
    def test_cache_hits_get_synthesized_spans(self, tmp_path):
        decks = tmp_path / "decks"
        decks.mkdir()
        (decks / "plate.deck").write_text(_idlz_deck_text())
        options = BatchOptions(cache_dir=tmp_path / "cache")
        specs = discover_jobs([str(decks / "*.deck")], tmp_path / "o1")
        run_batch(specs, options, out_root=tmp_path / "o1")
        specs = discover_jobs([str(decks / "*.deck")], tmp_path / "o2")
        warm = run_batch(specs, options, out_root=tmp_path / "o2")
        assert warm.summary["cache_hits"] == 1
        trace = assemble_batch_trace(warm)
        synth = [s for s, _ in trace.walk() if s.synthesized
                 and s.name == SYNTH_JOB_SPAN]
        assert len(synth) == 1
        assert synth[0].job_id == "plate"
        assert synth[0].attrs["reason"] == "cache_hit"
        # The assembled trace still accounts for every job.
        jobs_in_trace = {s.job_id for s, _ in trace.walk()
                         if s.job_id is not None}
        assert jobs_in_trace == {r["job_id"] for r in warm.jobs}


class TestReportAssembly:
    def test_single_report_round_trip(self):
        with obs.capture() as observer:
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
        trace = assemble_report_trace(observer.report(command="test"))
        assert trace.trace_id == observer.trace_id
        assert trace.root.name == "outer"
        assert [c.name for c in trace.root.children] == ["inner"]
        assert not trace.root.synthesized

    def test_multiple_roots_get_synthetic_parent(self):
        with obs.capture() as observer:
            with obs.span("first"):
                pass
            with obs.span("second"):
                pass
        trace = assemble_report_trace(observer.report())
        assert trace.root.synthesized
        assert [c.name for c in trace.root.children] == ["first", "second"]

    def test_spanless_report_rejected(self):
        with obs.capture() as observer:
            pass
        with pytest.raises(ObsError, match="no spans"):
            assemble_report_trace(observer.report())


class TestCliIntegration:
    def test_obs_render_accepts_manifests(self, fleet, capsys):
        _, path = fleet
        assert main(["obs", "render", str(path)]) == 0
        out = capsys.readouterr().out
        assert "assembled trace" in out
        assert "batch.run" in out
        assert "idlz.reform" in out

    def test_obs_timeline(self, fleet, capsys):
        _, path = fleet
        assert main(["obs", "timeline", str(path)]) == 0
        out = capsys.readouterr().out
        assert "2 job(s)" in out
        assert "plate" in out

    def test_obs_timeline_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "x.json"
        bad.write_text("{nope")
        assert main(["obs", "timeline", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err
