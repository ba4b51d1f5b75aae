"""``obs top``: ledger folding, frame rendering, the CLI loop."""

from __future__ import annotations

import io
from pathlib import Path

import pytest

from repro.errors import ObsError
from repro.obs import events
from repro.obs.top import TopState, fold_events, render_top, run_top

#: A real ``batch run 'examples/decks/**/*.deck' --jobs 2 --series``
#: ledger, and the frame ``obs top --once`` draws for it: two worker
#: rows (the coordinator's planning-pass stage events draw none).
TOP_RUN = Path(__file__).parent / "data" / "top_run"


@pytest.fixture(autouse=True)
def clean_facade():
    yield
    while events.enabled():
        events.disable()


def _event(event, ts=1000.0, pid=100, **fields):
    return {"ts": ts, "pid": pid, "event": event, **fields}


def _run_events():
    return [
        _event("run_started", ts=1000.0, pid=1, jobs=4, workers=2,
               retries=2),
        _event("job_queued", ts=1000.1, pid=1, job_id="a"),
        _event("job_cache_hit", ts=1000.2, pid=1, job_id="a"),
        _event("job_lint_rejected", ts=1000.3, pid=1, job_id="b"),
        _event("job_started", ts=1001.0, pid=20, job_id="c", attempt=1),
        _event("stage_open", ts=1001.1, pid=20, job_id="c",
               stage="idlz.reform"),
        _event("job_started", ts=1001.0, pid=21, job_id="d", attempt=2),
        _event("job_attempt_finished", ts=1002.0, pid=21, job_id="d",
               status="ok", attempt=2),
        _event("job_finished", ts=1002.1, pid=1, job_id="d",
               status="ok", attempts=2),
    ]


class TestFoldEvents:
    def test_counters_and_totals(self):
        state = fold_events(_run_events())
        assert state.total_jobs == 4
        assert state.pool_workers == 2
        assert state.retries == 2
        assert state.cache_hits == 1
        assert state.rejected == 1
        assert state.ok == 1
        assert state.done == 3
        assert state.running

    def test_worker_views(self):
        state = fold_events(_run_events())
        assert sorted(state.workers) == [20, 21]
        busy = state.workers[20]
        assert busy.job_id == "c"
        assert busy.stage == "idlz.reform"
        assert busy.attempt == 1
        idle = state.workers[21]
        assert idle.job_id is None
        assert idle.done == 1
        assert idle.attempt == 2  # last attempt it ran

    def test_coordinator_pid_is_not_a_worker(self):
        state = fold_events(_run_events())
        assert 1 not in state.workers

    def test_coordinator_planning_stages_draw_no_row(self):
        """The batch cache pass plans decks under the coordinator's pid;
        its stage events must not make it a worker row."""
        planning = [
            _event("stage_open", ts=1000.05, pid=1, stage="plan.number"),
            _event("stage_close", ts=1000.06, pid=1, stage="plan.number"),
        ]
        state = fold_events(_run_events()[:1] + planning
                            + _run_events()[1:])
        assert sorted(state.workers) == [20, 21]

    def test_inline_run_keeps_its_one_row(self):
        """With --jobs 1 the coordinator runs the jobs: one row."""
        inline = [
            _event("run_started", ts=1000.0, pid=1, jobs=1, workers=1),
            _event("stage_open", ts=1000.05, pid=1, stage="plan.number"),
            _event("job_started", ts=1000.1, pid=1, job_id="a"),
            _event("stage_open", ts=1000.2, pid=1, stage="idlz.shape"),
        ]
        state = fold_events(inline)
        assert list(state.workers) == [1]
        assert state.workers[1].job_id == "a"
        assert state.workers[1].stage == "idlz.shape"

    def test_run_finished_ends_the_run(self):
        state = fold_events(_run_events()
                            + [_event("run_finished", ts=1003.0, pid=1,
                                      ok=3, failed=0)])
        assert not state.running
        assert state.finished_ts == 1003.0

    def test_empty_ledger(self):
        state = fold_events([])
        assert state.total_jobs == 0
        assert not state.running

    def test_newest_sample_kept_off_the_timeline(self):
        state = fold_events(_run_events() + [
            _event("sample", ts=1005.0, pid=1, rss_kb=1024),
            _event("sample", ts=1006.0, pid=1, rss_kb=2048),
        ])
        assert state.sample["rss_kb"] == 2048
        assert state.last_ts == 1002.1  # samples do not age the workers
        assert 1 not in state.workers


class TestRenderTop:
    def test_frame_contents(self):
        state = fold_events(_run_events())
        state.sample = {"rss_kb": 2048, "cpu_pct": 150.0, "decks_sec": 2.5}
        frame = render_top(state, now=1002.5)
        assert "3/4 done" in frame
        assert "1 cached" in frame
        assert "1 rejected" in frame
        assert "rss=2.0MB" in frame
        assert "decks_sec=2.5" in frame
        # The busy worker row shows job, stage and "attempt/total".
        assert "idlz.reform" in frame
        assert "1/3" in frame
        assert "(idle)" in frame

    def test_frame_without_series_sample(self):
        frame = render_top(fold_events(_run_events()), now=1002.5)
        assert "decks_sec=" in frame  # derived from the fold instead

    def test_frame_with_no_activity(self):
        frame = render_top(TopState(), now=0.0)
        assert "no run" in frame
        assert "no worker activity" in frame


class TestRunTop:
    def _write_ledger(self, tmp_path, records):
        ledger = events.EventLedger(tmp_path / "events.jsonl")
        for record in records:
            fields = {k: v for k, v in record.items()
                      if k not in ("ts", "pid", "event")}
            ledger.emit(record["event"], **fields)
        ledger.close()

    def test_once_draws_single_frame(self, tmp_path, capsys):
        self._write_ledger(tmp_path, _run_events()
                           + [_event("sample", rss_kb=4096, cpu_pct=80.0)])
        out = io.StringIO()
        assert run_top(tmp_path, once=True, out=out) == 0
        frame = out.getvalue()
        assert "3/4 done" in frame
        assert "rss=4.0MB" in frame
        assert "\x1b" not in frame  # --once output stays grep-able

    def test_follow_exits_on_run_finished(self, tmp_path):
        self._write_ledger(tmp_path,
                           _run_events()
                           + [_event("run_finished", pid=1, ok=3,
                                     failed=0)])
        out = io.StringIO()
        assert run_top(tmp_path, refresh_s=0.01, out=out) == 0

    def test_follow_bounded_by_max_frames(self, tmp_path):
        self._write_ledger(tmp_path, _run_events())
        out = io.StringIO()
        assert run_top(tmp_path, refresh_s=0.01, max_frames=3,
                       out=out) == 0
        assert out.getvalue().count("\x1b[2J") == 3

    def test_missing_ledger_still_renders(self, tmp_path):
        out = io.StringIO()
        assert run_top(tmp_path / "nowhere", once=True, out=out) == 0
        assert "no run" in out.getvalue()

    def test_corrupt_ledger_is_an_error(self, tmp_path):
        (tmp_path / "events.jsonl").write_text(
            '{"ts": 1.0, "event": "run_started"}\nGARBAGE\n'
            '{"ts": 2.0, "event": "job_queued"}\n')
        with pytest.raises(ObsError, match="corrupt ledger line 2"):
            run_top(tmp_path, once=True, out=io.StringIO())

    def test_cli_corrupt_ledger_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        (tmp_path / "events.jsonl").write_text(
            '{"ts": 1.0, "event": "run_started"}\nGARBAGE\n'
            '{"ts": 2.0, "event": "job_queued"}\n')
        assert main(["obs", "top", str(tmp_path), "--once"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "corrupt ledger line 2" in err

    def test_frozen_frame_from_one_ledger(self):
        """The frame of a recorded run is stable, coordinator excluded."""
        out = io.StringIO()
        assert run_top(TOP_RUN, once=True, out=out) == 0
        assert out.getvalue() == (TOP_RUN / "frame.txt").read_text()

    def test_cli_once(self, tmp_path, capsys):
        from repro.cli import main

        self._write_ledger(tmp_path, _run_events())
        assert main(["obs", "top", str(tmp_path), "--once"]) == 0
        assert "3/4 done" in capsys.readouterr().out
