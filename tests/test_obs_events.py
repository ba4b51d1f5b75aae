"""The run ledger: atomic appends, torn-line tolerance, the facade,
and the ``--series`` sampler's ``sample`` events."""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import ObsError
from repro.obs import events
from repro.obs.events import (
    EventLedger,
    Sampler,
    follow_events,
    ledger_path,
    parse_events,
    read_events,
    render_event,
)


@pytest.fixture(autouse=True)
def clean_facade():
    """Never leak an enabled ledger between tests."""
    yield
    while events.enabled():
        events.disable()


class TestLedgerPath:
    def test_directory_gets_default_filename(self, tmp_path):
        assert ledger_path(tmp_path) == tmp_path / "events.jsonl"

    def test_unsuffixed_path_treated_as_directory(self, tmp_path):
        target = tmp_path / "ledgerdir"
        assert ledger_path(target) == target / "events.jsonl"

    def test_explicit_file_kept(self, tmp_path):
        target = tmp_path / "run.jsonl"
        assert ledger_path(target) == target


class TestEventLedger:
    def test_emit_read_round_trip(self, tmp_path):
        with EventLedger(tmp_path / "run.jsonl") as ledger:
            ledger.emit("run_started", jobs=3)
            ledger.emit("job_queued", job_id="alpha")
        records, truncated = read_events(tmp_path / "run.jsonl")
        assert not truncated
        assert [r["event"] for r in records] == ["run_started",
                                                 "job_queued"]
        assert records[0]["jobs"] == 3
        assert records[1]["job_id"] == "alpha"
        assert all(r["pid"] == os.getpid() for r in records)
        assert records[0]["ts"] <= records[1]["ts"]

    def test_creates_parent_directories(self, tmp_path):
        ledger = EventLedger(tmp_path / "a" / "b")
        ledger.emit("run_started")
        ledger.close()
        assert (tmp_path / "a" / "b" / "events.jsonl").exists()

    def test_appends_never_rewrite(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with EventLedger(path) as ledger:
            ledger.emit("one")
        with EventLedger(path) as ledger:
            ledger.emit("two")
        records, _ = read_events(path)
        assert [r["event"] for r in records] == ["one", "two"]


class TestParseEvents:
    def test_torn_final_line_is_truncation(self):
        text = '{"ts": 1, "pid": 2, "event": "a"}\n{"ts": 3, "pi'
        records, truncated = parse_events(text)
        assert truncated
        assert [r["event"] for r in records] == ["a"]

    def test_newline_terminated_garbage_tail_is_truncation(self):
        text = '{"ts": 1, "pid": 2, "event": "a"}\n{"broken\n'
        records, truncated = parse_events(text)
        assert truncated
        assert [r["event"] for r in records] == ["a"]

    def test_interior_garbage_is_corruption(self):
        text = '{"broken\n{"ts": 1, "pid": 2, "event": "a"}\n'
        with pytest.raises(ObsError, match="corrupt ledger line 1"):
            parse_events(text)

    def test_non_object_line_is_corruption(self):
        with pytest.raises(ObsError, match="not a JSON object"):
            parse_events('[1, 2]\n{"event": "a"}\n')

    def test_blank_lines_skipped(self):
        records, truncated = parse_events('\n{"event": "a"}\n\n')
        assert not truncated
        assert len(records) == 1

    def test_empty_ledger(self):
        assert parse_events("") == ([], False)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ObsError, match="cannot read ledger"):
            read_events(tmp_path / "absent.jsonl")


def _append_burst(args):
    """Worker for the concurrency test: append ``n`` records."""
    path, worker, n = args
    with EventLedger(path) as ledger:
        for i in range(n):
            ledger.emit("burst", worker=worker, seq=i)
    return worker


class TestConcurrentAppends:
    def test_multi_process_appends_never_interleave(self, tmp_path):
        path = tmp_path / "shared.jsonl"
        workers, per_worker = 4, 50
        with ProcessPoolExecutor(max_workers=workers) as pool:
            list(pool.map(_append_burst,
                          [(path, w, per_worker) for w in range(workers)]))
        records, truncated = read_events(path)
        assert not truncated
        assert len(records) == workers * per_worker
        # Every line parsed as exactly one complete record, and each
        # writer's own sequence arrived in order (O_APPEND semantics).
        for w in range(workers):
            seqs = [r["seq"] for r in records if r["worker"] == w]
            assert seqs == sorted(seqs)
            assert len(seqs) == per_worker


class TestSharedLedgerThreads:
    def test_first_emits_from_two_threads_open_one_fd(self, tmp_path):
        """The sampler thread and the coordinator share one ledger: a
        racing first emit must not open (and leak) a second fd."""
        before = len(os.listdir("/proc/self/fd")) if os.path.isdir(
            "/proc/self/fd") else None
        ledger = EventLedger(tmp_path / "events.jsonl")
        gate = threading.Barrier(8, timeout=10.0)

        def first_emit(i):
            gate.wait()
            ledger.emit("race", i=i)

        threads = [threading.Thread(target=first_emit, args=(i,))
                   for i in range(8)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10.0)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        ledger.close()
        if before is not None:
            assert len(os.listdir("/proc/self/fd")) == before
        records, truncated = read_events(tmp_path / "events.jsonl")
        assert not truncated
        assert sorted(r["i"] for r in records) == list(range(8))


class TestSampler:
    def test_thread_samples_while_work_runs(self, tmp_path):
        """The sampler thread appends while the 'pipeline' thread
        (here: the test) computes."""
        with EventLedger(tmp_path) as ledger:
            sampler = Sampler(ledger, provider=lambda: {"queue_depth": 7},
                              interval_s=0.02).start()
            deadline = time.monotonic() + 2.0
            while (sampler.samples_taken < 3
                   and time.monotonic() < deadline):
                sum(i * i for i in range(1000))  # the "work"
            sampler.stop()
        records, truncated = read_events(tmp_path)
        assert not truncated
        assert len(records) >= 4  # three ticks and the closing sample
        for record in records:
            assert record["event"] == "sample"
            assert record["queue_depth"] == 7
            assert record["rss_kb"] > 0
            assert isinstance(record["cpu_pct"], float)

    def test_stop_joins_and_takes_closing_sample(self, tmp_path):
        with EventLedger(tmp_path) as ledger:
            sampler = Sampler(ledger, interval_s=30.0).start()
            sampler.stop()
            assert sampler.samples_taken == 1  # the closing sample only
            assert not any(t.name == "obs-sampler"
                           for t in threading.enumerate())
            ledger.emit("run_finished")
        names = [r["event"] for r in read_events(tmp_path)[0]]
        assert names == ["sample", "run_finished"]

    def test_provider_exception_loses_only_its_gauges(self, tmp_path):
        def bad_provider():
            raise RuntimeError("boom")

        with EventLedger(tmp_path) as ledger:
            record = Sampler(ledger, provider=bad_provider).sample_once()
        assert "rss_kb" in record  # base fields survive the provider
        records, _ = read_events(tmp_path)
        assert [r["event"] for r in records] == ["sample"]

    def test_write_failure_never_raises(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        ledger = EventLedger(blocker / "sub" / "events.jsonl")
        sampler = Sampler(ledger)
        sampler.sample_once()  # OSError swallowed: telemetry, not truth
        assert sampler.samples_taken == 1

    def test_cpu_pct_tracks_busy_time(self, tmp_path):
        with EventLedger(tmp_path) as ledger:
            sampler = Sampler(ledger)
            t_end = time.perf_counter() + 0.2
            while time.perf_counter() < t_end:
                pass  # one core busy
            busy = sampler.sample_once()["cpu_pct"]
            time.sleep(0.2)
            idle = sampler.sample_once()["cpu_pct"]
        # Loose floor: a contended host may give the loop a fraction of
        # a core, but never as little as a sleeping process gets.
        assert busy > 10.0
        assert idle < busy

    def test_samples_skip_the_facade_context(self, tmp_path):
        """An inline (``--jobs 1``) worker pushes its ``job_id`` onto the
        facade; the coordinator's samples must not carry it."""
        ledger = events.enable(tmp_path / "events.jsonl")
        events.set_context(trace_id="t1")
        events.enable(tmp_path / "events.jsonl")
        events.set_context(job_id="inline-job")
        Sampler(ledger).sample_once()
        events.emit("stage_open", stage="idlz.read")
        records, _ = read_events(tmp_path)
        sample, stage = records
        assert sample["event"] == "sample"
        assert "job_id" not in sample and "trace_id" not in sample
        assert stage["job_id"] == "inline-job"

    def test_torn_final_sample_is_truncation(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLedger(path) as ledger:
            Sampler(ledger).sample_once()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"ts": 2.0, "event": "sample", "rss_')
        records, truncated = read_events(path)
        assert truncated
        assert [r["event"] for r in records] == ["sample"]


class TestFacade:
    def test_noop_while_disabled(self, tmp_path):
        events.emit("ignored", job_id="x")  # must not raise
        assert not events.enabled()

    def test_context_rides_every_record(self, tmp_path):
        events.enable(tmp_path / "run.jsonl")
        events.set_context(trace_id="t1", job_id="alpha")
        events.emit("job_started")
        events.emit("job_finished", status="ok")
        events.disable()
        records, _ = read_events(tmp_path / "run.jsonl")
        assert all(r["trace_id"] == "t1" and r["job_id"] == "alpha"
                   for r in records)
        assert records[1]["status"] == "ok"

    def test_nested_enable_does_not_clobber_outer(self, tmp_path):
        events.enable(tmp_path / "outer.jsonl")
        events.set_context(scope="outer")
        events.enable(tmp_path / "inner.jsonl")
        events.set_context(scope="inner")
        events.emit("inner_event")
        events.disable()
        events.emit("outer_event")
        events.disable()
        outer, _ = read_events(tmp_path / "outer.jsonl")
        inner, _ = read_events(tmp_path / "inner.jsonl")
        assert [r["event"] for r in outer] == ["outer_event"]
        assert outer[0]["scope"] == "outer"
        assert [r["event"] for r in inner] == ["inner_event"]
        assert inner[0]["scope"] == "inner"

    def test_emit_swallows_write_failures(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        # Parent "directory" is a file: opening the ledger fails with
        # OSError, which the facade must swallow (telemetry, not truth).
        events.enable(blocker / "sub" / "events.jsonl")
        events.emit("job_started")  # must not raise
        events.disable()


class TestFollowAndRender:
    def test_follow_once_drains(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with EventLedger(path) as ledger:
            ledger.emit("a")
            ledger.emit("b")
        assert [r["event"] for r in follow_events(path, once=True)] \
            == ["a", "b"]

    def test_follow_once_missing_file_yields_nothing(self, tmp_path):
        assert list(follow_events(tmp_path / "never", once=True)) == []

    def test_follow_skips_torn_tail(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"event": "a"}\n{"torn')
        assert [r["event"] for r in follow_events(path, once=True)] \
            == ["a"]

    def test_render_event_line(self):
        line = render_event({"ts": 3600.5, "pid": 42, "event": "job_queued",
                             "job_id": "alpha", "wall_s": 0.12345})
        assert "[     42]" in line
        assert "job_queued" in line
        assert "job_id=alpha" in line
        assert "wall_s=0.1235" in line  # 4 significant digits

    def test_render_event_without_timestamp(self):
        assert render_event({"event": "x"}).startswith("--:--:--.---")


class TestTailCli:
    def test_tail_once(self, tmp_path, capsys):
        path = tmp_path / "ledger" / "events.jsonl"
        path.parent.mkdir()
        with EventLedger(path) as ledger:
            ledger.emit("run_started", jobs=2)
            ledger.emit("run_finished", ok=2, failed=0)
        assert main(["obs", "tail", str(path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "run_started" in out
        assert "run_finished" in out
        assert "ok=2" in out

    def test_tail_once_accepts_directory(self, tmp_path, capsys):
        with EventLedger(tmp_path / "events.jsonl") as ledger:
            ledger.emit("run_started")
        assert main(["obs", "tail", str(tmp_path), "--once"]) == 0
        assert "run_started" in capsys.readouterr().out
