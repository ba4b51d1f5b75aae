"""Tests for job discovery, the worker, the scheduler and the manifest."""

import time

import pytest

from repro import obs
from repro.batch import (
    BatchManifest,
    BatchOptions,
    EXIT_PARTIAL,
    discover_jobs,
    run_batch,
)
from repro.batch.jobs import classify_deck_path
from repro.batch.worker import JobTimeout, _Deadline, run_job
from repro.core.idlz.deck import write_idlz_deck
from repro.core.idlz.shaping import ShapingSegment
from repro.core.idlz.subdivision import Subdivision
from repro.core.idlz.deck import IdlzProblem
from repro.cards.parse import classify_deck
from repro.errors import BatchError, CardError

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


def idlz_deck_text(title="BATCH PLATE", cols=4):
    sub = Subdivision(index=1, kk1=1, ll1=1, kk2=cols, ll2=4)
    segments = [
        ShapingSegment(1, 1, 1, cols, 1, 0.0, 0.0, 3.0, 0.0),
        ShapingSegment(1, 1, 4, cols, 4, 0.0, 3.0, 3.0, 3.0),
    ]
    problem = IdlzProblem(title=title, subdivisions=[sub],
                          segments=segments)
    return write_idlz_deck([problem]).to_text()


@pytest.fixture
def deck_dir(tmp_path):
    decks = tmp_path / "decks"
    decks.mkdir()
    (decks / "alpha.deck").write_text(idlz_deck_text("ALPHA"))
    (decks / "beta.deck").write_text(idlz_deck_text("BETA", cols=5))
    (decks / "field.deck").write_text(OSPL_DECK)
    return decks


class TestClassify:
    def test_idlz_deck(self):
        assert classify_deck(["    1", "TITLE"]) == "idlz"

    def test_ospl_deck(self):
        assert classify_deck(OSPL_DECK.splitlines()) == "ospl"

    def test_leading_blank_cards_skipped(self):
        assert classify_deck(["", "   ", "    2", "TITLE"]) == "idlz"

    def test_empty_deck_rejected(self):
        with pytest.raises(CardError, match="no non-blank cards"):
            classify_deck(["   "])

    def test_non_numeric_first_card_rejected(self):
        with pytest.raises(CardError, match="first card starts 'HELLO'"):
            classify_deck(["HELLO"])

    def test_unclassifiable_path_is_batch_error(self, tmp_path):
        deck = tmp_path / "bad.deck"
        deck.write_text("HELLO\n")
        with pytest.raises(BatchError, match="bad.deck: cannot classify"):
            classify_deck_path(deck)


class TestDiscoverJobs:
    def test_glob_expansion_sorted_and_classified(self, deck_dir, tmp_path):
        specs = discover_jobs([str(deck_dir / "*.deck")], tmp_path / "out")
        assert [s.job_id for s in specs] == ["alpha", "beta", "field"]
        assert [s.program for s in specs] == ["idlz", "idlz", "ospl"]
        assert all(s.out_dir.endswith(s.job_id) for s in specs)

    def test_literal_path_and_glob_deduplicate(self, deck_dir, tmp_path):
        specs = discover_jobs(
            [str(deck_dir / "alpha.deck"), str(deck_dir / "alpha*.deck")],
            tmp_path / "out",
        )
        assert len(specs) == 1

    def test_duplicate_stems_get_suffixes(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        (tmp_path / "a" / "plate.deck").write_text(idlz_deck_text())
        (tmp_path / "b" / "plate.deck").write_text(idlz_deck_text())
        specs = discover_jobs([str(tmp_path / "*" / "plate.deck")],
                              tmp_path / "out")
        assert sorted(s.job_id for s in specs) == ["plate", "plate__2"]

    def test_no_match_raises(self, tmp_path):
        with pytest.raises(BatchError, match="no decks matched"):
            discover_jobs([str(tmp_path / "nope*.deck")], tmp_path / "out")

    def test_missing_literal_path_raises(self, tmp_path):
        with pytest.raises(BatchError):
            discover_jobs([str(tmp_path / "absent.deck")], tmp_path / "out")

    def test_filename_hint_overrides_sniff(self, tmp_path):
        # An OSPL-looking deck named .idlz. is taken at its word.
        (tmp_path / "odd.idlz.deck").write_text(OSPL_DECK)
        (spec,) = discover_jobs([str(tmp_path / "odd.idlz.deck")],
                                tmp_path / "out")
        assert spec.program == "idlz"


class TestWorker:
    def test_idlz_job_produces_artifacts(self, deck_dir, tmp_path):
        (spec,) = discover_jobs([str(deck_dir / "alpha.deck")],
                                tmp_path / "out")
        result = run_job(spec.to_dict())
        assert result["status"] == "ok"
        assert result["error"] is None
        assert "problem_1.listing.txt" in result["artifacts"]
        (problem,) = result["summary"]["problems"]
        assert problem["title"] == "ALPHA"
        assert problem["nodes"] > 0
        assert result["obs"]["health"], "worker must embed health snapshots"
        assert result["wall_s"] > 0

    def test_ospl_job_produces_plot(self, deck_dir, tmp_path):
        (spec,) = discover_jobs([str(deck_dir / "field.deck")],
                                tmp_path / "out")
        result = run_job(spec.to_dict())
        assert result["status"] == "ok"
        assert result["artifacts"] == ["plot.svg"]
        (problem,) = result["summary"]["problems"]
        assert problem["levels"] > 0

    def test_bad_deck_is_captured_not_raised(self, tmp_path):
        bad = tmp_path / "bad.deck"
        bad.write_text("    1\nONLY A TITLE\n")
        (spec,) = discover_jobs([str(bad)], tmp_path / "out")
        result = run_job(spec.to_dict())
        assert result["status"] == "failed"
        assert result["error"]["type"] == "CardError"
        assert "traceback" in result["error"]

    def test_retry_clears_stale_artifacts(self, deck_dir, tmp_path):
        (spec,) = discover_jobs([str(deck_dir / "alpha.deck")],
                                tmp_path / "out")
        out = tmp_path / "out" / "alpha"
        out.mkdir(parents=True)
        (out / "stale.txt").write_text("from a failed attempt")
        result = run_job(spec.to_dict())
        assert result["status"] == "ok"
        assert "stale.txt" not in result["artifacts"]
        assert not (out / "stale.txt").exists()

    def test_worker_never_leaks_an_observer(self, deck_dir, tmp_path):
        (spec,) = discover_jobs([str(deck_dir / "alpha.deck")],
                                tmp_path / "out")
        assert not obs.enabled()
        run_job(spec.to_dict())
        assert not obs.enabled()


class TestDeadline:
    def test_expires(self):
        with pytest.raises(JobTimeout):
            with _Deadline(0.05):
                time.sleep(5.0)

    def test_disarms_after_exit(self):
        with _Deadline(0.05):
            pass
        time.sleep(0.08)  # would deliver SIGALRM if still armed

    def test_none_means_no_limit(self):
        with _Deadline(None):
            time.sleep(0.01)


class TestRunBatch:
    def test_inline_batch_all_ok(self, deck_dir, tmp_path):
        specs = discover_jobs([str(deck_dir / "*.deck")], tmp_path / "out")
        manifest = run_batch(specs, BatchOptions(jobs=1))
        assert manifest.ok
        assert manifest.exit_code() == 0
        assert manifest.summary["total"] == 3
        assert manifest.summary["ok"] == 3
        assert manifest.summary["attempts"] == 3
        assert all(r["cache"] == "off" for r in manifest.jobs)

    def test_pool_batch_all_ok(self, deck_dir, tmp_path):
        specs = discover_jobs([str(deck_dir / "*.deck")], tmp_path / "out")
        manifest = run_batch(specs, BatchOptions(jobs=2))
        assert manifest.ok
        listing = (tmp_path / "out" / "alpha" / "problem_1.listing.txt")
        assert listing.exists()
        assert (tmp_path / "out" / "field" / "plot.svg").exists()

    def test_failing_deck_is_isolated_and_retried(self, deck_dir, tmp_path):
        (deck_dir / "bad.deck").write_text("    1\nTRUNCATED\n")
        specs = discover_jobs([str(deck_dir / "*.deck")], tmp_path / "out")
        manifest = run_batch(
            specs, BatchOptions(jobs=2, retries=2, backoff_s=0.0)
        )
        assert manifest.exit_code() == EXIT_PARTIAL
        bad = manifest.job("bad")
        assert bad["status"] == "failed"
        assert bad["attempts"] == 3
        assert bad["error"]["type"] == "CardError"
        for job_id in ("alpha", "beta", "field"):
            record = manifest.job(job_id)
            assert record["status"] == "ok"
            assert record["attempts"] == 1

    def test_warm_cache_skips_recomputation(self, deck_dir, tmp_path):
        cache_dir = tmp_path / "cache"
        options = BatchOptions(jobs=1, cache_dir=cache_dir)
        specs = discover_jobs([str(deck_dir / "*.deck")],
                              tmp_path / "cold")
        cold = run_batch(specs, options)
        assert cold.summary["cache_misses"] == 3
        assert cold.summary["cache_hits"] == 0

        warm_specs = discover_jobs([str(deck_dir / "*.deck")],
                                   tmp_path / "warm")
        warm = run_batch(warm_specs, options)
        assert warm.summary["cache_hits"] == 3
        assert warm.summary["attempts"] == 0, "hits must not re-run"
        for record in warm.jobs:
            assert record["status"] == "ok"
            assert record["summary"] is not None, \
                "cached jobs keep their product digest"
            assert record["obs"]["health"] or record["program"] == "ospl"
        # The restored artifacts are real files in the new out root.
        assert (tmp_path / "warm" / "alpha" / "problem_1.listing.txt").exists()

    def test_edited_deck_misses_cache(self, deck_dir, tmp_path):
        cache_dir = tmp_path / "cache"
        options = BatchOptions(cache_dir=cache_dir)
        specs = discover_jobs([str(deck_dir / "alpha.deck")],
                              tmp_path / "out1")
        run_batch(specs, options)
        (deck_dir / "alpha.deck").write_text(idlz_deck_text("EDITED"))
        specs = discover_jobs([str(deck_dir / "alpha.deck")],
                              tmp_path / "out2")
        manifest = run_batch(specs, options)
        assert manifest.jobs[0]["cache"] == "miss"

    def test_failures_are_never_cached(self, tmp_path):
        bad = tmp_path / "bad.deck"
        bad.write_text("    1\nTRUNCATED\n")
        options = BatchOptions(cache_dir=tmp_path / "cache")
        for out in ("out1", "out2"):
            specs = discover_jobs([str(bad)], tmp_path / out)
            manifest = run_batch(specs, options)
            assert manifest.jobs[0]["status"] == "failed"
            assert manifest.jobs[0]["cache"] == "miss"

    def test_timeout_marks_job_failed(self, tmp_path):
        # A paper-scale idealization cannot finish in a millisecond.
        big = tmp_path / "big.deck"
        sub = Subdivision(index=1, kk1=1, ll1=1, kk2=40, ll2=60)
        segments = [
            ShapingSegment(1, 1, 1, 40, 1, 0.0, 0.0, 39.0, 0.0),
            ShapingSegment(1, 1, 60, 40, 60, 0.0, 59.0, 39.0, 59.0),
        ]
        big.write_text(write_idlz_deck([IdlzProblem(
            title="BIG", subdivisions=[sub], segments=segments,
        )]).to_text())
        specs = discover_jobs([str(big)], tmp_path / "out",
                              timeout_s=0.001)
        manifest = run_batch(specs, BatchOptions(timeout_s=0.001))
        record = manifest.jobs[0]
        assert record["status"] == "failed"
        assert record["error"]["type"] == "JobTimeout"

    def test_batch_spans_and_metrics_published(self, deck_dir, tmp_path):
        specs = discover_jobs([str(deck_dir / "alpha.deck")],
                              tmp_path / "out")
        with obs.capture() as observer:
            run_batch(specs, BatchOptions())
        report = observer.report()
        assert {"batch.run", "batch.cache_pass", "batch.execute"} \
            <= report.span_names()
        assert report.counters().get("batch.jobs_ok") == 1

    def test_invalid_options_rejected(self, deck_dir, tmp_path):
        specs = discover_jobs([str(deck_dir / "alpha.deck")],
                              tmp_path / "out")
        with pytest.raises(BatchError):
            run_batch(specs, BatchOptions(jobs=0))
        with pytest.raises(BatchError):
            run_batch(specs, BatchOptions(retries=-1))


class TestManifest:
    def test_save_load_round_trip(self, deck_dir, tmp_path):
        specs = discover_jobs([str(deck_dir / "*.deck")], tmp_path / "out")
        manifest = run_batch(specs, BatchOptions())
        path = manifest.save(tmp_path / "m.json")
        loaded = BatchManifest.load(path)
        assert loaded.summary == manifest.summary
        assert [r["job_id"] for r in loaded.jobs] \
            == [r["job_id"] for r in manifest.jobs]

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"schema": "repro.obs/v1.1"}')
        with pytest.raises(BatchError, match="schema"):
            BatchManifest.load(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{oops")
        with pytest.raises(BatchError, match="JSON"):
            BatchManifest.load(path)

    def test_job_lookup_by_id_path_and_basename(self, deck_dir, tmp_path):
        specs = discover_jobs([str(deck_dir / "alpha.deck")],
                              tmp_path / "out")
        manifest = run_batch(specs, BatchOptions())
        by_id = manifest.job("alpha")
        assert manifest.job(by_id["deck"]) is by_id
        assert manifest.job("alpha.deck") is by_id
        with pytest.raises(BatchError, match="no job"):
            manifest.job("nonexistent")

    def test_render_status_mentions_every_job(self, deck_dir, tmp_path):
        specs = discover_jobs([str(deck_dir / "*.deck")], tmp_path / "out")
        manifest = run_batch(specs, BatchOptions())
        text = manifest.render_status()
        for record in manifest.jobs:
            assert record["job_id"] in text

    def test_render_explain_shows_error_and_health(self, deck_dir, tmp_path):
        (deck_dir / "bad.deck").write_text("    1\nTRUNCATED\n")
        specs = discover_jobs([str(deck_dir / "*.deck")], tmp_path / "out")
        manifest = run_batch(specs, BatchOptions())
        explain_bad = manifest.render_explain("bad")
        assert "CardError" in explain_bad
        assert "traceback" in explain_bad
        explain_ok = manifest.render_explain("alpha")
        assert "idlz.shape" in explain_ok
        assert "min_angle_deg" in explain_ok
