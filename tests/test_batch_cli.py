"""Tests for the ``batch`` CLI family and ``--version``."""

import json

import pytest

from repro import __version__
from repro.batch.manifest import EXIT_PARTIAL, BatchManifest
from repro.cli import main
from tests.test_batch_runner import OSPL_DECK, idlz_deck_text


@pytest.fixture
def deck_dir(tmp_path):
    decks = tmp_path / "decks"
    decks.mkdir()
    (decks / "alpha.deck").write_text(idlz_deck_text("ALPHA"))
    (decks / "field.deck").write_text(OSPL_DECK)
    return decks


class TestVersionFlag:
    def test_prints_package_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestBatchRunCli:
    def test_run_writes_manifest_and_products(self, deck_dir, tmp_path,
                                              capsys):
        out = tmp_path / "out"
        code = main(["batch", "run", str(deck_dir / "*.deck"),
                     "-o", str(out), "--jobs", "2"])
        assert code == 0
        manifest = BatchManifest.load(out / "batch_manifest.json")
        assert manifest.summary["ok"] == 2
        assert (out / "alpha" / "problem_1.listing.txt").exists()
        assert (out / "field" / "plot.svg").exists()
        stdout = capsys.readouterr().out
        assert "2 ok" in stdout
        assert "manifest written" in stdout

    def test_partial_failure_exit_code(self, deck_dir, tmp_path, capsys):
        (deck_dir / "bad.deck").write_text("    1\nTRUNCATED\n")
        out = tmp_path / "out"
        code = main(["batch", "run", str(deck_dir / "*.deck"),
                     "-o", str(out), "-q"])
        assert code == EXIT_PARTIAL
        manifest = BatchManifest.load(out / "batch_manifest.json")
        assert manifest.job("bad")["status"] == "failed"
        assert manifest.job("alpha")["status"] == "ok"

    def test_no_decks_is_a_usage_error(self, tmp_path, capsys):
        code = main(["batch", "run", str(tmp_path / "none*.deck"),
                     "-o", str(tmp_path / "out")])
        assert code == 1
        assert "no decks matched" in capsys.readouterr().err

    def test_warm_cache_run_reports_hits(self, deck_dir, tmp_path, capsys):
        cache = tmp_path / "cache"
        for out_name in ("cold", "warm"):
            code = main(["batch", "run", str(deck_dir / "*.deck"),
                         "-o", str(tmp_path / out_name),
                         "--cache-dir", str(cache), "-q"])
            assert code == 0
        warm = BatchManifest.load(
            tmp_path / "warm" / "batch_manifest.json"
        )
        assert warm.summary["cache_hits"] == warm.summary["total"] == 2

    def test_custom_manifest_path(self, deck_dir, tmp_path):
        manifest_path = tmp_path / "deep" / "m.json"
        code = main(["batch", "run", str(deck_dir / "alpha.deck"),
                     "-o", str(tmp_path / "out"),
                     "--manifest", str(manifest_path), "-q"])
        assert code == 0
        assert BatchManifest.load(manifest_path).ok

    def test_report_flag_writes_obs_report(self, deck_dir, tmp_path):
        report_path = tmp_path / "run_report.json"
        code = main(["batch", "run", str(deck_dir / "alpha.deck"),
                     "-o", str(tmp_path / "out"),
                     "--report", str(report_path), "-q"])
        assert code == 0
        data = json.loads(report_path.read_text())
        assert data["meta"]["command"] == "batch"
        names = {s["name"] for s in data["spans"]}
        assert "batch.run" in names

    def test_series_flag_samples_next_to_ledger(self, deck_dir,
                                                tmp_path):
        from repro.obs.events import read_events

        ledger_dir = tmp_path / "led"
        code = main(["batch", "run", str(deck_dir / "*.deck"),
                     "-o", str(tmp_path / "out"), "--jobs", "2",
                     "--ledger", str(ledger_dir), "--series", "-q"])
        assert code == 0
        # One run record: the samples ride in the ledger itself.
        assert sorted(p.name for p in ledger_dir.iterdir()) \
            == ["events.jsonl"]
        records, truncated = read_events(ledger_dir / "events.jsonl")
        assert not truncated
        samples = [r for r in records if r["event"] == "sample"]
        assert samples, "stop() always takes a closing sample"
        assert "job_id" not in samples[-1]
        # The closing sample precedes run_finished, which ends the run.
        assert records[-1]["event"] == "run_finished"
        assert records[-2] is samples[-1]
        final = samples[-1]
        assert final["rss_kb"] > 0
        assert "cpu_pct" in final
        assert final["queue_depth"] == 0
        assert final["decks_sec"] > 0
        assert final["cache_hit_rate"] == 0.0

    def test_series_without_ledger_lands_in_out_root(self, deck_dir,
                                                     tmp_path):
        from repro.obs.events import read_events

        out = tmp_path / "out"
        code = main(["batch", "run", str(deck_dir / "alpha.deck"),
                     "-o", str(out), "--series", "-q"])
        assert code == 0
        assert not (out / "series.jsonl").exists()
        records, _ = read_events(out / "events.jsonl")
        assert [r for r in records if r["event"] == "sample"]
        assert records[-1]["event"] == "run_finished"

    def test_ledger_events_carry_attempt_numbers(self, deck_dir,
                                                 tmp_path):
        from repro.obs.events import read_events

        (deck_dir / "bad.deck").write_text("    1\nTRUNCATED\n")
        ledger_dir = tmp_path / "led"
        main(["batch", "run", str(deck_dir / "*.deck"),
              "-o", str(tmp_path / "out"), "--retries", "2",
              "--backoff", "0", "--ledger", str(ledger_dir), "-q"])
        records, truncated = read_events(ledger_dir)
        assert not truncated
        run_started = next(r for r in records
                           if r["event"] == "run_started")
        assert run_started["retries"] == 2
        bad_starts = [r["attempt"] for r in records
                      if r["event"] == "job_started"
                      and r.get("job_id") == "bad"]
        assert bad_starts == [1, 2, 3]
        bad_attempts = [(r["attempt"], r["status"]) for r in records
                        if r["event"] == "job_attempt_finished"
                        and r.get("job_id") == "bad"]
        assert bad_attempts == [(1, "failed"), (2, "failed"),
                                (3, "failed")]
        # Healthy jobs ran once, as attempt 1.
        alpha_starts = [r["attempt"] for r in records
                        if r["event"] == "job_started"
                        and r.get("job_id") == "alpha"]
        assert alpha_starts == [1]


class TestBatchStatusCli:
    def test_status_renders_table(self, deck_dir, tmp_path, capsys):
        out = tmp_path / "out"
        main(["batch", "run", str(deck_dir / "*.deck"), "-o", str(out),
              "-q"])
        capsys.readouterr()
        code = main(["batch", "status",
                     str(out / "batch_manifest.json")])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "alpha" in stdout and "field" in stdout

    def test_status_propagates_partial_failure(self, deck_dir, tmp_path,
                                               capsys):
        (deck_dir / "bad.deck").write_text("    1\nTRUNCATED\n")
        out = tmp_path / "out"
        main(["batch", "run", str(deck_dir / "*.deck"), "-o", str(out),
              "-q"])
        code = main(["batch", "status",
                     str(out / "batch_manifest.json")])
        assert code == EXIT_PARTIAL

    def test_status_on_garbage_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text('{"schema": "nope"}')
        assert main(["batch", "status", str(path)]) == 1
        assert "error:" in capsys.readouterr().err


class TestBatchExplainCli:
    def test_explain_failed_job(self, deck_dir, tmp_path, capsys):
        (deck_dir / "bad.deck").write_text("    1\nTRUNCATED\n")
        out = tmp_path / "out"
        main(["batch", "run", str(deck_dir / "*.deck"), "-o", str(out),
              "-q"])
        capsys.readouterr()
        code = main(["batch", "explain",
                     str(out / "batch_manifest.json"), "bad"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "CardError" in stdout

    def test_explain_unknown_job_is_an_error(self, deck_dir, tmp_path,
                                             capsys):
        out = tmp_path / "out"
        main(["batch", "run", str(deck_dir / "alpha.deck"),
              "-o", str(out), "-q"])
        code = main(["batch", "explain",
                     str(out / "batch_manifest.json"), "zeta"])
        assert code == 1
        assert "no job" in capsys.readouterr().err


class TestBatchCorpusCli:
    def test_corpus_dumps_runnable_decks(self, tmp_path, capsys):
        from repro.structures import STRUCTURES

        corpus = tmp_path / "library"
        code = main(["batch", "corpus", "-o", str(corpus)])
        assert code == 0
        decks = sorted(p.name for p in corpus.glob("*.deck"))
        assert len(decks) == len(STRUCTURES)
        # And the corpus actually runs as a batch.
        out = tmp_path / "out"
        code = main(["batch", "run", str(corpus / "tbeam.deck"),
                     str(corpus / "sphere_hatch.deck"),
                     "-o", str(out), "-q"])
        assert code == 0

    def test_checked_in_corpus_matches_generator(self, tmp_path):
        """examples/decks/library/ must stay in sync with the structures."""
        from pathlib import Path

        from repro.batch.corpus import dump_library

        checked_in = (Path(__file__).parent.parent
                      / "examples" / "decks" / "library")
        regenerated = dump_library(tmp_path / "library")
        for name, path in regenerated.items():
            committed = checked_in / f"{name}.deck"
            assert committed.exists(), f"{committed} missing; regenerate " \
                "with: python -m repro batch corpus -o examples/decks/library"
            assert committed.read_text() == path.read_text(), \
                f"{committed} is stale; regenerate the corpus"
