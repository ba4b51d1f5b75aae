"""Tests for the ``--lint`` batch pre-flight and the verdict sidecar."""

import json

import pytest

import repro.batch.runner as runner_mod
import repro.lint as lint_mod
from repro.batch.cache import ArtifactCache, lint_key
from repro.batch.jobs import JobSpec
from repro.batch.manifest import EXIT_PARTIAL, BatchManifest
from repro.batch.runner import BatchOptions, run_batch
from repro.cli import main
from tests.test_batch_runner import OSPL_DECK, idlz_deck_text

#: Parses fine but describes a degenerate subdivision (IDZ101): corners
#: (1,1)-(10,1) do not span a box.  Only lint catches it before a run.
BAD_GEOMETRY_DECK = (
    "    1\n"
    "BAD PROBLEM\n"
    "    0    0    0    1\n"
    "    1    1    1   10    1\n"
    "    1    0\n"
    "\n"
    "\n"
)


@pytest.fixture
def deck_dir(tmp_path):
    decks = tmp_path / "decks"
    decks.mkdir()
    (decks / "good.deck").write_text(idlz_deck_text("GOOD"))
    (decks / "bad.deck").write_text(BAD_GEOMETRY_DECK)
    return decks


def spec_for(deck_dir, tmp_path, name, **overrides):
    defaults = dict(
        job_id=name,
        deck=str(deck_dir / f"{name}.deck"),
        program="idlz",
        out_dir=str(tmp_path / "out" / name),
    )
    defaults.update(overrides)
    return JobSpec(**defaults)


class TestLintPreflight:
    def test_bad_deck_is_rejected_without_a_worker(self, deck_dir,
                                                   tmp_path, monkeypatch):
        def boom(payload):
            raise AssertionError(
                f"worker spawned for rejected job {payload['job_id']}"
            )

        monkeypatch.setattr(runner_mod, "run_job", boom)
        manifest = run_batch(
            [spec_for(deck_dir, tmp_path, "bad")],
            BatchOptions(lint=True), out_root=tmp_path,
        )
        record = manifest.job("bad")
        assert record["status"] == "rejected"
        assert record["attempts"] == 0
        assert record["wall_s"] is None
        assert record["error"]["type"] == "lint"
        assert "IDZ101" in record["error"]["message"]
        assert record["lint"]["ok"] is False
        codes = [d["code"] for d in record["lint"]["diagnostics"]]
        assert codes == ["IDZ101"]
        assert record["lint"]["diagnostics"][0]["card"] == 4

    def test_clean_deck_runs_and_carries_its_verdict(self, deck_dir,
                                                     tmp_path):
        manifest = run_batch(
            [spec_for(deck_dir, tmp_path, "good")],
            BatchOptions(lint=True), out_root=tmp_path,
        )
        record = manifest.job("good")
        assert record["status"] == "ok"
        assert record["lint"]["ok"] is True
        assert record["lint"]["diagnostics"] == []

    def test_mixed_batch_isolates_the_rejection(self, deck_dir, tmp_path):
        specs = [spec_for(deck_dir, tmp_path, "good"),
                 spec_for(deck_dir, tmp_path, "bad")]
        manifest = run_batch(specs, BatchOptions(lint=True),
                             out_root=tmp_path)
        assert manifest.job("good")["status"] == "ok"
        assert manifest.job("bad")["status"] == "rejected"
        assert manifest.summary["ok"] == 1
        assert manifest.summary["rejected"] == 1
        assert manifest.summary["failed"] == 0
        assert manifest.exit_code() == EXIT_PARTIAL

    def test_lint_is_off_by_default(self, deck_dir, tmp_path):
        manifest = run_batch(
            [spec_for(deck_dir, tmp_path, "bad")],
            BatchOptions(), out_root=tmp_path,
        )
        record = manifest.job("bad")
        # Without the pre-flight the bad geometry reaches a worker and
        # fails at run time instead of being rejected up front.
        assert record["lint"] is None
        assert record["status"] == "failed"
        assert record["attempts"] == 1

    def test_rejected_job_never_touches_the_artifact_cache(self, deck_dir,
                                                           tmp_path):
        cache_dir = tmp_path / "cache"
        run_batch([spec_for(deck_dir, tmp_path, "bad")],
                  BatchOptions(lint=True, cache_dir=cache_dir),
                  out_root=tmp_path)
        assert ArtifactCache(cache_dir).entry_count() == 0


class TestLintVerdictSidecar:
    def test_warm_rerun_skips_the_analysis(self, deck_dir, tmp_path,
                                           monkeypatch):
        cache_dir = tmp_path / "cache"
        options = BatchOptions(lint=True, cache_dir=cache_dir)
        first = run_batch([spec_for(deck_dir, tmp_path, "bad")],
                          options, out_root=tmp_path)

        def boom(*args, **kwargs):
            raise AssertionError("lint_text called on a warm rerun")

        monkeypatch.setattr(lint_mod, "lint_text", boom)
        second = run_batch([spec_for(deck_dir, tmp_path, "bad")],
                           options, out_root=tmp_path)
        assert second.job("bad")["lint"] == first.job("bad")["lint"]
        assert second.job("bad")["status"] == "rejected"

    def test_lint_key_separates_every_input(self, monkeypatch):
        base = lint_key("fp", "idlz", False)
        assert lint_key("fp", "idlz", False) == base
        assert lint_key("fp2", "idlz", False) != base
        assert lint_key("fp", "ospl", False) != base
        assert lint_key("fp", "idlz", True) != base
        monkeypatch.setattr("repro.batch.cache.code_digest",
                            lambda: "edited rule template")
        assert lint_key("fp", "idlz", False) != base

    def test_lint_key_moves_with_a_rule_edit(self, source_copy):
        """Editing a rule template without a version bump moves the
        code digest, so every stored verdict is orphaned."""
        from repro._version import code_digest

        base = lint_key("fp", "idlz", False)
        rules = source_copy / "lint" / "rules_idlz.py"
        text = rules.read_text()
        edited = text.replace("deck truncated", "deck cut short", 1)
        assert edited != text
        rules.write_text(edited)
        assert lint_key("fp", "idlz", False) == base   # digest is cached
        code_digest.cache_clear()
        assert lint_key("fp", "idlz", False) != base

    def test_store_and_lookup_roundtrip(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        key = lint_key("fp", "idlz", False)
        verdict = {"ok": False, "counts": {"error": 1},
                   "diagnostics": [{"code": "IDZ101"}]}
        cache.store_lint(key, verdict)
        assert cache.lookup_lint(key) == verdict
        assert cache.lookup_lint(lint_key("fp", "ospl", False)) is None

    def test_corrupt_sidecar_is_a_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        key = lint_key("fp", "idlz", False)
        cache.store_lint(key, {"ok": True, "counts": {},
                               "diagnostics": []})
        sidecar = cache._lint_file(key)
        sidecar.write_text("{not json")
        assert cache.lookup_lint(key) is None
        sidecar.write_text(json.dumps({"schema": "repro.batch-lint/v0",
                                       "verdict": {"ok": True}}))
        assert cache.lookup_lint(key) is None

    def test_sidecars_do_not_count_as_artifact_entries(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        cache.store_lint(lint_key("fp", "idlz", False),
                         {"ok": True, "counts": {}, "diagnostics": []})
        assert cache.entry_count() == 0


class TestBatchLintCli:
    def test_run_with_lint_rejects_and_reports(self, deck_dir, tmp_path,
                                               capsys):
        out = tmp_path / "out"
        code = main(["batch", "run", str(deck_dir / "*.deck"),
                     "-o", str(out), "--lint"])
        assert code == EXIT_PARTIAL
        manifest = BatchManifest.load(out / "batch_manifest.json")
        assert manifest.job("bad")["status"] == "rejected"
        assert manifest.job("good")["status"] == "ok"
        assert manifest.options["lint"] is True
        stdout = capsys.readouterr().out
        assert "1 rejected" in stdout

    def test_explain_shows_the_lint_block(self, deck_dir, tmp_path,
                                          capsys):
        out = tmp_path / "out"
        main(["batch", "run", str(deck_dir / "*.deck"),
              "-o", str(out), "--lint", "-q"])
        capsys.readouterr()
        code = main(["batch", "explain",
                     str(out / "batch_manifest.json"), "bad"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "lint" in stdout
        assert "IDZ101" in stdout
        assert "card 4" in stdout

    def test_no_lint_flag_keeps_the_preflight_off(self, deck_dir,
                                                  tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["batch", "run", str(deck_dir / "good.deck"),
                     "-o", str(out), "--no-lint", "-q"])
        assert code == 0
        manifest = BatchManifest.load(out / "batch_manifest.json")
        assert manifest.options["lint"] is False
        assert manifest.job("good")["lint"] is None

    def test_ospl_decks_go_through_the_same_preflight(self, tmp_path,
                                                      capsys):
        decks = tmp_path / "decks"
        decks.mkdir()
        (decks / "field.deck").write_text(OSPL_DECK)
        out = tmp_path / "out"
        code = main(["batch", "run", str(decks / "field.deck"),
                     "-o", str(out), "--lint", "-q"])
        assert code == 0
        manifest = BatchManifest.load(out / "batch_manifest.json")
        assert manifest.job("field")["lint"]["ok"] is True
