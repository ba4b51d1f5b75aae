"""Tests for the ``repro analyze`` command-line surface."""

import json
from pathlib import Path

import pytest

from repro.analyze.deck import (
    AnalyzeDeck,
    AnalyzeSpec,
    TempCard,
    ThermalMaterialCard,
)
from repro.analyze.examples import deck_text, plate_deck
from repro.cli import _normalize_argv, main


@pytest.fixture()
def deck_file(tmp_path: Path) -> Path:
    deck = tmp_path / "plate.analyze.deck"
    deck.write_text(deck_text(plate_deck()))
    return deck


class TestNormalizeArgv:
    def test_inserts_run_after_bare_analyze(self):
        assert _normalize_argv(["analyze", "d.deck"]) \
            == ["analyze", "run", "d.deck"]

    def test_keeps_explicit_subcommands(self):
        assert _normalize_argv(["analyze", "run", "d.deck"]) \
            == ["analyze", "run", "d.deck"]
        assert _normalize_argv(["analyze", "sweep", "d.deck"]) \
            == ["analyze", "sweep", "d.deck"]

    def test_leaves_other_commands_alone(self):
        assert _normalize_argv(["idlz", "d.deck"]) == ["idlz", "d.deck"]
        assert _normalize_argv(["analyze"]) == ["analyze"]
        assert _normalize_argv(["analyze", "--help"]) \
            == ["analyze", "--help"]

    def test_keeps_flag_value_pairs_intact(self):
        assert _normalize_argv(["analyze", "-o", "out", "d.deck"]) \
            == ["analyze", "run", "-o", "out", "d.deck"]


class TestAnalyzeRun:
    def test_end_to_end_artifacts(self, deck_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["analyze", str(deck_file), "-o", str(out)])
        assert code == 0
        assert (out / "isogram_effective.svg").exists()
        assert (out / "isogram_displacement.svg").exists()
        assert (out / "analyze.listing.txt").exists()
        manifest = json.loads((out / "analyze_manifest.json").read_text())
        assert manifest["schema"] == "repro.analyze/v1"
        assert manifest["analysis"] == "plane_stress"
        assert manifest["summary"]["nodes"] == 63
        stages = [s["stage"] for s in manifest["stages"]]
        assert stages[0] == "analyze.number"
        assert stages[-1] == "analyze.isograms"
        captured = capsys.readouterr().out
        assert "63 nodes" in captured
        assert "isogram(s)" in captured

    @pytest.mark.parametrize("first, second", [(100.0, 0.0), (0.0, 100.0)])
    def test_conflicting_temp_cards_exit_cleanly(self, tmp_path, capsys,
                                                 first, second):
        spec = AnalyzeSpec(
            analysis="thermal",
            thermal_materials=(ThermalMaterialCard(
                group=1, conductivity=45.0),),
            temps=(TempCard(axis="y", coord=0.0, value=first),
                   TempCard(axis="x", coord=0.0, value=second)),
            plots=("temperature",),
        )
        deck = tmp_path / "conflict.analyze.deck"
        deck.write_text(deck_text(
            AnalyzeDeck(problem=plate_deck().problem, spec=spec)))
        code = main(["analyze", "run", str(deck),
                     "-o", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: node 0 ")
        assert f"({first} vs {second})" in err
        assert "Traceback" not in err

    def test_explicit_run_subcommand_is_equivalent(self, deck_file,
                                                   tmp_path):
        out = tmp_path / "out"
        code = main(["analyze", "run", str(deck_file), "-o", str(out)])
        assert code == 0
        assert (out / "analyze_manifest.json").exists()

    def test_cache_dir_warm_rerun_hits(self, deck_file, tmp_path,
                                       capsys):
        out = tmp_path / "out"
        cache = tmp_path / "cache"
        for _ in range(2):
            assert main(["analyze", str(deck_file), "-o", str(out),
                         "--cache-dir", str(cache)]) == 0
        manifest = json.loads((out / "analyze_manifest.json").read_text())
        assert all(s["cache"] == "hit" for s in manifest["stages"])


class TestAnalyzeSweep:
    def test_sweep_writes_per_scenario_manifests(self, deck_file,
                                                 tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(["analyze", "sweep", str(deck_file),
                     "-o", str(out), "--loads", "1.0", "1.5"])
        assert code == 0
        sweep = json.loads((out / "sweep_manifest.json").read_text())
        assert sweep["schema"] == "repro.analyze-sweep/v1"
        assert len(sweep["scenarios"]) == 2
        for scenario in sweep["scenarios"]:
            job_manifest = out / "jobs" / scenario["id"] \
                / "analyze_manifest.json"
            assert job_manifest.exists()
            data = json.loads(job_manifest.read_text())
            assert data["schema"] == "repro.analyze/v1"
        captured = capsys.readouterr().out
        assert "2 scenario(s)" in captured
