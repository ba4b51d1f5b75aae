"""Profiling hooks: hotspot tables, the v1.2 report, schema compat."""

from __future__ import annotations

import cProfile
import json

import pytest

from repro import obs
from repro.cli import main
from repro.core.idlz.deck import IdlzProblem, write_idlz_deck
from repro.core.idlz.program import run_idlz_files
from repro.core.idlz.shaping import ShapingSegment
from repro.core.idlz.subdivision import Subdivision
from repro.errors import ObsError
from repro.obs.profile import (
    ProfileLog,
    hotspot_table,
    merge_tables,
    render_profile,
)
from repro.obs.report import SCHEMA, RunReport


def _busy(n=2000):
    return sum(i * i for i in range(n))


def _profiled_table():
    profiler = cProfile.Profile()
    profiler.enable()
    _busy()
    profiler.disable()
    return hotspot_table(profiler)


def _plate_deck(tmp_path, cols=6):
    sub = Subdivision(index=1, kk1=1, ll1=1, kk2=cols, ll2=5)
    segments = [
        ShapingSegment(1, 1, 1, cols, 1, 0.0, 0.0, 4.0, 0.0),
        ShapingSegment(1, 1, 5, cols, 5, 0.0, 4.0, 4.0, 4.0),
    ]
    problem = IdlzProblem(title="PROFILE PLATE", subdivisions=[sub],
                          segments=segments, nopnch=1)
    deck = tmp_path / "in.deck"
    deck.write_text(write_idlz_deck([problem]).to_text())
    return deck


class TestHotspotTable:
    def test_rows_are_json_safe_and_sorted(self):
        table = _profiled_table()
        assert table
        json.dumps(table)
        for row in table:
            assert set(row) == {"func", "ncalls", "tottime", "cumtime"}
            assert "/" not in row["func"]  # basenames only
        cums = [row["cumtime"] for row in table]
        assert cums == sorted(cums, reverse=True)

    def test_named_function_appears(self):
        funcs = " ".join(row["func"] for row in _profiled_table())
        assert "_busy" in funcs

    def test_top_n_bounds_the_table(self):
        profiler = cProfile.Profile()
        profiler.enable()
        _busy()
        profiler.disable()
        assert len(hotspot_table(profiler, top_n=2)) <= 2


class TestMergeTables:
    def test_sums_per_function(self):
        a = [{"func": "f.py:1(f)", "ncalls": 2, "tottime": 0.1,
              "cumtime": 0.3}]
        b = [{"func": "f.py:1(f)", "ncalls": 1, "tottime": 0.2,
              "cumtime": 0.1},
             {"func": "g.py:9(g)", "ncalls": 5, "tottime": 0.05,
              "cumtime": 0.05}]
        merged = merge_tables(a, b)
        by_func = {row["func"]: row for row in merged}
        assert by_func["f.py:1(f)"]["ncalls"] == 3
        assert by_func["f.py:1(f)"]["cumtime"] == pytest.approx(0.4)
        assert by_func["g.py:9(g)"]["ncalls"] == 5
        assert merged[0]["func"] == "f.py:1(f)"  # biggest cumtime first

    def test_profile_log_merges_repeated_stages(self):
        log = ProfileLog()
        row = {"func": "f.py:1(f)", "ncalls": 1, "tottime": 0.1,
               "cumtime": 0.1}
        log.record("idlz.reform", [dict(row)])
        log.record("idlz.reform", [dict(row)])
        log.record("idlz.read", [dict(row)])
        tables = log.to_dict()
        assert sorted(tables) == ["idlz.read", "idlz.reform"]
        assert tables["idlz.reform"][0]["ncalls"] == 2
        assert len(log) == 2


class TestProfiledRun:
    def test_idlz_stages_get_hotspot_tables(self, tmp_path):
        deck = _plate_deck(tmp_path)
        observer = obs.enable(obs.Observer(profile=True))
        try:
            run_idlz_files(deck, tmp_path / "out")
            report = observer.report(command="idlz")
        finally:
            obs.disable(observer)
        assert {"idlz.read", "idlz.elements", "idlz.shape", "idlz.reform",
                "idlz.renumber", "idlz.output"} <= set(report.profile)
        # The tables name the actual hot loops of the 1970 algorithms.
        reform_funcs = " ".join(r["func"]
                                for r in report.profile["idlz.reform"])
        assert "reform" in reform_funcs
        element_funcs = " ".join(r["func"]
                                 for r in report.profile["idlz.elements"])
        assert "element" in element_funcs or "mesh" in element_funcs

    def test_profiling_off_keeps_report_empty(self, tmp_path):
        deck = _plate_deck(tmp_path)
        with obs.capture() as observer:
            run_idlz_files(deck, tmp_path / "out")
        assert observer.report().profile == {}

    def test_render_profile_table(self):
        profile = {"idlz.reform": [
            {"func": "reform.py:85(_try_swap)", "ncalls": 376,
             "tottime": 0.005, "cumtime": 0.033},
        ]}
        rendered = render_profile(profile)
        assert "idlz.reform" in rendered
        assert "_try_swap" in rendered
        assert "376x" in rendered
        assert render_profile({}) == "profile: no stages profiled"


class TestSchemaCompat:
    def test_current_schema_is_v13(self):
        assert SCHEMA == "repro.obs/v1.3"

    def test_unknown_schema_rejected(self):
        with pytest.raises(ObsError, match="unsupported report schema"):
            RunReport.from_dict({"schema": "repro.obs/v2"})

    def test_v12_round_trip_keeps_profile(self):
        with obs.capture() as observer:
            observer.profiles.record("idlz.reform", [
                {"func": "reform.py:85(_try_swap)", "ncalls": 1,
                 "tottime": 0.1, "cumtime": 0.2},
            ])
            report = observer.report()
        loaded = RunReport.from_json(report.to_json())
        assert loaded.profile == report.profile
        assert json.loads(report.to_json())["schema"] == SCHEMA


class TestProfileCli:
    def test_profile_flag_prints_and_embeds_and_folds(self, tmp_path,
                                                      capsys):
        deck = _plate_deck(tmp_path)
        report_path = tmp_path / "prof" / "run.json"
        assert main(["idlz", str(deck), "-o", str(tmp_path / "out"),
                     "--profile", "--report", str(report_path),
                     "-q"]) == 0
        err = capsys.readouterr().err
        assert "per-stage hotspots" in err
        assert "idlz.reform" in err
        report = RunReport.load(report_path)
        assert report.profile
        folded = (tmp_path / "prof" / "run.folded").read_text()
        assert "idlz.reform" in folded

    def test_batch_run_profile_lands_in_manifest(self, tmp_path):
        from repro.batch.manifest import BatchManifest

        deck = _plate_deck(tmp_path)
        assert main(["batch", "run", str(deck),
                     "-o", str(tmp_path / "bout"), "--profile",
                     "-q"]) == 0
        manifest = BatchManifest.load(
            tmp_path / "bout" / "batch_manifest.json")
        assert manifest.options["profile"] is True
        profile = manifest.jobs[0]["obs"]["profile"]
        assert "idlz.reform" in profile
        funcs = " ".join(r["func"] for r in profile["idlz.reform"])
        assert "reform" in funcs
