"""Tests for stage-granular incremental caching.

The contract under test is the chained-key invalidation rule: editing
one input re-runs exactly the first stage whose fingerprint sees it and
everything downstream, while every stage before it hits.  The headline
scenario -- edit only a type-6 shaping card, reuse ``number`` and
``elements``, recompute from ``shape`` -- is exercised both directly
against :func:`repro.pipeline.idlz.run_idealization` and end-to-end
through ``batch run``'s manifest.
"""

from __future__ import annotations

import pickle

import numpy as np

from repro.batch import BatchOptions, discover_jobs, run_batch
from repro.core.ospl.contour import ContourSet
from repro.core.idlz.deck import IdlzProblem, write_idlz_deck
from repro.core.idlz.shaping import ShapingSegment
from repro.core.idlz.subdivision import Subdivision
from repro.pipeline import StageCache
from repro.fem.mesh import Mesh
from repro.fem.results import NodalField
from repro.pipeline.cache import entry_bytes
from repro.pipeline.idlz import run_idealization
from repro.pipeline.ospl import conplt_pipeline

from tests.golden_helpers import idealization_digest


def plate_segments(height: float = 3.0):
    """Shaping for a 4 x 4 plate; ``height`` is the type-6 edit knob."""
    return [
        ShapingSegment(1, 1, 1, 4, 1, 0.0, 0.0, 3.0, 0.0),
        ShapingSegment(1, 1, 4, 4, 4, 0.0, height, 3.0, height),
    ]


def run_plate(cache, height: float = 3.0, title: str = "PLATE"):
    sub = Subdivision(index=1, kk1=1, ll1=1, kk2=4, ll2=4)
    return run_idealization(title=title, subdivisions=[sub],
                            segments=plate_segments(height),
                            cache=cache)


def stage_statuses(result):
    """[(bare stage name, cache status), ...] in execution order."""
    return [(r.stage.split(".", 1)[1], r.cache) for r in result.stages]


class TestWarmRerun:
    def test_cold_run_misses_then_stores(self, tmp_path):
        cache = StageCache(tmp_path / "stages")
        _, result = run_plate(cache)
        assert stage_statuses(result) == [
            ("number", "miss"), ("elements", "miss"), ("shape", "miss"),
            ("reform", "miss"), ("renumber", "miss"),
        ]
        assert cache.entry_count() == 5

    def test_warm_rerun_hits_everywhere_with_identical_results(
            self, tmp_path):
        cache = StageCache(tmp_path / "stages")
        cold_ideal, _ = run_plate(cache)
        warm_ideal, warm = run_plate(cache)
        assert all(status == "hit" for _, status in stage_statuses(warm))
        assert (idealization_digest(warm_ideal)
                == idealization_digest(cold_ideal))

    def test_records_carry_content_addresses(self, tmp_path):
        cache = StageCache(tmp_path / "stages")
        _, cold = run_plate(cache)
        _, warm = run_plate(cache)
        cold_keys = [r.key for r in cold.stages]
        assert all(k is not None for k in cold_keys)
        assert [r.key for r in warm.stages] == cold_keys
        assert len(set(cold_keys)) == len(cold_keys)


class TestInvalidation:
    def test_shaping_edit_reuses_number_and_elements(self, tmp_path):
        """The acceptance scenario: a type-6 edit re-runs from shape."""
        cache = StageCache(tmp_path / "stages")
        run_plate(cache, height=3.0)
        edited_ideal, edited = run_plate(cache, height=4.0)
        assert stage_statuses(edited) == [
            ("number", "hit"), ("elements", "hit"), ("shape", "miss"),
            ("reform", "miss"), ("renumber", "miss"),
        ]
        # The edit actually took: fresh geometry, not a stale restore.
        uncached_ideal, _ = run_plate(None, height=4.0)
        assert (idealization_digest(edited_ideal)
                == idealization_digest(uncached_ideal))

    def test_grid_edit_invalidates_from_the_top(self, tmp_path):
        cache = StageCache(tmp_path / "stages")
        run_plate(cache)
        # Widen the subdivision (a type-4 edit): number's fingerprint
        # sees it, so nothing survives.
        sub = Subdivision(index=1, kk1=1, ll1=1, kk2=5, ll2=4)
        segments = [
            ShapingSegment(1, 1, 1, 5, 1, 0.0, 0.0, 4.0, 0.0),
            ShapingSegment(1, 1, 4, 5, 4, 0.0, 3.0, 4.0, 3.0),
        ]
        _, result = run_idealization(title="PLATE", subdivisions=[sub],
                                     segments=segments, cache=cache)
        assert all(status == "miss"
                   for _, status in stage_statuses(result))

    def test_title_is_not_a_compute_input(self, tmp_path):
        # The title only matters to the output stage; the compute
        # pipeline must hit end to end under a different title.
        cache = StageCache(tmp_path / "stages")
        run_plate(cache, title="FIRST")
        _, renamed = run_plate(cache, title="SECOND")
        assert all(status == "hit" for _, status in stage_statuses(renamed))


class TestCorruption:
    def test_corrupt_entry_is_a_miss_then_repaired(self, tmp_path):
        cache = StageCache(tmp_path / "stages")
        _, cold = run_plate(cache)
        shape_key = next(r.key for r in cold.stages
                         if r.stage == "idlz.shape")
        entry = cache._path(shape_key)
        entry.write_bytes(b"not a pickle")
        assert cache.lookup(shape_key) is None
        ideal, result = run_plate(cache)
        assert dict(stage_statuses(result))["shape"] == "miss"
        assert dict(stage_statuses(result))["number"] == "hit"
        # The rerun re-stored a good entry over the rot.
        assert cache.lookup(shape_key) is not None
        uncached, _ = run_plate(None)
        assert idealization_digest(ideal) == idealization_digest(uncached)

    def test_wrong_schema_entry_is_a_miss(self, tmp_path):
        """An entry of another layout -- a bare pickle, no stored key,
        values that are not an output dict -- is a miss."""
        cache = StageCache(tmp_path / "stages")
        key = "ab" * 32
        path = cache._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(pickle.dumps({"key": key, "values": {"x": 1}}))
        assert cache.lookup(key) is None
        path.write_bytes(entry_bytes({"schema": "other/v9",
                                      "values": {"x": 1}}, pickle.dumps))
        assert cache.lookup(key) is None
        path.write_bytes(entry_bytes({"key": key, "values": "not a dict"},
                                     pickle.dumps))
        assert cache.lookup(key) is None
        path.write_bytes(entry_bytes({"key": key, "values": {"x": 1}},
                                     pickle.dumps))
        assert cache.lookup(key) == {"x": 1}

    def test_v1_contour_entry_is_a_miss_not_an_error(self, tmp_path,
                                                      monkeypatch):
        """A v1 entry holds a ContourSet of per-level segment lists; read
        into today's class it would break the labels stage.  Older code
        stored it under a chain rooted at that code's digest, so today's
        run never looks it up: every stage misses and re-stores."""
        mesh = Mesh(nodes=np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0],
                                    [0.0, 2.0]]),
                    elements=np.array([[0, 1, 2], [0, 2, 3]]))
        field = NodalField("S", np.array([0.0, 10.0, 20.0, 10.0]))
        seeds = {"mesh": mesh, "field": field, "interval": 5.0,
                 "lowest": None, "window": None, "strict": False,
                 "title": "V1", "subtitle": "", "plotter": None,
                 "label_size": 9, "stroke_labels": False}
        cache = StageCache(tmp_path / "stages")
        with monkeypatch.context() as older:
            older.setattr("repro.pipeline.cache.code_digest",
                          lambda: "older code")
            cold = conplt_pipeline().run(seeds, cache=cache)
        key = next(r.key for r in cold.stages if r.stage == "ospl.contour")
        stale = ContourSet.__new__(ContourSet)
        stale.__dict__.update(vars(cold["contours"]))
        stale.segments_by_level = {level: [] for level in stale.levels}
        assert cache.store(key, {"contours": stale})
        warm = conplt_pipeline().run(seeds, cache=cache)
        statuses = {r.stage: r.cache for r in warm.stages}
        assert statuses["ospl.intervals"] == "miss"
        assert statuses["ospl.contour"] == "miss"
        assert warm["frame"].ops == cold["frame"].ops
        again = conplt_pipeline().run(seeds, cache=cache)
        assert {r.stage: r.cache for r in again.stages}[
            "ospl.contour"] == "hit"
        assert again["frame"].ops == cold["frame"].ops

    def test_unpicklable_outputs_degrade_to_uncached(self, tmp_path):
        cache = StageCache(tmp_path / "stages")
        assert cache.store("cd" * 32, {"handle": lambda: None}) is False
        assert cache.lookup("cd" * 32) is None
        assert cache.entry_count() == 0


class TestBatchEndToEnd:
    def plate_deck_text(self, height: float = 3.0) -> str:
        sub = Subdivision(index=1, kk1=1, ll1=1, kk2=4, ll2=4)
        problem = IdlzProblem(title="CACHED PLATE", subdivisions=[sub],
                              segments=plate_segments(height))
        return write_idlz_deck([problem]).to_text()

    def run(self, tmp_path, out: str, height: float):
        deck = tmp_path / "plate.deck"
        deck.write_text(self.plate_deck_text(height))
        options = BatchOptions(cache_dir=tmp_path / "cache")
        specs = discover_jobs([str(deck)], tmp_path / out)
        return run_batch(specs, options, out_root=tmp_path / out)

    def test_shaping_edit_partially_reuses_stages(self, tmp_path):
        cold = self.run(tmp_path, "out1", height=3.0)
        edited = self.run(tmp_path, "out2", height=4.0)
        assert cold.summary["ok"] == edited.summary["ok"] == 1
        # The deck changed, so the whole-deck artifact cache misses...
        record = edited.jobs[0]
        assert record["cache"] == "miss"
        # ...but the stage cache still serves everything upstream of
        # the edited shaping card.
        by_stage = {s["stage"]: s["cache"] for s in record["stages"]}
        assert by_stage["idlz.number"] == "hit"
        assert by_stage["idlz.elements"] == "hit"
        assert by_stage["idlz.shape"] == "miss"
        assert by_stage["idlz.reform"] == "miss"
        assert edited.summary["stage_hits"] == 2
        assert edited.summary["stage_misses"] >= 3

    def test_whole_deck_hit_runs_no_stages(self, tmp_path):
        self.run(tmp_path, "out1", height=3.0)
        warm = self.run(tmp_path, "out2", height=3.0)
        record = warm.jobs[0]
        assert record["cache"] == "hit"
        assert record["stages"] == []
        assert warm.summary["stage_hits"] == 0

    def test_status_table_shows_stage_reuse(self, tmp_path):
        self.run(tmp_path, "out1", height=3.0)
        edited = self.run(tmp_path, "out2", height=4.0)
        status = edited.render_status()
        assert "stage hit(s)" in status
        assert "2/" in status  # the hits/total cell for the one job
        explain = edited.render_explain(edited.jobs[0]["job_id"])
        assert "idlz.shape" in explain and "miss" in explain
