"""Tests of the benchmark itself (no ``repro`` process is spawned).

    python -m pytest perfbench/tests -q
"""

import math
import random
import sys
from pathlib import Path

import pytest

import decks
from measure import FAILED, OpResult, summarize
from spans import UNATTRIBUTED, Span, attribute_wall, segments
from workloads import WORKLOADS, BatchCache


def _deck_bytes(workload_name, seed, tmp_path):
    work = tmp_path / f"{workload_name}-{seed}"
    workload = WORKLOADS[workload_name](random.Random(seed), work)
    workload.generate()
    return {str(p.relative_to(work)): p.read_bytes()
            for p in sorted(work.rglob("*.deck"))}


# ----------------------------------------------------------------------
# Seeded decks
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_decks(name, tmp_path):
    first = _deck_bytes(name, 7, tmp_path / "a")
    second = _deck_bytes(name, 7, tmp_path / "b")
    assert first and first == second


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_different_seed_gives_different_decks(name, tmp_path):
    first = _deck_bytes(name, 7, tmp_path / "a")
    second = _deck_bytes(name, 8, tmp_path / "b")
    assert set(first) == set(second)  # same size classes ...
    assert first != second            # ... different decks


def test_decks_are_fixed_column_cards():
    spec = decks.analyze_spec(random.Random(3), "T", 9, 7)
    cards = spec.deck().splitlines()
    assert cards[0] == "    1"
    assert cards[3] == "    1    1    1    9    7         0    0"
    assert cards[-1] == "END"
    assert all(len(card) <= 80 for card in cards)


def test_ospl_levels_in_closed_form():
    spec = decks.OsplSpec("T", 3, 2, 4.0, 2.0, 0.0, 10.0, 2.5)
    spec.deck()
    lo, hi = min(spec.values), max(spec.values)
    expected = [k * 2.5 for k in range(-100, 100) if lo <= k * 2.5 <= hi]
    assert spec.levels() == len(expected)
    assert spec.boundary_edges == 6 and spec.elements == 4


# ----------------------------------------------------------------------
# Edits never repeat
# ----------------------------------------------------------------------

def test_edit_rounds_never_reuse_a_value(tmp_path):
    workload = BatchCache(random.Random(5), tmp_path)
    workload.generate()
    seen = {c.deck.path.stem: {c.deck.path.read_text()}
            for c in workload.corpus}
    editable = [c for c in workload.corpus if c.deck.program != "ospl"]
    for _ in range(40):
        info = workload.edit_round(editable)
        assert len(info["edited"]) == len(workload.corpus) // 3
        for stem in info["edited"]:
            text = (workload.deck_dir / "corpus" / f"{stem}.deck").read_text()
            assert text not in seen[stem], f"{stem} repeated a deck state"
            seen[stem].add(text)
    # Every deck state written during the rounds was new for its deck.
    assert sum(len(v) for v in seen.values()) > 40 * 12


def test_edit_snapshot_matches_the_deck_the_op_sees(tmp_path):
    workload = BatchCache(random.Random(9), tmp_path)
    workload.generate()
    editable = [c for c in workload.corpus if c.deck.program != "ospl"]
    info = workload.edit_round(editable)
    live = workload.deck_dir / "corpus" / f"{info['sample']}.deck"
    assert info["snapshot"].read_bytes() == live.read_bytes()


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------

def _self_times(track):
    """Seconds of the timeline each layer owns, from ``segments``."""
    out = {}
    for lo, hi, layer in segments(track):
        out[layer] = out.get(layer, 0.0) + hi - lo
    return out


def test_self_time_subtracts_the_union_of_overlapping_children():
    track = [Span("p", 0.0, 10.0, -1, "P"),
             Span("a", 1.0, 4.0, 0, "A"), Span("b", 3.0, 6.0, 0, "B"),
             Span("c", 8.0, 12.0, 0, "C")]   # clipped at the parent's end
    # union of the children = [1, 6] + [8, 10] = 7 of the parent's 10
    assert _self_times(track)["P"] == pytest.approx(3.0)


def test_self_times_of_a_nested_track():
    track = [Span("root", 0.0, 10.0, -1, "R"), Span("child", 2.0, 5.0, 0, "C"),
             Span("grandchild", 3.0, 4.0, 1, "G")]
    assert _self_times(track) == pytest.approx({"R": 7.0, "C": 2.0, "G": 1.0})


def test_segments_cover_each_instant_once():
    # Siblings never overlap on one thread; if they do, the earlier one
    # keeps the overlap so no instant is counted twice.
    track = [Span("root", 0.0, 10.0, -1, None),
             Span("a", 1.0, 4.0, 0, "A"), Span("b", 3.0, 6.0, 0, "B")]
    assert _self_times(track) == pytest.approx(
        {UNATTRIBUTED: 5.0, "A": 3.0, "B": 2.0})


def _random_track(rng, t0, t1, depth=0):
    spans = []
    t = t0
    while t < t1 and depth < 3:
        start = rng.uniform(t, t1)
        end = rng.uniform(start, t1)
        spans.append((start, end, depth))
        t = end + rng.uniform(0, (t1 - t0) / 4)
    return spans


@pytest.mark.parametrize("seed", range(25))
def test_layers_plus_unattributed_equal_wall_and_never_negative(seed):
    rng = random.Random(seed)
    wall = (0.0, 10.0)
    track = [Span("launcher", rng.uniform(-1, 1), rng.uniform(8, 11), -1,
                  None)]
    for start, end, _ in _random_track(rng, track[0].start, track[0].end):
        track.append(Span("x", start, end, 0, rng.choice("ABC")))
        parent = len(track) - 1
        for s2, e2, _ in _random_track(rng, start, end, 1):
            track.append(Span("y", s2, e2, parent, "batch.pool_wait"))
    workers = [[Span("job", s, e, -1, rng.choice("DE"))
                for s, e, _ in _random_track(rng, 0.0, 10.0)]
               for _ in range(2)]
    totals = attribute_wall(wall, track, workers)
    assert sum(totals.values()) == pytest.approx(10.0, abs=1e-9)
    assert all(v >= 0.0 for v in totals.values())
    assert totals.get(UNATTRIBUTED, 0.0) >= 0.0


def test_pool_wait_goes_to_busy_workers_split_evenly():
    main = [Span("launcher", 0.0, 10.0, -1, None),
            Span("wait", 2.0, 8.0, 0, "batch.pool_wait")]
    workers = [[Span("job", 2.0, 6.0, -1, "W1")],
               [Span("job", 4.0, 8.0, -1, "W2")]]
    totals = attribute_wall((0.0, 10.0), main, workers)
    # [2,4]: W1 alone; [4,6]: W1 and W2 share; [6,8]: W2 alone.
    assert totals == pytest.approx({UNATTRIBUTED: 4.0, "W1": 3.0, "W2": 3.0})


def test_time_outside_every_span_is_unattributed():
    main = [Span("interp.start", 0.0, 1.0, -1, "interp.start"),
            Span("launcher", 1.0, 9.0, -1, None),
            Span("import", 1.0, 3.0, 1, "import.repro")]
    totals = attribute_wall((0.0, 10.0), main)
    assert totals == pytest.approx({"interp.start": 1.0,
                                    "import.repro": 2.0,
                                    UNATTRIBUTED: 7.0})


# ----------------------------------------------------------------------
# Failed ops
# ----------------------------------------------------------------------

def _op(wall, code=0, error=""):
    return OpResult(kind="idlz", wall_s=wall, cpu_s=wall, maxrss_mb=50.0,
                    code=code, decks=1, t_spawn=0.0, t_exit=wall,
                    out_dir=Path("."), error=error)


def test_failed_op_sorts_above_every_latency():
    ok = [_op(w) for w in (0.5, 0.7, 0.9)]
    failed = _op(0.1, code=1, error="exit code 1")
    assert not failed.ok and failed.latency_s == FAILED
    assert all(failed.latency_s > op.latency_s for op in ok)
    assert max(o.latency_s for o in ok + [failed]) == math.inf


def test_failed_check_counts_as_failure_and_is_never_dropped():
    ops = [_op(1.0), _op(1.0), _op(1.0, error="listing nodes 5 != 6")]
    assert sum(1 for op in ops if not op.ok) == 1
    # One failure of three lifts the median to the slower side...
    assert summarize(ops)["op_p50_s"] == 1.0
    # ... and a majority of failures makes it infinite, never smaller.
    ops.append(_op(0.2, code=3, error="exit code 3"))
    ops.append(_op(0.2, code=3, error="exit code 3"))
    assert summarize(ops)["op_p50_s"] == math.inf


def test_failed_ops_count_no_decks_but_all_their_cpu():
    ops = [_op(1.0), _op(1.0, code=1, error="exit code 1")]
    metrics = summarize(ops)
    assert metrics["decks_per_s"] == pytest.approx(0.5)
    assert metrics["cpu_s_per_deck"] == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Launcher wrappers
# ----------------------------------------------------------------------

def test_missing_wrapper_targets_are_counted_not_skipped(monkeypatch):
    import types

    import launcher

    module = types.ModuleType("repro.fake")
    module.present = lambda x: x + 1
    module.Kept = type("Kept", (), {"method": lambda self: 2})
    monkeypatch.setitem(launcher.PATCHES, "repro.fake", [
        ("present", "fake.present", "plan.plan", None, None),
        ("absent", "fake.absent", "plan.plan", None, None),
        ("Kept.gone", "fake.gone", "plan.plan", None, None),
        ("Gone.method", "fake.method", "plan.plan", None, None),
    ])
    rec = launcher.Recorder()
    monkeypatch.setattr(launcher, "REC", rec)
    launcher._apply(module)
    assert rec.counts["trace.missing_wrappers"] == 3
    assert module.present(1) == 2
    assert [span[0] for span in rec.spans] == ["fake.present"]


def test_wrappers_are_keyed_by_the_defining_module():
    """Each target lives in its key's module: one wrapper per function."""
    import importlib
    import inspect

    import launcher

    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    try:
        for name, patches in launcher.PATCHES.items():
            module = importlib.import_module(name)
            for attr, *_ in patches:
                owner, _, leaf = attr.rpartition(".")
                target = getattr(module, owner) if owner else module
                raw = inspect.unwrap(getattr(target, leaf))
                assert leaf in vars(target), f"{name}.{attr} not found"
                if owner:
                    assert target.__module__ == name, f"{name}.{attr}"
                else:
                    assert raw.__module__ == name, f"{name}.{attr}"
    finally:
        sys.path.pop(0)


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with the code
# ----------------------------------------------------------------------

def test_benchmark_json_names_what_the_runs_print():
    import json

    import layers
    from run import END_TO_END_UNITS

    doc = json.loads((Path(__file__).resolve().parents[2]
                      / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} \
        == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} \
        == layers.metric_units()
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
