"""Shared helpers for the experiment benchmarks.

Every benchmark regenerates one artefact of the paper (a figure, a table
or a numeric claim) and prints a ``paper vs measured`` record; these
records are collected in EXPERIMENTS.md.  SVG frames go under
``benchmarks/out/`` so the regenerated figures can be eyeballed.

Perf trajectory: :func:`observed_run` executes a workload under the
observability layer (:mod:`repro.obs`) and stamps the result as
``BENCH_<name>.json`` at the repository root, in the same
``repro.obs/v1.3`` schema the CLI's ``--report`` flag writes — spans,
metrics *and* the numerical-health snapshots the instrumented stages
publish, so a bench record also carries mesh-quality and solver-health
baselines.  Running this module directly regenerates two records:

* ``BENCH_idlz_stages.json`` -- the per-stage record of a paper-scale
  40 x 60 idealization stamped with the measured observability overhead
  (the ``obs.overhead`` snapshot; its ``ledger_trace_pct`` is bounded
  at 5% by the gate);
* ``BENCH_analyze_stages.json`` -- the densified example plate pushed
  through the full ``analyze`` pipeline (idealize, assemble, solve,
  recover, contour), so the perf gates and the ``obs bench`` trend
  history cover the solver path, not just idealization;
* ``BENCH_idlz_large.json`` -- a 1000 x 1000 lattice (a million nodes,
  two million elements, 25x beyond Table 2 per axis) through
  idealization plus OSPL contour extraction: the record that proves
  the 40 x 60 grid cap is history, not capacity.

CI regenerates all three and gates the results with
``python -m repro obs check`` against the checked-in copies::

    PYTHONPATH=src python benchmarks/common.py
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

from repro import obs
from repro.obs import events
from repro.obs.health import HealthSnapshot
from repro.obs.report import RunReport
from repro.plotter.device import Frame
from repro.plotter.svg import save_svg

#: Where regenerated figures are written.
OUT_DIR = Path(__file__).parent / "out"

#: Where BENCH_*.json perf records are written (the repository root).
BENCH_DIR = Path(__file__).parent.parent


def report(experiment: str, rows: Dict[str, object]) -> None:
    """Print one experiment record in a grep-friendly format."""
    print(f"\n[{experiment}]")
    for key, value in rows.items():
        print(f"  {key:40s} {value}")


def save_frame(experiment: str, frame: Frame, suffix: str = "") -> Path:
    """Persist a regenerated figure frame as SVG."""
    name = experiment + (f"_{suffix}" if suffix else "") + ".svg"
    return save_svg(frame, OUT_DIR / name)


# ----------------------------------------------------------------------
# Observed runs -> BENCH_*.json
# ----------------------------------------------------------------------

def bench_path(name: str) -> Path:
    return BENCH_DIR / f"BENCH_{name}.json"


def observed_run(name: str, workload: Callable[[], Any],
                 write: bool = True,
                 **meta: Any) -> Tuple[Any, RunReport, Optional[Path]]:
    """Run ``workload`` under observation and stamp ``BENCH_<name>.json``.

    Returns ``(workload result, RunReport, written path or None)``.
    """
    with obs.capture() as observer:
        value = workload()
    run_report = observer.report(experiment=name, **meta)
    path = run_report.save(bench_path(name)) if write else None
    return value, run_report, path


def idlz_stage_probe(cols: int = 40, rows: int = 60):
    """A paper-scale rectangular idealization: the standard obs workload.

    Runs the number -> renumber stages through
    :func:`repro.pipeline.idlz.run_idealization` -- the same framework
    the programs execute on -- so the bench record reflects the real
    per-stage spans.
    """
    from repro.core.idlz.shaping import ShapingSegment
    from repro.core.idlz.subdivision import Subdivision
    from repro.pipeline.idlz import run_idealization

    sub = Subdivision(index=1, kk1=1, ll1=1, kk2=cols + 1, ll2=rows + 1)
    segments = [
        ShapingSegment(1, 1, 1, cols + 1, 1,
                       0.0, 0.0, float(cols), 0.0),
        ShapingSegment(1, 1, rows + 1, cols + 1, rows + 1,
                       0.0, float(rows), float(cols), float(rows)),
    ]
    ideal, _ = run_idealization(title=f"BENCH {cols}X{rows}",
                                subdivisions=[sub], segments=segments)
    return ideal


def idlz_large_probe(cols: int = 1000, rows: int = 1000):
    """A beyond-Table-2 lattice: the large-grid capacity workload.

    The paper's Table 2 capped the grid at 40 x 60 (the 7090's NUMBER
    array); the array-native kernels have no such cap, and this probe
    proves it at the million-node scale: a ``cols x rows`` idealization
    through the same stage pipeline as :func:`idlz_stage_probe`, then
    OSPL contour extraction of a synthetic field over the result.
    Renumbering is off (NONUMB) -- reverse Cuthill-McKee is a
    pure-Python frontier walk, and the point here is the kernel path,
    not the heuristic.  Returns ``(idealization, contour set)``.
    """
    import numpy as np

    from repro.core.idlz.shaping import ShapingSegment
    from repro.core.idlz.subdivision import Subdivision
    from repro.core.ospl.contour import contour_mesh
    from repro.fem.results import NodalField
    from repro.pipeline.idlz import run_idealization

    sub = Subdivision(index=1, kk1=1, ll1=1, kk2=cols + 1, ll2=rows + 1)
    segments = [
        ShapingSegment(1, 1, 1, cols + 1, 1,
                       0.0, 0.0, float(cols), 0.0),
        ShapingSegment(1, 1, rows + 1, cols + 1, rows + 1,
                       0.0, float(rows), float(cols), float(rows)),
    ]
    ideal, _ = run_idealization(title=f"BENCH LARGE {cols}X{rows}",
                                subdivisions=[sub], segments=segments,
                                renumber=False)
    mesh = ideal.mesh
    values = (np.sin(mesh.nodes[:, 0] * 0.01)
              * np.cos(mesh.nodes[:, 1] * 0.01))
    contours = contour_mesh(
        mesh, NodalField(name="synthetic", values=values)
    )
    return ideal, contours


def analyze_stage_probe(densify: int = 4):
    """The example plate analysis at bench scale: the solver workload.

    Takes the checked-in ``plate`` analyze deck and densifies its
    lattice ``densify``-fold (the same refinement ``analyze sweep
    --densify`` applies), then runs the combined number -> isograms
    pipeline through :func:`repro.analyze.program.run_analyze`.  At the
    default factor the 9 x 7 lattice becomes 33 x 25 (825 nodes, 1650
    equations), enough for the assemble/solve/recover spans to dominate
    the record instead of timer noise.
    """
    from repro.analyze.deck import write_analyze_deck
    from repro.analyze.examples import plate_deck
    from repro.analyze.program import run_analyze
    from repro.analyze.sweep import apply_overrides
    from repro.cards.reader import CardReader

    deck = apply_overrides(plate_deck(), {
        "load_scale": 1.0, "youngs": None, "densify": densify,
    })
    reader = CardReader.from_text(write_analyze_deck(deck).to_text())
    return run_analyze(reader)


def measure_obs_overhead(workload: Callable[[], Any],
                         repeats: int = 5) -> Dict[str, float]:
    """The observability tax: spans + run ledger vs a bare run.

    Times ``workload`` ``repeats`` times plain and ``repeats`` times
    with an observer *and* an events ledger enabled (profile off — that
    one is priced separately and opt-in; health-snapshot construction
    likewise, via ``collect_health=False`` — the bound prices the
    ledger + span tracing alone, matching its name).  The two
    configurations alternate and the **minimum** of each is kept, so
    scheduler noise and thermal drift cancel instead of compounding.
    Returns the values of the ``obs.overhead`` health snapshot; the
    ``ledger_trace_pct`` key is bounded at 5% by ``obs check`` through
    :data:`repro.obs.diff.HEALTH_ABS_FLOORS`.  Call with a workload
    whose plain wall time is a few hundred milliseconds at least: the
    absolute overhead is near-constant, so a short denominator turns
    timer jitter into percentage swings.

    The ``--series`` sampler is priced separately as ``series_pct``
    (bounded at 2%): it runs on its own thread, so its tax is its
    **duty cycle** — median cost of one ``sample`` event into a
    ledger over the sampling interval — not a wall-time delta, which
    at this magnitude would measure scheduler noise rather than the
    sampler.
    """
    with tempfile.TemporaryDirectory() as tmp:
        def traced() -> None:
            observer = obs.enable(obs.Observer(collect_health=False))
            events.enable(Path(tmp) / "events.jsonl")
            events.set_context(trace_id=observer.trace_id)
            try:
                workload()
            finally:
                events.disable()
                obs.disable(observer)

        plain_s = traced_s = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            workload()
            plain_s = min(plain_s, time.perf_counter() - t0)
            t0 = time.perf_counter()
            traced()
            traced_s = min(traced_s, time.perf_counter() - t0)

        costs = []
        with events.EventLedger(tmp) as ledger:
            sampler = events.Sampler(ledger)
            for _ in range(50):
                t0 = time.perf_counter()
                sampler.sample_once()
                costs.append(time.perf_counter() - t0)
        sample_s = sorted(costs)[len(costs) // 2]

    pct = (100.0 * (traced_s - plain_s) / plain_s
           if plain_s > 0.0 else 0.0)
    return {
        "plain_s": round(plain_s, 6),
        "traced_s": round(traced_s, 6),
        "series_sample_s": round(sample_s, 6),
        "ledger_trace_pct": round(max(pct, 0.0), 3),
        "series_pct": round(100.0 * sample_s / events.SAMPLE_INTERVAL_S,
                            3),
    }


def main() -> None:
    # Price the observability layer first (outside any observer, so
    # "plain" really is plain), then publish the result as a health
    # snapshot of the observed run.  The overhead probe is 3x the
    # paper grid per axis: the array-native kernels squeezed the 40x60
    # probe under ~30ms plain, too short a denominator for the 5%
    # ledger_trace_pct bound (the absolute overhead is near-constant,
    # so a fast workload turns timer jitter into percentage swings);
    # 120x180 runs a few hundred milliseconds and keeps the bound
    # meaningful.
    overhead = measure_obs_overhead(
        lambda: idlz_stage_probe(cols=120, rows=180)
    )

    def workload():
        ideal = idlz_stage_probe()
        obs.health("obs.overhead",
                   HealthSnapshot(kind="overhead", values=overhead))
        return ideal

    ideal, run_report, path = observed_run(
        "idlz_stages", workload, cols=40, rows=60,
    )
    report("bench_idlz_stages", {
        "nodes": ideal.n_nodes,
        "elements": ideal.n_elements,
        "bandwidth": f"{ideal.bandwidth_before}->{ideal.bandwidth_after}",
        "stages": ", ".join(sorted(run_report.span_names())),
        "health": ", ".join(run_report.health_names()),
        "ledger_trace_pct": overhead["ledger_trace_pct"],
        "series_pct": overhead["series_pct"],
        "written": path,
    })

    # The solver path, same treatment: the densified example plate
    # through the full analyze pipeline, stamped as its own record so
    # the regression gate and the bench history see the FEM stages.
    run, analyze_report, analyze_path = observed_run(
        "analyze_stages", analyze_stage_probe, densify=4,
    )
    report("bench_analyze_stages", {
        "analysis": run.analysis,
        "nodes": run.mesh.n_nodes,
        "elements": run.mesh.n_elements,
        "max_displacement": run.result_summary["max_displacement"],
        "stages": ", ".join(sorted(analyze_report.span_names())),
        "health": ", ".join(analyze_report.health_names()),
        "written": analyze_path,
    })

    # The capacity claim: a million-node grid (25x beyond Table 2 in
    # each direction) through idealization and contour extraction, as
    # its own record so CI can gate the large-grid path.
    (large, contours), large_report, large_path = observed_run(
        "idlz_large", idlz_large_probe, cols=1000, rows=1000,
    )
    report("bench_idlz_large", {
        "nodes": large.n_nodes,
        "elements": large.n_elements,
        "swaps": large.swaps,
        "contour_levels": len(contours.levels),
        "contour_segments": contours.n_segments(),
        "stages": ", ".join(sorted(large_report.span_names())),
        "written": large_path,
    })


if __name__ == "__main__":
    main()
