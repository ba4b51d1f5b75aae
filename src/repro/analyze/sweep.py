"""Scenario sweeps: one analyze deck, a grid of what-ifs.

The paper's economics argument is that cheap input makes *families* of
analyses affordable -- vary the load, the material, the mesh density and
re-run.  :class:`SweepGrid` declares those axes; :func:`run_sweep`
expands a base analyze deck into one scenario deck per grid point and
runs them all through the batch engine, so every scenario gets the full
fleet treatment: per-scenario ``repro.analyze/v1`` manifests, the
``repro.batch/v1`` roll-up, ledger events (``sample`` gauges under
``--series``) and the shared stage cache (scenarios differing only in
load reuse each other's idealization and stiffness stages).

Grid axes:

* ``load_scales`` -- multiply every PRESSURE / FORCE / FLUX magnitude;
* ``youngs`` -- override Young's modulus on every MAT card;
* ``densify`` -- integer mesh-density multipliers: factor ``d`` splits
  every lattice interval into ``d``, mapping index ``i`` to
  ``1 + d * (i - 1)`` on both subdivision corners and shaping segment
  endpoints (the real-space geometry is unchanged -- only the mesh gets
  finer, exactly the Table-2 "points can be added" workflow).
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro._version import __version__
from repro.analyze.deck import (
    AnalyzeDeck,
    read_analyze_deck,
    write_analyze_deck,
)
from repro.batch.jobs import JobSpec
from repro.batch.manifest import BatchManifest
from repro.batch.runner import BatchOptions, run_batch
from repro.cards.reader import CardReader
from repro.errors import AnalyzeError

#: Schema tag of the sweep manifest :func:`run_sweep` writes.
SWEEP_SCHEMA = "repro.analyze-sweep/v1"


@dataclass(frozen=True)
class SweepGrid:
    """The parameter grid one sweep expands (axes multiply)."""

    load_scales: Tuple[float, ...] = (1.0,)
    youngs: Tuple[float, ...] = ()
    densify: Tuple[int, ...] = (1,)

    def __post_init__(self) -> None:
        if not self.load_scales or not self.densify:
            raise AnalyzeError(
                "sweep grid axes cannot be empty; omit an axis to keep "
                "the deck's value"
            )
        for d in self.densify:
            if d < 1:
                raise AnalyzeError(
                    f"densify factors must be >= 1, got {d}"
                )

    def scenarios(self) -> List[Dict[str, Any]]:
        """Every grid point as an override dict (deterministic order)."""
        points: List[Dict[str, Any]] = []
        for scale in self.load_scales:
            for youngs in self.youngs or (None,):
                for densify in self.densify:
                    points.append({
                        "load_scale": scale,
                        "youngs": youngs,
                        "densify": densify,
                    })
        return points

    def to_dict(self) -> Dict[str, Any]:
        return {
            "load_scales": list(self.load_scales),
            "youngs": list(self.youngs),
            "densify": list(self.densify),
        }


def scenario_id(stem: str, overrides: Dict[str, Any]) -> str:
    """A stable job id naming only the axes that deviate from the deck."""
    parts = [stem]
    if overrides["load_scale"] != 1.0:
        parts.append(f"loads{overrides['load_scale']:g}")
    if overrides["youngs"] is not None:
        parts.append(f"E{overrides['youngs']:g}")
    if overrides["densify"] != 1:
        parts.append(f"d{overrides['densify']}")
    return "__".join(parts)


def apply_overrides(deck: AnalyzeDeck,
                    overrides: Dict[str, Any]) -> AnalyzeDeck:
    """A new deck with one grid point's overrides applied."""
    spec = deck.spec
    problem = deck.problem
    scale = overrides["load_scale"]
    if scale != 1.0:
        spec = dataclasses.replace(spec, loads=tuple(
            dataclasses.replace(
                load, values=tuple(v * scale for v in load.values)
            )
            for load in spec.loads
        ))
    youngs = overrides["youngs"]
    if youngs is not None:
        spec = dataclasses.replace(spec, materials=tuple(
            dataclasses.replace(mat, youngs=youngs)
            for mat in spec.materials
        ))
    densify = overrides["densify"]
    if densify != 1:
        problem = _densified(problem, densify)
    return AnalyzeDeck(problem=problem, spec=spec)


def _remap(index: int, factor: int) -> int:
    """Lattice index under densification: 1 + factor * (index - 1)."""
    return 1 + factor * (index - 1)


def _densified(problem: Any, factor: int) -> Any:
    subdivisions = [
        dataclasses.replace(
            sub,
            kk1=_remap(sub.kk1, factor), ll1=_remap(sub.ll1, factor),
            kk2=_remap(sub.kk2, factor), ll2=_remap(sub.ll2, factor),
        )
        for sub in problem.subdivisions
    ]
    segments = [
        dataclasses.replace(
            seg,
            k1=_remap(seg.k1, factor), l1=_remap(seg.l1, factor),
            k2=_remap(seg.k2, factor), l2=_remap(seg.l2, factor),
        )
        for seg in problem.segments
    ]
    return dataclasses.replace(problem, subdivisions=subdivisions,
                               segments=segments)


def run_sweep(deck_path: Union[str, Path],
              grid: SweepGrid,
              out_root: Union[str, Path],
              options: Optional[BatchOptions] = None
              ) -> Tuple[Dict[str, Any], BatchManifest]:
    """Expand the grid over a base deck and run the batch.

    Writes scenario decks under ``<out_root>/decks/``, per-scenario
    products (isograms, ``analyze_manifest.json``) under
    ``<out_root>/jobs/<scenario>/``, the batch manifest as
    ``batch_manifest.json`` and the sweep index as
    ``sweep_manifest.json``.  Returns ``(sweep manifest, batch
    manifest)``.
    """
    deck_path = Path(deck_path)
    out_root = Path(out_root)
    opts = options if options is not None else BatchOptions()
    base = read_analyze_deck(CardReader.from_text(deck_path.read_text()))
    deck_dir = out_root / "decks"
    deck_dir.mkdir(parents=True, exist_ok=True)
    stem = deck_path.name.split(".")[0]
    scenarios: List[Dict[str, Any]] = []
    specs: List[JobSpec] = []
    for overrides in grid.scenarios():
        sid = scenario_id(stem, overrides)
        scenario_deck = apply_overrides(base, overrides)
        scenario_path = deck_dir / f"{sid}.analyze.deck"
        scenario_path.write_text(write_analyze_deck(scenario_deck)
                                 .to_text())
        out_dir = out_root / "jobs" / sid
        specs.append(JobSpec(
            job_id=sid,
            deck=str(scenario_path.resolve()),
            program="analyze",
            out_dir=str(out_dir),
            strict=opts.strict,
            timeout_s=opts.timeout_s,
        ))
        scenarios.append({
            "id": sid,
            "deck": str(scenario_path),
            "overrides": overrides,
            "out_dir": str(out_dir),
            "manifest": str(out_dir / "analyze_manifest.json"),
        })
    batch = run_batch(specs, options=opts, out_root=out_root)
    batch.save(out_root / "batch_manifest.json")
    sweep = {
        "schema": SWEEP_SCHEMA,
        "meta": {
            "created_unix": time.time(),
            "code_version": __version__,
            "deck": str(deck_path),
            "title": base.title,
            "analysis": base.spec.analysis,
        },
        "grid": grid.to_dict(),
        "scenarios": scenarios,
        "batch_manifest": str(out_root / "batch_manifest.json"),
        "summary": batch.summary,
    }
    (out_root / "sweep_manifest.json").write_text(
        json.dumps(sweep, indent=2, sort_keys=True) + "\n"
    )
    return sweep, batch
