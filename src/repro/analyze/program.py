"""The analyze main program: combined deck in, isograms + manifest out.

:func:`run_analyze` executes one analyze deck through the stage pipeline
of :mod:`repro.analyze.pipeline`; :func:`run_analyze_files` adds the
filesystem layer the CLI and the batch worker use -- isogram SVGs, a
listing, and an ``repro.analyze/v1`` manifest recording the analysis,
its result summary and the per-stage cache record.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro import obs
from repro._version import __version__
from repro.analyze.deck import AnalyzeDeck, read_analyze_deck
from repro.analyze.pipeline import analyze_problem_pipeline
from repro.cards.card import deck_fingerprint
from repro.cards.reader import CardReader
from repro.core.ospl.plot import ContourPlot
from repro.fem.mesh import Mesh
from repro.fem.results import NodalField
from repro.pipeline.cache import StageCache
from repro.pipeline.runner import StageRecord
from repro.plotter.svg import save_svg

log = logging.getLogger("repro.analyze")

#: Schema tag of the per-run manifest :func:`run_analyze_files` writes.
MANIFEST_SCHEMA = "repro.analyze/v1"


@dataclass
class AnalyzeRun:
    """Everything one analyze deck produced."""

    deck: AnalyzeDeck
    mesh: Mesh
    fields: Dict[str, NodalField]
    plots: Dict[str, ContourPlot]
    result_summary: Dict[str, Any]
    #: Per-stage execution record (cache hit/miss, wall time).
    stages: List[StageRecord] = field(default_factory=list)

    @property
    def title(self) -> str:
        return self.deck.title

    @property
    def analysis(self) -> str:
        return self.deck.spec.analysis

    def summary_dict(self) -> Dict[str, Any]:
        """A JSON-safe digest (embedded in batch and sweep manifests)."""
        return {
            "title": self.title,
            "analysis": self.analysis,
            "solver": self.deck.spec.solver,
            "nodes": self.mesh.n_nodes,
            "elements": self.mesh.n_elements,
            "fields": sorted(self.fields),
            **self.result_summary,
        }

    def stage_dicts(self) -> List[Dict[str, Any]]:
        """The stage records as JSON-safe dicts (for manifests)."""
        return [record.to_dict() for record in self.stages]

    def listing(self) -> str:
        """A printable run digest, the analysis program's line printer."""
        spec = self.deck.spec
        lines = [
            f"ANALYZE  {self.title}",
            f"  analysis  {self.analysis}",
            f"  solver    {spec.solver}",
            f"  mesh      {self.mesh.n_nodes} nodes, "
            f"{self.mesh.n_elements} elements",
        ]
        for key, value in sorted(self.result_summary.items()):
            lines.append(f"  {key:24s} {value}")
        for name, nodal in sorted(self.fields.items()):
            lo = float(min(nodal.values))
            hi = float(max(nodal.values))
            lines.append(f"  field {name:18s} [{lo:g}, {hi:g}]")
        return "\n".join(lines) + "\n"


def run_analyze(reader: CardReader,
                strict: bool = False,
                stage_cache: Optional[StageCache] = None) -> AnalyzeRun:
    """Execute the full analyze program on a card tray.

    ``strict`` enforces Tables 1 and 2: the first restriction the deck
    goes past raises :class:`~repro.errors.LimitError` naming its card.
    """
    deck = read_analyze_deck(reader)
    log.info("deck read: %r, %s analysis", deck.title, deck.spec.analysis)
    with obs.span("analyze.problem", title=deck.title,
                  analysis=deck.spec.analysis), deck.problem.cards_named():
        result = analyze_problem_pipeline().run({
            "subdivisions": deck.problem.subdivisions,
            "segments": deck.problem.segments,
            "strict": strict,
            "prefer_pairs": {},
            "reform": True,
            "renumber": bool(deck.problem.nonumb),
            "spec": deck.spec,
            "title": deck.title,
        }, cache=stage_cache)
        run = AnalyzeRun(
            deck=deck,
            mesh=result["mesh"],
            fields=result["fields"],
            plots=result["plots"],
            result_summary=result["result_summary"],
            stages=list(result.stages),
        )
        log.info(
            "%r solved: %d nodes, %d elements, field(s) %s",
            deck.title, run.mesh.n_nodes, run.mesh.n_elements,
            ", ".join(sorted(run.fields)),
        )
    return run


def run_analyze_files(deck_path: Union[str, Path],
                      out_dir: Union[str, Path],
                      strict: bool = False,
                      stage_cache: Optional[StageCache] = None
                      ) -> AnalyzeRun:
    """Run analyze on a deck file and write all products under ``out_dir``.

    Products: ``isogram_<field>.svg`` per plotted field,
    ``analyze.listing.txt``, and ``analyze_manifest.json`` in the
    ``repro.analyze/v1`` schema.
    """
    deck_path = Path(deck_path)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    text = deck_path.read_text()
    run = run_analyze(CardReader.from_text(text), strict=strict,
                      stage_cache=stage_cache)
    artifacts: List[str] = []
    for name, plot in sorted(run.plots.items()):
        out = out_dir / f"isogram_{name}.svg"
        save_svg(plot.frame, out)
        artifacts.append(out.name)
    listing = out_dir / "analyze.listing.txt"
    listing.write_text(run.listing())
    artifacts.append(listing.name)
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "meta": {
            "deck": str(deck_path),
            "fingerprint": deck_fingerprint(text, "analyze"),
            "code_version": __version__,
        },
        "analysis": run.analysis,
        "solver": run.deck.spec.solver,
        "summary": run.summary_dict(),
        "stages": run.stage_dicts(),
        "artifacts": artifacts,
    }
    manifest_path = out_dir / "analyze_manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2,
                                        sort_keys=True) + "\n")
    log.debug("products written under %s", out_dir)
    return run
