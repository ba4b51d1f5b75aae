"""The OSPL main program: deck in, contour frame out.

The original shipped both as a standalone main (read the Appendix-C deck,
plot) and as CALL CONPLT linked into the analysis.  The standalone path
lives here; the linked path is :func:`repro.core.ospl.plot.conplt`.
Both execute the deck -> intervals -> contour -> labels -> plot stages
of :mod:`repro.pipeline.ospl`; pass ``stage_cache`` to reuse stages
whose inputs are unchanged (see docs/PIPELINE.md).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.cards.reader import CardReader
from repro.core.ospl.deck import OsplProblem
from repro.core.ospl.plot import ContourPlot
from repro.errors import LimitError, PlotterError
from repro.pipeline.cache import StageCache
from repro.pipeline.ospl import ospl_pipeline
from repro.pipeline.runner import StageRecord

log = logging.getLogger("repro.ospl")


@dataclass
class OsplRun:
    """The problem and its plot."""

    problem: OsplProblem
    plot: ContourPlot
    #: Per-stage execution record (cache hit/miss, wall time).
    stages: List[StageRecord] = field(default_factory=list)

    @property
    def title(self) -> str:
        return self.problem.title1

    def summary_dict(self) -> dict:
        """A JSON-safe digest of the plot (embedded in batch manifests)."""
        return {
            "title": self.title,
            "nodes": self.problem.mesh.n_nodes,
            "elements": self.problem.mesh.n_elements,
            "interval": float(self.plot.interval),
            "levels": len(self.plot.levels),
            "segments": self.plot.n_segments(),
            "labels": len(self.plot.labels),
        }

    def stage_dicts(self) -> List[Dict[str, object]]:
        """The stage records as JSON-safe dicts (for manifests)."""
        return [record.to_dict() for record in self.stages]


def run_ospl(reader: CardReader,
             strict: bool = False,
             stage_cache: Optional[StageCache] = None) -> OsplRun:
    """Execute the standalone OSPL program on a card tray.

    ``strict`` enforces Table 1: a deck past it raises
    :class:`~repro.errors.LimitError` naming its type-1 card.
    """
    type1_card = reader.position + 1
    try:
        result = ospl_pipeline().run({
            "reader": reader,
            "strict": strict,
            "lowest": None,
            "plotter": None,
            "label_size": 9,
            "stroke_labels": False,
        }, cache=stage_cache)
    except LimitError as exc:
        raise exc.at_card(type1_card) from None
    problem = result["problem"]
    log.info("deck read: %r, %d nodes, %d elements", problem.title1,
             problem.mesh.n_nodes, problem.mesh.n_elements)
    plot = ContourPlot(contours=result["contours"],
                       labels=result["labels"],
                       frame=result["frame"])
    log.info("plot built: interval %g, %d levels, %d segments",
             plot.interval, len(plot.levels), plot.n_segments())
    return OsplRun(problem=problem, plot=plot, stages=list(result.stages))


#: Output writers :func:`run_ospl_files` picks from the file extension.
_WRITERS = {".svg": "svg", ".png": "png", ".txt": "text"}


def run_ospl_files(deck_path: Union[str, Path],
                   out_path: Union[str, Path],
                   strict: bool = False,
                   stage_cache: Optional[StageCache] = None) -> OsplRun:
    """Run OSPL on a deck file and write the frame to ``out_path``.

    The writer is picked from the extension (case-insensitively):
    ``.svg`` (vector), ``.png`` (raster), ``.txt`` (character-cell
    preview).  No extension writes SVG, the historical default; any
    other extension raises :class:`PlotterError` rather than silently
    producing an SVG under a misleading name.
    """
    deck_path = Path(deck_path)
    out_path = Path(out_path)
    suffix = out_path.suffix
    if suffix and suffix.lower() not in _WRITERS:
        known = ", ".join(sorted(_WRITERS))
        raise PlotterError(
            f"unknown output extension {suffix!r} for {out_path.name}; "
            f"use one of {known}, or no extension for SVG"
        )
    reader = CardReader.from_text(deck_path.read_text())
    run = run_ospl(reader, strict=strict, stage_cache=stage_cache)
    backend = _WRITERS.get(suffix.lower(), "svg")
    if backend == "png":
        from repro.plotter.png import save_png

        save_png(run.plot.frame, out_path)
    elif backend == "text":
        from repro.plotter.ascii_art import render_ascii

        out_path.write_text(render_ascii(run.plot.frame))
    else:
        from repro.plotter.svg import save_svg

        save_svg(run.plot.frame, out_path)
    log.debug("frame written to %s (%s backend)", out_path, backend)
    return run
