"""The OSPL driver: field in, SC-4020 contour frame out.

This is the CONPLT entry point of Appendix A -- the routine an analysis
program calls with its nodal values.  It strings together interval choice,
isogram extraction, boundary tracing and label placement, and draws the
lot on the plotter with the familiar caption line

    CONTOUR PLOT * EFFECTIVE STRESS * INCREMENT NUMBER  1
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.ospl.contour import ContourSet
from repro.core.ospl.labels import Label
from repro.fem.mesh import Mesh
from repro.fem.results import NodalField
from repro.geometry.primitives import BoundingBox
from repro.plotter.device import Frame, Plotter4020


@dataclass
class ContourPlot:
    """The assembled plot: contours, boundary, labels, and the frame."""

    contours: ContourSet
    labels: List[Label]
    frame: Frame

    @property
    def interval(self) -> float:
        return self.contours.interval

    @property
    def levels(self) -> List[float]:
        return self.contours.levels

    def n_segments(self) -> int:
        return self.contours.n_segments()


def conplt(mesh: Mesh, field: NodalField,
           title: str = "", subtitle: str = "",
           interval: Optional[float] = None,
           lowest: Optional[float] = None,
           window: Optional[BoundingBox] = None,
           strict: bool = False,
           plotter: Optional[Plotter4020] = None,
           label_size: int = 9,
           stroke_labels: bool = False) -> ContourPlot:
    """Produce one OSPL contour plot.

    Parameters mirror the type-1 card: ``interval`` of ``None``/0 engages
    the automatic Appendix-D choice, ``window`` is the XMN/XMX/YMN/YMN
    zoom, ``strict`` enforces Table 1 (a
    :class:`~repro.errors.LimitError` past it).  ``stroke_labels``
    draws every annotation through the SC-4020 character generator so
    the frame is pure vector strokes, as the film was.

    Delegates to the intervals -> contour -> labels -> plot stages of
    :mod:`repro.pipeline.ospl`; use
    :func:`repro.pipeline.ospl.conplt_pipeline` directly for the stage
    records or stage-granular caching.
    """
    from repro.pipeline.ospl import conplt_pipeline

    result = conplt_pipeline().run({
        "mesh": mesh,
        "field": field,
        "interval": interval,
        "lowest": lowest,
        "window": window,
        "strict": strict,
        "title": title,
        "subtitle": subtitle,
        "plotter": plotter,
        "label_size": label_size,
        "stroke_labels": stroke_labels,
    })
    return ContourPlot(contours=result["contours"],
                       labels=result["labels"],
                       frame=result["frame"])
