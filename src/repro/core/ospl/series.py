"""Increment series: one OSPL frame per load/time increment.

The figure captions read "CONTOUR PLOT * EFFECTIVE STRESS * INCREMENT
NUMBER 1" (Figure 13) and "... INCREMENT NUMBER 100" (Figure 18): the
analyses of Reference 1 marched load increments and called CONPLT after
each, building a film.  :func:`plot_increments` reproduces that loop for
any sequence of fields -- successive load steps, or the snapshots of a
transient conduction run.

A shared contour interval across the series (the default) keeps frames
comparable, as a film of increments must be; pass ``shared_interval =
False`` to let each frame choose its own.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.ospl.intervals import choose_interval
from repro.core.ospl.plot import ContourPlot, conplt
from repro.errors import ContourError
from repro.fem.mesh import Mesh
from repro.fem.results import NodalField
from repro.geometry.primitives import BoundingBox
from repro.plotter.device import Plotter4020


def plot_increments(mesh: Mesh, fields: Sequence[NodalField],
                    title: str = "",
                    quantity: str = "",
                    first_increment: int = 1,
                    shared_interval: bool = True,
                    interval: Optional[float] = None,
                    window: Optional[BoundingBox] = None,
                    strict: bool = False,
                    stroke_labels: bool = False) -> List[ContourPlot]:
    """One contour plot per field, captioned with its increment number.

    ``quantity`` names the plotted measure in the caption (defaults to
    the first field's name).  With ``shared_interval`` the Appendix-D
    interval is chosen once from the pooled range of every increment.
    """
    if not fields:
        raise ContourError("increment series needs at least one field")
    quantity = quantity or fields[0].name
    if shared_interval and interval is None:
        lo = min(f.min() for f in fields)
        hi = max(f.max() for f in fields)
        interval = choose_interval(lo, hi)
    plotter = Plotter4020()
    plots: List[ContourPlot] = []
    for i, field in enumerate(fields, start=first_increment):
        caption = (f"CONTOUR PLOT * {quantity.upper()} * "
                   f"INCREMENT NUMBER {i}")
        plots.append(conplt(
            mesh, field, title=title, subtitle=caption,
            interval=interval, window=window, strict=strict,
            plotter=plotter, stroke_labels=stroke_labels,
        ))
    plotter.drop_empty_frames()
    return plots
