"""Program OSPL as pipeline stages.

The CONPLT flow of Appendix A, split into stages:

    deck -> intervals -> contour -> labels -> plot

``deck`` parses the Appendix-C card tray (standalone OSPL only; the
CALL CONPLT route seeds the mesh and field directly and starts at
``intervals``).  Fingerprints cover each stage's direct parameters:

    =========  =====================================================
    stage      direct parameters in its fingerprint
    =========  =====================================================
    intervals  field values, DELTA, lowest level, the strict flag,
               node/element counts (the Table-1 gate)
    contour    mesh geometry + topology, the zoom window
    labels     label character size
    plot       titles, field name, label styling (skipped entirely
               when the caller supplies a stateful plotter)
    =========  =====================================================

:func:`repro.core.ospl.plot.conplt` and
:func:`repro.core.ospl.program.run_ospl` are thin facades over
:func:`conplt_pipeline` and :func:`ospl_pipeline`.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

import numpy as np

from repro import limits, obs
from repro.core.ospl.boundary import boundary_pairs
from repro.core.ospl.contour import ContourSet
from repro.core.ospl.intervals import choose_interval, contour_levels
from repro.core.ospl.labels import place_labels
from repro.errors import ContourError
from repro.fem.mesh import Mesh
from repro.fem.results import NodalField
from repro.geometry.clip import clip_segments
from repro.pipeline.cache import stable_digest
from repro.pipeline.context import Context
from repro.pipeline.runner import Pipeline
from repro.pipeline.stage import stage
from repro.plotter.device import CoordinateMap, Plotter4020


# ----------------------------------------------------------------------
# Stages
# ----------------------------------------------------------------------

@stage("deck", requires=("reader",),
       provides=("problem", "mesh", "field", "window", "interval",
                 "title", "subtitle"),
       transparent=True)
def deck_stage(ctx: Context) -> Dict[str, Any]:
    """Parse one Appendix-C data set off the card tray."""
    from repro.core.ospl.deck import read_ospl_deck

    problem = read_ospl_deck(ctx["reader"])
    obs.count("ospl.nodes_read", problem.mesh.n_nodes)
    obs.count("ospl.elements_read", problem.mesh.n_elements)
    return {
        "problem": problem,
        "mesh": problem.mesh,
        "field": problem.field,
        "window": problem.window,
        # DELTA = 0 requests the automatic Appendix-D choice.
        "interval": None if problem.delta == 0.0 else problem.delta,
        "title": problem.title1,
        "subtitle": problem.title2,
    }


@stage("intervals", requires=("mesh", "field", "interval", "lowest",
                              "strict"),
       provides=("interval_value", "levels"),
       fingerprint=lambda ctx: stable_digest(
           ctx["field"].values, ctx["interval"], ctx["lowest"],
           ctx["strict"], ctx["mesh"].n_nodes, ctx["mesh"].n_elements),
       span_attrs=lambda ctx: {"automatic": ctx["interval"] in (None, 0.0)})
def intervals_stage(ctx: Context) -> Dict[str, Any]:
    """Choose the contour interval and the level set (Appendix D)."""
    mesh: Mesh = ctx["mesh"]
    field: NodalField = ctx["field"]
    limits.check(limits.count_excesses("ospl", mesh.n_nodes,
                                       mesh.n_elements), ctx["strict"])
    if field.n_nodes != mesh.n_nodes:
        raise ContourError(
            f"field has {field.n_nodes} values for a mesh of "
            f"{mesh.n_nodes} nodes"
        )
    if obs.health_enabled():
        from repro.obs.health import field_health

        # Published before interval choice so a degenerate field (zero
        # range, NaNs) leaves its diagnosis behind even when
        # choose_interval then refuses to contour it.
        obs.health("ospl.field", field_health(field.values, name=field.name))
    interval = ctx["interval"]
    if interval is None or interval == 0.0:
        interval = choose_interval(field.min(), field.max())
    levels = contour_levels(field.min(), field.max(), interval,
                            lowest=ctx["lowest"])
    return {"interval_value": float(interval), "levels": levels}


@stage("contour", requires=("mesh", "field", "interval_value", "levels",
                            "window"),
       provides=("contours",),
       fingerprint=lambda ctx: stable_digest(
           ctx["mesh"].nodes, ctx["mesh"].elements, ctx["window"]),
       span_attrs=lambda ctx: {"elements": ctx["mesh"].n_elements,
                               "levels": len(ctx["levels"])})
def contour_stage(ctx: Context) -> Dict[str, Any]:
    """Extract the isogram segments, element by element."""
    contours = ContourSet(ctx["mesh"], ctx["field"],
                          ctx["interval_value"], ctx["levels"],
                          window=ctx["window"])
    obs.count("ospl.contour_segments", contours.n_segments())
    if obs.enabled():
        for level in contours.levels:
            obs.observe("ospl.segments_per_level",
                        len(contours.segments_by_level[level]))
    return {"contours": contours}


@stage("labels", requires=("contours", "mesh", "window", "label_size"),
       provides=("labels", "cmap", "boundary"),
       fingerprint=lambda ctx: stable_digest(ctx["label_size"]),
       span_attrs=lambda ctx: {"size": ctx["label_size"]})
def labels_stage(ctx: Context) -> Dict[str, Any]:
    """Place the boundary-intersection labels of the isograms.

    Also hands the plot stage the boundary edges it strokes, so one run
    builds the mesh's edge table once.
    """
    window = ctx["window"]
    mesh: Mesh = ctx["mesh"]
    world = window if window is not None else mesh.bounding_box()
    if world.width == 0.0 and world.height == 0.0:
        raise ContourError("plot window has zero extent")
    cmap = CoordinateMap(world, margin=90)
    boundary = boundary_pairs(mesh)
    labels = place_labels(ctx["contours"], cmap, size=ctx["label_size"],
                          boundary=boundary)
    obs.count("ospl.labels_placed", len(labels))
    return {"labels": labels, "cmap": cmap, "boundary": boundary}


def _plot_fingerprint(ctx: Context) -> Any:
    if ctx["plotter"] is not None:
        # A caller-supplied plotter is stateful (frame counters, camera
        # advance); a cached frame would desynchronise it.
        return None
    return stable_digest(ctx["title"], ctx["subtitle"],
                         ctx["field"].name, ctx["label_size"],
                         ctx["stroke_labels"])


@stage("plot", requires=("contours", "labels", "cmap", "boundary", "mesh",
                         "window", "field", "title", "subtitle", "plotter",
                         "label_size", "stroke_labels"),
       provides=("frame",),
       fingerprint=_plot_fingerprint,
       span_attrs=lambda ctx: {"segments": ctx["contours"].n_segments(),
                               "labels": len(ctx["labels"])})
def plot_stage(ctx: Context) -> Dict[str, Any]:
    """Draw boundary, isograms, labels and captions on a 4020 frame."""
    mesh: Mesh = ctx["mesh"]
    window = ctx["window"]
    cmap: CoordinateMap = ctx["cmap"]
    contours: ContourSet = ctx["contours"]
    title: str = ctx["title"]
    field: NodalField = ctx["field"]
    label_size: int = ctx["label_size"]
    plotter = ctx["plotter"] or Plotter4020()
    frame = plotter.advance(title or field.name)
    # Boundary outline first (clipped to the zoom window when present),
    # then the isograms (clipped when they were extracted).
    a, b = ctx["boundary"]
    outline = np.hstack((mesh.nodes[a], mesh.nodes[b])).T
    if window is not None:
        keep, *ends = clip_segments(*outline, window)
        outline = np.stack(ends)[:, keep]
    for strokes in (outline, contours.all_points().reshape(-1, 4).T):
        x0, y0 = cmap.to_raster(strokes[0], strokes[1])
        x1, y1 = cmap.to_raster(strokes[2], strokes[3])
        plotter.vectors(x0, y0, x1, y1)
    # Labels.
    write = plotter.stroke_text if ctx["stroke_labels"] else plotter.text
    for lab in ctx["labels"]:
        rx, ry = cmap.to_raster(lab.x, lab.y)
        write(rx + 3, ry + 3, lab.text, size=label_size)
    # Captions, in the style of Figures 13-18.
    if title:
        write(90, 40, title.upper(), size=12)
    caption = ctx["subtitle"] or f"CONTOUR PLOT * {field.name.upper()}"
    write(90, 20, caption, size=12)
    write(700, 40, f"CONTOUR INTERVAL IS {contours.interval:G}", size=10)
    return {"frame": frame}


# ----------------------------------------------------------------------
# Pipeline builders
# ----------------------------------------------------------------------

#: Seed keys of the CALL CONPLT route (mesh and field in memory).
CONPLT_INPUTS: Tuple[str, ...] = (
    "mesh", "field", "interval", "lowest", "window", "strict",
    "title", "subtitle", "plotter", "label_size", "stroke_labels",
)

_COMPUTE_STAGES = (intervals_stage, contour_stage, labels_stage,
                   plot_stage)


def contour_pipeline() -> Pipeline:
    """intervals -> contour: the isograms alone, no labels or plot."""
    return Pipeline("ospl", [intervals_stage, contour_stage],
                    inputs=("mesh", "field", "interval", "lowest", "window",
                            "strict"))


def conplt_pipeline() -> Pipeline:
    """intervals -> contour -> labels -> plot over an in-memory field."""
    return Pipeline("ospl", list(_COMPUTE_STAGES), inputs=CONPLT_INPUTS)


def ospl_pipeline() -> Pipeline:
    """The standalone program: the deck stage feeding the CONPLT flow."""
    seeds = tuple(k for k in CONPLT_INPUTS if k not in (
        "mesh", "field", "interval", "window", "title", "subtitle",
    ))
    return Pipeline("ospl", [deck_stage, *_COMPUTE_STAGES],
                    inputs=("reader",) + seeds)
