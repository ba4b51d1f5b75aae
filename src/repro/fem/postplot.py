"""Deformed-shape plots: the other classic post-processor picture.

Alongside OSPL's isograms, 1970 analysts overlaid the deformed mesh on
the undeformed outline (exaggerated, since real displacements are
invisible at plot scale).  :func:`plot_deformed` draws both on one
SC-4020 frame: the undeformed boundary as context and the deformed
element edges as the result, with the magnification printed in the
caption.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import MeshError
from repro.fem.mesh import Mesh
from repro.geometry.primitives import BoundingBox
from repro.plotter.device import CoordinateMap, Frame, Plotter4020


def deformed_nodes(mesh: Mesh, displacements: np.ndarray,
                   scale: float) -> np.ndarray:
    """Node coordinates displaced by ``scale`` times the solution."""
    disp = np.asarray(displacements, dtype=float)
    if disp.shape != (2 * mesh.n_nodes,):
        raise MeshError(
            f"displacement vector must have length {2 * mesh.n_nodes}"
        )
    moved = mesh.nodes.copy()
    moved[:, 0] += scale * disp[0::2]
    moved[:, 1] += scale * disp[1::2]
    return moved


def auto_scale(mesh: Mesh, displacements: np.ndarray,
               target_fraction: float = 0.05) -> float:
    """Magnification making the peak displacement ``target_fraction`` of
    the model's largest dimension -- the rule of thumb of the era."""
    disp = np.asarray(displacements, dtype=float)
    u = disp[0::2]
    v = disp[1::2]
    peak = float(np.sqrt(u * u + v * v).max())
    if peak == 0.0:
        return 1.0
    box = mesh.bounding_box()
    extent = max(box.width, box.height)
    return target_fraction * extent / peak


def plot_deformed(mesh: Mesh, displacements: np.ndarray,
                  scale: Optional[float] = None,
                  title: str = "",
                  plotter: Optional[Plotter4020] = None) -> Frame:
    """One frame: undeformed outline + deformed element edges.

    ``scale`` of ``None`` engages :func:`auto_scale`.  Returns the frame;
    the chosen magnification is stamped in the caption
    ("DEFORMATIONS MAGNIFIED 250X").
    """
    if scale is None:
        scale = auto_scale(mesh, displacements)
    moved = deformed_nodes(mesh, displacements, scale)
    # A window covering both configurations, so nothing clips away.
    all_pts = np.vstack([mesh.nodes, moved])
    world = BoundingBox(
        float(all_pts[:, 0].min()), float(all_pts[:, 1].min()),
        float(all_pts[:, 0].max()), float(all_pts[:, 1].max()),
    )
    plotter = plotter or Plotter4020()
    frame = plotter.advance(title or "DEFORMED SHAPE")
    cmap = CoordinateMap(world, margin=90)

    # Undeformed boundary outline for context, then the deformed mesh,
    # every unique edge.
    table = mesh.edge_table()
    lone = table.count == 1
    for pts, a, b in ((mesh.nodes, table.a[lone], table.b[lone]),
                      (moved, table.lo, table.hi)):
        x0, y0 = cmap.to_raster(pts[a, 0], pts[a, 1])
        x1, y1 = cmap.to_raster(pts[b, 0], pts[b, 1])
        plotter.vectors(x0, y0, x1, y1)
    if title:
        plotter.text(90, 40, title.upper(), size=12)
    plotter.text(90, 20, f"DEFORMATIONS MAGNIFIED {scale:.0f}X", size=10)
    return frame
