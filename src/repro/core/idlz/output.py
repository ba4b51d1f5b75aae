"""IDLZ output: plots, the printed listing, and punched cards.

The NOPLOT option produced three plot products on the SC-4020 (Figure 11):
the initial representation, the final idealization, and one frame per
subdivision with the node numbers labelled.  NOPNCH punched nodal and
element cards in the user's type-7 FORMATs.  All three are reproduced
here; numbers on cards and plots are 1-based, as FORTRAN's were.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cards.fortran_format import FortranFormat
from repro.cards.writer import CardWriter
from repro.core.idlz.deck import DEFAULT_ELEMENT_FORMAT, DEFAULT_NODAL_FORMAT
from repro.core.idlz.pipeline import Idealization
from repro.core.idlz.subdivision import Subdivision
from repro.fem.mesh import Mesh
from repro.plotter.device import CoordinateMap, Frame, Plotter4020


# ----------------------------------------------------------------------
# Plots
# ----------------------------------------------------------------------

def plot_mesh(mesh: Mesh, title: str = "",
              plotter: Optional[Plotter4020] = None,
              labels: Optional[Dict[int, str]] = None,
              margin: int = 80) -> Frame:
    """Draw every element edge (deduplicated) on a 4020 frame."""
    plotter = plotter or Plotter4020()
    frame = plotter.advance(title)
    cmap = CoordinateMap(mesh.bounding_box().expanded(1e-9), margin=margin)
    table = mesh.edge_table()
    x0, y0 = cmap.to_raster(mesh.nodes[table.lo, 0], mesh.nodes[table.lo, 1])
    x1, y1 = cmap.to_raster(mesh.nodes[table.hi, 0], mesh.nodes[table.hi, 1])
    plotter.vectors(x0, y0, x1, y1)
    if title:
        plotter.text(margin, 20, title, size=14)
    if labels:
        for node, text in labels.items():
            x, y = cmap.to_raster(*mesh.nodes[node])
            plotter.text(x + 4, y + 4, text, size=9)
    return frame


def plot_idealization(ideal: Idealization,
                      plotter: Optional[Plotter4020] = None) -> List[Frame]:
    """The before/after pair: initial representation + final idealization."""
    plotter = plotter or Plotter4020()
    before = plot_mesh(ideal.lattice_mesh,
                       title=f"{ideal.title} - INITIAL REPRESENTATION",
                       plotter=plotter)
    after = plot_mesh(ideal.mesh,
                      title=f"{ideal.title} - FINAL IDEALIZATION",
                      plotter=plotter)
    return [before, after]


def plot_subdivision(ideal: Idealization, sub: Subdivision,
                     plotter: Optional[Plotter4020] = None) -> Frame:
    """One subdivision after shaping with its node numbers labelled."""
    node_ids = sorted({
        ideal.node_at(k, l) for (k, l) in sub.lattice_points()
    })
    labels = {n: str(n + 1) for n in node_ids}
    # Build a sub-mesh holding only this subdivision's elements.
    group = ideal.group_of_subdivision(sub.index)
    mask = ideal.mesh.element_groups == group
    sub_elements = ideal.mesh.elements[mask]
    sub_mesh = Mesh(nodes=ideal.mesh.nodes.copy(), elements=sub_elements)
    return plot_mesh(
        sub_mesh,
        title=f"{ideal.title} - SUBDIVISION {sub.index}",
        plotter=plotter,
        labels=labels,
    )


def plot_all(ideal: Idealization) -> List[Frame]:
    """Every optional plot IDLZ offered (NOPLOT = 1)."""
    plotter = Plotter4020()
    frames = plot_idealization(ideal, plotter=plotter)
    for sub in ideal.subdivisions:
        frames.append(plot_subdivision(ideal, sub, plotter=plotter))
    plotter.drop_empty_frames()
    return frames


# ----------------------------------------------------------------------
# Printed listing
# ----------------------------------------------------------------------

def print_listing(ideal: Idealization) -> str:
    """The line-printer listing: counts, nodal table, element table."""
    lines: List[str] = []
    lines.append(f"1{ideal.title.upper():^72s}")
    lines.append("")
    lines.append(" STRUCTURAL IDEALIZATION BY PROGRAM IDLZ")
    lines.append(f"   NUMBER OF SUBDIVISIONS {len(ideal.subdivisions):5d}")
    lines.append(f"   NUMBER OF NODES        {ideal.n_nodes:5d}")
    lines.append(f"   NUMBER OF ELEMENTS     {ideal.n_elements:5d}")
    lines.append(f"   DIAGONAL SWAPS         {ideal.swaps:5d}")
    if ideal.renumbered:
        lines.append(
            f"   BANDWIDTH REDUCED FROM {ideal.bandwidth_before:4d} "
            f"TO {ideal.bandwidth_after:4d}"
        )
    else:
        lines.append(f"   BANDWIDTH              {ideal.bandwidth_after:5d}")
    quality = ideal.quality()
    lines.append(
        f"   MIN ELEMENT ANGLE      {quality.min_angle_deg:8.2f} DEG"
    )
    lines.append(
        f"   MEAN SHAPE QUALITY     {quality.mean_shape:8.3f}"
    )
    lines.append("")
    lines.append(" SBDVN  KIND             KK1  LL1  KK2  LL2  NTAPRW NTAPCM")
    for sub in ideal.subdivisions:
        lines.append(
            f"{sub.index:5d}  {sub.kind:16s} {sub.kk1:4d} {sub.ll1:4d} "
            f"{sub.kk2:4d} {sub.ll2:4d}  {sub.ntaprw:6d} {sub.ntapcm:6d}"
        )
    lines.append("")
    lines.append(" NODE        X            Y      BDY")
    mesh = ideal.mesh  # each table: one %-template over 1-based columns
    lines.extend("%5d  %12.5f %12.5f  %3d" % row for row in zip(
        range(1, ideal.n_nodes + 1), mesh.nodes[:, 0].tolist(),
        mesh.nodes[:, 1].tolist(), mesh.flags().tolist()))
    lines.append("")
    lines.append(" ELEM   NODE1 NODE2 NODE3  GROUP")
    lines.extend("%5d  %5d %5d %5d  %5d" % row for row in zip(
        range(1, ideal.n_elements + 1), *(mesh.elements + 1).T.tolist(),
        (mesh.element_groups + 1).tolist()))
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Punched cards
# ----------------------------------------------------------------------

def punch_cards(ideal: Idealization,
                nodal_format: str = DEFAULT_NODAL_FORMAT,
                element_format: str = DEFAULT_ELEMENT_FORMAT) -> CardWriter:
    """Punch the nodal and element decks in the type-7 FORMATs.

    Nodal cards carry (X, Y, boundary flag, node number); element cards
    carry (node1, node2, node3, element number), all 1-based.
    """
    writer = CardWriter()
    nodal = FortranFormat(nodal_format)
    element = FortranFormat(element_format)
    flags = ideal.mesh.flags()
    for n in range(ideal.n_nodes):
        x, y = ideal.mesh.nodes[n]
        writer.punch(nodal, [float(x), float(y), int(flags[n]), n + 1])
    for e in range(ideal.n_elements):
        i, j, k = (int(v) + 1 for v in ideal.mesh.elements[e])
        writer.punch(element, [i, j, k, e + 1])
    return writer
