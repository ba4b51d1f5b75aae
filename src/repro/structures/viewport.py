"""The glass viewport juncture with metal ring of Figure 6.

Substitution note: modelled as an axisymmetric glass disc window seated,
through a bevelled glass rim, into a metal retaining ring -- a disc (r 0
to 3 in, 0.5 in thick), a column-trapezoid transition that grows the
axial node count from the disc's three to the ring's seven, and the steel
ring (r 3.5 to 4.5 in, 2.5 in tall).  The column trapezoid is exactly the
Figure-4/Figure-6 device: "to change quickly from many nodes on one side
of a subdivision to few nodes on the other side".

Lattice (k = radial, l = axial):

    s1  rect         (1,3)-(7,5)    glass disc
    s2  NTAPCM=+1    (7,1)-(9,7)    glass bevel rim (3 -> 7 nodes)
    s3  rect         (9,1)-(11,7)   steel ring
"""

from __future__ import annotations

from repro.core.idlz.shaping import ShapingSegment
from repro.core.idlz.subdivision import Subdivision
from repro.fem.materials import AnalysisType, GLASS, STEEL
from repro.structures.base import (
    StructureCase,
    horizontal_path,
    vertical_path,
)

#: Disc and ring geometry (inches).
R_DISC, R_SEAT, R_RING = 3.0, 3.5, 4.5
Z_DISC_BOT, Z_DISC_TOP = 1.0, 1.5
Z_SEAT_BOT, Z_SEAT_TOP = 0.25, 2.25
Z_RING_BOT, Z_RING_TOP = 0.0, 2.5


def viewport_juncture() -> StructureCase:
    """Build the viewport-juncture case (glass window + steel ring)."""
    subdivisions = [
        Subdivision(index=1, kk1=1, ll1=3, kk2=7, ll2=5),
        Subdivision(index=2, kk1=7, ll1=1, kk2=9, ll2=7, ntapcm=1),
        Subdivision(index=3, kk1=9, ll1=1, kk2=11, ll2=7),
    ]
    segments = [
        # s1 disc: bottom and top faces (axis to rim).
        ShapingSegment(1, 1, 3, 7, 3, 0.0, Z_DISC_BOT, R_DISC, Z_DISC_BOT),
        ShapingSegment(1, 1, 5, 7, 5, 0.0, Z_DISC_TOP, R_DISC, Z_DISC_TOP),
        # s2 bevel rim: left side is the disc rim (already located);
        # locate the seat line where the glass meets the ring.
        ShapingSegment(2, 9, 1, 9, 7, R_SEAT, Z_SEAT_BOT, R_SEAT, Z_SEAT_TOP),
        # s3 ring: left side is the seat; locate the ring outer wall.
        ShapingSegment(3, 11, 1, 11, 7, R_RING, Z_RING_BOT, R_RING,
                       Z_RING_TOP),
    ]
    return StructureCase(
        name="viewport_juncture",
        title="GLASS VIEWPORT JUNCTURE WITH METAL RING",
        subdivisions=subdivisions,
        segments=segments,
        materials={1: GLASS, 2: GLASS, 3: STEEL},
        analysis_type=AnalysisType.AXISYMMETRIC,
        paths={
            "axis": vertical_path(1, 3, 5),
            "window_top": horizontal_path(5, 1, 7),
            "window_bottom": horizontal_path(3, 1, 7),
            "ring_outer": vertical_path(11, 1, 7),
            "ring_bottom": horizontal_path(1, 9, 11),
        },
        notes=(
            "Glass disc window in a steel retaining ring; the bevel rim "
            "is a column trapezoid growing 3 axial nodes to 7."
        ),
    )
