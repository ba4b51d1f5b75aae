"""The "circular ring idealized with triangular subdivisions" of
Figure 11 -- the demonstration piece for IDLZ's optional plots.

Four triangular subdivisions (each a degenerate isosceles trapezoid, one
per compass direction, apexes meeting at the centre) tile a square whose
outer sides are then shaped into four quarter-circle arcs: a disc of
radius 5, meshed as four polar fans.  Adjacent triangles share their
slant sides node for node because their slopes match -- the same tiling
trick the DSSV idealizations use.

Lattice:

    s1  south  (1,1)-(9,5)  NTAPRW=-1   apex up at (5,5)
    s2  north  (1,5)-(9,9)  NTAPRW=+1   apex down at (5,5)
    s3  west   (1,1)-(5,9)  NTAPCM=-1   apex right at (5,5)
    s4  east   (5,1)-(9,9)  NTAPCM=+1   apex left at (5,5)
"""

from __future__ import annotations

import math

from repro.core.idlz.shaping import ShapingSegment
from repro.core.idlz.subdivision import Subdivision
from repro.fem.materials import AnalysisType, STEEL
from repro.structures.base import StructureCase, horizontal_path

#: Disc radius.
RADIUS = 5.0
#: Half-diagonal of the inscribed square: the arc endpoints.
H = RADIUS * math.sqrt(0.5)


def circular_ring() -> StructureCase:
    """Build the Figure-11 disc from four triangular subdivisions."""
    subdivisions = [
        Subdivision(index=1, kk1=1, ll1=1, kk2=9, ll2=5, ntaprw=-1),
        Subdivision(index=2, kk1=1, ll1=5, kk2=9, ll2=9, ntaprw=1),
        Subdivision(index=3, kk1=1, ll1=1, kk2=5, ll2=9, ntapcm=-1),
        Subdivision(index=4, kk1=5, ll1=1, kk2=9, ll2=9, ntapcm=1),
    ]
    segments = [
        # s1 south: quarter arc along the bottom, apex pinned at centre.
        ShapingSegment(1, 1, 1, 9, 1, -H, -H, H, -H, RADIUS),
        ShapingSegment(1, 5, 5, 5, 5, 0.0, 0.0, 0.0, 0.0),
        # s2 north: quarter arc traversed right-to-left so it runs CCW.
        ShapingSegment(2, 9, 9, 1, 9, H, H, -H, H, RADIUS),
        # s3 west: quarter arc down the left side.
        ShapingSegment(3, 1, 9, 1, 1, -H, H, -H, -H, RADIUS),
        # s4 east: quarter arc up the right side.
        ShapingSegment(4, 9, 1, 9, 9, H, -H, H, H, RADIUS),
    ]
    return StructureCase(
        name="circular_ring",
        title="CIRCULAR RING IDEALIZED WITH TRIANGULAR SUBDVNS",
        subdivisions=subdivisions,
        segments=segments,
        materials={1: STEEL, 2: STEEL, 3: STEEL, 4: STEEL},
        analysis_type=AnalysisType.PLANE_STRESS,
        paths={
            "south_rim": horizontal_path(1, 1, 9),
            "north_rim": horizontal_path(9, 1, 9),
        },
        notes=(
            "A disc of radius 5 meshed as four polar fans from four "
            "triangular subdivisions; the Figure-11 plot-product demo."
        ),
    )
