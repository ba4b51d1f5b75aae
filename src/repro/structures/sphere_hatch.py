"""The hemispherical hatch of a glass sphere (Figure 18).

Substitution note: modelled as a glass spherical-cap shell (mean radius
8 in, wall 0.5 in, spanning polar elevations 30 to 90 degrees -- a
60-degree meridian arc, inside the 90-degree rule) seated on a titanium
ring at the rim.  Figure 18 plots circumferential and effective stress
for this hatch under external pressure.

Lattice (k = through-thickness, l = along the meridian):

    s1  cap   (5,3)-(7,15)    glass, meridian arcs to the pole
    s2  seat  (5,1)-(7,3)     titanium ring below the rim
"""

from __future__ import annotations

import math
from typing import List

from repro.core.idlz.shaping import ShapingSegment
from repro.core.idlz.subdivision import Subdivision
from repro.fem.materials import AnalysisType, GLASS, TITANIUM
from repro.structures.base import (
    StructureCase,
    horizontal_path,
    vertical_path,
)

#: Sphere centre is the origin; wall radii.
R_SPH_IN, R_SPH_OUT = 7.75, 8.25
#: Rim elevation angle (degrees above the equator).
RIM_ELEV = 30.0
#: Seat ring bottom face.
SEAT_IN = (6.5, 3.0)
SEAT_OUT = (7.3, 3.3)


def _rim_point(radius: float) -> tuple:
    a = math.radians(RIM_ELEV)
    return (radius * math.cos(a), radius * math.sin(a))


def sphere_hatch() -> StructureCase:
    """Build the glass-sphere hatch case (axisymmetric)."""
    subdivisions = [
        Subdivision(index=1, kk1=5, ll1=3, kk2=7, ll2=15),
        Subdivision(index=2, kk1=5, ll1=1, kk2=7, ll2=3),
    ]
    rim_in = _rim_point(R_SPH_IN)
    rim_out = _rim_point(R_SPH_OUT)
    segments: List[ShapingSegment] = [
        # s1 cap: 60-degree meridian arcs, rim to pole.
        ShapingSegment(1, 5, 3, 5, 15,
                       rim_in[0], rim_in[1], 0.0, R_SPH_IN, R_SPH_IN),
        ShapingSegment(1, 7, 3, 7, 15,
                       rim_out[0], rim_out[1], 0.0, R_SPH_OUT, R_SPH_OUT),
        # s2 seat ring: the top row is the cap rim (located by s1);
        # locate the bottom face.
        ShapingSegment(2, 5, 1, 7, 1,
                       SEAT_IN[0], SEAT_IN[1], SEAT_OUT[0], SEAT_OUT[1]),
    ]
    return StructureCase(
        name="sphere_hatch",
        title="BUDT'S NEW HATCH 1/13/70 LERNER CODE 721",
        subdivisions=subdivisions,
        segments=segments,
        materials={1: GLASS, 2: TITANIUM},
        analysis_type=AnalysisType.AXISYMMETRIC,
        paths={
            "outer": vertical_path(7, 1, 3) + vertical_path(7, 4, 15),
            "inner": vertical_path(5, 1, 3) + vertical_path(5, 4, 15),
            "seat_bottom": horizontal_path(1, 5, 7),
            "pole": horizontal_path(15, 5, 7),
        },
        notes=(
            "Glass spherical-cap hatch (60-degree meridian) on a titanium "
            "seat ring; external-pressure service like the sphere it "
            "closes."
        ),
    )
