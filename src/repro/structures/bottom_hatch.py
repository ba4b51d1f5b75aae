"""The DSSV bottom hatch of Figure 13 ("MODIFIED FOR CONTACT. SECOND
IDEALIZATION").

Substitution note: the real drawing is not public.  A *bottom* hatch is
a shallow dished closure in the vehicle's lower hull: we model an
axisymmetric torispherical-style head -- a shallow spherical crown
(radius 16 in, ~18-degree meridian) 0.5 in thick, landing on a heavy
seat ring at radius 5 in whose flared base carries the contact face the
caption's "modified for contact" refers to.  External pressure acts on
the crown's outer (lower-hull) face.

Lattice (k = through-thickness, l = along the meridian):

    s1  crown  (3,5)-(5,17)   shallow arcs to the pole
    s2  seat   (3,1)-(5,5)    ring below the rim, flared base
"""

from __future__ import annotations

import math
from typing import List

from repro.core.idlz.shaping import ShapingSegment
from repro.core.idlz.subdivision import Subdivision
from repro.fem.materials import AnalysisType, STEEL
from repro.structures.base import (
    StructureCase,
    horizontal_path,
    vertical_path,
)

#: Crown spherical radius and rim radius.
R_CROWN, R_RIM = 16.0, 5.0
#: Wall thickness (measured vertically on this shallow head).
THICK = 0.5
#: Pole heights of the inner and outer surfaces.
Z_POLE_IN = 1.2
Z_POLE_OUT = Z_POLE_IN + THICK
#: Rim heights follow from the crown sphere.
_SAG = R_CROWN - math.sqrt(R_CROWN ** 2 - R_RIM ** 2)
Z_RIM_IN = Z_POLE_IN - _SAG
Z_RIM_OUT = Z_RIM_IN + THICK
#: Seat ring base (the contact face).
SEAT_IN = (4.8, -0.8)
SEAT_OUT = (6.2, -0.5)


def bottom_hatch() -> StructureCase:
    """Build the DSSV bottom-hatch case (axisymmetric, steel)."""
    subdivisions = [
        Subdivision(index=1, kk1=3, ll1=5, kk2=5, ll2=17),
        Subdivision(index=2, kk1=3, ll1=1, kk2=5, ll2=5),
    ]
    segments: List[ShapingSegment] = [
        # s1 crown: shallow meridian arcs, rim to pole (CCW with the
        # sphere centre down on the axis, sweep ~18 degrees).
        ShapingSegment(1, 3, 5, 3, 17,
                       R_RIM, Z_RIM_IN, 0.0, Z_POLE_IN, R_CROWN),
        ShapingSegment(1, 5, 5, 5, 17,
                       R_RIM, Z_RIM_OUT, 0.0, Z_POLE_OUT, R_CROWN),
        # s2 seat ring: the top row is the crown rim (located by s1);
        # locate the flared contact face.
        ShapingSegment(2, 3, 1, 5, 1,
                       SEAT_IN[0], SEAT_IN[1], SEAT_OUT[0], SEAT_OUT[1]),
    ]
    return StructureCase(
        name="bottom_hatch",
        title="DSSV BOTTOM HATCH MODIFIED FOR CONTACT",
        subdivisions=subdivisions,
        segments=segments,
        materials={1: STEEL, 2: STEEL},
        analysis_type=AnalysisType.AXISYMMETRIC,
        paths={
            # The pressure (lower-hull) side is the crown outer surface.
            "outer": vertical_path(5, 1, 5) + vertical_path(5, 6, 17),
            "inner": vertical_path(3, 1, 5) + vertical_path(3, 6, 17),
            "seat_base": horizontal_path(1, 3, 5),
            "pole": horizontal_path(17, 3, 5),
        },
        notes=(
            "Shallow dished bottom closure: 16-in-radius crown, 0.5 in "
            "thick, on a heavy contact seat ring at the 5-in rim."
        ),
    )
