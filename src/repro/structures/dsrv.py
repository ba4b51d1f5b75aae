"""The DSRV hatch of Figure 9 -- the showcase complex shape.

The paper reports that this idealization "contains 100 boundary nodes,
needed coordinates of only 24 nodes and the radii of eleven circular arcs
in order to have its boundary completely established".

Substitution note: the Deep Submergence Rescue Vehicle hatch drawing is
not public; we model an axisymmetric mushroom hatch -- a spherical crown
dome, a barrelled cylindrical skirt and a bolting flange with filleted
corners and an O-ring groove -- with the same boundary economy: every run
of boundary nodes is located by a straight line or a circular arc, and
**eleven** circular arcs are used in total:

    3  corner fillets on the flange,
    1  O-ring groove in the flange bottom face,
    1  barrel on the skirt outer wall,
    3  thirty-degree pieces of the crown inner surface,
    3  thirty-degree pieces of the crown outer surface.

Lattice (k, l) -- the dome meridian runs along l (sized so the final
boundary carries ~100 nodes, the Figure-9 scale):

    s1  flange   (3,1)-(17,5)     r 3 - 6.5,  z 0 - 2
    s2  skirt    (15,5)-(17,17)   r 6 - 6.5,  z 2 - 10
    s3  dome     (15,17)-(17,35)  meridian arcs to the pole
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

#: Dome centre (on the axis) and surface radii.
DOME_C = (0.0, 10.0)
R_DOME_IN, R_DOME_OUT = 6.0, 6.5
#: Flange extents.
R_FLANGE_IN, R_SKIRT_IN, R_SKIRT_OUT = 3.0, 6.0, 6.5
Z_FLANGE_BOT, Z_FLANGE_TOP = 0.0, 2.0
#: Fillet radius at the flange corners (1.02 slack keeps the quarter
#: fillet safely under the 90-degree arc rule).
FILLET = 0.35
FILLET_R = FILLET * 1.02
#: O-ring groove: chord 0.5 in, radius sized for an ~88-degree arc.
GROOVE_A, GROOVE_B, GROOVE_R = 4.3, 4.8, 0.36
#: Skirt barrel radius (slight outward bow of the outer wall).
BARREL_R = 9.0


def _arc_point(radius: float, angle_deg: float) -> tuple:
    """A point on a dome surface at the given polar angle from equator."""
    a = math.radians(angle_deg)
    return (radius * math.cos(a), DOME_C[1] + radius * math.sin(a))


def _dome_arcs(sub: int, k: int, radius: float) -> List[ShapingSegment]:
    """Three 30-degree meridian arcs up column ``k`` (l = 17 to 35)."""
    stops = [(17, 0.0), (23, 30.0), (29, 60.0), (35, 90.0)]
    out: List[ShapingSegment] = []
    for (l0, a0), (l1, a1) in zip(stops[:-1], stops[1:]):
        p0 = _arc_point(radius, a0)
        p1 = _arc_point(radius, a1)
        out.append(ShapingSegment(sub, k, l0, k, l1,
                                  p0[0], p0[1], p1[0], p1[1], radius))
    return out


def dsrv_hatch() -> StructureCase:
    """Build the DSRV hatch case (axisymmetric, steel)."""
    subdivisions = [
        Subdivision(index=1, kk1=3, ll1=1, kk2=17, ll2=5),
        Subdivision(index=2, kk1=15, ll1=5, kk2=17, ll2=17),
        Subdivision(index=3, kk1=15, ll1=17, kk2=17, ll2=35),
    ]
    segments: List[ShapingSegment] = [
        # --- s1 flange bottom face, left to right ------------------------
        # inboard corner fillet (CCW: down the left face onto the bottom)
        ShapingSegment(1, 3, 1, 4, 1,
                       R_FLANGE_IN, FILLET,
                       R_FLANGE_IN + FILLET, Z_FLANGE_BOT, FILLET_R),
        ShapingSegment(1, 4, 1, 8, 1,
                       R_FLANGE_IN + FILLET, Z_FLANGE_BOT,
                       GROOVE_A, Z_FLANGE_BOT),
        # O-ring groove: CCW with the centre below, so the arc cuts up
        # into the material -- hence traversed right-to-left.
        ShapingSegment(1, 10, 1, 8, 1,
                       GROOVE_B, Z_FLANGE_BOT,
                       GROOVE_A, Z_FLANGE_BOT, GROOVE_R),
        ShapingSegment(1, 10, 1, 16, 1,
                       GROOVE_B, Z_FLANGE_BOT,
                       R_SKIRT_OUT - FILLET, Z_FLANGE_BOT),
        # outboard corner fillet
        ShapingSegment(1, 16, 1, 17, 1,
                       R_SKIRT_OUT - FILLET, Z_FLANGE_BOT,
                       R_SKIRT_OUT, FILLET, FILLET_R),
        # --- s1 flange top face ------------------------------------------
        # inboard corner fillet (CCW runs top-to-corner, so right-to-left)
        ShapingSegment(1, 4, 5, 3, 5,
                       R_FLANGE_IN + FILLET, Z_FLANGE_TOP,
                       R_FLANGE_IN, Z_FLANGE_TOP - FILLET, FILLET_R),
        ShapingSegment(1, 4, 5, 15, 5,
                       R_FLANGE_IN + FILLET, Z_FLANGE_TOP,
                       R_SKIRT_IN, Z_FLANGE_TOP),
        ShapingSegment(1, 15, 5, 17, 5,
                       R_SKIRT_IN, Z_FLANGE_TOP,
                       R_SKIRT_OUT, Z_FLANGE_TOP),
        # --- s2 skirt: straight inner wall, barrelled outer wall ---------
        ShapingSegment(2, 15, 5, 15, 17,
                       R_SKIRT_IN, Z_FLANGE_TOP, R_DOME_IN, DOME_C[1]),
        ShapingSegment(2, 17, 5, 17, 17,
                       R_SKIRT_OUT, Z_FLANGE_TOP, R_DOME_OUT, DOME_C[1],
                       BARREL_R),
    ]
    # --- s3 dome: three 30-degree arcs per surface ------------------------
    segments += _dome_arcs(3, 15, R_DOME_IN)
    segments += _dome_arcs(3, 17, R_DOME_OUT)
    return StructureCase(
        name="dsrv_hatch",
        title="IDEALIZATION OF DSRV HATCH",
        subdivisions=subdivisions,
        segments=segments,
        materials={1: STEEL, 2: STEEL, 3: STEEL},
        analysis_type=AnalysisType.AXISYMMETRIC,
        prefer_pairs={2: "vertical"},
        paths={
            "flange_bottom": horizontal_path(1, 3, 17),
            "flange_inboard": vertical_path(3, 1, 5),
            "skirt_outer": vertical_path(17, 5, 17),
            "dome_outer": vertical_path(17, 17, 35),
            "dome_inner": vertical_path(15, 17, 35),
            "pole": horizontal_path(35, 15, 17),
        },
        notes=(
            "Axisymmetric mushroom hatch with eleven boundary arcs: three "
            "flange fillets, an O-ring groove, a skirt barrel and six "
            "30-degree dome pieces."
        ),
    )


def dsrv_boundary_economy(case: StructureCase) -> dict:
    """The Figure-9 bookkeeping: located coordinates and arc count."""
    coords = set()
    arcs = 0
    for seg in case.segments:
        coords.add((round(seg.x1, 9), round(seg.y1, 9)))
        coords.add((round(seg.x2, 9), round(seg.y2, 9)))
        if seg.radius != 0.0:
            arcs += 1
    return {"located_coordinates": len(coords), "arcs": arcs,
            "segments": len(case.segments)}
