"""The T-beam of Figure 14: temperature distribution under a thermal
radiation pulse.

"In Figure 14, the isograms represent constant temperatures in one-half
of a Tee-frame which were determined with the analysis of Reference 3";
the captions date the snapshots at two and three seconds after a radiant
pulse on the outer flange face.

We model the symmetric half of a steel Tee: half-flange 3 in wide and
0.5 in thick, web 3 in tall and 0.5 in (half-) thick, with the symmetry
plane at x = 0.  The pulse plays on the flange's outer (top) face.

Lattice (k = x, l = y):

    s1  web     (1,1)-(3,7)     x 0 - 0.5,  y 0 - 3
    s2  flange  (1,7)-(13,9)    x 0 - 3,    y 3 - 3.5
"""

from __future__ import annotations

from repro.core.idlz.shaping import ShapingSegment
from repro.core.idlz.subdivision import Subdivision
from repro.fem.materials import AnalysisType, STEEL, STEEL_THERMAL
from repro.structures.base import (
    StructureCase,
    horizontal_path,
    vertical_path,
)

#: Section dimensions (inches): half-flange width, flange thickness,
#: web height, web half-thickness.
FLANGE_W, FLANGE_T = 3.0, 0.5
WEB_H, WEB_T = 3.0, 0.5


def tbeam_thermal() -> StructureCase:
    """Build the half-Tee case (plane section, steel)."""
    subdivisions = [
        Subdivision(index=1, kk1=1, ll1=1, kk2=3, ll2=7),
        Subdivision(index=2, kk1=1, ll1=7, kk2=13, ll2=9),
    ]
    segments = [
        # s1 web: foot and the web/flange junction line.
        ShapingSegment(1, 1, 1, 3, 1, 0.0, 0.0, WEB_T, 0.0),
        ShapingSegment(1, 1, 7, 3, 7, 0.0, WEB_H, WEB_T, WEB_H),
        # s2 flange: the junction row continues outboard of the web, and
        # the outer face (which receives the pulse).
        ShapingSegment(2, 3, 7, 13, 7, WEB_T, WEB_H, FLANGE_W, WEB_H),
        ShapingSegment(2, 1, 9, 13, 9, 0.0, WEB_H + FLANGE_T,
                       FLANGE_W, WEB_H + FLANGE_T),
    ]
    return StructureCase(
        name="tbeam",
        title="TEMPERATURE DISTRIBUTION IN T-BEAM EXPOSED TO A "
              "THERMAL RADIATION PULSE",
        subdivisions=subdivisions,
        segments=segments,
        # Structural material for completeness; the thermal benchmark
        # uses `thermal_materials` below.
        materials={1: STEEL, 2: STEEL},
        analysis_type=AnalysisType.PLANE_STRESS,
        paths={
            "flange_top": horizontal_path(9, 1, 13),
            "flange_underside": horizontal_path(7, 3, 13),
            "web_foot": horizontal_path(1, 1, 3),
            "symmetry": vertical_path(1, 1, 7) + vertical_path(1, 8, 9),
        },
        notes=(
            "Half Tee-frame; the radiant pulse plays on flange_top, the "
            "symmetry plane is adiabatic, the web foot is held at the "
            "initial temperature."
        ),
    )


def thermal_materials(case: StructureCase) -> dict:
    """Per-group thermal materials for the Reference-3 analysis."""
    return {gi: STEEL_THERMAL for gi in range(len(case.subdivisions))}
