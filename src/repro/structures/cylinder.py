"""The GRP cylinders with titanium end closures of Figures 15 and 16.

Substitution note: the report's "redesign of Oct 1969" drawings are not
public.  We model an axisymmetric glass-reinforced-plastic (orthotropic)
cylinder, inner radius 10 in, wall 0.5 in, length 12 in, closed by a
titanium hemispherical head (mean radius 10.25 in) whose meridian is a
single 90-degree arc -- the largest arc the IDLZ rules allow, and exactly
the "full hemisphere" the Figure-15 title mentions.  The stiffened
variant adds two inward GRP ring stiffeners; the unstiffened variant
(Figure 16) omits them.

Lattice (k = radial, l = axial/meridian):

    s1  wall     (5,1)-(7,13)     r 10 - 10.5, z 0 - 12
    s2  closure  (5,13)-(7,23)    meridian arcs to the pole
    s3, s4  ring stiffeners (1,4)-(5,5), (1,9)-(5,10)  [stiffened only]
"""

from __future__ import annotations

from typing import List

from repro.core.idlz.shaping import ShapingSegment
from repro.core.idlz.subdivision import Subdivision
from repro.fem.materials import AnalysisType, GRP_ORTHOTROPIC, TITANIUM
from repro.structures.base import (
    StructureCase,
    horizontal_path,
    vertical_path,
)

#: Cylinder geometry (inches).
R_IN, R_OUT = 10.0, 10.5
LENGTH = 12.0
#: Hemisphere centre sits on the axis at the cylinder's end plane.
HEMI_C_Z = LENGTH
#: Ring stiffener: depth 0.8 in, width one lattice bay.
R_STIFF = 9.2
STIFF_BAYS = ((4, 3.0, 4.0), (9, 8.0, 9.0))  # (l0, z0, z1)


def _wall_and_closure() -> List[Subdivision]:
    return [
        Subdivision(index=1, kk1=5, ll1=1, kk2=7, ll2=13),
        Subdivision(index=2, kk1=5, ll1=13, kk2=7, ll2=23),
    ]


def _base_segments() -> List[ShapingSegment]:
    return [
        # s1 wall: inner and outer surfaces, z = 0 to the closure plane.
        ShapingSegment(1, 5, 1, 5, 13, R_IN, 0.0, R_IN, LENGTH),
        ShapingSegment(1, 7, 1, 7, 13, R_OUT, 0.0, R_OUT, LENGTH),
        # s2 closure: 90-degree meridian arcs from the equator to the pole.
        ShapingSegment(2, 5, 13, 5, 23,
                       R_IN, HEMI_C_Z, 0.0, HEMI_C_Z + R_IN, R_IN),
        ShapingSegment(2, 7, 13, 7, 23,
                       R_OUT, HEMI_C_Z, 0.0, HEMI_C_Z + R_OUT, R_OUT),
    ]


def _common_paths() -> dict:
    return {
        "outer": vertical_path(7, 1, 13) + vertical_path(7, 14, 23),
        "inner": vertical_path(5, 1, 13) + vertical_path(5, 14, 23),
        "base": horizontal_path(1, 5, 7),
        "pole": horizontal_path(23, 5, 7),
    }


def unstiffened_cylinder() -> StructureCase:
    """Figure 16: the plain GRP cylinder and titanium closure."""
    return StructureCase(
        name="unstiffened_cylinder",
        title="11 69 RE-DESIGN FOR UNSTIFF CYL",
        subdivisions=_wall_and_closure(),
        segments=_base_segments(),
        materials={1: GRP_ORTHOTROPIC, 2: TITANIUM},
        analysis_type=AnalysisType.AXISYMMETRIC,
        paths=_common_paths(),
        notes=(
            "Orthotropic GRP cylinder (10 in inner radius, 0.5 in wall) "
            "with a titanium hemispherical closure; the closure meridian "
            "is one 90-degree arc per surface."
        ),
    )


def stiffened_cylinder() -> StructureCase:
    """Figure 15: the GRP cylinder with two inward ring stiffeners."""
    subdivisions = _wall_and_closure()
    segments = _base_segments()
    materials = {1: GRP_ORTHOTROPIC, 2: TITANIUM}
    paths = _common_paths()
    for idx, (l0, z0, z1) in enumerate(STIFF_BAYS, start=3):
        subdivisions.append(
            Subdivision(index=idx, kk1=1, ll1=l0, kk2=5, ll2=l0 + 1)
        )
        # The stiffener's right side is the wall (already located once
        # the wall is shaped); locate its inboard face.
        segments.append(ShapingSegment(
            idx, 1, l0, 1, l0 + 1, R_STIFF, z0, R_STIFF, z1,
        ))
        materials[idx] = GRP_ORTHOTROPIC
        paths[f"stiffener_{idx}"] = vertical_path(1, l0, l0 + 1)
    return StructureCase(
        name="stiffened_cylinder",
        title="REDESIGN STIFFENED OF OCT 1969 WITH FULL HEMISPHERE",
        subdivisions=subdivisions,
        segments=segments,
        materials=materials,
        analysis_type=AnalysisType.AXISYMMETRIC,
        paths=paths,
        notes=(
            "As the unstiffened cylinder, plus two inward GRP ring "
            "stiffeners (0.8 in deep, one lattice bay wide)."
        ),
    )
