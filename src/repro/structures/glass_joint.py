"""The internally reinforced glass joint of Figures 1 and 17.

Substitution note: the report shows only the idealization picture of this
classified joint.  We model an axisymmetric glass cylinder (inner radius
9 in, outer radius 10 in) whose mid-length joint is reinforced by an
internal metal ring occupying the inner half of the wall over the joint
band -- the same topology: a fine-meshed two-material juncture reached
through trapezoidal transitions from coarse end regions, exactly the use
of trapezoids the paper's Figure 1 narrative describes ("the critical
area of the structure requiring many elements is near the joint").

Lattice layout (k = radial, l = axial):

      l=19  +-------+          s6  glass, coarse     z 4.0 - 6.4
      l=14  +-------+          s5  trapezoid -1      z 3.6 - 4.0
      l=12  +---+---+          s3 metal | s4 glass   z 2.8 - 3.6
      l=6   +---+---+          (fine joint band)
      l=4   +-------+          s2  trapezoid +1      z 2.4 - 2.8
      l=1   +-------+          s1  glass, coarse     z 0.0 - 2.4
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

#: Wall radii (inches).
R_IN, R_MID, R_OUT = 9.0, 9.5, 10.0
#: Axial stations of the subdivision interfaces.
Z0, Z1, Z2, Z3, Z4, Z5 = 0.0, 2.4, 2.8, 3.6, 4.0, 6.4


def glass_joint() -> StructureCase:
    """Build the glass-joint case (axisymmetric, glass + steel ring)."""
    subdivisions = [
        Subdivision(index=1, kk1=3, ll1=1, kk2=7, ll2=4),
        Subdivision(index=2, kk1=1, ll1=4, kk2=9, ll2=6, ntaprw=1),
        Subdivision(index=3, kk1=1, ll1=6, kk2=5, ll2=12),
        Subdivision(index=4, kk1=5, ll1=6, kk2=9, ll2=12),
        Subdivision(index=5, kk1=1, ll1=12, kk2=9, ll2=14, ntaprw=-1),
        Subdivision(index=6, kk1=3, ll1=14, kk2=7, ll2=19),
    ]
    segments = [
        # s1: bottom face and the coarse/fine interface below the joint.
        ShapingSegment(1, 3, 1, 7, 1, R_IN, Z0, R_OUT, Z0),
        ShapingSegment(1, 3, 4, 7, 4, R_IN, Z1, R_OUT, Z1),
        # s2: its bottom is s1's top; locate the widened top row.
        ShapingSegment(2, 1, 6, 9, 6, R_IN, Z2, R_OUT, Z2),
        # s3/s4: joint band tops (the bottoms come from s2).
        ShapingSegment(3, 1, 12, 5, 12, R_IN, Z3, R_MID, Z3),
        ShapingSegment(4, 5, 12, 9, 12, R_MID, Z3, R_OUT, Z3),
        # s5: narrowing transition above the joint.
        ShapingSegment(5, 3, 14, 7, 14, R_IN, Z4, R_OUT, Z4),
        # s6: coarse region to the far end.
        ShapingSegment(6, 3, 19, 7, 19, R_IN, Z5, R_OUT, Z5),
    ]
    # Boundary walks for loading: the outer surface follows the right
    # flank of the assemblage, including the trapezoid slants.
    outer = (
        vertical_path(7, 1, 4)
        + [(8, 5), (9, 6)]
        + vertical_path(9, 7, 12)
        + [(8, 13), (7, 14)]
        + vertical_path(7, 15, 19)
    )
    inner = (
        vertical_path(3, 1, 4)
        + [(2, 5), (1, 6)]
        + vertical_path(1, 7, 12)
        + [(2, 13), (3, 14)]
        + vertical_path(3, 15, 19)
    )
    return StructureCase(
        name="glass_joint",
        title="INTERNALLY REINFORCED GLASS JOINT",
        subdivisions=subdivisions,
        segments=segments,
        materials={1: GLASS, 2: GLASS, 3: STEEL, 4: GLASS,
                   5: GLASS, 6: GLASS},
        analysis_type=AnalysisType.AXISYMMETRIC,
        paths={
            "outer": outer,
            "inner": inner,
            "bottom": horizontal_path(1, 3, 7),
            "top": horizontal_path(19, 3, 7),
        },
        notes=(
            "Glass pressure-hull joint, 1 in wall, internally reinforced "
            "by a steel ring over the joint band; trapezoidal transitions "
            "double the radial node count through the critical region."
        ),
    )
