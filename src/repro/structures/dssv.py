"""The DSSV viewport (Figure 7) and viewport + transition ring (Figure 8).

Substitution note: the Deep Submergence Search Vehicle viewport was a
conical glass frustum seated in hull penetration hardware.  We model the
axisymmetric cross-section as an isosceles row trapezoid (the window,
narrow face inboard) flanked by genuine *triangular subdivisions* -- the
paper's own device for these two figures ("Several such subdivisions were
used in the idealizations shown in Figures 7 and 8").  The triangles tile
against the window's slant sides exactly, node for node, because adjacent
subdivisions with equal slant slopes share lattice diagonals.

Lattice (k = radial-ish, l = through-thickness):

    s1  NTAPRW=+1  (1,1)-(13,6)    glass window (3-node face -> 13)
    s2  NTAPRW=-1  (8,1)-(18,6)    seat ring, triangle (apex at top)
    s3  NTAPRW=+1  (13,1)-(23,6)   transition ring, triangle (apex at
                                    bottom) -- Figure 8 only
"""

from __future__ import annotations

from typing import List

from repro.core.idlz.shaping import ShapingSegment
from repro.core.idlz.subdivision import Subdivision
from repro.fem.materials import AnalysisType, GLASS, STEEL, TITANIUM
from repro.structures.base import StructureCase, horizontal_path

#: Window faces: inner (small, pressure side) and outer.
X_IN_A, X_IN_B = 0.9, 1.5          # inner face, z = 0
X_OUT_A, X_OUT_B = 0.0, 2.4        # outer face, z = 1.2
Z_IN, Z_OUT = 0.0, 1.2
#: Seat ring toe (outboard end of its base) and transition ring rim.
SEAT_TOE = (4.0, 0.3)
RING_RIM = (5.0, 1.8)


def _window_and_seat() -> List[Subdivision]:
    return [
        Subdivision(index=1, kk1=1, ll1=1, kk2=13, ll2=6, ntaprw=1),
        Subdivision(index=2, kk1=8, ll1=1, kk2=18, ll2=6, ntaprw=-1),
    ]


def _base_segments() -> List[ShapingSegment]:
    return [
        # s1 window: narrow inner face and wide outer face.
        ShapingSegment(1, 6, 1, 8, 1, X_IN_A, Z_IN, X_IN_B, Z_IN),
        ShapingSegment(1, 1, 6, 13, 6, X_OUT_A, Z_OUT, X_OUT_B, Z_OUT),
        # s2 seat triangle: base along the hull penetration; its apex
        # (13, 6) is the window's outer corner, already located by s1.
        ShapingSegment(2, 8, 1, 18, 1, X_IN_B, Z_IN, SEAT_TOE[0],
                       SEAT_TOE[1]),
    ]


def dssv_viewport() -> StructureCase:
    """Figure 7: the conical window plus its seat triangle."""
    return StructureCase(
        name="dssv_viewport",
        title="DSSV VIEWPORT",
        subdivisions=_window_and_seat(),
        segments=_base_segments(),
        materials={1: GLASS, 2: STEEL},
        analysis_type=AnalysisType.AXISYMMETRIC,
        paths={
            "inner_face": horizontal_path(1, 6, 8),
            "outer_face": horizontal_path(6, 1, 13),
            "seat_base": horizontal_path(1, 8, 18),
        },
        notes=(
            "Conical glass frustum window: a +1 row trapezoid whose "
            "3-node inner face widens to 13 nodes; the steel seat is a "
            "triangular subdivision sharing the window's slant side."
        ),
    )


def dssv_with_transition_ring() -> StructureCase:
    """Figure 8: Figure 7 plus the titanium transition ring triangle."""
    subdivisions = _window_and_seat() + [
        Subdivision(index=3, kk1=13, ll1=1, kk2=23, ll2=6, ntaprw=1),
    ]
    segments = _base_segments() + [
        # s3 transition triangle: apex (18, 1) is the seat toe, located
        # by s2's base segment; locate the outer rim run.
        ShapingSegment(3, 13, 6, 23, 6, X_OUT_B, Z_OUT, RING_RIM[0],
                       RING_RIM[1]),
    ]
    case = dssv_viewport()
    return StructureCase(
        name="dssv_transition_ring",
        title="DSSV VIEWPORT AND TRANSITION RING",
        subdivisions=subdivisions,
        segments=segments,
        materials={1: GLASS, 2: STEEL, 3: TITANIUM},
        analysis_type=AnalysisType.AXISYMMETRIC,
        paths=dict(case.paths, rim=horizontal_path(6, 13, 23)),
        notes=case.notes + " A titanium transition-ring triangle "
              "(apex down) completes Figure 8.",
    )
