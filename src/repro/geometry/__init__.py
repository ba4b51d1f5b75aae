"""Two-dimensional geometry substrate shared by IDLZ, OSPL and the plotter.

The 1970 programs carried this logic inline in FORTRAN routines (CURVE,
XYDIST, XYFIND, ANGMIN, ...); here it is factored into a small reusable
package:

* :mod:`repro.geometry.primitives` -- points, segments, boxes
* :mod:`repro.geometry.arc`        -- circular arcs with the paper's <= 90
  degree rule and counter-clockwise end-1 -> end-2 convention
* :mod:`repro.geometry.polygon`    -- areas, orientation, triangle quality
* :mod:`repro.geometry.interpolate`-- proportional placement of points along
  lines and arcs (the heart of IDLZ "shaping")
* :mod:`repro.geometry.clip`       -- window clipping (OSPL zoom plots)
"""

from repro.geometry.primitives import (
    Point,
    Segment,
    BoundingBox,
    distance,
    midpoint,
    lerp_point,
)
from repro.geometry.arc import Arc, arc_through
from repro.geometry.polygon import (
    signed_area,
    triangle_area,
    triangle_angles,
    triangle_min_angle,
    is_ccw,
    point_in_triangle,
    polygon_centroid,
)
from repro.geometry.interpolate import (
    chord_fractions,
    place_along_segment,
    place_along_arc,
    place_along_path,
)
from repro.geometry.clip import clip_segment, clip_segments, OutCode

__all__ = [
    "Point",
    "Segment",
    "BoundingBox",
    "distance",
    "midpoint",
    "lerp_point",
    "Arc",
    "arc_through",
    "signed_area",
    "triangle_area",
    "triangle_angles",
    "triangle_min_angle",
    "is_ccw",
    "point_in_triangle",
    "polygon_centroid",
    "chord_fractions",
    "place_along_segment",
    "place_along_arc",
    "place_along_path",
    "clip_segment",
    "clip_segments",
    "OutCode",
]
