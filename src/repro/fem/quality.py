"""Mesh quality measures: one batched triangle kernel and its reductions.

IDLZ's reformation pass optimises the minimum angle (the ANGMIN test);
analysts also cared about element *aspect ratio* ("very small elements
in a critical area" still need reasonable shape for the CST to behave).
Every quality consumer -- ``Mesh.min_angle``, the reform sweep, the
listing's quality lines and the health snapshots -- reduces the one
kernel below, evaluated over whole ``(E, 3)`` connectivities at once:

* ``min_angle`` -- smallest interior angle (radians), law of cosines;
* ``aspect``    -- longest side / (2 * inradius * sqrt(3)); 1 for
  equilateral, growing without bound for needles;
* ``shape``     -- 4 sqrt(3) A / (l1^2 + l2^2 + l3^2), normalised to 1
  for equilateral and 0 for degenerate (the classical FEM quality
  index);
* ``MeshQuality`` -- per-mesh aggregate printed in the IDLZ listing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, NamedTuple, Tuple

import numpy as np

from repro.errors import GeometryError, MeshError

if TYPE_CHECKING:
    from repro.fem.mesh import Mesh


class TriangleMeasures(NamedTuple):
    """Per-row triangle measures from :func:`triangle_measures`."""

    min_angle: np.ndarray
    aspect: np.ndarray
    shape: np.ndarray
    #: Some side has zero length (min angle undefined; NaN there).
    coincident: np.ndarray
    #: Zero area, coincident rows included (aspect undefined; inf/NaN).
    flat: np.ndarray


def _sides(pa: np.ndarray, pb: np.ndarray, pc: np.ndarray
           ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Side lengths opposite a, b and c."""
    la = np.hypot(pc[:, 0] - pb[:, 0], pc[:, 1] - pb[:, 1])
    lb = np.hypot(pa[:, 0] - pc[:, 0], pa[:, 1] - pc[:, 1])
    lc = np.hypot(pb[:, 0] - pa[:, 0], pb[:, 1] - pa[:, 1])
    return la, lb, lc


def _min_angles(la: np.ndarray, lb: np.ndarray, lc: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray]:
    """Smallest angle from the sides, and the zero-side mask.

    Mirrors :func:`repro.geometry.polygon.triangle_angles`: two
    law-of-cosines angles clamped into [-1, 1], the third by angle sum
    clamped at zero.
    """
    coincident = (la == 0.0) | (lb == 0.0) | (lc == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = np.arccos(np.clip(
            (lb * lb + lc * lc - la * la) / (2.0 * lb * lc), -1.0, 1.0))
        beta = np.arccos(np.clip(
            (lc * lc + la * la - lb * lb) / (2.0 * lc * la), -1.0, 1.0))
    gamma = np.maximum(math.pi - alpha - beta, 0.0)
    return np.minimum(np.minimum(alpha, beta), gamma), coincident


def triangle_min_angles(pa: np.ndarray, pb: np.ndarray, pc: np.ndarray
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """Smallest interior angle (radians) of every row (a, b, c).

    ``pa``, ``pb`` and ``pc`` are ``(N, 2)`` corner arrays.  Returns
    ``(min_angle, coincident)``; a row with a coincident vertex pair
    has no angle (NaN there).
    """
    return _min_angles(*_sides(pa, pb, pc))


def triangle_measures(pa: np.ndarray, pb: np.ndarray, pc: np.ndarray
                      ) -> TriangleMeasures:
    """Min angle, aspect, shape and degenerate masks of every row."""
    la, lb, lc = _sides(pa, pb, pc)
    min_angle, coincident = _min_angles(la, lb, lc)
    area = 0.5 * np.abs(
        (pb[:, 0] - pa[:, 0]) * (pc[:, 1] - pa[:, 1])
        - (pc[:, 0] - pa[:, 0]) * (pb[:, 1] - pa[:, 1])
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        inradius = area / (0.5 * (la + lb + lc))
        aspect = (np.maximum(np.maximum(la, lb), lc)
                  / (2.0 * math.sqrt(3.0) * inradius))
        shape = (4.0 * math.sqrt(3.0) * area
                 / (la * la + lb * lb + lc * lc))
    return TriangleMeasures(min_angle, aspect, shape, coincident,
                            area == 0.0)


@dataclass
class MeshQuality:
    """Aggregate quality of a mesh."""

    min_angle_deg: float
    mean_min_angle_deg: float
    worst_aspect: float
    mean_aspect: float
    worst_shape: float
    mean_shape: float
    n_elements: int

    def as_dict(self) -> Dict[str, float]:
        return {
            "min_angle_deg": self.min_angle_deg,
            "mean_min_angle_deg": self.mean_min_angle_deg,
            "worst_aspect": self.worst_aspect,
            "mean_aspect": self.mean_aspect,
            "worst_shape": self.worst_shape,
            "mean_shape": self.mean_shape,
            "n_elements": self.n_elements,
        }


def mesh_quality(mesh: Mesh) -> MeshQuality:
    """Quality aggregate over every element."""
    if mesh.n_elements == 0:
        raise MeshError("quality of a mesh with no elements")
    m = triangle_measures(*mesh.element_corners())
    if m.coincident.any():
        raise GeometryError("triangle has coincident vertices")
    if m.flat.any():
        raise MeshError("aspect ratio of a degenerate triangle")
    angles = np.degrees(m.min_angle)
    return MeshQuality(
        min_angle_deg=float(angles.min()),
        mean_min_angle_deg=float(angles.mean()),
        worst_aspect=float(m.aspect.max()),
        mean_aspect=float(np.mean(m.aspect)),
        worst_shape=float(m.shape.min()),
        mean_shape=float(np.mean(m.shape)),
        n_elements=mesh.n_elements,
    )
