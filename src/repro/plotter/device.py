"""The SC-4020 raster device and display list.

The simulator is deliberately low level: callers address an integer
1024 x 1024 raster, exactly like the real plotter's deflection registers.
Anything that needs world coordinates (IDLZ meshes in inches, OSPL stress
fields) goes through a :class:`CoordinateMap` first, which performs the
aspect-preserving scale the original GPLOT/SUBPLT routines computed.

A :class:`Plotter4020` holds a list of :class:`Frame` objects; ``advance``
starts a new film frame (the original programs produced one frame per plot).
Vectors are clipped to the raster rather than wrapping -- the hardware had
no wraparound; driving the beam off-screen was an error we soften to a
clip, with a strict mode that raises instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import starmap
from typing import List, Optional, Sequence, Tuple, TypeVar, Union

import numpy as np

from repro.errors import PlotterError
from repro.geometry.clip import clip_segments
from repro.geometry.primitives import BoundingBox, Point

#: Addressable positions per axis on the SC-4020 CRT.
RASTER_SIZE = 1024

_RASTER_MAX = float(RASTER_SIZE - 1)
_RASTER_BOX = BoundingBox(0.0, 0.0, _RASTER_MAX, _RASTER_MAX)
Coord = TypeVar("Coord", float, np.ndarray)


@dataclass(frozen=True)
class VectorOp:
    """A straight stroke between two raster positions."""

    x0: int
    y0: int
    x1: int
    y1: int


@dataclass(frozen=True)
class PointOp:
    """A single exposed raster point."""

    x: int
    y: int


@dataclass(frozen=True)
class TextOp:
    """A hardware character string drawn from (x, y), reading rightwards.

    ``size`` is a relative character height in raster units (the 4020 had a
    small set of hardware sizes; we keep it continuous).
    """

    x: int
    y: int
    text: str
    size: int = 10


PlotOp = Union[VectorOp, PointOp, TextOp]


@dataclass
class Frame:
    """One film frame: an ordered display list plus an optional title."""

    title: str = ""
    ops: List[PlotOp] = field(default_factory=list)

    def vectors(self) -> List[VectorOp]:
        return [op for op in self.ops if isinstance(op, VectorOp)]

    def texts(self) -> List[TextOp]:
        return [op for op in self.ops if isinstance(op, TextOp)]

    def points(self) -> List[PointOp]:
        return [op for op in self.ops if isinstance(op, PointOp)]

    def __len__(self) -> int:
        return len(self.ops)


class Plotter4020:
    """The simulated plotter.

    Parameters
    ----------
    strict:
        When true, off-raster coordinates raise :class:`PlotterError`
        (mimicking a hardware fault); when false (default) vectors are
        clipped to the raster and fully off-screen strokes are dropped.
    """

    def __init__(self, strict: bool = False):
        self.strict = strict
        self.frames: List[Frame] = [Frame()]
        self._pen: Optional[Tuple[int, int]] = None

    # ------------------------------------------------------------------
    # Frame control
    # ------------------------------------------------------------------
    @property
    def frame(self) -> Frame:
        """The frame currently being exposed."""
        return self.frames[-1]

    def advance(self, title: str = "") -> Frame:
        """Advance the film and start a new frame."""
        new = Frame(title=title)
        self.frames.append(new)
        self._pen = None
        return new

    def drop_empty_frames(self) -> None:
        """Remove frames with no operations (e.g. the initial blank)."""
        kept = [f for f in self.frames if f.ops] or [Frame()]
        self.frames = kept

    # ------------------------------------------------------------------
    # Drawing primitives (raster coordinates)
    # ------------------------------------------------------------------
    def vectors(self, x0: np.ndarray, y0: np.ndarray, x1: np.ndarray,
                y1: np.ndarray) -> None:
        """Expose a batch of strokes, in order, clipping to the raster.

        The same as one :meth:`vector` call per row: in strict mode the
        rows before the first off-raster endpoint are drawn and that
        endpoint raises; the pen is left at the last drawn end point.
        """
        ends = np.column_stack((x0, y0, x1, y1)).astype(float)
        bad: Optional[np.ndarray] = None
        if self.strict:
            off = ~((ends >= 0.0) & (ends <= _RASTER_MAX)).reshape(-1, 2, 2)
            off_rows = np.nonzero(off.any(axis=(1, 2)))[0]
            if len(off_rows):
                row = off_rows[0]
                bad = ends[row].reshape(2, 2)[int(not off[row, 0].any())]
                ends = ends[:row]
        keep, *clipped = clip_segments(*ends.T, _RASTER_BOX)
        rows = np.rint(np.stack(clipped, axis=1)[keep]).astype(np.int64)
        ops = list(starmap(VectorOp, rows.tolist()))
        if ops:
            self.frame.ops.extend(ops)
            self._pen = (ops[-1].x1, ops[-1].y1)
        if bad is not None:
            raise PlotterError(f"beam driven off raster to ({bad[0]:g}, "
                               f"{bad[1]:g})")

    def vector(self, x0: float, y0: float, x1: float, y1: float) -> None:
        """Expose a straight stroke, clipping to the raster."""
        self.vectors(*np.array([[x0], [y0], [x1], [y1]], dtype=float))

    def move_to(self, x: float, y: float) -> None:
        """Position the beam without exposing."""
        self._pen = (int(round(x)), int(round(y)))

    def draw_to(self, x: float, y: float) -> None:
        """Expose from the current beam position to (x, y)."""
        if self._pen is None:
            self.move_to(x, y)
            return
        self.vector(self._pen[0], self._pen[1], x, y)
        self._pen = (int(round(x)), int(round(y)))

    def polyline(self, points: Sequence[Tuple[float, float]]) -> None:
        """Stroke a connected sequence of raster points (one batch)."""
        if not points:
            return
        self.move_to(*points[0])
        pts = np.asarray(points, dtype=float)
        self.vectors(*np.rint(pts[:-1]).T, *pts[1:].T)
        self.move_to(*points[-1])

    def point(self, x: float, y: float) -> None:
        """Expose a single raster point."""
        xi, yi = int(round(x)), int(round(y))
        if not _RASTER_BOX.contains(Point(xi, yi)):
            if self.strict:
                raise PlotterError(f"point off raster at ({x:g}, {y:g})")
            return
        self.frame.ops.append(PointOp(xi, yi))

    def stroke_text(self, x: float, y: float, string: str,
                    size: int = 10) -> None:
        """Draw a string as hardware strokes (pure-vector frames).

        Unlike :meth:`text` this emits VectorOps through the character
        generator of :mod:`repro.plotter.charset`, so the frame contains
        only strokes -- exactly what the film carried.
        """
        from repro.plotter.charset import text_strokes

        for stroke in text_strokes(string, x, y, float(size)):
            self.polyline(stroke)

    def text(self, x: float, y: float, string: str, size: int = 10) -> None:
        """Draw a character string anchored at its lower-left corner."""
        if not string:
            return
        xi, yi = int(round(x)), int(round(y))
        if not _RASTER_BOX.contains(Point(xi, yi)):
            if self.strict:
                raise PlotterError(f"text anchor off raster at ({x:g}, {y:g})")
            # Clamp the anchor onto the raster so partial labels survive.
            xi = min(max(xi, 0), RASTER_SIZE - 1)
            yi = min(max(yi, 0), RASTER_SIZE - 1)
        self.frame.ops.append(TextOp(xi, yi, string, size))


class CoordinateMap:
    """World-to-raster mapping with preserved aspect ratio.

    The plot area is the raster square inset by ``margin`` raster units on
    every side (the 4020 plots in the paper leave a border for titles and
    contour labels).  The world window is scaled uniformly -- one scale for
    both axes, as a structural cross-section must not be distorted -- and
    centred in the plot area.
    """

    def __init__(self, world: BoundingBox, margin: int = 80):
        if world.width < 0 or world.height < 0:
            raise PlotterError("world window has negative extent")
        self.world = world
        self.margin = margin
        avail = RASTER_SIZE - 1 - 2 * margin
        if avail <= 0:
            raise PlotterError(f"margin {margin} leaves no plot area")
        w = world.width if world.width > 0 else 1.0
        h = world.height if world.height > 0 else 1.0
        self.scale = min(avail / w, avail / h)
        # Centre the scaled window inside the plot area.
        self._ox = margin + 0.5 * (avail - self.scale * w)
        self._oy = margin + 0.5 * (avail - self.scale * h)

    def to_raster(self, x: Coord, y: Coord) -> Tuple[Coord, Coord]:
        """Map world points (floats or arrays) to the raster, y upward."""
        return (
            self._ox + (x - self.world.xmin) * self.scale,
            self._oy + (y - self.world.ymin) * self.scale,
        )

    def to_world(self, rx: float, ry: float) -> Tuple[float, float]:
        """Inverse map, used by tests and the ASCII renderer."""
        return (
            self.world.xmin + (rx - self._ox) / self.scale,
            self.world.ymin + (ry - self._oy) / self.scale,
        )

    def length_to_raster(self, length: float) -> float:
        """Scale a world length to raster units."""
        return length * self.scale
