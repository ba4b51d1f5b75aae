"""Shared machinery for the structure library.

A :class:`StructureCase` bundles everything one of the paper's examples
needs: the IDLZ inputs (subdivisions + shaping segments), the material of
each subdivision, the analysis family, and bookkeeping used by the
benchmarks (lattice paths of loaded/constrained boundaries).  ``build()``
runs IDLZ and returns a :class:`BuiltStructure` ready for analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.idlz.deck import IdlzProblem
from repro.core.idlz.pipeline import Idealization, Idealizer
from repro.core.idlz.shaping import ShapingSegment
from repro.core.idlz.subdivision import Subdivision
from repro.errors import IdealizationError
from repro.fem.materials import AnalysisType

LatticePath = Sequence[Tuple[int, int]]


@dataclass
class StructureCase:
    """One example structure, declaratively."""

    name: str
    title: str
    subdivisions: List[Subdivision]
    segments: List[ShapingSegment]
    materials: Dict[int, object]          # subdivision index -> material
    analysis_type: AnalysisType = AnalysisType.AXISYMMETRIC
    prefer_pairs: Dict[int, str] = field(default_factory=dict)
    #: Named lattice paths (e.g. "outer_surface", "axis") used to apply
    #: loads and constraints on the generated mesh.
    paths: Dict[str, List[Tuple[int, int]]] = field(default_factory=dict)
    notes: str = ""

    def build(self, renumber: bool = True) -> "BuiltStructure":
        ideal = Idealizer(
            title=self.title,
            subdivisions=self.subdivisions,
            renumber=renumber,
            prefer_pairs=self.prefer_pairs,
        ).run(self.segments)
        group_materials = {
            gi: self.materials[sub.index]
            for gi, sub in enumerate(ideal.subdivisions)
        }
        return BuiltStructure(case=self, idealization=ideal,
                              group_materials=group_materials)

    def problem(self) -> IdlzProblem:
        """The equivalent Appendix-B card-deck problem."""
        return IdlzProblem(
            title=self.title,
            subdivisions=list(self.subdivisions),
            segments=list(self.segments),
        )


@dataclass
class BuiltStructure:
    """A structure after IDLZ has idealized it."""

    case: StructureCase
    idealization: Idealization
    group_materials: Dict[int, object]

    @property
    def mesh(self):
        return self.idealization.mesh

    def path_nodes(self, name: str) -> List[int]:
        """Final node numbers along a named lattice path."""
        try:
            path = self.case.paths[name]
        except KeyError:
            raise IdealizationError(
                f"structure {self.case.name!r} has no path {name!r}; "
                f"known: {sorted(self.case.paths)}"
            ) from None
        return self.idealization.nodes_at(path)

    def path_edges(self, name: str) -> List[Tuple[int, int]]:
        """Consecutive node pairs along a named lattice path."""
        nodes = self.path_nodes(name)
        return list(zip(nodes[:-1], nodes[1:]))


def lattice_path_edges(ideal: Idealization, points: LatticePath
                       ) -> List[Tuple[int, int]]:
    """Edges between consecutive lattice points, in final node numbers."""
    nodes = ideal.nodes_at(points)
    return list(zip(nodes[:-1], nodes[1:]))


def straight_run(points: LatticePath) -> List[Tuple[int, int]]:
    """Helper: materialise a lattice path as a plain list."""
    return [tuple(p) for p in points]


def vertical_path(k: int, l0: int, l1: int) -> List[Tuple[int, int]]:
    """Lattice points (k, l0..l1) inclusive, ascending or descending."""
    step = 1 if l1 >= l0 else -1
    return [(k, l) for l in range(l0, l1 + step, step)]


def horizontal_path(l: int, k0: int, k1: int) -> List[Tuple[int, int]]:
    """Lattice points (k0..k1, l) inclusive, ascending or descending."""
    step = 1 if k1 >= k0 else -1
    return [(k, l) for k in range(k0, k1 + step, step)]


def scale_case_lattice(case: "StructureCase", factor: int,
                       name_suffix: str = "_refined") -> "StructureCase":
    """A refined copy of a rectangle-only case: every lattice interval is
    split ``factor`` times, the real geometry unchanged.

    This is how an analyst produced a "second idealization" (Figure 13's
    caption): same subdivisions and shaping cards, denser integer grid.
    Trapezoidal subdivisions are rejected -- scaling changes their slant
    slope, so they must be redrawn by hand, exactly as in 1970.
    """
    if factor < 1:
        raise IdealizationError(f"scale factor must be >= 1, got {factor}")

    def scale(v: int) -> int:
        return (v - 1) * factor + 1

    subdivisions = []
    for sub in case.subdivisions:
        if sub.ntaprw or sub.ntapcm:
            raise IdealizationError(
                f"subdivision {sub.index} is a trapezoid; lattice scaling "
                "only applies to rectangle-only assemblages"
            )
        subdivisions.append(Subdivision(
            index=sub.index,
            kk1=scale(sub.kk1), ll1=scale(sub.ll1),
            kk2=scale(sub.kk2), ll2=scale(sub.ll2),
        ))
    segments = [
        ShapingSegment(
            subdivision=seg.subdivision,
            k1=scale(seg.k1), l1=scale(seg.l1),
            k2=scale(seg.k2), l2=scale(seg.l2),
            x1=seg.x1, y1=seg.y1, x2=seg.x2, y2=seg.y2,
            radius=seg.radius,
        )
        for seg in case.segments
    ]
    paths = {
        name: [(scale(k), scale(l)) for (k, l) in path]
        for name, path in case.paths.items()
    }
    return StructureCase(
        name=case.name + name_suffix,
        title=case.title + " - SECOND IDEALIZATION",
        subdivisions=subdivisions,
        segments=segments,
        materials=dict(case.materials),
        analysis_type=case.analysis_type,
        prefer_pairs=dict(case.prefer_pairs),
        paths=paths,
        notes=case.notes + f" (lattice refined x{factor})",
    )
