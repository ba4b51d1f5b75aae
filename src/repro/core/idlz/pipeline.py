"""The IDLZ driver: read data -> number -> elements -> shape -> reform ->
renumber -> output, exactly the flow diagram of Appendix E.

    idealizer = Idealizer(title="DSRV HATCH", subdivisions=[...])
    ideal = idealizer.run(segments)
    ideal.mesh            # the shaped, reformed, renumbered Mesh
    ideal.lattice_mesh    # the initial integer-lattice representation
    ideal.node_at(k, l)   # final node number at a lattice point

The stage bodies live in :mod:`repro.pipeline.idlz` (one
:class:`~repro.pipeline.stage.Stage` per Appendix-E box);
:class:`Idealizer` is the stable facade over that pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from repro.fem.quality import MeshQuality

from repro.core.idlz.grid import LatticeGrid
from repro.core.idlz.shaping import ShapingSegment
from repro.core.idlz.subdivision import Subdivision
from repro.errors import IdealizationError
from repro.fem.mesh import Mesh


@dataclass
class Idealization:
    """Everything IDLZ produced for one structure."""

    title: str
    grid: LatticeGrid
    mesh: Mesh
    lattice_mesh: Mesh
    prereform_mesh: Mesh
    swaps: int
    renumbered: bool
    permutation: Optional[List[int]]
    bandwidth_before: int
    bandwidth_after: int

    @property
    def n_nodes(self) -> int:
        return self.mesh.n_nodes

    @property
    def n_elements(self) -> int:
        return self.mesh.n_elements

    @property
    def subdivisions(self) -> List[Subdivision]:
        return self.grid.subdivisions

    def node_at(self, k: int, l: int) -> int:
        """Final node number at a lattice point, after any renumbering."""
        original = self.grid.node(k, l)
        if self.permutation is None:
            return original
        return self.permutation[original]

    def nodes_at(self, points: Sequence[Tuple[int, int]]) -> List[int]:
        return [self.node_at(k, l) for (k, l) in points]

    def group_of_subdivision(self, number: int) -> int:
        """Element-group id carried by a subdivision's elements."""
        for gi, sub in enumerate(self.grid.subdivisions):
            if sub.index == number:
                return gi
        raise IdealizationError(f"no subdivision numbered {number}")

    def summary(self) -> Dict[str, object]:
        return {
            "title": self.title,
            "subdivisions": len(self.subdivisions),
            "nodes": self.n_nodes,
            "elements": self.n_elements,
            "diagonal_swaps": self.swaps,
            "bandwidth_before": self.bandwidth_before,
            "bandwidth_after": self.bandwidth_after,
            "renumbered": self.renumbered,
        }

    def quality(self) -> "MeshQuality":
        """Mesh quality aggregate (see :mod:`repro.fem.quality`)."""
        from repro.fem.quality import mesh_quality

        return mesh_quality(self.mesh)


class Idealizer:
    """Program IDLZ.

    Parameters
    ----------
    title:
        The type-2 alphanumeric title.
    subdivisions:
        The type-4 subdivision cards.
    renumber:
        The NONUMB option: apply the bandwidth-minimising renumbering.
    reform:
        Whether to run the element-reformation pass (the paper always
        does "where necessary"; turning it off is for the ablation
        benchmark).
    strict:
        Enforce Table 2 exactly: the first restriction the assemblage
        goes past raises :class:`~repro.errors.LimitError`.
    prefer_pairs:
        Optional map subdivision-number -> ``'horizontal'``/``'vertical'``
        choosing the interpolation pair when both are located.
    """

    def __init__(self, title: str, subdivisions: Sequence[Subdivision],
                 renumber: bool = True, reform: bool = True,
                 strict: bool = False,
                 prefer_pairs: Optional[Dict[int, str]] = None):
        self.title = title
        self.subdivisions = list(subdivisions)
        self.renumber = renumber
        self.reform = reform
        self.strict = strict
        self.prefer_pairs = dict(prefer_pairs or {})

    def run(self, segments: Sequence[ShapingSegment]) -> Idealization:
        """Execute the IDLZ flow on the given type-6 shaping cards.

        Delegates to the stage pipeline (:mod:`repro.pipeline.idlz`);
        this class survives as the stable constructor-shaped entry
        point.  Use :func:`repro.pipeline.idlz.run_idealization` when
        you also want the per-stage execution records or a
        :class:`~repro.pipeline.cache.StageCache`.
        """
        from repro.pipeline.idlz import run_idealization

        ideal, _ = run_idealization(
            title=self.title,
            subdivisions=self.subdivisions,
            segments=segments,
            renumber=self.renumber,
            reform=self.reform,
            strict=self.strict,
            prefer_pairs=self.prefer_pairs,
        )
        return ideal
