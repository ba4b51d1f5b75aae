"""Exception hierarchy for the IDLZ/OSPL reproduction.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type.  Subclasses mirror the major subsystems; the
1970 programs simply halted with a printed message, while we raise a typed
exception carrying the same diagnostic.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class for every error raised by this library."""


class GeometryError(ReproError):
    """Invalid geometric input (degenerate arc, zero-length segment, ...)."""


class ArcError(GeometryError):
    """A circular arc violates the paper's rules (e.g. subtends > 90 deg)."""


class CardError(ReproError):
    """A punched-card image or deck could not be parsed or produced."""


class FormatError(CardError):
    """A FORTRAN FORMAT specification is malformed or mismatched."""


class LimitError(ReproError):
    """A Table 1 / Table 2 numerical restriction was exceeded in strict mode.

    Carries the name of the limit, the offending value, and the maximum so
    that harnesses can report the exact restriction that tripped, plus the
    lint code (``LIM0xx``), its message (``detail``) and, for a corner
    past the grid, the subdivision (``index``).  A run that came from a
    deck names the card as well, in the form the deck readers refuse
    with: ``card N (LIM0xx): <the lint message>``.
    """

    def __init__(self, name: str, value: int, maximum: int,
                 code: str = "", detail: str = "",
                 index: Optional[int] = None, card: int = 0):
        self.name = name
        self.value = value
        self.maximum = maximum
        self.code = code
        self.detail = detail
        self.index = index
        self.card = card
        super().__init__(
            f"card {card} ({code}): {detail}" if card else
            f"{name} = {value} exceeds the 1970 restriction of {maximum}"
        )

    def at_card(self, card: int) -> "LimitError":
        """The same excess, located on deck card ``card``."""
        return LimitError(self.name, self.value, self.maximum,
                          code=self.code, detail=self.detail,
                          index=self.index, card=card)


class IdealizationError(ReproError):
    """IDLZ could not idealize the assemblage (bad subdivision data)."""


class ShapingError(IdealizationError):
    """Boundary shaping failed (segment off the subdivision boundary,
    no located pair of opposite sides, ...)."""


class ContourError(ReproError):
    """OSPL could not contour the supplied field."""


class MeshError(ReproError):
    """A finite-element mesh is inconsistent (bad connectivity, negative
    element area, ...)."""


class MaterialError(ReproError):
    """A material definition is not physically admissible."""


class SolverError(ReproError):
    """The linear solver failed (singular stiffness, unconstrained model)."""


class BoundaryConditionError(ReproError):
    """Boundary-condition specification is inconsistent."""


class PlotterError(ReproError):
    """The SC-4020 plotter simulator was driven outside its raster."""


class ObsError(ReproError):
    """An observability artefact (run report, diff, baseline) is invalid."""


class PipelineError(ReproError):
    """A stage pipeline is mis-wired or mis-used (a stage requires a
    context value nothing provides, duplicate stage names, a stage that
    failed to produce a declared output)."""


class StageError(PipelineError):
    """An unexpected (non-:class:`ReproError`) exception escaped a stage.

    Domain errors pass through pipelines unchanged so callers keep
    catching the types they always caught; everything else is wrapped
    here with the pipeline and stage named, preserving the original as
    ``__cause__``.
    """

    def __init__(self, pipeline: str, stage: str, original: BaseException):
        self.pipeline = pipeline
        self.stage = stage
        self.original = original
        super().__init__(
            f"stage {pipeline}.{stage} failed: "
            f"{type(original).__name__}: {original}"
        )


class LintError(ReproError):
    """The static deck analyzer was misused (unknown rule code, bad
    severity, malformed registry entry).

    Findings *in decks* never raise: they are returned as diagnostics so
    one bad card cannot hide the rest of the tray's problems.
    """


class BatchError(ReproError):
    """The batch engine could not set up or account for a run (no decks
    matched, unclassifiable deck, invalid manifest or cache entry).

    Per-job *execution* failures never raise this: they are captured into
    the batch manifest so one bad deck cannot sink its siblings.
    """


class PlanError(ReproError):
    """The cost planner was misused (no decks matched, a malformed size
    or threshold argument, an accuracy check over nothing).

    Decks whose cost cannot be derived never raise: they yield a plan
    with ``plannable=False`` and a reason, so one opaque deck cannot
    hide its siblings' estimates.
    """


class AnalyzeError(ReproError):
    """An analyze deck's analysis section cannot be executed (missing
    materials for a subdivision, a selector that matches no nodes, an
    unknown plot component or solver).

    Card-level *syntax* problems raise :class:`CardError` like every
    other deck reader; this class covers the semantic gap between a
    well-formed section and a solvable model.
    """
