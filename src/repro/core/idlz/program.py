"""The IDLZ main program: deck in, listing + plots + punched cards out.

This is the Appendix-E MAIN routine as a library function: read NSET
problems off the card tray, and for each one honour its option card --
NOPLOT (produce the SC-4020 frames), NONUMB (renumber for bandwidth; the
deck reader already folds this into the Idealizer) and NOPNCH (punch the
output decks in the type-7 FORMATs).

Each problem executes through the stage pipeline of
:mod:`repro.pipeline.idlz`; pass ``stage_cache`` to reuse any stage
whose inputs have not changed since a previous run (see
docs/PIPELINE.md).

:func:`run_idlz` works on in-memory decks; :func:`run_idlz_files` adds
the filesystem layer (deck file in, output directory out) used by the
command-line interface.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro import obs
from repro.cards.reader import CardReader
from repro.cards.writer import CardWriter
from repro.core.idlz.deck import IdlzProblem
from repro.core.idlz.pipeline import Idealization
from repro.pipeline.cache import StageCache
from repro.pipeline.idlz import idlz_problem_pipeline, read_pipeline
from repro.pipeline.runner import StageRecord
from repro.plotter.device import Frame
from repro.plotter.svg import save_svg

log = logging.getLogger("repro.idlz")


@dataclass
class IdlzRun:
    """Everything one problem produced."""

    problem: IdlzProblem
    idealization: Idealization
    listing: str
    frames: List[Frame] = field(default_factory=list)
    punched: Optional[CardWriter] = None
    #: Per-stage execution record (cache hit/miss, wall time).
    stages: List[StageRecord] = field(default_factory=list)

    @property
    def title(self) -> str:
        return self.problem.title

    def summary_dict(self) -> dict:
        """A JSON-safe digest of what the problem produced.

        This is the per-problem record the batch manifest embeds, so it
        sticks to plain scalars.
        """
        ideal = self.idealization
        return {
            "title": self.title,
            "nodes": ideal.n_nodes,
            "elements": ideal.n_elements,
            "bandwidth_before": ideal.bandwidth_before,
            "bandwidth_after": ideal.bandwidth_after,
            "swaps": ideal.swaps,
            "frames": len(self.frames),
            "cards_punched": len(self.punched) if self.punched else 0,
        }

    def stage_dicts(self) -> List[Dict[str, object]]:
        """The stage records as JSON-safe dicts (for manifests)."""
        return [record.to_dict() for record in self.stages]


def run_idlz(reader: CardReader,
             strict: bool = False,
             stage_cache: Optional[StageCache] = None) -> List[IdlzRun]:
    """Execute the full IDLZ program on a card tray.

    ``strict`` enforces Table 2: the first restriction a problem goes
    past raises :class:`~repro.errors.LimitError` naming its card.
    """
    problems = read_pipeline().run({"reader": reader})["problems"]
    log.info("deck read: %d problem(s)", len(problems))
    pipeline = idlz_problem_pipeline()
    runs: List[IdlzRun] = []
    for i, problem in enumerate(problems, start=1):
        with obs.span("idlz.problem", index=i, title=problem.title), \
                problem.cards_named():
            log.info("problem %d: %r idealizing ...", i, problem.title)
            result = pipeline.run({
                "subdivisions": problem.subdivisions,
                "segments": problem.segments,
                "strict": strict,
                "prefer_pairs": {},
                "reform": True,
                "renumber": bool(problem.nonumb),
                "title": problem.title,
                "noplot": bool(problem.noplot),
                "nopnch": bool(problem.nopnch),
                "nodal_format": problem.nodal_format,
                "element_format": problem.element_format,
            }, cache=stage_cache)
            ideal = result["idealization"]
            run = IdlzRun(
                problem=problem,
                idealization=ideal,
                listing=result["listing"],
                frames=result["frames"],
                punched=result["punched"],
                stages=list(result.stages),
            )
            log.info(
                "problem %d: %r -> %d nodes, %d elements, bandwidth "
                "%d->%d, %d swap(s)", i, problem.title, ideal.n_nodes,
                ideal.n_elements, ideal.bandwidth_before,
                ideal.bandwidth_after, ideal.swaps,
            )
        runs.append(run)
    return runs


def run_idlz_files(deck_path: Union[str, Path],
                   out_dir: Union[str, Path],
                   strict: bool = False,
                   stage_cache: Optional[StageCache] = None
                   ) -> List[IdlzRun]:
    """Run IDLZ on a deck file and write all products under ``out_dir``.

    Per problem ``i`` (1-based): ``problem_i.listing.txt`` always;
    ``problem_i_frame_NN.svg`` when NOPLOT = 1; ``problem_i.punch.deck``
    when NOPNCH = 1.
    """
    deck_path = Path(deck_path)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    reader = CardReader.from_text(deck_path.read_text())
    runs = run_idlz(reader, strict=strict, stage_cache=stage_cache)
    for i, run in enumerate(runs, start=1):
        (out_dir / f"problem_{i}.listing.txt").write_text(run.listing)
        for j, frame in enumerate(run.frames, start=1):
            save_svg(frame, out_dir / f"problem_{i}_frame_{j:02d}.svg")
        if run.punched is not None:
            (out_dir / f"problem_{i}.punch.deck").write_text(
                run.punched.to_text()
            )
        log.debug("problem %d: products written under %s", i, out_dir)
    return runs
