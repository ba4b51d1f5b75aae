"""The three workloads: their decks, their op schedules and their checks.

Every workload is closed-loop with one client: the next op is spawned
only when the previous one has exited.  Ops of different sizes and
programs run in a seeded round-robin order, so a slow spell of the host
lands on every kind of op rather than on one phase of the run.

A workload's size classes are fixed; the seed picks the geometry, the
fields, the order and the edits.  So every seed runs the same mix of
work, and seeds differ only in what a deck looks like.
"""

from __future__ import annotations

import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import checks
import decks
from measure import OpResult, read_text


@dataclass
class Step:
    """One scheduled op: what to run and how to check its output."""

    kind: str
    argv: List[str]                     # repro arguments, paths relative
    decks: int = 1                      # to the op's own directory
    check: Callable[[OpResult], str] = lambda op: ""
    prepare: Optional[Callable[[], Dict[str, object]]] = None


@dataclass
class DeckFile:
    path: Path
    program: str
    counts: Dict[str, int]
    spec: object = None


class Workload:
    name = ""
    why = ""

    def __init__(self, rng: random.Random, work: Path):
        self.rng = rng
        self.work = work
        self.deck_dir = work / "decks"

    # -- set-up ---------------------------------------------------------
    def write(self, name: str, spec: object, program: str) -> DeckFile:
        text, counts = decks.render(spec)
        path = self.deck_dir / f"{name}.deck"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        return DeckFile(path=path, program=program, counts=counts,
                        spec=spec)

    def generate(self) -> None:
        raise NotImplementedError

    def warmup(self) -> Step:
        raise NotImplementedError

    def cold_pass(self) -> Optional[Step]:
        """Set-up work after the warm-up (the cache-filling pass)."""
        return None

    # -- timed window ---------------------------------------------------
    def schedule(self) -> Iterator[Step]:
        raise NotImplementedError

    # -- after the window -----------------------------------------------
    def reference_steps(self) -> List[Tuple[str, Step]]:
        """Extra untimed ops whose outputs the final checks compare to."""
        return []

    def final_check(self, ops: List[Tuple[Step, OpResult]],
                    refs: Dict[str, OpResult]) -> None:
        """Cross-op checks; mark failures on the ops themselves."""

    def crosscheck_decks(self) -> List[DeckFile]:
        """Decks the traced run re-runs with ``--report``."""
        return []

    # -- steps shared by workloads --------------------------------------
    def program_step(self, deck: DeckFile, kind: str = "") -> Step:
        kind = kind or deck.program
        path = str(deck.path)
        if kind == "idlz":
            return Step("idlz", ["idlz", path, "-o", "out", "-q"],
                        check=lambda op: checks.idlz_listing(
                            op.out_dir / "out", deck.counts))
        if kind == "ospl":
            return Step("ospl", ["ospl", path, "-o", "out/plot.svg"],
                        check=lambda op: checks.ospl_svg(
                            op.out_dir / "out" / "plot.svg",
                            read_text(op.out_dir / "stdout.txt"),
                            deck.counts))
        if kind == "analyze":
            def check(op: OpResult) -> str:
                error, summary = checks.analyze_summary(op.out_dir / "out",
                                                        deck.counts)
                op.extra["summary"] = summary
                op.extra["deck"] = deck.path.name
                return error
            return Step("analyze", ["analyze", "run", path, "-o", "out",
                                    "-q"], check=check)
        if kind == "lint":
            return Step("lint", ["lint", path, "--format", "json"],
                        check=lambda op: checks.lint_clean(
                            read_text(op.out_dir / "stdout.txt")))
        if kind == "plan":
            return Step("plan", ["plan", "run", path, "--format", "json"],
                        check=lambda op: checks.plan_counts(
                            read_text(op.out_dir / "stdout.txt"),
                            deck.counts))
        raise ValueError(kind)

    def sparse_references(self, analyze: List[DeckFile]
                          ) -> List[Tuple[str, Step]]:
        """Each analyze deck once more with ``SOLVER SPARSE``."""
        steps = []
        for deck in analyze:
            spec = deck.spec
            sparse = decks.AnalyzeSpec(**{**spec.__dict__,
                                          "solver": "SPARSE"})
            ref = self.write(deck.path.stem + ".sparse", sparse, "analyze")
            steps.append((deck.path.name, self.program_step(ref)))
        return steps

    @staticmethod
    def compare_solvers(ops: List[Tuple[Step, OpResult]],
                        refs: Dict[str, OpResult]) -> None:
        for _, op in ops:
            summary = op.extra.get("summary")
            if not op.ok or summary is None:
                continue
            ref = refs.get(op.extra["deck"])
            if ref is None or not ref.ok or ref.extra.get("summary") is None:
                op.error = "no SOLVER SPARSE reference to compare with"
                continue
            op.error = checks.solver_agreement(summary,
                                               ref.extra["summary"])


def rounds(rng: random.Random, items: List[object]) -> Iterator[object]:
    """Seeded round-robin: every round is a fresh permutation of items."""
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


# ----------------------------------------------------------------------
# deck_cli: import-dominated single-deck runs, no cache
# ----------------------------------------------------------------------

class DeckCli(Workload):
    name = "deck_cli"
    why = ("small decks through idlz/ospl/analyze/lint/plan, one fresh "
           "process each, no cache: the interpreter and imports dominate")

    IDLZ = [(12, 18), (16, 24), (20, 30)]
    OSPL = [(12, 18), (16, 24), (20, 30)]
    ANALYZE = [(8, 12), (10, 15), (12, 18)]

    def generate(self) -> None:
        rng = self.rng
        self.decks = {
            "idlz": [self.write(f"idlz{i}", decks.idlz_spec(
                rng, f"CLI{i}", k, l, plot=True), "idlz")
                for i, (k, l) in enumerate(self.IDLZ)],
            "ospl": [self.write(f"ospl{i}", decks.ospl_spec(
                rng, f"CLI{i}", k, l), "ospl")
                for i, (k, l) in enumerate(self.OSPL)],
            "analyze": [self.write(f"analyze{i}", decks.analyze_spec(
                rng, f"CLI{i}", k, l), "analyze")
                for i, (k, l) in enumerate(self.ANALYZE)],
        }

    def warmup(self) -> Step:
        return self.program_step(self.decks["idlz"][0])

    def schedule(self) -> Iterator[Step]:
        kinds = ["idlz", "ospl", "analyze", "lint", "plan"]
        pool = [d for group in self.decks.values() for d in group]
        size = 0
        order = rounds(self.rng, kinds)
        while True:
            for _ in kinds:
                kind = next(order)
                if kind in ("lint", "plan"):
                    deck = pool[self.rng.randrange(len(pool))]
                else:
                    deck = self.decks[kind][size % 3]
                yield self.program_step(deck, kind)
            size += 1

    def reference_steps(self) -> List[Tuple[str, Step]]:
        return self.sparse_references(self.decks["analyze"])

    def final_check(self, ops, refs) -> None:
        self.compare_solvers(ops, refs)

    def crosscheck_decks(self) -> List[DeckFile]:
        return [self.decks["analyze"][-1]]


# ----------------------------------------------------------------------
# large_mesh: IDLZ and OSPL on large lattices
# ----------------------------------------------------------------------

class LargeMesh(Workload):
    name = "large_mesh"
    why = ("idlz (renumbering, listing) and ospl (~1 MB field decks) on "
           "large lattices: reform, RCM, listing, card parsing, contouring")

    #: (K, L, shape) per IDLZ class and (K, L) per OSPL class, sized so
    #: the four classes take about the same time: the median then does
    #: not hinge on which classes the last, partial round ran.
    IDLZ = [(80, 120, "skew"), (80, 122, "trapezoid")]
    OSPL = [(80, 120), (88, 130)]

    def generate(self) -> None:
        rng = self.rng
        self.idlz = [self.write(f"idlz{k}x{l}", decks.idlz_spec(
            rng, f"MESH{i}", k, l, kind=kind), "idlz")
            for i, (k, l, kind) in enumerate(self.IDLZ)]
        self.ospl = [self.write(f"ospl{k}x{l}", decks.ospl_spec(
            rng, f"MESH{i}", k, l, levels=16), "ospl")
            for i, (k, l) in enumerate(self.OSPL)]
        self.small = self.write("warmup", decks.idlz_spec(
            rng, "WARMUP", 10, 10), "idlz")

    def warmup(self) -> Step:
        return self.program_step(self.small)

    def schedule(self) -> Iterator[Step]:
        for deck in rounds(self.rng, self.idlz + self.ospl):
            yield self.program_step(deck)

    def crosscheck_decks(self) -> List[DeckFile]:
        return [self.idlz[0], self.ospl[0]]


# ----------------------------------------------------------------------
# batch_cache: warm batch runs over a corpus with a third of it edited
# ----------------------------------------------------------------------

@dataclass
class CorpusDeck:
    deck: DeckFile
    pressure_edits: int = 0
    shape_edits: int = 0
    plot_edits: int = 0
    plot_base: int = 0


class BatchCache(Workload):
    name = "batch_cache"
    why = ("warm batch run --cache-dir --lint --jobs 2 over a corpus with a "
           "fresh third edited each op: caches read and written together")

    CORPUS = 60
    JOBS = "2"

    def generate(self) -> None:
        rng = self.rng
        self.corpus: List[CorpusDeck] = []
        # A fixed mix of programs and lattice sizes; the seed picks the
        # shapes, families and values.
        programs = ("analyze", "idlz", "analyze", "idlz", "ospl")
        for i in range(self.CORPUS):
            program = programs[i % len(programs)]
            k, l = 5 + i % 6, 5 + (i * 3) % 8
            if program == "analyze":
                spec = decks.analyze_spec(rng, f"B{i}", k, l)
            elif program == "idlz":
                spec = decks.idlz_spec(rng, f"B{i}", k, l)
            else:
                spec = decks.ospl_spec(rng, f"B{i}", k, l)
            self.corpus.append(CorpusDeck(self.write(
                f"corpus/d{i:03d}", spec, program)))
        self.counter = 0
        self.rounds = 0
        self.small = self.write("warmup", decks.idlz_spec(
            rng, "WARMUP", 6, 6), "idlz")

    def batch_step(self, with_cache: bool = True,
                   target: str = "") -> Step:
        argv = ["batch", "run", target or str(self.deck_dir / "corpus" /
                                              "*.deck"),
                "-o", "out", "--lint", "--jobs", self.JOBS, "-q"]
        if with_cache:
            argv[5:5] = ["--cache-dir", str(self.work / "cache")]
        return Step("batch", argv, decks=self.CORPUS if not target else 1)

    def warmup(self) -> Step:
        return self.batch_step(with_cache=False, target=str(self.small.path))

    def cold_pass(self) -> Step:
        return self.batch_step()

    def edit(self, item: CorpusDeck) -> None:
        """A never-repeated edit: shaping, PRESSURE or PLOT."""
        self.counter += 1
        spec = item.deck.spec
        idlz = spec.idlz if isinstance(spec, decks.AnalyzeSpec) else spec
        choices = ["shape"]
        if isinstance(spec, decks.AnalyzeSpec):
            choices += ["pressure"]
            if item.plot_edits + 1 < len(decks.PLOT_SETS):
                choices += ["plot"]
        what = self.rng.choice(choices)
        if what == "shape":
            # The top row's far x: unique per edit, so never a repeat.
            item.shape_edits += 1
            idlz.shear = round(idlz.shear + 0.0001 * self.counter
                               + 0.01 * item.shape_edits, 4)
        elif what == "pressure":
            item.pressure_edits += 1
            spec.pressure = round(spec.pressure + 0.0001 * self.counter
                                  + 1.0 * item.pressure_edits, 4)
        else:
            if item.plot_edits == 0:
                item.plot_base = decks.PLOT_SETS.index(spec.plots)
            item.plot_edits += 1
            spec.plots = decks.PLOT_SETS[(item.plot_base + item.plot_edits)
                                         % len(decks.PLOT_SETS)]
        item.deck.path.write_text(decks.render(spec)[0])

    def schedule(self) -> Iterator[Step]:
        editable = [c for c in self.corpus if c.deck.program != "ospl"]
        while True:
            step = self.batch_step()
            step.prepare = lambda: self.edit_round(editable)
            step.check = self.check_batch
            yield step

    def edit_round(self, editable: List[CorpusDeck]) -> Dict[str, object]:
        """Edit a fresh seeded third of the corpus before one op.

        One edited deck is snapshotted, so the final check can run it
        cold and cache-free and compare artifacts byte for byte.
        """
        self.rounds += 1
        chosen = self.rng.sample(editable, len(self.corpus) // 3)
        for item in chosen:
            self.edit(item)
        edited = {item.deck.path.stem for item in chosen}
        sample = self.rng.choice(sorted(edited))
        snapshot = self.work / "samples" / f"op{self.rounds:03d}_{sample}.deck"
        snapshot.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(self.deck_dir / "corpus" / f"{sample}.deck", snapshot)
        return {"edited": edited, "sample": sample, "snapshot": snapshot}

    def check_batch(self, op: OpResult) -> str:
        edited = op.extra["edited"]
        expect = {c.deck.path.stem: c.deck.path.stem not in edited
                  for c in self.corpus}
        return checks.batch_manifest(
            op.out_dir / "out" / "batch_manifest.json", expect)

    def reference_steps(self) -> List[Tuple[str, Step]]:
        """One cold, cache-free batch over a seeded sample of edits."""
        return [("cold", self.batch_step(
            with_cache=False, target=str(self.work / "samples" / "*.deck")))]

    def final_check(self, ops, refs) -> None:
        cold = refs.get("cold")
        for _, op in ops:
            if not op.ok or "snapshot" not in op.extra:
                continue
            if cold is None or not cold.ok:
                op.error = "the cold cache-free reference batch failed"
                continue
            snapshot: Path = op.extra["snapshot"]
            op.error = checks.same_artifacts(
                op.out_dir / "out" / op.extra["sample"],
                cold.out_dir / "out" / snapshot.stem)

    def crosscheck_decks(self) -> List[DeckFile]:
        return [c.deck for c in self.corpus if c.deck.program == "analyze"][:1]


WORKLOADS = {w.name: w for w in (DeckCli, LargeMesh, BatchCache)}
