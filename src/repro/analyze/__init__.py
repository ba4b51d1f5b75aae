"""The analyze subsystem: the paper's loop, closed.

IDLZ idealizes a structure, an analysis program solves it, OSPL contours
the results -- the 1970 report's whole premise.  This package supplies
the middle box and the glue:

* :mod:`repro.analyze.deck` -- the combined deck format: a complete
  IDLZ problem followed by an ``ANALYZE`` card section declaring
  materials, boundary conditions, loads and plot requests;
* :mod:`repro.analyze.pipeline` -- the IDLZ stages composed with FEM
  assemble/constrain/load/solve/recover stages and OSPL isogram output
  into one cached :class:`~repro.pipeline.runner.Pipeline`;
* :mod:`repro.analyze.program` -- ``run_analyze`` /
  ``run_analyze_files`` plus the ``repro.analyze/v1`` manifest;
* :mod:`repro.analyze.sweep` -- the scenario-sweep driver expanding a
  parameter grid into batch jobs.

See docs/ANALYZE.md.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analyze.deck": ["AnalyzeDeck", "AnalyzeSpec",
                           "read_analyze_deck", "write_analyze_deck"],
    "repro.analyze.program": ["MANIFEST_SCHEMA", "AnalyzeRun", "run_analyze",
                              "run_analyze_files"],
    "repro.analyze.sweep": ["SweepGrid", "run_sweep"],
})
