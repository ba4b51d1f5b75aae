"""Batch execution: many decks, one manifest, nothing computed twice.

The 1970 workflow this package scales up is the analyst feeding a tray
of card decks to the 7090 overnight; here the tray is a glob, the
operator is a :class:`~concurrent.futures.ProcessPoolExecutor`, and the
"do not re-run what already ran" ledger is a content-addressed artifact
cache keyed by (deck bytes, run options, code digest).

Layers:

* :mod:`repro.batch.jobs` -- deck discovery/classification, the
  :class:`JobSpec` model;
* :mod:`repro.batch.worker` -- runs one job in-process, never raises;
* :mod:`repro.batch.cache` -- the :class:`ArtifactCache`;
* :mod:`repro.batch.runner` -- the scheduler (fan-out, timeouts,
  bounded retries with backoff, crash isolation);
* :mod:`repro.batch.manifest` -- the ``repro.batch/v1`` record and its
  ``status`` / ``explain`` renderings;
* :mod:`repro.batch.corpus` -- dumps the structure library as decks.

Quickstart::

    from repro.batch import BatchOptions, discover_jobs, run_batch

    specs = discover_jobs(["examples/decks/library/*.deck"], "out")
    manifest = run_batch(specs, BatchOptions(jobs=4, retries=1,
                                             cache_dir=".deck-cache"))
    manifest.save("out/batch_manifest.json")
    print(manifest.render_status())

See docs/BATCH.md for the CLI, the manifest schema and the cache
invalidation rules.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.batch.cache": ["ArtifactCache", "CacheEntry", "cache_key"],
    "repro.batch.corpus": ["dump_library"],
    "repro.batch.jobs": ["JobSpec", "classify_deck_path", "discover_jobs"],
    "repro.batch.manifest": ["EXIT_PARTIAL", "SCHEMA", "BatchManifest"],
    "repro.batch.runner": ["BatchOptions", "job_cache_key",
                           "job_fingerprint", "run_batch"],
    "repro.batch.worker": ["JobTimeout", "run_job"],
})
