"""Deterministic count suite (``repro bench``).

Three layers, each usable on its own:

* :mod:`~repro.bench.suite` — the declarative suite of deterministic
  counts: faithful-engine rounds and messages, fast-engine iterations,
  and the service's evidence, routing and telemetry invariants.
* :mod:`~repro.bench.artifact` — schema-versioned ``BENCH_<sha>.json``
  artifacts with an environment fingerprint.
* :mod:`~repro.bench.compare` — baseline comparison with per-metric
  deltas; a metric beyond its tolerance, or on one side only, regresses.

The CLI front-end is ``repro bench`` (see :mod:`repro.cli`).  Wall-clock
time is measured by ``perfbench/``.
"""

from __future__ import annotations

from .artifact import (
    SCHEMA_VERSION,
    default_artifact_path,
    environment_fingerprint,
    git_sha,
    load_artifact,
    make_artifact,
    write_artifact,
)
from .compare import CompareReport, CompareRow, compare_artifacts
from .suite import run_suite

__all__ = [
    "SCHEMA_VERSION",
    "CompareReport",
    "CompareRow",
    "compare_artifacts",
    "default_artifact_path",
    "environment_fingerprint",
    "git_sha",
    "load_artifact",
    "make_artifact",
    "run_suite",
    "write_artifact",
]
