"""Schema-versioned benchmark artifacts (``BENCH_<sha>.json``).

An artifact is a plain JSON document::

    {
      "schema": "repro-bench/2",
      "git_sha": "939e3b7",
      "created_unix": 1754400000.0,
      "environment": {...},          # host + toolchain fingerprint
      "metrics": {name: {...}, ...}  # one entry per count metric
    }

Each metric entry carries ``value``, ``unit``, ``tolerance_pct`` (the
relative deviation from a baseline it tolerates, see
:mod:`repro.bench.compare`) and optional ``details``.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Mapping

__all__ = [
    "SCHEMA_VERSION",
    "default_artifact_path",
    "environment_fingerprint",
    "git_sha",
    "load_artifact",
    "make_artifact",
    "write_artifact",
]

#: Bump on any backwards-incompatible artifact layout change.
SCHEMA_VERSION = "repro-bench/2"


def git_sha(short: bool = True) -> str:
    """The current commit sha, or ``"unknown"`` outside a git checkout."""
    cmd = ["git", "rev-parse", "--short" if short else "--verify", "HEAD"]
    try:
        out = subprocess.run(
            cmd, capture_output=True, text=True, timeout=10, check=False
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def environment_fingerprint() -> dict[str, Any]:
    """Host and toolchain facts of the run."""
    import numpy as np

    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def default_artifact_path(root: str | Path = ".", sha: str | None = None) -> Path:
    """``<root>/BENCH_<sha>.json`` for the current (or given) commit."""
    return Path(root) / f"BENCH_{sha if sha is not None else git_sha()}.json"


def make_artifact(metrics: Mapping[str, Mapping[str, Any]]) -> dict[str, Any]:
    """Assemble the artifact document for one suite run."""
    return {
        "schema": SCHEMA_VERSION,
        "git_sha": git_sha(),
        "created_unix": time.time(),
        "environment": environment_fingerprint(),
        "metrics": {name: dict(entry) for name, entry in metrics.items()},
    }


def write_artifact(doc: Mapping[str, Any], path: str | Path) -> Path:
    """Serialize *doc* to *path* (pretty-printed, trailing newline)."""
    path = Path(path)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def load_artifact(path: str | Path) -> dict[str, Any]:
    """Load and schema-check an artifact; raises ``ValueError`` on mismatch."""
    doc = json.loads(Path(path).read_text())
    schema = doc.get("schema")
    if schema != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported bench artifact schema {schema!r} in {path} "
            f"(expected {SCHEMA_VERSION!r})"
        )
    if not isinstance(doc.get("metrics"), dict):
        raise ValueError(f"bench artifact {path} has no metrics mapping")
    return doc
