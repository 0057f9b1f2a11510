"""Artifact schema, fingerprint, and round-trip tests."""

import json

import pytest

from repro.bench.artifact import (
    SCHEMA_VERSION,
    default_artifact_path,
    environment_fingerprint,
    git_sha,
    load_artifact,
    make_artifact,
    write_artifact,
)

_METRICS = {
    "faithful.luby.rounds": {"value": 5.0, "unit": "rounds", "tolerance_pct": 0.0}
}


class TestFingerprint:
    def test_required_keys(self):
        env = environment_fingerprint()
        for key in ("python", "numpy", "platform", "cpu_count"):
            assert key in env

    def test_git_sha_in_checkout(self):
        sha = git_sha()
        assert sha == "unknown" or all(c in "0123456789abcdef" for c in sha)


class TestArtifactRoundTrip:
    def test_make_write_load(self, tmp_path):
        doc = make_artifact(_METRICS)
        assert doc["schema"] == SCHEMA_VERSION == "repro-bench/2"
        path = write_artifact(doc, tmp_path / "BENCH_test.json")
        loaded = load_artifact(path)
        assert loaded["metrics"] == doc["metrics"]

    def test_default_path_uses_sha(self, tmp_path):
        path = default_artifact_path(tmp_path, sha="abc123")
        assert path.name == "BENCH_abc123.json"

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "repro-bench/0", "metrics": {}}))
        with pytest.raises(ValueError, match="schema"):
            load_artifact(path)

    def test_load_rejects_missing_metrics(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": SCHEMA_VERSION}))
        with pytest.raises(ValueError, match="metrics"):
            load_artifact(path)
