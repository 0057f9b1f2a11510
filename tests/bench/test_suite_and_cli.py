"""Suite execution + ``repro bench`` CLI, including the regression gate.

Full-suite runs live behind ``repro bench``/CI; tests stick to the cheap
cases (``--only counts``) so the gate logic is covered end-to-end in
well under a second.
"""

import json

import pytest

from repro.bench import load_artifact
from repro.bench.suite import build_cases, run_suite
from repro.cli import main


class TestConfig:
    def test_only_filters_cases(self):
        names = [c.name for c in build_cases("counts")]
        assert names == ["faithful_counts", "fast_counts"]


class TestSuite:
    def test_count_metrics_deterministic(self):
        first = run_suite(build_cases("counts"))
        second = run_suite(build_cases("counts"))
        assert first.keys() == second.keys()
        for name in first:
            assert first[name]["value"] == second[name]["value"], name
            assert set(first[name]) <= {"value", "unit", "tolerance_pct", "details"}

    def test_duplicate_metric_names_rejected(self):
        case = build_cases("fast_counts")[0]
        with pytest.raises(ValueError, match="duplicate"):
            run_suite([case, case])


class TestBenchCli:
    def _run(self, args):
        return main(["bench", "--only", "counts", *args])

    def test_writes_schema_versioned_artifact(self, tmp_path, capsys):
        out = tmp_path / "BENCH_x.json"
        assert self._run(["--out", str(out)]) == 0
        doc = load_artifact(out)
        assert doc["schema"] == "repro-bench/2"
        assert "faithful.fair_tree.rounds" in doc["metrics"]
        assert "environment" in doc

    def test_compare_clean_baseline_passes(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        self._run(["--out", str(base)])
        assert self._run(["--out", str(cur), "--compare", str(base)]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_injected_regression_exits_nonzero(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        self._run(["--out", str(base)])
        doc = json.loads(base.read_text())
        doc["metrics"]["faithful.fair_tree.rounds"]["value"] += 1
        base.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc:
            self._run(["--out", str(tmp_path / "cur.json"),
                       "--compare", str(base)])
        assert exc.value.code == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_list_and_bad_only(self, capsys):
        assert main(["bench", "--list"]) == 0
        assert "faithful_counts" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            main(["bench", "--only", "zzz-no-such-case"])

    def test_bad_baseline_path_exits_with_message(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot load baseline"):
            self._run(["--out", str(tmp_path / "c.json"),
                       "--compare", str(tmp_path / "missing.json")])
