"""Regression-gate semantics of bench artifact comparison."""

from repro.bench.compare import compare_artifacts


def _doc(metrics, sha="cafe12"):
    return {"schema": "repro-bench/2", "git_sha": sha, "metrics": metrics}


def _count(value, tolerance=0.0):
    return {"value": value, "unit": "rounds", "tolerance_pct": tolerance}


class TestCountGating:
    def test_identical_ok(self):
        report = compare_artifacts(
            _doc({"m": _count(7)}), _doc({"m": _count(7)})
        )
        assert report.ok
        assert not report.rows[0].regressed

    def test_any_deviation_gates(self):
        report = compare_artifacts(
            _doc({"m": _count(8)}), _doc({"m": _count(7)})
        )
        assert not report.ok
        assert report.regressions[0].name == "m"

    def test_deviation_in_either_direction_gates(self):
        report = compare_artifacts(
            _doc({"m": _count(6)}), _doc({"m": _count(7)})
        )
        assert not report.ok

    def test_entry_tolerance_allows_drift(self):
        within = compare_artifacts(
            _doc({"m": _count(110, tolerance=10.0)}),
            _doc({"m": _count(100, tolerance=10.0)}),
        )
        assert within.ok
        beyond = compare_artifacts(
            _doc({"m": _count(89, tolerance=10.0)}),
            _doc({"m": _count(100, tolerance=10.0)}),
        )
        assert not beyond.ok


class TestZeroBaseline:
    def test_count_from_zero_has_no_delta_but_regresses(self):
        report = compare_artifacts(
            _doc({"m": _count(3)}), _doc({"m": _count(0)})
        )
        row = report.rows[0]
        assert row.delta_pct is None  # no inf/JSON-illegal percentage
        assert row.note == "new from zero"
        assert row.regressed
        assert not report.ok

    def test_zero_to_zero_is_ok(self):
        report = compare_artifacts(
            _doc({"m": _count(0)}), _doc({"m": _count(0)})
        )
        row = report.rows[0]
        assert row.delta_pct == 0.0
        assert not row.regressed and row.note == ""

    def test_count_from_zero_ignores_tolerance(self):
        # A nonzero-from-zero count is a behavioural change no matter
        # how generous the tolerance — there is no percentage to test.
        report = compare_artifacts(
            _doc({"m": _count(1, tolerance=1000.0)}),
            _doc({"m": _count(0, tolerance=1000.0)}),
        )
        assert not report.ok

    def test_format_renders_dash_for_undefined_delta(self):
        report = compare_artifacts(
            _doc({"m": _count(3)}), _doc({"m": _count(0)})
        )
        lines = report.format().splitlines()
        row = next(ln for ln in lines if "[new from zero]" in ln)
        # columns: name baseline current delta verdict...
        assert row.split()[3] == "-"


class TestMissingMetrics:
    def test_missing_sides_regress(self):
        # A gate that vanishes from the suite, or one the baseline lacks,
        # fails the comparison.
        report = compare_artifacts(
            _doc({"new": _count(1)}), _doc({"old": _count(2)})
        )
        assert not report.ok
        notes = {r.name: r.note for r in report.regressions}
        assert notes["new"] == "missing in baseline"
        assert notes["old"] == "missing in current"


class TestFormat:
    def test_report_lists_failures(self):
        report = compare_artifacts(
            _doc({"m": _count(8)}, sha="aaa111"),
            _doc({"m": _count(7)}, sha="bbb222"),
        )
        text = report.format()
        assert "bbb222" in text and "aaa111" in text
        assert "REGRESSED" in text
        assert "FAIL: 1 metric(s) regressed" in text

    def test_clean_report_says_ok(self):
        report = compare_artifacts(_doc({"m": _count(7)}), _doc({"m": _count(7)}))
        assert "1 metric(s) compared, no regressions" in report.format()
