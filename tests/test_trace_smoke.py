"""Tier-1 smoke test: the perf-regression harness end to end."""

import json

import pytest

from repro.bench import regression
from tests.conftest import WALL_CLOCK_OFF


class TestRegressionHarness:
    def write_schema_valid_bench_file(self, tmp_path, extra):
        out = tmp_path / "BENCH_pr.json"
        code = regression.main(
            ["--out", str(out), "--scale", "4000", "--graphs", "PK"] + extra
        )
        assert code == 0
        payload = json.loads(out.read_text())
        regression.validate(payload)  # raises on schema violations
        # SSSP/PR x PK x SLFE/Gemini = 4 workloads.
        assert len(payload["workloads"]) >= 4
        for entry in payload["workloads"].values():
            assert entry["supersteps"] > 0
            assert entry["edge_ops"] > 0

    def compare_against_clean_baseline(self, tmp_path, extra):
        out = tmp_path / "current.json"
        args = ["--scale", "4000", "--graphs", "PK", "--apps", "SSSP"] + extra
        assert regression.main(["--out", str(out)] + args) == 0
        rerun = tmp_path / "rerun.json"
        code = regression.main(
            ["--out", str(rerun), "--baseline", str(out)] + args
        )
        assert code == 0

    def test_writes_schema_valid_bench_file(self, tmp_path):
        self.write_schema_valid_bench_file(tmp_path, WALL_CLOCK_OFF)

    def test_clean_baseline_comparison_passes(self, tmp_path):
        self.compare_against_clean_baseline(tmp_path, WALL_CLOCK_OFF)

    @pytest.mark.bench
    def test_writes_bench_file_with_wall_clock_gates(self, tmp_path):
        self.write_schema_valid_bench_file(tmp_path, [])

    @pytest.mark.bench
    def test_clean_baseline_comparison_with_wall_clock_gates(self, tmp_path):
        self.compare_against_clean_baseline(tmp_path, [])

    def test_doctored_baseline_fails(self, tmp_path, capsys):
        out = tmp_path / "current.json"
        args = (
            ["--scale", "4000", "--graphs", "PK", "--apps", "SSSP"]
            + WALL_CLOCK_OFF
        )
        assert regression.main(["--out", str(out)] + args) == 0
        baseline = json.loads(out.read_text())
        for entry in baseline["workloads"].values():
            entry["edge_ops"] = max(1, entry["edge_ops"] // 2)
        doctored = tmp_path / "baseline.json"
        doctored.write_text(json.dumps(baseline))
        code = regression.main(
            ["--out", str(tmp_path / "x.json"), "--baseline", str(doctored)]
            + args
        )
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().err

    def test_validate_rejects_bad_payloads(self):
        with pytest.raises(ValueError):
            regression.validate({"schema_version": 99})
        with pytest.raises(ValueError):
            regression.validate(
                {
                    "schema_version": 1,
                    "scale_divisor": 4000,
                    "num_nodes": 8,
                    "workloads": {},
                }
            )
        with pytest.raises(ValueError):
            regression.validate(
                {
                    "schema_version": 1,
                    "scale_divisor": 4000,
                    "num_nodes": 8,
                    "workloads": {"SSSP/PK/SLFE": {"edge_ops": 1}},
                }
            )

    def test_compare_ignores_improvements(self):
        base = {"workloads": {"k": {
            "modeled_seconds": 1.0, "edge_ops": 100,
            "messages": 10, "supersteps": 5,
        }}}
        good = {"workloads": {"k": {
            "modeled_seconds": 0.5, "edge_ops": 50,
            "messages": 5, "supersteps": 3,
        }}}
        assert regression.compare(good, base) == []
        bad = {"workloads": {"k": {
            "modeled_seconds": 1.0, "edge_ops": 150,
            "messages": 10, "supersteps": 5,
        }}}
        problems = regression.compare(bad, base)
        assert len(problems) == 1 and "edge_ops" in problems[0]
