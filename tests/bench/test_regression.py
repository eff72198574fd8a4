"""The perf-regression harness as a tier-1 pytest.

Running ``python -m repro.bench.regression`` in CI is one option; this
file makes the same gate part of the ordinary test suite: the matrix is
re-run at the committed scale and compared against the committed
``BENCH_pr.json`` with a wide tolerance (the metrics are deterministic,
so the slack only covers intentional drift between regenerations — a
real regression blows far past it).
"""

import copy
import json
import pathlib

import pytest

from repro.bench import regression
from tests.conftest import WALL_CLOCK_OFF

BENCH_PATH = pathlib.Path(__file__).resolve().parents[2] / "BENCH_pr.json"

#: Wide on purpose: the gate here is "same order of work", the tight
#: 10% gate stays with the standalone CLI run against a baseline.
TOLERANCE = 0.25


@pytest.fixture(scope="module")
def payload():
    baseline = json.loads(BENCH_PATH.read_text())
    current = regression.run_matrix(
        scale_divisor=baseline["scale_divisor"],
        num_nodes=baseline["num_nodes"],
    )
    return current, baseline


class TestMatrixAgainstCommittedBaseline:
    def test_committed_file_is_valid(self, payload):
        _, baseline = payload
        regression.validate(baseline)

    def test_fresh_matrix_is_valid(self, payload):
        current, _ = payload
        regression.validate(current)

    def test_no_regressions_at_wide_tolerance(self, payload):
        current, baseline = payload
        problems = regression.compare(current, baseline, tolerance=TOLERANCE)
        assert problems == []

    def test_matrix_covers_the_committed_workloads(self, payload):
        current, baseline = payload
        assert set(current["workloads"]) == set(baseline["workloads"])

    def test_faults_row_present_with_recovery_metrics(self, payload):
        current, _ = payload
        entry = current["workloads"][regression.FAULTS_KEY]
        assert entry["recovery_seconds"] > 0
        assert entry["supersteps_replayed"] >= 1
        assert entry["retries"] > 0


class TestValidate:
    def good(self):
        return {
            "schema_version": regression.SCHEMA_VERSION,
            "scale_divisor": 4000,
            "num_nodes": 8,
            "workloads": {
                "SSSP/PK/SLFE": {
                    "wall_seconds": 0.1,
                    "modeled_seconds": 0.001,
                    "edge_ops": 10,
                    "messages": 5,
                    "supersteps": 3,
                }
            },
        }

    def test_good_payload_passes(self):
        regression.validate(self.good())

    def test_wrong_schema_version(self):
        bad = self.good()
        bad["schema_version"] = 99
        with pytest.raises(ValueError):
            regression.validate(bad)

    def test_missing_gated_metric(self):
        bad = self.good()
        del bad["workloads"]["SSSP/PK/SLFE"]["messages"]
        with pytest.raises(ValueError):
            regression.validate(bad)

    def test_empty_workloads_rejected(self):
        bad = self.good()
        bad["workloads"] = {}
        with pytest.raises(ValueError):
            regression.validate(bad)


class TestCompare:
    def base(self):
        return {
            "workloads": {
                "W": {
                    "wall_seconds": 1.0,
                    "modeled_seconds": 1.0,
                    "edge_ops": 100,
                    "messages": 100,
                    "supersteps": 10,
                }
            }
        }

    def test_within_tolerance_is_clean(self):
        current = copy.deepcopy(self.base())
        current["workloads"]["W"]["edge_ops"] = 105
        assert regression.compare(current, self.base(), tolerance=0.10) == []

    def test_growth_past_tolerance_flagged(self):
        current = copy.deepcopy(self.base())
        current["workloads"]["W"]["edge_ops"] = 120
        problems = regression.compare(current, self.base(), tolerance=0.10)
        assert len(problems) == 1
        assert "edge_ops" in problems[0]

    def test_improvement_never_flagged(self):
        current = copy.deepcopy(self.base())
        current["workloads"]["W"]["modeled_seconds"] = 0.5
        assert regression.compare(current, self.base(), tolerance=0.10) == []

    def test_wall_seconds_not_gated(self):
        current = copy.deepcopy(self.base())
        current["workloads"]["W"]["wall_seconds"] = 50.0
        assert regression.compare(current, self.base(), tolerance=0.10) == []

    def test_workloads_only_in_one_file_skipped(self):
        current = copy.deepcopy(self.base())
        current["workloads"]["NEW"] = current["workloads"]["W"]
        assert regression.compare(current, self.base(), tolerance=0.10) == []


class TestCli:
    def test_nodes_zero_rejected(self):
        with pytest.raises(SystemExit):
            regression.main(["--nodes", "0"])

    def test_scale_negative_rejected(self):
        with pytest.raises(SystemExit):
            regression.main(["--scale", "-5"])

    ARGS = [
        "--scale", "16000", "--apps", "SSSP", "--graphs", "PK",
        "--engines", "SLFE",
    ]

    def write_then_gate(self, tmp_path, extra):
        out = tmp_path / "bench.json"
        assert regression.main(["--out", str(out)] + self.ARGS + extra) == 0
        written = json.loads(out.read_text())
        regression.validate(written)
        # A second identical run gated against the first must pass: the
        # metrics are deterministic.
        out2 = tmp_path / "bench2.json"
        assert regression.main(
            ["--out", str(out2), "--baseline", str(out)] + self.ARGS + extra
        ) == 0

    def test_writes_and_gates_against_itself(self, tmp_path):
        self.write_then_gate(tmp_path, WALL_CLOCK_OFF)

    @pytest.mark.bench
    def test_wall_clock_gates_hold(self, tmp_path):
        self.write_then_gate(tmp_path, [])


class TestBaselineErrors:
    """A broken --baseline is an operator mistake: the harness must say
    what is wrong in one line and exit 2, never dump a traceback."""

    ARGS = [
        "--scale", "16000", "--apps", "SSSP", "--graphs", "PK",
        "--engines", "SLFE", "--no-parallel-scaling",
    ]

    def run_main(self, tmp_path, baseline, capsys):
        out = tmp_path / "bench.json"
        code = regression.main(
            ["--out", str(out), "--baseline", str(baseline)] + self.ARGS
        )
        return code, capsys.readouterr().err

    def test_missing_baseline(self, tmp_path, capsys):
        code, err = self.run_main(tmp_path, tmp_path / "nope.json", capsys)
        assert code == 2
        assert "cannot read baseline" in err
        assert "Traceback" not in err

    def test_invalid_json_baseline(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, err = self.run_main(tmp_path, bad, capsys)
        assert code == 2
        assert "not valid JSON" in err

    def test_empty_file_baseline(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text("")
        code, err = self.run_main(tmp_path, empty, capsys)
        assert code == 2
        assert "not valid JSON" in err

    def test_schema_less_baseline(self, tmp_path, capsys):
        bare = tmp_path / "bare.json"
        bare.write_text("{}")
        code, err = self.run_main(tmp_path, bare, capsys)
        assert code == 2
        assert "does not match the BENCH schema" in err

    def note_workload_set_differences(self, tmp_path, capsys, extra):
        args = self.ARGS + extra
        out = tmp_path / "bench.json"
        assert regression.main(["--out", str(out)] + args) == 0
        baseline = json.loads(out.read_text())
        entry = next(iter(baseline["workloads"].values()))
        baseline["workloads"]["GONE/GONE/GONE"] = entry
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(baseline))
        capsys.readouterr()
        code = regression.main(
            ["--out", str(tmp_path / "b2.json"), "--baseline", str(edited)]
            + args
        )
        assert code == 0
        assert "GONE/GONE/GONE" in capsys.readouterr().out

    def test_workload_set_differences_noted(self, tmp_path, capsys):
        self.note_workload_set_differences(tmp_path, capsys, WALL_CLOCK_OFF)

    @pytest.mark.bench
    def test_workload_set_differences_noted_with_live_gate(
        self, tmp_path, capsys
    ):
        self.note_workload_set_differences(tmp_path, capsys, [])


class TestParallelScaling:
    def test_off_by_default(self):
        payload = regression.run_matrix(
            apps=["SSSP"], graphs=["PK"], engines=["SLFE"],
            scale_divisor=16000, num_nodes=2,
        )
        assert "parallel_scaling" not in payload

    def test_section_shape_and_bit_identity(self):
        payload = regression.run_matrix(
            apps=["SSSP"], graphs=["PK"], engines=["SLFE"],
            scale_divisor=16000, num_nodes=2, parallel_scaling=True,
        )
        section = payload["parallel_scaling"]
        assert section["cpu_count"] >= 1
        assert section["serial_wall_seconds"] > 0
        workers = [run["workers"] for run in section["parallel"]]
        assert workers == list(regression.SCALING_WORKER_COUNTS)
        for run in section["parallel"]:
            assert run["wall_seconds"] > 0
            assert run["speedup"] > 0
            assert run["bit_identical"] is True
        # The section is informational: validate() and compare() must
        # both tolerate its presence (and its absence in baselines).
        regression.validate(payload)
        assert regression.compare(payload, payload) == []


class TestLiveOverheadSection:
    """The telemetry-plane overhead probe: recorded, budgeted, honest."""

    @pytest.fixture(scope="class")
    def entry(self):
        return regression.measure_live_overhead()

    def test_entry_schema(self, entry):
        assert entry["workload"] == "SSSP/LJ/SLFE"
        assert entry["off_seconds"] > 0
        assert entry["on_seconds"] > 0
        assert entry["overhead"] >= 0.0
        assert entry["budget"] == regression.LIVE_OVERHEAD_BUDGET
        assert entry["repeats"] == regression.LIVE_OVERHEAD_REPEATS

    def test_budget_verdict_matches_the_numbers(self, entry):
        assert entry["within_budget"] == (
            entry["overhead"] <= entry["budget"]
        )

    def test_trustworthiness_reflects_cpu_count(self, entry):
        import os

        assert entry["trustworthy"] == ((os.cpu_count() or 1) >= 2)

    @pytest.mark.bench
    def test_budget_enforced_on_trustworthy_hosts(self, entry):
        # The acceptance gate: on a real multi-core host the plane must
        # stay within its 2% budget.  On one CPU the sampler shares the
        # only core with the workload, so the ratio is advisory there.
        if not entry["trustworthy"]:
            pytest.skip("cpu_count < 2: overhead ratio is advisory")
        assert entry["within_budget"], (
            "live telemetry plane overhead %.2f%% exceeds %.0f%% budget"
            % (entry["overhead"] * 100, entry["budget"] * 100)
        )

    def test_section_joins_the_payload_only_on_request(self):
        payload = regression.run_matrix(
            apps=["SSSP"], graphs=["PK"], engines=["SLFE"],
            scale_divisor=16000, live_overhead=False,
        )
        assert "live_overhead" not in payload


class TestAsyncSchedulingSection:
    """The RR-composition experiment rides the matrix, ungated."""

    def test_section_shape_and_ungated(self):
        from repro.core.async_engine import SCHEDULERS

        payload = regression.run_matrix(
            apps=["SSSP"], graphs=["PK"], engines=["SLFE"],
            scale_divisor=16000, num_nodes=2,
        )
        section = payload["async_scheduling"]
        assert section["app"] == regression.ASYNC_SCHEDULING_APP
        assert section["graph"] == regression.ASYNC_SCHEDULING_GRAPH
        assert set(section["schedulers"]) == set(SCHEDULERS)
        for row in section["schedulers"].values():
            assert row["rounds"] > 0
            assert row["updates_to_convergence"] > 0
            assert row["scheduled_vertices"] > 0
            assert row["final_delta_mass"] >= 0.0
        assert section["fewest_updates"] in section["schedulers"]
        # Informational only: schema validation and the gate both
        # tolerate the section (compare() reads just "workloads").
        regression.validate(payload)
        assert regression.compare(payload, payload) == []
