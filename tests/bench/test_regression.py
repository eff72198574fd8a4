"""The perf-regression harness as a tier-1 pytest.

Running ``python -m repro.bench.regression`` in CI is one option; this
file makes the same gate part of the ordinary test suite: the matrix is
re-run at the committed scale and must *equal* the committed
``BENCH_pr.json`` — nothing in the file comes from a clock, and
``compare`` alone would never flag a decrease.
"""

import copy
import json
import pathlib

import pytest

from repro.bench import regression

BENCH_PATH = pathlib.Path(__file__).resolve().parents[2] / "BENCH_pr.json"

#: Sections a clock used to fill; a legacy baseline may still carry them.
CLOCK_SECTIONS = (
    "parallel_scaling", "live_overhead", "ooc_scaling", "measured_recovery",
)


@pytest.fixture(scope="module")
def payload():
    baseline = json.loads(BENCH_PATH.read_text())
    current = regression.run_matrix(
        scale_divisor=baseline["scale_divisor"],
        num_nodes=baseline["num_nodes"],
    )
    return current, baseline


def assert_equal(new, old, path):
    if isinstance(old, dict):
        assert set(new) == set(old), path
        for key in old:
            assert_equal(new[key], old[key], "%s.%s" % (path, key))
    elif isinstance(old, float):
        assert new == pytest.approx(old, rel=1e-9, abs=0), path
    else:
        assert new == old and type(new) is type(old), path


class TestMatrixAgainstCommittedBaseline:
    def test_committed_file_is_valid(self, payload):
        _, baseline = payload
        regression.validate(baseline)

    def test_fresh_matrix_is_valid(self, payload):
        current, _ = payload
        regression.validate(current)

    def test_fresh_matrix_equals_the_committed_file(self, payload):
        # Integers (metrics, registry counters) exactly; the floats are
        # sums of products in a fixed order, so 1e-9 is libm slack only.
        current, baseline = payload
        assert set(current) == set(baseline)
        assert regression.compare(current, baseline, tolerance=0) == []
        for section in ("workloads", "cache_amortization",
                        "async_scheduling"):
            assert_equal(current[section], baseline[section], section)

    def test_matrix_covers_the_committed_workloads(self, payload):
        current, baseline = payload
        assert set(current["workloads"]) == set(baseline["workloads"])

    def test_nothing_in_the_payload_came_from_a_clock(self, payload):
        current, _ = payload
        assert not set(CLOCK_SECTIONS) & set(current)
        for entry in current["workloads"].values():
            assert "wall_seconds" not in entry

    def test_default_matrix_rows_did_work(self, payload):
        # SSSP/PR x PK x SLFE/Gemini = 4 of the default rows.
        current, _ = payload
        on_pk = [k for k in current["workloads"] if "/PK/" in k]
        assert len(on_pk) >= 4
        for entry in current["workloads"].values():
            assert entry["supersteps"] > 0
            assert entry["edge_ops"] > 0

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

    def test_zero_tolerance_flags_any_growth(self):
        current = copy.deepcopy(self.base())
        assert regression.compare(current, self.base(), tolerance=0) == []
        current["workloads"]["W"]["edge_ops"] = 101
        assert len(regression.compare(current, self.base(), tolerance=0)) == 1

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.1])
    def test_tolerance_that_would_disable_the_gate_is_an_error(self, bad):
        # `new > old * (1 + nan)` is never true: halved baselines passed.
        current = copy.deepcopy(self.base())
        current["workloads"]["W"]["edge_ops"] = 200
        with pytest.raises(ValueError, match="tolerance"):
            regression.compare(current, self.base(), tolerance=bad)


#: A one-cell matrix: the CLI tests exercise flags and exit codes, not
#: workloads.
ARGS = [
    "--scale", "16000", "--apps", "SSSP", "--graphs", "PK",
    "--engines", "SLFE",
]


def gate_against_edited_self(tmp_path, capsys, *edits):
    """Write a BENCH file, doctor it with ``edits``, gate a rerun on it."""
    out = tmp_path / "bench.json"
    assert regression.main(["--out", str(out)] + ARGS) == 0
    baseline = json.loads(out.read_text())
    for edit in edits:
        edit(baseline)
    regression.validate(baseline)
    out.write_text(json.dumps(baseline))
    capsys.readouterr()
    code = regression.main(
        ["--out", str(tmp_path / "rerun.json"), "--baseline", str(out)]
        + ARGS
    )
    return code, capsys.readouterr()


def halve(metric):
    def edit(baseline):
        for entry in baseline["workloads"].values():
            entry[metric] = max(1, entry[metric] // 2)
    return edit


def add_gone_workload(baseline):
    rows = baseline["workloads"]
    rows["GONE/GONE/GONE"] = next(iter(rows.values()))


def make_legacy(baseline):
    """The shape written before the clock sections were retired."""
    for entry in baseline["workloads"].values():
        entry["wall_seconds"] = 0.012
    for section in CLOCK_SECTIONS:
        baseline[section] = {"advisory": True, "rows": []}


class TestCli:
    def usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            regression.main(argv)
        assert info.value.code == 2
        return capsys.readouterr().err

    def test_nodes_zero_rejected(self, capsys):
        self.usage_error(["--nodes", "0"], capsys)

    def test_scale_negative_rejected(self, capsys):
        self.usage_error(["--scale", "-5"], capsys)

    def test_unknown_graph_rejected_before_anything_runs(self, capsys):
        err = self.usage_error(["--graphs", "NOPE"], capsys)
        assert "invalid choice: 'NOPE'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-0.1", "ten"])
    def test_tolerance_that_would_disable_the_gate_rejected(
        self, bad, capsys
    ):
        err = self.usage_error(["--tolerance=%s" % bad], capsys)
        assert "--tolerance" in err

    def test_writes_and_gates_against_itself(self, tmp_path):
        out = tmp_path / "bench.json"
        assert regression.main(["--out", str(out)] + ARGS) == 0
        regression.validate(json.loads(out.read_text()))
        # A second identical run writes the same bytes, and gated
        # against the first it passes even at zero tolerance.
        out2 = tmp_path / "bench2.json"
        assert regression.main(
            ["--out", str(out2), "--baseline", str(out), "--tolerance", "0"]
            + ARGS
        ) == 0
        assert out2.read_bytes() == out.read_bytes()

    def test_doctored_baseline_fails(self, tmp_path, capsys):
        code, captured = gate_against_edited_self(
            tmp_path, capsys, halve("edge_ops")
        )
        assert code == 1
        assert "REGRESSION" in captured.err


class TestBaselineErrors:
    """A broken --baseline is an operator mistake: the harness must say
    what is wrong in one line and exit 2, never dump a traceback."""

    def run_main(self, tmp_path, baseline, capsys):
        out = tmp_path / "bench.json"
        code = regression.main(
            ["--out", str(out), "--baseline", str(baseline)] + ARGS
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

    def test_workload_set_differences_noted(self, tmp_path, capsys):
        code, captured = gate_against_edited_self(
            tmp_path, capsys, add_gone_workload
        )
        assert code == 0
        assert "GONE/GONE/GONE" in captured.out


class TestLegacyBaseline:
    """A file that still carries ``wall_seconds`` per row and the
    measured sections is a usable baseline: ``validate`` requires and
    ``compare`` reads only the gated metrics."""

    def test_gates_clean_and_notes_workload_set_differences(
        self, tmp_path, capsys
    ):
        code, captured = gate_against_edited_self(
            tmp_path, capsys, make_legacy, add_gone_workload
        )
        assert code == 0
        assert "no regressions" in captured.out
        assert "GONE/GONE/GONE" in captured.out

    def test_still_catches_a_regression(self, tmp_path, capsys):
        code, captured = gate_against_edited_self(
            tmp_path, capsys, make_legacy, halve("messages")
        )
        assert code == 1
        assert "REGRESSION" in captured.err


class TestAsyncSchedulingSection:
    """The RR-composition experiment rides the matrix, ungated."""

    def test_section_shape_and_ungated(self, payload):
        from repro.core.async_engine import SCHEDULERS

        current, _ = payload
        section = current["async_scheduling"]
        assert section["app"] == regression.ASYNC_SCHEDULING_APP
        assert section["graph"] == regression.ASYNC_SCHEDULING_GRAPH
        assert set(section["schedulers"]) == set(SCHEDULERS)
        for row in section["schedulers"].values():
            assert row["rounds"] > 0
            assert row["updates_to_convergence"] > 0
            assert row["scheduled_vertices"] > 0
            assert row["final_delta_mass"] >= 0.0
        assert section["fewest_updates"] in section["schedulers"]
        # Informational only: the gate reads just "workloads".
        assert regression.compare(current, current) == []
