"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.runconfig import configured, current


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(
            ["run", "--app", "SSSP", "--graph", "PK"]
        )
        assert args.engine == "SLFE"
        assert args.nodes == 8

    def test_run_rejects_unknown_app(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--app", "FOO", "--graph", "PK"])

    def test_bench_choices(self):
        args = build_parser().parse_args(["bench", "table5"])
        assert args.artifact == "table5"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "table99"])

    def test_scale_zero_rejected(self):
        # --scale 0 used to fall back to the default via `args.scale or
        # DEFAULT`; it must be an argument error instead.
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--app", "SSSP", "--graph", "PK", "--scale", "0"]
            )

    def test_scale_negative_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["bench", "table5", "--scale", "-4"]
            )

    def test_scale_non_integer_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--app", "SSSP", "--graph", "PK", "--scale", "two"]
            )

    def test_scale_valid_value_parses(self):
        args = build_parser().parse_args(
            ["run", "--app", "SSSP", "--graph", "PK", "--scale", "1"]
        )
        assert args.scale == 1

    @pytest.mark.parametrize("value", ["0", "-3", "two"])
    def test_nodes_invalid_values_rejected(self, value):
        # A zero/negative node count used to surface as a numpy traceback
        # deep inside partitioning; it must be an argument error.
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--app", "SSSP", "--graph", "PK", "--nodes", value]
            )

    def test_checkpoint_every_negative_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--app", "SSSP", "--graph", "PK",
                 "--checkpoint-every", "-1"]
            )

    def test_fault_flags_parse(self):
        args = build_parser().parse_args(
            ["run", "--app", "SSSP", "--graph", "PK",
             "--inject-faults", "crash@3:1", "--checkpoint-every", "2"]
        )
        assert args.inject_faults == "crash@3:1"
        assert args.checkpoint_every == 2


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "friendster" in out
        assert "PowerGraph" in out

    def test_run_minmax(self, capsys):
        code = main([
            "run", "--app", "SSSP", "--graph", "PK",
            "--nodes", "2", "--scale", "16000",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "supersteps" in out
        assert "modeled time" in out

    def test_run_arithmetic_on_baseline(self, capsys):
        code = main([
            "run", "--app", "PR", "--graph", "PK",
            "--engine", "Gemini", "--scale", "16000",
        ])
        assert code == 0
        assert "updates" in capsys.readouterr().out

    def test_bench_single_artifact(self, capsys):
        code = main(["bench", "figure8", "--scale", "16000"])
        assert code == 0
        assert "Figure 8" in capsys.readouterr().out


class TestFaultCommands:
    def test_fault_injected_run_reports_fault_tolerance(self, capsys):
        code = main([
            "run", "--app", "SSSP", "--graph", "PK", "--scale", "16000",
            "--inject-faults", "crash@3:1,slow@2:0x3",
            "--checkpoint-every", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fault tol." in out
        assert "rollback" in out

    def test_clean_run_stays_silent_about_fault_tolerance(self, capsys):
        code = main([
            "run", "--app", "SSSP", "--graph", "PK", "--scale", "16000",
        ])
        assert code == 0
        assert "fault tol." not in capsys.readouterr().out

    def test_fault_injected_results_match_clean_run(self, capsys):
        # The CLI path (ambient install -> engine pickup) must preserve
        # results just like the library path does.
        assert main([
            "run", "--app", "SSSP", "--graph", "PK", "--scale", "16000",
        ]) == 0
        clean = capsys.readouterr().out
        assert main([
            "run", "--app", "SSSP", "--graph", "PK", "--scale", "16000",
            "--inject-faults", "crash@3:1", "--checkpoint-every", "2",
        ]) == 0
        faulty = capsys.readouterr().out

        def values_line(text):
            return next(
                line for line in text.splitlines()
                if line.startswith("values")
            )

        assert values_line(clean) == values_line(faulty)

    def test_bad_fault_spec_is_a_user_error(self, capsys):
        code = main([
            "run", "--app", "SSSP", "--graph", "PK", "--scale", "16000",
            "--inject-faults", "explode@3:1",
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_ambient_plan_uninstalled_after_run(self):
        before = current()
        assert main([
            "run", "--app", "SSSP", "--graph", "PK", "--scale", "16000",
            "--inject-faults", "crash@3:1",
        ]) == 0
        assert current() == before

    def test_bench_recovery_artifact(self, capsys):
        code = main(["bench", "recovery", "--scale", "16000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Recovery overhead" in out
        assert "ft_seconds" in out

    def test_bench_recovery_measured_pool_table(self, capsys):
        code = main([
            "bench", "recovery", "--backend", "parallel", "--workers", "2",
            "--scale", "16000",
        ])
        assert code == 0
        rows = [
            line.split() for line in capsys.readouterr().out.splitlines()
            if line.lstrip().startswith("worker-")
        ]
        assert [row[0] for row in rows] == [
            "worker-crash@1:push-0", "worker-hang@1:push-0",
        ]
        # recovery_s is a stopwatch reading: displayed, never judged.
        for _fault, applied, _respawns, _s, degraded, identical in rows:
            assert (applied, degraded, identical) == (
                "True", "False", "True",
            )


class TestTraceCommands:
    def test_trace_writes_parseable_jsonl(self, capsys, tmp_path):
        out = tmp_path / "trace.jsonl"
        code = main([
            "trace", "--app", "SSSP", "--graph", "PK",
            "--scale", "16000", "--out", str(out),
        ])
        assert code == 0
        events = [
            json.loads(line) for line in out.read_text().splitlines()
        ]
        assert events
        names = {e["event"] for e in events}
        assert {"run_begin", "superstep_begin", "superstep_end",
                "run_end"} <= names
        assert "Trace profile" in capsys.readouterr().out

    def test_trace_csv_out(self, capsys, tmp_path):
        csv_out = tmp_path / "supersteps.csv"
        code = main([
            "trace", "--app", "SSSP", "--graph", "PK", "--scale", "16000",
            "--out", str(tmp_path / "t.jsonl"), "--csv-out", str(csv_out),
        ])
        assert code == 0
        assert csv_out.read_text().startswith("superstep,mode,")

    def test_run_trace_out(self, capsys, tmp_path):
        out = tmp_path / "run.jsonl"
        code = main([
            "run", "--app", "SSSP", "--graph", "PK",
            "--scale", "16000", "--trace-out", str(out),
        ])
        assert code == 0
        assert "trace" in capsys.readouterr().out
        for line in out.read_text().splitlines():
            json.loads(line)

    def test_run_without_trace_out_writes_nothing(self, capsys, tmp_path):
        code = main([
            "run", "--app", "SSSP", "--graph", "PK", "--scale", "16000",
        ])
        assert code == 0
        assert "trace" not in capsys.readouterr().out

    def test_bench_trace_out(self, capsys, tmp_path):
        out = tmp_path / "bench.jsonl"
        before = current()
        code = main([
            "bench", "figure8", "--scale", "16000",
            "--trace-out", str(out),
        ])
        assert code == 0
        # The run config, recorder included, is what it was before.
        assert current() == before
        events = [
            json.loads(line) for line in out.read_text().splitlines()
        ]
        assert sum(1 for e in events if e["event"] == "run_begin") >= 2


class TestCsvExport:
    def test_bench_writes_csv(self, capsys, tmp_path):
        code = main([
            "bench", "figure8", "--scale", "16000",
            "--csv-dir", str(tmp_path),
        ])
        assert code == 0
        csv_path = tmp_path / "figure8.csv"
        assert csv_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("graph,")


class TestPositionalApp:
    def test_positional_app_is_case_insensitive(self):
        args = build_parser().parse_args(["run", "sssp"])
        assert args.app_pos == "SSSP"
        assert args.graph == "LJ"  # default dataset

    def test_flag_spelling_still_works(self, capsys):
        code = main([
            "run", "--app", "SSSP", "--graph", "PK", "--scale", "16000",
        ])
        assert code == 0
        assert "supersteps" in capsys.readouterr().out

    def test_positional_runs(self, capsys):
        code = main([
            "run", "cc", "--graph", "PK", "--scale", "16000",
        ])
        assert code == 0
        assert "application : CC" in capsys.readouterr().out

    def test_conflicting_spellings_rejected(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["run", "sssp", "--app", "PR", "--graph", "PK"])
        assert info.value.code == 2
        assert "conflicting applications" in capsys.readouterr().err

    def test_matching_spellings_accepted(self, capsys):
        code = main([
            "run", "sssp", "--app", "sssp", "--graph", "PK",
            "--scale", "16000",
        ])
        assert code == 0

    def test_missing_app_rejected(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["run", "--graph", "PK"])
        assert info.value.code == 2
        assert "application is required" in capsys.readouterr().err

    def test_unknown_positional_app_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "dijkstra"])


class TestObservabilityOutputs:
    def run_with_profile(self, tmp_path, extra=()):
        prof = tmp_path / "prof"
        metrics = tmp_path / "metrics.txt"
        code = main([
            "run", "sssp", "--graph", "PK", "--nodes", "4",
            "--scale", "16000",
            "--profile-out", str(prof), "--metrics-out", str(metrics),
            *extra,
        ])
        assert code == 0
        return prof, metrics

    def test_metrics_out_is_valid_openmetrics(self, capsys, tmp_path):
        from repro.obs import parse_openmetrics

        _prof, metrics = self.run_with_profile(tmp_path)
        types, samples = parse_openmetrics(metrics.read_text())
        assert types.get("repro_edge_ops") == "counter"
        assert any(name == "repro_runs_total" for name, _l, _v in samples)

    def test_profile_out_writes_all_artifacts(self, capsys, tmp_path):
        prof, _metrics = self.run_with_profile(tmp_path)
        for name in ("trace.jsonl", "chrome_trace.json",
                     "speedscope.json", "metrics.txt"):
            assert (prof / name).exists(), name

    def test_chrome_trace_is_loadable(self, capsys, tmp_path):
        prof, _metrics = self.run_with_profile(tmp_path)
        doc = json.loads((prof / "chrome_trace.json").read_text())
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert complete
        for e in complete:
            assert {"name", "ts", "dur", "pid", "tid"} <= set(e)

    def test_speedscope_is_valid(self, capsys, tmp_path):
        prof, _metrics = self.run_with_profile(tmp_path)
        doc = json.loads((prof / "speedscope.json").read_text())
        assert doc["$schema"].endswith("file-format-schema.json")
        assert doc["profiles"][0]["type"] == "evented"

    def test_results_bit_identical_with_observability_on(
        self, capsys, tmp_path
    ):
        assert main([
            "run", "sssp", "--graph", "PK", "--nodes", "4",
            "--scale", "16000",
        ]) == 0
        plain = capsys.readouterr().out
        self.run_with_profile(tmp_path)
        observed = capsys.readouterr().out

        def summary_lines(text):
            return [
                line for line in text.splitlines()
                if line.startswith(("values", "supersteps", "edge ops",
                                    "updates", "messages"))
            ]

        assert summary_lines(plain) == summary_lines(observed)

    def test_trace_command_accepts_observability_flags(
        self, capsys, tmp_path
    ):
        metrics = tmp_path / "m.txt"
        code = main([
            "trace", "sssp", "--graph", "PK", "--scale", "16000",
            "--out", str(tmp_path / "t.jsonl"),
            "--metrics-out", str(metrics),
        ])
        assert code == 0
        assert metrics.read_text().rstrip().endswith("# EOF")

    def test_bench_accepts_observability_flags(self, capsys, tmp_path):
        prof = tmp_path / "prof"
        code = main([
            "bench", "figure8", "--scale", "16000",
            "--profile-out", str(prof),
        ])
        assert code == 0
        assert (prof / "trace.jsonl").exists()


class TestReportCommand:
    def test_report_from_profile_directory(self, capsys, tmp_path):
        prof = tmp_path / "prof"
        out = tmp_path / "report.html"
        md = tmp_path / "report.md"
        assert main([
            "run", "sssp", "--graph", "PK", "--nodes", "4",
            "--scale", "16000", "--profile-out", str(prof),
        ]) == 0
        capsys.readouterr()
        code = main([
            "report", str(prof), "-o", str(out), "--md-out", str(md),
        ])
        assert code == 0
        page = out.read_text()
        assert page.startswith("<!DOCTYPE html>")
        assert "RR effectiveness" in page
        assert "## RR effectiveness" in md.read_text()
        assert "RR          :" in capsys.readouterr().out

    def test_report_from_jsonl_trace(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        out = tmp_path / "r.html"
        assert main([
            "trace", "sssp", "--graph", "PK", "--scale", "16000",
            "--out", str(trace),
        ]) == 0
        capsys.readouterr()
        assert main(["report", str(trace), "-o", str(out)]) == 0
        assert "RR effectiveness" in out.read_text()

    def test_report_replay_mode(self, capsys, tmp_path):
        out = tmp_path / "r.html"
        code = main([
            "report", "--app", "PR", "--graph", "PK",
            "--scale", "16000", "-o", str(out),
        ])
        assert code == 0
        assert "replayed" in capsys.readouterr().out
        assert "RR effectiveness" in out.read_text()

    def test_report_without_source_or_app_rejected(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["report"])
        assert info.value.code == 2
        assert "application is required" in capsys.readouterr().err

    def test_report_missing_source_is_a_user_error(self, capsys, tmp_path):
        code = main([
            "report", str(tmp_path / "nope.jsonl"),
            "-o", str(tmp_path / "r.html"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestCacheCommands:
    def test_cache_flags_parse(self):
        args = build_parser().parse_args([
            "run", "sssp", "--cache-dir", "/tmp/c",
            "--no-cache", "--cache-max-mb", "64",
        ])
        assert args.cache_dir == "/tmp/c"
        assert args.no_cache is True
        assert args.cache_max_mb == 64

    def test_cache_needs_a_directory(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert main(["cache", "ls"]) == 2
        assert "REPRO_CACHE_DIR" in capsys.readouterr().err

    def test_warm_then_run_reuses_everything(
        self, capsys, tmp_path, monkeypatch
    ):
        cache_dir = str(tmp_path / "cache")
        code = main([
            "cache", "warm", "sssp", "--graph", "PK",
            "--scale", "16000", "--cache-dir", cache_dir,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "warmed SSSP on PK" in out
        assert "2 store(s)" in out

        # A later job is a fresh process: empty the in-process graph
        # memo so the run has to go through the on-disk store.
        from repro.graph import datasets

        monkeypatch.setattr(datasets, "_cache", {})
        metrics_path = str(tmp_path / "metrics.txt")
        code = main([
            "run", "sssp", "--graph", "PK", "--scale", "16000",
            "--cache-dir", cache_dir, "--metrics-out", metrics_path,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 hit(s), 0 miss(es)" in out
        text = open(metrics_path).read()
        # The acceptance bar: a warmed store makes guidance generation
        # free — the registry must report zero preprocessing edge ops.
        assert (
            'repro_preprocessing_edge_ops_total'
            '{app="SSSP",engine="SLFE",graph="PK"} 0' in text
        )
        assert 'kind="guidance",outcome="hit"' in text

    def test_cached_run_matches_cold_run(self, capsys, tmp_path):
        cold = main([
            "run", "sssp", "--graph", "PK", "--nodes", "2",
            "--scale", "16000",
        ])
        assert cold == 0
        cold_out = capsys.readouterr().out
        cache_dir = str(tmp_path / "cache")
        for _ in range(2):  # second pass runs entirely from the store
            code = main([
                "run", "sssp", "--graph", "PK", "--nodes", "2",
                "--scale", "16000", "--cache-dir", cache_dir,
            ])
            assert code == 0
            warm_out = capsys.readouterr().out

        def values_line(text):
            lines = [x for x in text.splitlines() if x.startswith("values")]
            return lines[0]

        assert values_line(warm_out) == values_line(cold_out)

    def test_ls_info_clear(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main([
            "cache", "warm", "pr", "--graph", "PK",
            "--scale", "16000", "--cache-dir", cache_dir,
        ]) == 0
        capsys.readouterr()
        assert main(["cache", "ls", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "guidance/" in out and "graph/PK" in out
        assert main(["cache", "info", "graph/PK", "--cache-dir", cache_dir]) == 0
        assert '"fingerprint"' in capsys.readouterr().out
        assert main(["cache", "info", "nope", "--cache-dir", cache_dir]) == 1
        capsys.readouterr()
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert main(["cache", "ls", "--cache-dir", cache_dir]) == 0
        assert "0 entries" in capsys.readouterr().out

    def test_shard_then_stream_from_the_store(self, capsys, tmp_path):
        import os
        import re

        cache_dir = str(tmp_path / "cache")
        assert main([
            "cache", "shard", "pr", "--graph", "PK", "--scale", "16000",
            "--shard-mb", "0.001", "--cache-dir", cache_dir,
        ]) == 0
        out = capsys.readouterr().out
        shards = int(re.search(r"(\d+) shard\(s\) per direction", out).group(1))
        assert main(["cache", "ls", "--cache-dir", cache_dir]) == 0
        listing = capsys.readouterr().out
        assert listing.count("/in/part/") == shards >= 3
        # One .bin payload per listed part, and ls counts their bytes.
        names = os.listdir(os.path.join(cache_dir, "shards"))
        assert sum(n.endswith(".bin") for n in names) == listing.count("/part/")
        on_disk = sum(
            os.path.getsize(os.path.join(cache_dir, "shards", n))
            for n in names
        )
        assert "%d bytes" % on_disk in listing

        def values_line(extra):
            assert main([
                "run", "pr", "--graph", "PK", "--scale", "16000", *extra,
            ]) == 0
            out = capsys.readouterr().out
            return [x for x in out.splitlines() if x.startswith("values")], out

        streamed, out = values_line([
            "--backend", "ooc", "--shard-mb", "0.001", "--shard-cache", "2",
            "--cache-dir", cache_dir,
        ])
        # Warm: every part was fetched from the store, none re-sharded.
        assert int(re.search(r"(\d+) hit\(s\)", out).group(1)) > shards
        assert main(["cache", "ls", "--cache-dir", cache_dir]) == 0
        after = capsys.readouterr().out
        assert after.count("/part/") == listing.count("/part/")
        assert streamed == values_line([])[0]

    def test_env_default_and_no_cache(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        code = main([
            "run", "sssp", "--graph", "PK", "--nodes", "2",
            "--scale", "16000",
        ])
        assert code == 0
        assert "cache       :" in capsys.readouterr().out
        code = main([
            "run", "sssp", "--graph", "PK", "--nodes", "2",
            "--scale", "16000", "--no-cache",
        ])
        assert code == 0
        assert "cache       :" not in capsys.readouterr().out

    def test_store_uninstalled_after_run(self, tmp_path):
        assert main([
            "run", "sssp", "--graph", "PK", "--nodes", "2",
            "--scale", "16000", "--cache-dir", str(tmp_path / "c"),
        ]) == 0
        assert current().store is None


class TestBackendFlags:
    def test_run_backend_flags_parse(self):
        args = build_parser().parse_args(
            ["run", "--app", "SSSP", "--graph", "PK",
             "--backend", "parallel", "--workers", "4"]
        )
        assert args.backend == "parallel"
        assert args.workers == 4

    def test_backend_defaults_to_none(self):
        # None means "inherit the configured backend", which the engine
        # resolves to serial unless something configured parallel.
        args = build_parser().parse_args(
            ["run", "--app", "SSSP", "--graph", "PK"]
        )
        assert args.backend is None
        assert args.workers is None

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--app", "SSSP", "--graph", "PK",
                 "--backend", "threads"]
            )

    @pytest.mark.parametrize("value", ["0", "-2", "two"])
    def test_invalid_workers_rejected(self, value):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--app", "SSSP", "--graph", "PK",
                 "--workers", value]
            )

    def test_trace_accepts_backend_flags(self):
        args = build_parser().parse_args(
            ["trace", "--app", "SSSP", "--graph", "PK",
             "--backend", "parallel", "--workers", "2"]
        )
        assert args.backend == "parallel"

    def test_bench_accepts_backend_flags(self):
        args = build_parser().parse_args(
            ["bench", "table5", "--backend", "parallel", "--workers", "2"]
        )
        assert args.workers == 2

    def test_run_parallel_end_to_end(self, capsys):
        code = main([
            "run", "--app", "SSSP", "--graph", "PK", "--nodes", "2",
            "--scale", "16000", "--backend", "parallel", "--workers", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "measured" in out
        assert "parallel backend, 2 worker(s)" in out

    def test_run_serial_and_parallel_print_same_model_numbers(self, capsys):
        base = ["run", "--app", "CC", "--graph", "PK", "--nodes", "2",
                "--scale", "16000"]
        assert main(base) == 0
        serial = capsys.readouterr().out
        assert main(base + ["--backend", "parallel", "--workers", "2"]) == 0
        par = capsys.readouterr().out

        def model_lines(text):
            return [line for line in text.splitlines()
                    if "measured" not in line]

        assert model_lines(serial) == model_lines(par)

    def test_bench_restores_ambient_backend(self):
        before = current()
        assert main(["bench", "figure8", "--scale", "16000",
                     "--backend", "parallel", "--workers", "2"]) == 0
        assert current() == before


class TestLiveTelemetryCLI:
    """--serve-metrics, the always-on flight recorder, and `repro top`."""

    def test_serve_metrics_announces_the_endpoint(self, capsys):
        code = main([
            "run", "sssp", "--graph", "PK", "--nodes", "2",
            "--scale", "16000", "--serve-metrics", "0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "/metrics (and /healthz)" in out

    def test_serve_metrics_linger_window_is_scrapeable(self, capsys):
        # The linger thread races the run on purpose: start a scraper
        # that waits for the announced URL, then keep the endpoint up
        # long enough for it to land after the run finished.
        import re
        import threading
        import time

        from repro.obs.live import scrape
        from repro.obs.metrics import parse_openmetrics

        results = {}
        out_box = []

        def scraper():
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                match = out_box and re.search(
                    r"http://127\.0\.0\.1:\d+", out_box[0]
                )
                if match:
                    results["text"] = scrape(match.group(0) + "/metrics")
                    return
                time.sleep(0.01)

        thread = threading.Thread(target=scraper)
        thread.start()

        class Tee:
            def __init__(self, wrapped):
                self.wrapped = wrapped

            def write(self, text):
                if "http://" in text:
                    out_box.append(text)
                return self.wrapped.write(text)

            def flush(self):
                self.wrapped.flush()

        import sys as _sys

        original = _sys.stdout
        _sys.stdout = Tee(original)
        try:
            code = main([
                "run", "sssp", "--graph", "PK", "--nodes", "2",
                "--scale", "16000", "--serve-metrics", "0",
                "--serve-metrics-linger", "3",
            ])
        finally:
            _sys.stdout = original
            thread.join(timeout=15)
        assert code == 0
        types, _samples = parse_openmetrics(results["text"])
        assert types.get("repro_parallel_live_workers") == "gauge"

    def test_degraded_run_dumps_a_replayable_flight(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.trace.export import read_jsonl

        monkeypatch.chdir(tmp_path)
        code = main([
            "run", "sssp", "--graph", "PK", "--nodes", "2",
            "--scale", "16000", "--backend", "parallel", "--workers", "2",
            "--parallel-max-respawns", "0",
            "--inject-faults", "worker-crash@1:push-0",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "flight      : degraded ->" in err
        flights = list(tmp_path.glob("flight-*.jsonl"))
        assert len(flights) == 1
        replayed = read_jsonl(str(flights[0]))
        names = {e.name for e in replayed.events}
        assert "parallel_recovery" in names

    def test_clean_run_leaves_no_flight_dump(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        assert main([
            "run", "sssp", "--graph", "PK", "--nodes", "2",
            "--scale", "16000",
        ]) == 0
        assert list(tmp_path.glob("flight-*.jsonl")) == []

    def test_top_once_renders_a_live_frame(self, capsys):
        from repro.bench.runner import run_workload
        from repro.obs.live import FlightRecorder, LiveTelemetryPlane

        plane = LiveTelemetryPlane(
            recorder=FlightRecorder(capacity=None), serve_port=0
        )
        try:
            with configured(live_plane=plane):
                run_workload("SLFE", "SSSP", "PK", num_nodes=2,
                             scale_divisor=16000)
                code = main([
                    "top", "127.0.0.1:%d" % plane.server.port, "--once",
                ])
        finally:
            plane.close()
        assert code == 0
        out = capsys.readouterr().out
        assert "repro top" in out

    @pytest.mark.parametrize("argv,named", [
        (["run", "sssp", "--graph", "PK", "--scale", "16000",
          "--serve-metrics", "0", "--serve-metrics-linger", "inf"],
         "serve-metrics-linger"),
        (["run", "sssp", "--graph", "PK", "--scale", "16000",
          "--serve-metrics", "0", "--serve-metrics-linger", "-1"],
         "serve-metrics-linger"),
        (["top", "127.0.0.1:1", "--once", "--timeout", "0",
          "--interval", "0"], "interval"),
        (["top", "127.0.0.1:1", "--once", "--timeout", "0",
          "--interval", "inf"], "interval"),
        (["top", "127.0.0.1:1", "--once", "--timeout", "-1"], "timeout"),
        (["top", "127.0.0.1:1", "--once", "--timeout", "nan"], "timeout"),
    ], ids=["linger-inf", "linger-negative", "interval-zero",
            "interval-inf", "timeout-negative", "timeout-nan"])
    def test_bad_seconds_are_usage_errors(self, argv, named, capsys):
        # An infinite linger used to crash in time.sleep after the run
        # printed its results, leaving the endpoint up.
        assert _exit_code(argv) == 2
        err = capsys.readouterr().err
        assert "%s must be a" % named in err

    def test_zero_linger_and_timeout_stay_valid(self):
        parser = build_parser()
        run = parser.parse_args([
            "run", "sssp", "--graph", "PK", "--serve-metrics-linger", "0",
        ])
        top = parser.parse_args(["top", "--timeout", "0", "--interval", "0.5"])
        assert run.serve_metrics_linger == 0.0
        assert (top.timeout, top.interval) == (0.0, 0.5)

    def test_top_unreachable_endpoint_is_a_user_error(self, capsys):
        code = main([
            "top", "127.0.0.1:1", "--once", "--timeout", "0.2",
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err


def _exit_code(argv):
    """main()'s exit status, whether argparse or main() reports it."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestRunConfigBoundaries:
    """Usage errors stay usage errors; main() leaves the config as found."""

    RUN = ["run", "sssp", "--graph", "PK", "--scale", "16000"]

    @pytest.mark.parametrize("argv,env,named", [
        (RUN + ["--parallel-timeout", "0"], {}, "parallel-timeout"),
        (RUN + ["--parallel-max-respawns=-1"], {}, "parallel-max-respawns"),
        (["run", "pr", "--graph", "PK", "--scale", "16000",
          "--backend", "ooc"], {"REPRO_SHARD_MB": "abc"}, "REPRO_SHARD_MB"),
    ])
    def test_bad_knob_exits_2_without_a_flight_dump(
        self, argv, env, named, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert _exit_code(argv) == 2
        assert named in capsys.readouterr().err
        assert list(tmp_path.glob("flight-*.jsonl")) == []

    @pytest.mark.parametrize("argv,code", [
        (RUN, 0),
        (["trace", "sssp", "--graph", "PK", "--scale", "16000",
          "--out", "t.jsonl"], 0),
        (["bench", "figure8", "--scale", "16000"], 0),
        (["cache", "warm", "sssp", "--graph", "PK", "--scale", "16000",
          "--cache-dir", "cache"], 0),
        (["run", "sssp", "--graph", "NOPE", "--scale", "16000"], 2),
    ], ids=["run", "trace", "bench", "cache-warm", "failing"])
    def test_main_restores_the_callers_config(
        self, argv, code, capsys, tmp_path, monkeypatch
    ):
        from repro.cluster.faults import FaultPlan
        from repro.store import ArtifactStore
        from repro.trace.recorder import TraceRecorder

        monkeypatch.chdir(tmp_path)
        with configured(
            fault_plan=FaultPlan.parse("crash@3:1", num_nodes=8),
            checkpoint_every=3,
            recorder=TraceRecorder(),
            store=ArtifactStore(str(tmp_path / "outer")),
        ):
            before = current()
            assert _exit_code(argv) == code
            assert current() == before
