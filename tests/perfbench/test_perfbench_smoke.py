"""Smoke test of the perfbench benchmark (tier-1, a few seconds).

Checks the benchmark's contract rather than any number: every declared
workload and metric is emitted, a wrong result is counted as a failed
job, span self times add up, the wrappers come off, and nothing leaks.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import threading

import numpy as np
import pytest

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
for path in (REPO_ROOT, os.path.join(REPO_ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import layers, measure as measure_mod  # noqa: E402
from perfbench.compare import compare  # noqa: E402
from perfbench.metrics import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    PREPROCESS_WORKLOADS,
)
from perfbench.spans import Span, SpanLog, Target, instrument, self_ns  # noqa: E402
from perfbench.verify import (  # noqa: E402
    component_labels,
    pagerank_failures,
    sssp_failures,
)
from perfbench.workloads import WORKLOADS, build_graph, job_root  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _manifest():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _perfbench(*args, cwd=REPO_ROOT, env=None):
    return subprocess.run(
        [sys.executable, "-m", "perfbench", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def _processes_naming(path):
    """Command lines of live processes that name ``path``: the
    ``measure`` children of the one run that was given it as its
    scratch directory (a leaked pool worker is a fork of one, so it
    shows up here too)."""
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open("/proc/%s/cmdline" % pid, "rb") as handle:
                words = handle.read().split(b"\0")
        except OSError:
            continue
        if any(os.fsencode(path) in word for word in words):
            found.append(words)
    return found


def _processes_in_session(session):
    """Pids (zombies too) in the session a child was started in: all
    it forked, whatever their command line, unless they left it."""
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open("/proc/%s/stat" % pid, encoding="ascii") as handle:
                fields = handle.read().rpartition(")")[2].split()
        except OSError:
            continue
        if int(fields[3]) == session:
            found.append(int(pid))
    return found


def _all_targets():
    targets = layers.setup_targets() + layers.preprocess_targets()
    for backend in ("serial", "parallel", "ooc"):
        targets += layers.job_targets(backend)
    return targets


# ----------------------------------------------------------------------
# the manifest and the registry describe the same benchmark
# ----------------------------------------------------------------------
def test_manifest_matches_registry_and_contract_limits():
    manifest = _manifest()
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in manifest["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in manifest["per_layer"]] == PER_LAYER
    assert [(w["name"], w["why"]) for w in manifest["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    names = [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    names += [w["name"] for w in manifest["workloads"]]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    assert 2 <= len(manifest["workloads"]) <= 8
    assert len(manifest["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


# ----------------------------------------------------------------------
# run --smoke: every workload, every metric, nothing left behind
# ----------------------------------------------------------------------
def test_run_smoke_emits_every_metric_and_leaks_nothing(tmp_path):
    out = tmp_path / "smoke.json"
    scratch = tmp_path / "scratch"
    done = _perfbench("run", "--smoke", "--seed", "7", "--out", str(out),
                      "--scratch-dir", str(scratch))
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(out.read_text())
    manifest = _manifest()
    assert result["smoke"] is True and result["seed"] == 7
    assert {"cpu_count", "python", "numpy", "platform"} <= set(result["host"])
    assert list(result["workloads"]) == [w["name"] for w in manifest["workloads"]]

    for name, entry in result["workloads"].items():
        assert entry["failed"] == 0 and entry["attempted"] >= 2, (name, entry)
        assert entry["graph"]["vertices"] > 0 and entry["k"] == 1
        for section in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in manifest[section]}
            if name not in PREPROCESS_WORKLOADS:
                declared.pop("preprocess_s", None)
            assert set(entry[section]) == set(declared), (name, section)
            for metric, item in entry[section].items():
                assert NAME.match(metric)
                assert item["unit"] == declared[metric]
                assert math.isfinite(item["value"]), (name, metric)
        assert all(item["value"] > 0 for item in entry["end_to_end"].values())
    assert ("  %-44s" % "job_s") in done.stdout

    # The layers separate: a backend's metrics are non-zero only on its
    # own workload.
    for prefix, owner in (("parallel.", "pr-parallel"), ("ooc.", "pr-ooc"),
                          ("graph.shards.", "pr-ooc")):
        for name, entry in result["workloads"].items():
            total = sum(item["value"] for metric, item in
                        entry["per_layer"].items() if metric.startswith(prefix))
            assert (total > 0) == (name == owner), (prefix, name, total)

    # Only what this run made: its own scratch directory, and the
    # processes whose command line names it.
    assert os.listdir(scratch) == []
    assert _processes_naming(str(scratch)) == []


def test_measure_line_has_every_end_to_end_metric(tmp_path):
    """The benchmark driver reads every end-to-end metric, none of them
    0, off the last line of every ``--trace 0`` run, ``preprocess_s``
    included on the workloads whose result sets leave it out."""
    done = _perfbench(
        "measure", "--workload", "pr-norr", "--seed", "7", "--seconds", "0",
        "--trace", "0", "--smoke", "--scratch-dir", str(tmp_path),
    )
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert list(line["metrics"]) == [name for name, *_ in END_TO_END]
    assert all(item["value"] > 0 for item in line["metrics"].values())


def test_pool_measure_leaves_no_process_behind(tmp_path):
    """Not the pool workers and not multiprocessing's resource tracker,
    which by itself only exits some time after its parent has."""
    child = subprocess.Popen(
        [sys.executable, "-m", "perfbench", "measure", "--workload",
         "pr-parallel", "--seed", "7", "--seconds", "0", "--trace", "0",
         "--smoke", "--scratch-dir", str(tmp_path)],
        cwd=REPO_ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    stdout, stderr = child.communicate(timeout=120)
    assert child.returncode == 0, stdout + stderr
    assert json.loads(stdout.splitlines()[-1])["correct"] is True
    assert _processes_in_session(child.pid) == []


def test_pool_job_unlinks_every_segment_it_created(monkeypatch, tmp_path):
    from multiprocessing import shared_memory

    created = []
    real_init = shared_memory.SharedMemory.__init__

    def recording_init(self, name=None, create=False, size=0, **kwargs):
        real_init(self, name=name, create=create, size=size, **kwargs)
        if create:
            created.append(self.name)

    monkeypatch.setattr(
        shared_memory.SharedMemory, "__init__", recording_init
    )
    report = measure_mod.measure(
        "pr-parallel", 7, 0.0, trace=0, smoke=True, scratch_dir=str(tmp_path)
    )
    assert report["failed"] == 0, report["failures"]
    assert created
    assert not [name for name in created
                if os.path.exists("/dev/shm/" + name.lstrip("/"))]
    assert os.listdir(tmp_path) == []


def test_measure_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark there is nothing to
    measure: non-zero exit, no result line."""
    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), tmp_path)
    for path in _manifest()["paths"]:
        shutil.copytree(os.path.join(REPO_ROOT, path), tmp_path / path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = _perfbench(
        "measure", "--workload", "pr-rr", "--seed", "1", "--seconds", "1",
        "--trace", "0", "--scratch-dir", str(tmp_path / "scratch"),
        cwd=str(tmp_path), env=env,
    )
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


# ----------------------------------------------------------------------
# verification
# ----------------------------------------------------------------------
def test_corrupted_result_is_one_failed_job(monkeypatch, tmp_path):
    real_run_job = measure_mod.run_job
    calls = []

    def corrupt_the_timed_job(*args, **kwargs):
        result = real_run_job(*args, **kwargs)
        calls.append(result)
        if len(calls) == 3:  # throw-away, warm-up, then the timed job
            reached = np.flatnonzero(np.isfinite(result.values))
            result.values[reached[-1]] += 1.0
        return result

    monkeypatch.setattr(measure_mod, "run_job", corrupt_the_timed_job)
    report = measure_mod.measure(
        "sssp-grid", 3, 0.0, trace=0, smoke=True, scratch_dir=str(tmp_path)
    )
    assert report["attempted"] == 2
    assert report["failed"] == 1 and report["correct"] is False
    assert report["failures"]


def test_certificates_accept_right_and_reject_wrong_answers():
    from repro.apps import reference

    workload = WORKLOADS["sssp-social"]
    graph = build_graph(workload, seed=5, smoke=True)
    root = job_root(workload, graph)
    dist = reference.dijkstra(graph, root)
    assert sssp_failures(graph, root, dist) == []
    reached = np.flatnonzero(np.isfinite(dist) & (dist > 0))
    for delta in (-0.5, 0.5):
        wrong = dist.copy()
        wrong[reached[0]] += delta
        assert sssp_failures(graph, root, wrong)

    # The vectorised component oracle is itself checked against the
    # repo's union-find reference.
    assert np.array_equal(
        component_labels(graph), reference.connected_components(graph)
    )

    ranks = reference.pagerank(graph, tolerance=1e-12, max_iterations=1000)
    assert pagerank_failures(graph, ranks) == []
    assert pagerank_failures(graph, ranks * 1.01)
    assert pagerank_failures(graph, np.full_like(ranks, np.nan))


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def test_self_time_of_nested_and_cross_thread_spans():
    root = Span("root", "m.root_s", 0, 100, thread=1)
    child = Span("child", "m.child_s", 10, 40, parent=root, thread=1)
    leaf = Span("leaf", "m.leaf_s", 20, 30, parent=child, thread=1)
    sibling = Span("sibling", "m.child_s", 50, 60, parent=root, thread=1)
    # Overlaps root in time but runs on another thread: busy time of
    # its own, never subtracted from the thread that did not wait.
    other = Span("other", "m.other_s", 15, 90, thread=2)
    spans = [root, child, leaf, sibling, other]
    own = self_ns(spans)
    assert own == {root: 60, child: 20, leaf: 10, sibling: 10, other: 75}
    main = [s for s in spans if s.thread == 1]
    assert sum(own[s] for s in main) == root.duration_ns
    by_metric = layers.self_seconds_by_metric(spans)
    assert by_metric["m.child_s"] == pytest.approx(30e-9)


def test_instrumented_calls_nest_per_thread():
    class Layer:
        def outer(self):
            worker = threading.Thread(target=self.inner)
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
            return self.inner()

        def inner(self):
            return 1

    log = SpanLog()
    targets = [Target(Layer, "outer", "t.outer_s"),
               Target(Layer, "inner", "t.inner_s",
                      lambda args, result: {"calls": result})]
    original = vars(Layer)["inner"]
    with instrument(log, targets):
        assert vars(Layer)["inner"] is not original
        Layer().outer()
    assert vars(Layer)["inner"] is original
    outer, threaded, nested = log.spans
    assert threaded.parent is None and threaded.thread != outer.thread
    assert nested.parent is outer and nested.counts == {"calls": 1}
    assert self_ns(log.spans)[outer] == outer.duration_ns - nested.duration_ns


def test_wrappers_come_off_after_a_traced_run_and_after_an_error(tmp_path):
    targets = _all_targets()
    originals = [vars(t.owner)[t.attr] for t in targets]
    report = measure_mod.measure(
        "cc-rr", 11, 0.0, trace=1, smoke=True, scratch_dir=str(tmp_path)
    )
    assert report["failed"] == 0, report["failures"]
    assert all(vars(t.owner)[t.attr] is raw
               for t, raw in zip(targets, originals))

    with pytest.raises(RuntimeError):
        with instrument(SpanLog(), layers.job_targets("serial")):
            raise RuntimeError("job blew up")
    assert all(vars(t.owner)[t.attr] is raw
               for t, raw in zip(targets, originals))

    # The traced job's self times tile its wall clock: every metric in
    # seconds, minus the ones measured outside the traced job.
    outside = ("perfbench.", "graph.generators.", "graph.csr.build_s",
               "core.rrg.", "baselines.", "cluster.modeled")
    tiled = sum(item["value"] for name, item in report["metrics"].items()
                if item["unit"] == "s" and not name.startswith(outside))
    traced_job_s = report["metrics"]["perfbench.traced_job_s"]["value"]
    assert tiled == pytest.approx(traced_job_s, rel=1e-6)


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def _result_set(job_s=1.0, failed=0):
    metrics = {name: {"value": 1.0, "unit": unit}
               for name, unit, _, _ in END_TO_END}
    metrics["job_s"]["value"] = job_s
    return {"workloads": {"pr-rr": {
        "attempted": 10, "failed": failed, "end_to_end": metrics,
    }}}


def test_compare_judges_against_the_manifest_bounds():
    bound = {name: bound for name, _, _, bound in END_TO_END}["job_s"]
    inside, outside = 1.0 + bound - 0.01, 1.0 + bound + 0.01
    assert compare(_result_set(), _result_set(job_s=inside))[1] is True
    rows, ok = compare(_result_set(), _result_set(job_s=outside))
    assert ok is False
    assert [r[6] for r in rows if r[1] == "job_s"] == ["WORSE"]
    rows, ok = compare(_result_set(), _result_set(job_s=0.5))
    assert ok is True  # an improvement passes, and is marked as one
    assert [r[6] for r in rows if r[1] == "job_s"] == ["better"]
    # A metric neither set reports on a workload is no row at all.
    a, b = _result_set(), _result_set()
    del a["workloads"]["pr-rr"]["end_to_end"]["preprocess_s"]
    assert compare(a, b)[1] is False
    del b["workloads"]["pr-rr"]["end_to_end"]["preprocess_s"]
    rows, ok = compare(a, b)
    assert ok is True and "preprocess_s" not in [r[1] for r in rows]
    assert compare(_result_set(), _result_set(failed=1))[1] is False
    assert compare(_result_set(), {"workloads": {}})[1] is False
