"""``perfbench run``: every workload, each in a fresh child interpreter.

One driver process starts one ``measure`` child at a time and waits for
it, so the machine never runs more than the child (plus, on
``pr-parallel``, its ``min(2, nproc)`` pool workers while the child
itself waits on them).  A child that dies or hangs is recorded as a
failed job; the driver carries on with the next workload.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
from typing import Dict, Optional

from perfbench.env import (
    REPO_ROOT,
    git_commit,
    host_fingerprint,
    pin_environment,
)
from perfbench.metrics import PREPROCESS_WORKLOADS

#: The benchmark contract's cap on one ``measure`` run.
CHILD_TIMEOUT_SECONDS = 170.0


def manifest() -> Dict[str, object]:
    """``BENCHMARK.json``: workload list, metric bounds, run length."""
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _child_failure(reason: str) -> Dict[str, object]:
    return {
        "graph": {}, "k": 0, "attempted": 1, "failed": 1, "correct": False,
        "failures": [reason], "metrics": {},
    }


def _measure_in_child(
    name: str, seed: int, seconds: float, trace: int, smoke: bool, tmp: str
) -> Dict[str, object]:
    out = os.path.join(tmp, "%s-trace%d.json" % (name, trace))
    command = [
        sys.executable, "-m", "perfbench", "measure",
        "--workload", name, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", str(trace), "--out", out,
        "--scratch-dir", tmp,
    ]
    if smoke:
        command.append("--smoke")
    env = dict(os.environ)
    pin_environment(env)
    # Its own session, so a hung child's pool workers die with it.
    child = subprocess.Popen(
        command, cwd=REPO_ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        _, stderr = child.communicate(timeout=CHILD_TIMEOUT_SECONDS)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        return _child_failure(
            "child timed out after %.0f s" % CHILD_TIMEOUT_SECONDS
        )
    if child.returncode != 0 or not os.path.exists(out):
        last = stderr.strip().splitlines()[-1:] or ["no stderr"]
        return _child_failure(
            "child exited with code %d: %s" % (child.returncode, last[0])
        )
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def _print_workload(name: str, entry: Dict[str, object]) -> None:
    graph = entry["graph"]
    print("== %s  |V|=%s |E|=%s  k=%s" % (
        name, graph.get("vertices", "?"), graph.get("edges", "?"), entry["k"],
    ))
    for section in ("end_to_end", "per_layer"):
        for metric, item in entry[section].items():
            print("  %-44s %.6g %s" % (metric, item["value"], item["unit"]))
    print("  %-44s %d of %d" % (
        "jobs_failed", entry["failed"], entry["attempted"],
    ))
    for reason in entry["failures"]:
        print("  failure: %s" % reason)


def run_suite(
    seed: int, smoke: bool, out: Optional[str], scratch_dir: str
) -> int:
    """Measure every workload for the manifest's ``run_seconds``;
    returns a process exit code."""
    declared = manifest()
    seconds = float(declared["run_seconds"])

    workloads: Dict[str, object] = {}
    os.makedirs(scratch_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch_dir) as tmp:
        for name in [workload["name"] for workload in declared["workloads"]]:
            timed = _measure_in_child(name, seed, seconds, 0, smoke, tmp)
            traced = _measure_in_child(name, seed, seconds, 1, smoke, tmp)
            entry = {
                "graph": timed["graph"] or traced["graph"],
                "k": timed["k"],
                "job_s_min": timed.get("job_s_min", 0.0),
                "job_s_quartiles": timed.get("job_s_quartiles", []),
                "attempted": timed["attempted"] + traced["attempted"],
                "failed": timed["failed"] + traced["failed"],
                "failures": timed["failures"] + traced["failures"],
                "end_to_end": {
                    metric: item for metric, item in timed["metrics"].items()
                    if metric != "preprocess_s" or name in PREPROCESS_WORKLOADS
                },
                "per_layer": traced["metrics"],
            }
            workloads[name] = entry
            _print_workload(name, entry)

    failed = sum(entry["failed"] for entry in workloads.values())
    attempted = sum(entry["attempted"] for entry in workloads.values())
    print("jobs_failed %d of %d across %d workloads"
          % (failed, attempted, len(workloads)))
    if out:
        result = {
            "schema": 1,
            "host": host_fingerprint(),
            "git_commit": git_commit(),
            "seed": seed,
            "seconds": seconds,
            "smoke": smoke,
            "workloads": workloads,
        }
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=1)
            handle.write("\n")
        print("wrote %s" % out)
    return 1 if failed else 0
