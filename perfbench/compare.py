"""``perfbench compare BASE OTHER``: two result sets against the bounds.

One row per workload × end-to-end metric: both medians, OTHER/BASE, and
a verdict against that metric's bound in ``BENCHMARK.json`` (every one
is lower-is-better).  A metric that worsened by more than its bound, a
metric or workload that only one set has, or a larger share of failed
jobs makes the exit code non-zero.  ``better`` marks a metric that
improved by more than its bound: it fails nothing, but two sets of one
commit *agree* only when no row reads ``WORSE`` or ``better``.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from perfbench.suite import manifest

Row = Tuple[str, str, float, float, float, float, str]


def _failed_share(entry: Dict[str, object]) -> float:
    return entry["failed"] / entry["attempted"] if entry["attempted"] else 1.0


def compare(
    base: Dict[str, object], other: Dict[str, object]
) -> Tuple[List[Row], bool]:
    """``(rows, ok)``; a row is ``(workload, metric, base, other,
    other/base, bound, verdict)``."""
    rows: List[Row] = []
    ok = True
    specs = manifest()["end_to_end"]
    for workload, base_entry in base["workloads"].items():
        other_entry = other["workloads"].get(workload)
        if other_entry is None:
            rows.append((workload, "*", 0.0, 0.0, 0.0, 0.0, "MISSING"))
            ok = False
            continue
        for spec in specs:
            name, bound = spec["name"], spec["bound"]
            a = base_entry["end_to_end"].get(name, {}).get("value", 0.0)
            b = other_entry["end_to_end"].get(name, {}).get("value", 0.0)
            if not a and not b:
                continue  # not reported on this workload
            if not a or not b:
                rows.append((workload, name, a, b, 0.0, bound, "MISSING"))
                ok = False
                continue
            ratio = b / a
            if ratio - 1.0 > bound:
                verdict = "WORSE"
                ok = False
            else:
                verdict = "better" if a / b - 1.0 > bound else "ok"
            rows.append((workload, name, a, b, ratio, bound, verdict))
        a, b = _failed_share(base_entry), _failed_share(other_entry)
        verdict = "WORSE" if b > a else "ok"
        ok = ok and verdict == "ok"
        rows.append((workload, "jobs_failed_share", a, b, 0.0, 0.0, verdict))
    return rows, ok


def compare_files(base_path: str, other_path: str) -> int:
    with open(base_path, encoding="utf-8") as handle:
        base = json.load(handle)
    with open(other_path, encoding="utf-8") as handle:
        other = json.load(handle)
    rows, ok = compare(base, other)
    print("base  = %s (commit %s)" % (base_path, base.get("git_commit")))
    print("other = %s (commit %s)" % (other_path, other.get("git_commit")))
    print("%-12s %-18s %12s %12s %11s %6s  %s" % (
        "workload", "metric", "base", "other", "other/base", "bound", "verdict",
    ))
    for workload, metric, a, b, ratio, bound, verdict in rows:
        print("%-12s %-18s %12.6g %12.6g %11.4f %6.2f  %s" % (
            workload, metric, a, b, ratio, bound, verdict,
        ))
    print("all within bounds" if ok else "OUTSIDE BOUNDS")
    return 0 if ok else 1
