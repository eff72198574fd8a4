"""Every place that counts a run's supersteps gives the same number.

A run's superstep count is read five ways: ``result.iterations``,
``metrics.num_iterations``, the ``superstep_begin`` and
``superstep_end`` events of its trace, and the report built from that
trace (its Runs-row ``iterations`` and the length of its superstep
timeline).  They must all agree on every engine x application, on the
ooc backend and a 2-worker pool for the SLFE family, and through a
crash rollback; a phantom superstep (counted by one reader and not by
the others) fails here.
"""

import pytest

from repro.bench.runner import run_workload
from repro.bench.workloads import APP_ORDER
from repro.cluster.faults import FaultPlan
from repro.obs import build_report
from repro.runconfig import configured
from repro.trace import recorder as trace_events
from repro.trace import TraceRecorder

SCALE = 16000
NODES = 4
ENGINES = ("SLFE", "SLFE-noRR", "Async", "Gemini", "Ligra", "PowerGraph",
           "PowerLyra", "GraphChi")

CASES = [
    pytest.param(engine, app, "serial", False, id="%s-%s" % (engine, app))
    for engine in ENGINES
    for app in APP_ORDER
    # The async engine refuses TunkRank (not delta-accumulative).
    if (engine, app) != ("Async", "TR")
] + [
    pytest.param(engine, app, backend, False,
                 id="%s-%s-%s" % (engine, app, backend))
    for engine in ("SLFE", "SLFE-noRR")
    for app in APP_ORDER
    for backend in ("ooc", "parallel")
] + [
    pytest.param("SLFE", app, "serial", True, id="SLFE-%s-crash" % app)
    for app in APP_ORDER
]


def _counts(engine, app, backend, crash):
    recorder = TraceRecorder()
    overrides = {}
    if crash:
        overrides = dict(
            fault_plan=FaultPlan.parse("crash@3:1", num_nodes=NODES),
            checkpoint_every=2,
        )
    kwargs = {}
    if backend != "serial":
        kwargs = dict(backend=backend,
                      workers=2 if backend == "parallel" else None)
    with configured(**overrides):
        outcome = run_workload(
            engine, app, "PK", num_nodes=NODES, scale_divisor=SCALE,
            recorder=recorder, **kwargs,
        )
    result = outcome.result
    report = build_report(recorder)
    (run,) = report["runs"]
    return {
        "result.iterations": result.iterations,
        "metrics.num_iterations": result.metrics.num_iterations,
        "superstep_begin events": len(
            recorder.events_named(trace_events.SUPERSTEP_BEGIN)
        ),
        "superstep_end events": len(
            recorder.events_named(trace_events.SUPERSTEP_END)
        ),
        "report runs-row iterations": run["iterations"],
        "report timeline rows": len(report["supersteps"]),
    }, result


@pytest.mark.parametrize("engine,app,backend,crash", CASES)
def test_every_superstep_count_agrees(engine, app, backend, crash):
    counts, result = _counts(engine, app, backend, crash)
    assert result.iterations > 0
    assert set(counts.values()) == {result.iterations}, counts
    if crash:
        assert result.metrics.rollbacks > 0
    if backend == "parallel":
        assert not result.degraded
