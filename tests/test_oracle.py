"""The differential oracle: every backend, app, RR setting and fault plan.

Exact results stand in for the paper's testbed, so one property checks
them everywhere.  Hypothesis draws a graph (small digraphs with
self-loops, duplicate edges and zero weights; social graphs; the empty
and one-vertex graphs), an app of the family, a root, RR on or off,
the backend's knobs and a fault plan, and asserts:

1. the run is byte-equal to the serial run with the same RR setting and
   plan — values, iterations, edge ops, messages, updates, retries,
   per-node edge ops and the registry snapshot (the serial backend
   traces a worker fault as not applied, and like any non-empty plan
   it arms the superstep-0 checkpoint);
2. a fault plan never moves values or iterations away from the clean
   serial run, and a node crash rolls back exactly once;
3. min/max values are byte-equal to :mod:`repro.apps.reference` and to
   the RR-off run: start late never moves the fixed point;
4. arithmetic values: RR off is within :data:`REFERENCE_TOLERANCE` of
   the reference, RR on within :data:`FINISH_EARLY_BOUND` of RR off;
5. the async engine, under each scheduler, reaches the reference: min/max
   byte for byte, PageRank within :data:`REFERENCE_TOLERANCE`.

Each backend x family pair is its own test, so each gets its own
examples and ``pytest tests/test_oracle.py -k ooc`` (or ``serial``,
``parallel``, ``async``) selects one backend.  ``test_pinned`` holds a
row the draws rarely reach on every backend: a graph big enough for
many shards and pool blocks, four workers, a crash + rollback.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.config import ClusterConfig
from repro.cluster.faults import FaultPlan
from repro.core.async_engine import SCHEDULERS, AsyncEngine
from repro.graph import generators

from tests.conftest import needs_shm
from tests.strategies import apps, faults, graphs
from tests.strategies.apps import APPS
from tests.strategies.backends import BACKENDS, NODES, Case, cases, fingerprint, run
from tests.strategies.faults import Plan

PARAMS = [pytest.param(b, marks=needs_shm) if b == "parallel" else b
          for b in BACKENDS]

#: RR-off arithmetic values against the reference: the worst of 600
#: drawn PR/TR runs (300 small digraphs, 300 social graphs of 20-200
#: vertices) was 5.1e-8 (PR); 20x margin.
REFERENCE_TOLERANCE = 1e-6
#: Finish early's L-inf distance from RR off: the worst of the same 600
#: runs was 1.2e-6 on PR (2.4e-11 on TR); 8x margin.
FINISH_EARLY_BOUND = 1e-5


def serial(case, **changes):
    """``case`` on the serial backend, with ``changes``."""
    return case.but(backend="serial", workers=2, block=None, shard_mb=None,
                    shard_cache=None, **changes)


def linf(a, b):
    return float(np.max(np.abs(a - b), initial=0.0))


def check(case, *more, clean=None):
    """Assert points 1-4 of the module docstring for ``case`` and for
    each of ``more``, which differ from it in backend knobs only;
    returns their results.  ``clean`` is the serial fault-free run of
    ``case``, when the caller has it."""
    clean = clean or run(serial(case, plan=faults.NO_FAULTS))
    same = clean if case.plan.kind == "none" else run(serial(case))
    norr = clean if not case.rr else run(
        serial(case, plan=faults.NO_FAULTS, rr=False))
    results = []
    for each in (case,) + more:
        result, recorder = same if each == serial(case) else run(each)
        results.append(result)
        assert fingerprint(result, recorder) == fingerprint(*same)
        assert result.values.tobytes() == clean[0].values.tobytes()
        assert result.iterations == clean[0].iterations
        if each.plan.kind == "node":
            assert result.metrics.rollbacks == 1

    on, off = clean[0].values, norr[0].values
    expected = APPS[case.app].oracle(case.graph, case.root)
    if APPS[case.app].family == "minmax":
        assert on.tobytes() == off.tobytes() == expected.tobytes()
    else:
        assert linf(off, expected) <= REFERENCE_TOLERANCE
        assert linf(on, off) <= FINISH_EARLY_BOUND
    return results


@pytest.mark.parametrize("family", ["minmax", "arithmetic"])
@pytest.mark.parametrize("backend", PARAMS)
@given(data=st.data())
def test_oracle(backend, family, data):
    case = data.draw(cases(backend, family), label="case")
    clean = run(serial(case))
    plan = data.draw(
        faults.plans(family, clean[0].iterations, case.num_nodes,
                     case.workers),
        label="plan",
    )
    check(case.but(plan=plan), clean=clean)


#: A row random draws rarely reach: 300 weighted social vertices, so
#: ~30 shards per direction and two pool blocks per phase.
PINNED = generators.random_weights(
    generators.social_network(300, avg_degree=6, seed=5), seed=5)
PINNED_PLAN = Plan("node", FaultPlan.parse(
    "crash@3:1,loss@2:0-2,slow@4:2x2.5", num_nodes=NODES), 2)


@pytest.mark.parametrize("name", ["SSSP", "PR"])
@pytest.mark.parametrize("backend", PARAMS)
def test_pinned(backend, name):
    """Four workers, a two-shard cache, and a crash + rollback."""
    check(Case(PINNED, name, 0 if APPS[name].rooted else None,
               backend=backend, plan=PINNED_PLAN, workers=4,
               shard_mb=0.001, shard_cache=2))


def check_async(graph, name, root, **knobs):
    """Point 5 of the module docstring, for an engine built with
    ``knobs`` (the scheduler, the batch sizes)."""
    engine = AsyncEngine(graph, config=ClusterConfig(num_nodes=NODES),
                         **knobs)
    app = APPS[name].factory()
    if name == "PR":
        result = engine.run_arithmetic(app)
    else:
        result = engine.run_minmax(app, root=root)
    assert result.converged
    expected = APPS[name].oracle(graph, root)
    if name == "PR":
        assert linf(result.values, expected) <= REFERENCE_TOLERANCE
    else:
        assert result.values.tobytes() == expected.tobytes()


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@given(data=st.data())
def test_async(scheduler, data):
    graph = data.draw(graphs.graphs(), label="graph")
    name = data.draw(st.sampled_from([
        name for name in apps.FAMILIES["minmax"] + ("PR",)
        if graph.num_vertices or not APPS[name].rooted
    ]), label="app")
    check_async(graph, name, data.draw(apps.roots(name, graph), label="root"),
                scheduler=scheduler)
