"""Start late's direction pin leaves Algorithm 3's re-delivery unowed.

Algorithm 3 re-delivers every value when a run switches from pull to
push while a skipped destination still owes its catch-up gather.  The
engine never makes that switch: once a min/max run has pulled,
``_StartLate.mode`` stays in pull while ``debt`` (skipped destinations
an update passed by) is non-zero.  For random weighted digraphs x
SSSP/CC/WP x serial/ooc x dense denominators 2, 20 and 1000, with RR on:

* no superstep returns push straight after a pull with ``debt > 0``;
* values equal the RR-off run's, byte for byte.
"""

from unittest import mock

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.apps import SSSP, ConnectedComponents, WidestPath
from repro.bench.workloads import default_root, experiment_cluster
from repro.core import engine as engine_mod
from repro.core.engine import SLFEEngine
from repro.core.frontier import PULL, PUSH
from repro.graph import generators
from repro.graph.graph import Graph
from repro.runconfig import configured

APPS = {"SSSP": SSSP, "CC": ConnectedComponents, "WP": WidestPath}


@st.composite
def weighted_digraphs(draw):
    n = draw(st.integers(2, 40))
    m = draw(st.integers(1, 160))
    endpoint = st.integers(0, n - 1)
    srcs = draw(st.lists(endpoint, min_size=m, max_size=m))
    dsts = draw(st.lists(endpoint, min_size=m, max_size=m))
    weights = draw(st.lists(st.floats(1.0, 10.0), min_size=m, max_size=m))
    return Graph.from_edges(
        n,
        (np.asarray(srcs, dtype=np.int64), np.asarray(dsts, dtype=np.int64)),
        np.asarray(weights),
    )


def _run(graph, app_name, enable_rr, backend="serial",
         dense_denominator=20):
    app = APPS[app_name]()
    root = None if app_name == "CC" else default_root(graph)
    engine = SLFEEngine(
        graph, config=experiment_cluster(num_nodes=3), enable_rr=enable_rr,
        backend=backend, dense_denominator=dense_denominator,
    )
    # Tiny shards behind a two-shard cache: every ooc expansion streams.
    with configured(shard_mb=0.001, shard_cache=2):
        return engine.run_minmax(app, root=root)


def _modes_run(*args, **kwargs):
    """Run with ``_StartLate.mode`` wrapped; returns the result and one
    ``(debt, frontier non-empty, mode)`` per superstep, as ``mode``
    found them."""
    original = engine_mod._StartLate.mode
    seen = []

    def mode(step):
        debt, active = step.debt, bool(step.frontier)
        chosen = original(step)
        seen.append((debt, active, chosen))
        return chosen

    with mock.patch.object(engine_mod._StartLate, "mode", mode):
        result = _run(*args, **kwargs)
    return result, seen


def _unowed(seen):
    """No push directly after a pull while debt is outstanding."""
    return all(
        not (previous == PULL and chosen == PUSH and debt > 0)
        for (_, _, previous), (debt, _, chosen) in zip(seen, seen[1:])
    )


@given(
    weighted_digraphs(),
    st.sampled_from(sorted(APPS)),
    st.sampled_from(["serial", "ooc"]),
    st.sampled_from([2, 20, 1000]),
)
def test_no_pull_to_push_switch_with_debt(graph, app_name, backend,
                                          dense_denominator):
    result, seen = _modes_run(graph, app_name, True, backend,
                              dense_denominator)
    assert len(seen) == result.iterations
    assert _unowed(seen)
    expected = _run(graph, app_name, False)
    assert result.values.tobytes() == expected.values.tobytes()


def test_the_pin_engages_on_a_social_graph():
    # The property above is vacuous unless the pin really overrides the
    # density switch: here a run has pulled, owes catch-ups, and the
    # frontier is sparse enough that the switch alone would push.
    graph = generators.random_weights(
        generators.social_network(
            600, avg_degree=14, shortcut_density=0.05, hub_bias=1.5, seed=7
        ),
        1.0, 10.0, seed=7,
    )
    pinned = []
    original = engine_mod.choose_mode

    def recording(active_edges, num_edges, denominator):
        pinned.append(original(active_edges, num_edges, denominator))
        return pinned[-1]

    with mock.patch.object(engine_mod, "choose_mode", recording):
        result, seen = _modes_run(graph, "SSSP", True)
    assert _unowed(seen)
    assert any(
        raw == PUSH and active and chosen == PULL and debt > 0
        for raw, (debt, active, chosen) in zip(pinned, seen)
    )
    expected = _run(graph, "SSSP", False)
    assert result.values.tobytes() == expected.values.tobytes()
