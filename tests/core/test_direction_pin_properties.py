"""Start late's direction pin leaves Algorithm 3's re-delivery unowed.

Algorithm 3 re-delivers every value when a run switches from pull to
push while a skipped destination still owes its catch-up gather.  The
engine never makes that switch: once a min/max run has pulled,
``_StartLate.mode`` stays in pull while ``debt`` (skipped destinations
an update passed by) is non-zero.  For random weighted digraphs x
SSSP/CC/WP x serial/ooc x dense denominators 2, 20 and 1000, with RR on,
no superstep returns push straight after a pull with ``debt > 0``.  That
the values equal the RR-off run's is the differential oracle's point 3
(``tests/test_oracle.py``).
"""

from unittest import mock

from hypothesis import given
from hypothesis import strategies as st

from repro.apps import SSSP, ConnectedComponents, WidestPath
from repro.bench.workloads import default_root
from repro.core import engine as engine_mod
from repro.core.frontier import PULL, PUSH
from repro.graph import generators

from tests.strategies import graphs
from tests.strategies.backends import Case, run

APPS = {"SSSP": SSSP, "CC": ConnectedComponents, "WP": WidestPath}


def _run(graph, app_name, enable_rr, backend="serial",
         dense_denominator=20):
    root = None if app_name == "CC" else default_root(graph)
    # Tiny shards behind a two-shard cache: every ooc expansion streams.
    return run(Case(graph, app_name, root, enable_rr, backend,
                    denominator=dense_denominator, shard_mb=0.001,
                    shard_cache=2))[0]


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
    graphs.digraphs(min_vertices=2, max_vertices=40, max_edges=160,
                    weights=(st.floats(1.0, 10.0),)),
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
