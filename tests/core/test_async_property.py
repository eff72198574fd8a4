"""Property tests for the async engine (Hypothesis, tiered profiles —
see ``tests/strategies/settings.py``).

The central property is *scheduling-order invariance*: whatever order
the async scheduler admits vertices in, the run must land on the same
fixed point — chaotic relaxation for min/max apps, the telescoping
delta series for accumulative arithmetic.  Each run is checked against
:mod:`repro.apps.reference` by the oracle's ``check_async``.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.apps import TunkRank
from repro.core.async_engine import SCHEDULERS, AsyncEngine
from repro.errors import EngineError

from tests.strategies.graphs import seeded_digraphs
from tests.test_oracle import check_async


UNWEIGHTED = seeded_digraphs(min_vertices=2, max_vertices=40, min_edges=1,
                             max_edges=160, weighted=False)
WEIGHTED = seeded_digraphs(min_vertices=2, max_vertices=40, min_edges=1,
                           max_edges=160, weighted=True)


@given(UNWEIGHTED)
def test_pagerank_fixed_point_is_scheduling_invariant(graph):
    for scheduler in SCHEDULERS:
        check_async(graph, "PR", None, scheduler=scheduler)


@given(WEIGHTED)
def test_sssp_fixed_point_is_scheduling_invariant(graph):
    # Min relaxation reaches the unique monotone fixpoint exactly in
    # any scheduling order.
    root = int(np.argmax(graph.out_degrees()))
    for scheduler in SCHEDULERS:
        check_async(graph, "SSSP", root, scheduler=scheduler)


@given(UNWEIGHTED)
def test_cc_labels_are_scheduling_invariant(graph):
    for scheduler in SCHEDULERS:
        check_async(graph, "CC", None, scheduler=scheduler)


@given(UNWEIGHTED)
def test_non_accumulative_apps_raise_typed_errors(graph):
    with pytest.raises(EngineError) as excinfo:
        AsyncEngine(graph).run_arithmetic(TunkRank())
    message = str(excinfo.value)
    assert "accumulative" in message and "TR" in message


@given(
    UNWEIGHTED,
    st.floats(min_value=0.05, max_value=1.0),
    st.integers(min_value=1, max_value=16),
)
def test_batch_knobs_do_not_move_the_fixed_point(
    graph, batch_fraction, min_batch
):
    check_async(graph, "PR", None, batch_fraction=batch_fraction,
                min_batch=min_batch)
