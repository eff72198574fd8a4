"""Property tests for the async engine (Hypothesis, tiered profiles —
see ``tests/conftest.py``).

The central property is *scheduling-order invariance*: whatever order
the async scheduler admits vertices in, the run must land on the same
fixed point — chaotic relaxation for min/max apps, the telescoping
delta series for accumulative arithmetic.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.apps import ConnectedComponents, PageRank, SSSP, TunkRank
from repro.core.async_engine import SCHEDULERS, AsyncEngine
from repro.core.engine import SLFEEngine
from repro.errors import EngineError
from repro.graph.graph import Graph


@st.composite
def digraphs(draw, max_vertices=40, max_edges=160, weighted=False):
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    m = draw(st.integers(min_value=1, max_value=max_edges))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    srcs = rng.integers(0, n, size=m, dtype=np.int64)
    dsts = rng.integers(0, n, size=m, dtype=np.int64)
    keep = srcs != dsts
    srcs, dsts = srcs[keep], dsts[keep]
    weights = (
        rng.uniform(0.5, 8.0, size=srcs.size) if weighted else None
    )
    return Graph.from_edges(n, (srcs, dsts), weights, name="prop")


@given(digraphs(weighted=False))
def test_pagerank_fixed_point_is_scheduling_invariant(graph):
    tol = PageRank.async_tolerance
    baselines = {}
    for scheduler in SCHEDULERS:
        result = AsyncEngine(graph, scheduler=scheduler).run_arithmetic(
            PageRank()
        )
        assert result.converged
        baselines[scheduler] = result.values
    reference = SLFEEngine(graph, enable_rr=False).run_arithmetic(
        PageRank(), tolerance=1e-12
    ).values
    for scheduler, values in baselines.items():
        assert np.max(np.abs(values - reference)) <= tol, scheduler


@given(digraphs(weighted=True))
def test_sssp_fixed_point_is_scheduling_invariant(graph):
    root = int(np.argmax(graph.out_degrees()))
    reference = SLFEEngine(graph, enable_rr=False).run_minmax(
        SSSP(), root=root
    ).values
    for scheduler in SCHEDULERS:
        values = AsyncEngine(graph, scheduler=scheduler).run_minmax(
            SSSP(), root=root
        ).values
        # Min relaxation reaches the unique monotone fixpoint exactly
        # in any scheduling order.
        assert np.array_equal(values, reference), scheduler


@given(digraphs(weighted=False))
def test_cc_labels_are_scheduling_invariant(graph):
    reference = SLFEEngine(graph, enable_rr=False).run_minmax(
        ConnectedComponents()
    ).values
    for scheduler in SCHEDULERS:
        values = AsyncEngine(graph, scheduler=scheduler).run_minmax(
            ConnectedComponents()
        ).values
        assert np.array_equal(values, reference), scheduler


@given(digraphs(weighted=False))
def test_non_accumulative_apps_raise_typed_errors(graph):
    with pytest.raises(EngineError) as excinfo:
        AsyncEngine(graph).run_arithmetic(TunkRank())
    message = str(excinfo.value)
    assert "accumulative" in message and "TR" in message


@given(
    digraphs(weighted=False),
    st.floats(min_value=0.05, max_value=1.0),
    st.integers(min_value=1, max_value=16),
)
def test_batch_knobs_do_not_move_the_fixed_point(
    graph, batch_fraction, min_batch
):
    tol = PageRank.async_tolerance
    reference = SLFEEngine(graph, enable_rr=False).run_arithmetic(
        PageRank(), tolerance=1e-12
    ).values
    result = AsyncEngine(
        graph, batch_fraction=batch_fraction, min_batch=min_batch
    ).run_arithmetic(PageRank())
    assert result.converged
    assert np.max(np.abs(result.values - reference)) <= tol
