"""Unit and property tests for per-edge update accounting."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import accounting


def segmented_improvements(*args, **kwargs):
    """The CAS-write count of the fused push reduce."""
    return accounting.segmented_improvements(*args, **kwargs)[0]


def brute_force(dsts, candidates, incumbents, aggregation="min"):
    """Sequential replay of atomic min/max writes, in edge order."""
    values = np.array(incumbents, dtype=np.float64).copy()
    count = 0
    for d, c in zip(dsts, candidates):
        if aggregation == "min":
            if c < values[d]:
                values[d] = c
                count += 1
        else:
            if c > values[d]:
                values[d] = c
                count += 1
    return count


class TestSegmentedImprovements:
    def test_empty(self):
        assert segmented_improvements(
            np.array([], dtype=np.int64), np.array([]), np.array([1.0])
        ) == 0

    def test_single_improving_write(self):
        assert segmented_improvements(
            np.array([0]), np.array([1.0]), np.array([5.0])
        ) == 1

    def test_non_improving_write(self):
        assert segmented_improvements(
            np.array([0]), np.array([9.0]), np.array([5.0])
        ) == 0

    def test_descending_sequence_all_write(self):
        dsts = np.zeros(3, dtype=np.int64)
        cands = np.array([3.0, 2.0, 1.0])
        assert segmented_improvements(dsts, cands, np.array([10.0])) == 3

    def test_ascending_sequence_writes_once(self):
        dsts = np.zeros(3, dtype=np.int64)
        cands = np.array([1.0, 2.0, 3.0])
        assert segmented_improvements(dsts, cands, np.array([10.0])) == 1

    def test_max_aggregation(self):
        dsts = np.zeros(3, dtype=np.int64)
        cands = np.array([1.0, 2.0, 3.0])
        assert segmented_improvements(
            dsts, cands, np.array([0.0]), aggregation="max"
        ) == 3

    def test_infinite_incumbent(self):
        assert segmented_improvements(
            np.array([0]), np.array([1.0]), np.array([np.inf])
        ) == 1

    def test_multiple_destinations_independent(self):
        dsts = np.array([0, 1, 0, 1])
        cands = np.array([5.0, 5.0, 3.0, 7.0])
        incumbents = np.array([10.0, 6.0])
        # dst0: 5 writes, 3 writes; dst1: 5 writes, 7 doesn't
        assert segmented_improvements(dsts, cands, incumbents) == 3

    def test_stable_order_within_destination(self):
        # Interleaved edges keep their original order per destination.
        dsts = np.array([1, 0, 1, 0])
        cands = np.array([4.0, 9.0, 2.0, 8.0])
        incumbents = np.array([10.0, 10.0])
        # dst1 sees 4 then 2: both write; dst0 sees 9 then 8: both write
        assert segmented_improvements(dsts, cands, incumbents) == 4


@given(
    st.integers(1, 8),
    st.lists(
        st.tuples(st.integers(0, 7), st.floats(0.0, 100.0)),
        min_size=0,
        max_size=80,
    ),
    st.sampled_from(["min", "max"]),
)
@settings(max_examples=120, deadline=None)
def test_matches_sequential_replay(num_vertices, edges, aggregation):
    dsts = np.array([min(d, num_vertices - 1) for d, _ in edges], dtype=np.int64)
    cands = np.array([c for _, c in edges], dtype=np.float64)
    incumbents = np.full(num_vertices, np.inf if aggregation == "min" else -np.inf)
    incumbents[:: 2] = 50.0  # mix of settled and unsettled vertices
    expected = brute_force(dsts, cands, incumbents, aggregation)
    actual = segmented_improvements(dsts, cands, incumbents, aggregation)
    assert actual == expected
