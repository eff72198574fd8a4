"""Regression tests for the empty-group bug in ``_grouped_reduce``.

``np.ufunc.reduceat`` has a documented trap: when two consecutive
boundaries coincide (an empty group), it *returns the element at that
boundary* instead of the reduction identity.  The pre-fix code hit it
whenever a processed vertex had in-degree zero: ``min`` over per-edge
candidates ``[5, 7]`` with group sizes ``[1, 0, 1]`` came back as
``[5, 7, 7]`` — the empty middle group stole its right neighbour's
first element.  The fix masks out empty groups and fills them with the
aggregation identity (+inf for min, -inf for max).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.runtime import grouped_reduce as _grouped_reduce


class TestEmptyGroups:
    def test_min_empty_middle_group_gets_identity(self):
        per_edge = np.array([5.0, 7.0])
        counts = np.array([1, 0, 1], dtype=np.int64)
        out = _grouped_reduce("min", per_edge, counts)
        # Pre-fix: [5, 7, 7] — reduceat leaking the neighbour element.
        assert out.tolist() == [5.0, np.inf, 7.0]

    def test_max_empty_middle_group_gets_identity(self):
        per_edge = np.array([5.0, 7.0])
        counts = np.array([1, 0, 1], dtype=np.int64)
        out = _grouped_reduce("max", per_edge, counts)
        assert out.tolist() == [5.0, -np.inf, 7.0]

    def test_leading_and_trailing_empty_groups(self):
        per_edge = np.array([3.0, 1.0, 4.0])
        counts = np.array([0, 2, 0, 1, 0], dtype=np.int64)
        out = _grouped_reduce("min", per_edge, counts)
        assert out.tolist() == [np.inf, 1.0, np.inf, 4.0, np.inf]

    def test_all_groups_empty(self):
        out = _grouped_reduce("min", np.zeros(0), np.zeros(3, np.int64))
        assert out.tolist() == [np.inf, np.inf, np.inf]

    def test_no_empty_groups_unchanged(self):
        per_edge = np.array([2.0, 9.0, 4.0, 8.0])
        counts = np.array([1, 3], dtype=np.int64)
        out = _grouped_reduce("min", per_edge, counts)
        assert out.tolist() == [2.0, 4.0]

    @given(
        counts=st.lists(st.integers(0, 4), min_size=1, max_size=12),
        aggregation=st.sampled_from(["min", "max"]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_python_loop(self, counts, aggregation, seed):
        counts = np.asarray(counts, dtype=np.int64)
        rng = np.random.default_rng(seed)
        per_edge = rng.uniform(-10, 10, size=int(counts.sum()))
        out = _grouped_reduce(aggregation, per_edge, counts)
        reduce = min if aggregation == "min" else max
        identity = np.inf if aggregation == "min" else -np.inf
        offset = 0
        for i, count in enumerate(counts):
            group = per_edge[offset:offset + count]
            expected = reduce(group) if count else identity
            assert out[i] == expected
            offset += count
