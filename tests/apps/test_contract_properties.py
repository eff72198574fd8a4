"""The min/max app contract the engine's frontier-side pull relies on.

A started destination takes its pull result from the frontier's pushed
candidates alone (DESIGN §5 "Pull from the cheaper side").  Two app
contracts make that sound:

* (a) ``edge_candidates`` — and ``source_terms``, where an app defines
  it — is monotone non-decreasing in the source value, elementwise, so a
  source whose value did not move proposes nothing new; checked here
  over SSSP, CC, WP and BFS, with infinite values and zero weights;
* (b) no vertex outside ``initial_frontier`` proposes a candidate that
  beats an out-neighbour's initial value: the property
  ``test_no_idle_vertex_beats_an_initial_value`` in
  ``tests/core/test_pull_side_properties.py``.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tests.strategies.apps import APPS, FAMILIES

VALUES = st.floats(allow_nan=False)  # +-inf included
#: SSSP and BFS weights are finite and non-negative (SSSP checks it;
#: ``-inf + inf`` would be NaN); WP takes any non-NaN capacity.
WEIGHTS = {
    "SSSP": st.floats(0.0, 1e300),
    "WP": st.floats(allow_nan=False),
}


@st.composite
def sources(draw, name):
    """``(low, high, weights)``: two source-value arrays with
    ``low <= high`` elementwise, and one weight per edge (zero often)."""
    k = draw(st.integers(1, 20))
    pairs = draw(st.lists(st.tuples(VALUES, VALUES), min_size=k, max_size=k))
    low, high = (np.asarray(side) for side in zip(*map(sorted, pairs)))
    weight = st.one_of(st.just(0.0), WEIGHTS.get(name, WEIGHTS["SSSP"]))
    weights = np.asarray(draw(st.lists(weight, min_size=k, max_size=k)))
    return low, high, weights


@pytest.mark.parametrize("name", FAMILIES["minmax"])
@given(data=st.data())
def test_candidates_are_monotone_in_the_source_value(name, data):
    low, high, weights = data.draw(sources(name))
    app = APPS[name].factory()
    srcs = np.arange(low.size)
    assert np.all(app.edge_candidates(low, srcs, weights)
                  <= app.edge_candidates(high, srcs, weights))
    terms = app.source_terms(low)
    if terms is not None:
        assert np.all(terms <= app.source_terms(high))
