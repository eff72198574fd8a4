"""``oocbench.measure`` at the parent: one smallest-scale row.

The sweep is a memory check taken in fresh child interpreters; CI's
``ooc`` job is its one caller, so these tests keep the orchestration
(spawn, parse, checksum comparison, failure reporting) honest at a
scale that costs about a second.
"""

import numpy as np
import pytest

from repro.bench import oocbench

#: Touched, so it is resident: more than a 34 k-edge child can need.
BALLAST_BYTES = 200 * 2**20


@pytest.fixture(scope="module")
def row():
    ballast = np.ones(BALLAST_BYTES // 8, dtype=np.float64)
    payload = oocbench.measure(scale_divisors=(2000,))
    del ballast  # held until the children have exited
    assert payload["graph"] == oocbench.GRAPH_KEY
    (row,) = payload["rows"]
    return row


def test_row_is_identical_with_positive_rss_on_both_sides(row):
    assert row["scale_divisor"] == 2000
    assert row["num_edges"] > 0
    assert row["identical"] is True
    assert row["iterations"] > 0
    assert row["in_memory"]["peak_rss_bytes"] > 0
    assert row["ooc"]["peak_rss_bytes"] > 0


def test_children_report_their_own_peak_not_the_parents(row):
    # ru_maxrss survives exec, so it would read the ballast held by
    # this process; VmHWM starts fresh with the child's address space.
    assert row["in_memory"]["peak_rss_bytes"] < BALLAST_BYTES
    assert row["ooc"]["peak_rss_bytes"] < BALLAST_BYTES


def test_failing_child_raises_with_its_stderr():
    with pytest.raises(RuntimeError) as info:
        oocbench._spawn_child(["no-such-mode"], timeout=60.0)
    assert "unknown child mode 'no-such-mode'" in str(info.value)
