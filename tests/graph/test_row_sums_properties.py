"""``csr.row_sums`` — scipy's compiled CSR mat-vec routine — sums each
row in edge order from +0.0, and nothing in the process imports
``scipy.sparse``.

The oracle is ``np.bincount(rows, weights=data * x[indices])``, which
also adds each row's terms left to right onto 0.0.  Every caller has one
factor 1.0 (unit ``data`` against terms, or per-edge contributions
against unit ``x``), so each product is exact and the equality is
bitwise on any host.  Values span 25 orders of magnitude, so a sum in
any other order (``np.add.reduceat``'s pairwise blocks) differs.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.apps import PageRank, SpMV
from repro.core.runtime import gather_block
from repro.graph.csr import row_sums, unit_view

from tests.conftest import each_span_cost, shard_blocks, span_cases

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
if REPO_ROOT not in sys.path:
    sys.path.insert(0, REPO_ROOT)


def _floats(rng, size):
    """Order-sensitive floats: wide magnitudes, both signs, -0.0 and
    both infinities."""
    values = rng.uniform(-3.0, 3.0, size) * 10.0 ** rng.integers(-8, 17, size)
    for special, share in ((-0.0, 0.1), (np.inf, 0.03), (-np.inf, 0.02)):
        values[rng.random(size) < share] = special
    return values


@st.composite
def row_cases(draw):
    """``(indptr, indices, data, x)``: empty rows, a single row, hub rows
    among small ones, or small rows with zeros among them; one of
    ``data`` and ``x`` is unit (a stride-0 :func:`unit_view` or a real
    ones array), as in both of the gather's paths."""
    kind = draw(st.sampled_from(["small", "empty", "single", "hubs"]))
    if kind == "empty":
        degrees = [0] * draw(st.integers(1, 8))
    elif kind == "single":
        degrees = [draw(st.integers(0, 60))]
    else:
        degrees = draw(st.lists(st.integers(0, 6), min_size=1, max_size=30))
        if kind == "hubs":
            for _ in range(draw(st.integers(1, 3))):
                at = draw(st.integers(0, len(degrees) - 1))
                degrees[at] = draw(st.integers(50, 400))
    indptr = np.zeros(len(degrees) + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    m = int(indptr[-1])
    columns = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    indices = rng.integers(0, columns, m, dtype=np.int64)
    unit = draw(st.sampled_from(["data", "data-array", "x"]))
    if unit == "x":
        data, x = _floats(rng, m), unit_view(columns)
    else:
        x = _floats(rng, columns)
        data = unit_view(m) if unit == "data" else np.ones(m)
    return indptr, indices, data, x


def _oracle(indptr, indices, data, x, lo, hi):
    """``bincount`` over the rows of ``[lo, hi)``, each summed in order."""
    sel = slice(int(indptr[lo]), int(indptr[hi]))
    rows = np.repeat(np.arange(hi - lo), np.diff(indptr[lo : hi + 1]))
    with np.errstate(invalid="ignore"):
        return np.bincount(
            rows, weights=data[sel] * x[indices[sel]], minlength=hi - lo
        )


def _sums(ptr, indices, data, x):
    out = np.zeros(ptr.size - 1)
    with np.errstate(invalid="ignore"):
        row_sums(ptr, indices, data, x, out)
    return out


@given(case=row_cases(), bounds=st.tuples(st.integers(0, 40), st.integers(0, 40)),
       shift=st.integers(0, 500))
def test_row_sums_is_the_in_order_bincount(case, bounds, shift):
    """Any span of rows ``[lo, hi)``, addressed three ways — the CSR's own
    row pointer against its whole arrays, rebased to the span's first
    edge, or from a shard whose arrays start at global edge ``base`` —
    sums to the oracle's bytes."""
    indptr, indices, data, x = case
    n = indptr.size - 1
    lo, hi = sorted(min(bound, n) for bound in bounds)
    expected = _oracle(indptr, indices, data, x, lo, hi).tobytes()
    ptr = indptr[lo : hi + 1]
    start = int(ptr[0])
    base = min(shift, start)
    assert _sums(ptr, indices, data, x).tobytes() == expected
    assert _sums(ptr - start, indices[start:], data[start:], x).tobytes() == expected
    assert _sums(ptr - base, indices[base:], data[base:], x).tobytes() == expected


@given(case=row_cases(), sizes=st.lists(st.integers(1, 7), min_size=1, max_size=40))
def test_blocks_of_whole_rows_sum_like_one_pass(case, sizes):
    """Rows cut into consecutive blocks of 1-7, each summed on its own
    into its slice of one output: the one-pass bytes, as a row never
    splits."""
    indptr, indices, data, x = case
    n = indptr.size - 1
    out = np.zeros(n)
    lo = 0
    with np.errstate(invalid="ignore"):
        for size in sizes * (n // len(sizes) + 1):
            hi = min(lo + size, n)
            start = int(indptr[lo])
            row_sums(indptr[lo : hi + 1] - start, indices[start:], data[start:],
                     x, out[lo:hi])
            lo = hi
            if lo == n:
                break
    assert out.tobytes() == _sums(indptr, indices, data, x).tobytes()
    assert out.tobytes() == _oracle(indptr, indices, data, x, 0, n).tobytes()


@pytest.mark.parametrize("name", ["PR", "SpMV"])
@given(case=span_cases(), cut=st.one_of(st.none(), st.integers(0, 24)))
def test_gather_block_is_the_in_order_bincount(name, case, cut):
    """The gather over ascending ids with and without holes, on the whole
    CSR or from two shards, at every span cost: each destination's
    in-edge contributions summed in order (PageRank through its terms,
    SpMV through ``edge_contributions``)."""
    graph, ids, seed = case
    rng = np.random.default_rng(seed)
    app = PageRank() if name == "PR" else SpMV(_floats(rng, graph.num_vertices))
    app.bind(graph)
    values = _floats(rng, graph.num_vertices)
    terms = app.source_terms(values)
    rows, srcs, weights = graph.in_csr.expand_sources(ids)
    with np.errstate(invalid="ignore"):
        expected = np.bincount(
            rows, weights=app.edge_contributions(values, srcs, rows, weights),
            minlength=graph.num_vertices,
        ).tobytes()
    for _ in each_span_cost():
        result = np.zeros(graph.num_vertices)
        with np.errstate(invalid="ignore"):
            for adjacency, block in shard_blocks(graph, ids, cut):
                gather_block(app, adjacency, graph.in_degrees(), values,
                             block, result, terms)
        assert result.tobytes() == expected


def test_pagerank_gather_on_the_benchmark_graph():
    """One full PageRank gather on the ``pr-norr`` input (seed 20180827)
    is the in-order bincount; ``reduceat``'s pairwise sums are not."""
    from perfbench import workloads as wl

    graph = wl.build_graph(wl.WORKLOADS["pr-norr"], 20180827)
    app = PageRank()
    app.bind(graph)
    values = np.random.default_rng(0).random(graph.num_vertices)
    terms = app.source_terms(values)
    in_csr = graph.in_csr
    result = np.zeros(graph.num_vertices)
    ids = np.arange(graph.num_vertices, dtype=np.int64)
    gather_block(app, in_csr, graph.in_degrees(), values, ids, result, terms)
    per_edge = terms[in_csr.indices]
    expected = np.bincount(in_csr.row_of_edge(), weights=per_edge,
                           minlength=graph.num_vertices)
    assert result.tobytes() == expected.tobytes()
    nonempty = graph.in_degrees() > 0
    pairwise = np.add.reduceat(per_edge, in_csr.indptr[:-1][nonempty])
    assert (pairwise != expected[nonempty]).any()


#: One PageRank job per backend in a fresh interpreter, then the scipy
#: modules it holds.
_GUARD = """
import sys
from repro.apps import PageRank
from repro.core.engine import SLFEEngine
from repro.graph import generators

graph = generators.social_network(
    300, avg_degree=10, shortcut_density=0.05, hub_bias=1.5, seed=3
)
for backend, workers in (("serial", None), ("parallel", 2), ("ooc", None)):
    result = SLFEEngine(
        graph, backend=backend, num_workers=workers
    ).run_arithmetic(PageRank())
    assert result.converged, backend
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="the pool needs /dev/shm")
def test_no_backend_imports_scipy_sparse(tmp_path):
    """``import scipy.sparse`` adds ~15 MiB to a process; the row sum
    loads only its compiled extension.  After a job on each backend the
    interpreter holds that one scipy module and no other."""
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    out = subprocess.run(
        [sys.executable, "-c", _GUARD], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300, check=True,
    ).stdout
    assert out.strip().splitlines()[-1] == "['scipy.sparse._sparsetools']"
