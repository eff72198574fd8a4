"""The seven workloads: what each one builds, runs, and exists for.

A workload is one seeded graph recipe plus one job (application ×
redundancy reduction × backend).  The seed is an argument of perfbench;
``repro`` only ever sees the generated graph.

Sizes are set so that one ``measure`` run — three set-ups, three
guidance generations, a warm-up and ``run_seconds`` of timed jobs —
fits in the ~20 s the benchmark driver can spend per run, with at
least half a dozen timed jobs behind every median.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Dict, Iterator, Optional

import numpy as np

from repro.apps import SSSP, ConnectedComponents, PageRank
from repro.bench.workloads import (
    ARITH_TOLERANCE,
    default_root,
    experiment_cluster,
)
from repro.core.engine import RunResult, SLFEEngine
from repro.core import rrg
from repro.core.rrg import RRGuidance
from repro.graph import generators
from repro.graph.graph import Graph
from repro.ooc import install_ooc, spill_graph
from repro.store import ArtifactStore, active_store, install_store

from perfbench.env import busy_process_cap

#: Four shards per direction behind a two-shard cache: every superstep
#: of ``pr-ooc`` re-streams the edges (an LRU never hits on a cyclic
#: scan longer than itself).
OOC_SHARD_MB = 0.5
OOC_SHARD_CACHE = 2


@dataclass(frozen=True)
class Workload:
    """One row of the workload table (see ``perfbench/README.md``)."""

    name: str
    why: str
    #: ``"pr"``, ``"cc"`` or ``"sssp"``
    app: str
    #: ``"social"`` (the LJ stand-in profile) or ``"grid"``
    recipe: str
    #: |V| for ``social``; the lattice side for ``grid``
    size: int
    #: the same, for ``--smoke``
    smoke_size: int
    enable_rr: bool = True
    backend: str = "serial"
    #: also measure what attaching a ``TraceRecorder`` costs
    measures_recorder: bool = False
    #: also time the Gemini baseline on the same job
    measures_gemini: bool = False

    @property
    def num_workers(self) -> int:
        return busy_process_cap() if self.backend == "parallel" else 1


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "pr-rr",
            "PageRank with finish-early: gather over a shrinking skip-set, "
            "edge expansion dominates",
            app="pr", recipe="social", size=30_000, smoke_size=600,
            measures_recorder=True,
        ),
        Workload(
            "pr-norr",
            "Same graph with RR off: full-range task list every superstep; "
            "pr-norr/pr-rr job_s is RR's measured speedup",
            app="pr", recipe="social", size=30_000, smoke_size=600,
            enable_rr=False,
        ),
        Workload(
            "cc-rr",
            "ConnectedComponents with start-late: per-job symmetrise and "
            "transpose are on the job path, peak RSS is highest",
            app="cc", recipe="social", size=120_000, smoke_size=800,
        ),
        Workload(
            "sssp-social",
            "SSSP on a low-diameter weighted graph: push/pull mode switching, "
            "pull_apply, grouped_reduce; the SLFE-vs-Gemini target",
            app="sssp", recipe="social", size=120_000, smoke_size=800,
            measures_gemini=True,
        ),
        Workload(
            "sssp-grid",
            "SSSP on a weighted lattice: hundreds of tiny push supersteps, "
            "engine-loop overhead dominates; bypasses edge-kernel changes",
            app="sssp", recipe="grid", size=300, smoke_size=24,
            measures_recorder=True,
        ),
        Workload(
            "pr-parallel",
            "pr-rr on the worker pool: pool start, shm copy, control-block "
            "IPC and the steal queue",
            app="pr", recipe="social", size=30_000, smoke_size=600,
            backend="parallel",
        ),
        Workload(
            "pr-ooc",
            "PageRank streamed from a shard store far larger than its "
            "cache: fetch, decompress, checksum, per-shard kernel",
            app="pr", recipe="social", size=8_000, smoke_size=600,
            backend="ooc",
        ),
    )
}


# ----------------------------------------------------------------------
# step 2: set-up
# ----------------------------------------------------------------------
def build_graph(workload: Workload, seed: int, smoke: bool = False) -> Graph:
    """The workload's input graph with both CSR directions built."""
    size = workload.smoke_size if smoke else workload.size
    if workload.recipe == "grid":
        graph = generators.grid_2d(size, size)
    else:
        graph = generators.social_network(
            size, avg_degree=14, shortcut_density=0.05, hub_bias=1.5,
            seed=seed,
        )
    if workload.app == "sssp":
        graph = generators.random_weights(graph, 1.0, 10.0, seed=seed)
    graph.in_csr  # force the transpose: set-up pays it, not the first job
    return graph


def prepare_backend(
    workload: Workload, graph: Graph, store_dir: str
) -> Optional[ArtifactStore]:
    """Backend preparation: ``pr-ooc`` spills the graph into a store."""
    if workload.backend != "ooc":
        return None
    store = ArtifactStore(store_dir, max_bytes=None)
    spill_graph(graph, store, shard_mb=OOC_SHARD_MB)
    return store


@contextlib.contextmanager
def backend_installed(
    workload: Workload, store: Optional[ArtifactStore]
) -> Iterator[None]:
    """Ambient state a job of this workload runs under.

    Installed around jobs only: an ambient store would also turn the
    guidance generation of step 3 into a cache hit.
    """
    if workload.backend != "ooc":
        yield
        return
    previous_store = active_store()
    install_store(store)
    previous_ooc = install_ooc(OOC_SHARD_MB, OOC_SHARD_CACHE)
    try:
        yield
    finally:
        install_ooc(*previous_ooc)
        install_store(previous_store)


def job_root(workload: Workload, graph: Graph) -> Optional[int]:
    """SSSP's source: the max-out-degree vertex, or the lattice corner."""
    if workload.app != "sssp":
        return None
    if workload.recipe == "grid":
        return 0
    return default_root(graph)


# ----------------------------------------------------------------------
# step 3: preprocessing
# ----------------------------------------------------------------------
def guidance_inputs(workload: Workload, graph: Graph, root: Optional[int]):
    """``(run_graph, roots)`` Algorithm 1 runs on for this job.

    The engine generates guidance on the *run* graph (CC's symmetrised
    view), so pre-generated guidance must too.
    """
    if workload.app == "pr":
        return graph, rrg.default_roots(graph)
    app = _make_app(workload)
    run_graph = app.prepare(graph)
    return run_graph, app.guidance_roots(run_graph, root)


def preprocess(run_graph: Graph, roots: np.ndarray) -> RRGuidance:
    # Looked up on the module at call time, so a traced run can wrap it.
    return rrg.generate_guidance(run_graph, roots)


# ----------------------------------------------------------------------
# step 5: one job
# ----------------------------------------------------------------------
def _make_app(workload: Workload):
    return {"pr": PageRank, "cc": ConnectedComponents, "sssp": SSSP}[
        workload.app
    ]()


def run_job(
    workload: Workload,
    graph: Graph,
    guidance: Optional[RRGuidance],
    root: Optional[int],
    enable_rr: Optional[bool] = None,
    backend: Optional[str] = None,
    recorder=None,
    engine_cls=SLFEEngine,
) -> RunResult:
    """Engine construction to values, with warm guidance.

    The keyword overrides run the reference variants of the same job
    (RR off, another backend, a recorder attached, the Gemini engine).
    """
    if enable_rr is None:
        enable_rr = workload.enable_rr
    backend = backend or workload.backend
    kwargs = dict(
        config=experiment_cluster(num_nodes=8),
        backend=backend,
        num_workers=workload.num_workers if backend == "parallel" else 1,
        recorder=recorder,
    )
    if engine_cls is SLFEEngine:
        kwargs["enable_rr"] = enable_rr
    engine = engine_cls(graph, **kwargs)
    guidance = guidance if enable_rr else None
    app = _make_app(workload)
    if workload.app == "pr":
        return engine.run_arithmetic(
            app, tolerance=ARITH_TOLERANCE, guidance=guidance
        )
    return engine.run_minmax(app, root=root, guidance=guidance)
