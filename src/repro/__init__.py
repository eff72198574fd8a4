"""SLFE: a distributed graph processing system with redundancy reduction.

Python reproduction of *Start Late or Finish Early: A Distributed Graph
Processing System with Redundancy Reduction* (Song et al., VLDB 2018).

Public entry points
-------------------
- :mod:`repro.graph` — graph storage, generators, datasets, IO.
- :mod:`repro.partition` — chunking / hash / vertex-cut / hybrid-cut.
- :mod:`repro.cluster` — simulated distributed cluster and cost model.
- :mod:`repro.core` — SLFE itself: RR guidance, push/pull runtime, engine.
- :mod:`repro.apps` — the paper's applications (SSSP, CC, WP, PR, TR, ...).
- :mod:`repro.baselines` — Gemini / PowerGraph / PowerLyra / GraphChi / Ligra.
- :mod:`repro.bench` — experiment drivers regenerating each table/figure.
- :mod:`repro.store` — persistent, validated preprocessing-artifact cache.
"""

from repro.errors import (
    ClusterConfigError,
    ConvergenceError,
    EngineError,
    GraphFormatError,
    GraphIOError,
    PartitionError,
    ReproError,
    StoreError,
)
from repro.graph import CSR, Graph, GraphBuilder

__version__ = "1.0.0"


def __getattr__(name):
    # Convenience re-exports resolved lazily so that `import repro`
    # stays light (the engine pulls in the whole cluster substrate).
    if name == "SLFEEngine":
        from repro.core.engine import SLFEEngine

        return SLFEEngine
    if name == "RunResult":
        from repro.core.engine import RunResult

        return RunResult
    if name == "generate_guidance":
        from repro.core.rrg import generate_guidance

        return generate_guidance
    if name == "ArtifactStore":
        from repro.store import ArtifactStore

        return ArtifactStore
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


__all__ = [
    "CSR",
    "Graph",
    "GraphBuilder",
    "SLFEEngine",
    "RunResult",
    "generate_guidance",
    "ArtifactStore",
    "ReproError",
    "StoreError",
    "GraphFormatError",
    "GraphIOError",
    "PartitionError",
    "ClusterConfigError",
    "EngineError",
    "ConvergenceError",
    "__version__",
]
