"""Standard workload configuration for the experiment drivers.

This module fixes every knob an experiment needs — cluster constants,
dataset scale, roots, application instances — in one place so that all
tables and figures are produced under identical conditions.

Cluster constants at stand-in scale
-----------------------------------
The stand-ins shrink the paper's graphs by ``scale_divisor`` (default
2000x).  Per-superstep *computation* shrinks by the same factor, but a
physical network's per-batch latency does not — using the testbed's raw
3 us InfiniBand latency would make every superstep latency-bound in a
way the paper's full-size runs are not.  :func:`experiment_cluster`
therefore scales the batch latency by the same divisor, keeping the
compute:communication ratio of each superstep in the regime the paper
reports (Figure 4).  Message *volume* already scales with the graph, so
bandwidth stays physical.  All engines share the one config, so ratios
between systems never depend on these constants.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from repro.apps import (
    ConnectedComponents,
    PageRank,
    SSSP,
    TunkRank,
    WidestPath,
)
from repro.baselines import (
    GeminiEngine,
    GraphChiEngine,
    LigraEngine,
    PowerGraphEngine,
    PowerLyraEngine,
)
from repro.cluster.config import ClusterConfig, NetworkConfig, NodeConfig
from repro.core.engine import SLFEEngine
from repro.graph import datasets
from repro.graph.graph import Graph

__all__ = [
    "DEFAULT_SCALE_DIVISOR",
    "PAPER_GRAPHS",
    "MINMAX_APPS",
    "ARITH_APPS",
    "APP_ORDER",
    "experiment_cluster",
    "load_graph",
    "default_root",
    "make_app",
    "make_engine",
    "ENGINE_NAMES",
]

#: Scale applied to the paper's graphs throughout the harness.
DEFAULT_SCALE_DIVISOR = datasets.DEFAULT_SCALE_DIVISOR

#: The seven real-world graphs, in the paper's column order.
PAPER_GRAPHS = list(datasets.PAPER_ORDER)

#: The paper's five evaluation applications, by aggregation class.
MINMAX_APPS = ["SSSP", "CC", "WP"]
ARITH_APPS = ["PR", "TR"]
APP_ORDER = MINMAX_APPS + ARITH_APPS

#: PowerLyra's hub threshold, scaled like the graphs are (100 at full
#: size corresponds to far fewer in-degree units on 2000x stand-ins).
POWERLYRA_THRESHOLD = 30

#: Convergence tolerance for PR/TR in the harness.  The paper iterates
#: arithmetic applications to the graph's *final* convergence ("no
#: vertex has further changes"), which in float64 terms means driving
#: the residual well below the finish-early stability epsilon (1e-7).
ARITH_TOLERANCE = 1e-10


def experiment_cluster(
    num_nodes: int = 8,
    cores: int = 68,
    scale_divisor: int = DEFAULT_SCALE_DIVISOR,
) -> ClusterConfig:
    """The harness's cluster model (see module docstring for scaling)."""
    return ClusterConfig(
        num_nodes=num_nodes,
        node=NodeConfig(cores=cores),
        network=NetworkConfig(latency_seconds=3e-6 / scale_divisor),
    )


def load_graph(
    key: str,
    scale_divisor: int = DEFAULT_SCALE_DIVISOR,
    weighted: bool = False,
) -> Graph:
    """Load a stand-in; weighted variants are used by SSSP and WP."""
    return datasets.load(key, scale_divisor=scale_divisor, weighted=weighted)


def default_root(graph: Graph) -> int:
    """Traversal root: the highest-out-degree vertex (maximal coverage,
    the usual convention for SSSP/BFS evaluations on social graphs)."""
    if graph.num_vertices == 0:
        raise ValueError("cannot pick a root in an empty graph")
    return int(np.argmax(graph.out_degrees()))


def app_needs_weights(app_name: str) -> bool:
    return app_name in ("SSSP", "WP")


def app_is_arithmetic(app_name: str) -> bool:
    return app_name in ARITH_APPS


def make_app(app_name: str):
    """Fresh application instance for one run."""
    factories: Dict[str, Callable] = {
        "SSSP": SSSP,
        "CC": ConnectedComponents,
        "WP": WidestPath,
        "PR": PageRank,
        "TR": TunkRank,
    }
    if app_name not in factories:
        raise KeyError("unknown application %r" % app_name)
    return factories[app_name]()


ENGINE_NAMES = [
    "SLFE",
    "Async",
    "Gemini",
    "PowerGraph",
    "PowerLyra",
    "GraphChi",
    "Ligra",
]


def make_engine(
    engine_name: str,
    graph: Graph,
    config: Optional[ClusterConfig] = None,
    **kwargs,
):
    """Instantiate a system under test by name."""
    if engine_name == "SLFE":
        return SLFEEngine(graph, config=config, **kwargs)
    if engine_name in ("Async", "async"):
        from repro.core.async_engine import AsyncEngine

        return AsyncEngine(graph, config=config, **kwargs)
    if engine_name == "SLFE-noRR":
        return SLFEEngine(graph, config=config, enable_rr=False, **kwargs)
    if engine_name == "Gemini":
        return GeminiEngine(graph, config=config, **kwargs)
    if engine_name == "PowerGraph":
        return PowerGraphEngine(graph, config=config, **kwargs)
    if engine_name == "PowerLyra":
        kwargs.setdefault("degree_threshold", POWERLYRA_THRESHOLD)
        return PowerLyraEngine(graph, config=config, **kwargs)
    if engine_name == "GraphChi":
        return GraphChiEngine(graph, config=config, **kwargs)
    if engine_name == "Ligra":
        return LigraEngine(graph, config=config, **kwargs)
    raise KeyError("unknown engine %r" % engine_name)
