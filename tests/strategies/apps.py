"""The apps the oracle runs: name -> factory, family, root draw, oracle.

Min/max apps (SSSP, CC, WP, BFS) must reach their reference fixed point
byte for byte; arithmetic apps (PR, TR) within a stated tolerance of
theirs.  The references are :mod:`repro.apps.reference`'s sequential
implementations, which share no code with the engines.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np
from hypothesis import strategies as st

from repro.apps import (
    BFS,
    SSSP,
    ConnectedComponents,
    PageRank,
    TunkRank,
    WidestPath,
    reference,
)


@dataclass(frozen=True)
class App:
    name: str
    factory: Callable
    family: str  # "minmax" or "arithmetic"
    rooted: bool
    #: ``oracle(graph, root)`` -> float64 values from apps.reference.
    oracle: Callable


def _components(graph, root):
    return reference.connected_components(graph).astype(np.float64)


APPS = {app.name: app for app in (
    App("SSSP", SSSP, "minmax", True, reference.dijkstra),
    App("CC", ConnectedComponents, "minmax", False, _components),
    App("WP", WidestPath, "minmax", True, reference.widest_path),
    App("BFS", BFS, "minmax", True, reference.bfs_distances),
    App("PR", PageRank, "arithmetic", False,
        lambda graph, root: reference.pagerank(graph)),
    App("TR", TunkRank, "arithmetic", False,
        lambda graph, root: reference.tunkrank(graph)),
)}

FAMILIES = {
    family: tuple(name for name, app in APPS.items() if app.family == family)
    for family in ("minmax", "arithmetic")
}


def names(family, graph):
    """The family's apps that can run on ``graph``: a rooted app needs a
    vertex to start from."""
    return st.sampled_from([
        name for name in FAMILIES[family]
        if graph.num_vertices or not APPS[name].rooted
    ])


def roots(name, graph):
    """Any vertex for a rooted app, ``None`` for the others."""
    if not APPS[name].rooted:
        return st.none()
    return st.integers(0, graph.num_vertices - 1)
