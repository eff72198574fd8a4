"""Scaled stand-ins for the paper's evaluation datasets (Table 4).

The paper evaluates on seven real-world graphs (pokec, orkut, livejournal,
wiki, delicious, s-twitter, friendster) plus a 10 B-edge synthetic RMAT
graph.  Those inputs are 30 M – 10 B edges and are not available (nor
tractable) in this environment, so this module provides deterministic
synthetic stand-ins that preserve the properties the paper's redundancy
measurements depend on:

* the *relative* sizes of the seven graphs (|V| and |E| scaled by a common
  divisor, default 2000x),
* the average degree of each graph, and
* the topology class and, crucially, the *iteration regime* — social and
  folksonomy graphs use the locality-preserving
  :func:`repro.graph.generators.social_network` model (ring locality +
  Zipf-hub shortcuts), which keeps diameters in the 5-25 range so that
  iterative processing still runs the many supersteps the real graphs
  exhibit; the hyperlink graph and the synthetic scale-out graph use
  R-MAT.  A 2000x-scaled pure power-law graph would collapse to diameter
  2 and carry none of the redundant computation the paper measures.

Every stand-in is keyed by the paper's two-letter abbreviation and fully
deterministic (fixed per-dataset seed), so all experiments are repeatable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import GraphFormatError
from repro.graph import generators
from repro.graph.graph import Graph
from repro.runconfig import current

__all__ = ["DatasetSpec", "DATASETS", "PAPER_ORDER", "load", "load_all", "paper_table4"]

#: Default scale divisor applied to the paper's vertex counts.
DEFAULT_SCALE_DIVISOR = 2000


@dataclass(frozen=True)
class DatasetSpec:
    """Static description of one paper dataset and its stand-in recipe."""

    key: str
    full_name: str
    paper_vertices: int
    paper_edges: int
    avg_degree: float
    kind: str  # "social" | "hyperlink" | "folksonomy" | "rmat"
    seed: int

    def scaled_vertices(self, scale_divisor: int) -> int:
        """Stand-in vertex count (floor of paper |V| / divisor, min 64)."""
        return max(64, self.paper_vertices // scale_divisor)


def _social(spec: DatasetSpec, n: int) -> Graph:
    return generators.social_network(
        n,
        avg_degree=max(1, int(round(spec.avg_degree))),
        shortcut_density=0.05,
        hub_bias=1.5,
        seed=spec.seed,
        name=spec.key,
    )


def _hyperlink(spec: DatasetSpec, n: int) -> Graph:
    # R-MAT needs a power-of-two vertex count; round down and accept the
    # slightly smaller stand-in (degree is preserved via edge_factor).
    scale = max(6, n.bit_length() - 1)
    return generators.rmat(
        scale,
        edge_factor=spec.avg_degree,
        seed=spec.seed,
        name=spec.key,
    )


def _folksonomy(spec: DatasetSpec, n: int) -> Graph:
    # Folksonomy graphs (user-tag-resource) are sparse and deep relative
    # to social networks; the locality generator at low degree produces
    # exactly that regime (the DI stand-in has the largest diameter of
    # the seven, mirroring its distinct behaviour in the paper's plots).
    return generators.social_network(
        n,
        avg_degree=max(1, int(round(spec.avg_degree))),
        shortcut_density=0.05,
        hub_bias=1.7,
        seed=spec.seed,
        name=spec.key,
    )


_KIND_BUILDERS: Dict[str, Callable[[DatasetSpec, int], Graph]] = {
    "social": _social,
    "hyperlink": _hyperlink,
    "folksonomy": _folksonomy,
    "rmat": _hyperlink,
}

#: Table 4 of the paper, in the order the evaluation tables use.
DATASETS: Dict[str, DatasetSpec] = {
    "PK": DatasetSpec("PK", "pokec", 1_600_000, 30_600_000, 18.8, "social", 11),
    "OK": DatasetSpec("OK", "orkut", 3_100_000, 117_200_000, 38.1, "social", 12),
    "LJ": DatasetSpec("LJ", "livejournal", 4_800_000, 69_000_000, 14.23, "social", 13),
    "WK": DatasetSpec("WK", "wiki", 12_100_000, 378_100_000, 31.1, "hyperlink", 14),
    "DI": DatasetSpec("DI", "delicious", 33_800_000, 301_200_000, 8.9, "folksonomy", 15),
    "ST": DatasetSpec("ST", "s-twitter", 11_300_000, 85_300_000, 7.5, "social", 16),
    "FS": DatasetSpec("FS", "friendster", 65_600_000, 1_800_000_000, 27.5, "social", 17),
    "RMAT": DatasetSpec("RMAT", "synthetic-rmat", 300_000_000, 10_000_000_000, 33.3, "rmat", 18),
}

#: Column order used by the paper's Tables 2 and 5 and Figures 2, 5, 8.
PAPER_ORDER: List[str] = ["PK", "OK", "LJ", "WK", "DI", "ST", "FS"]

_cache: Dict[Tuple[str, int, bool], Graph] = {}


def load(
    key: str,
    scale_divisor: int = DEFAULT_SCALE_DIVISOR,
    weighted: bool = False,
    use_cache: bool = True,
) -> Graph:
    """Build (or fetch from cache) the stand-in for one paper dataset.

    Parameters
    ----------
    key:
        Paper abbreviation: one of ``PK OK LJ WK DI ST FS RMAT``.
    scale_divisor:
        How much to shrink the paper's |V|; larger is smaller/faster.
    weighted:
        Attach deterministic uniform-random weights in [1, 10) — used by
        SSSP and WidestPath workloads.
    use_cache:
        Re-use a previously built graph for the same arguments (stand-ins
        are immutable, so sharing is safe and keeps test suites fast).

    Notes
    -----
    When an artifact store is configured for the run
    (:mod:`repro.runconfig`, the CLI's ``--cache-dir``),
    the formatted graph is looked up on disk before being rebuilt and
    offered back after a build — the "formatting" preprocessing step
    then runs once per (dataset, scale, weighted) tuple across *jobs*,
    not once per process.  Loads are fingerprint-validated; a corrupt
    entry is dropped with a warning and the graph is rebuilt.
    """
    spec = DATASETS.get(key)
    if spec is None:
        raise GraphFormatError(
            "unknown dataset %r (expected one of %s)"
            % (key, ", ".join(sorted(DATASETS)))
        )
    if scale_divisor < 1:
        raise GraphFormatError("scale_divisor must be >= 1")
    cache_key = (key, scale_divisor, weighted)
    if use_cache and cache_key in _cache:
        return _cache[cache_key]
    from repro.store import graph_spec_key

    store = current().store
    spec_key = graph_spec_key(key, scale_divisor, weighted)
    graph = store.consult_graph(spec_key) if store is not None else None
    if graph is None:
        n = spec.scaled_vertices(scale_divisor)
        graph = _KIND_BUILDERS[spec.kind](spec, n)
        if weighted:
            graph = generators.random_weights(
                graph, 1.0, 10.0, seed=spec.seed
            )
            graph.name = spec.key
        if store is not None:
            store.offer_graph(
                spec_key,
                graph,
                source={
                    "dataset": key,
                    "scale_divisor": scale_divisor,
                    "weighted": bool(weighted),
                    "seed": spec.seed,
                },
            )
    if use_cache:
        _cache[cache_key] = graph
    return graph


def load_all(
    keys: Optional[List[str]] = None,
    scale_divisor: int = DEFAULT_SCALE_DIVISOR,
    weighted: bool = False,
) -> Dict[str, Graph]:
    """Load several stand-ins at once, defaulting to the 7 real graphs."""
    return {
        key: load(key, scale_divisor=scale_divisor, weighted=weighted)
        for key in (keys or PAPER_ORDER)
    }


def paper_table4() -> List[Tuple[str, int, int, float, str]]:
    """The rows of the paper's Table 4 (name, |V|, |E|, avg degree, type)."""
    order = PAPER_ORDER + ["RMAT"]
    return [
        (
            DATASETS[k].full_name,
            DATASETS[k].paper_vertices,
            DATASETS[k].paper_edges,
            DATASETS[k].avg_degree,
            DATASETS[k].kind,
        )
        for k in order
    ]
