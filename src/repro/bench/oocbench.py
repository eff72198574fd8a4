"""Out-of-core scaling measurement: in-memory vs shard-streaming.

The claim the ooc backend makes is a *memory* claim: vertex state is
O(|V|) resident, edges stream from the artifact store, so peak RSS
should stay flat while |E| grows.  Wall clock inside one process cannot
witness that — a high-water mark covers the whole process lifetime, and
a parent that ever materialised the in-memory graph has already spoiled
it.  So every measured run happens in a fresh child interpreter
(``python -m repro.bench.oocbench --child ...``) and reports its own
peak RSS (``VmHWM``, see :func:`_peak_rss_bytes`) plus a checksum of the
converged values; the parent only orchestrates and asserts the
checksums agree.

Three child modes per scale point:

``prep``
    Build the LJ stand-in and spill it (both directions) into a shared
    on-disk store; prints the shard digest.  Paid once, off the books —
    the paper's preprocessing/execution split.
``run-ooc``
    Reopen the spilled graph (indptr only), run PageRank on the ooc
    backend.  Never holds an edge array.
``run-mem``
    Build the same graph in memory and run the serial reference.

``python -m repro.bench.oocbench`` prints the sweep; CI's ``ooc`` job
asserts on it (peak RSS below in-memory at 10x scale).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from typing import List, Optional, Sequence

#: LJ at these divisors spans two orders of magnitude in |E|
#: (~34K / ~336K / ~3.4M edges) — enough to see RSS slope.
DEFAULT_SCALE_DIVISORS = (2000, 200, 20)
#: Small enough that even the 1x point streams several shards.
DEFAULT_SHARD_MB = 1.0
GRAPH_KEY = "LJ"


def _peak_rss_bytes() -> int:
    """This child's own high-water RSS.

    ``ru_maxrss`` survives ``exec``, so a child spawned from a large
    parent would report the parent's peak; ``VmHWM`` belongs to the
    address space and starts fresh after ``exec``.
    """
    try:
        with open("/proc/self/status", "r", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    from repro.ooc import peak_rss_bytes

    return peak_rss_bytes()


def _values_checksum(values) -> str:
    import numpy as np

    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


def _run_pagerank(graph):
    """Serial-reference run shape shared by both measured children."""
    from repro.apps.pagerank import PageRank
    from repro.cluster.cluster import ClusterConfig
    from repro.core.engine import SLFEEngine

    engine = SLFEEngine(
        graph,
        config=ClusterConfig(num_nodes=1),
        enable_rr=False,
    )
    t0 = time.perf_counter()
    result = engine.run_arithmetic(PageRank())
    wall = time.perf_counter() - t0
    return result, wall


def _child_prep(store_dir: str, scale_divisor: int, shard_mb: float) -> dict:
    from repro.graph import datasets
    from repro.ooc import spill_graph
    from repro.store import ArtifactStore

    graph = datasets.load(
        GRAPH_KEY, scale_divisor=scale_divisor, use_cache=False
    )
    store = ArtifactStore(store_dir, max_bytes=None)
    digest = spill_graph(graph, store, shard_mb=shard_mb)
    return {
        "digest": digest,
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
    }


def _child_run_ooc(store_dir: str, digest: str, shard_mb: float,
                   shard_cache: int) -> dict:
    from repro.ooc import install_ooc, load_spilled
    from repro.store import ArtifactStore, install_store

    store = ArtifactStore(store_dir, max_bytes=None)
    spilled = load_spilled(store, digest)
    install_store(store)
    install_ooc(shard_mb, shard_cache)
    from repro.parallel import install_backend

    install_backend("ooc", 1)
    result, wall = _run_pagerank(spilled)
    return {
        "wall_seconds": wall,
        "peak_rss_bytes": _peak_rss_bytes(),
        "iterations": result.iterations,
        "checksum": _values_checksum(result.values),
    }


def _child_run_mem(scale_divisor: int) -> dict:
    from repro.graph import datasets

    graph = datasets.load(
        GRAPH_KEY, scale_divisor=scale_divisor, use_cache=False
    )
    result, wall = _run_pagerank(graph)
    return {
        "wall_seconds": wall,
        "peak_rss_bytes": _peak_rss_bytes(),
        "iterations": result.iterations,
        "checksum": _values_checksum(result.values),
    }


def _spawn_child(argv: List[str], timeout: float) -> dict:
    """Run one child mode in a fresh interpreter, return its JSON line."""
    env = dict(os.environ)
    src_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)
    )))
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_root if not existing
        else src_root + os.pathsep + existing
    )
    command = [sys.executable, "-m", "repro.bench.oocbench", "--child"]
    completed = subprocess.run(
        command + argv,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            "oocbench child %r failed (exit %d):\n%s"
            % (argv, completed.returncode, completed.stderr.strip())
        )
    # The payload is the last stdout line; libraries may warn above it.
    return json.loads(completed.stdout.strip().splitlines()[-1])


def measure(
    scale_divisors: Sequence[int] = DEFAULT_SCALE_DIVISORS,
    shard_mb: float = DEFAULT_SHARD_MB,
    shard_cache: int = 4,
    child_timeout: float = 600.0,
) -> dict:
    """In-memory vs ooc PageRank at increasing |E|; one row per scale.

    Every row carries both backends' wall clock and child-process peak
    RSS, plus ``identical`` — whether the converged value vectors'
    checksums agree (they must; the ooc backend is bit-identical by
    construction).
    """
    rows = []
    for divisor in scale_divisors:
        with tempfile.TemporaryDirectory(prefix="repro-oocbench-") as root:
            prep = _spawn_child(
                ["prep", "--store", root, "--scale", str(divisor),
                 "--shard-mb", repr(shard_mb)],
                child_timeout,
            )
            ooc = _spawn_child(
                ["run-ooc", "--store", root, "--digest", prep["digest"],
                 "--shard-mb", repr(shard_mb),
                 "--shard-cache", str(shard_cache)],
                child_timeout,
            )
        mem = _spawn_child(
            ["run-mem", "--scale", str(divisor)], child_timeout
        )
        rows.append({
            "scale_divisor": divisor,
            "num_vertices": prep["num_vertices"],
            "num_edges": prep["num_edges"],
            "in_memory": {
                "wall_seconds": mem["wall_seconds"],
                "peak_rss_bytes": mem["peak_rss_bytes"],
            },
            "ooc": {
                "wall_seconds": ooc["wall_seconds"],
                "peak_rss_bytes": ooc["peak_rss_bytes"],
            },
            "iterations": ooc["iterations"],
            "identical": ooc["checksum"] == mem["checksum"],
        })
    return {
        "graph": GRAPH_KEY,
        "shard_mb": shard_mb,
        "shard_cache": shard_cache,
        "rows": rows,
    }


def _child_main(argv: List[str]) -> int:
    mode = argv[0]
    options = {}
    index = 1
    while index < len(argv):
        options[argv[index].lstrip("-")] = argv[index + 1]
        index += 2
    if mode == "prep":
        payload = _child_prep(
            options["store"], int(options["scale"]),
            float(options["shard-mb"]),
        )
    elif mode == "run-ooc":
        payload = _child_run_ooc(
            options["store"], options["digest"],
            float(options["shard-mb"]), int(options["shard-cache"]),
        )
    elif mode == "run-mem":
        payload = _child_run_mem(int(options["scale"]))
    else:
        print("unknown child mode %r" % mode, file=sys.stderr)
        return 2
    print(json.dumps(payload))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "--child":
        return _child_main(argv[1:])
    payload = measure()
    print(json.dumps(payload, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
