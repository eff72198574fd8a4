"""The metric registry: every name ``measure`` may print, with its unit.

``BENCHMARK.json`` lists exactly these names (the smoke test holds the
two in step).  A per-layer metric that does not apply to a workload —
``parallel.*`` anywhere but ``pr-parallel`` — is reported as 0 there.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: ``(name, unit, better, bound)``; the bound is the share of the
#: parent's median a metric may worsen by before a change is rejected.
#: Memory repeats to a few percent and keeps ISSUE 11's 0.10.  The
#: timings take the largest bound the benchmark driver allows: across
#: ten seeds ``sssp-grid.job_s`` spreads by 0.08 of its median because
#: the seed draws the weights, and the driver wants three times the
#: spread (see "Bounds" in perfbench/README.md).
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("job_s", "s", "lower", 0.25),
    ("preprocess_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
]

#: The workloads whose result sets carry ``preprocess_s``: the other
#: three generate guidance on ``pr-rr``'s graph again, or use none.
#: (``measure`` times it everywhere, because the benchmark driver wants
#: every end-to-end metric on every result line.)
PREPROCESS_WORKLOADS = ("pr-rr", "cc-rr", "sssp-social", "sssp-grid")

#: ``(name, unit, better)``; the prefix before the last dot is the layer.
PER_LAYER: List[Tuple[str, str, str]] = [
    # set-up (step 2)
    ("graph.generators.build_s", "s", "lower"),
    ("graph.csr.build_s", "s", "lower"),
    ("ooc.spill_s", "s", "lower"),
    # preprocessing (step 3)
    ("core.rrg.generate_s", "s", "lower"),
    ("core.rrg.generate_edge_ops", "count", "lower"),
    ("core.rrg.levels", "count", "lower"),
    # the traced job (step 8): self times tile the job's wall clock
    ("graph.csr.expand_s", "s", "lower"),
    ("graph.csr.expand_calls", "count", "lower"),
    ("graph.csr.expand_edges", "count", "lower"),
    ("graph.csr.degrees_s", "s", "lower"),
    ("graph.csr.job_build_s", "s", "lower"),
    ("graph.graph.undirected_view_s", "s", "lower"),
    ("core.engine.self_s", "s", "lower"),
    ("core.engine.supersteps", "count", "lower"),
    ("core.engine.pull_supersteps", "count", "lower"),
    ("core.engine.push_supersteps", "count", "lower"),
    ("core.engine.self_per_superstep_us", "us", "lower"),
    ("core.engine.edge_ops", "count", "lower"),
    ("core.engine.edge_ops_per_s", "1/s", "higher"),
    ("core.runtime.dispatch_init_s", "s", "lower"),
    ("core.runtime.gather_s", "s", "lower"),
    ("core.runtime.pull_apply_s", "s", "lower"),
    ("core.runtime.push_s", "s", "lower"),
    ("core.runtime.expand_out_dsts_s", "s", "lower"),
    ("core.runtime.grouped_reduce_s", "s", "lower"),
    ("core.frontier.choose_mode_s", "s", "lower"),
    ("core.accounting.segmented_improvements_s", "s", "lower"),
    ("core.state.observe_s", "s", "lower"),
    ("core.state.thaw_s", "s", "lower"),
    ("apps.edge_kernel_s", "s", "lower"),
    ("apps.apply_s", "s", "lower"),
    ("apps.prepare_s", "s", "lower"),
    ("partition.chunking_s", "s", "lower"),
    ("cluster.init_s", "s", "lower"),
    ("cluster.accounting_s", "s", "lower"),
    ("cluster.messages", "count", "lower"),
    ("cluster.modeled_exec_s", "s", "lower"),
    ("cluster.modeled_over_measured", "ratio", "higher"),
    # redundancy reduction against its own RR-off reference (step 7)
    ("core.rrg.edge_ops_saved_frac", "ratio", "higher"),
    ("core.rrg.skipped_computations", "count", "higher"),
    ("core.rrg.norr_job_s", "s", "lower"),
    ("core.rrg.measured_speedup", "ratio", "higher"),
    ("core.rrg.modeled_speedup", "ratio", "higher"),
    ("core.rrg.linf_vs_norr", "ratio", "lower"),
    # the cost of observing
    ("trace.recorder_overhead_frac", "ratio", "lower"),
    ("trace.events", "count", "lower"),
    ("trace.emit_s", "s", "lower"),
    # worker pool (pr-parallel)
    ("parallel.pool_start_s", "s", "lower"),
    ("parallel.phase_s", "s", "lower"),
    ("parallel.worker_busy_s", "s", "lower"),
    ("parallel.wait_frac", "ratio", "lower"),
    ("parallel.imbalance", "ratio", "lower"),
    ("parallel.steals", "count", "lower"),
    ("parallel.control_messages", "count", "lower"),
    ("parallel.close_s", "s", "lower"),
    ("parallel.speedup_vs_serial", "ratio", "higher"),
    ("parallel.efficiency", "ratio", "higher"),
    # shard streaming (pr-ooc)
    ("ooc.phase_s", "s", "lower"),
    ("ooc.stall_s", "s", "lower"),
    ("ooc.cache_hit_frac", "ratio", "higher"),
    ("ooc.slowdown_vs_memory", "ratio", "lower"),
    ("graph.shards.decode_s", "s", "lower"),
    ("graph.shards.decode_calls", "count", "lower"),
    ("graph.shards.expand_s", "s", "lower"),
    ("store.get_shard_blob_s", "s", "lower"),
    ("store.shard_bytes_read", "count", "lower"),
    # context (sssp-social)
    ("baselines.gemini_job_s", "s", "lower"),
    ("baselines.slfe_over_gemini", "ratio", "lower"),
    # the instrument itself
    ("perfbench.untraced_job_s", "s", "lower"),
    ("perfbench.traced_job_s", "s", "lower"),
    ("perfbench.span_overhead_frac", "ratio", "lower"),
    ("perfbench.spans", "count", "lower"),
]

UNITS: Dict[str, str] = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def with_units(values: Dict[str, float], names) -> Dict[str, Dict[str, object]]:
    """``{name: {"value", "unit"}}`` for ``names``; a missing one reads 0."""
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": UNITS[name]}
        for name in names
    }
