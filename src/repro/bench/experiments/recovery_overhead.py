"""Recovery overhead — the fault-tolerance companion to Figure 8.

Figure 8 prices SLFE's *preprocessing*; this experiment prices its
*fault tolerance*.  For each graph, SSSP runs three times on the
8-node cluster:

* ``clean`` — no checkpoints, no faults (the baseline every other
  experiment measures);
* ``ckpt`` — checkpointing every ``checkpoint_every`` supersteps but no
  faults (the steady-state insurance premium);
* ``crash`` — same checkpoints plus one mid-run node crash: surviving
  nodes absorb the lost partition, the engine rolls back to the last
  checkpoint and replays, and the cached RR guidance is *reused* — the
  SLFE-specific recovery shortcut (guidance is topological, so a crash
  cannot invalidate it; a system without reusable guidance would pay
  Figure 8's preprocessing bar again here).

Reported columns are modeled seconds normalised to ``clean``, plus the
absolute fault-tolerance seconds (checkpoint writes + takeover traffic
+ retries) and the supersteps replayed after the rollback.  Results
stay bit-identical across all three runs — the overhead is pure time,
never answer quality — which the fault-recovery tests assert.

Under ``--backend parallel`` a second table is produced: *measured*
(wall-clock, not modeled) pool-recovery latency.  A real worker process
is SIGKILLed (``crash``) or SIGSTOPped (``hang``) during the first push
phase and the table reports how long detection + respawn took, whether
the run degraded to inline execution, and that the answer stayed
bit-identical to a fault-free serial run.
"""

from __future__ import annotations

from typing import List, Optional, Union

from repro.bench import workloads
from repro.bench.reporting import Table
from repro.bench.runner import run_workload
from repro.cluster.faults import FaultPlan, NodeCrash

__all__ = [
    "run",
    "main",
    "measured_pool_recovery",
    "CRASH_SUPERSTEP",
    "CRASH_NODE",
]

#: The injected failure: node 2 dies at superstep 6 — late enough that
#: real work is lost, early enough that rollback has work to replay.
CRASH_SUPERSTEP = 6
CRASH_NODE = 2

#: The measured pool fault: worker 0 during the first push phase — the
#: one dispatch every SLFE application is guaranteed to perform.
MEASURED_FAULT_SUPERSTEP = 1
MEASURED_FAULT_PHASE = "push"
#: A hung worker is only detected at the reply deadline; the 120 s
#: default would stall the bench, so the hang row measures against a
#: short timeout (the reported latency is detection + respawn).
MEASURED_HANG_TIMEOUT = 1.0


def measured_pool_recovery(
    scale_divisor: int = workloads.DEFAULT_SCALE_DIVISOR,
    num_nodes: int = 2,
    graph: str = "PK",
) -> Table:
    """Measured pool-recovery latency under real worker kill/stop faults.

    Only meaningful with the parallel backend configured for the run (the
    CLI's ``--backend parallel``): the faults target actual pool worker
    processes.  Each row injects one fault, lets the executor recover,
    and compares the answer bit-for-bit against a fault-free serial run.
    """
    import numpy as np

    from repro.cluster.faults import WorkerFault
    from repro.runconfig import configured, resolve
    from repro.trace import recorder as ev
    from repro.trace.recorder import TraceRecorder

    pool_workers = resolve("num_workers")
    table = Table(
        "Measured pool recovery: SSSP/%s, worker 0 killed or stopped "
        "during the first push (%d workers, wall-clock seconds)"
        % (graph, pool_workers),
        ["fault", "applied", "respawns", "recovery_s", "degraded",
         "identical"],
    )
    reference = run_workload(
        "SLFE", "SSSP", graph,
        num_nodes=num_nodes, scale_divisor=scale_divisor,
        backend="serial",
    ).result.values
    for kind in ("crash", "hang"):
        plan = FaultPlan(worker_faults=(
            WorkerFault(
                superstep=MEASURED_FAULT_SUPERSTEP,
                phase=MEASURED_FAULT_PHASE,
                worker=0,
                kind=kind,
            ),
        ))
        recorder = TraceRecorder()
        with configured(reply_timeout=MEASURED_HANG_TIMEOUT):
            outcome = run_workload(
                "SLFE", "SSSP", graph,
                num_nodes=num_nodes, scale_divisor=scale_divisor,
                recorder=recorder, fault_plan=plan,
            )
        applied = any(
            bool(event.payload.get("applied"))
            for event in recorder.events_named(ev.FAULT)
            if str(event.payload.get("kind", "")).startswith("worker-")
        )
        respawns = sum(
            1
            for event in recorder.events_named(ev.PARALLEL_RECOVERY)
            if event.payload.get("action") == "respawned"
        )
        recovery_seconds = sum(
            float(event.payload.get("seconds", 0.0))
            for event in recorder.events_named(ev.PARALLEL_RECOVERY)
            if event.payload.get("action") == "recovered"
        )
        table.add_row(
            "worker-%s@%d:%s-0"
            % (kind, MEASURED_FAULT_SUPERSTEP, MEASURED_FAULT_PHASE),
            applied,
            respawns,
            recovery_seconds,
            outcome.result.degraded,
            bool(np.array_equal(outcome.result.values, reference)),
        )
    return table


def run(
    scale_divisor: int = workloads.DEFAULT_SCALE_DIVISOR,
    num_nodes: int = 8,
    graphs: Optional[List[str]] = None,
    checkpoint_every: int = 4,
) -> Union[Table, List[Table]]:
    """Regenerate the recovery-overhead table (modeled seconds).

    With the parallel backend configured for the run, a second table of
    *measured* pool-recovery latency (see :func:`measured_pool_recovery`)
    is appended — ``repro bench recovery --backend parallel``.
    """
    graphs = graphs or workloads.PAPER_GRAPHS
    crash_plan = FaultPlan(
        crashes=(NodeCrash(superstep=CRASH_SUPERSTEP, node=CRASH_NODE),)
    )
    table = Table(
        "Recovery overhead: SSSP with checkpoint every %d supersteps and "
        "one node crash (normalised to fault-free = 1)" % checkpoint_every,
        [
            "graph",
            "clean",
            "ckpt",
            "crash",
            "ft_seconds",
            "replayed",
        ],
    )
    for key in graphs:
        clean = run_workload(
            "SLFE", "SSSP", key,
            num_nodes=num_nodes, scale_divisor=scale_divisor,
        ).seconds
        ckpt = run_workload(
            "SLFE", "SSSP", key,
            num_nodes=num_nodes, scale_divisor=scale_divisor,
            checkpoint_every=checkpoint_every,
        ).seconds
        crashed = run_workload(
            "SLFE", "SSSP", key,
            num_nodes=num_nodes, scale_divisor=scale_divisor,
            checkpoint_every=checkpoint_every, fault_plan=crash_plan,
        )
        table.add_row(
            key,
            1.0,
            ckpt / clean if clean > 0 else 0.0,
            crashed.seconds / clean if clean > 0 else 0.0,
            crashed.runtime.fault_tolerance_seconds,
            crashed.result.metrics.supersteps_replayed,
        )
    from repro.runconfig import resolve

    if resolve("backend") == "parallel":
        return [table, measured_pool_recovery(scale_divisor=scale_divisor)]
    return table


def main() -> None:
    print(run().render())


if __name__ == "__main__":
    main()
