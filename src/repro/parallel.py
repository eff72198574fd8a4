"""Real shared-memory parallel execution backend (Section 3.6, measured).

Where :mod:`repro.cluster.worksteal` *models* SLFE's mini-chunk work
stealing (makespans in op units), this module *runs* it: supersteps
execute across a **persistent pool** of worker processes that share the
graph and all per-superstep scratch state through
``multiprocessing.shared_memory`` blocks — zero-copy numpy views on
every side — for the whole lifetime of one engine run.  Scratch blocks
are used as created (zero-filled), never copied into, and a direction
with unit weights shares no weights block at all.

Control protocol
----------------
Workers are spawned once per run and attach every shared block once, at
startup.  After that, nothing structured ever crosses the pipe again:

* the parent writes the phase id, the epoch counter, the task count,
  the aggregation code, and the block size into a fixed eight-slot
  ``int64`` **control block** in shared memory;
* it wakes each worker with a single byte (``b"G"``) and waits for a
  single acknowledgement byte (``b"\\x06"``) per worker — so one phase
  costs exactly ``2 x num_workers`` pipe messages, O(1) per phase, no
  pickling, regardless of graph size or chunk count;
* a worker that fails sends its traceback (UTF-8 bytes) instead of the
  ack, and the parent raises a typed :class:`EngineError` naming the
  worker, the phase, and the epoch;
* the **epoch counter** makes missed or duplicated wakeups loud: each
  worker tracks how many pokes it has seen and refuses a control block
  whose epoch does not match.

Fused blockwise kernels
-----------------------
Workers run the same fused kernels as the serial engine
(:func:`repro.core.runtime.pull_apply_block` /
:func:`~repro.core.runtime.gather_block` /
:func:`~repro.core.runtime.push_block`): pull fuses the gather, the
grouped reduction, *and* the ``app.better`` improvement test into one
worker-side pass; gather fuses the contribution expansion with the
grouped sum.  The task list is split into a handful of large contiguous
blocks (``count / (workers x 4)``, floored at the paper's 256-vertex
mini-chunk) claimed from a shared atomic counter — the flox-style
blockwise grouped reduction: big enough for numpy throughput, numerous
enough for stealing to balance skew.  A block claimed outside the
worker's static contiguous share counts as a steal in its stats.

Determinism
-----------
Results are bit-identical to the serial engine because every grouped
reduction is computed from the same contiguous per-vertex edge block
with the same numpy reduction, entirely within one block — blocks never
split a vertex's edge run, so block *assignment* only affects which
process computes a value, never the value (see
:func:`repro.core.runtime.grouped_reduce`).  Push candidates are
written at their serial expansion offsets, so the parent applies them
over the byte-identical edge sequence.  Everything order-sensitive —
push apply, frontier updates, RR bookkeeping, stability tracking,
messaging, faults, checkpoints — stays in the parent, byte for byte
the serial code path.

Self-healing
------------
A worker that dies (SIGKILL, OOM, segfault) or stops acking (hang) no
longer aborts the run.  The parent recovers at phase granularity —
every phase writes disjoint output slots from a read-only ``values``
snapshot, so re-executing a whole phase is bit-identical by
construction:

1. **detect** — the ack poll notices a dead pipe / liveness flip
   (death) or an expired reply deadline (hang);
2. **drain** — surviving workers finish the wrecked epoch and their
   acks are consumed, so no stale bytes survive in any pipe;
3. **quarantine** — the failed worker is SIGKILLed (a hung worker may
   merely be stopped) and its pipe closed; the shared segments are
   untouched — they belong to the parent;
4. **respawn** — a replacement attaches to the same CSR/scratch
   segments and starts with its epoch pre-synchronised to the parent's;
5. **re-dispatch** — the partial phase outputs are reset and the phase
   re-runs under a bumped epoch.

Respawns draw from a bounded budget (``max_respawns``, doubling
backoff).  When the budget is exhausted the pool **degrades**: every
worker is killed, the shared segments stay alive, and the parent runs
the same fused kernels inline over the same arrays — serial semantics,
same results, ``degraded=True`` on the executor — rather than failing
the job.  Deterministic worker faults for testing this machinery come
from :class:`repro.cluster.faults.WorkerFault`
(``worker-crash@K:PHASE-W`` / ``worker-hang@K:PHASE-W``), delivered as
real signals immediately before the matching dispatch.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import time
import traceback
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.cluster.worksteal import MINI_CHUNK_VERTICES
from repro.core.runtime import (
    AGGREGATION_CODES,
    PHASE_GATHER,
    PHASE_NAMES_BY_ID,
    PHASE_PULL,
    PHASE_PUSH,
    TEL_COLS,
    expand_row_dsts,
    telemetry_advance,
    telemetry_begin,
    telemetry_end,
)
from repro.errors import EngineError
from repro.graph.csr import CSR
from repro.graph.graph import Graph
from repro.runconfig import integer_at_least, resolve

__all__ = ["ParallelExecutor"]

#: Base of the doubling backoff slept before the 2nd, 3rd, ... respawn
#: (the first respawn is immediate), capped at one second.
RESPAWN_BACKOFF_SECONDS = 0.05

#: Target blocks per worker per phase.  Enough slack for the shared
#: counter to rebalance a skewed block, few enough that per-block numpy
#: fixed costs stay negligible next to the kernels themselves.
BLOCK_OVERSUBSCRIPTION = 4

# Wire protocol: one byte each way per worker per phase.
_POKE = b"G"
_STOP = b"S"
_ACK = b"\x06"

# Control-block slots (int64 x 8; trailing slots reserved).
_CTRL_SLOTS = 8
_CTRL_EPOCH = 0
_CTRL_PHASE = 1
_CTRL_COUNT = 2
_CTRL_AGG = 3
_CTRL_BLOCK = 4

# Per-worker stats columns in the shared stats block.
_STAT_BUSY = 0
_STAT_CHUNKS = 1
_STAT_STEALS = 2
_STAT_TASKS = 3
_STAT_EDGES = 4
_STAT_COLS = 5


# ----------------------------------------------------------------------
# shared-memory plumbing
# ----------------------------------------------------------------------
def _attach(name: str):
    """Attach to a named block, leaving cleanup to the parent.

    The parent owns the blocks (it unlinks them in ``close``).
    ``mp.Process`` children inherit the parent's resource-tracker fd
    under both ``fork`` and ``spawn``, so the attach-time registration
    this performs is a set no-op in the shared tracker; the popular
    bpo-38119 "unregister after attach" workaround must *not* be used
    here — it would strip the parent's own registration and break its
    unlink-time bookkeeping.
    """
    from multiprocessing import shared_memory

    return shared_memory.SharedMemory(name=name)


class _WorkerFailure(Exception):
    """Internal: workers died or hung mid-phase (candidate for recovery).

    Never escapes :class:`ParallelExecutor` — it is either recovered
    from (respawn / degrade) or converted into the typed
    :class:`EngineError` naming the worker, the phase, and the epoch.
    """

    def __init__(
        self,
        kinds: Dict[int, str],
        phase: str,
        pending: Optional[Set[int]] = None,
    ) -> None:
        #: worker id -> "died" | "timeout"
        self.kinds = dict(kinds)
        self.phase = phase
        #: poked survivors whose ack for the wrecked epoch is still owed
        self.pending: Set[int] = set() if pending is None else set(pending)
        super().__init__(
            "workers %s failed during phase %r"
            % (sorted(self.kinds), phase)
        )


class ParallelExecutor:
    """Persistent worker pool sharing one graph for one engine run.

    Implements the same phase-dispatch interface as
    :class:`repro.core.runtime.SerialDispatch`: public ``values`` /
    ``result`` / ``improved`` scratch views (here backed by shared
    memory), the fused :meth:`pull_apply` / :meth:`gather` /
    :meth:`push` phase methods, and :meth:`detach_values` /
    :meth:`close` lifecycle.

    Parameters
    ----------
    graph:
        The run graph; both CSR directions are copied into shared
        memory once, at startup.
    app:
        The (already bound/prepared) application whose vectorised edge
        hooks the workers execute.  Shipped to each worker at startup.
    num_workers:
        Worker processes to spawn.
    chunk_vertices:
        Minimum block size in task positions; defaults to the paper's
        256-vertex mini-chunk.  Actual blocks are usually larger (the
        task list split ``BLOCK_OVERSUBSCRIPTION`` ways per worker).
    start_method:
        ``multiprocessing`` start method; defaults to ``fork`` where
        available (fast) and ``spawn`` elsewhere.  Both work: all state
        travels through the named shared-memory blocks.
    reply_timeout:
        Seconds to wait for one worker ack before declaring the worker
        hung; ``None`` resolves the ``reply_timeout`` knob
        (:func:`repro.runconfig.resolve`).
    max_respawns:
        Worker respawns allowed for this run before the pool degrades
        (or, with ``allow_degrade=False``, fails); ``None`` resolves
        like ``reply_timeout``.
    allow_degrade:
        When the respawn budget is exhausted: ``True`` (default) kills
        the pool and finishes the run with the same fused kernels
        inline over the live shared arrays (``degraded`` flips to
        True); ``False`` raises the typed :class:`EngineError` instead
        (the pre-recovery fail-fast behaviour, kept for tests and
        callers that prefer loud death).
    recorder:
        Optional trace recorder; recovery steps are emitted as
        ``parallel_recovery`` events and injected worker faults as
        ``fault`` events.
    worker_faults:
        :class:`repro.cluster.faults.WorkerFault` instances to deliver
        as real signals at their (superstep, phase, worker) coordinate
        (the engine arms these from the run's fault plan and calls
        :meth:`begin_superstep` to advance the superstep clock).
    """

    def __init__(
        self,
        graph: Graph,
        app: Any,
        num_workers: int,
        chunk_vertices: int = MINI_CHUNK_VERTICES,
        start_method: Optional[str] = None,
        reply_timeout: Optional[float] = None,
        max_respawns: Optional[int] = None,
        allow_degrade: bool = True,
        recorder: Optional[Any] = None,
        worker_faults: Sequence[Any] = (),
    ) -> None:
        self.num_workers = resolve("num_workers", num_workers)
        self.chunk_vertices = integer_at_least(1)(
            chunk_vertices, "chunk_vertices"
        )
        self._timeout = resolve("reply_timeout", reply_timeout)
        self._max_respawns = resolve("max_respawns", max_respawns)
        self._allow_degrade = bool(allow_degrade)
        self._recorder = recorder
        self._worker_faults = tuple(worker_faults)
        self._fired_faults: Set[Any] = set()
        self._respawns_used = 0
        self._superstep = 0
        #: True once the pool gave up and fell back to inline execution.
        self.degraded = False
        self._shms: List[Any] = []
        self._closed = False
        #: Callbacks invoked at the top of :meth:`close`, while every
        #: shared view is still mapped — how the live telemetry sampler
        #: detaches (stop, join, final snapshot) before segments unlink.
        self.close_listeners: List[Any] = []
        self._procs: List[Any] = []
        self._conns: List[Any] = []
        self._epoch = 0
        #: Info about the most recent dispatch (phase, epoch, blocks,
        #: pipe messages, control bytes) — the trace's O(1)-IPC witness.
        self.last_dispatch: Optional[Dict[str, Any]] = None

        n = graph.num_vertices
        m = graph.num_edges
        self.num_vertices = n
        in_csr = graph.in_csr
        out_csr = graph.out_csr
        self.in_degrees = in_csr.degrees()
        self.out_degrees = out_csr.degrees()

        spec: Dict[str, Tuple[str, tuple, str]] = {}

        def share(key: str, shape: Any, dtype: Any, source: Any = None) -> np.ndarray:
            view, spec[key] = self._create_block(shape, dtype, source)
            return view

        try:
            # The CSR views are kept: the degraded (inline) execution
            # path runs the fused kernels in the parent over these same
            # shared blocks.  Unit weights are not data: no block.
            self._csr_views = {
                key: share(key, source.shape, source.dtype, source)
                for key, source in (
                    ("in_indptr", in_csr.indptr),
                    ("in_indices", in_csr.indices),
                    ("in_weights", None if in_csr.unit_weights else in_csr.weights),
                    ("out_indptr", out_csr.indptr),
                    ("out_indices", out_csr.indices),
                    ("out_weights", None if out_csr.unit_weights else out_csr.weights),
                )
                if source is not None
            }
            # Filled: read-only from here (expand_out_dsts returns views).
            for view in self._csr_views.values():
                view.flags.writeable = False
            self.values = share("values", n, np.float64)
            self.result = share("result", n, np.float64)
            self.improved = share("improved", n, bool)
            self._task_ids = share("task_ids", n, np.int64)
            self._task_offsets = share("task_offsets", n + 1, np.int64)
            self._edge_dsts = share("edge_dsts", m, np.int64)
            self._edge_cands = share("edge_cands", m, np.float64)
            self._control = share("control", _CTRL_SLOTS, np.int64)
            self._stats = share(
                "stats", (self.num_workers, _STAT_COLS), np.float64
            )
            # Live telemetry segment: one 128-byte padded int64 slot per
            # worker, written lock-free by its owner between kernel
            # blocks (see the TEL_* layout in repro.core.runtime) and
            # sampled read-only by the parent's TelemetrySampler thread
            # — zero pipe traffic, the O(1)-IPC invariant untouched.
            self.telemetry = share(
                "telemetry", (self.num_workers, TEL_COLS), np.int64
            )

            if start_method is None:
                start_method = (
                    "fork"
                    if "fork" in mp.get_all_start_methods()
                    else "spawn"
                )
            ctx = mp.get_context(start_method)
            # Respawns need the spawn ingredients for the run's lifetime.
            self._ctx = ctx
            self._spec = spec
            self._app = app
            self._counter = ctx.Value("q", 0)
            for worker_id in range(self.num_workers):
                self._spawn_worker(worker_id, start_epoch=0)
            for worker_id in range(self.num_workers):
                try:
                    self._recv_ack(worker_id, "startup")
                except _WorkerFailure as failure:
                    raise self._failure_error(failure)
        except BaseException:
            self.close()
            raise

    def _spawn_worker(self, worker_id: int, start_epoch: int) -> None:
        """Start one worker; pipe fds never leak, even if start fails.

        The parent end is registered in ``self._conns`` *before*
        ``start`` so a failed start is still cleaned up by ``close``;
        the child end is closed in the parent on every path.
        """
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                worker_id,
                self.num_workers,
                child_conn,
                self._counter,
                self._spec,
                self._app,
                start_epoch,
            ),
            name="repro-parallel-%d" % worker_id,
            daemon=True,
        )
        if worker_id < len(self._procs):
            self._procs[worker_id] = proc
            self._conns[worker_id] = parent_conn
        else:
            self._procs.append(proc)
            self._conns.append(parent_conn)
        try:
            proc.start()
        finally:
            child_conn.close()

    # ------------------------------------------------------------------
    def _create_block(
        self, shape: Any, dtype: Any, source: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, Tuple[str, tuple, str]]:
        """A new shared ``(shape, dtype)`` block, filled from ``source``
        or left as created: POSIX shared memory is zero-filled at
        ``ftruncate``, so scratch is never copied in."""
        from multiprocessing import shared_memory

        dtype = np.dtype(dtype)
        shm = shared_memory.SharedMemory(
            create=True, size=max(1, int(np.prod(shape)) * dtype.itemsize)
        )
        self._shms.append(shm)
        view = np.ndarray(shape, dtype=dtype, buffer=shm.buf)
        if source is not None:
            view[...] = source
        return view, (shm.name, view.shape, dtype.str)

    @property
    def current_epoch(self) -> int:
        """Phases dispatched so far (the sampler's staleness reference)."""
        return self._epoch

    def expand_out_dsts(self, ids: np.ndarray) -> np.ndarray:
        """Concatenated out-neighbours of ``ids``, from the shared CSR
        views (no private copy of the adjacency in the parent)."""
        return expand_row_dsts(
            self._csr_views["out_indptr"], self._csr_views["out_indices"], ids
        )

    def expand_in_srcs(self, ids: np.ndarray) -> np.ndarray:
        """Concatenated in-neighbours of ``ids`` (pull-side EC thaw),
        from the same shared CSR views."""
        return expand_row_dsts(
            self._csr_views["in_indptr"], self._csr_views["in_indices"], ids
        )

    # ------------------------------------------------------------------
    # superstep clock + trace plumbing
    # ------------------------------------------------------------------
    def begin_superstep(self, superstep: int) -> None:
        """Advance the fault clock: armed worker faults match against this."""
        self._superstep = int(superstep)

    def _emit_recovery(self, **payload: Any) -> None:
        rec = self._recorder
        if rec is None or not getattr(rec, "enabled", False):
            return
        from repro.trace import recorder as trace_events

        payload.setdefault("superstep", self._superstep)
        rec.emit(trace_events.PARALLEL_RECOVERY, **payload)

    def _emit_fault(
        self, fault: Any, applied: bool, reason: Optional[str] = None
    ) -> None:
        rec = self._recorder
        if rec is None or not getattr(rec, "enabled", False):
            return
        from repro.trace import recorder as trace_events

        payload = {
            "kind": "worker-%s" % fault.kind,
            "superstep": fault.superstep,
            "phase": fault.phase,
            "worker": fault.worker,
            "applied": applied,
        }
        if reason is not None:
            payload["reason"] = reason
        rec.emit(trace_events.FAULT, **payload)

    # ------------------------------------------------------------------
    # control protocol
    # ------------------------------------------------------------------
    def _failure_error(self, failure: _WorkerFailure) -> EngineError:
        """Convert an unrecoverable failure into the typed engine error."""
        worker_id = min(failure.kinds)
        if failure.kinds[worker_id] == "timeout":
            return EngineError(
                "parallel worker %d timed out after %.0f s during "
                "phase %r (epoch %d)"
                % (worker_id, self._timeout, failure.phase, self._epoch)
            )
        proc = self._procs[worker_id]
        exitcode = None
        if proc is not None:
            try:
                proc.join(timeout=1)
            except Exception:
                pass
            exitcode = proc.exitcode
        return EngineError(
            "parallel worker %d died during phase %r (epoch %d, "
            "exit code %r)"
            % (worker_id, failure.phase, self._epoch, exitcode)
        )

    def _recv_ack(self, worker_id: int, phase: str) -> None:
        """Wait for one worker's single-byte ack for the current phase.

        Polls instead of blocking so a worker that dies mid-superstep is
        noticed (liveness flip) and a worker that hangs is bounded by
        the reply timeout; both surface as an internal
        :class:`_WorkerFailure` for the dispatcher to recover from.  A
        worker that *reports* an exception (traceback reply) raises the
        typed :class:`EngineError` directly — a deterministic
        application failure would fail identically on a replacement, so
        it is never retried.
        """
        conn = self._conns[worker_id]
        deadline = time.monotonic() + self._timeout
        while not conn.poll(0.02):
            if not self._procs[worker_id].is_alive():
                raise _WorkerFailure({worker_id: "died"}, phase)
            if time.monotonic() > deadline:
                raise _WorkerFailure({worker_id: "timeout"}, phase)
        try:
            reply = conn.recv_bytes()
        except (EOFError, OSError):
            raise _WorkerFailure({worker_id: "died"}, phase)
        if reply != _ACK:
            raise EngineError(
                "parallel worker %d failed during phase %r (epoch %d):\n%s"
                % (
                    worker_id,
                    phase,
                    self._epoch,
                    reply.decode("utf-8", "replace"),
                )
            )

    def _block_size(self, count: int) -> int:
        """Task positions per block: few large blocks, never tiny ones."""
        if count <= 0:
            return max(1, self.chunk_vertices)
        target = -(-count // (self.num_workers * BLOCK_OVERSUBSCRIPTION))
        return max(self.chunk_vertices, target)

    # ------------------------------------------------------------------
    # fault injection (real signals at a deterministic coordinate)
    # ------------------------------------------------------------------
    def _inject_worker_faults(self, phase: str) -> None:
        """Deliver armed faults matching (current superstep, phase)."""
        if not self._worker_faults:
            return
        for fault in self._worker_faults:
            if fault in self._fired_faults:
                continue
            if fault.superstep != self._superstep or fault.phase != phase:
                continue
            self._fired_faults.add(fault)
            if self.degraded:
                self._emit_fault(
                    fault, False, "pool degraded to inline execution"
                )
                continue
            if fault.worker >= self.num_workers:
                self._emit_fault(fault, False, "worker id out of range")
                continue
            proc = self._procs[fault.worker]
            if proc is None or not proc.is_alive():
                self._emit_fault(fault, False, "worker already dead")
                continue
            sig = (
                signal.SIGKILL if fault.kind == "crash" else signal.SIGSTOP
            )
            try:
                os.kill(proc.pid, sig)
            except OSError:
                self._emit_fault(fault, False, "signal delivery failed")
                continue
            self._emit_fault(fault, True)

    # ------------------------------------------------------------------
    # recovery: drain -> quarantine -> respawn | degrade
    # ------------------------------------------------------------------
    def _quarantine(self, worker_id: int) -> None:
        """Make one failed worker truly dead and close its pipe.

        SIGKILL (``kill``), not SIGTERM: a hung worker may merely be
        SIGSTOPped, and a stopped process holds SIGTERM pending forever.
        The shared segments are untouched — the parent owns them, and
        the replacement reattaches to the very same blocks.
        """
        proc = self._procs[worker_id]
        if proc is not None:
            try:
                if proc.is_alive():
                    proc.kill()
                proc.join(timeout=5)
            except Exception:
                pass
        conn = self._conns[worker_id]
        if conn is not None:
            try:
                conn.close()
            except Exception:
                pass

    def _respawn(self, worker_id: int, phase: str) -> bool:
        """Start a replacement attached to the same segments.

        The replacement's epoch counter starts at the parent's current
        epoch, so the next dispatch (epoch + 1) is in sync with the
        survivors.  Returns False when the replacement itself failed to
        come up and the pool degraded instead.
        """
        t0 = time.perf_counter()
        self._spawn_worker(worker_id, start_epoch=self._epoch)
        try:
            self._recv_ack(worker_id, "respawn")
        except _WorkerFailure as failure:
            self._respawns_used += 1
            self._quarantine(worker_id)
            if self._allow_degrade:
                self._degrade(
                    "replacement worker %d failed at startup" % worker_id,
                    phase,
                )
                return False
            raise self._failure_error(failure)
        self._respawns_used += 1
        self._emit_recovery(
            action="respawned",
            worker=worker_id,
            phase=phase,
            epoch=self._epoch,
            respawns_used=self._respawns_used,
            seconds=time.perf_counter() - t0,
        )
        return True

    def _degrade(self, reason: str, phase: str) -> None:
        """Give up on the pool but not on the run.

        Every worker is killed (SIGKILL handles stopped ones) and every
        pipe closed, while the shared blocks stay alive: the engine's
        resident ``values``/``result``/``improved`` views remain valid,
        and subsequent dispatches run the same fused kernels inline in
        the parent — serial single-block semantics, bit-identical
        results, ``degraded=True`` on the executor and the run result.
        """
        self._emit_recovery(
            action="degraded",
            phase=phase,
            epoch=self._epoch,
            reason=reason,
            respawns_used=self._respawns_used,
        )
        self.degraded = True
        for proc in self._procs:
            try:
                if proc is not None and proc.is_alive():
                    proc.kill()
            except Exception:
                pass
        for proc in self._procs:
            try:
                if proc is not None:
                    proc.join(timeout=5)
            except Exception:
                pass
        for conn in self._conns:
            try:
                if conn is not None:
                    conn.close()
            except Exception:
                pass
        self._procs = []
        self._conns = []
        self._inline_in_csr, self._inline_out_csr = _shared_csrs(self._csr_views)
        self._inline_in_deg = self._inline_in_csr.degrees()

    def _recover(self, failure: _WorkerFailure, phase_id: int) -> None:
        """Handle a mid-phase failure; on return the phase can re-run.

        Either the failed workers have been respawned (re-dispatch on
        the pool) or the pool has degraded to inline execution; both
        paths leave every pipe drained and every scratch array safe to
        reset and recompute.
        """
        phase = failure.phase
        t0 = time.perf_counter()
        failed = dict(failure.kinds)
        # Drain: survivors still owe an ack for the wrecked epoch; a
        # survivor that dies or stalls during the drain joins the
        # failure (and draws from the same respawn budget).
        for worker_id in sorted(failure.pending):
            if worker_id in failed:
                continue
            try:
                self._recv_ack(worker_id, phase)
            except _WorkerFailure as extra:
                failed.update(extra.kinds)
        for worker_id in sorted(failed):
            self._emit_recovery(
                action="detected",
                worker=worker_id,
                phase=phase,
                epoch=self._epoch,
                reason=failed[worker_id],
            )
        needed = len(failed)
        if self._respawns_used + needed > self._max_respawns:
            if not self._allow_degrade:
                raise self._failure_error(
                    _WorkerFailure(failed, phase)
                )
            self._degrade(
                "respawn budget exhausted (%d used, %d more needed, "
                "budget %d)"
                % (self._respawns_used, needed, self._max_respawns),
                phase,
            )
            return
        if self._respawns_used:
            time.sleep(
                min(
                    1.0,
                    RESPAWN_BACKOFF_SECONDS
                    * (2 ** (self._respawns_used - 1)),
                )
            )
        for worker_id in sorted(failed):
            self._quarantine(worker_id)
        for worker_id in sorted(failed):
            if not self._respawn(worker_id, phase):
                return  # degraded while respawning
        self._emit_recovery(
            action="recovered",
            phase=phase,
            epoch=self._epoch,
            workers=sorted(failed),
            seconds=time.perf_counter() - t0,
        )

    def _reset_phase_scratch(self, phase_id: int) -> None:
        """Restore the phase's pre-dispatch output state for a re-run.

        Workers only ever *assign* disjoint output slots from the
        read-only ``values`` snapshot, so a re-run recomputes identical
        bytes; resetting matches the pre-dispatch contract exactly
        (``improved`` pre-zeroed for pull, ``result`` pre-zeroed for
        gather, push offsets fully rewritten every run).
        """
        if phase_id == PHASE_PULL:
            self.improved[...] = False
        elif phase_id == PHASE_GATHER:
            self.result[...] = 0.0

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _dispatch(
        self, phase_id: int, count: int, aggregation_code: int = 0
    ) -> List[Dict[str, Any]]:
        """Run one phase, healing worker failures along the way."""
        if self._closed:
            raise EngineError("parallel executor is closed")
        while not self.degraded:
            try:
                return self._dispatch_pool(phase_id, count, aggregation_code)
            except _WorkerFailure as failure:
                self._recover(failure, phase_id)
                if not self.degraded:
                    self._reset_phase_scratch(phase_id)
                    self._emit_recovery(
                        action="redispatch",
                        phase=failure.phase,
                        epoch=self._epoch + 1,
                    )
        self._reset_phase_scratch(phase_id)
        return self._dispatch_inline(phase_id, count, aggregation_code)

    def _dispatch_pool(
        self, phase_id: int, count: int, aggregation_code: int
    ) -> List[Dict[str, Any]]:
        """One pool attempt: write control block, poke, await acks."""
        self._epoch += 1
        phase = PHASE_NAMES_BY_ID[phase_id]
        self._inject_worker_faults(phase)
        block = self._block_size(count)
        control = self._control
        control[_CTRL_EPOCH] = self._epoch
        control[_CTRL_PHASE] = phase_id
        control[_CTRL_COUNT] = count
        control[_CTRL_AGG] = aggregation_code
        control[_CTRL_BLOCK] = block
        with self._counter.get_lock():
            self._counter.value = 0
        # Poke every worker even after a send fails: a live worker that
        # missed a poke would fall behind the epoch counter forever,
        # while a dead one is simply collected and respawned.
        poked: Set[int] = set()
        dead: Dict[int, str] = {}
        for worker_id, conn in enumerate(self._conns):
            try:
                conn.send_bytes(_POKE)
                poked.add(worker_id)
            except (BrokenPipeError, OSError):
                dead[worker_id] = "died"
        if dead:
            raise _WorkerFailure(dead, phase, pending=poked)
        acked: Set[int] = set()
        for worker_id in range(self.num_workers):
            try:
                self._recv_ack(worker_id, phase)
                acked.add(worker_id)
            except _WorkerFailure as failure:
                failure.pending = poked - acked - set(failure.kinds)
                raise
        self.last_dispatch = {
            "phase": phase,
            "epoch": self._epoch,
            "blocks": (count + block - 1) // block if count else 0,
            "messages": 2 * self.num_workers,
            "control_bytes": 2 * self.num_workers,
        }
        stats = self._stats
        return [
            {
                "worker": worker_id,
                "busy_seconds": float(stats[worker_id, _STAT_BUSY]),
                "chunks": int(stats[worker_id, _STAT_CHUNKS]),
                "steals": int(stats[worker_id, _STAT_STEALS]),
                "tasks": int(stats[worker_id, _STAT_TASKS]),
                "edges": int(stats[worker_id, _STAT_EDGES]),
            }
            for worker_id in range(self.num_workers)
        ]

    def _dispatch_inline(
        self, phase_id: int, count: int, aggregation_code: int
    ) -> List[Dict[str, Any]]:
        """Degraded mode: the parent runs the fused kernels itself.

        Single-block execution over the same shared arrays the pool
        used — exactly :class:`repro.core.runtime.SerialDispatch`
        semantics, so results stay bit-identical; the run finishes
        instead of failing.
        """
        from repro.core.runtime import (
            AGGREGATION_BY_CODE,
            gather_block,
            pull_apply_block,
            push_block,
        )

        self._epoch += 1
        phase = PHASE_NAMES_BY_ID[phase_id]
        self._inject_worker_faults(phase)
        ids = self._task_ids[:count]
        edges = 0
        tel_row = self.telemetry[0]
        telemetry_begin(tel_row, self._epoch, phase_id)
        t0 = time.perf_counter()
        if count:
            if phase_id == PHASE_PULL:
                edges = pull_apply_block(
                    self._app,
                    self._inline_in_csr,
                    self._inline_in_deg,
                    self.values,
                    ids,
                    AGGREGATION_BY_CODE[aggregation_code],
                    self.result,
                    self.improved,
                    self._app.source_terms(self.values),
                )
            elif phase_id == PHASE_GATHER:
                edges = gather_block(
                    self._app,
                    self._inline_in_csr,
                    self._inline_in_deg,
                    self.values,
                    ids,
                    self.result,
                    self._app.source_terms(self.values),
                )
            elif phase_id == PHASE_PUSH:
                edges = push_block(
                    self._app,
                    self._inline_out_csr,
                    self.values,
                    ids,
                    self._edge_dsts,
                    self._edge_cands,
                    0,
                    int(self._task_offsets[count]),
                )
            else:
                raise EngineError("unknown phase id %r" % phase_id)
        busy = time.perf_counter() - t0
        telemetry_advance(
            tel_row, int(count), int(edges), int(busy * 1e9), stolen=False
        )
        telemetry_end(tel_row)
        self.last_dispatch = {
            "phase": phase,
            "epoch": self._epoch,
            "blocks": 1 if count else 0,
            "messages": 0,
            "control_bytes": 0,
            "degraded": True,
        }
        return [
            {
                "worker": 0,
                "busy_seconds": busy,
                "chunks": 1 if count else 0,
                "steals": 0,
                "tasks": int(count),
                "edges": int(edges),
            }
        ]

    # ------------------------------------------------------------------
    # phase-dispatch interface (the engine's one code path)
    # ------------------------------------------------------------------
    def pull_apply(
        self, ids: np.ndarray, aggregation: str
    ) -> List[Dict[str, Any]]:
        """Fused pull + improvement mask over the in-edges of ``ids``.

        On return, ``result[ids]`` holds each destination's min/max over
        all its in-edge candidates and ``improved`` marks exactly the
        ids whose candidate beats the incumbent ``values`` entry (it is
        pre-zeroed, and the identity never wins, so entries outside
        ``ids`` are false — the serial full-array mask, bit for bit).
        """
        count = int(ids.size)
        self._task_ids[:count] = ids
        self.improved[...] = False
        return self._dispatch(
            PHASE_PULL, count, AGGREGATION_CODES[aggregation]
        )

    def gather(self, ids: np.ndarray) -> List[Dict[str, Any]]:
        """Arithmetic gather: per-destination sums of edge contributions.

        The result view is zeroed first, so after the barrier it equals
        the serial engine's ``gathered`` array exactly (zero for ids
        with no in-edges and for vertices outside ``ids``).
        """
        count = int(ids.size)
        self._task_ids[:count] = ids
        self.result[...] = 0.0
        return self._dispatch(PHASE_GATHER, count)

    def push(self, ids: np.ndarray):
        """Per-edge push candidates of the active sources ``ids``.

        Workers write each source's out-edge destinations and candidate
        values at the offsets the serial ``expand_sources(ids)`` order
        dictates, so the returned ``(dsts, candidates)`` views are
        byte-identical to the serial arrays — including the per-
        destination candidate order Table 2's update accounting depends
        on.  Returns ``(dsts, candidates, out_counts, stats)``.
        """
        count = int(ids.size)
        self._task_ids[:count] = ids
        self._task_offsets[0] = 0
        out_counts = self.out_degrees[ids]
        if count:
            np.cumsum(out_counts, out=self._task_offsets[1 : count + 1])
        total = int(self._task_offsets[count]) if count else 0
        stats = self._dispatch(PHASE_PUSH, count)
        return (
            self._edge_dsts[:total],
            self._edge_cands[:total],
            out_counts,
            stats,
        )

    def detach_values(self) -> np.ndarray:
        """Copy the values out of shared memory, safe to own after close."""
        return np.array(self.values, copy=True)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the workers and release every shared block (idempotent).

        Every step tolerates failure independently: a worker that died
        mid-superstep, a pipe that is already broken, or a block that
        was never fully created must not keep the remaining blocks from
        being unlinked — no leaked ``/dev/shm`` segments on any path.
        """
        if self._closed:
            return
        self._closed = True
        # Detach observers first, while every shared view is still
        # mapped: the sampler thread must stop reading the telemetry
        # block before the segments below are closed and unlinked.
        listeners, self.close_listeners = self.close_listeners, []
        for listener in listeners:
            try:
                listener(self)
            except Exception:
                pass
        for conn in self._conns:
            try:
                conn.send_bytes(_STOP)
            except Exception:
                pass
        for proc in self._procs:
            try:
                proc.join(timeout=5)
                if proc.is_alive():
                    # SIGKILL, not SIGTERM: a worker quarantined by a
                    # hang injection may be SIGSTOPped, and a stopped
                    # process holds SIGTERM pending forever.
                    proc.kill()
                    proc.join(timeout=5)
            except Exception:
                pass
        for conn in self._conns:
            try:
                conn.close()
            except Exception:
                pass
        self._procs = []
        self._conns = []
        shms, self._shms = self._shms, []
        for shm in shms:
            try:
                shm.close()
            except Exception:
                pass
            try:
                shm.unlink()
            except Exception:
                pass

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------
def _shared_csrs(arrays: Dict[str, np.ndarray]) -> Tuple[Any, ...]:
    """The ``(in, out)`` CSRs over the shared blocks, as every worker and
    the degraded inline path build them: a direction with no
    ``*_weights`` block has unit weights."""
    return tuple(
        CSR(arrays[d + "_indptr"], arrays[d + "_indices"], arrays.get(d + "_weights"))
        for d in ("in", "out")
    )


def _worker_main(
    worker_id: int,
    num_workers: int,
    conn,
    counter,
    spec: Dict[str, Tuple[str, tuple, str]],
    app: Any,
    start_epoch: int = 0,
) -> None:
    # The fused kernels live with the serial dispatch in
    # repro.core.runtime, so both backends execute the same compiled
    # numpy path; imported lazily to keep worker startup errors
    # reportable through the pipe.
    try:
        from repro.core.runtime import (
            AGGREGATION_BY_CODE,
            gather_block,
            pull_apply_block,
            push_block,
            telemetry_advance,
            telemetry_begin,
            telemetry_end,
        )

        shms: Dict[str, Any] = {}
        arrays: Dict[str, np.ndarray] = {}
        for key, (name, shape, dtype) in spec.items():
            shm = _attach(name)
            shms[key] = shm
            arrays[key] = np.ndarray(
                shape, dtype=np.dtype(dtype), buffer=shm.buf
            )
        in_csr, out_csr = _shared_csrs(arrays)
        in_deg = in_csr.degrees()
        values = arrays["values"]
        result = arrays["result"]
        improved = arrays["improved"]
        task_ids = arrays["task_ids"]
        task_offsets = arrays["task_offsets"]
        edge_dsts = arrays["edge_dsts"]
        edge_cands = arrays["edge_cands"]
        control = arrays["control"]
        stats = arrays["stats"]
        # This worker's 128-byte live telemetry slot; nobody else
        # writes it, the parent's sampler only reads it.
        tel_row = arrays["telemetry"][worker_id]
    except Exception:
        try:
            conn.send_bytes(
                traceback.format_exc().encode("utf-8", "replace")
            )
        except Exception:
            pass
        return
    conn.send_bytes(_ACK)

    # A replacement spawned mid-run starts with its epoch counter
    # pre-synchronised to the parent's, so the epoch check below holds
    # across recoveries exactly as it does from a cold start.
    epoch = start_epoch
    while True:
        try:
            message = conn.recv_bytes()
        except (EOFError, OSError):
            break
        if message == _STOP:
            break
        epoch += 1
        try:
            ctrl_epoch = int(control[_CTRL_EPOCH])
            if ctrl_epoch != epoch:
                raise EngineError(
                    "worker %d saw control epoch %d but expected %d "
                    "(missed or duplicated wakeup)"
                    % (worker_id, ctrl_epoch, epoch)
                )
            phase = int(control[_CTRL_PHASE])
            count = int(control[_CTRL_COUNT])
            block = max(1, int(control[_CTRL_BLOCK]))
            num_blocks = (count + block - 1) // block if count else 0
            # Static share: the contiguous equal split a no-stealing
            # schedule would pin to this worker; claims outside it are
            # steals (the measured analogue of worksteal.simulate).
            static_lo = worker_id * num_blocks // num_workers
            static_hi = (worker_id + 1) * num_blocks // num_workers
            ids_all = task_ids[:count]
            blocks = steals = tasks = edges = 0
            telemetry_begin(tel_row, epoch, phase)
            t0 = time.perf_counter()
            # Once per phase, not per block: ``values`` is this phase's
            # read-only snapshot, so every block reads the same terms.
            terms = (
                app.source_terms(values)
                if phase != PHASE_PUSH and num_blocks
                else None
            )
            while True:
                with counter.get_lock():
                    chunk = counter.value
                    counter.value = chunk + 1
                if chunk >= num_blocks:
                    break
                lo = chunk * block
                hi = min(count, lo + block)
                ids = ids_all[lo:hi]
                k0 = time.perf_counter_ns()
                if phase == PHASE_PULL:
                    block_edges = pull_apply_block(
                        app,
                        in_csr,
                        in_deg,
                        values,
                        ids,
                        AGGREGATION_BY_CODE[int(control[_CTRL_AGG])],
                        result,
                        improved,
                        terms,
                    )
                elif phase == PHASE_GATHER:
                    block_edges = gather_block(
                        app, in_csr, in_deg, values, ids, result, terms
                    )
                elif phase == PHASE_PUSH:
                    block_edges = push_block(
                        app,
                        out_csr,
                        values,
                        ids,
                        edge_dsts,
                        edge_cands,
                        int(task_offsets[lo]),
                        int(task_offsets[hi]),
                    )
                else:
                    raise EngineError("unknown phase id %r" % phase)
                edges += block_edges
                blocks += 1
                tasks += ids.size
                stolen = not (static_lo <= chunk < static_hi)
                if stolen:
                    steals += 1
                telemetry_advance(
                    tel_row,
                    ids.size,
                    block_edges,
                    time.perf_counter_ns() - k0,
                    stolen,
                )
            row = stats[worker_id]
            row[_STAT_BUSY] = time.perf_counter() - t0
            row[_STAT_CHUNKS] = blocks
            row[_STAT_STEALS] = steals
            row[_STAT_TASKS] = tasks
            row[_STAT_EDGES] = edges
            telemetry_end(tel_row)
            reply = _ACK
        except Exception:
            telemetry_end(tel_row)
            reply = traceback.format_exc().encode("utf-8", "replace")
        try:
            conn.send_bytes(reply)
        except Exception:
            break
    for shm in shms.values():
        try:
            shm.close()
        except Exception:
            pass
