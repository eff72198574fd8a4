"""Deterministic fault injection for the simulated cluster.

A :class:`FaultPlan` is an immutable, fully deterministic schedule of
three fault kinds, each expressed against the engine's superstep clock:

* :class:`NodeCrash` — node ``node`` fails permanently when the engine
  is about to execute superstep ``superstep``.  Surviving nodes absorb
  the lost partition (:meth:`SimulatedCluster.fail_node`), the engine
  rolls back to its last checkpoint, and the cached
  :class:`~repro.core.rrg.RRGuidance` is *reused, never regenerated*:
  guidance is topological knowledge, invariant under failures.
* :class:`MessageLoss` — every coalesced update from ``src_node`` to
  ``dst_node`` in superstep ``superstep`` is lost once and
  retransmitted with exponential backoff; the retries are charged as
  extra latency and volume through :class:`NetworkModel`.
* :class:`Straggler` — node ``node`` computes ``factor`` times slower
  for ``duration`` supersteps starting at ``superstep``; the slowdown
  flows into the cost model's per-node compute max (and, via the same
  factor, into work-stealing studies).

A fourth kind, :class:`WorkerFault` (``worker-crash@K:PHASE-W`` /
``worker-hang@K:PHASE-W``), is *not* simulated: it SIGKILLs or SIGSTOPs
a real process of the measured parallel backend
(:class:`repro.parallel.ParallelExecutor`) at a deterministic
(superstep, phase, worker) coordinate, exercising the pool's phase-level
recovery path for real.

Plans come from an explicit spec string (``crash@3:1,loss@2:0-2``), a
seeded generator (:meth:`FaultPlan.random` — identical seed, identical
plan), or direct construction.  Because the plan, the engine, and the
cost model are all deterministic, a fault-injected run is exactly
reproducible: same trace stream, same metrics, and — the correctness
contract the property tests enforce — the same application results as
the fault-free run.

Crashes are one-shot (a dead node stays dead); message loss and
straggler windows are pure functions of the superstep index, so they
re-apply if a rollback re-executes their superstep — deterministic
either way.

A plan configured for the run (``repro.runconfig.configured(
fault_plan=...)``) reaches engines built deep inside experiment
drivers: every :class:`~repro.core.engine.SLFEEngine`-family
constructor picks it up when no explicit plan is passed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import FaultError, FaultSpecError

__all__ = [
    "NodeCrash",
    "MessageLoss",
    "Straggler",
    "WorkerFault",
    "WORKER_PHASES",
    "FaultPlan",
    "FaultInjector",
]


@dataclass(frozen=True)
class NodeCrash:
    """Permanent failure of ``node`` at the start of ``superstep``."""

    superstep: int
    node: int

    def __post_init__(self) -> None:
        if self.superstep < 1:
            raise FaultSpecError("crash superstep must be >= 1")
        if self.node < 0:
            raise FaultSpecError("crash node must be >= 0")


@dataclass(frozen=True)
class MessageLoss:
    """Loss of the ``src_node``->``dst_node`` batch in ``superstep``.

    ``attempts`` retransmissions are needed before the batch arrives
    (each pays a doubling backoff latency plus the payload transfer).
    """

    superstep: int
    src_node: int
    dst_node: int
    attempts: int = 1

    def __post_init__(self) -> None:
        if self.superstep < 1:
            raise FaultSpecError("loss superstep must be >= 1")
        if self.src_node < 0 or self.dst_node < 0:
            raise FaultSpecError("loss nodes must be >= 0")
        if self.src_node == self.dst_node:
            raise FaultSpecError("loss requires two distinct nodes")
        if self.attempts < 1:
            raise FaultSpecError("loss attempts must be >= 1")


@dataclass(frozen=True)
class Straggler:
    """Node ``node`` computes ``factor``x slower for ``duration`` steps."""

    superstep: int
    node: int
    factor: float
    duration: int = 1

    def __post_init__(self) -> None:
        if self.superstep < 1:
            raise FaultSpecError("straggler superstep must be >= 1")
        if self.node < 0:
            raise FaultSpecError("straggler node must be >= 0")
        if self.factor <= 1.0:
            raise FaultSpecError("straggler factor must be > 1")
        if self.duration < 1:
            raise FaultSpecError("straggler duration must be >= 1")

    def active_at(self, superstep: int) -> bool:
        return self.superstep <= superstep < self.superstep + self.duration


#: Phases of the parallel backend a worker fault can target.
WORKER_PHASES = ("pull", "gather", "push")

#: Recognised worker-fault kinds (suffix of the spec term).
WORKER_FAULT_KINDS = ("crash", "hang")


@dataclass(frozen=True)
class WorkerFault:
    """SIGKILL (``crash``) or SIGSTOP (``hang``) of a *real* pool worker.

    Unlike the modeled faults above, which perturb the simulated
    cluster's cost model, a worker fault targets an actual process of
    the measured parallel backend (:class:`repro.parallel.ParallelExecutor`)
    at a deterministic ``(superstep, phase, worker)`` coordinate — the
    signal is delivered immediately before the phase is dispatched, so
    recovery is reproducibly testable.  On the serial backend the fault
    is infeasible and is traced with ``applied: false``.
    """

    superstep: int
    phase: str
    worker: int
    kind: str = "crash"

    def __post_init__(self) -> None:
        if self.kind not in WORKER_FAULT_KINDS:
            raise FaultSpecError(
                "worker fault kind must be one of %s (got %r)"
                % ("/".join(WORKER_FAULT_KINDS), self.kind)
            )
        if self.superstep < 1:
            raise FaultSpecError(
                "worker-%s superstep must be >= 1" % self.kind
            )
        if self.phase not in WORKER_PHASES:
            raise FaultSpecError(
                "worker-%s phase must be one of %s (got %r)"
                % (self.kind, "/".join(WORKER_PHASES), self.phase)
            )
        if self.worker < 0:
            raise FaultSpecError("worker-%s worker must be >= 0" % self.kind)


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of crashes, losses, and stragglers."""

    crashes: Tuple[NodeCrash, ...] = ()
    losses: Tuple[MessageLoss, ...] = ()
    stragglers: Tuple[Straggler, ...] = ()
    worker_faults: Tuple[WorkerFault, ...] = ()
    seed: Optional[int] = None

    def __bool__(self) -> bool:
        return bool(
            self.crashes
            or self.losses
            or self.stragglers
            or self.worker_faults
        )

    @property
    def num_faults(self) -> int:
        return (
            len(self.crashes)
            + len(self.losses)
            + len(self.stragglers)
            + len(self.worker_faults)
        )

    # ------------------------------------------------------------------
    def crashes_at(self, superstep: int) -> Tuple[NodeCrash, ...]:
        return tuple(c for c in self.crashes if c.superstep == superstep)

    def worker_faults_at(self, superstep: int) -> Tuple[WorkerFault, ...]:
        return tuple(
            f for f in self.worker_faults if f.superstep == superstep
        )

    def losses_at(self, superstep: int) -> Tuple[MessageLoss, ...]:
        return tuple(l for l in self.losses if l.superstep == superstep)

    def slowdown_at(
        self, superstep: int, num_nodes: int
    ) -> Optional[np.ndarray]:
        """Per-node compute multipliers for ``superstep`` (None if clean)."""
        factors: Optional[np.ndarray] = None
        for s in self.stragglers:
            if s.active_at(superstep) and s.node < num_nodes:
                if factors is None:
                    factors = np.ones(num_nodes, dtype=np.float64)
                factors[s.node] = max(factors[s.node], s.factor)
        return factors

    # ------------------------------------------------------------------
    @classmethod
    def parse(
        cls,
        text: str,
        num_nodes: int = 8,
        horizon: int = 8,
        num_workers: Optional[int] = None,
    ) -> "FaultPlan":
        """Build a plan from a spec string.

        Comma-separated terms::

            crash@K:NODE            node crash at superstep K
            loss@K:SRC-DST[xN]      message loss on a pair (N attempts)
            slow@K:NODExF[+D]       straggler, factor F, duration D
            worker-crash@K:PHASE-W  SIGKILL pool worker W in PHASE
                                    (pull/gather/push) of superstep K
            worker-hang@K:PHASE-W   SIGSTOP pool worker W likewise
            seed:S                  seeded random plan (uses num_nodes
                                    and horizon; exclusive with terms)

        Every coordinate is validated here, at parse time, against the
        run shape the caller supplies: a node index beyond ``num_nodes``
        or (when ``num_workers`` is given) a worker index beyond the
        pool raises a one-line :class:`~repro.errors.FaultSpecError`
        instead of producing a plan whose faults silently never apply.
        """
        text = text.strip()
        if not text:
            raise FaultSpecError("empty fault spec")
        if text.startswith("seed:"):
            try:
                seed = int(text[len("seed:"):])
            except ValueError:
                raise FaultSpecError("seed must be an integer: %r" % text)
            return cls.random(seed, num_nodes=num_nodes, horizon=horizon)

        def check_node(role: str, node: int) -> int:
            if node >= num_nodes:
                raise FaultSpecError(
                    "%s node %d is out of range for a %d-node cluster"
                    % (role, node, num_nodes)
                )
            return node

        def check_worker(kind: str, worker: int) -> int:
            if num_workers is not None and worker >= num_workers:
                raise FaultSpecError(
                    "%s worker %d is out of range for a %d-worker pool"
                    % (kind, worker, num_workers)
                )
            return worker

        crashes: List[NodeCrash] = []
        losses: List[MessageLoss] = []
        stragglers: List[Straggler] = []
        worker_faults: List[WorkerFault] = []
        for term in text.split(","):
            term = term.strip()
            try:
                kind, rest = term.split("@", 1)
                step_text, spec = rest.split(":", 1)
                superstep = int(step_text)
                if kind == "crash":
                    crashes.append(
                        NodeCrash(superstep, check_node("crash", int(spec)))
                    )
                elif kind == "loss":
                    pair, sep, attempts = spec.partition("x")
                    if sep and not attempts:
                        raise ValueError("dangling attempt count")
                    src, dst = pair.split("-", 1)
                    losses.append(
                        MessageLoss(
                            superstep,
                            check_node("loss source", int(src)),
                            check_node("loss destination", int(dst)),
                            int(attempts) if attempts else 1,
                        )
                    )
                elif kind == "slow":
                    node, factor_text = spec.split("x", 1)
                    factor, sep, duration = factor_text.partition("+")
                    if sep and not duration:
                        raise ValueError("dangling duration")
                    stragglers.append(
                        Straggler(
                            superstep,
                            check_node("straggler", int(node)),
                            float(factor),
                            int(duration) if duration else 1,
                        )
                    )
                elif kind in ("worker-crash", "worker-hang"):
                    phase_name, _, worker_text = spec.rpartition("-")
                    if not phase_name:
                        raise ValueError("missing phase")
                    worker_faults.append(
                        WorkerFault(
                            superstep,
                            phase_name,
                            check_worker(kind, int(worker_text)),
                            kind[len("worker-"):],
                        )
                    )
                else:
                    raise FaultSpecError("unknown fault kind %r" % kind)
            except FaultError:
                raise
            except (ValueError, IndexError):
                raise FaultSpecError(
                    "malformed fault term %r (expected crash@K:NODE, "
                    "loss@K:SRC-DST[xN], slow@K:NODExF[+D], or "
                    "worker-crash@K:PHASE-W / worker-hang@K:PHASE-W)"
                    % term
                )
        return cls(
            tuple(crashes),
            tuple(losses),
            tuple(stragglers),
            tuple(worker_faults),
        )

    @classmethod
    def random(
        cls,
        seed: int,
        num_nodes: int = 8,
        horizon: int = 8,
        num_crashes: int = 1,
        num_losses: int = 1,
        num_stragglers: int = 1,
    ) -> "FaultPlan":
        """Seeded random plan: identical seed, identical plan.

        ``horizon`` bounds fault supersteps; plans are safe for shorter
        runs too (faults past the last superstep simply never fire).
        """
        if num_nodes < 2:
            # A single-node "cluster" has no pairs to lose messages on
            # and no survivors to absorb a crash: the only meaningful
            # fault is a straggler.
            num_crashes = 0
            num_losses = 0
        rng = np.random.default_rng(seed)
        horizon = max(1, horizon)
        crashes = tuple(
            NodeCrash(
                superstep=int(rng.integers(1, horizon + 1)),
                node=int(rng.integers(0, num_nodes)),
            )
            for _ in range(num_crashes)
        )
        losses = []
        for _ in range(num_losses):
            src = int(rng.integers(0, num_nodes))
            dst = int(rng.integers(0, num_nodes - 1))
            if dst >= src:
                dst += 1
            losses.append(
                MessageLoss(
                    superstep=int(rng.integers(1, horizon + 1)),
                    src_node=src,
                    dst_node=dst,
                    attempts=int(rng.integers(1, 4)),
                )
            )
        stragglers = tuple(
            Straggler(
                superstep=int(rng.integers(1, horizon + 1)),
                node=int(rng.integers(0, num_nodes)),
                factor=float(np.round(rng.uniform(1.5, 8.0), 3)),
                duration=int(rng.integers(1, 4)),
            )
            for _ in range(num_stragglers)
        )
        return cls(crashes, tuple(losses), stragglers, seed=seed)


class FaultInjector:
    """Per-run execution of one :class:`FaultPlan`.

    The injector owns the mutable side of fault injection — which
    crashes have fired, which nodes are dead — while the plan stays
    immutable and shareable across runs.  The engine consults it at
    three points per superstep: crashes before the superstep body,
    stragglers right after the metrics record opens, and message loss
    during the sync phase.

    Infeasible faults (dead or out-of-range node, no survivors) are
    skipped rather than raised, but every skip is visible: a ``fault``
    trace event with ``applied: false`` and the reason.
    """

    def __init__(self, plan: FaultPlan, cluster, metrics, recorder) -> None:
        # ``cluster``/``metrics``/``recorder`` are a SimulatedCluster,
        # MetricsCollector, and Recorder; annotated loosely to keep this
        # module importable below repro.core in the dependency graph.
        from repro.cluster.network import NetworkModel

        self.plan = plan
        self.cluster = cluster
        self.metrics = metrics
        self.recorder = recorder
        self.network = NetworkModel(cluster.config.network)
        self._fired_crashes: set = set()
        #: total messages retransmitted (all retry attempts)
        self.retried_messages = 0

    # ------------------------------------------------------------------
    def _emit(self, **payload) -> None:
        if self.recorder.enabled:
            from repro.trace import recorder as trace_events

            self.recorder.emit(trace_events.FAULT, **payload)

    def crash_at(self, superstep: int) -> Optional[NodeCrash]:
        """The first feasible, unfired crash scheduled for ``superstep``.

        The returned crash is marked fired; the caller performs takeover
        and rollback.  Crashes that cannot apply (node already dead,
        node out of range, or no surviving node left) are consumed with
        an ``applied: false`` trace event.
        """
        for crash in self.plan.crashes_at(superstep):
            if crash in self._fired_crashes:
                continue
            self._fired_crashes.add(crash)
            reason = None
            if crash.node >= self.cluster.num_nodes:
                reason = "node out of range"
            elif not self.cluster.alive[crash.node]:
                reason = "node already dead"
            elif int(self.cluster.alive.sum()) < 2:
                reason = "no surviving node to absorb the partition"
            if reason is not None:
                self._emit(
                    kind="crash",
                    superstep=superstep,
                    node=crash.node,
                    applied=False,
                    reason=reason,
                )
                continue
            self._emit(
                kind="crash",
                superstep=superstep,
                node=crash.node,
                applied=True,
            )
            return crash
        return None

    def slowdown_at(self, superstep: int) -> Optional[np.ndarray]:
        """Per-node straggler multipliers for ``superstep``, if any."""
        factors = self.plan.slowdown_at(superstep, self.cluster.num_nodes)
        if factors is None:
            return None
        for s in self.plan.stragglers:
            # One event per window start keeps the trace readable.
            if s.superstep == superstep and s.node < self.cluster.num_nodes:
                self._emit(
                    kind="straggler",
                    superstep=superstep,
                    node=s.node,
                    factor=s.factor,
                    duration=s.duration,
                    applied=True,
                )
        return factors

    def apply_message_loss(
        self, superstep: int, changed_vertices: np.ndarray
    ) -> float:
        """Charge retransmissions for every loss scheduled at ``superstep``.

        Returns the extra modeled seconds (backoff + retransfer) added
        to this superstep; message counts/bytes are recorded on the
        open metrics record as retry traffic, never as new logical
        messages (the payload is a retransmission, not new information).
        """
        extra_seconds = 0.0
        for loss in self.plan.losses_at(superstep):
            if (
                loss.src_node >= self.cluster.num_nodes
                or loss.dst_node >= self.cluster.num_nodes
                or not self.cluster.alive[loss.src_node]
                or not self.cluster.alive[loss.dst_node]
            ):
                self._emit(
                    kind="loss",
                    superstep=superstep,
                    src_node=loss.src_node,
                    dst_node=loss.dst_node,
                    applied=False,
                    reason="node dead or out of range",
                )
                continue
            lost = self.cluster.messages_on_pair(
                changed_vertices, loss.src_node, loss.dst_node
            )
            self._emit(
                kind="loss",
                superstep=superstep,
                src_node=loss.src_node,
                dst_node=loss.dst_node,
                applied=lost > 0,
                messages=lost,
            )
            if lost == 0:
                continue
            payload = lost * self.cluster.config.network.bytes_per_update
            seconds = self.network.retry_seconds(
                payload, attempts=loss.attempts
            )
            retried = lost * loss.attempts
            self.retried_messages += retried
            self.metrics.add_retry(retried, payload * loss.attempts, seconds)
            extra_seconds += seconds
            if self.recorder.enabled:
                from repro.trace import recorder as trace_events

                self.recorder.emit(
                    trace_events.RETRY,
                    src_node=loss.src_node,
                    dst_node=loss.dst_node,
                    messages=lost,
                    attempts=loss.attempts,
                    bytes=payload * loss.attempts,
                    seconds=seconds,
                )
        return extra_seconds
