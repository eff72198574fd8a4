"""The fault plans a run can carry, and the checkpoint interval with them.

Four kinds:

* ``none`` — a clean run;
* ``node`` — a node crash, a message loss and a straggler, checkpointing
  every 1-3 supersteps.  The crash superstep is at most the clean run's
  iteration count, so the crash always fires: exactly one rollback;
* ``random`` — :meth:`FaultPlan.random` over the clean run's horizon;
* ``worker`` — a pool worker SIGKILLed before a pull, gather or push
  dispatch (the family's phases).  Only the parallel backend has
  workers; the serial ones trace the fault as not applied.
"""

from dataclasses import dataclass
from typing import Optional

from hypothesis import strategies as st

from repro.cluster.faults import (
    FaultPlan,
    MessageLoss,
    NodeCrash,
    Straggler,
    WorkerFault,
)

PHASES = {"minmax": ("pull", "push"), "arithmetic": ("gather",)}


@dataclass(frozen=True)
class Plan:
    kind: str
    faults: Optional[FaultPlan] = None
    checkpoint_every: Optional[int] = None


NO_FAULTS = Plan("none")


@st.composite
def _node(draw, iterations, num_nodes):
    step = st.integers(1, iterations)
    node = st.integers(0, num_nodes - 1)
    src, dst = draw(st.lists(node, min_size=2, max_size=2, unique=True))
    faults = FaultPlan(
        crashes=(NodeCrash(draw(step), draw(node)),),
        losses=(MessageLoss(draw(step), src, dst, draw(st.integers(1, 3))),),
        stragglers=(Straggler(draw(step), draw(node),
                              draw(st.sampled_from([1.5, 2.5, 8.0])),
                              draw(st.integers(1, 3))),),
    )
    return Plan("node", faults, draw(st.integers(1, 3)))


@st.composite
def _random(draw, iterations, num_nodes):
    faults = FaultPlan.random(draw(st.integers(0, 2**16)),
                              num_nodes=num_nodes, horizon=iterations)
    return Plan("random", faults, draw(st.integers(1, 3)))


@st.composite
def _worker(draw, iterations, family, workers):
    fault = WorkerFault(draw(st.integers(1, iterations)),
                        draw(st.sampled_from(PHASES[family])),
                        draw(st.integers(0, workers - 1)))
    return Plan("worker", FaultPlan(worker_faults=(fault,)))


def plans(family, iterations, num_nodes, workers):
    """Any plan for a run of ``family`` whose clean serial run took
    ``iterations`` supersteps; a run of none can carry no fault."""
    if not iterations:
        return st.just(NO_FAULTS)
    return st.one_of(
        st.just(NO_FAULTS),
        _node(iterations, num_nodes),
        _random(iterations, num_nodes),
        _worker(iterations, family, workers),
    )
