"""The push reduce: aggregate, apply and count one batch of candidates.

Real push-mode engines write destinations with per-edge atomic
compare-and-swap loops (the paper's Algorithm 4 push:
``if newDist < dist[vdst]: dist[vdst] = newDist`` executed per edge), so
one superstep can write the same destination several times as improving
candidates stream in.  Table 2's "updates per vertex" counts those
writes: a candidate is a write when it improves on both the incumbent
value and every earlier candidate for the same destination, in edge
order.

:func:`segmented_improvements` derives that count, the exact min/max
per destination and the set of destinations it improves from **one**
destination sort of the batch's improving candidates, so a push
superstep costs what its frontier's out-edges cost — nothing in here is
sized by |V|, and a candidate that loses to its incumbent costs one
gather and one compare.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.graph.csr import stable_group_order

__all__ = ["segmented_improvements"]

# Position sweeps before the still-undecided segments are handed to the
# cumulative-min pass: a sweep costs a handful of numpy calls whatever
# it retires, so a hub's long tail must not be walked one position at a
# time.
_SWEEP_ROUNDS = 8

_EMPTY_IDS = np.empty(0, dtype=np.int64)
_EMPTY_VALUES = np.empty(0, dtype=np.float64)


def _tail_records(
    tail: np.ndarray, segment: np.ndarray, bound: np.ndarray
) -> int:
    """Strict prefix minima of each segment's ``tail`` lying below its
    ``bound``, for contiguous segments numbered by ``segment``.

    Only the order of the values matters, so they are replaced by exact
    integer rank codes; offsetting segment ``r`` by ``-r * spread`` puts
    every later segment strictly below every earlier one, so one global
    cumulative min is each segment's own running minimum — and each
    segment's first element is a record without special-casing.
    """
    codes = np.unique(tail, return_inverse=True)[1].astype(np.int64)
    shifted = codes - segment * (np.int64(codes.max()) + 2)
    running = np.minimum.accumulate(shifted)
    record = np.ones(tail.size, dtype=bool)
    record[1:] = shifted[1:] < running[:-1]
    return int(np.count_nonzero(record & (tail < bound[segment])))


def segmented_improvements(
    dsts: np.ndarray,
    candidates: np.ndarray,
    incumbents: np.ndarray,
    aggregation: str = "min",
) -> Tuple[int, np.ndarray, np.ndarray]:
    """Reduce one push batch against the current values.

    Parameters
    ----------
    dsts:
        Destination vertex per candidate, in edge order (any vertex
        order; the sort is stable, so each destination keeps its
        candidates in edge order).
    candidates:
        Proposed values, aligned with ``dsts``.  Never NaN (a NaN would
        be dropped here, not written): SSSP and WidestPath reject NaN
        edge weights before a run starts, BFS and CC read none.
    incumbents:
        Full per-vertex current values; only ``incumbents[dsts]`` is
        read.
    aggregation:
        "min" (improve = strictly less) or "max".

    Returns
    -------
    ``(update_count, changed, new_values)``: the number of sequential
    improving (CAS) writes the batch performs, the destinations whose
    value it improves (ascending, unique), and the exact min/max it
    leaves on each — ``incumbents[changed] = new_values`` is the whole
    apply phase.
    """
    if aggregation == "min":
        reduce_at, beats = np.minimum.reduceat, np.less
    else:
        reduce_at, beats = np.maximum.reduceat, np.greater
    # A candidate that does not beat its incumbent is never a CAS write
    # and never moves a running best that starts at the incumbent, so
    # dropping it first changes no count and no value — and only the
    # survivors pay for the sort.
    dsts = np.asarray(dsts, dtype=np.int64)
    candidates = np.asarray(candidates, dtype=np.float64)
    keep = beats(candidates, incumbents[dsts]).nonzero()[0]
    m = keep.size
    if m == 0:
        return 0, _EMPTY_IDS, _EMPTY_VALUES
    kept = dsts[keep]
    order = stable_group_order(kept, incumbents.size)
    sorted_dsts = kept[order]
    sorted_cands = candidates[keep][order]
    is_start = np.ones(m, dtype=bool)
    np.not_equal(sorted_dsts[1:], sorted_dsts[:-1], out=is_start[1:])
    starts = is_start.nonzero()[0]
    if starts.size == m:
        # Every destination is written exactly once.
        return m, sorted_dsts, sorted_cands
    changed = sorted_dsts[starts]
    new_values = reduce_at(sorted_cands, starts)

    # CAS writes.  Every segment improves, and its first survivor is a
    # write.  Walk the rest one position at a time against a running
    # best: a candidate that beats it is a write, and a segment retires
    # once the running best reaches its final value (nothing later can
    # beat that) or it runs out of candidates.
    update_count = starts.size
    running = sorted_cands[starts]
    position = starts + 1
    stop = np.concatenate((starts[1:], (m,)))
    final = new_values
    for sweep in range(_SWEEP_ROUNDS + 1):
        undecided = ((running != final) & (position < stop)).nonzero()[0]
        if undecided.size == 0:
            return update_count, changed, new_values
        position, stop = position[undecided], stop[undecided]
        running, final = running[undecided], final[undecided]
        if sweep == _SWEEP_ROUNDS:
            break
        here = sorted_cands[position]
        wins = beats(here, running)
        update_count += int(np.count_nonzero(wins))
        running = np.where(wins, here, running)
        position = position + 1

    # Long residual segments (a hub): one cumulative-min pass over what
    # is left of them.  A remaining candidate is a write iff it beats
    # the running best so far (hence the incumbent and every swept
    # candidate) and every earlier remaining candidate.
    lengths = stop - position
    segment = np.repeat(np.arange(lengths.size), lengths)
    offsets = np.cumsum(lengths) - lengths
    tail = sorted_cands[
        np.arange(segment.size) + (position - offsets)[segment]
    ]
    if aggregation == "max":
        tail, running = -tail, -running
    update_count += _tail_records(tail, segment, running)
    return update_count, changed, new_values
