"""Unit tests for finish-early stability counting (RulerS).

The tracker is a pure counter fed the engine's changed mask, one per
superstep; the engine decides what "changed" means and never changes an
EC vertex's value.  ``ParentTracker`` — the value-based tracker as the
parent commit wrote it, with its own copy of the values — is the oracle
here and in ``test_finish_early_state_properties.py``.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.state import StabilityTracker


def _moved(*flags):
    return np.array(flags, dtype=bool)


class TestStabilityTracker:
    def test_vertex_freezes_after_threshold(self):
        tracker = StabilityTracker(np.array([2, 2]))
        tracker.observe(_moved(True, True))     # first sight
        tracker.observe(_moved(False, False))   # stable once
        assert tracker.num_ec == 0
        tracker.observe(_moved(False, False))   # stable twice -> threshold 2
        assert tracker.ec_mask.tolist() == [True, True]

    def test_change_resets_counter(self):
        tracker = StabilityTracker(np.array([2]))
        for moved in (True, False, True, False):  # the change resets
            tracker.observe(_moved(moved))
        assert tracker.num_ec == 0
        tracker.observe(_moved(False))
        assert tracker.num_ec == 1

    def test_changed_mask_reports_moved_vertices(self):
        tracker = StabilityTracker(np.array([5, 5]))
        tracker.observe(_moved(True, True))
        changed = tracker.observe(_moved(False, True))
        assert changed.tolist() == [False, True]
        assert tracker.stable_count.tolist() == [1, 0]

    def test_unreached_threshold_floor_is_one(self):
        # last_iter == 0 (unreached in guidance) must not freeze before
        # one full stable round.
        tracker = StabilityTracker(np.array([0]))
        tracker.observe(_moved(True))
        assert tracker.num_ec == 0
        tracker.observe(_moved(False))
        assert tracker.num_ec == 1

    def test_min_stable_rounds_floors_the_threshold(self):
        tracker = StabilityTracker(np.array([1, 5]), min_stable_rounds=3)
        assert tracker.threshold.tolist() == [3, 5]
        for _ in range(3):
            tracker.observe(_moved(False, False))
        assert tracker.ec_mask.tolist() == [True, False]
        with pytest.raises(ValueError):
            StabilityTracker(np.array([1]), min_stable_rounds=0)

    def test_ec_vertices_not_reobserved(self):
        tracker = StabilityTracker(np.array([1]))
        tracker.observe(_moved(True))
        tracker.observe(_moved(False))
        assert tracker.num_ec == 1
        # A mask that flags an EC vertex is ignored (the engine never
        # recomputes EC vertices): its count and its freeze stand.
        changed = tracker.observe(_moved(True))
        assert not changed.any()
        assert tracker.stable_count.tolist() == [1]
        assert tracker.num_ec == 1

    def test_active_mask_is_complement(self):
        tracker = StabilityTracker(np.array([1, 5]))
        tracker.observe(_moved(True, True))
        tracker.observe(_moved(False, False))
        assert tracker.active_mask().tolist() == [False, True]

    def test_first_observation_counts_as_change(self):
        # The engine flags every vertex on its first sight; the tracker
        # reports it and counts no stable round.
        tracker = StabilityTracker(np.array([3]))
        changed = tracker.observe(_moved(True))
        assert changed.tolist() == [True]
        assert tracker.stable_count.tolist() == [0]

    def test_repr(self):
        tracker = StabilityTracker(np.array([1, 1]))
        assert "0 / 2" in repr(tracker)


class ParentTracker(StabilityTracker):
    """The parent commit's value-based tracker: ``observe(values)``
    compares against its own copy of the values (NaN until first sight)
    with boolean fancy indexing, and checkpoints that copy."""

    def __init__(self, last_iter, epsilon=1e-7, min_stable_rounds=1):
        super().__init__(last_iter, min_stable_rounds)
        self.epsilon = epsilon
        self.stable_value = np.full(last_iter.size, np.nan)

    def observe(self, values):
        live = ~self._ec
        with np.errstate(invalid="ignore"):
            unchanged = np.abs(values - self.stable_value) <= self.epsilon
        changed_live = live & ~unchanged
        stable_live = live & unchanged
        self.stable_count[stable_live] += 1
        self.stable_count[changed_live] = 0
        self.stable_value[live] = values[live]
        newly_ec = live & (self.stable_count >= self.threshold)
        if newly_ec.any():
            self._ec |= newly_ec
            self.ec_version += 1
        return changed_live

    def state_arrays(self):
        return dict(super().state_arrays(), stable_value=self.stable_value)

    def restore_state(self, stable_count, ec, stable_value):
        super().restore_state(stable_count, ec)
        self.stable_value[:] = stable_value


def engine_changed(new, old, epsilon, first_sight):
    """The engine's rule: NaN and ``inf - inf`` count as moved."""
    if first_sight:
        return np.ones(new.size, dtype=bool)
    with np.errstate(invalid="ignore"):
        return ~(np.abs(new - old) <= epsilon)


@given(
    n=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    rounds=st.integers(1, 12),
    epsilon=st.sampled_from([0.0, 1e-7, 1e-3]),
)
def test_observe_is_byte_equal_to_the_parent(n, seed, rounds, epsilon):
    """Values that hold, creep under epsilon, jump, turn NaN, -0.0 or
    infinite; thaws between rounds.  The parent tracker reads the
    values, the counter reads the engine's changed mask, and an EC
    vertex's value holds (the engine copies it back): changed masks,
    ``stable_count``, the EC set and ``ec_version`` all match, and the
    parent's value copy equals the values after the first round."""
    rng = np.random.default_rng(seed)
    last_iter = rng.integers(0, 4, n)
    new = StabilityTracker(last_iter)
    parent = ParentTracker(last_iter, epsilon)
    old = values = rng.uniform(-2.0, 2.0, n)
    for round_ in range(rounds):
        values = old.copy()
        moves = rng.integers(0, 6, n)
        values[moves == 1] += 1e-8
        values[moves == 2] += rng.normal(0.0, 1.0, int((moves == 2).sum()))
        values[moves == 3] = rng.choice([np.nan, -0.0, 0.0, np.inf, -np.inf])
        frozen = parent.ec_mask
        values[frozen] = old[frozen]
        changed = engine_changed(values, old, epsilon, round_ == 0)
        assert new.observe(changed).tobytes() == (
            parent.observe(values).tobytes()
        )
        assert new.stable_count.tobytes() == parent.stable_count.tobytes()
        assert new.ec_mask.tobytes() == parent.ec_mask.tobytes()
        assert new.ec_version == parent.ec_version
        assert parent.stable_value.tobytes() == values.tobytes()
        thawed = rng.integers(0, n, rng.integers(0, 4))
        assert new.thaw(thawed) == parent.thaw(thawed)
        old = values


class TestProgressMonitor:
    def _monitor(self, window=3):
        from repro.core.state import ProgressMonitor

        return ProgressMonitor(window)

    def test_new_mass_low_resets_the_window(self):
        monitor = self._monitor(window=2)
        for mass in (1.0, 0.5, 0.25, 0.125):
            monitor.observe(mass)

    def test_updates_count_as_progress(self):
        monitor = self._monitor(window=2)
        monitor.observe(1.0)
        for _ in range(5):
            monitor.observe(1.0, updates=3)

    def test_stall_raises_convergence_error(self):
        from repro.errors import ConvergenceError

        monitor = self._monitor(window=3)
        monitor.observe(1.0)
        monitor.observe(1.0)
        monitor.observe(1.0)
        with pytest.raises(ConvergenceError, match="stalled"):
            monitor.observe(1.0)

    def test_equal_mass_is_not_a_new_low(self):
        from repro.errors import ConvergenceError

        monitor = self._monitor(window=1)
        monitor.observe(0.5)
        with pytest.raises(ConvergenceError):
            monitor.observe(0.5)

    def test_window_must_be_positive(self):
        from repro.core.state import ProgressMonitor

        with pytest.raises(ValueError):
            ProgressMonitor(0)
