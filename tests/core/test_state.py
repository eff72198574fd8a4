"""Unit tests for finish-early stability tracking (RulerS)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.state import StabilityTracker


class TestStabilityTracker:
    def test_vertex_freezes_after_threshold(self):
        tracker = StabilityTracker(np.array([2, 2]), epsilon=0.0)
        values = np.array([1.0, 1.0])
        tracker.observe(values)          # first sight: counts as change
        tracker.observe(values)          # stable once
        assert tracker.num_ec == 0
        tracker.observe(values)          # stable twice -> threshold 2
        assert tracker.ec_mask.tolist() == [True, True]

    def test_change_resets_counter(self):
        tracker = StabilityTracker(np.array([2]), epsilon=0.0)
        v = np.array([1.0])
        tracker.observe(v)
        tracker.observe(v)
        tracker.observe(np.array([2.0]))  # change resets
        tracker.observe(np.array([2.0]))
        assert tracker.num_ec == 0
        tracker.observe(np.array([2.0]))
        assert tracker.num_ec == 1

    def test_epsilon_hides_small_changes(self):
        tracker = StabilityTracker(np.array([1]), epsilon=1e-3)
        tracker.observe(np.array([1.0]))
        changed = tracker.observe(np.array([1.0 + 1e-4]))
        assert not changed.any()
        assert tracker.num_ec == 1

    def test_changed_mask_reports_moved_vertices(self):
        tracker = StabilityTracker(np.array([5, 5]), epsilon=0.0)
        tracker.observe(np.array([1.0, 2.0]))
        changed = tracker.observe(np.array([1.0, 3.0]))
        assert changed.tolist() == [False, True]

    def test_unreached_threshold_floor_is_one(self):
        # last_iter == 0 (unreached in guidance) must not freeze before
        # one full stable round.
        tracker = StabilityTracker(np.array([0]), epsilon=0.0)
        tracker.observe(np.array([4.0]))
        assert tracker.num_ec == 0
        tracker.observe(np.array([4.0]))
        assert tracker.num_ec == 1

    def test_ec_vertices_not_reobserved(self):
        tracker = StabilityTracker(np.array([1]), epsilon=0.0)
        v = np.array([1.0])
        tracker.observe(v)
        tracker.observe(v)
        assert tracker.num_ec == 1
        # Changing an EC vertex's value is ignored (the engine never
        # recomputes EC vertices, so this models stale input).
        changed = tracker.observe(np.array([9.0]))
        assert not changed.any()
        assert tracker.stable_value.tolist() == [1.0]

    def test_active_mask_is_complement(self):
        tracker = StabilityTracker(np.array([1, 5]), epsilon=0.0)
        v = np.array([1.0, 1.0])
        tracker.observe(v)
        tracker.observe(v)
        assert tracker.active_mask().tolist() == [False, True]

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            StabilityTracker(np.array([1]), epsilon=-1.0)

    def test_first_observation_counts_as_change(self):
        tracker = StabilityTracker(np.array([3]), epsilon=0.0)
        changed = tracker.observe(np.array([0.5]))
        assert changed.tolist() == [True]

    def test_repr(self):
        tracker = StabilityTracker(np.array([1, 1]))
        assert "0 / 2" in repr(tracker)


class ParentTracker(StabilityTracker):
    """``observe`` as the parent commit wrote it, with boolean fancy
    indexing: the oracle the masked-pass form must match byte for byte."""

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


@given(
    n=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    rounds=st.integers(1, 12),
    epsilon=st.sampled_from([0.0, 1e-7, 1e-3]),
)
def test_observe_is_byte_equal_to_the_parent(n, seed, rounds, epsilon):
    """Values that hold, creep under epsilon, jump, turn NaN, -0.0 or
    infinite; frozen vertices whose input moves anyway; thaws between
    rounds: state, changed masks and ``ec_version`` all match."""
    rng = np.random.default_rng(seed)
    last_iter = rng.integers(0, 4, n)
    new = StabilityTracker(last_iter, epsilon)
    parent = ParentTracker(last_iter, epsilon)
    values = rng.uniform(-2.0, 2.0, n)
    for _ in range(rounds):
        values = values.copy()
        moves = rng.integers(0, 6, n)
        values[moves == 1] += 1e-8
        values[moves == 2] += rng.normal(0.0, 1.0, int((moves == 2).sum()))
        values[moves == 3] = rng.choice([np.nan, -0.0, 0.0, np.inf, -np.inf])
        assert new.observe(values).tobytes() == parent.observe(values).tobytes()
        for a, b in zip(new.state_arrays().values(), parent.state_arrays().values()):
            assert a.tobytes() == b.tobytes()
        assert new.ec_version == parent.ec_version
        thawed = rng.integers(0, n, rng.integers(0, 4))
        assert new.thaw(thawed) == parent.thaw(thawed)


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
