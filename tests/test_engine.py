"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.errors import SimulationError
from repro.simulation.engine import SimulationEngine


class TestScheduling:
    def test_events_fire_in_time_order(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(3.0, fired.append, "c")
        engine.schedule(1.0, fired.append, "a")
        engine.schedule(2.0, fired.append, "b")
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        engine = SimulationEngine()
        fired = []
        for tag in ("first", "second", "third"):
            engine.schedule(1.0, fired.append, tag)
        engine.run()
        assert fired == ["first", "second", "third"]

    def test_clock_advances_to_event_time(self):
        engine = SimulationEngine()
        engine.schedule(2.5, lambda: None)
        engine.run()
        assert engine.now == 2.5

    def test_clock_starts_at_zero(self):
        assert SimulationEngine().now == 0.0

    def test_schedule_at_absolute_time(self):
        engine = SimulationEngine()
        seen = []
        engine.schedule_at(5.0, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [5.0]

    def test_negative_delay_rejected(self):
        engine = SimulationEngine()
        with pytest.raises(SimulationError, match="past"):
            engine.schedule(-1.0, lambda: None)

    def test_schedule_before_now_rejected(self):
        engine = SimulationEngine()
        engine.schedule(10.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError, match="before current time"):
            engine.schedule_at(5.0, lambda: None)

    def test_nan_times_rejected_at_the_call(self):
        """NaN compares false to everything, so ``nan < 0`` let it through
        and it surfaced later as a corrupted heap (or a silent misorder)."""
        engine = SimulationEngine()
        engine.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError, match="in the past"):
            engine.schedule(float("nan"), lambda: None)
        with pytest.raises(SimulationError, match="before current time"):
            engine.schedule_at(float("nan"), lambda: None)
        assert engine.pending_events == 1
        engine.run()
        assert engine.now == 1.0

    def test_equal_times_never_compare_callbacks_or_args(self):
        """Heap entries are ``[time, seq, callback, args]`` compared by the
        C list comparison; the unique ``seq`` must decide every tie before
        it reaches a callback or argument that cannot be ordered."""

        class Unorderable:
            def __lt__(self, other):
                raise AssertionError("heap compared a payload")

            __gt__ = __le__ = __ge__ = __lt__

        engine = SimulationEngine()
        fired = []
        for tag in range(50):
            engine.schedule(1.0, lambda payload, tag=tag: fired.append(tag), Unorderable())
        for tag in range(50, 60):
            engine.schedule_at(1.0, lambda payload, tag=tag: fired.append(tag), Unorderable())
        engine.run()
        assert fired == list(range(60))

    def test_events_can_schedule_more_events(self):
        engine = SimulationEngine()
        fired = []

        def chain(depth):
            fired.append(depth)
            if depth < 3:
                engine.schedule(1.0, chain, depth + 1)

        engine.schedule(1.0, chain, 0)
        engine.run()
        assert fired == [0, 1, 2, 3]
        assert engine.now == 4.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        engine = SimulationEngine()
        fired = []
        handle = engine.schedule(1.0, fired.append, "x")
        handle.cancel()
        engine.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        engine = SimulationEngine()
        handle = engine.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled

    def test_cancelling_one_event_leaves_others(self):
        engine = SimulationEngine()
        fired = []
        keep = engine.schedule(1.0, fired.append, "keep")
        drop = engine.schedule(2.0, fired.append, "drop")
        drop.cancel()
        engine.run()
        assert fired == ["keep"]
        assert keep.time == 1.0


    def test_cancelled_handle_is_skipped_and_still_reports(self):
        engine = SimulationEngine()
        fired = []
        drop = engine.schedule(1.0, fired.append, "drop")
        keep = engine.schedule(2.0, fired.append, "keep")
        assert not drop.cancelled and not keep.cancelled
        drop.cancel()
        assert drop.cancelled and drop.time == 1.0
        # a cancelled entry stays queued (and counted) until it is popped
        assert engine.pending_events == 2
        assert engine.step() is True  # skips "drop", fires "keep"
        assert fired == ["keep"]
        assert engine.now == 2.0 and engine.processed_events == 1
        assert engine.pending_events == 0
        assert drop.cancelled and drop.time == 1.0
        assert not keep.cancelled and keep.time == 2.0

    def test_cancelled_head_does_not_hold_back_run_until(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(1.0, fired.append, "never").cancel()
        engine.schedule(3.0, fired.append, "later")
        engine.run(until=2.0)
        assert fired == [] and engine.now == 2.0
        assert engine.pending_events == 1  # the cancelled head was dropped
        engine.run()
        assert fired == ["later"]


class TestRunBounds:
    def test_run_until_leaves_future_events_queued(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(1.0, fired.append, "early")
        engine.schedule(10.0, fired.append, "late")
        engine.run(until=5.0)
        assert fired == ["early"]
        assert engine.now == 5.0
        assert engine.pending_events == 1
        engine.run()
        assert fired == ["early", "late"]

    def test_max_events_guards_livelock(self):
        engine = SimulationEngine()

        def forever():
            engine.schedule(1.0, forever)

        engine.schedule(1.0, forever)
        with pytest.raises(SimulationError, match="livelock"):
            engine.run(max_events=100)

    def test_run_is_not_reentrant(self):
        engine = SimulationEngine()
        errors = []

        def nested():
            try:
                engine.run()
            except SimulationError as exc:
                errors.append(str(exc))

        engine.schedule(1.0, nested)
        engine.run()
        assert errors and "reentrant" in errors[0]

    def test_step_returns_false_when_drained(self):
        engine = SimulationEngine()
        assert engine.step() is False
        engine.schedule(1.0, lambda: None)
        assert engine.step() is True
        assert engine.step() is False

    def test_processed_events_counter(self):
        engine = SimulationEngine()
        for _ in range(5):
            engine.schedule(1.0, lambda: None)
        engine.run()
        assert engine.processed_events == 5
