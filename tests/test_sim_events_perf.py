"""Micro-coverage for the tuple-heap event queue and a gross perf floor."""

import time

from repro.sim.events import Event, EventQueue
from repro.sim.simulator import Simulator


class TestTupleHeapOrdering:
    def test_equal_timestamps_pop_in_push_order(self):
        queue = EventQueue()
        events = [queue.push(5.0, lambda: None, tag=f"e{i}") for i in range(100)]
        popped = []
        while (event := queue.pop()) is not None:
            popped.append(event)
        assert popped == events

    def test_equal_time_priority_orders_before_seq(self):
        queue = EventQueue()
        low = queue.push(1.0, lambda: None, priority=9, tag="low")
        high = queue.push(1.0, lambda: None, priority=-1, tag="high")
        mid = queue.push(1.0, lambda: None, priority=0, tag="mid")
        order = [queue.pop().tag for _ in range(3)]
        assert order == ["high", "mid", "low"]
        assert low.seq < high.seq < mid.seq  # seq reflects push order, not pop order

    def test_interleaved_times_and_priorities(self):
        queue = EventQueue()
        spec = [(2.0, 0), (1.0, 5), (1.0, 0), (3.0, -2), (1.0, 5), (2.0, -1)]
        for index, (t, priority) in enumerate(spec):
            queue.push(t, lambda: None, priority=priority, tag=str(index))
        popped = []
        while (event := queue.pop()) is not None:
            popped.append((event.time, event.priority, event.seq))
        assert popped == sorted(popped)

    def test_event_handles_have_slots(self):
        event = EventQueue().push(1.0, lambda: None)
        assert not hasattr(event, "__dict__")
        assert isinstance(event, Event)

    def test_event_lt_matches_heap_order(self):
        a = Event(1.0, 0, 0, lambda: None)
        b = Event(1.0, 0, 1, lambda: None)
        c = Event(0.5, 9, 2, lambda: None)
        assert a < b
        assert c < a


class TestCancellation:
    def test_cancellation_during_drain(self):
        """Events cancelled from a callback mid-drain never fire."""
        sim = Simulator()
        fired = []
        victims = []

        def arm(name, delay):
            victims.append(sim.schedule(delay, lambda: fired.append(name)))

        # First event cancels two of four later events while the queue drains.
        arm("a", 2.0)
        arm("b", 3.0)
        arm("c", 4.0)
        arm("d", 5.0)
        sim.schedule(1.0, lambda: (sim.cancel(victims[1]), sim.cancel(victims[3])))
        sim.run()
        assert fired == ["a", "c"]

    def test_cancel_is_idempotent_and_len_stays_consistent(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert len(sim.queue) == 2
        sim.cancel(event)
        sim.cancel(event)
        assert len(sim.queue) == 1
        sim.run()
        assert len(sim.queue) == 0

    def test_cancelled_root_is_skipped_by_peek(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        first.cancel()
        queue.notify_cancelled()
        assert queue.peek_time() == 2.0
        assert len(queue) == 1


class TestRunLimits:
    def test_negative_max_events_stops_immediately(self):
        """Historical semantics: a depleted (negative) budget processes nothing."""
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.run(max_events=-1)
        assert fired == []
        sim.run(max_events=0)
        assert fired == []
        sim.run()
        assert fired == [1]


class TestThroughputFloor:
    def test_events_per_second_floor(self):
        """Generous floor so gross kernel regressions fail fast.

        The optimised kernel sustains ~700k events/sec on the reference
        container; 60k leaves an order-of-magnitude margin for slow CI hosts.
        """
        sim = Simulator(seed=3)
        count = 30_000
        state = {"left": count}

        def tick():
            if state["left"] > 0:
                state["left"] -= 1
                sim.schedule(0.001, tick)

        sim.schedule(0.0, tick)
        start = time.perf_counter()
        sim.run_until_idle()
        elapsed = time.perf_counter() - start
        assert sim.processed_events == count + 1
        assert count / elapsed > 60_000
