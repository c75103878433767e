"""EventLoop ordering/determinism and ServiceQueue latency arithmetic."""

import pytest

from repro.runtime import EventLoop, ServiceQueue


class TestEventLoop:
    def test_runs_in_time_order(self):
        loop = EventLoop()
        ran = []
        loop.schedule(3.0, "c", lambda: ran.append("c"))
        loop.schedule(1.0, "a", lambda: ran.append("a"))
        loop.schedule(2.0, "b", lambda: ran.append("b"))
        assert loop.run() == 3
        assert ran == ["a", "b", "c"]
        assert loop.trace == [(1.0, "a"), (2.0, "b"), (3.0, "c")]
        assert loop.now == 3.0

    def test_ties_break_by_scheduling_order(self):
        loop = EventLoop()
        ran = []
        for name in ("first", "second", "third"):
            loop.schedule(5.0, name, lambda name=name: ran.append(name))
        loop.run()
        assert ran == ["first", "second", "third"]

    def test_actions_can_schedule_more_events(self):
        loop = EventLoop()
        ran = []

        def tick(n):
            ran.append((loop.now, n))
            if n < 3:
                loop.schedule(loop.now + 1.5, f"tick-{n + 1}",
                              lambda: tick(n + 1))

        loop.schedule(0.0, "tick-0", lambda: tick(0))
        loop.run()
        assert ran == [(0.0, 0), (1.5, 1), (3.0, 2), (4.5, 3)]
        assert loop.run() == 0  # nothing left queued
        assert loop.processed == 4

    def test_scheduling_into_the_past_is_refused(self):
        loop = EventLoop()
        loop.schedule(2.0, "later", lambda: None)
        loop.run()
        with pytest.raises(ValueError):
            loop.schedule(1.0, "too-late", lambda: None)

    def test_max_events_pauses_the_loop(self):
        loop = EventLoop()
        for i in range(5):
            loop.schedule(float(i), f"e{i}", lambda: None)
        assert loop.run(max_events=2) == 2
        assert loop.now == 1.0
        assert loop.run() == 3


class TestServiceQueue:
    def test_idle_server_starts_immediately(self):
        queue = ServiceQueue()
        assert queue.begin(10.0, 0.5) == (10.0, 10.5)

    def test_busy_server_queues_fifo(self):
        queue = ServiceQueue()
        queue.begin(0.0, 1.0)
        # Arrives at 0.2 while the first job runs until 1.0: waits 0.8.
        start, completion = queue.begin(0.2, 1.0)
        assert start == 1.0
        assert completion == 2.0
        # A later arrival after the backlog drains starts on time.
        assert queue.begin(5.0, 0.25) == (5.0, 5.25)
        assert queue.served == 3
        assert queue.busy_time_s == 2.25

    def test_utilization(self):
        queue = ServiceQueue()
        queue.begin(0.0, 2.0)
        queue.begin(4.0, 2.0)
        assert queue.utilization(8.0) == pytest.approx(0.5)
        assert queue.utilization(0.0) == 0.0
        # Capped at 1.0 even when the horizon undercounts busy time.
        assert queue.utilization(1.0) == 1.0

    def test_negative_service_time_refused(self):
        with pytest.raises(ValueError):
            ServiceQueue().begin(0.0, -1.0)
