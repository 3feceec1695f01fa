"""Event and event-queue primitives for the simulation kernel.

Events are ordered by ``(time, priority, sequence)``.  The sequence number
guarantees a deterministic total order even when many events share the same
timestamp, which is essential for reproducible simulations.

The queue is the hottest data structure in the repository: every message
delivery, timer and protocol round passes through it.  Its entries are the
scheduled timers plus one entry per *busy network link*: the network queues
in-flight messages on per-receiver FIFOs and keeps only each link's head on
the heap (see :class:`repro.net.network._Delivery`), so the heap stays a few
hundred entries deep during all-to-all fan-out bursts while ``len()`` still
counts every pending message.  Two choices keep it fast while preserving the
exact ordering semantics of the original implementation:

* heap entries are plain ``(time, priority, seq, event)`` tuples, so all
  sift comparisons run as C tuple comparisons instead of Python-level
  ``__lt__`` calls (``seq`` is unique, so the trailing event is never
  compared);
* :class:`Event` is a ``__slots__`` handle carrying the callback and the
  cancellation flag; cancellation is O(1) and lazy — cancelled entries are
  skipped when they surface at the heap root.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional


class Event:
    """A scheduled callback in simulated time.

    Attributes:
        time: Simulated time at which the event fires.
        priority: Tie-breaker among events at the same time (lower first).
        seq: Monotonic sequence number assigned by the queue; makes ordering
            total and deterministic.
        callback: Zero-argument callable invoked when the event fires.
        cancelled: Set by :meth:`cancel`; cancelled events are skipped.
        tag: Optional human-readable label used in traces and debugging.
    """

    __slots__ = ("time", "priority", "seq", "callback", "cancelled", "tag")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[[], None],
        cancelled: bool = False,
        tag: Optional[str] = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.cancelled = cancelled
        self.tag = tag

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when popped."""
        self.cancelled = True

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.priority, self.seq) < (
            other.time,
            other.priority,
            other.seq,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time} prio={self.priority} seq={self.seq} tag={self.tag!r}{state}>"


class EventQueue:
    """A deterministic priority queue of :class:`Event` objects.

    The backing heap holds ``(time, priority, seq, event)`` tuples; see the
    module docstring for why.  ``_heap`` is private but the simulator's run
    loop reads it directly to avoid per-event method-call overhead.
    """

    __slots__ = ("_heap", "_seq", "_live")

    def __init__(self) -> None:
        self._heap: list[tuple] = []
        self._seq = 0
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def push(
        self,
        time: float,
        callback: Callable[[], None],
        priority: int = 0,
        tag: Optional[str] = None,
    ) -> Event:
        """Schedule ``callback`` at ``time`` and return the event handle."""
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, priority, seq, callback, False, tag)
        heapq.heappush(self._heap, (time, priority, seq, event))
        self._live += 1
        return event

    def pop(self) -> Optional[Event]:
        """Pop the next non-cancelled event, or ``None`` if the queue is empty."""
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[3]
            if event.cancelled:
                continue
            self._live -= 1
            return event
        self._live = 0
        return None

    def peek_time(self) -> Optional[float]:
        """Return the time of the next non-cancelled event without popping it."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
        if not heap:
            return None
        return heap[0][0]

    def notify_cancelled(self) -> None:
        """Account for an externally cancelled event (keeps ``len`` accurate)."""
        if self._live > 0:
            self._live -= 1


__all__ = ["Event", "EventQueue"]
