"""Discrete-event simulation kernel.

A minimal but strict event-driven engine: a binary heap of timestamped
events, a monotonically advancing clock, and deterministic tie-breaking by
insertion order.  Everything in :mod:`repro.simulation` (network transfers,
chunk computations, probe rounds) is expressed as events scheduled on one
:class:`SimulationEngine`.

The engine deliberately has no notion of processes or channels -- the
master/worker logic in :mod:`repro.simulation.master` composes callbacks
directly, which keeps simulations of hundreds of thousands of chunk events
fast and easy to reason about.

Heap entries are plain lists ``[time, seq, callback, args]``, so every
heap comparison is the C list comparison.  ``seq`` is unique per engine:
a comparison is decided at ``time`` or, on a tie, at ``seq`` (insertion
order) and never reaches the callback or its arguments, which need not be
orderable.  An :class:`EventHandle` holds its entry; cancelling sets the
callback slot to ``None`` and the entry is skipped when it reaches the
top of the heap (until then it still counts as pending).
"""

from __future__ import annotations

import heapq
import itertools
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..obs.profile import EngineProfiler

EventCallback = Callable[..., None]

# Heap-entry slots: [time, seq, callback, args]; callback None = cancelled.
_TIME, _CALLBACK = 0, 2


class EventHandle:
    """Opaque handle returned by :meth:`SimulationEngine.schedule`.

    Supports cancellation; a cancelled event is skipped when popped.
    """

    __slots__ = ("_entry",)

    def __init__(self, entry: list[Any]) -> None:
        self._entry = entry

    @property
    def time(self) -> float:
        """Simulated time at which the event fires."""
        return self._entry[_TIME]

    @property
    def cancelled(self) -> bool:
        return self._entry[_CALLBACK] is None

    def cancel(self) -> None:
        """Prevent the event from firing (idempotent)."""
        self._entry[_CALLBACK] = None


class SimulationEngine:
    """Deterministic discrete-event simulation core.

    Examples
    --------
    >>> engine = SimulationEngine()
    >>> fired = []
    >>> _ = engine.schedule(2.5, fired.append, "late")
    >>> _ = engine.schedule(1.0, fired.append, "early")
    >>> engine.run()
    >>> fired
    ['early', 'late']
    >>> engine.now
    2.5
    """

    def __init__(self, *, profiler: "EngineProfiler | None" = None) -> None:
        self._heap: list[list[Any]] = []
        self._seq = itertools.count()
        #: Current simulated time in seconds.  A plain attribute (models
        #: read it several times per event); only the engine advances it.
        self.now = 0.0
        self._running = False
        self._processed = 0
        self._profiler = profiler

    @property
    def pending_events(self) -> int:
        """Number of scheduled (possibly cancelled) events still queued."""
        return len(self._heap)

    @property
    def processed_events(self) -> int:
        """Number of events executed so far."""
        return self._processed

    def schedule(self, delay: float, callback: EventCallback, *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        if not (delay >= 0):  # written so that NaN is rejected too
            raise SimulationError(f"cannot schedule event in the past (delay={delay})")
        return self._push(self.now + delay, callback, args)

    def schedule_at(self, time: float, callback: EventCallback, *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulated time ``time``."""
        if not (time >= self.now):  # written so that NaN is rejected too
            raise SimulationError(
                f"cannot schedule event at t={time} before current time t={self.now}"
            )
        return self._push(time, callback, args)

    def _push(self, time: float, callback: EventCallback, args: tuple[Any, ...]) -> EventHandle:
        entry = [time, next(self._seq), callback, args]
        heapq.heappush(self._heap, entry)
        if self._profiler is not None:
            self._profiler.note_heap_depth(len(self._heap))
        return EventHandle(entry)

    def step(self) -> bool:
        """Execute the next event.  Returns False when the queue is empty."""
        heap = self._heap
        while heap:
            time, _seq, callback, args = heapq.heappop(heap)
            if callback is None:
                continue
            if time < self.now:
                raise SimulationError("event heap corrupted: time went backwards")
            self.now = time
            self._processed += 1
            callback(*args)
            return True
        return False

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run until the event queue drains (or a time / event-count bound).

        Parameters
        ----------
        until:
            Optional simulated-time horizon; events beyond it stay queued
            and the clock is advanced to ``until``.
        max_events:
            Optional safety bound on the number of events to execute;
            exceeding it raises :class:`SimulationError` (a stalled or
            livelocked model is a bug, not a result).
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        executed = 0
        run_start = perf_counter() if self._profiler is not None else 0.0  # repro: allow[sim-time] -- profiler measures wall events/s, not modeled time
        try:
            heap = self._heap
            while heap:
                head = heap[0]
                if head[_CALLBACK] is None:
                    heapq.heappop(heap)
                    continue
                if until is not None and head[_TIME] > until:
                    break
                self.step()
                executed += 1
                if max_events is not None and executed > max_events:
                    raise SimulationError(
                        f"simulation exceeded max_events={max_events}; likely livelock"
                    )
            if until is not None:
                self.now = max(self.now, until)
        finally:
            self._running = False
            if self._profiler is not None:
                self._profiler.note_run(executed, perf_counter() - run_start)  # repro: allow[sim-time] -- profiler measures wall events/s, not modeled time
