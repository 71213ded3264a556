"""Discrete-event engine with generator-coroutine processes.

A minimal but complete DES kernel: a binary-heap event queue keyed by
``(time, sequence)`` (the sequence number makes simultaneous events run
in schedule order, so runs are fully deterministic), one-shot
:class:`SimEvent` wait objects, and :meth:`Engine.spawn` which drives a
generator coroutine that may yield

* a ``float`` — sleep that many simulated seconds,
* a :class:`SimEvent` — park until the event triggers.

Same-timestamp events form a *batch*.  :meth:`Engine.defer` registers a
callback that runs once at the **end of the current batch** — after
every already-queued event at the current instant, but before simulated
time advances.  The flow network uses it to coalesce any number of
same-instant flow-set changes into a single max-min re-solve (see
:mod:`repro.sim.network`); deferred callbacks may schedule new events
at the same instant, which extend the batch.

This is the substrate under :mod:`repro.sim.mpi`; it knows nothing
about networks.
"""

from __future__ import annotations

import gc
import heapq
from contextlib import contextmanager
from typing import Any, Callable, Generator, Iterator, List, Optional, Tuple

from repro.errors import SimulationError
from repro.obs.metrics_registry import active_registry


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause the cyclic collector, restoring its previous state on exit.

    A program build or a run allocates up to millions of young objects
    (the generator's schedule and sync plan, Bruck's block tuples, every
    ``Op``, event, flow and request) and none of them form reference
    cycles, so reference counting frees all of it and the collector's
    passes over them are pure overhead.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class SimEvent:
    """A one-shot event processes can wait on.

    Triggering wakes every waiter (in wait order) with an optional
    value.  Waiting on an already-triggered event resumes immediately.
    """

    __slots__ = ("engine", "_triggered", "_value", "_callbacks")

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self._triggered = False
        self._value: Any = None
        self._callbacks: List[Callable[[Any], None]] = []

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def value(self) -> Any:
        return self._value

    def trigger(self, value: Any = None) -> None:
        if self._triggered:
            raise SimulationError("event triggered twice")
        self._triggered = True
        self._value = value
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            cb(value)

    def on_trigger(self, callback: Callable[[Any], None]) -> None:
        """Run *callback(value)* when triggered (immediately if already)."""
        if self._triggered:
            callback(self._value)
        else:
            self._callbacks.append(callback)


class Engine:
    """The event loop: a heap of timestamped callbacks."""

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._events_processed = 0
        self._peak_heap_depth = 0
        # Metric handles are captured once at construction; when no
        # registry is active the run loop pays one None test per event.
        registry = active_registry()
        if registry is not None:
            self._m_events = registry.counter(
                "engine.events_total", "Events processed by the event loop"
            )
            self._m_queue = registry.gauge(
                "engine.queue_depth", "Pending events at the last batch boundary"
            )
            self._m_batch = registry.histogram(
                "engine.event_batch_size", "Events sharing one timestamp"
            )
        else:
            self._m_events = None
            self._m_queue = None
            self._m_batch = None
        self._batch_time = -1.0
        self._batch_count = 0
        #: End-of-batch callbacks (see :meth:`defer`).
        self._deferred: List[Callable[[], None]] = []

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def peak_heap_depth(self) -> int:
        """High-water mark of pending events (telemetry: sim memory/load)."""
        return self._peak_heap_depth

    def event(self) -> SimEvent:
        """Create a fresh one-shot event bound to this engine."""
        return SimEvent(self)

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run *callback* after *delay* simulated seconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._seq += 1
        heapq.heappush(self._heap, (self._now + delay, self._seq, callback))
        if len(self._heap) > self._peak_heap_depth:
            self._peak_heap_depth = len(self._heap)

    def defer(self, callback: Callable[[], None]) -> None:
        """Run *callback* at the end of the current same-timestamp batch.

        The callback fires after every event already queued at the
        current instant has run, at the same simulated time — before
        the clock advances to the next event (and before :meth:`run`
        returns, when the heap drains first).  Deferred callbacks may
        schedule new events at the current instant; those extend the
        batch and any callbacks they defer run in turn.
        """
        self._deferred.append(callback)

    def spawn(self, generator: Generator) -> SimEvent:
        """Drive a coroutine; returns an event triggered when it finishes.

        The coroutine may yield a float (sleep) or a :class:`SimEvent`
        (wait).  The completion event's value is the coroutine's
        ``StopIteration`` value.
        """
        done = self.event()

        def step(_sent: Any = None) -> None:
            nonlocal step
            try:
                yielded = generator.send(_sent)
            except StopIteration as stop:
                # Drop the closure's reference to itself, so a finished
                # process is freed by reference counting.
                step = None
                done.trigger(stop.value)
                return
            if isinstance(yielded, SimEvent):
                yielded.on_trigger(step)
            elif isinstance(yielded, (int, float)):
                # ``step`` doubles as a zero-arg callback: no per-sleep
                # closure allocation on the hot resume path.
                self.schedule(float(yielded), step)
            else:
                raise SimulationError(
                    f"process yielded {yielded!r}; expected SimEvent or delay"
                )

        # Start on the next event-loop turn so spawn order is preserved
        # but the caller finishes first.
        self.schedule(0.0, step)
        return done

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> None:
        """Process events until the heap drains (or *until*/eventcount hit).

        Raises :class:`SimulationError` when *max_events* fire — the
        deadlock/livelock backstop for buggy programs.
        """
        m_events = self._m_events
        heap = self._heap
        while True:
            if self._deferred and (not heap or heap[0][0] > self._now):
                # End of the current same-timestamp batch: run deferred
                # callbacks before the clock advances.  They may push
                # new events (or defer again) at the current instant.
                self._run_deferred()
                continue
            if not heap:
                break
            time, _seq, callback = heap[0]
            if until is not None and time > until:
                self._now = until
                self._flush_batch()
                return
            heapq.heappop(heap)
            if time < self._now - 1e-12:
                raise SimulationError(
                    f"time went backwards: {time} < {self._now}"
                )
            self._now = max(self._now, time)
            self._events_processed += 1
            if m_events is not None:
                m_events.value += 1
                if time != self._batch_time:
                    if self._batch_count:
                        self._m_batch.observe(self._batch_count)
                    self._batch_time = time
                    self._batch_count = 1
                    self._m_queue.value = len(self._heap)
                else:
                    self._batch_count += 1
            if self._events_processed > max_events:
                raise SimulationError(
                    f"exceeded {max_events} events; simulation is likely "
                    "stuck in a livelock"
                )
            callback()
        self._flush_batch()

    def _run_deferred(self) -> None:
        """Run the pending end-of-batch callbacks (one generation)."""
        batch, self._deferred = self._deferred, []
        for callback in batch:
            callback()

    def _flush_batch(self) -> None:
        """Record the trailing same-timestamp event batch, if any."""
        if self._m_batch is not None and self._batch_count:
            self._m_batch.observe(self._batch_count)
            self._batch_count = 0
            self._m_queue.value = len(self._heap)
