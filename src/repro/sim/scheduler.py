"""The discrete-event scheduler (virtual clock + event loop).

The :class:`Simulator` owns the virtual clock and the :class:`EventQueue`.
Protocol code never blocks: waits are expressed as *guards* on processes
(see :mod:`repro.transport.runtime`) or as events scheduled in the future.  The
simulator advances time only when it pops an event, so the clock jumps from
event to event — there is no real-time component at all.

Determinism contract
--------------------
Given the same initial configuration (processes, delay model seed, crash
schedule, workload seed), :meth:`Simulator.run` produces exactly the same
sequence of events, message deliveries, and final states.  All the tests and
benchmarks rely on this.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

from repro.sim.events import Event, EventQueue
from repro.sim.tracing import Tracer


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent or stuck state."""


class Simulator:
    """Deterministic virtual-time event loop.

    Parameters
    ----------
    tracer:
        Optional :class:`~repro.sim.tracing.Tracer` receiving structured
        events (message sends/deliveries, crashes, operation boundaries).
    max_events:
        Safety valve: a run that executes more events than this raises
        :class:`SimulationError` instead of spinning forever (useful when a
        protocol bug creates a message loop).
    """

    def __init__(self, tracer: Optional[Tracer] = None, max_events: int = 5_000_000) -> None:
        self._queue = EventQueue()
        self._now: float = 0.0
        self._executed = 0
        self._max_events = max_events
        # `is not None` rather than `or`: an empty Tracer is falsy (it has __len__).
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self._stopped = False
        # Observers are called after every executed event; verification hooks
        # (e.g. global invariant monitors) register themselves here.
        self._observers: list[Callable[["Simulator"], None]] = []

    # ------------------------------------------------------------------ clock

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def executed_events(self) -> int:
        """Number of events executed so far."""
        return self._executed

    @property
    def pending_events(self) -> int:
        """Number of live events still in the queue."""
        return len(self._queue)

    # -------------------------------------------------------------- scheduling

    def schedule_at(self, time: float, action: Callable[[], None], label: Any = "") -> Event:
        """Schedule ``action`` at absolute virtual ``time`` (must not be in the past).

        ``label`` may be any object; it is rendered with ``str()`` only when
        diagnostics are produced (lazy labels — see :class:`~repro.sim.events.Event`).
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event {str(label)!r} at {time} < current time {self._now}"
            )
        return self._queue.push(time, action, label)

    def schedule_after(self, delay: float, action: Callable[[], None], label: Any = "") -> Event:
        """Schedule ``action`` ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay} for event {str(label)!r}")
        return self._queue.push(self._now + delay, action, label)

    def cancel(self, event: Event) -> None:
        """Cancel a scheduled event."""
        self._queue.cancel(event)

    def add_observer(self, observer: Callable[["Simulator"], None]) -> None:
        """Register a callback invoked after every executed event."""
        self._observers.append(observer)

    def remove_observer(self, observer: Callable[["Simulator"], None]) -> None:
        """Unregister an observer previously added with :meth:`add_observer`."""
        self._observers.remove(observer)

    def stop(self) -> None:
        """Request the event loop to stop after the current event."""
        self._stopped = True

    # ------------------------------------------------------------------- loop

    def step(self) -> bool:
        """Execute a single event.

        Returns ``True`` if an event was executed, ``False`` if the queue is
        empty.

        Hot path: the common case (no observers, event in order) runs with no
        per-event allocations and no tracer/observer calls — verification
        hooks that do register observers pay for them, benchmark runs do not.
        """
        event = self._queue.pop()
        if event is None:
            return False
        if event.time < self._now:  # pragma: no cover - guarded by schedule_at
            raise SimulationError("event queue produced an event in the past")
        self._now = event.time
        self._executed += 1
        if self._executed > self._max_events:
            raise SimulationError(
                f"exceeded max_events={self._max_events}; "
                "the protocol may be generating an unbounded message storm"
            )
        event.action()
        if self._observers:
            for observer in self._observers:
                observer(self)
        return True

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains, ``until`` is reached, or :meth:`stop` is called.

        ``until`` is an absolute virtual time; events scheduled strictly after
        it remain in the queue and the clock is advanced to ``until``.
        """
        self._stopped = False
        if until is None:
            # Drain mode: pop-driven loop, no peek per event.
            step = self.step
            while not self._stopped and step():
                pass
            return
        while not self._stopped:
            next_time = self._queue.peek_time()
            if next_time is None:
                break
            if next_time > until:
                self._now = max(self._now, until)
                break
            self.step()

    def run_until(self, predicate: Callable[[], bool], limit: Optional[float] = None) -> bool:
        """Run until ``predicate()`` becomes true.

        Returns ``True`` if the predicate was satisfied, ``False`` if the
        queue drained (or the ``limit`` virtual time passed) first.  The
        predicate is evaluated before executing any event and after each one.
        """
        self._stopped = False
        if predicate():
            return True
        if limit is None:
            step = self.step
            while not self._stopped:
                if not step():
                    return predicate()
                if predicate():
                    return True
            return predicate()
        while not self._stopped:
            next_time = self._queue.peek_time()
            if next_time is None:
                return predicate()
            if next_time > limit:
                self._now = max(self._now, limit)
                return predicate()
            self.step()
            if predicate():
                return True
        return predicate()

    def drain(self) -> None:
        """Run until the event queue is completely empty."""
        self.run(until=None)

    # -------------------------------------------------------------- inspection

    def pending_labels(self) -> list[str]:
        """Labels of pending events (diagnostics for stuck simulations)."""
        return self._queue.pending_labels()

    def require_quiescent(self, context: str = "") -> None:
        """Raise :class:`SimulationError` if events are still pending.

        Used by tests that expect a protocol to reach quiescence (e.g. after
        all operations completed and all forwarded messages were processed).
        """
        if self.pending_events:
            labels = ", ".join(self.pending_labels()[:10])
            raise SimulationError(
                f"simulation not quiescent{': ' + context if context else ''}; "
                f"{self.pending_events} events pending (first: {labels})"
            )


def run_all(simulators: Iterable[Simulator]) -> None:
    """Drain several independent simulators (convenience for parameter sweeps)."""
    for sim in simulators:
        sim.drain()
