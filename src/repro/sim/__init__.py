"""Crash-prone asynchronous message-passing substrate.

This package implements the computation model the paper calls
``CAMP_{n,t}[emptyset]`` (Crash Asynchronous Message-Passing):

* ``n`` sequential processes, each asynchronous (arbitrary relative speeds);
* every pair of processes is connected by two uni-directional channels;
* channels are reliable (no loss, duplication, creation or corruption) but
  **not** FIFO and have finite yet unbounded delays;
* up to ``t`` processes may crash; a crashed process simply stops taking steps.

The substrate is a *deterministic discrete-event simulator*: time is virtual,
events are ordered by ``(time, sequence number)``, and all randomness flows
through explicitly seeded generators, so any run can be replayed bit-for-bit.
Virtual time also lets the benchmark harness measure operation latencies in
the paper's unit (the message-delay bound ``delta``) rather than in seconds.

Public entry points
-------------------
:class:`~repro.sim.scheduler.Simulator`
    The event loop: virtual clock, event queue, observers.
:class:`~repro.sim.network.Network`
    Reliable, non-FIFO, crash-aware channels with message accounting.
:class:`~repro.transport.runtime.ProcessBase` (exported here as ``Process``)
    Base class for protocol processes (send / message handlers / guards).
:class:`~repro.sim.failures.CrashSchedule`
    Declarative crash injection.
:mod:`~repro.sim.delays`
    Pluggable message-delay models.
"""

from repro.sim.delays import (
    DelayModel,
    ExponentialDelay,
    FixedDelay,
    JitteredDelay,
    PerLinkDelay,
    UniformDelay,
)
from repro.sim.events import Event, EventQueue
from repro.sim.failures import CrashSchedule, FailureInjector
from repro.sim.network import Channel, MessageRecord, Network, NetworkStats
from repro.sim.scheduler import Simulator, SimulationError
from repro.sim.tracing import TraceEvent, Tracer
from repro.transport.runtime import Guard, ProcessBase as Process, ProcessCrashedError

__all__ = [
    "Channel",
    "CrashSchedule",
    "DelayModel",
    "Event",
    "EventQueue",
    "ExponentialDelay",
    "FailureInjector",
    "FixedDelay",
    "Guard",
    "JitteredDelay",
    "MessageRecord",
    "Network",
    "NetworkStats",
    "PerLinkDelay",
    "Process",
    "ProcessCrashedError",
    "SimulationError",
    "Simulator",
    "TraceEvent",
    "Tracer",
    "UniformDelay",
]
