"""Outside-in layer tracing: time the repository's public entry points.

The tracer replaces a method or module function with a wrapper that records
one span per call: its duration, and the share of that duration spent in
spans it caused (the *children*).  A layer's self time is the sum of its
spans' durations minus their children's, so nested layers never count the
same second twice.  Spans are folded into per-layer totals as they close;
nothing is written until the run ends.

Only the benchmark's traced runs install wrappers, and :meth:`restore` puts
every original back, so untraced runs execute the unmodified program.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

#: Spans the benchmark opens around a whole run and a whole check.  Their
#: self time is wall time no named layer accounts for.
ROOTS = ("bench.run", "bench.check")


class SpanTracer:
    """Per-layer self time, call counts and event counters for one process."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, int] = defaultdict(int)
        # One child-time accumulator per open span; the bottom entry
        # collects root durations and is never popped.
        self._stack: List[float] = [0.0]
        self._undo: List[Tuple[Any, str, Any]] = []

    def timed(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped so that each call is a span of ``layer``."""
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter

        def span(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - stack.pop()
                stack[-1] += elapsed
                calls[layer] += 1

        return span

    def timed_async(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Coroutine function ``fn`` wrapped so that each await is a span.

        Spans that other tasks open while ``fn`` is suspended nest inside
        this one, so wrap only a coroutine that is the sole open span.
        """
        stack = self._stack

        async def span(*args: Any, **kwargs: Any) -> Any:
            start = time.perf_counter()
            stack.append(0.0)
            try:
                return await fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.self_s[layer] += elapsed - stack.pop()
                stack[-1] += elapsed
                self.calls[layer] += 1

        return span

    def patch(self, owner: Any, name: str, replacement: Callable[..., Any]) -> Any:
        """Set ``owner.name`` to ``replacement``; returns the original."""
        original = owner.__dict__[name]
        self._undo.append((owner, name, original))
        setattr(owner, name, replacement)
        return original

    def wrap(self, owner: Any, name: str, layer: str) -> None:
        """Make every call of ``owner.name`` a span of ``layer``."""
        self.patch(owner, name, self.timed(layer, owner.__dict__[name]))

    def restore(self) -> None:
        """Put back every original, last patch first."""
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def coverage(self) -> float:
        """Share of root-span wall time that named layers account for."""
        total = self._stack[0]
        if total <= 0:
            return 0.0
        unattributed = sum(self.self_s.get(root, 0.0) for root in ROOTS)
        return 1.0 - unattributed / total


def install_sim_layers(tracer: SpanTracer) -> None:
    """Wrap the simulator-side entry points named in the benchmark's layer table."""
    from repro.exec.clients import OpenLoopClient
    from repro.exec.driver import Driver
    from repro.exec.target import StoreTarget
    from repro.quorum.engine import QuorumCollector
    from repro.registers.base import RegisterProcess
    from repro.sim.network import Network, NetworkStats
    from repro.sim.scheduler import Simulator
    from repro.store.store import KVStore
    from repro.transport.runtime import ProcessBase

    tracer.wrap(Simulator, "step", "sim.scheduler")
    tracer.wrap(Network, "send", "sim.network.send")
    tracer.wrap(NetworkStats, "record_send", "sim.network.stats")
    for name in ("new_op", "submit", "_on_complete"):
        tracer.wrap(Driver, name, "exec.driver")
    tracer.wrap(OpenLoopClient, "_fire", "exec.clients")
    for name in ("submit_get", "submit_put", "submit_op"):
        tracer.wrap(KVStore, name, "store")
    tracer.wrap(StoreTarget, "route", "store")
    for name in ("invoke_read", "invoke_write", "invoke_operation"):
        tracer.wrap(RegisterProcess, name, "protocol")
    tracer.wrap(ProcessBase, "deliver", "protocol")
    # Coalesced deliveries call ``on_message`` directly, skipping
    # ``deliver``; every concrete handler is a protocol span.
    for cls in _subclasses(ProcessBase):
        if "on_message" in cls.__dict__:
            tracer.wrap(cls, "on_message", "protocol")
    _count_guard_fires(tracer, ProcessBase)
    _count_quorum_accepts(tracer, QuorumCollector)
    install_oplog_layer(tracer)


def install_oplog_layer(tracer: SpanTracer) -> None:
    """Wrap the OpLog recording calls (shared by sim and live runs)."""
    from repro.exec.oplog import OpLog

    for name in ("note_created", "note_submitted", "note_issued", "note_completed", "note_failed"):
        tracer.wrap(OpLog, name, "exec.oplog")


def install_check_layers(tracer: SpanTracer) -> None:
    """Wrap the checker's materialization and its two cores."""
    from repro.exec.oplog import OpLog
    from repro.verification import linearizability, register_checker
    from repro.verification.columnar import ColumnarHistory

    tracer.wrap(OpLog, "per_key_histories", "verification.materialize")
    tracer.wrap(ColumnarHistory, "to_history", "verification.materialize")
    tracer.wrap(register_checker, "check_swmr_atomicity", "verification.swmr")
    tracer.wrap(linearizability, "check_linearizability", "verification.wing_gong")


def install_codec_layer(tracer: SpanTracer) -> None:
    """Wrap the client-side wire codecs of the live transport."""
    from repro.transport.codec_binary import BinaryWireCodec, JsonWireCodec

    for cls in (BinaryWireCodec, JsonWireCodec):
        tracer.wrap(cls, "encode", "transport.codec")
        tracer.wrap(cls, "decode", "transport.codec")


def _subclasses(cls: type) -> List[type]:
    found: List[type] = []
    pending = [cls]
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                pending.append(sub)
    return found


def _count_guard_fires(tracer: SpanTracer, process_cls: Any) -> None:
    """Span ``check_guards`` and count the calls that fired at least one guard.

    The counting sits outside the span, so the guard scan's own self time
    excludes it.
    """
    timed = tracer.timed("transport.runtime.guards", process_cls.__dict__["check_guards"])
    counters = tracer.counters

    def check_guards(process: Any) -> None:
        waiting = process.pending_guards()
        timed(process)
        if any(guard.fired for guard in waiting):
            counters["guards.fired"] += 1

    tracer.patch(process_cls, "check_guards", check_guards)


def _count_quorum_accepts(tracer: SpanTracer, collector_cls: Any) -> None:
    """Count quorum replies, and those that arrived before the quorum was met."""
    accept = collector_cls.__dict__["accept"]
    counters = tracer.counters

    def counted_accept(collector: Any, src: int, payload: Any = None) -> bool:
        needed = not collector.closed and not collector.satisfied()
        taken = accept(collector, src, payload)
        counters["quorum.accepts"] += 1
        if taken and needed:
            counters["quorum.useful"] += 1
        return taken

    tracer.patch(collector_cls, "accept", counted_accept)
