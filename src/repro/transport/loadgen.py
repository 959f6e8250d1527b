"""Multi-process open-loop load generator for the live transport.

One parent process boots a loopback replica cluster
(:class:`~repro.transport.live.LiveCluster`), then fans out ``clients``
**worker processes**, each of which drives the cluster through its own
:class:`~repro.transport.live.LiveClient` at an open-loop Poisson arrival
rate of ``rate / clients`` operations per second — the aggregate offered
load is ``rate``, independent of service latency (ops fire on schedule
whether or not earlier ones have completed; queueing shows up as latency,
exactly what an SLO measures).

Determinism and soundness:

* each worker's operation schedule (arrival offsets, op kinds, keys,
  values) comes from its own seeded stream
  (``make_rng(seed, "loadgen", worker)``), so a rerun with the same spec
  offers the same load;
* written values embed the worker id (``key@c<worker>#<n>``), so every
  write in the merged history is globally distinct — the property the
  per-key checker's SWMR fast path keys on, and cheap insurance for the
  Wing–Gong core;
* every worker stamps invocation/response instants with a
  :class:`~repro.transport.live.WallClock` sharing the **parent's epoch**
  (``CLOCK_MONOTONIC`` is system-wide on Linux), so the per-worker columnar
  :class:`~repro.exec.oplog.OpLog` rows merge into one history whose
  real-time order across workers is meaningful — which is what makes the
  merged linearizability verdict sound;
* every reply is stamped the moment it arrives (a done-callback on its
  future), so latencies are real and overlapping ops keep their real-time
  order;
* workers ship their logs back encoded (:func:`~repro.exec.oplog.encode_oplog`)
  together with raw metric samples; the parent merges with
  ``OpLog.extend_remapped`` and the pooled-sample percentile path
  (:func:`~repro.exec.metrics.merge_metrics`), then reports wall-clock
  p50/p95/p99 and gates them against the spec's SLO.
"""

from __future__ import annotations

import asyncio
import itertools
import multiprocessing
import queue as queue_module
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.exec.metrics import MetricsCollector, collector_raw_state, merge_metrics
from repro.exec.oplog import OpLog, decode_oplog, encode_oplog
from repro.registers.base import OperationKind, OperationRecord
from repro.registers.registry import available_algorithms
from repro.sim.rng import make_rng
from repro.transport.codec_binary import CODEC_PREFERENCE
from repro.transport.live import (
    LiveCluster,
    LiveClient,
    WallClock,
    _PendingOp,
    record_reply,
    settle_on_reply,
    settle_unanswered,
)

__all__ = ["LoadgenSpec", "LoadgenResult", "run_loadgen"]

#: Seconds a worker reserves (out of ``spec.timeout``) for shipping results.
_SHIP_MARGIN = 5.0


@dataclass(frozen=True)
class LoadgenSpec:
    """One load-generation run: cluster shape, offered load, SLO targets."""

    clients: int = 4
    rate: float = 5000.0  # aggregate open-loop arrivals per wall second
    num_ops: int = 50_000  # total ops across all workers
    num_keys: int = 64
    read_fraction: float = 0.9
    algorithm: str = "abd-mwmr"
    replicas: int = 3
    codec: str = "binary"
    write_batching: bool = True
    initial_value: Any = "v0"
    seed: int = 0
    slo_p99: Optional[float] = None  # seconds; None = report only, no gate
    timeout: float = 300.0  # hard wall deadline for the whole run

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ValueError("loadgen needs at least 1 client worker")
        if self.rate <= 0:
            raise ValueError("rate must be positive (ops per second)")
        if self.num_ops < 1:
            raise ValueError("num_ops must be positive")
        if self.num_keys < 1:
            raise ValueError("num_keys must be positive")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError("read_fraction must be within [0, 1]")
        if self.replicas < 2:
            raise ValueError("a live register cluster needs at least 2 replicas")
        if self.codec not in ("binary", "json"):
            raise ValueError(f"unknown wire codec {self.codec!r}; choose binary or json")
        if self.algorithm not in available_algorithms():
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; choose from {available_algorithms()}"
            )
        if self.timeout <= self.num_ops / self.rate + 2 * _SHIP_MARGIN:
            raise ValueError(
                "timeout must exceed the arrival schedule length "
                f"({self.num_ops / self.rate:.1f}s at rate {self.rate:g}) plus settle slack"
            )

    def worker_ops(self, worker: int) -> int:
        """This worker's share of ``num_ops`` (first workers take remainders)."""
        base, extra = divmod(self.num_ops, self.clients)
        return base + (1 if worker < extra else 0)


@dataclass
class LoadgenResult:
    """Merged outcome of one load-generation run."""

    spec: LoadgenSpec
    oplog: OpLog
    wall_seconds: float
    submitted: int
    completed: int
    failed: int
    metrics: Dict[str, Any]
    messages_total: int
    worker_errors: List[str] = field(default_factory=list)
    finished_cleanly: bool = True

    def histories(self):
        return self.oplog.per_key_histories(self.spec.initial_value)

    def check_linearizability(self, swmr_fast_path: bool = True, max_states=None):
        """Run the unmodified per-key Wing–Gong checker on the merged history."""
        from repro.verification.linearizability import check_histories_per_key

        return check_histories_per_key(
            self.histories(), swmr_fast_path=swmr_fast_path, max_states=max_states
        )

    def slo_report(self) -> Dict[str, Any]:
        """Wall-clock latency percentiles + pass/fail against the spec's SLO."""
        summary = self.metrics["latency"]["all"]
        report = {
            "p50": summary["p50"],
            "p95": summary["p95"],
            "p99": summary["p99"],
            "target_p99": self.spec.slo_p99,
            "achieved_rate": self.metrics.get("wall_throughput"),
            "offered_rate": self.spec.rate,
            "failed": self.failed,
        }
        checks = [self.failed == 0, not self.worker_errors]
        if self.spec.slo_p99 is not None and summary["p99"] is not None:
            checks.append(summary["p99"] <= self.spec.slo_p99)
        report["ok"] = all(checks)
        return report


# ------------------------------------------------------------------- worker


def _worker_plan(
    spec: LoadgenSpec, worker: int
) -> Tuple[List[float], List[Tuple[OperationKind, str, Optional[str]]]]:
    """Seeded per-worker schedule: arrival offsets + (kind, key, value) ops."""
    rng = make_rng(spec.seed, "loadgen", worker)
    count = spec.worker_ops(worker)
    worker_rate = spec.rate / spec.clients
    offsets: List[float] = []
    elapsed = 0.0
    for _ in range(count):
        elapsed += rng.expovariate(worker_rate)
        offsets.append(elapsed)
    ops: List[Tuple[OperationKind, str, Optional[str]]] = []
    writes = 0
    for _ in range(count):
        key = f"key{rng.randrange(spec.num_keys)}"
        if rng.random() < spec.read_fraction:
            ops.append((OperationKind.READ, key, None))
        else:
            writes += 1
            ops.append((OperationKind.WRITE, key, f"{key}@c{worker}#{writes}"))
    return offsets, ops


async def _worker_async(
    spec: LoadgenSpec, worker: int, ports: Dict[int, int], epoch: float
) -> Dict[str, Any]:
    loop = asyncio.get_running_loop()
    offsets, ops = _worker_plan(spec, worker)
    client = LiveClient(codec=spec.codec, batching=spec.write_batching)
    oplog = OpLog()
    metrics = MetricsCollector(wall_clock=True)
    failures: List[str] = []
    try:
        await client.connect(ports)
        client.start_readers()
        clock = WallClock(loop, epoch=epoch)
        n = len(ports)
        read_rr: Dict[Any, int] = {}
        op_ids = itertools.count()
        in_flight: List[_PendingOp] = []

        def settle(pending: _PendingOp, frame: Optional[Dict[str, Any]]) -> None:
            reason = record_reply(pending, frame, clock.now, oplog, metrics)
            if reason is not None:
                failures.append(f"{record_label(pending.record)}: {reason}")

        t0 = clock.now
        for offset, (kind, key, value) in zip(offsets, ops):
            delay = (t0 + offset) - clock.now
            if delay > 0:
                await asyncio.sleep(delay)
            if kind is OperationKind.WRITE:
                replica = 0  # the writer replica, as the single-client runner routes
            else:
                turn = read_rr.get(key, 0)
                read_rr[key] = turn + 1
                replica = turn % n
            op_id = next(op_ids)
            now = clock.now
            row = oplog.note_created(kind, key, value)
            oplog.note_submitted(row, now)
            # Open-loop semantics: the generator never waits, so consecutive
            # ops from one worker genuinely overlap and there is NO program
            # order between them.  The checker derives program-order edges
            # from equal pids (same pid => sequential process), so each op
            # gets its own globally unique pid — one logical session per op,
            # constrained by real-time intervals alone.  Reusing the worker
            # (or replica) id here would let the checker impose a fictitious
            # sequential order over concurrent ops and reject linearizable
            # histories.
            record = OperationRecord(
                op_id=0,
                pid=worker + spec.clients * op_id,
                kind=kind,
                value=value,
                invoked_at=now,
            )
            oplog.note_issued(row, record)
            metrics.note_issued(now)
            pending = _PendingOp(row, record, loop.create_future())
            settle_on_reply(pending, settle)
            client.pending[op_id] = pending
            client.conns[replica].send(
                {
                    "kind": "invoke",
                    "op_id": op_id,
                    "op": "write" if kind is OperationKind.WRITE else "read",
                    "key": key,
                    "value": value,
                }
            )
            in_flight.append(pending)

        # Open-loop backlog can drain long after the last arrival when the
        # offered rate exceeds capacity; let the run's hard timeout govern,
        # keeping a margin to encode and ship results before the parent
        # gives up on us.
        await settle_unanswered(in_flight, settle, t0 + spec.timeout - _SHIP_MARGIN - clock.now)
    finally:
        await client.close(send_shutdown=False)

    blob, buffers = encode_oplog(oplog)
    return {
        "worker": worker,
        "oplog_blob": blob,
        "oplog_buffers": buffers,
        "metrics_raw": collector_raw_state(metrics),
        "failures": failures[:20],  # enough to diagnose, bounded on the wire
        "transport": [conn.snapshot() for _, conn in sorted(client.conns.items())],
    }


def record_label(record: OperationRecord) -> str:
    kind = "write" if record.kind is OperationKind.WRITE else "read"
    return f"{kind} session {record.pid}"


def _worker_main(
    spec: LoadgenSpec,
    worker: int,
    ports: Dict[int, int],
    epoch: float,
    out: Any,
) -> None:
    """Spawned worker entry point: run, then ship the encoded results."""
    try:
        result = asyncio.run(_worker_async(spec, worker, ports, epoch))
        out.put(("ok", worker, result))
    except BaseException as exc:  # noqa: BLE001 — the parent needs *any* failure
        out.put(("error", worker, f"{type(exc).__name__}: {exc}"))


# ------------------------------------------------------------------- parent


def run_loadgen(spec: LoadgenSpec) -> LoadgenResult:
    """Boot a cluster, drive it with ``spec.clients`` worker processes, merge."""
    return asyncio.run(_run_loadgen_async(spec))


async def _run_loadgen_async(spec: LoadgenSpec) -> LoadgenResult:
    loop = asyncio.get_running_loop()
    server_codecs = ("json",) if spec.codec == "json" else CODEC_PREFERENCE
    cluster = LiveCluster(
        spec.replicas,
        spec.algorithm,
        spec.initial_value,
        server_codecs=server_codecs,
        batching=spec.write_batching,
    )
    started = time.perf_counter()
    control = LiveClient(codec=spec.codec, batching=spec.write_batching)
    worker_errors: List[str] = []
    parts: List[Dict[str, Any]] = []
    try:
        ports = await cluster.start()
        await control.connect(ports)
        await control.wire_peers(ports)
        control.start_readers()

        ctx = multiprocessing.get_context("spawn")
        out: Any = ctx.Queue()
        epoch = loop.time()  # workers' WallClock epoch: shared monotonic base
        procs = [
            ctx.Process(
                target=_worker_main,
                args=(spec, worker, ports, epoch, out),
                daemon=True,
            )
            for worker in range(spec.clients)
        ]
        for proc in procs:
            proc.start()

        deadline = time.monotonic() + spec.timeout
        pending_workers = spec.clients
        while pending_workers and time.monotonic() < deadline:
            try:
                status, worker, payload = await loop.run_in_executor(
                    None, lambda: out.get(timeout=1.0)
                )
            except queue_module.Empty:
                continue
            pending_workers -= 1
            if status == "ok":
                parts.append(payload)
            else:
                worker_errors.append(f"worker {worker}: {payload}")
        if pending_workers:
            worker_errors.append(
                f"{pending_workers} worker(s) missed the {spec.timeout:.0f}s deadline"
            )
        for proc in procs:
            await loop.run_in_executor(None, proc.join, 5.0)
            if proc.is_alive():
                proc.terminate()
                await loop.run_in_executor(None, proc.join, 5.0)

        messages_total = await control.drain_stats()
        replica_transport = {
            str(replica): reply.get("transport", [])
            for replica, reply in sorted(control.stats_replies.items())
        }
    finally:
        try:
            await control.close(send_shutdown=True)
        finally:
            await cluster.stop()

    # ---------------------------------------------------------------- merge
    oplog = OpLog()
    metric_parts: List[Dict[str, Any]] = []
    worker_transport: Dict[str, Any] = {}
    for part in sorted(parts, key=lambda p: p["worker"]):
        oplog.extend_remapped(decode_oplog(part["oplog_blob"], part["oplog_buffers"]))
        metric_parts.append(part["metrics_raw"])
        worker_transport[f"client{part['worker']}"] = part["transport"]
        worker_errors.extend(part["failures"])

    metrics = merge_metrics(metric_parts, messages_total)
    # The pooled window is wall time here (shared-epoch stamps), so the
    # merged "virtual" rate is really the achieved wall rate.
    metrics["wall_throughput"] = metrics.pop("virtual_throughput", None)
    metrics["transport"] = {
        "codec": spec.codec,
        "batching": spec.write_batching,
        "client_connections": worker_transport,
        "replica_connections": replica_transport,
    }

    failed = metrics.get("failed", 0)
    completed = metrics.get("completed", 0)
    return LoadgenResult(
        spec=spec,
        oplog=oplog,
        wall_seconds=time.perf_counter() - started,
        submitted=len(oplog),
        completed=completed,
        failed=failed,
        metrics=metrics,
        messages_total=messages_total,
        worker_errors=worker_errors,
        finished_cleanly=failed == 0 and not worker_errors,
    )
