"""The live workload: a closed loop against a loopback replica cluster.

One asyncio thread drives a 3-replica ``two-bit`` :class:`LiveCluster`
through one :class:`LiveClient` (one connection per replica) with
:data:`WINDOW` operations outstanding, over a fixed number of operations.
Each reply is stamped by a callback on its future, in the loop turn its
frame is decoded, so latency is send to reply arrival and never waits for
later operations.
Each operation is its own session pid: concurrent operations have no
program order between them, only real-time order, and the per-key checker
sees exactly that.

Throughput and latency are taken per slice of :data:`SLICE_OPS`
consecutive replies and reported as medians over the slices of every
cluster, so a burst of CPU stolen from the machine moves a few slices, not
the run's figure.
"""

from __future__ import annotations

import asyncio
import gc
import resource
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.exec.oplog import OpLog
from repro.registers.base import OperationKind, OperationRecord
from repro.transport.live import LiveClient, LiveCluster
from repro.verification.linearizability import check_histories_per_key
from repro.workloads.kv import KVWorkloadSpec, iter_kv_operations

REPLICAS = 3
WINDOW = 32
NUM_KEYS = 64
INITIAL_VALUE = "v0"
#: Replies before the first slice: the replicas create each key's register
#: on first touch, and those ops are not timed.
WARMUP_OPS = 2_000
#: Replies per statistics slice (p99 then has 20 samples beyond it).
SLICE_OPS = 2_000
#: Operations per requested second of measuring, spread over the run's
#: clusters: a run's op count, and so its memory, is fixed by ``--seconds``;
#: its duration is what is measured.
OPS_PER_SECOND = 8_000
#: Ceiling on one cluster's drive time, per second of nominal work.
TIMEOUT_FACTOR = 5.0


@dataclass
class Slice:
    ops_per_s: float
    p50_s: float
    p99_s: float


@dataclass
class LiveRepeat:
    """What one freshly booted, driven and checked cluster measured."""

    issued: int
    completed: int
    verdict: Optional[str]
    setup_s: float
    run_s: float
    check_s: float
    slices: List[Slice]
    mean_latency_s: float  # over every timed reply
    timed_ops_per_s: float  # every timed reply over their span
    messages: int
    client_cpu_s: float
    replica_cpu_s: float  # replicas' CPU, boot included
    frames_per_flush: float
    client_bytes_per_op: float
    states_explored: int

    @property
    def verified_us_per_op(self) -> float:
        return (self.run_s + self.check_s) / self.completed * 1e6


class _Pending:
    """What :class:`LiveClient`'s reader expects in ``pending``: a future."""

    __slots__ = ("future",)

    def __init__(self, future: "asyncio.Future") -> None:
        self.future = future


def run(seed: int, ops: int, clusters: int, tracer: Any = None) -> List[LiveRepeat]:
    """Replay the seeded ``ops``-op stream on ``clusters`` fresh clusters in turn.

    Each cluster is booted (timed as set-up), driven, stopped and its history
    checked; every cluster lands on its own placement of four processes on
    the machine's CPUs, so medians over clusters damp that variation.
    """
    gc.collect()
    try:
        return asyncio.run(_run(seed, ops, clusters, tracer))
    finally:
        _stop_resource_tracker()


def _stop_resource_tracker() -> None:
    """Stop, and wait for, the helper process multiprocessing started.

    Booting a cluster starts multiprocessing's resource tracker, which
    would otherwise outlive the run by a moment; the benchmark leaves no
    process behind.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


async def _boot() -> Tuple[LiveCluster, LiveClient]:
    cluster = LiveCluster(REPLICAS, "two-bit", INITIAL_VALUE)
    client = LiveClient()
    try:
        ports = await cluster.start()
        await client.connect(ports)
        await client.wire_peers(ports)
    except BaseException:
        await _shutdown(cluster, client)
        raise
    client.start_readers()
    return cluster, client


async def _shutdown(cluster: LiveCluster, client: LiveClient) -> None:
    try:
        await client.close(send_shutdown=True)
    finally:
        await cluster.stop()


async def _run(seed: int, ops: int, clusters: int, tracer: Any) -> List[LiveRepeat]:
    script = list(
        iter_kv_operations(
            KVWorkloadSpec(
                num_keys=NUM_KEYS,
                num_ops=ops,
                read_fraction=0.9,
                algorithm="two-bit",
                replication=REPLICAS,
                transport="live",
                initial_value=INITIAL_VALUE,
                seed=seed,
            )
        )
    )
    timeout = ops / OPS_PER_SECOND * TIMEOUT_FACTOR
    return [await _repeat(script, timeout, tracer) for _ in range(clusters)]


async def _repeat(script: List[Any], timeout: float, tracer: Any) -> LiveRepeat:
    children_before = _children_cpu()
    started = time.perf_counter()
    cluster, client = await _boot()
    setup_s = time.perf_counter() - started
    try:
        drive = _drive if tracer is None else tracer.timed_async("bench.run", _drive)
        run_started = time.perf_counter()
        cpu_before = time.process_time()
        oplog, replies, issued, drained = await drive(client, script, timeout)
        run_s = time.perf_counter() - run_started
        client_cpu_s = time.process_time() - cpu_before
        messages = await client.drain_stats()
        transport = client.transport_summary(len(replies))
    finally:
        await _shutdown(cluster, client)
    replica_cpu_s = _children_cpu() - children_before

    check = _check if tracer is None else tracer.timed("bench.check", _check)
    check_started = time.perf_counter()
    report = check(oplog)
    check_s = time.perf_counter() - check_started

    timed = replies[WARMUP_OPS:]
    latencies = [end - start for start, end in timed]
    span = timed[-1][1] - replies[WARMUP_OPS - 1][1] if timed else 0.0
    repeat = LiveRepeat(
        issued=issued,
        completed=len(replies),
        verdict=None,
        setup_s=setup_s,
        run_s=run_s,
        check_s=check_s,
        slices=_slices(replies),
        mean_latency_s=sum(latencies) / len(latencies) if latencies else 0.0,
        timed_ops_per_s=len(timed) / span if span > 0 else 0.0,
        messages=messages,
        client_cpu_s=client_cpu_s,
        replica_cpu_s=replica_cpu_s,
        frames_per_flush=transport["frames_per_flush"] or 0.0,
        client_bytes_per_op=transport["client_bytes_per_op"] or 0.0,
        states_explored=report.states_explored,
    )
    if not drained or len(replies) != issued:
        repeat.verdict = f"{len(replies)} of {issued} ops completed"
    elif not report.ok:
        repeat.verdict = "not linearizable: " + "; ".join(report.violations()[:3])
    elif report.operations_checked != issued:
        repeat.verdict = f"checked {report.operations_checked} of {issued} ops"
    elif not repeat.slices:
        repeat.verdict = f"{len(replies)} replies fill no {SLICE_OPS}-op slice after warm-up"
    return repeat


def _slices(replies: List[Tuple[float, float]]) -> List[Slice]:
    """Throughput and latency of each full slice of replies after warm-up."""
    from bench_sim import percentile

    slices = []
    for begin in range(WARMUP_OPS, len(replies) - SLICE_OPS + 1, SLICE_OPS):
        block = replies[begin : begin + SLICE_OPS]
        latencies = sorted(end - start for start, end in block)
        span = block[-1][1] - replies[begin - 1][1]
        slices.append(
            Slice(
                ops_per_s=SLICE_OPS / span,
                p50_s=percentile(latencies, 0.5),
                p99_s=percentile(latencies, 0.99),
            )
        )
    return slices


def _check(oplog: OpLog) -> Any:
    return check_histories_per_key(oplog.per_key_histories(INITIAL_VALUE))


async def _drive(
    client: LiveClient, script: List[Any], timeout: float
) -> Tuple[OpLog, List[Tuple[float, float]], int, bool]:
    """Keep :data:`WINDOW` ops in flight until the script is issued and answered.

    Returns the history, the (send, reply) wall stamps of every successful
    op in reply order, how many ops were issued, and whether every issued
    op was answered within ``timeout`` seconds.
    """
    loop = asyncio.get_running_loop()
    clock = time.perf_counter
    oplog = OpLog()
    replies: List[Tuple[float, float]] = []
    drained = loop.create_future()
    read_turn: Dict[Any, int] = {}
    issued = 0
    answered = 0

    def fire() -> None:
        nonlocal issued
        scripted = script[issued]
        if scripted.kind is OperationKind.WRITE:
            replica = 0  # the register's single writer
        else:
            turn = read_turn.get(scripted.key, 0)
            read_turn[scripted.key] = turn + 1
            replica = turn % REPLICAS
        op_id = issued
        issued += 1
        now = clock()
        row = oplog.note_created(scripted.kind, scripted.key, scripted.value)
        oplog.note_submitted(row, now)
        record = OperationRecord(
            op_id=0, pid=op_id, kind=scripted.kind, value=scripted.value, invoked_at=now
        )
        oplog.note_issued(row, record)
        future = loop.create_future()
        future.add_done_callback(lambda done: reply(row, record, done))
        client.pending[op_id] = _Pending(future)
        client.conns[replica].send(
            {
                "kind": "invoke",
                "op_id": op_id,
                "op": scripted.kind.value,
                "key": scripted.key,
                "value": scripted.value,
            }
        )

    def reply(row: int, record: OperationRecord, done: "asyncio.Future") -> None:
        nonlocal answered
        now = clock()
        answered += 1
        frame = done.result()
        if frame.get("ok"):
            record.completed = True
            record.result = frame.get("value")
            record.responded_at = now
            oplog.note_completed(row, record)
            replies.append((record.invoked_at, now))
        else:
            oplog.note_failed(row, frame.get("error", "error reply"))
        if issued < len(script):
            fire()
        elif answered == issued and not drained.done():
            drained.set_result(True)

    for _ in range(min(WINDOW, len(script))):
        fire()
    try:
        await asyncio.wait_for(asyncio.shield(drained), timeout=timeout)
    except asyncio.TimeoutError:
        return oplog, replies, issued, False
    return oplog, replies, issued, True
