"""Live transport backend: asyncio TCP sockets on a loopback cluster.

The same register algorithms that run on the virtual-time simulator run
here over real sockets, unmodified:

* each **replica server** is its own OS process (``multiprocessing`` spawn)
  running an asyncio event loop; per-key
  :class:`~repro.registers.base.RegisterProcess` instances are created
  lazily on first touch, exactly like the simulated store's subnets;
* replica-to-replica protocol traffic and client invocations travel as
  length-prefixed frames (:mod:`repro.transport.framing`) whose bodies are
  encoded by a **per-connection negotiated wire codec** — struct-packed
  binary (:mod:`repro.transport.codec_binary`) when both ends agree on the
  schema signature, UTF-8 JSON otherwise;
* every connection runs a :class:`~repro.transport.framing.BatchWriter`
  (concurrent sends coalesce into one ``write()``/``drain()`` per flush)
  and a chunked read loop feeding a cursor
  :class:`~repro.transport.framing.FrameDecoder`, with per-connection
  :class:`~repro.transport.framing.TransportStats` surfaced in metrics;
* the **client runner** (:func:`run_live_workload`) replays a seeded
  :class:`~repro.workloads.kv.KVWorkloadSpec` operation stream — the *same*
  stream a simulated run of that spec executes, because the op-mix RNG is
  independent of the arrival model — and records client-observed
  invocation/response wall timestamps into the columnar
  :class:`~repro.exec.oplog.OpLog`, so live histories feed the unmodified
  Wing–Gong linearizability checker.  (Batching delays sit strictly inside
  the client-observed [invoke, response] interval, so the checker stays
  sound; see DESIGN §13.)

Failure semantics: live connections either work or the run fails loudly —
a dropped connection, a codec error or a deadline overrun marks the
affected operations failed and ``finished_cleanly=False``.  There is no
fault *injection* here: partitions, delay storms, scheduled crashes,
coalescing and schedule perturbation are simulated-only features (they
need a controllable clock to be reproducible).  On the wire, the paper's
asynchronous-model assumptions hold for free: TCP gives reliable
non-FIFO-across-connections delivery and the OS scheduler supplies the
(unbounded, adversarial-enough) delays.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.exec.metrics import MetricsCollector
from repro.exec.oplog import OpLog
from repro.registers.base import OperationKind, OperationRecord
from repro.sim.network import NetworkStats
from repro.sim.tracing import Tracer
from repro.transport.base import TransportClosedError
from repro.transport.codec import CodecError
from repro.transport.codec_binary import (
    CODEC_PREFERENCE,
    WireCodec,
    offered_codecs,
    schema_signature,
    select_codec,
)
from repro.transport.framing import (
    FLUSH_DEADLINE,
    BatchWriter,
    FrameDecoder,
    FramingError,
    TransportStats,
    read_frame,
    read_frame_raw,
    write_frame,
)

#: Seconds allowed for cluster boot (spawn + port discovery + peer wiring).
STARTUP_TIMEOUT = 30.0

#: Floor for the completion deadline of a whole run.
MIN_RUN_TIMEOUT = 30.0

#: Socket read-chunk size: one ``read()`` returns up to this many bytes, and
#: the frame decoder pulls every whole frame out of the chunk — many frames
#: per syscall on a busy connection (counted as one inbound batch).
READ_CHUNK = 64 * 1024


# ------------------------------------------------------------------ wall clock


class WallClock:
    """The live backend's :class:`~repro.transport.base.Clock`: loop time.

    ``now`` is the asyncio event loop's monotonic time, rebased to 0 at
    construction so run timestamps read like elapsed seconds.  Timers map
    onto ``call_at``/``call_later``.  The tracer is present (protocol code
    records invocations through it) but disabled — there is no virtual
    event log to correlate against.
    """

    def __init__(
        self, loop: Optional[asyncio.AbstractEventLoop] = None, epoch: Optional[float] = None
    ) -> None:
        self._loop = loop if loop is not None else asyncio.get_event_loop()
        #: Loop-time instant that reads as 0.  Loadgen workers pass a shared
        #: parent epoch so timestamps are comparable across processes
        #: (CLOCK_MONOTONIC is system-wide on Linux).
        self._epoch = self._loop.time() if epoch is None else epoch
        self.tracer = Tracer(enabled=False)

    @property
    def now(self) -> float:
        """Seconds since this clock's epoch (monotonic)."""
        return self._loop.time() - self._epoch

    def schedule_at(self, at: float, action: Callable[[], None], label: str = "") -> Any:
        """Run ``action`` at clock time ``at``; returns a cancellable handle."""
        return self._loop.call_at(self._epoch + at, action)

    def schedule_after(self, delay: float, action: Callable[[], None], label: str = "") -> Any:
        """Run ``action`` after ``delay`` seconds; returns a cancellable handle."""
        return self._loop.call_later(delay, action)

    def cancel(self, handle: Any) -> None:
        """Cancel a pending timer (idempotent)."""
        handle.cancel()

    @property
    def pending_events(self) -> int:
        """Always 0 — the wall clock does not own the event queue."""
        return 0

    def run_until(self, predicate: Callable[[], bool], limit: Any = None) -> bool:
        raise RuntimeError(
            "the wall clock cannot drive execution synchronously; "
            "live runs are driven by asyncio (see repro.transport.live)"
        )


# -------------------------------------------------------------- connections


def _set_nodelay(writer: asyncio.StreamWriter) -> None:
    """Disable Nagle on a live socket.

    The protocol is request/response chatter in both directions; Nagle plus
    delayed ACKs turns every sequential hop into a ~10–40 ms stall on
    loopback.  The :class:`~repro.transport.framing.BatchWriter` already
    coalesces writes into one syscall per flush, which is the congestion
    behaviour Nagle exists to approximate — so the kernel-side delay buys
    nothing and costs milliseconds per hop.
    """
    import socket

    sock = writer.get_extra_info("socket")
    if sock is not None:
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - non-TCP or torn socket
            pass


class Connection:
    """One live socket with its negotiated codec, batcher and counters."""

    __slots__ = ("reader", "writer", "codec", "stats", "batch", "label")

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        codec: WireCodec,
        label: str,
        batching: bool = True,
        flush_delay: float = FLUSH_DEADLINE,
    ) -> None:
        if batching:
            # The fast path owns its coalescing (one write per flush), so
            # Nagle only adds hop latency.  The baseline mode keeps default
            # socket options — PR 8's exact wire behaviour, for honest A/B.
            _set_nodelay(writer)
        self.reader = reader
        self.writer = writer
        self.codec = codec
        self.stats = TransportStats()
        self.batch = BatchWriter(
            writer, stats=self.stats, flush_delay=flush_delay, batching=batching
        ).start()
        self.label = label

    def send(self, payload: Dict[str, Any]) -> None:
        """Encode and enqueue one frame (coalesced into the next flush)."""
        self.batch.send(self.codec.encode(payload))

    async def read_direct(self) -> Optional[Dict[str, Any]]:
        """Read one frame outside the chunked loop (handshake-phase only)."""
        body = await read_frame_raw(self.reader)
        if body is None:
            return None
        return self.codec.decode(body)

    def snapshot(self) -> Dict[str, Any]:
        return {"label": self.label, "codec": self.codec.name, **self.stats.as_dict()}

    async def aclose(self) -> None:
        await self.batch.aclose()
        self.writer.close()


# ------------------------------------------------------------- replica server


class LiveKeyNet:
    """Per-key :class:`~repro.transport.base.Transport` view on one replica.

    The register process for one key on one server sends through this
    object; sends become peer frames routed by the server's connection
    pool.  Membership is the full static replica set, message accounting
    lands in the server-wide shared :class:`NetworkStats` (mirroring how
    simulated subnets bill to their parent network).
    """

    def __init__(self, server: "_ReplicaServer", key: Any) -> None:
        self.server = server
        self.key = key
        self.name = f"live:{key}"
        self.closed = False
        self.stats = server.stats
        self.process: Any = None

    @property
    def process_ids(self) -> List[int]:
        return list(range(self.server.n))

    def register(self, process: Any) -> None:
        self.process = process

    def send(self, src: int, dst: int, message: Any) -> None:
        if self.closed:
            raise TransportClosedError(f"send p{src}->p{dst} on closed live net {self.name!r}")
        if src == dst:
            raise ValueError(f"process p{src} attempted to send a message to itself")
        self.stats.record_send(src, message)
        self.server.send_peer(
            dst,
            {"kind": "msg", "key": self.key, "src": src, "dst": dst, "msg": message},
        )

    def broadcast(self, src: int, message_factory: Callable[[int], Any]) -> None:
        for dst in self.process_ids:
            if dst != src:
                self.send(src, dst, message_factory(dst))

    def close(self) -> None:
        self.closed = True


class _KeyRuntime:
    """One key's register process on one replica, plus its invoke FIFO."""

    __slots__ = ("net", "process", "pending")

    def __init__(self, net: LiveKeyNet, process: Any) -> None:
        self.net = net
        self.process = process
        #: Queued client invokes: (op_id, kind, value, reply connection).
        self.pending: deque = deque()


class _ReplicaServer:
    """State of one replica server process (runs inside ``replica_main``)."""

    def __init__(
        self,
        replica_id: int,
        n: int,
        algorithm_name: str,
        initial_value: Any,
        codecs: Tuple[str, ...] = CODEC_PREFERENCE,
        batching: bool = True,
    ) -> None:
        from repro.registers.registry import get_algorithm

        self.replica_id = replica_id
        self.n = n
        self.algorithm = get_algorithm(algorithm_name)
        self.initial_value = initial_value
        self.codecs = tuple(codecs) if "json" in codecs else tuple(codecs) + ("json",)
        self.batching = batching
        self.clock = WallClock(asyncio.get_running_loop())
        self.stats = NetworkStats()
        self.keys: Dict[Any, _KeyRuntime] = {}
        self.peer_ports: Dict[int, int] = {}
        self.peers_known = asyncio.Event()
        self.shutdown = asyncio.Event()
        self._peer_queues: Dict[int, asyncio.Queue] = {}
        self._peer_conns: Dict[int, Connection] = {}
        self._accepted: List[Connection] = []
        self._tasks: List[asyncio.Task] = []

    # ------------------------------------------------------------- registers

    def runtime_for(self, key: Any) -> _KeyRuntime:
        runtime = self.keys.get(key)
        if runtime is None:
            net = LiveKeyNet(self, key)
            process = self.algorithm.process_factory(
                pid=self.replica_id,
                simulator=self.clock,
                network=net,
                writer_pid=0,
                t=(self.n - 1) // 2,
                initial_value=self.initial_value,
            )
            process.finish_setup()
            runtime = self.keys[key] = _KeyRuntime(net, process)
        return runtime

    # ---------------------------------------------------------- peer sending

    def send_peer(self, dst: int, payload: Dict[str, Any]) -> None:
        conn = self._peer_conns.get(dst)
        if conn is not None:
            # Steady state: straight into the connection's BatchWriter — no
            # queue hop, no writer-task wakeup per message.
            conn.send(payload)
            return
        queue = self._peer_queues.get(dst)
        if queue is None:
            queue = self._peer_queues[dst] = asyncio.Queue()
            self._tasks.append(asyncio.ensure_future(self._peer_writer(dst, queue)))
        queue.put_nowait(payload)

    async def _peer_writer(self, dst: int, queue: asyncio.Queue) -> None:
        """Dial ``dst`` once the port map is known, drain the backlog, hand off.

        Messages sent before the link is up buffer in ``queue``; once the
        handshake finishes this task drains the backlog in FIFO order and
        then publishes the connection for :meth:`send_peer`'s direct path.
        The drain loop is purely synchronous, so no new message can slip in
        between the final ``queue.empty()`` check and the publish.
        """
        await self.peers_known.wait()
        reader, writer = await asyncio.open_connection("127.0.0.1", self.peer_ports[dst])
        write_frame(
            writer,
            {
                "kind": "hello",
                "role": "peer",
                "src": self.replica_id,
                "codecs": list(self.codecs),
                "sig": schema_signature(),
            },
        )
        await writer.drain()
        ack = await read_frame(reader)
        if not ack or ack.get("kind") != "hello_ack":
            writer.close()
            return
        conn = Connection(
            reader,
            writer,
            select_codec([ack.get("codec", "json")], schema_signature(), self.codecs),
            label=f"peer->{dst}",
            batching=self.batching,
        )
        try:
            # Drain the pre-handshake backlog, then publish the connection:
            # both steps run in one synchronous stretch, so FIFO order is
            # preserved across the handoff to the direct path.
            while not queue.empty():
                conn.send(queue.get_nowait())
            self._peer_conns[dst] = conn
        except (asyncio.CancelledError, ConnectionError):
            writer.close()
            raise

    # ------------------------------------------------------------ connections

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn: Optional[Connection] = None
        if self.batching:
            _set_nodelay(writer)
        try:
            hello = await read_frame(reader)
            if hello is None or hello.get("kind") != "hello":
                return
            codec = select_codec(hello.get("codecs"), hello.get("sig"), self.codecs)
            write_frame(
                writer,
                {"kind": "hello_ack", "codec": codec.name, "replica": self.replica_id},
            )
            await writer.drain()
            if hello.get("role") == "peer":
                label = f"peer<-{hello.get('src', '?')}"
            else:
                label = "client"
            conn = Connection(reader, writer, codec, label, batching=self.batching)
            self._accepted.append(conn)
            if hello.get("role") == "peer":
                await self._serve_peer(conn)
            else:
                await self._serve_client(conn)
        except (FramingError, CodecError, ConnectionError):
            # A torn connection fails the affected ops on the client side
            # (deadline); the server just drops the stream.
            pass
        except asyncio.CancelledError:
            # Process teardown: asyncio.run cancels every task, and Python
            # 3.11's streams callback logs a handler task that ends
            # *cancelled* as a spurious "Exception in callback".  The cancel
            # still stops the handler — just end it normally.
            pass
        finally:
            if conn is not None:
                try:
                    await conn.batch.aclose()
                except asyncio.CancelledError:
                    pass
            writer.close()

    async def _serve_peer(self, conn: Connection) -> None:
        decoder = FrameDecoder(raw=True)
        while True:
            chunk = await conn.reader.read(READ_CHUNK)
            if not chunk:
                return
            conn.stats.note_chunk_in(len(chunk))
            for body in decoder.feed(chunk):
                conn.stats.frames_in += 1
                frame = conn.codec.decode(body)
                runtime = self.runtime_for(frame["key"])
                runtime.process.deliver(frame["src"], frame["msg"])
                self._pump(runtime)

    async def _serve_client(self, conn: Connection) -> None:
        decoder = FrameDecoder(raw=True)
        while True:
            chunk = await conn.reader.read(READ_CHUNK)
            if not chunk:
                return
            conn.stats.note_chunk_in(len(chunk))
            for body in decoder.feed(chunk):
                conn.stats.frames_in += 1
                frame = conn.codec.decode(body)
                kind = frame.get("kind")
                if kind == "invoke":
                    runtime = self.runtime_for(frame["key"])
                    runtime.pending.append(
                        (frame["op_id"], frame["op"], frame.get("value"), conn)
                    )
                    self._pump(runtime)
                elif kind == "peers":
                    self.peer_ports = {
                        int(pid): port for pid, port in frame["ports"].items()
                    }
                    self.peers_known.set()
                    conn.send({"kind": "peers_ok", "replica": self.replica_id})
                elif kind == "stats":
                    conn.send(self._stats_reply())
                elif kind == "shutdown":
                    self.close()
                    conn.send({"kind": "bye", "replica": self.replica_id})
                    await conn.batch.aclose()
                    self.shutdown.set()
                    return

    def _stats_reply(self) -> Dict[str, Any]:
        return {
            "kind": "stats_reply",
            "replica": self.replica_id,
            "messages_sent": self.stats.messages_sent,
            "keys": len(self.keys),
            "transport": self.transport_snapshot(),
        }

    def transport_snapshot(self) -> List[Dict[str, Any]]:
        """Per-connection byte/frame/batch counters, inbound and outbound."""
        conns = self._accepted + [
            self._peer_conns[dst] for dst in sorted(self._peer_conns)
        ]
        return [conn.snapshot() for conn in conns]

    # ---------------------------------------------------------------- invokes

    def _pump(self, runtime: _KeyRuntime) -> None:
        """Issue queued invokes while the (sequential) register process is free."""
        process = runtime.process
        while runtime.pending:
            current = process.current_operation
            if current is not None and not current.completed:
                return  # busy; the completion callback pumps again
            op_id, op, value, reply_conn = runtime.pending.popleft()

            def finish(record: OperationRecord, op_id: int = op_id, c=reply_conn) -> None:
                c.send(
                    {"kind": "result", "op_id": op_id, "ok": True, "value": record.result}
                )

            try:
                if op == "write":
                    process.invoke_write(value, finish)
                elif op == "read":
                    process.invoke_read(finish)
                else:
                    # Consensus-object kinds (cas/tas/incr).  JSON decoding
                    # turns tuple arguments into lists; the SMR objects
                    # unpack positionally, so the shapes agree.
                    process.invoke_operation(OperationKind(op), value, finish)
            except Exception as exc:  # wrong-writer routing, crashed process, ...
                reply_conn.send(
                    {"kind": "result", "op_id": op_id, "ok": False, "error": str(exc)}
                )

    # --------------------------------------------------------------- teardown

    def close(self) -> None:
        for runtime in self.keys.values():
            runtime.net.close()
        for task in self._tasks:
            task.cancel()


def replica_main(
    replica_id: int,
    n: int,
    algorithm_name: str,
    initial_value: Any,
    port_queue: Any,
    codecs: Tuple[str, ...] = CODEC_PREFERENCE,
    batching: bool = True,
) -> None:
    """Entry point of one replica server process (multiprocessing spawn)."""
    import os

    profile_dir = os.environ.get("REPRO_LIVE_PROFILE")
    if profile_dir:  # pragma: no cover - diagnostics only
        import cProfile

        prof = cProfile.Profile()
        prof.enable()
        try:
            asyncio.run(
                _replica_async_main(
                    replica_id, n, algorithm_name, initial_value, port_queue, codecs, batching
                )
            )
        finally:
            prof.disable()
            prof.dump_stats(os.path.join(profile_dir, f"replica{replica_id}.prof"))
        return
    asyncio.run(
        _replica_async_main(
            replica_id, n, algorithm_name, initial_value, port_queue, codecs, batching
        )
    )


async def _replica_async_main(
    replica_id: int,
    n: int,
    algorithm_name: str,
    initial_value: Any,
    port_queue: Any,
    codecs: Tuple[str, ...] = CODEC_PREFERENCE,
    batching: bool = True,
) -> None:
    server = _ReplicaServer(replica_id, n, algorithm_name, initial_value, codecs, batching)
    tcp_server = await asyncio.start_server(server.handle_connection, "127.0.0.1", 0)
    port = tcp_server.sockets[0].getsockname()[1]
    port_queue.put((replica_id, port))
    async with tcp_server:
        await server.shutdown.wait()
        # Give in-flight result frames a beat to flush before the loop dies.
        await asyncio.sleep(0.05)


# --------------------------------------------------------------- cluster boot


class LiveCluster:
    """Boot/teardown of one loopback replica cluster (spawned processes).

    Shared by the single-client runner (:func:`run_live_workload`) and the
    multi-process load generator (:mod:`repro.transport.loadgen`), which
    boots one cluster here in the parent and fans client workers out at it.
    """

    def __init__(
        self,
        n: int,
        algorithm: str,
        initial_value: Any,
        server_codecs: Tuple[str, ...] = CODEC_PREFERENCE,
        batching: bool = True,
    ) -> None:
        self.n = n
        self.algorithm = algorithm
        self.initial_value = initial_value
        self.server_codecs = tuple(server_codecs)
        self.batching = batching
        self.servers: List[Any] = []
        self.ports: Dict[int, int] = {}

    async def start(self) -> Dict[int, int]:
        """Spawn the replica processes and collect their listen ports."""
        import multiprocessing

        ctx = multiprocessing.get_context("spawn")
        port_queue = ctx.Queue()
        self.servers = [
            ctx.Process(
                target=replica_main,
                args=(
                    replica,
                    self.n,
                    self.algorithm,
                    self.initial_value,
                    port_queue,
                    self.server_codecs,
                    self.batching,
                ),
                daemon=True,
            )
            for replica in range(self.n)
        ]
        for server in self.servers:
            server.start()
        loop = asyncio.get_running_loop()
        boot_deadline = time.monotonic() + STARTUP_TIMEOUT
        while len(self.ports) < self.n:
            budget = boot_deadline - time.monotonic()
            if budget <= 0:
                raise RuntimeError(
                    f"cluster boot timed out; got ports for {sorted(self.ports)}"
                )
            try:
                # Short poll chunks so a replica that died on startup fails
                # the boot in well under a second, not after the full budget.
                replica, port = await loop.run_in_executor(
                    None, port_queue.get, True, min(0.25, budget)
                )
            except Exception:  # queue.Empty on poll timeout
                dead = [
                    i
                    for i, server in enumerate(self.servers)
                    if server.exitcode is not None and i not in self.ports
                ]
                if dead:
                    raise RuntimeError(
                        f"replica server(s) {dead} died during cluster boot "
                        f"(exit codes {[self.servers[i].exitcode for i in dead]}). "
                        "Live clusters use multiprocessing spawn: the parent's "
                        "__main__ must be importable (run from a script file, "
                        "the CLI or pytest — not a stdin/REPL session) and the "
                        "algorithm name must exist in the registry."
                    ) from None
                continue
            self.ports[replica] = port
        return dict(self.ports)

    async def stop(self, budget: float = 5.0) -> None:
        """Join the replica processes, escalating to terminate past ``budget``."""
        loop = asyncio.get_running_loop()
        deadline = time.monotonic() + budget
        for server in self.servers:
            timeout = max(0.1, deadline - time.monotonic())
            await loop.run_in_executor(None, server.join, timeout)
            if server.is_alive():
                server.terminate()
                await loop.run_in_executor(None, server.join, 1.0)


# ------------------------------------------------------------- client runner


@dataclass
class LiveKVResult:
    """Everything a live keyed-store run produced.

    Mirrors :class:`~repro.workloads.kv.KVWorkloadResult` where it can, but
    there is no in-process :class:`KVStore` — the run's record *is* the
    columnar :class:`OpLog` of client-observed timestamps, which is exactly
    what the history/checking plane consumes.
    """

    spec: Any
    oplog: OpLog
    wall_seconds: float
    submitted: int
    completed: int
    failed: int
    #: Wall-clock metrics snapshot (p50/p95/p99 in seconds, wall throughput,
    #: and a ``transport`` section with per-connection byte/frame/batch
    #: counters plus derived bytes/op and frames-per-flush).
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: Sum of protocol messages sent across all replica servers.
    messages_total: int = 0
    finished_cleanly: bool = True

    def histories(self) -> Dict[Any, Any]:
        """Per-key client-observed histories (columnar, checker-ready)."""
        return self.oplog.per_key_histories(self.spec.initial_value)

    def check_linearizability(
        self, swmr_fast_path: bool = True, max_states: Optional[int] = None
    ):
        """Run the unmodified per-key Wing–Gong checker on the live histories."""
        from repro.verification.linearizability import check_histories_per_key

        return check_histories_per_key(
            self.histories(),
            swmr_fast_path=swmr_fast_path,
            max_states=max_states,
            spec=self.spec.store_config().effective_spec(),
        )

    def wall_throughput(self) -> float:
        """Completed operations per wall-clock second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.completed / self.wall_seconds


class _PendingOp:
    """Client-side bookkeeping for one in-flight live operation."""

    __slots__ = ("row", "record", "future")

    def __init__(self, row: int, record: OperationRecord, future: "asyncio.Future") -> None:
        self.row = row
        self.record = record
        self.future = future


def record_reply(
    pending: _PendingOp,
    frame: Optional[Dict[str, Any]],
    now: float,
    oplog: OpLog,
    metrics: MetricsCollector,
) -> Optional[str]:
    """Record one op's result frame (``None``: no reply); returns the failure reason."""
    if frame is not None and frame.get("ok"):
        record = pending.record
        record.completed = True
        record.result = frame.get("value")
        record.responded_at = now
        oplog.note_completed(pending.row, record)
        metrics.note_completed(record.kind, now - record.invoked_at, now)
        return None
    reason = (frame or {}).get("error", "no response before deadline")
    oplog.note_failed(pending.row, reason)
    metrics.note_failed()
    return reason


def settle_on_reply(
    pending: _PendingOp, settle: Callable[[_PendingOp, Optional[Dict[str, Any]]], Any]
) -> None:
    """Call ``settle(pending, frame)`` from the future's done-callback.

    The reply is stamped the moment the reader hands it over, not when the
    driving loop next looks at it, so latencies are real and the real-time
    order between operations survives into the history.
    """

    def on_done(future: "asyncio.Future") -> None:
        if not future.cancelled():
            settle(pending, future.result())

    pending.future.add_done_callback(on_done)


async def settle_unanswered(
    pendings: List[_PendingOp],
    settle: Callable[[_PendingOp, Optional[Dict[str, Any]]], Any],
    timeout: float,
) -> None:
    """Wait up to ``timeout`` seconds for replies; settle the rest as unanswered.

    Waiting on *every* future (answered ones included) also flushes the
    done-callbacks :func:`settle_on_reply` queued, so every answered
    operation is settled by the time this returns.
    """
    if not pendings:
        return
    await asyncio.wait([pending.future for pending in pendings], timeout=max(0.001, timeout))
    for pending in pendings:
        if not pending.future.done():
            pending.future.cancel()
            settle(pending, None)


class LiveClient:
    """One connection per replica plus op-id dispatch of result frames."""

    def __init__(self, codec: str = "binary", batching: bool = True) -> None:
        self.codec_preference = codec
        self.batching = batching
        self.conns: Dict[int, Connection] = {}
        self.pending: Dict[int, _PendingOp] = {}
        self.stats_replies: Dict[int, Dict[str, Any]] = {}
        self._reader_tasks: List[asyncio.Task] = []

    async def connect(self, ports: Dict[int, int]) -> None:
        offered = list(offered_codecs(self.codec_preference))
        for replica, port in sorted(ports.items()):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            if self.batching:
                _set_nodelay(writer)
            write_frame(
                writer,
                {
                    "kind": "hello",
                    "role": "client",
                    "codecs": offered,
                    "sig": schema_signature(),
                },
            )
            await writer.drain()
            ack = await read_frame(reader)
            if not ack or ack.get("kind") != "hello_ack":
                raise RuntimeError(f"replica {replica} failed the codec handshake: {ack}")
            codec = select_codec([ack.get("codec", "json")], schema_signature(), ("binary", "json"))
            self.conns[replica] = Connection(
                reader, writer, codec, f"->r{replica}", batching=self.batching
            )

    @property
    def codec_name(self) -> str:
        """The negotiated codec (same on every connection of this client)."""
        names = {conn.codec.name for conn in self.conns.values()}
        return names.pop() if len(names) == 1 else "/".join(sorted(names))

    async def wire_peers(self, ports: Dict[int, int]) -> None:
        """Distribute the port map; every replica must ack before ops flow."""
        payload = {"kind": "peers", "ports": {str(pid): port for pid, port in ports.items()}}
        for replica, conn in self.conns.items():
            conn.send(payload)
            ack = await conn.read_direct()
            if not ack or ack.get("kind") != "peers_ok":
                raise RuntimeError(f"replica {replica} failed the peers handshake: {ack}")

    def start_readers(self) -> None:
        for replica, conn in self.conns.items():
            self._reader_tasks.append(
                asyncio.ensure_future(self._read_loop(replica, conn))
            )

    async def _read_loop(self, replica: int, conn: Connection) -> None:
        decoder = FrameDecoder(raw=True)
        try:
            while True:
                chunk = await conn.reader.read(READ_CHUNK)
                if not chunk:
                    return
                conn.stats.note_chunk_in(len(chunk))
                for body in decoder.feed(chunk):
                    conn.stats.frames_in += 1
                    frame = conn.codec.decode(body)
                    kind = frame.get("kind")
                    if kind == "result":
                        op = self.pending.pop(frame["op_id"], None)
                        if op is not None and not op.future.done():
                            op.future.set_result(frame)
                    elif kind == "stats_reply":
                        self.stats_replies[replica] = frame
        except (FramingError, CodecError, ConnectionError):
            return

    async def drain_stats(self, timeout: float = 5.0) -> int:
        """Ask every replica for its counters; returns total protocol messages."""
        for conn in self.conns.values():
            conn.send({"kind": "stats"})
        deadline = time.monotonic() + timeout
        while len(self.stats_replies) < len(self.conns) and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        return sum(
            reply.get("messages_sent", 0) for reply in self.stats_replies.values()
        )

    def transport_summary(self, completed: int) -> Dict[str, Any]:
        """Metrics-snapshot section: per-connection counters + derived rates."""
        client_rows = [
            self.conns[replica].snapshot() for replica in sorted(self.conns)
        ]
        replica_rows: Dict[str, List[Dict[str, Any]]] = {
            str(replica): reply.get("transport", [])
            for replica, reply in sorted(self.stats_replies.items())
        }
        all_rows = client_rows + [row for rows in replica_rows.values() for row in rows]
        frames_out = sum(row["frames_out"] for row in all_rows)
        batches_out = sum(row["batches_out"] for row in all_rows)
        client_bytes = sum(row["bytes_in"] + row["bytes_out"] for row in client_rows)
        return {
            "codec": self.codec_name,
            "batching": self.batching,
            "client_connections": client_rows,
            "replica_connections": replica_rows,
            "frames_per_flush": (frames_out / batches_out) if batches_out else None,
            "client_bytes_per_op": (client_bytes / completed) if completed else None,
        }

    async def close(self, send_shutdown: bool = True) -> None:
        for conn in self.conns.values():
            if send_shutdown:
                try:
                    conn.send({"kind": "shutdown"})
                except (ConnectionError, FramingError):
                    pass
        for conn in self.conns.values():
            try:
                await conn.batch.aclose()
            except ConnectionError:
                pass
        await asyncio.sleep(0.1)  # let servers ack/flush before the sockets die
        for task in self._reader_tasks:
            task.cancel()
        for conn in self.conns.values():
            conn.writer.close()


#: Back-compat alias (pre-PR 9 name).
_LiveClient = LiveClient


def _live_arrival_offsets(spec: Any) -> List[float]:
    """Seeded arrival offsets in *seconds* (rate = ops/second on the wall)."""
    from repro.workloads.kv import generate_kv_arrivals

    return generate_kv_arrivals(spec)


def run_live_workload(
    spec: Any, server_codecs: Optional[Tuple[str, ...]] = None
) -> LiveKVResult:
    """Run ``spec`` against a freshly launched loopback replica cluster.

    The operation stream is the spec's seeded stream — identical, op for
    op, to what a simulated run of the same spec executes.  Open-loop specs
    fire at their seeded arrival times with ``arrival_rate`` read as
    operations per wall-clock *second*; closed-loop specs submit in batches
    of ``batch_size`` and await each batch.

    ``spec.codec`` picks the client's wire-codec preference (``"binary"``
    negotiates the fast path, ``"json"`` forces the PR 8 wire);
    ``server_codecs`` restricts what the replica servers accept (tests use
    ``("json",)`` to exercise the negotiation fallback).
    """
    _validate_live_spec(spec)
    return asyncio.run(_run_live_async(spec, server_codecs))


def _validate_live_spec(spec: Any) -> None:
    if spec.crash_points:
        raise ValueError(
            "crash injection is simulated-only; live runs cannot schedule crash_points"
        )
    if spec.fault_plan is not None:
        raise ValueError(
            "fault plans (link policies) are simulated-only; live runs take the wire as-is"
        )
    if spec.replication < 2:
        raise ValueError("a live register cluster needs at least 2 replicas")


async def _run_live_async(
    spec: Any, server_codecs: Optional[Tuple[str, ...]] = None
) -> LiveKVResult:
    from repro.workloads.kv import iter_kv_operations

    n = spec.replication
    batching = getattr(spec, "write_batching", True)
    if server_codecs is None:
        # A JSON-preference spec is the PR 8 baseline: the *whole* cluster
        # (replica-to-replica peer links included) speaks JSON, not just the
        # client connections.
        server_codecs = ("json",) if getattr(spec, "codec", "binary") == "json" else CODEC_PREFERENCE
    cluster = LiveCluster(
        n,
        spec.algorithm,
        spec.initial_value,
        server_codecs=server_codecs,
        batching=batching,
    )
    started = time.perf_counter()
    loop = asyncio.get_running_loop()
    client = LiveClient(codec=getattr(spec, "codec", "binary"), batching=batching)
    oplog = OpLog()
    metrics = MetricsCollector(wall_clock=True)
    clean = True
    try:
        ports = await cluster.start()
        await client.connect(ports)
        await client.wire_peers(ports)
        client.start_readers()

        clock = WallClock(loop)
        proc_op_counters = [itertools.count() for _ in range(n)]
        read_rr: Dict[Any, int] = {}
        op_ids = itertools.count()

        def fire(kind: OperationKind, key: Any, value: Any) -> _PendingOp:
            if kind is OperationKind.WRITE:
                replica = 0  # the writer replica, as the simulated store routes
            else:
                turn = read_rr.get(key, 0)
                read_rr[key] = turn + 1
                replica = turn % n
            op_id = next(op_ids)
            now = clock.now
            row = oplog.note_created(kind, key, value)
            oplog.note_submitted(row, now)
            record = OperationRecord(
                op_id=next(proc_op_counters[replica]),
                pid=replica,
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
                    "op": kind.value,
                    "key": key,
                    "value": value,
                }
            )
            return pending

        def settle(pending: _PendingOp, frame: Optional[Dict[str, Any]]) -> None:
            nonlocal clean
            if record_reply(pending, frame, clock.now, oplog, metrics) is not None:
                clean = False

        if spec.open_loop:
            offsets = _live_arrival_offsets(spec)
            run_budget = max(MIN_RUN_TIMEOUT, (offsets[-1] if offsets else 0.0) + MIN_RUN_TIMEOUT)
            in_flight: List[_PendingOp] = []
            t0 = clock.now
            for offset, scripted in zip(offsets, iter_kv_operations(spec)):
                delay = (t0 + offset) - clock.now
                if delay > 0:
                    await asyncio.sleep(delay)
                in_flight.append(fire(scripted.kind, scripted.key, scripted.value))
            await settle_unanswered(in_flight, settle, t0 + run_budget - clock.now)
        else:
            stream = iter_kv_operations(spec)
            while True:
                batch = list(itertools.islice(stream, spec.batch_size))
                if not batch:
                    break
                fired = [fire(op.kind, op.key, op.value) for op in batch]
                await settle_unanswered(fired, settle, MIN_RUN_TIMEOUT)
                if not all(p.record.completed for p in fired):
                    break  # a wedged batch: fail fast, do not pile more on

        # Drain message totals + transport counters from every replica.
        messages_total = await client.drain_stats()
        transport = client.transport_summary(metrics.completed)
    finally:
        try:
            await client.close(send_shutdown=True)
        finally:
            await cluster.stop()

    wall_seconds = time.perf_counter() - started
    completed = metrics.completed
    failed = metrics.failed
    snapshot = metrics.snapshot()
    # The client-side collector has no attached network; the message bill
    # comes from the replica servers' drained NetworkStats counters.
    snapshot["messages"]["total"] = messages_total
    snapshot["messages"]["per_completed_op"] = (
        (messages_total / completed) if completed else None
    )
    snapshot["transport"] = transport
    return LiveKVResult(
        spec=spec,
        oplog=oplog,
        wall_seconds=wall_seconds,
        submitted=len(oplog),
        completed=completed,
        failed=failed,
        metrics=snapshot,
        messages_total=messages_total,
        finished_cleanly=clean and failed == 0,
    )
