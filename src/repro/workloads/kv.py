"""Keyed workloads for the sharded multi-key store.

The single-register workloads (:mod:`repro.workloads.spec`) drive one
register with a writer and readers; a *keyed* workload drives a
:class:`~repro.store.store.KVStore` with a stream of ``get``/``put``
operations over many keys.  The spec captures the key population, the
operation mix, the access-skew distribution (uniform or Zipfian) and the
store geometry, all derived from one seed — same spec, same run, event for
event (the repository-wide determinism contract).

Uniqueness of written values per key (``"k0003=v7"`` is write number 7 to key
``k0003``) is guaranteed by construction, so the fast per-key SWMR checker
can map every read back to the write it observed.
"""

from __future__ import annotations

import bisect
import itertools
import time
from dataclasses import dataclass, field, replace
from typing import Any, Iterator, List, Optional, Tuple

from repro.exec.clients import ARRIVAL_PROCESSES, OpenLoopClient, iter_arrival_times
from repro.exec.target import OpRequest
from repro.faults.plan import FaultPlan
from repro.registers.base import OperationKind
from repro.sim.delays import DelayModel, FixedDelay
from repro.sim.rng import make_rng
from repro.store.store import KVStore, StoreAtomicityReport, StoreConfig, StoreOp
from repro.transport.base import validate_transport

#: Supported key-access distributions.
DISTRIBUTIONS = ("uniform", "zipfian")

#: Operation kinds an ``op_mix`` may mention (consensus-object kinds included).
MIX_KINDS = ("read", "write", "cas", "tas", "incr")


@dataclass(frozen=True)
class KVOp:
    """One scripted store operation (before submission)."""

    index: int
    kind: OperationKind
    key: str
    value: Optional[str] = None


@dataclass(frozen=True)
class CrashPoint:
    """A scheduled server crash: replica ``replica`` of ``shard`` at ``at_time``."""

    at_time: float
    shard: int
    replica: int
    allow_writer: bool = False


@dataclass(frozen=True)
class KVWorkloadSpec:
    """Parameters of one keyed store run.

    Attributes
    ----------
    num_keys / num_ops:
        Key population size and total operations issued.
    read_fraction:
        Probability each operation is a ``get`` (the rest are ``put``).
    distribution / zipf_s:
        Key-access skew: ``"uniform"``, or ``"zipfian"`` with exponent
        ``zipf_s`` (hot-key ranks are a seeded permutation of the key space,
        so hotness is decoupled from placement).
    algorithm / num_shards / replication / placement_salt:
        The store geometry (see :class:`~repro.store.store.StoreConfig`).
    batch_size:
        Operations submitted per :meth:`~repro.store.store.KVStore.drive`
        call (closed-loop driving only).  ``1`` reproduces the classic
        per-operation driving pattern; larger batches overlap independent
        operations in virtual time.
    arrival / arrival_rate:
        Traffic model.  ``"closed"`` (default) submits in batches as above.
        ``"poisson"`` / ``"uniform"`` switch to **open-loop** driving: the
        operation stream arrives at seeded arrival times with mean rate
        ``arrival_rate`` (operations per virtual-time unit), regardless of
        completions — offered load is decoupled from service rate, so
        overload shows up as queueing delay instead of client throttling.
    delay_model:
        Message-delay model (default ``FixedDelay(1.0)``).
    crash_points:
        Server crashes to schedule before the run starts.
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan` of link policies keyed by
        replica index (``0 .. replication - 1``), installed store-wide
        before the run (see :meth:`~repro.store.store.KVStore.install_fault_plan`).
        Store-level plans must not carry a crash schedule — use
        ``crash_points`` for server crashes.
    coalesce:
        Pack same-instant deliveries to one replica into a single heap event
        (on by default; see :class:`~repro.store.store.StoreConfig`).
    shard_algorithms:
        Optional per-shard register algorithms (one name per shard) for
        mixed-algorithm stores — the ``kv_mixed`` scenario.
    seed:
        Master seed for key choice, op mix, arrival times and think
        randomness.
    max_events:
        Per-process event-count safety valve (``None`` = auto: the simulator
        default, scaled up for runs large enough to legitimately exceed it).
    """

    num_keys: int = 16
    num_ops: int = 500
    read_fraction: float = 0.8
    #: Optional weighted operation mix ``((kind, weight), ...)`` over
    #: :data:`MIX_KINDS`.  ``None`` (default) keeps the classic two-kind
    #: read/write stream driven by ``read_fraction`` — byte-identical to
    #: every pre-existing spec.  When set, each operation's kind is drawn
    #: from the weighted mix instead and the consensus-object kinds become
    #: available: ``cas`` operations carry ``(expected, new)`` pairs chained
    #: through the generator's predicted per-key value (so contention, not
    #: the script, decides which swaps fail), ``incr`` carries a small
    #: seeded addend, ``tas`` carries no value.  Mixes must be
    #: type-consistent (don't combine ``incr`` with string-valued writes —
    #: the SMR object would add an int to a string).
    op_mix: Optional[Tuple[Tuple[str, float], ...]] = None
    distribution: str = "uniform"
    zipf_s: float = 1.2
    algorithm: str = "abd"
    num_shards: int = 4
    replication: int = 3
    placement_salt: int = 0
    batch_size: int = 64
    coalesce: bool = True
    shard_algorithms: Optional[Tuple[str, ...]] = None
    arrival: str = "closed"
    arrival_rate: float = 0.0
    delay_model: DelayModel = field(default_factory=lambda: FixedDelay(1.0))
    crash_points: Tuple[CrashPoint, ...] = ()
    fault_plan: Optional[FaultPlan] = None
    seed: int = 0
    initial_value: Any = "v0"
    max_virtual_time: float = 100_000.0
    max_events: Optional[int] = None
    #: Which backend executes the run: ``"sim"`` (virtual-time simulator,
    #: default — deterministic, supports faults/perturbation/coalescing) or
    #: ``"live"`` (asyncio TCP loopback cluster; wall-clock time, with
    #: ``arrival_rate`` read as operations per *second*).  The seeded
    #: operation stream is identical on both — only timing differs.
    transport: str = "sim"
    #: Live-transport wire codec preference: ``"binary"`` (default) negotiates
    #: the struct-packed fast path per connection, falling back to JSON when
    #: the server declines; ``"json"`` forces the PR 8 wire (the benchmark
    #: baseline).  Ignored by the simulator, which never serializes.
    codec: str = "binary"
    #: Live-transport write batching: coalesce concurrent sends into one
    #: ``write()`` per flush (default).  ``False`` restores one syscall per
    #: frame — the PR 8 behaviour, kept as the benchmark baseline.
    write_batching: bool = True

    def __post_init__(self) -> None:
        validate_transport(self.transport)
        if self.codec not in ("binary", "json"):
            raise ValueError(f"unknown wire codec {self.codec!r}; choose binary or json")
        if self.transport == "live":
            if self.crash_points:
                raise ValueError("crash_points are simulated-only; live runs cannot use them")
            if self.fault_plan is not None:
                raise ValueError("fault plans are simulated-only; live runs cannot use them")
        if self.num_keys < 1:
            raise ValueError("keyed workloads need at least one key")
        if self.num_ops < 0:
            raise ValueError("operation count must be non-negative")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError(f"read_fraction must be in [0, 1], got {self.read_fraction}")
        if self.op_mix is not None:
            if not self.op_mix:
                raise ValueError("op_mix must name at least one operation kind")
            for kind, weight in self.op_mix:
                if kind not in MIX_KINDS:
                    raise ValueError(
                        f"unknown op_mix kind {kind!r}; choose from {MIX_KINDS}"
                    )
                if weight <= 0:
                    raise ValueError(
                        f"op_mix weights must be positive, got {weight} for {kind!r}"
                    )
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(
                f"unknown distribution {self.distribution!r}; choose from {DISTRIBUTIONS}"
            )
        if self.zipf_s <= 0:
            raise ValueError(f"zipf_s must be positive, got {self.zipf_s}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.shard_algorithms is not None and len(self.shard_algorithms) != self.num_shards:
            raise ValueError(
                f"shard_algorithms has {len(self.shard_algorithms)} entries "
                f"for {self.num_shards} shards; provide exactly one per shard"
            )
        if self.arrival not in ("closed",) + ARRIVAL_PROCESSES:
            raise ValueError(
                f"unknown arrival model {self.arrival!r}; choose from "
                f"{('closed',) + ARRIVAL_PROCESSES}"
            )
        if self.arrival != "closed" and self.arrival_rate <= 0:
            raise ValueError(
                f"open-loop arrivals need a positive arrival_rate, got {self.arrival_rate}"
            )
        if self.fault_plan is not None:
            if self.fault_plan.crash_schedule is not None:
                raise ValueError(
                    "store-level fault plans carry link policies only; use "
                    "crash_points for server crashes"
                )
            self.fault_plan.validate(self.replication)

    @property
    def open_loop(self) -> bool:
        """True when this spec drives the store open-loop."""
        return self.arrival != "closed"

    # ------------------------------------------------------------ conveniences

    def keys(self) -> list[str]:
        """The key population (``k0000``, ``k0001``, ...)."""
        width = max(4, len(str(self.num_keys - 1)))
        return [f"k{index:0{width}d}" for index in range(self.num_keys)]

    def store_config(self) -> StoreConfig:
        """The :class:`StoreConfig` this spec deploys."""
        # Auto-scale the event-count safety valve: a quorum operation costs a
        # couple dozen events, so million-op runs legitimately exceed the
        # simulator's 5M default.  Only ever scale *up* — small runs keep the
        # default valve and its message-storm protection.
        max_events = self.max_events
        if max_events is None and self.num_ops > 100_000:
            max_events = 60 * self.num_ops
        return StoreConfig(
            transport=self.transport,
            algorithm=self.algorithm,
            num_shards=self.num_shards,
            replication=self.replication,
            placement_salt=self.placement_salt,
            delay_model=self.delay_model,
            initial_value=self.initial_value,
            max_virtual_time=self.max_virtual_time,
            coalesce=self.coalesce,
            shard_algorithms=self.shard_algorithms,
            max_events=max_events,
        )

    def with_(self, **changes: object) -> "KVWorkloadSpec":
        """Copy with fields replaced (sugar over :func:`dataclasses.replace`)."""
        return replace(self, **changes)


# ------------------------------------------------------------------ generator


def _zipfian_cum_weights(num_keys: int, s: float) -> list[float]:
    """Cumulative (unnormalised) Zipf weights: weight(rank r) = 1 / r^s."""
    total = 0.0
    cumulative: list[float] = []
    for rank in range(1, num_keys + 1):
        total += 1.0 / (rank**s)
        cumulative.append(total)
    return cumulative


def iter_kv_operations(spec: KVWorkloadSpec) -> Iterator[KVOp]:
    """Lazily yield the spec's operation stream (seeded, reproducible).

    The stream is drawn one operation at a time from a fresh RNG, in exactly
    the order :func:`generate_kv_operations` materializes — runners that
    stream (the open-loop client, the closed-loop batch loop) never hold a
    million scripted operations in memory at once.
    """
    rng = make_rng(
        spec.seed,
        "kv-workload",
        spec.num_keys,
        spec.num_ops,
        spec.distribution,
        spec.read_fraction,
    )
    keys = spec.keys()
    # Hot-key ranks are a seeded permutation of the key space so that skew is
    # not systematically correlated with key ids (and hence with placement).
    ranked = list(keys)
    rng.shuffle(ranked)
    if spec.distribution == "zipfian":
        cumulative = _zipfian_cum_weights(spec.num_keys, spec.zipf_s)
        total = cumulative[-1]

        def sample_key() -> str:
            return ranked[bisect.bisect_left(cumulative, rng.random() * total)]

    else:

        def sample_key() -> str:
            return ranked[rng.randrange(spec.num_keys)]

    write_counters: dict[str, int] = {}
    if spec.op_mix is None:
        # The classic two-kind stream — draw-for-draw what every earlier
        # release generated (golden histories depend on it).
        for index in range(spec.num_ops):
            key = sample_key()
            if rng.random() < spec.read_fraction:
                yield KVOp(index=index, kind=OperationKind.READ, key=key)
            else:
                count = write_counters.get(key, 0) + 1
                write_counters[key] = count
                yield KVOp(
                    index=index, kind=OperationKind.WRITE, key=key, value=f"{key}=v{count}"
                )
        return
    # Weighted mix over MIX_KINDS.  CAS pairs chain through the generator's
    # *predicted* per-key value (what the key would hold if every operation
    # so far applied in script order): under serial driving every swap
    # succeeds; under batched/concurrent driving real races decide.
    kinds = [OperationKind(kind) for kind, _ in spec.op_mix]
    cumulative = list(itertools.accumulate(weight for _, weight in spec.op_mix))
    total = cumulative[-1]
    predicted: dict[str, Any] = {}
    cas_counters: dict[str, int] = {}
    for index in range(spec.num_ops):
        key = sample_key()
        kind = kinds[bisect.bisect_left(cumulative, rng.random() * total)]
        if kind is OperationKind.INCR and isinstance(predicted.get(key), str):
            # Incrementing a string-valued key is a spec type error (the SMR
            # spec computes state + addend); the draw degrades to a read so
            # mixes combining incr with write/cas stay well-typed per key.
            kind = OperationKind.READ
        if kind is OperationKind.READ:
            yield KVOp(index=index, kind=kind, key=key)
        elif kind is OperationKind.WRITE:
            count = write_counters.get(key, 0) + 1
            write_counters[key] = count
            value = f"{key}=v{count}"
            predicted[key] = value
            yield KVOp(index=index, kind=kind, key=key, value=value)
        elif kind is OperationKind.CAS:
            count = cas_counters.get(key, 0) + 1
            cas_counters[key] = count
            expected = predicted.get(key, spec.initial_value)
            new = f"{key}=c{count}"
            predicted[key] = new
            yield KVOp(index=index, kind=kind, key=key, value=(expected, new))
        elif kind is OperationKind.TAS:
            predicted[key] = True
            yield KVOp(index=index, kind=kind, key=key)
        else:  # INCR
            addend = rng.randrange(1, 8)
            base = predicted.get(key, spec.initial_value)
            # Mirror the SMR spec: non-numeric state increments from 0.
            predicted[key] = (base if isinstance(base, (int, float)) else 0) + addend
            yield KVOp(index=index, kind=kind, key=key, value=addend)


def generate_kv_operations(spec: KVWorkloadSpec) -> List[KVOp]:
    """Turn a spec into the concrete operation stream (seeded, reproducible)."""
    return list(iter_kv_operations(spec))


# -------------------------------------------------------------------- runner


@dataclass
class KVWorkloadResult:
    """Everything a keyed store run produced."""

    spec: KVWorkloadSpec
    store: KVStore
    ops: List[StoreOp]
    wall_seconds: float
    virtual_makespan: float
    batches: int
    #: Open-loop runs: the seeded arrival times, in submission order.
    arrivals: List[float] = field(default_factory=list)
    #: Driver-level metrics snapshot (latency percentiles, throughput, message mix).
    metrics: dict = field(default_factory=dict)
    #: False when the virtual-time budget cut the run short — operations were
    #: left unsubmitted or pending (in limbo).  Operations that *failed fast*
    #: with a reason (crashed replica) still count as a clean finish; they are
    #: reported via ``failed_ops`` instead.  Never silently truncate.
    finished_cleanly: bool = True

    def completed_ops(self) -> list[StoreOp]:
        """Operations that completed successfully."""
        return [op for op in self.ops if op.completed]

    def failed_ops(self) -> list[StoreOp]:
        """Operations that failed (crashed replica, stalled batch, ...)."""
        return [op for op in self.ops if op.failed]

    def total_messages(self) -> int:
        """Messages sent across the whole store during the run."""
        return self.store.total_messages()

    def virtual_throughput(self) -> float:
        """Completed operations per virtual-time unit."""
        if self.virtual_makespan <= 0:
            return float("inf") if self.completed_ops() else 0.0
        return len(self.completed_ops()) / self.virtual_makespan

    def wall_throughput(self) -> float:
        """Completed operations per wall-clock second (hardware dependent)."""
        if self.wall_seconds <= 0:
            return float("inf") if self.completed_ops() else 0.0
        return len(self.completed_ops()) / self.wall_seconds

    def mean_latency(self) -> float:
        """Mean virtual-time latency over completed operations."""
        latencies = [
            op.record.latency
            for op in self.completed_ops()
            if op.record is not None and op.record.latency is not None
        ]
        if not latencies:
            return 0.0
        return sum(latencies) / len(latencies)

    def check_atomicity(self, raise_on_violation: bool = True) -> StoreAtomicityReport:
        """Per-key atomicity verdicts for the recorded run."""
        return self.store.check_atomicity(raise_on_violation=raise_on_violation)


def iter_kv_arrivals(spec: KVWorkloadSpec) -> Iterator[float]:
    """Lazily yield the seeded open-loop arrival times for ``spec``.

    Derived from the master seed but on an independent RNG stream, so the
    operation mix is identical between closed- and open-loop runs of the
    same spec — only *when* operations arrive changes.
    """
    if not spec.open_loop:
        raise ValueError(f"spec has closed-loop arrivals (arrival={spec.arrival!r})")
    rng = make_rng(spec.seed, "kv-arrivals", spec.arrival, spec.arrival_rate, spec.num_ops)
    return iter_arrival_times(spec.arrival, rng, spec.arrival_rate, spec.num_ops)


def generate_kv_arrivals(spec: KVWorkloadSpec) -> List[float]:
    """Seeded open-loop arrival times for ``spec`` (one per operation)."""
    return list(iter_kv_arrivals(spec))


def last_kv_arrival(spec: KVWorkloadSpec) -> float:
    """The final arrival time of the spec's schedule, in O(1) memory."""
    last = 0.0
    for last in iter_kv_arrivals(spec):
        pass
    return last


def iter_kv_triples(spec: KVWorkloadSpec) -> Iterator[Tuple[float, OpRequest, Any]]:
    """The open-loop client's ``(time, request, value)`` stream, lazily."""
    for at, scripted in zip(iter_kv_arrivals(spec), iter_kv_operations(spec)):
        yield (at, OpRequest(kind=scripted.kind, key=scripted.key), scripted.value)


def _run_open_loop(
    spec: KVWorkloadSpec, store: KVStore
) -> tuple[List[StoreOp], List[float], bool]:
    """Drive the full operation stream open-loop; returns (ops, arrivals, finished)."""
    # One O(1)-memory pre-pass for the drive budget; the schedule itself then
    # streams into the client one triple ahead of the firing front.
    last_arrival = last_kv_arrival(spec)
    client = OpenLoopClient(store.driver, store.target, iter_kv_triples(spec))
    client.start()
    # The budget bounds *completion after the last arrival*, mirroring the
    # closed-loop per-drive budget — a low offered rate must not eat the
    # whole budget with idle waiting and then silently truncate the tail.
    client.drive(limit=last_arrival + spec.max_virtual_time)
    # Clean = every arrival fired and every op reached a terminal state
    # (completed, or failed-with-reason — crash failures are reported, not
    # truncation).  Anything unsubmitted or still pending is truncation.
    clean = client.all_submitted and all(op.done for op in client.ops)
    # The result carries the *full* schedule (even past a truncation point),
    # regenerated after the run so the streaming path reports exactly what
    # the materialized path always did.
    times = generate_kv_arrivals(spec)
    return client.ops, times, clean


def run_kv_workload(spec: KVWorkloadSpec) -> KVWorkloadResult:
    """Execute a keyed workload against a fresh store and collect the result.

    Closed-loop (default): operations are submitted in batches of
    ``spec.batch_size`` and each batch is completed with one
    :meth:`~repro.store.store.KVStore.drive` call, so ``batch_size=1``
    reproduces per-operation driving and larger batches exercise the
    overlapped hot path.

    Open-loop (``spec.arrival`` in ``("poisson", "uniform")``): the same
    operation stream arrives at seeded times with mean rate
    ``spec.arrival_rate`` and one drive call runs the loop until every
    arrival has fired and completed.

    ``spec.transport == "live"`` dispatches to the loopback socket cluster
    (:func:`repro.transport.live.run_live_workload`) and returns a
    :class:`~repro.transport.live.LiveKVResult` instead — same seeded
    operation stream, wall-clock timings.
    """
    if spec.transport == "live":
        from repro.transport.live import run_live_workload

        return run_live_workload(spec)
    store = KVStore(spec.store_config())
    if spec.fault_plan is not None:
        store.install_fault_plan(spec.fault_plan)
    for point in spec.crash_points:
        store.crash_server_at(
            point.at_time, point.shard, point.replica, allow_writer=point.allow_writer
        )
    submitted: List[StoreOp] = []
    arrivals: List[float] = []
    batches = 0
    finished = True
    started = time.perf_counter()
    if spec.open_loop:
        submitted, arrivals, finished = _run_open_loop(spec, store)
        batches = 1
    else:
        # Stream the script batch-by-batch — the full KVOp list never exists.
        stream = iter_kv_operations(spec)
        while True:
            batch = list(itertools.islice(stream, spec.batch_size))
            if not batch:
                break
            for scripted in batch:
                if scripted.kind is OperationKind.WRITE:
                    submitted.append(store.submit_put(scripted.key, scripted.value))
                elif scripted.kind is OperationKind.READ:
                    submitted.append(store.submit_get(scripted.key))
                else:
                    submitted.append(store.submit_op(scripted.kind, scripted.key, scripted.value))
            store.drive()
            batches += 1
        finished = all(op.done for op in submitted)
    wall_seconds = time.perf_counter() - started
    return KVWorkloadResult(
        spec=spec,
        store=store,
        ops=submitted,
        wall_seconds=wall_seconds,
        virtual_makespan=store.simulator.now,
        batches=batches,
        arrivals=arrivals,
        metrics=store.metrics_snapshot(),
        finished_cleanly=finished,
    )
