"""The three simulator workloads: one verified repeat, and set-up probes.

A repeat runs a fixed, seeded operation stream through
:func:`repro.workloads.kv.run_kv_workload` (register_hot: the same open
loop, with its crashes scheduled here), then checks every key's history
with the store's linearizability checker.  Everything a repeat reports in
virtual time (messages, latency percentiles, event and consensus counts) is
a function of the seed alone; :func:`identity` collects those numbers so
the runner can demand that every repeat of one seed agrees byte for byte.
"""

from __future__ import annotations

import gc
import math
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.consensus import ConsensusObjectProcess, consensus_invariants
from repro.exec.clients import OpenLoopClient
from repro.sim.delays import UniformDelay
from repro.store.store import KVStore
from repro.workloads.kv import (
    KVWorkloadSpec,
    iter_kv_triples,
    last_kv_arrival,
    run_kv_workload,
)
from repro.workloads.scenarios import kv_cas

HERE = Path(__file__).resolve().parent

#: register_hot's arrival rate, ops per virtual unit: below the single
#: writer's saturation, so the writer's queue stays bounded.
HOT_RATE = 0.5
#: register_hot's crashes: (share of the arrival horizon, replica).  The
#: writer is replica 0; with n=5 the register tolerates both (t=2).
HOT_CRASHES = ((0.25, 3), (0.6, 4))
#: Virtual time between checks for an idle replica to crash.
CRASH_POLL = 0.05


@dataclass(frozen=True)
class SimWorkload:
    """One simulator workload: its fixed shape and per-repeat op count."""

    name: str
    num_ops: int

    def spec(self, seed: int) -> KVWorkloadSpec:
        """The seeded store spec of one repeat."""
        delays = UniformDelay(0.2, 1.0, seed=seed)
        if self.name == "store_wide":
            return KVWorkloadSpec(
                num_keys=64,
                num_ops=self.num_ops,
                read_fraction=0.9,
                algorithm="two-bit",
                num_shards=4,
                replication=3,
                arrival="poisson",
                arrival_rate=50.0,
                delay_model=delays,
                seed=seed,
            )
        if self.name == "register_hot":
            return KVWorkloadSpec(
                num_keys=1,
                num_ops=self.num_ops,
                read_fraction=0.5,
                algorithm="two-bit",
                num_shards=1,
                replication=5,
                arrival="poisson",
                arrival_rate=HOT_RATE,
                delay_model=delays,
                seed=seed,
            )
        if self.name == "cas_consensus":
            return kv_cas(num_keys=32, num_ops=self.num_ops, seed=seed)
        raise ValueError(f"unknown simulator workload {self.name!r}")


#: Ops per repeat: register_hot's history must be long enough for the
#: checker to dominate.  Why each workload exists is in BENCHMARK.json.
SIM_WORKLOADS = {
    workload.name: workload
    for workload in (
        SimWorkload("store_wide", 7_500),
        SimWorkload("register_hot", 14_000),
        SimWorkload("cas_consensus", 3_000),
    )
}


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (``q`` in (0, 1])."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def measure_setup(name: str, seed: int) -> float:
    """Package import plus store construction, timed in a fresh interpreter.

    Only the child's own clock counts, so interpreter start-up is excluded
    and the import is as cold as a user's first one.
    """
    src = HERE.parent / "src"
    code = (
        "import sys, time\n"
        f"sys.path[:0] = [{str(src)!r}, {str(HERE)!r}]\n"
        "start = time.perf_counter()\n"
        "import bench_sim\n"
        "from repro.store.store import KVStore\n"
        f"spec = bench_sim.SIM_WORKLOADS[{name!r}].spec({seed})\n"
        "store = KVStore(spec.store_config())\n"
        "print(repr(time.perf_counter() - start))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        check=True,
        capture_output=True,
        text=True,
        timeout=60,
    )
    return float(out.stdout.strip().splitlines()[-1])


@dataclass
class SimRepeat:
    """What one verified simulator repeat measured."""

    issued: int
    completed: int
    verdict: Optional[str]  # None when the run counts, else why it does not
    run_s: float
    check_s: float
    messages: int
    events: int
    virtual_makespan: float
    sojourn: List[float]
    queue_wait: List[float]
    states_explored: int
    slots: int = 0
    useful_slots: int = 0
    decisions: int = 0
    rounds: int = 0

    @property
    def verified_us_per_op(self) -> float:
        return (self.run_s + self.check_s) / self.completed * 1e6

    def identity(self) -> Tuple[str, ...]:
        """The virtual-time results that must repeat exactly for one seed."""
        return tuple(
            repr(value)
            for value in (
                self.issued,
                self.completed,
                self.messages,
                self.events,
                self.virtual_makespan,
                percentile(self.sojourn, 0.5),
                percentile(self.sojourn, 0.99),
                self.slots,
                self.useful_slots,
                self.decisions,
                self.rounds,
            )
        )


def run_repeat(workload: SimWorkload, seed: int, tracer: Any = None) -> SimRepeat:
    """One verified repeat; ``tracer`` opens the two root spans when given."""
    spec = workload.spec(seed)
    run = _run_hot if workload.name == "register_hot" else _run_store
    check = _check
    if tracer is not None:
        run = tracer.timed("bench.run", run)
        check = tracer.timed("bench.check", check)
    gc.collect()
    started = time.perf_counter()
    store, ops, finished = run(spec)
    ran = time.perf_counter()
    report = check(store)
    checked = time.perf_counter()

    completed = [op for op in ops if op.completed]
    crashed = len(store.shards[0].crashed_replicas)
    repeat = SimRepeat(
        issued=len(ops),
        completed=len(completed),
        verdict=None,
        run_s=ran - started,
        check_s=checked - ran,
        messages=store.total_messages(),
        events=store.simulator.executed_events,
        virtual_makespan=store.simulator.now,
        sojourn=sorted(op.sojourn_latency for op in completed),
        queue_wait=sorted(op.record.invoked_at - op.submitted_at for op in completed),
        states_explored=report.states_explored,
    )
    if not finished:
        repeat.verdict = "run did not finish cleanly"
    elif len(ops) != spec.num_ops or len(completed) != len(ops):
        repeat.verdict = f"{len(completed)} of {spec.num_ops} ops completed"
    elif not report.ok:
        repeat.verdict = "not linearizable: " + "; ".join(report.violations()[:3])
    elif report.operations_checked != len(ops):
        repeat.verdict = f"checked {report.operations_checked} of {len(ops)} ops"
    elif workload.name == "register_hot" and crashed != len(HOT_CRASHES):
        repeat.verdict = f"{crashed} of {len(HOT_CRASHES)} crashes ran"
    if spec.algorithm == "mmr-cas":
        _consensus_counts(store, repeat)
    return repeat


def _run_store(spec: KVWorkloadSpec) -> Tuple[KVStore, List[Any], bool]:
    result = run_kv_workload(spec)
    return result.store, result.ops, result.finished_cleanly


def _run_hot(spec: KVWorkloadSpec) -> Tuple[KVStore, List[Any], bool]:
    """The open loop of ``run_kv_workload``, plus crashes of idle readers.

    A replica that crashes while it runs an operation leaves that operation
    forever pending, as the model allows; such a run could not check every
    op it issued.  Each crash therefore waits, from its nominal time, for
    the first instant its replica has no operation in flight.  The instant
    is a function of the seed, so repeats stay identical.
    """
    store = KVStore(spec.store_config())
    last_arrival = last_kv_arrival(spec)
    for share, replica in HOT_CRASHES:
        _crash_when_idle(store, share * last_arrival, replica)
    client = OpenLoopClient(store.driver, store.target, iter_kv_triples(spec))
    client.start()
    client.drive(limit=last_arrival + spec.max_virtual_time)
    finished = client.all_submitted and all(op.done for op in client.ops)
    return store, client.ops, finished


def _crash_when_idle(store: KVStore, at: float, replica: int) -> None:
    simulator = store.simulator

    def attempt() -> None:
        process = store.register_for(store.deployed_keys[0]).processes[replica]
        current = process.current_operation
        if current is not None and not current.completed:
            simulator.schedule_after(CRASH_POLL, attempt, label="crash retry")
        else:
            store.crash_server(0, replica)

    simulator.schedule_at(at, attempt, label=f"crash replica {replica}")


def _check(store: KVStore) -> Any:
    return store.check_linearizability()


def _consensus_counts(store: Any, repeat: SimRepeat) -> None:
    by_key: Dict[Any, List[Any]] = {}
    for key in store.deployed_keys:
        by_key[key] = [
            process
            for process in store.register_for(key).processes
            if isinstance(process, ConsensusObjectProcess)
        ]
    violations = consensus_invariants(by_key)
    if violations and repeat.verdict is None:
        repeat.verdict = "consensus invariants violated: " + "; ".join(violations[:3])
    for processes in by_key.values():
        decided: Dict[int, int] = {}
        for process in processes:
            decided.update(process.decided)
            repeat.decisions += len(process.decided)
            repeat.rounds += process.rounds_entered
        repeat.slots += len(decided)
        repeat.useful_slots += sum(1 for value in decided.values() if value == 1)
