"""Verified-run benchmark of the two-bit register repository.

Usage (from the repository root)::

    python3 perfbench/run.py --workload store_wide --seed 1 --seconds 15 --trace 0

Workloads (shapes fixed here, seeds from ``--seed``):

* ``store_wide``    sim store, ``two-bit``, 64 keys, 4 shards, n=3, 90% reads,
                    Poisson open loop at 50 ops per virtual unit;
* ``register_hot``  one ``two-bit`` register, n=5, 50% writes, Poisson open
                    loop at 0.5 ops per virtual unit, two reader replicas
                    crash (at 25% and 60% of the arrival horizon);
* ``cas_consensus`` the ``kv_cas`` scenario: ``mmr-cas`` over 32 keys, n=3;
* ``live_register`` ``two-bit`` on a 3-replica loopback cluster, 64 keys,
                    90% reads, closed loop with 32 ops outstanding.

A simulator run repeats one seeded operation stream until ``--seconds`` of
measuring have passed (at least three times); a live run boots five fresh
clusters in turn and drives each through ``--seconds`` x 1600 operations.
Every history is checked.  A
repeat counts only if it finished cleanly, every op completed, the checker
found the history linearizable over exactly the ops issued, and, on
``cas_consensus``, the consensus invariants hold; any other repeat counts
all of its ops as failed.  On the simulator workloads the virtual-time
results (messages, latency percentiles, events, consensus counts) must be
byte-equal across repeats; on ``live_register`` mean latency must match
window / throughput (Little's law) within a factor of two.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones: a traced repeat whose wall time is split across the repository's
modules by wrapping their entry points (:mod:`spans`).  The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
Every metric appears on every workload; a per-layer metric of a layer the
workload does not run reads 0.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path
from statistics import median
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("store_wide", "register_hot", "cas_consensus", "live_register")

#: Set-up is timed this many times per run (the median is reported): fresh
#: interpreters for the simulator, fresh clusters (each then driven) live.
SETUP_PROBES = 5
#: Every run makes at least this many verified repeats.
MIN_REPEATS = 3

#: The metric catalog: names, units and bounds of both metric sets.
CATALOG = ROOT / "BENCHMARK.json"

#: Span layers folded into their module when naming the largest layer.
MODULE_OF = {
    "sim.network.send": "sim.network",
    "sim.network.stats": "sim.network",
    "exec.driver": "exec",
    "exec.clients": "exec",
    "exec.oplog": "exec",
    "verification.materialize": "verification",
    "verification.swmr": "verification",
    "verification.wing_gong": "verification",
}

#: End-to-end results: metric name -> (value, sample count).
Measured = Dict[str, Tuple[float, int]]


class Tally:
    """Ops attempted and failed across a run's repeats, and why any failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def add(self, repeat: Any) -> None:
        self.attempted += repeat.issued
        if repeat.verdict is not None:
            self.failed += repeat.issued
            self.problems.append(repeat.verdict)
        else:
            self.failed += repeat.issued - repeat.completed


def repeat_for(seconds: float, minimum: int, make: Callable[[], Any]) -> List[Any]:
    """Call ``make`` until ``seconds`` have passed and it ran ``minimum`` times."""
    results: List[Any] = []
    started = time.perf_counter()
    while len(results) < minimum or time.perf_counter() - started < seconds:
        results.append(make())
    return results


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------------------ simulator


def sim_end_to_end(name: str, seed: int, seconds: float, tally: Tally) -> Measured:
    import bench_sim

    workload = bench_sim.SIM_WORKLOADS[name]
    setups = [bench_sim.measure_setup(name, seed) for _ in range(SETUP_PROBES)]
    repeats = repeat_for(seconds, MIN_REPEATS, lambda: bench_sim.run_repeat(workload, seed))
    for repeat in repeats:
        tally.add(repeat)
    _require_identical(repeats, tally)
    first = repeats[0]
    ops = first.completed
    vlat_p50 = bench_sim.percentile(first.sojourn, 0.5)
    return {
        "setup_s": (median(setups), len(setups)),
        "verified_us_per_op": (median([r.verified_us_per_op for r in repeats]), len(repeats)),
        "vlat_p50": (vlat_p50, ops),
        "vlat_p99": (bench_sim.percentile(first.sojourn, 0.99), ops),
        "msgs_per_op": (first.messages / ops, ops),
        "peak_rss_mb": (peak_rss_mb(), 1),
        "ops_per_s": (median([r.completed / r.run_s for r in repeats]), len(repeats)),
        "lat_p50_ms": (_sim_wall_ms(vlat_p50, repeats), len(repeats)),
    }


def _sim_wall_ms(vlat: float, repeats: List[Any]) -> float:
    """A virtual latency in wall milliseconds at the simulator's own pace.

    Each repeat's run took ``run_s`` wall seconds for ``virtual_makespan``
    virtual units, so a caller of the simulator waits that many seconds per
    unit of an op's virtual latency (the median over repeats).
    """
    return median([vlat * r.run_s / r.virtual_makespan * 1e3 for r in repeats])


def sim_per_layer(name: str, seed: int, seconds: float, tally: Tally) -> Dict[str, float]:
    import bench_sim
    import spans

    workload = bench_sim.SIM_WORKLOADS[name]
    plain = repeat_for(seconds / 2, 1, lambda: bench_sim.run_repeat(workload, seed))
    tracer = spans.SpanTracer()
    spans.install_sim_layers(tracer)
    spans.install_check_layers(tracer)
    try:
        traced = bench_sim.run_repeat(workload, seed, tracer)
    finally:
        tracer.restore()
    repeats = plain + [traced]
    for repeat in repeats:
        tally.add(repeat)
    _require_identical(repeats, tally)
    ops = traced.completed
    calls = tracer.calls
    counters = tracer.counters
    guard_calls = calls["transport.runtime.guards"]
    metrics = _span_metrics(tracer)
    metrics.update(
        {
            "sim.scheduler.events_per_op": traced.events / ops,
            "transport.runtime.guards.calls_per_op": guard_calls / ops,
            "transport.runtime.guards.fire_ratio": _ratio(counters["guards.fired"], guard_calls),
            "quorum.accept.calls_per_op": counters["quorum.accepts"] / ops,
            "quorum.useful_ratio": _ratio(counters["quorum.useful"], counters["quorum.accepts"]),
            "consensus.slots_per_op": traced.slots / ops,
            "consensus.useful_slot_ratio": _ratio(traced.useful_slots, traced.slots),
            "consensus.rounds_per_slot": _ratio(traced.rounds, traced.decisions),
            "exec.run_us_per_op": median([r.run_s / r.completed * 1e6 for r in plain]),
            "lat_p99_ms": _sim_wall_ms(bench_sim.percentile(traced.sojourn, 0.99), plain),
            "exec.queue_wait_p50": bench_sim.percentile(traced.queue_wait, 0.5),
            "exec.queue_wait_p99": bench_sim.percentile(traced.queue_wait, 0.99),
            "verification.check_us_per_op": median([r.check_s / r.completed * 1e6 for r in plain]),
            "verification.states_explored": traced.states_explored,
            "trace.overhead": traced.verified_us_per_op
            / median([r.verified_us_per_op for r in plain]),
        }
    )
    return metrics


def _require_identical(repeats: List[Any], tally: Tally) -> None:
    identities = {repeat.identity() for repeat in repeats}
    if len(identities) != 1:
        tally.problems.append(
            f"virtual-time results differ across {len(repeats)} repeats of one seed"
        )


# ----------------------------------------------------------------------- live


def live_end_to_end(seed: int, seconds: float, tally: Tally) -> Measured:
    import bench_live

    repeats = bench_live.run(seed, _live_ops(seconds), clusters=SETUP_PROBES)
    for repeat in repeats:
        tally.add(repeat)
        _require_littles_law(repeat, tally)
    slices = [s for repeat in repeats for s in repeat.slices]
    # Virtual time on the live cluster: the closed loop's mean sojourn,
    # window / throughput (Little's law), is the clock's unit, so vlat is
    # latency relative to the mean whatever the machine's speed.
    unit = [bench_live.WINDOW / s.ops_per_s for s in slices]
    completed = sum(r.completed for r in repeats)
    return {
        "setup_s": (median([r.setup_s for r in repeats]), len(repeats)),
        "verified_us_per_op": (median([r.verified_us_per_op for r in repeats]), len(repeats)),
        "vlat_p50": (median([s.p50_s / u for s, u in zip(slices, unit)]), len(slices)),
        "vlat_p99": (median([s.p99_s / u for s, u in zip(slices, unit)]), len(slices)),
        "msgs_per_op": (sum(r.messages for r in repeats) / completed, completed),
        "peak_rss_mb": (peak_rss_mb(), 1),
        "ops_per_s": (median([s.ops_per_s for s in slices]), len(slices)),
        "lat_p50_ms": (median([s.p50_s for s in slices]) * 1e3, len(slices)),
    }


def _live_ops(seconds: float) -> int:
    """Ops per cluster: ``seconds`` of nominal work spread over the clusters.

    Never fewer than one statistics slice needs after warm-up.
    """
    import bench_live

    nominal = int(seconds * bench_live.OPS_PER_SECOND / SETUP_PROBES)
    return max(nominal, bench_live.WARMUP_OPS + bench_live.SLICE_OPS)


def _require_littles_law(repeat: Any, tally: Tally) -> None:
    """Mean latency must match window / throughput within a factor of two."""
    import bench_live

    if not repeat.timed_ops_per_s:
        return
    expected = bench_live.WINDOW / repeat.timed_ops_per_s
    if not 0.5 <= repeat.mean_latency_s / expected <= 2.0:
        tally.problems.append(
            f"mean latency {repeat.mean_latency_s * 1e3:.3f} ms disagrees with "
            f"window/throughput {expected * 1e3:.3f} ms (Little's law)"
        )


def live_per_layer(seed: int, seconds: float, tally: Tally) -> Dict[str, float]:
    import bench_live
    import spans

    ops = _live_ops(seconds)
    plain = bench_live.run(seed, ops, clusters=2)
    tracer = spans.SpanTracer()
    spans.install_oplog_layer(tracer)
    spans.install_codec_layer(tracer)
    spans.install_check_layers(tracer)
    try:
        traced = bench_live.run(seed, ops, clusters=1, tracer=tracer)[0]
    finally:
        tracer.restore()
    for repeat in plain + [traced]:
        tally.add(repeat)
        _require_littles_law(repeat, tally)

    def per_op(field: str) -> float:
        return median([getattr(r, field) / r.completed * 1e6 for r in plain])

    metrics = _span_metrics(tracer)
    metrics.update(
        {
            "lat_p99_ms": median([s.p99_s for r in plain for s in r.slices]) * 1e3,
            "exec.run_us_per_op": per_op("run_s"),
            "verification.check_us_per_op": per_op("check_s"),
            "verification.states_explored": traced.states_explored,
            "transport.live.replica_cpu_us_per_op": per_op("replica_cpu_s"),
            "transport.live.client_cpu_us_per_op": per_op("client_cpu_s"),
            "transport.live.frames_per_flush": median([r.frames_per_flush for r in plain]),
            "transport.live.client_bytes_per_op": median([r.client_bytes_per_op for r in plain]),
            "trace.overhead": traced.verified_us_per_op
            / median([r.verified_us_per_op for r in plain]),
        }
    )
    return metrics


# --------------------------------------------------------------------- output


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _span_metrics(tracer: Any) -> Dict[str, float]:
    metrics = {f"{layer}.self_s": self_s for layer, self_s in tracer.self_s.items()}
    metrics["trace.coverage"] = tracer.coverage()
    return metrics


def assemble(kind: str, measured: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    """Every metric of one catalog set with its unit; layers a workload lacks read 0."""
    catalog = json.loads(CATALOG.read_text())[kind]
    return {
        m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in catalog
    }


def largest_layer(per_layer: Dict[str, float]) -> Tuple[str, float]:
    """The module with the most self time, and its share of all of it."""
    by_module: Dict[str, float] = {}
    for name, value in per_layer.items():
        if name.endswith(".self_s"):
            layer = name[: -len(".self_s")]
            module = MODULE_OF.get(layer, layer)
            by_module[module] = by_module.get(module, 0.0) + value
    total = sum(by_module.values())
    module = max(by_module, key=by_module.__getitem__)
    return module, by_module[module] / total if total else 0.0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the repro package is missing under {SRC}", file=sys.stderr)
        return 2
    if not CATALOG.is_file():
        print(f"error: the metric catalog {CATALOG} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    tally = Tally()
    live = args.workload == "live_register"
    samples: Dict[str, int] = {}
    if args.trace:
        if live:
            measured = live_per_layer(args.seed, args.seconds, tally)
        else:
            measured = sim_per_layer(args.workload, args.seed, args.seconds, tally)
        metrics = assemble("per_layer", measured)
        module, share = largest_layer({name: m["value"] for name, m in metrics.items()})
        summary = f"largest self-time layer: {module} ({share:.0%} of span self time)"
    else:
        if live:
            pairs = live_end_to_end(args.seed, args.seconds, tally)
        else:
            pairs = sim_end_to_end(args.workload, args.seed, args.seconds, tally)
        metrics = assemble("end_to_end", {name: value for name, (value, _) in pairs.items()})
        samples = {name: count for name, (_, count) in pairs.items()}
        summary = f"failed_op_ratio {tally.failed / tally.attempted:.6f}"

    correct = not tally.problems
    for problem in tally.problems:
        print(f"FAIL: {problem}")
    print(f"workload {args.workload}  seed {args.seed}  attempted {tally.attempted}  "
          f"failed {tally.failed}  {summary}")
    for name, metric in metrics.items():
        count = f"  n={samples[name]}" if name in samples else ""
        print(f"  {name:40s} {metric['value']:>16.6f} {metric['unit']}{count}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
