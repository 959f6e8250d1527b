"""Command-line interface.

Everything the examples do is also reachable from the command line, which is
convenient for quick experiments and for CI jobs that want the reproduction
report without writing Python:

.. code-block:: console

    python -m repro.cli algorithms                  # list registered algorithms
    python -m repro.cli table1 --n 7 --writes 50    # regenerate Table 1
    python -m repro.cli run --algorithm two-bit --n 5 --writes 10 --reads 10
    python -m repro.cli compare --n 7 --reads 40 --writes 4
    python -m repro.cli bits --writes 200           # control-bit growth curves
    python -m repro.cli store --keys 32 --ops 500 --dist zipfian --shards 4
    python -m repro.cli explore --budget 50         # schedule exploration + shrinking

(With the package installed — ``pip install -e .`` — the same commands are
available as plain ``repro <subcommand>`` via the console-script entry point.)

Every sub-command prints plain text (the same tables the benchmarks print)
and exits non-zero if a correctness check fails, so the CLI can be used as a
smoke test in automation.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional, Sequence

from repro.analysis.bits import control_bits_growth
from repro.analysis.memory import memory_growth
from repro.analysis.report import format_metrics, format_table
from repro.analysis.table1 import build_table1
from repro.registers.base import OperationKind
from repro.registers.registry import available_algorithms
from repro.sim.delays import FixedDelay, UniformDelay
from repro.sim.failures import random_crash_schedule
from repro.workloads.runner import run_workload
from repro.workloads.spec import WorkloadSpec


def _add_common_workload_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=5, help="number of processes (default 5)")
    parser.add_argument("--writes", type=int, default=10, help="number of writes (default 10)")
    parser.add_argument("--reads", type=int, default=10, help="reads per reader (default 10)")
    parser.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    parser.add_argument(
        "--delay",
        choices=["fixed", "uniform"],
        default="fixed",
        help="message delay model (default: fixed delta=1)",
    )
    parser.add_argument(
        "--crashes",
        type=int,
        default=0,
        help="number of random reader crashes to inject (writer is spared)",
    )


def _json_number(value: Optional[float], digits: int = 3) -> Optional[float]:
    """Round a measurement for a JSON payload; non-finite values become ``None``.

    ``json.dumps`` would happily serialize ``float("inf")`` as bare
    ``Infinity`` — which is not JSON and breaks strict consumers — so every
    number that can degenerate (zero-span throughput) passes through here,
    and the dumps below use ``allow_nan=False`` so a regression fails loudly
    at write time instead of corrupting the artifact.
    """
    if value is None or not math.isfinite(value):
        return None
    return round(value, digits)


def _verdict_cell(report) -> str:
    """A per-key verdict: "yes" only when at least one operation was checked."""
    if not report.ok:
        return "NO"
    if report.operations_checked == 0:
        return "no verdict (0 ops checked)"
    return f"yes ({report.operations_checked} ops, {report.keys_checked} keys)"


#: Printed, and the run fails, when a verdict would be vacuous.
_NOTHING_CHECKED = "no operation was checked, so the run proves nothing"


def _delay_model(name: str, seed: int):
    if name == "uniform":
        return UniformDelay(0.1, 2.0, seed=seed)
    return FixedDelay(1.0)


def _spec_from_args(args: argparse.Namespace, algorithm: str) -> WorkloadSpec:
    schedule = None
    if args.crashes:
        schedule = random_crash_schedule(
            args.n, seed=args.seed, max_crashes=args.crashes, horizon=20.0, exclude=(0,)
        )
    return WorkloadSpec(
        n=args.n,
        algorithm=algorithm,
        num_writes=args.writes,
        reads_per_reader=args.reads,
        delay_model=_delay_model(args.delay, args.seed),
        crash_schedule=schedule,
        check_invariants=(algorithm == "two-bit"),
        seed=args.seed,
    )


# ---------------------------------------------------------------- subcommands


def cmd_algorithms(_args: argparse.Namespace) -> int:
    """List the registered register algorithms with their capability flags."""
    from repro.registers.registry import get_algorithm

    rows = []
    for name in available_algorithms():
        algorithm = get_algorithm(name)
        rows.append(
            [
                name,
                "MWMR" if algorithm.supports_multi_writer else "SWMR",
                "bounded" if algorithm.bounded_control_bits else "unbounded",
                algorithm.description,
            ]
        )
    print(
        format_table(
            ["name", "writers", "control bits", "description"],
            rows,
            title="Registered algorithms",
        )
    )
    return 0


def cmd_scenarios(_args: argparse.Namespace) -> int:
    """List the canned workload scenarios (register + store)."""
    from repro.workloads.scenarios import SCENARIOS

    rows = [
        [info.name, info.kind, info.description]
        for info in SCENARIOS.values()
    ]
    print(
        format_table(
            ["name", "kind", "description"],
            rows,
            title="Workload scenarios",
        )
    )
    return 0


def cmd_transports(_args: argparse.Namespace) -> int:
    """List the message-transport backends and their capability flags."""
    from repro.transport import TRANSPORTS

    rows = [
        [
            info.name,
            info.clock,
            "yes" if info.deterministic else "no",
            info.sim_only_features,
            info.description,
        ]
        for info in TRANSPORTS.values()
    ]
    print(
        format_table(
            ["name", "clock", "deterministic", "sim-only features", "description"],
            rows,
            title="Message transports",
        )
    )
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    """Regenerate the paper's Table 1."""
    table = build_table1(n=args.n, writes=args.writes, delta=1.0, seed=args.seed)
    print(table.render())
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """Run one workload and report latency/message statistics + atomicity verdict."""
    spec = _spec_from_args(args, args.algorithm)
    result = run_workload(spec)
    report = result.check_atomicity(raise_on_violation=False)
    writes = result.write_latencies()
    reads = result.read_latencies()
    rows = [
        ["operations completed", len(result.completed_records())],
        ["operations pending", len(result.history.pending())],
        ["total messages", result.total_messages()],
        ["max control bits / message", result.max_control_bits()],
        ["mean write latency", round(sum(writes) / len(writes), 3) if writes else "-"],
        ["mean read latency", round(sum(reads) / len(reads), 3) if reads else "-"],
        ["atomic", "yes" if report.ok else "NO"],
    ]
    if result.monitor is not None:
        rows.append(["lemma invariants", "ok" if result.monitor.report.ok else "VIOLATED"])
    print(
        format_table(
            ["metric", "value"],
            rows,
            title=f"{args.algorithm} on n={args.n} ({spec.total_operations()} operations)",
        )
    )
    if not report.ok:
        print("\natomicity violations:", file=sys.stderr)
        for violation in report.violations:
            print(f"  - {violation}", file=sys.stderr)
        return 1
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """Run the same workload under every executable algorithm and compare."""
    rows = []
    failures = 0
    for algorithm in ("two-bit", "abd", "abd-bounded-emulation"):
        spec = _spec_from_args(args, algorithm)
        result = run_workload(spec)
        report = result.check_atomicity(raise_on_violation=False)
        if not report.ok:
            failures += 1
        reads = result.read_latencies()
        rows.append(
            [
                algorithm,
                result.total_messages(),
                result.max_control_bits(),
                round(sum(reads) / len(reads), 2) if reads else "-",
                "yes" if report.ok else "NO",
            ]
        )
    print(
        format_table(
            ["algorithm", "total msgs", "max control bits", "mean read latency", "atomic"],
            rows,
            title=f"Comparison on n={args.n}, {args.writes} writes, {args.reads} reads/reader",
        )
    )
    return 1 if failures else 0


def cmd_bits(args: argparse.Namespace) -> int:
    """Control-bit and local-memory growth curves (the 'unbounded' rows of Table 1)."""
    counts = (10, max(20, args.writes // 4), args.writes)
    rows = []
    for algorithm in ("abd", "two-bit"):
        growth = control_bits_growth(algorithm, n=args.n, write_counts=counts, seed=args.seed)
        rows.append([algorithm] + [m.max_control_bits for m in growth])
    print(
        format_table(
            ["algorithm"] + [f"{c} writes" for c in counts],
            rows,
            title="Max control bits per message",
        )
    )
    rows = []
    for algorithm in ("abd", "two-bit"):
        growth = memory_growth(algorithm, n=args.n, write_counts=counts, seed=args.seed)
        rows.append([algorithm] + [m.max_words for m in growth])
    print()
    print(
        format_table(
            ["algorithm"] + [f"{c} writes" for c in counts],
            rows,
            title="Max local memory per process (words)",
        )
    )
    return 0


def cmd_messages(args: argparse.Namespace) -> int:
    """Exact per-operation message counts (Theorem 2) for one system size."""
    rows = []
    for algorithm in ("two-bit", "abd"):
        spec = WorkloadSpec(
            n=args.n,
            algorithm=algorithm,
            num_writes=3,
            reads_per_reader=1,
            delay_model=FixedDelay(1.0),
            isolated_operations=True,
            seed=args.seed,
        )
        result = run_workload(spec)
        write_costs = result.isolated_costs_by_kind(OperationKind.WRITE)
        read_costs = result.isolated_costs_by_kind(OperationKind.READ)
        rows.append(
            [
                algorithm,
                round(sum(c.messages for c in write_costs) / len(write_costs), 1),
                round(sum(c.messages for c in read_costs) / len(read_costs), 1),
            ]
        )
    print(
        format_table(
            ["algorithm", "msgs per write", "msgs per read"],
            rows,
            title=f"Per-operation message counts, n={args.n}",
        )
    )
    return 0


def _cmd_store_live(args: argparse.Namespace) -> int:
    """Run the keyed workload over the live asyncio socket backend.

    Same seeded operation stream as the simulated run of the identical
    spec; timing and metrics are wall-clock, and the histories feed the
    unmodified per-key linearizability checker.
    """
    from repro.workloads.kv import run_kv_workload
    from repro.workloads.scenarios import kv_uniform, kv_zipfian

    for sim_only, label in (
        (args.crashes, "--crashes"),
        (args.no_coalesce, "--no-coalesce"),
        (args.algorithms, "--algorithms"),
    ):
        if sim_only:
            print(
                f"{label} is simulated-only; the live transport takes the wire as-is "
                "(see `repro transports`)",
                file=sys.stderr,
            )
            return 2
    builder = kv_zipfian if args.dist == "zipfian" else kv_uniform
    try:
        spec = builder(
            num_keys=args.keys,
            num_ops=args.ops,
            read_fraction=args.read_fraction,
            algorithm=args.algorithm,
            num_shards=args.shards,
            replication=args.replication,
            batch_size=args.batch,
            seed=args.seed,
        ).with_(transport="live")
        if args.codec is not None:
            # `--codec json` reproduces the PR 8 wire end to end: JSON frames
            # *and* one write() per frame, so A/B runs against the binary
            # fast path measure the whole wire, not just the encoding.
            spec = spec.with_(codec=args.codec, write_batching=args.codec == "binary")
        if args.arrival != "closed":
            # Open-loop on the wall clock: --rate is operations per second.
            spec = spec.with_(arrival=args.arrival, arrival_rate=args.rate)
    except ValueError as exc:
        print(f"invalid store parameters: {exc}", file=sys.stderr)
        return 2
    result = run_kv_workload(spec)
    report = result.check_linearizability()
    transport = result.metrics.get("transport") or {}
    rows = [
        ["transport", f"live (asyncio loopback, {args.replication} replica processes)"],
        ["wire codec", f"{transport.get('codec', spec.codec)}"
         + (" + write batching" if transport.get("batching") else ", per-frame writes")],
        ["algorithm", args.algorithm],
        ["operations submitted", result.submitted],
        ["operations completed", result.completed],
        ["operations failed", result.failed],
        ["protocol messages", result.messages_total],
        ["wall seconds", round(result.wall_seconds, 3)],
        ["ops per wall second", round(result.wall_throughput(), 1)],
        ["per-key linearizable", _verdict_cell(report)],
    ]
    if spec.open_loop:
        rows.insert(2, ["offered load (ops/second)", args.rate])
    if not result.finished_cleanly:
        rows.insert(2, ["finished cleanly", "NO (failed or timed-out operations)"])
    print(
        format_table(
            ["metric", "value"],
            rows,
            title=(
                f"store [live]: {args.algorithm}, {args.ops} ops, {args.dist} keys"
                + (f", {args.arrival} arrivals @ {args.rate}/s" if spec.open_loop else "")
            ),
        )
    )
    print()
    print(format_metrics(result.metrics, title="operation latency (wall-clock seconds)"))
    conn_rows = []
    for row in transport.get("client_connections", []):
        conn_rows.append(["client", row])
    for replica, rows_ in sorted(transport.get("replica_connections", {}).items()):
        for row in rows_:
            conn_rows.append([f"replica {replica}", row])
    if conn_rows:
        table = [
            [
                side,
                row.get("label", "?"),
                row["bytes_in"],
                row["bytes_out"],
                row["frames_in"],
                row["frames_out"],
                row["batches_out"],
                round(row["frames_out"] / row["batches_out"], 2) if row["batches_out"] else "-",
            ]
            for side, row in conn_rows
        ]
        summary = [
            "totals",
            f"frames/flush {round(transport['frames_per_flush'], 2) if transport.get('frames_per_flush') else '-'}",
            "", "", "", "",
            "",
            f"client bytes/op {round(transport['client_bytes_per_op'], 1) if transport.get('client_bytes_per_op') else '-'}",
        ]
        print()
        print(
            format_table(
                ["side", "connection", "bytes in", "bytes out", "frames in",
                 "frames out", "flushes", "frames/flush"],
                table + [summary],
                title="per-connection transport stats (also in the JSON metrics snapshot)",
            )
        )
    if not report.ok:
        print("\nper-key linearizability violations:", file=sys.stderr)
        for violation in report.violations():
            print(f"  - {violation}", file=sys.stderr)
        return 1
    if report.operations_checked == 0:
        print(f"\n{_NOTHING_CHECKED}", file=sys.stderr)
        return 1
    if not result.finished_cleanly:
        print(
            "\nlive run did not finish cleanly: some operations failed or missed "
            "the completion deadline",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    """Drive a live cluster from N client worker processes at an SLO target.

    Exit status: 0 — run sustained the load, every key linearizable, SLO
    met (when ``--slo-p99`` was given); 1 — ops failed, a worker died, the
    checker found a violation, or the SLO was missed; 2 — invalid
    parameters.
    """
    from repro.transport.loadgen import LoadgenSpec, run_loadgen

    try:
        spec = LoadgenSpec(
            clients=args.clients,
            rate=args.rate,
            num_ops=args.ops,
            num_keys=args.keys,
            read_fraction=args.read_fraction,
            algorithm=args.algorithm,
            replicas=args.replicas,
            codec=args.codec,
            write_batching=args.codec == "binary",
            seed=args.seed,
            slo_p99=args.slo_p99,
            timeout=args.timeout,
        )
    except ValueError as exc:
        print(f"invalid loadgen parameters: {exc}", file=sys.stderr)
        return 2
    result = run_loadgen(spec)
    report = result.check_linearizability()
    slo = result.slo_report()

    def _ms(value: Optional[float]) -> str:
        return "-" if value is None else f"{value * 1000.0:.1f} ms"

    rows = [
        ["client workers x replicas", f"{spec.clients} x {spec.replicas} ({spec.algorithm})"],
        ["wire codec", spec.codec],
        ["offered load (ops/second)", spec.rate],
        ["achieved (ops/second)", round(slo["achieved_rate"], 1) if slo["achieved_rate"] else "-"],
        ["operations completed", f"{result.completed} / {spec.num_ops}"],
        ["operations failed", result.failed],
        ["worker errors", len(result.worker_errors)],
        ["wall seconds", round(result.wall_seconds, 2)],
        ["wall p50 / p95 / p99", f"{_ms(slo['p50'])} / {_ms(slo['p95'])} / {_ms(slo['p99'])}"],
        ["p99 SLO target", _ms(slo["target_p99"]) if slo["target_p99"] is not None else "none (report only)"],
        ["per-key linearizable", _verdict_cell(report)],
    ]
    print(
        format_table(
            ["metric", "value"],
            rows,
            title=(
                f"loadgen [live]: {spec.clients} workers @ {spec.rate:g}/s, "
                f"{spec.num_ops} ops"
            ),
        )
    )
    for error in result.worker_errors:
        print(f"worker error: {error}", file=sys.stderr)
    if not report.ok:
        print("\nper-key linearizability violations:", file=sys.stderr)
        for violation in report.violations():
            print(f"  - {violation}", file=sys.stderr)
    if report.operations_checked == 0:
        print(f"\n{_NOTHING_CHECKED}", file=sys.stderr)
    ok = slo["ok"] and report.ok and report.operations_checked > 0 and result.finished_cleanly
    if not ok:
        print("\nloadgen run FAILED its gates", file=sys.stderr)
    return 0 if ok else 1


def cmd_store(args: argparse.Namespace) -> int:
    """Run a keyed workload against the sharded multi-key store."""
    from repro.sim.rng import make_rng
    from repro.workloads.kv import CrashPoint, run_kv_workload
    from repro.workloads.scenarios import kv_uniform, kv_zipfian

    if args.ops < 1:
        print(
            f"invalid store parameters: --ops must be at least 1, got {args.ops}",
            file=sys.stderr,
        )
        return 2
    if args.replicas is not None:
        # `--replicas` is the live-transport wording for `--replication`;
        # both set the per-shard replica count on either backend.
        args.replication = args.replicas
    if args.transport == "live":
        return _cmd_store_live(args)
    if args.codec is not None:
        print(
            "--codec selects the live wire format; the simulated transport has "
            "no wire (see `repro transports`)",
            file=sys.stderr,
        )
        return 2
    builder = kv_zipfian if args.dist == "zipfian" else kv_uniform
    shard_algorithms = None
    if args.algorithms:
        names = tuple(name.strip() for name in args.algorithms.split(",") if name.strip())
        if not names:
            print("--algorithms needs at least one algorithm name", file=sys.stderr)
            return 2
        unknown = [name for name in names if name not in available_algorithms()]
        if unknown:
            print(
                f"unknown algorithm(s) {unknown} in --algorithms; "
                f"available: {available_algorithms()}",
                file=sys.stderr,
            )
            return 2
        # Round-robin the listed algorithms over the shards.
        shard_algorithms = tuple(names[shard % len(names)] for shard in range(args.shards))
    try:
        spec = builder(
            num_keys=args.keys,
            num_ops=args.ops,
            read_fraction=args.read_fraction,
            algorithm=args.algorithm,
            num_shards=args.shards,
            replication=args.replication,
            batch_size=args.batch,
            seed=args.seed,
        )
        if shard_algorithms is not None:
            spec = spec.with_(shard_algorithms=shard_algorithms)
        if args.no_coalesce:
            spec = spec.with_(coalesce=False)
        if args.arrival != "closed":
            # Open-loop driving: the same key/op stream, arriving at seeded
            # times with mean rate --rate instead of batched submission.
            spec = spec.with_(arrival=args.arrival, arrival_rate=args.rate)
    except ValueError as exc:
        print(f"invalid store parameters: {exc}", file=sys.stderr)
        return 2
    if args.crashes < 0:
        print(f"--crashes must be non-negative, got {args.crashes}", file=sys.stderr)
        return 2
    if args.crashes:
        budget = (args.replication - 1) // 2
        if budget < 1:
            print(
                f"--crashes requires replication >= 3 (replication {args.replication} "
                "tolerates no crashes)",
                file=sys.stderr,
            )
            return 2
        if args.crashes > args.shards:
            print(
                f"--crashes {args.crashes} exceeds the number of shards ({args.shards}); "
                "each crash takes down one non-writer replica of a distinct shard",
                file=sys.stderr,
            )
            return 2
        rng = make_rng(args.seed, "store-cli-crashes", args.shards, args.crashes)
        shards = sorted(rng.sample(range(args.shards), args.crashes))
        # Crash early in the run: batched driving finishes a few hundred ops
        # within a handful of virtual-time units, so a wide window would let
        # crashes silently land after the run already completed.
        spec = spec.with_(
            crash_points=tuple(
                CrashPoint(at_time=round(rng.uniform(1.0, 4.0), 3), shard=shard, replica=1)
                for shard in shards
            )
        )
    try:
        result = run_kv_workload(spec)
    except ValueError as exc:
        print(f"invalid store parameters: {exc}", file=sys.stderr)
        return 2
    crashes_fired = sum(len(shard.crashed_replicas) for shard in result.store.shards)
    report = result.check_atomicity(raise_on_violation=False)
    completed = result.completed_ops()
    reads = sum(1 for op in completed if op.kind is OperationKind.READ)
    rows = [
        ["keys / shards / replication", f"{args.keys} / {args.shards} / {args.replication}"],
        [
            "per-shard algorithms",
            ", ".join(
                f"s{shard}={name}" for shard, name in enumerate(spec.shard_algorithms)
            )
            if spec.shard_algorithms
            else args.algorithm,
        ],
        [
            "message coalescing",
            f"on ({result.store.stats.messages_coalesced} coalesced)"
            if spec.coalesce
            else "off",
        ],
        ["operations completed", f"{len(completed)} ({reads} reads)"],
        ["operations failed", len(result.failed_ops())],
        ["server crashes fired", f"{crashes_fired} of {args.crashes} requested"],
        ["batches driven", result.batches],
        ["total messages", result.total_messages()],
        ["virtual makespan", round(result.virtual_makespan, 2)],
        ["ops per virtual time unit", round(result.virtual_throughput(), 3)],
        ["mean op latency (virtual)", round(result.mean_latency(), 3)],
        ["per-key atomic", _verdict_cell(report)],
    ]
    if not result.finished_cleanly:
        rows.insert(3, ["finished cleanly", "NO (virtual-time budget truncated the run)"])
    if spec.open_loop:
        rows.insert(4, ["offered load (ops/time-unit)", args.rate])
    print(
        format_table(
            ["metric", "value"],
            rows,
            title=(
                f"store: {args.algorithm}, {args.ops} ops, {args.dist} keys"
                + (f", {args.arrival} arrivals @ {args.rate}" if spec.open_loop else "")
                + (f", {args.crashes} crash(es)" if args.crashes else "")
            ),
        )
    )
    print()
    print(format_metrics(result.metrics, title="operation latency (virtual time)"))
    if not report.ok:
        print("\nper-key atomicity violations:", file=sys.stderr)
        for violation in report.violations():
            print(f"  - {violation}", file=sys.stderr)
        return 1
    if report.operations_checked == 0:
        print(f"\n{_NOTHING_CHECKED}", file=sys.stderr)
        return 1
    if not result.finished_cleanly:
        print(
            "\nrun truncated: the virtual-time budget expired with operations "
            "unsubmitted or pending (raise --ops horizon via the spec's "
            "max_virtual_time, or the offered --rate)",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_bench_live(args: argparse.Namespace) -> int:
    """Live-transport fast-path benchmark: JSON baseline vs binary+batching.

    Emits ``BENCH_live_throughput.json`` — a separate artifact from the
    simulated baselines, because its numbers are wall-clock and therefore
    machine-dependent by design.  The headline metric is
    ``speedup_vs_json``: steady-state ops/s of the binary-codec,
    write-batched wire over the PR 8 JSON-per-frame wire on the same
    multi-writer op mix.  Every constituent run must pass the per-key
    linearizability checker or the benchmark refuses to report.
    """
    import json
    import pathlib
    import platform

    from repro.transport.bench import FULL_MIX, QUICK_MIX, run_pair

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    mode = "quick" if args.quick else "full"

    def _section(mix: dict, runs: int) -> dict:
        baseline, fast, speedup = run_pair(mix, runs=runs)
        return {
            "mix": dict(mix),
            "runs_per_arm": runs,
            "baseline_json": baseline,
            "fastpath_binary": fast,
            "speedup_vs_json": speedup,
        }

    try:
        # The quick section rides along on full runs so the committed
        # artifact carries a reference for the regression guard's --quick
        # path; a --quick invocation measures only the quick mix.
        sections = {"quick": _section(QUICK_MIX, 2)}
        if not args.quick:
            sections["full"] = _section(FULL_MIX, 3)
    except RuntimeError as exc:
        print(f"live benchmark failed: {exc}", file=sys.stderr)
        return 1

    headline = sections.get("full", sections["quick"])
    payload = {
        "benchmark": "live_fastpath_throughput",
        "mode": mode,
        "transport": "live",
        "replicas": 3,
        "speedup_vs_json": headline["speedup_vs_json"],
        **sections,
        "python": platform.python_version(),
    }
    path = out_dir / "BENCH_live_throughput.json"
    path.write_text(json.dumps(payload, indent=1, allow_nan=False) + "\n")
    rows = []
    for entry in (headline["baseline_json"], headline["fastpath_binary"]):
        rows.append(
            [
                f"{entry['codec']} codec, {'batched' if entry['write_batching'] else 'per-frame'}",
                entry["completed"],
                entry["steady_ops_per_s"],
                entry["frames_per_flush"],
                entry["client_bytes_per_op"],
            ]
        )
    rows.append(["speedup (fast / baseline)", "", f"{headline['speedup_vs_json']:.2f}x", "", ""])
    print(
        format_table(
            ["wire", "ops", "steady ops/s", "frames/flush", "client bytes/op"],
            rows,
            title=f"live fast-path throughput ({mode}) -> {path}",
        )
    )
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """Run the perf suite and emit ``BENCH_*.json`` baselines.

    Two payloads: ``BENCH_store_throughput.json`` (batched vs per-operation
    driving on the same keyed workload) and ``BENCH_openloop.json``
    (throughput and latency percentiles vs offered load).  ``--quick`` keeps
    CI smoke runs short.  With ``--transport live`` the suite instead
    benchmarks the loopback socket cluster (``BENCH_live_throughput.json``).
    """
    import json
    import pathlib
    import platform

    if args.transport == "live":
        return _cmd_bench_live(args)

    from repro.workloads.kv import run_kv_workload
    from repro.workloads.scenarios import kv_openloop, kv_uniform

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    mode = "quick" if args.quick else "full"
    num_ops = 120 if args.quick else 400
    num_keys = 16 if args.quick else 32

    # --- batched vs per-operation driving -------------------------------
    spec = kv_uniform(num_keys=num_keys, num_ops=num_ops, seed=19)
    batched = run_kv_workload(spec.with_(batch_size=64))
    per_op = run_kv_workload(spec.with_(batch_size=1))
    batched.check_atomicity()
    per_op.check_atomicity()

    def _throughput_entry(result) -> dict:
        return {
            "completed": len(result.completed_ops()),
            "virtual_makespan": round(result.virtual_makespan, 3),
            "virtual_throughput": _json_number(result.virtual_throughput()),
            "wall_seconds": round(result.wall_seconds, 4),
            "messages": result.total_messages(),
            "latency": result.metrics["latency"]["all"],
        }

    store_payload = {
        "benchmark": "store_throughput_batched_vs_per_op",
        "mode": mode,
        "num_keys": num_keys,
        "num_ops": num_ops,
        "batched": _throughput_entry(batched),
        "per_op": _throughput_entry(per_op),
        "makespan_speedup": round(
            per_op.virtual_makespan / max(batched.virtual_makespan, 1e-9), 2
        ),
        "python": platform.python_version(),
    }
    store_path = out_dir / "BENCH_store_throughput.json"
    store_path.write_text(json.dumps(store_payload, indent=1, allow_nan=False) + "\n")
    print(
        format_table(
            ["driving", "ops", "virtual makespan", "ops / virtual time"],
            [
                ["batched (64)", len(batched.completed_ops()), round(batched.virtual_makespan, 1), round(batched.virtual_throughput(), 2)],
                ["per-op (1)", len(per_op.completed_ops()), round(per_op.virtual_makespan, 1), round(per_op.virtual_throughput(), 2)],
            ],
            title=f"store throughput ({mode}) -> {store_path}",
        )
    )

    # --- open-loop: throughput vs offered load --------------------------
    rates = (2.0, 8.0) if args.quick else (2.0, 4.0, 8.0, 16.0)
    sweep = []
    rows = []
    for rate in rates:
        result = run_kv_workload(
            kv_openloop(num_keys=num_keys, num_ops=num_ops, arrival_rate=rate, seed=8)
        )
        result.check_atomicity()
        latency = result.metrics["latency"]["all"]
        sweep.append(
            {
                "offered_load": rate,
                "completed": len(result.completed_ops()),
                "virtual_throughput": _json_number(result.virtual_throughput()),
                "p50": round(latency["p50"], 3) if latency else None,
                "p99": round(latency["p99"], 3) if latency else None,
            }
        )
        rows.append(
            [rate, len(result.completed_ops()), round(result.virtual_throughput(), 2),
             round(latency["p50"], 2) if latency else "-", round(latency["p99"], 2) if latency else "-"]
        )
    openloop_payload = {
        "benchmark": "kv_openloop_offered_load_sweep",
        "mode": mode,
        "num_keys": num_keys,
        "num_ops": num_ops,
        "arrival": "poisson",
        "sweep": sweep,
        "python": platform.python_version(),
    }
    openloop_path = out_dir / "BENCH_openloop.json"
    openloop_path.write_text(json.dumps(openloop_payload, indent=1, allow_nan=False) + "\n")
    print()
    print(
        format_table(
            ["offered load", "completed", "throughput", "p50", "p99"],
            rows,
            title=f"open-loop sweep ({mode}) -> {openloop_path}",
        )
    )
    return 0


def _consensus_invariant_violations(store) -> Optional[list]:
    """Agreement/validity violations off a store's consensus replicas.

    Returns ``None`` when the store deploys no consensus-backed keys — the
    caller then skips the invariant row entirely instead of claiming a
    vacuous pass.
    """
    from repro.consensus import ConsensusObjectProcess, consensus_invariants

    by_key = {}
    for key in store.deployed_keys:
        processes = [
            process
            for process in store.register_for(key).processes
            if isinstance(process, ConsensusObjectProcess)
        ]
        if processes:
            by_key[key] = processes
    if not by_key:
        return None
    return consensus_invariants(by_key)


def cmd_consensus(args: argparse.Namespace) -> int:
    """Run a consensus-object scenario; gate on the SMR checker + invariants.

    Runs one of the consensus scenarios (``kv_cas``, ``kv_counter``,
    ``consensus_smoke``) on the simulator or the live loopback cluster,
    checks every key's history against the SMR specification, and — when
    the replica processes are reachable (sim) — verifies the
    protocol-level agreement and validity invariants straight off the
    decided slots.  Exit 0 only if everything holds.
    """
    from repro.workloads.kv import run_kv_workload
    from repro.workloads.scenarios import consensus_smoke, kv_cas, kv_counter

    builders = {"kv_cas": kv_cas, "kv_counter": kv_counter, "consensus_smoke": consensus_smoke}
    builder = builders[args.scenario]
    overrides = {}
    if args.keys is not None:
        overrides["num_keys"] = args.keys
    if args.ops is not None:
        if args.ops < 1:
            print(
                f"invalid consensus parameters: --ops must be at least 1, got {args.ops}",
                file=sys.stderr,
            )
            return 2
        overrides["num_ops"] = args.ops
    if args.seed is not None:
        overrides["seed"] = args.seed
    try:
        spec = builder(**overrides)
        if args.algorithm:
            spec = spec.with_(algorithm=args.algorithm)
        if args.transport == "live":
            spec = spec.with_(transport="live")
    except ValueError as exc:
        print(f"invalid consensus parameters: {exc}", file=sys.stderr)
        return 2
    result = run_kv_workload(spec)

    failures = []
    if args.transport == "live":
        report = result.check_linearizability()
        check_failures = [f"[{key!r}] history fails the SMR spec" for key in report.failing_keys()]
        completed = result.completed
        failed = result.failed
        messages = result.messages_total
        makespan_row = ["wall seconds", round(result.wall_seconds, 2)]
        finished = result.finished_cleanly
        invariants = None
    else:
        report = result.check_atomicity(raise_on_violation=False)
        check_failures = report.violations()
        completed = len(result.completed_ops())
        failed = len(result.failed_ops())
        messages = result.total_messages()
        makespan_row = ["virtual makespan", round(result.virtual_makespan, 2)]
        finished = result.finished_cleanly
        invariants = _consensus_invariant_violations(result.store)
    if not finished:
        failures.append("run did not finish cleanly")
    if report.operations_checked == 0:
        failures.append(_NOTHING_CHECKED)
    failures.extend(check_failures)
    if invariants:
        failures.extend(invariants)

    rows = [
        ["scenario", args.scenario],
        ["algorithm", spec.algorithm],
        ["transport", args.transport],
        ["keys / shards / replication", f"{spec.num_keys} / {spec.num_shards} / {spec.replication}"],
        ["operations completed", completed],
        ["operations failed", failed],
        ["total messages", messages],
        makespan_row,
        ["per-key SMR-linearizable", _verdict_cell(report)],
        [
            "agreement/validity invariants",
            "n/a (no process access)"
            if invariants is None
            else (f"{len(invariants)} violation(s)" if invariants else "hold"),
        ],
    ]
    print(
        format_table(
            ["metric", "value"],
            rows,
            title=f"consensus: {args.scenario} ({spec.algorithm}, seed {spec.seed})",
        )
    )
    if failures:
        print("\nconsensus run failures:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    return 0


def _chaos_schedules(quick: bool):
    """The named fault schedules the chaos sweep crosses with seeds.

    Each entry is ``(name, builder)`` where ``builder(seed)`` returns a
    fully-seeded :class:`~repro.workloads.kv.KVWorkloadSpec` carrying its
    fault plan.  Quick mode keeps CI smoke runs short (2 schedules).
    """
    from repro.faults import FaultPlan, PartitionSchedule, PartitionWindow, slow_the_writer
    from repro.workloads.kv import CrashPoint
    from repro.workloads.scenarios import chaos, consensus_smoke, kv_partitioned, kv_uniform

    num_keys = 8 if quick else 16
    num_ops = 80 if quick else 240
    cons_keys = 4 if quick else 6
    cons_ops = 60 if quick else 120

    def partition_minority(seed: int):
        return kv_partitioned(num_keys=num_keys, num_ops=num_ops, seed=seed)

    def storm(seed: int):
        spec = kv_uniform(num_keys=num_keys, num_ops=num_ops, seed=seed)
        # Replica 0 hosts every key's writer: storm its links in each subnet.
        return spec.with_(
            fault_plan=slow_the_writer(writer_pid=0, factor=6.0, start=2.0, end=25.0)
        )

    def partition_writer(seed: int):
        # Cut the writer replica off instead: puts stall until the heal,
        # reads keep completing on the majority side.
        spec = kv_uniform(num_keys=num_keys, num_ops=num_ops, seed=seed)
        window = PartitionWindow.isolate((0,), spec.replication, start=3.0, heal=14.0)
        plan = FaultPlan(
            name="partition-writer", link_policies=(PartitionSchedule(windows=(window,)),)
        )
        return spec.with_(fault_plan=plan)

    def chaos_random(seed: int):
        return chaos(num_keys=num_keys, num_ops=num_ops, seed=seed)

    def consensus_crash(seed: int):
        # Crash one replica mid-run (t = 1 < n/2 for replication 3): MMR
        # consensus must keep deciding on the surviving n - t quorum, and
        # the cell additionally checks the agreement/validity invariants.
        spec = consensus_smoke(num_keys=cons_keys, num_ops=cons_ops, seed=seed)
        rng_shard = seed % spec.num_shards
        return spec.with_(
            crash_points=(
                CrashPoint(at_time=4.0 + seed, shard=rng_shard, replica=2),
            )
        )

    def consensus_partition(seed: int):
        # Isolate one replica behind a healing partition: its slots stall
        # until the heal, the majority side keeps deciding throughout.
        spec = consensus_smoke(num_keys=cons_keys, num_ops=cons_ops, seed=seed)
        window = PartitionWindow.isolate(
            ((seed % spec.replication),), spec.replication, start=3.0, heal=16.0
        )
        plan = FaultPlan(
            name="consensus-partition",
            link_policies=(PartitionSchedule(windows=(window,)),),
        )
        return spec.with_(fault_plan=plan)

    schedules = [
        ("kv-partitioned", partition_minority),
        ("delay-storm", storm),
        ("consensus-crash", consensus_crash),
    ]
    if not quick:
        schedules.extend(
            [
                ("partition-writer", partition_writer),
                ("chaos", chaos_random),
                ("consensus-partition", consensus_partition),
            ]
        )
    return schedules


def _run_signature(result) -> list:
    """Record-by-record fingerprint of a run (for reproducibility checks)."""
    signature = []
    for op in result.ops:
        record = op.record
        signature.append(
            (
                op.op_id,
                op.kind.value,
                op.key,
                op.value,
                op.failed,
                None
                if record is None
                else (record.invoked_at, record.responded_at, repr(record.result)),
            )
        )
    return signature


def _chaos_cell_payload(payload: tuple) -> dict:
    """Run one chaos-sweep cell; module-level so the process pool can pickle it.

    ``payload`` is ``(schedule_name, seed, quick, want_signature)``.  The cell
    rebuilds its spec from the schedule registry by name (the builders are
    closures, which don't pickle), runs and checks it, and returns the JSON
    entry for ``BENCH_chaos.json`` plus — when ``want_signature`` — the
    record-by-record signature the parent's reproducibility check compares
    against its own re-run of the same cell.
    """
    from repro.workloads.kv import run_kv_workload

    name, seed, quick, want_signature = payload
    spec = dict(_chaos_schedules(quick))[name](seed)
    result = run_kv_workload(spec)
    report = result.check_atomicity(raise_on_violation=False)
    # Consensus cells additionally check the protocol-level invariants
    # (per-slot agreement, validity) straight off the replica processes.
    consensus_violations = _consensus_invariant_violations(result.store)
    entry = {
        "schedule": name,
        "seed": seed,
        "fault_timeline": spec.fault_plan.timeline() if spec.fault_plan else [],
        "server_crashes": [
            {"at": point.at_time, "shard": point.shard, "replica": point.replica}
            for point in spec.crash_points
        ],
        "completed": len(result.completed_ops()),
        "failed": len(result.failed_ops()),
        "atomic": report.ok,
        "keys_checked": report.keys_checked,
        "finished_cleanly": result.finished_cleanly,
        "virtual_makespan": round(result.virtual_makespan, 3),
        "virtual_throughput": _json_number(result.virtual_throughput()),
        "messages": result.total_messages(),
        "per_sender": result.store.stats.snapshot()["per_sender"],
    }
    if consensus_violations is not None:
        entry["consensus_violations"] = consensus_violations
    return {
        "entry": entry,
        "ok": report.ok and result.finished_cleanly and not consensus_violations,
        "signature": _run_signature(result) if want_signature else None,
    }


def cmd_chaos(args: argparse.Namespace) -> int:
    """Sweep seeds x fault schedules; verify every run; emit ``BENCH_chaos.json``.

    Every cell runs the per-key linearizability checker; the sweep also
    re-runs its first cell and verifies the execution is reproducible
    record-by-record (with ``--workers N`` that re-run happens in the parent
    process, so the check doubles as a cross-process determinism probe).  The
    payload is strict JSON (``allow_nan=False``) so downstream consumers can
    parse with ``parse_constant`` forbidden.
    """
    import json
    import pathlib
    import platform

    if args.seeds is not None and args.seeds < 1:
        print(f"--seeds must be at least 1, got {args.seeds}", file=sys.stderr)
        return 2
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    quick = args.quick
    seeds = list(range(args.seeds if args.seeds is not None else (2 if quick else 3)))
    schedules = _chaos_schedules(quick)

    # Cells are independent seeded runs: fan them out over the process pool
    # when --workers asks for it (workers=1 maps in-process), in the exact
    # order the serial sweep uses so the emitted payload is byte-identical
    # either way.
    from repro.parallel import WorkerFailure, run_chunked

    cells = [(name, seed) for name, _ in schedules for seed in seeds]
    payloads = [
        (name, seed, quick, index == 0) for index, (name, seed) in enumerate(cells)
    ]
    try:
        outcomes = run_chunked(_chaos_cell_payload, payloads, args.workers)
    except WorkerFailure as exc:
        print(f"chaos sweep worker failed:\n{exc}", file=sys.stderr)
        return 1

    runs = []
    rows = []
    failures = []
    for (name, seed), outcome in zip(cells, outcomes):
        entry = outcome["entry"]
        runs.append(entry)
        verdict = "ok" if outcome["ok"] else "FAIL"
        if verdict != "ok":
            failures.append(f"{name}/seed={seed}")
        rows.append(
            [
                name,
                seed,
                entry["completed"],
                entry["failed"],
                round(entry["virtual_makespan"], 1),
                "yes" if entry["atomic"] else "NO",
                verdict,
            ]
        )

    # Reproducibility: the same seeded spec must replay record-by-record.
    # The parent re-runs the first cell itself, so under --workers this also
    # certifies that a pool worker's execution matches an in-process one.
    first_name, first_seed = cells[0]
    replay = _chaos_cell_payload((first_name, first_seed, quick, True))
    reproducible = replay["signature"] == outcomes[0]["signature"]
    if not reproducible:
        failures.append(f"{first_name}/seed={first_seed} not reproducible")

    payload = {
        "benchmark": "chaos_fault_schedule_sweep",
        "mode": "quick" if quick else "full",
        "seeds": seeds,
        "schedules": [name for name, _ in schedules],
        "reproducible": reproducible,
        "all_atomic": all(entry["atomic"] for entry in runs),
        "runs": runs,
        "python": platform.python_version(),
    }
    chaos_path = out_dir / "BENCH_chaos.json"
    chaos_path.write_text(json.dumps(payload, indent=1, allow_nan=False) + "\n")
    print(
        format_table(
            ["schedule", "seed", "completed", "failed", "makespan", "atomic", "verdict"],
            rows,
            title=f"chaos sweep ({payload['mode']}) -> {chaos_path}",
        )
    )
    print(f"reproducible (record-by-record): {'yes' if reproducible else 'NO'}")
    if failures:
        print("\nchaos sweep failures:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    return 0


def cmd_explore(args: argparse.Namespace) -> int:
    """Schedule exploration: search schedules, check every run, shrink violations.

    Two modes: ``repro explore --replay file`` replays a counterexample
    artifact and exits 0 iff the recorded violation reproduces; plain
    ``repro explore`` runs seeded schedule search.  A healthy algorithm
    must come back clean (exit 0, non-zero on any violation); with
    ``--expect-violation`` (mutation-testing the pipeline) the exit code
    flips — 0 only if a violation was found, shrunk and its artifact
    replayed.
    """
    import pathlib

    from repro.explore import (
        ExploreConfig,
        available_mutations,
        install_mutations,
        replay_artifact,
        run_exploration,
        write_artifact,
    )

    if args.replay:
        try:
            result = replay_artifact(args.replay)
        except (OSError, ValueError) as exc:
            print(f"cannot replay {args.replay}: {exc}", file=sys.stderr)
            return 2
        print(f"replaying {args.replay}: {len(result.case.ops)} ops on {result.case.algorithm}")
        print(f"expected failing keys: {result.expected_keys}")
        print(f"observed failing keys: {result.failing_keys}")
        for violation in result.violations:
            print(f"  - {violation}")
        print(f"reproduced: {'yes' if result.reproduced else 'NO'}")
        return 0 if result.reproduced else 1

    known = available_algorithms() + available_mutations()
    if args.algorithm not in known:
        print(
            f"unknown algorithm {args.algorithm!r}; available: {known} "
            "(mutants are installed on demand)",
            file=sys.stderr,
        )
        return 2
    if args.algorithm in available_mutations():
        install_mutations()
    from repro.registers.registry import get_algorithm

    op_mix = None
    if args.op_mix:
        try:
            op_mix = tuple(
                (kind.strip(), float(weight))
                for kind, _, weight in (
                    entry.partition("=") for entry in args.op_mix.split(",") if entry.strip()
                )
            )
        except ValueError as exc:
            print(f"invalid --op-mix {args.op_mix!r}: {exc}", file=sys.stderr)
            return 2
    smr = get_algorithm(args.algorithm).spec == "smr"
    if smr and op_mix is None:
        # Consensus objects: explore the kinds whose results the SMR spec
        # constrains, starting from an empty store so cas chains from "unset".
        op_mix = (("read", 0.40), ("cas", 0.40), ("write", 0.20))
    try:
        config = ExploreConfig(
            strategy=args.strategy,
            budget=8 if args.quick else args.budget,
            seed=args.seed,
            algorithm=args.algorithm,
            num_keys=4 if args.quick else args.keys,
            num_ops=48 if args.quick else args.ops,
            read_fraction=args.read_fraction,
            num_shards=args.shards,
            replication=args.replication,
            op_mix=op_mix,
            initial_value=None if smr else "v0",
            perturb_rate=args.perturb_rate,
            perturb_amplitude=args.perturb_amplitude,
            workers=args.workers,
        )
        report = run_exploration(config)
    except (KeyError, ValueError) as exc:
        print(f"invalid exploration parameters: {exc}", file=sys.stderr)
        return 2

    rows = [
        ["strategy", config.strategy],
        ["schedules explored", report.cases_run],
        ["operations checked", report.operations_checked],
        ["checker states explored", report.states_explored],
        ["violations found", len(report.counterexamples)],
        ["wall seconds", round(report.wall_seconds, 2)],
    ]
    print(
        format_table(
            ["metric", "value"],
            rows,
            title=f"explore: {args.algorithm}, budget {config.budget}, seed {config.seed}",
        )
    )
    out_dir = pathlib.Path(args.out_dir)
    replay_failures = []
    for index, example in enumerate(report.counterexamples, start=1):
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"explore_counterexample_{index}.json"
        write_artifact(example, path)
        print(
            f"\ncounterexample #{index}: {len(example.original_case.ops)} ops shrunk to "
            f"{example.op_count} (perturbation {len(example.original_case.perturbation)} -> "
            f"{len(example.case.perturbation)} entries), keys {example.failing_keys}"
        )
        for violation in example.violations:
            print(f"  - {violation}")
        print(f"  artifact: {path} (replayed: {'yes' if example.replayed else 'NO'})")
        if not example.replayed:
            replay_failures.append(str(path))
    if replay_failures:
        print("\nnon-replayable artifacts:", file=sys.stderr)
        for path in replay_failures:
            print(f"  - {path}", file=sys.stderr)
        return 1
    if args.expect_violation:
        if not report.counterexamples:
            print(
                "\nexpected the explorer to find a violation (mutation test), "
                "but every explored schedule was linearizable",
                file=sys.stderr,
            )
            return 1
        return 0
    if report.counterexamples:
        print(
            f"\n{len(report.counterexamples)} non-linearizable execution(s) found",
            file=sys.stderr,
        )
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction harness for the two-bit atomic-register paper (Mostefaoui & Raynal 2016)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    sub = subparsers.add_parser(
        "algorithms", help="list registered register algorithms and their capabilities"
    )
    sub.set_defaults(handler=cmd_algorithms)

    sub = subparsers.add_parser(
        "scenarios", help="list canned workload scenarios (register + store)"
    )
    sub.set_defaults(handler=cmd_scenarios)

    sub = subparsers.add_parser(
        "transports", help="list message-transport backends (simulator, live sockets)"
    )
    sub.set_defaults(handler=cmd_transports)

    sub = subparsers.add_parser("table1", help="regenerate the paper's Table 1")
    sub.add_argument("--n", type=int, default=5)
    sub.add_argument("--writes", type=int, default=30)
    sub.add_argument("--seed", type=int, default=0)
    sub.set_defaults(handler=cmd_table1)

    sub = subparsers.add_parser("run", help="run one workload and check atomicity")
    sub.add_argument("--algorithm", default="two-bit", choices=available_algorithms())
    _add_common_workload_arguments(sub)
    sub.set_defaults(handler=cmd_run)

    sub = subparsers.add_parser("compare", help="run the same workload under every executable algorithm")
    _add_common_workload_arguments(sub)
    sub.set_defaults(handler=cmd_compare)

    sub = subparsers.add_parser("bits", help="control-bit and memory growth curves")
    sub.add_argument("--n", type=int, default=5)
    sub.add_argument("--writes", type=int, default=200)
    sub.add_argument("--seed", type=int, default=0)
    sub.set_defaults(handler=cmd_bits)

    sub = subparsers.add_parser("messages", help="exact per-operation message counts (Theorem 2)")
    sub.add_argument("--n", type=int, default=5)
    sub.add_argument("--seed", type=int, default=0)
    sub.set_defaults(handler=cmd_messages)

    sub = subparsers.add_parser(
        "store", help="run a keyed workload against the sharded multi-key store"
    )
    sub.add_argument("--keys", type=int, default=16, help="number of distinct keys (default 16)")
    sub.add_argument("--ops", type=int, default=400, help="total operations (default 400)")
    sub.add_argument(
        "--read-fraction",
        type=float,
        default=0.9,
        dest="read_fraction",
        help="fraction of operations that are gets (default 0.9)",
    )
    sub.add_argument(
        "--dist",
        choices=["uniform", "zipfian"],
        default="uniform",
        help="key popularity distribution (default uniform)",
    )
    sub.add_argument(
        "--algorithm",
        default="abd",
        choices=available_algorithms(),
        help="per-key register algorithm (default abd)",
    )
    sub.add_argument("--shards", type=int, default=4, help="number of shards (default 4)")
    sub.add_argument(
        "--replication", type=int, default=3, help="replicas per shard (default 3)"
    )
    sub.add_argument(
        "--batch", type=int, default=64, help="operations per drive() batch (default 64)"
    )
    sub.add_argument(
        "--arrival",
        choices=["closed", "poisson", "uniform"],
        default="closed",
        help="traffic model: closed-loop batches (default) or open-loop arrivals",
    )
    sub.add_argument(
        "--rate",
        type=float,
        default=8.0,
        help="open-loop offered load in ops per virtual-time unit (default 8.0)",
    )
    sub.add_argument(
        "--crashes",
        type=int,
        default=0,
        help="crash one non-writer replica of this many distinct shards mid-run",
    )
    sub.add_argument(
        "--algorithms",
        default="",
        help=(
            "comma-separated register algorithms mapped round-robin onto shards "
            "(mixed-algorithm store; overrides --algorithm)"
        ),
    )
    sub.add_argument(
        "--no-coalesce",
        action="store_true",
        dest="no_coalesce",
        help="disable same-instant message coalescing (one heap event per message)",
    )
    sub.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    sub.add_argument(
        "--transport",
        choices=["sim", "live"],
        default="sim",
        help=(
            "message transport: deterministic virtual-time simulator (default) "
            "or live asyncio sockets on a loopback replica cluster"
        ),
    )
    sub.add_argument(
        "--replicas",
        type=int,
        default=None,
        help="alias for --replication (replica count per shard / live cluster size)",
    )
    sub.add_argument(
        "--codec",
        choices=["binary", "json"],
        default=None,
        help=(
            "live-transport wire codec: binary (struct-packed fast path, "
            "default) or json (the PR 8 wire; also disables write batching "
            "for a faithful baseline).  Live transport only."
        ),
    )
    sub.set_defaults(handler=cmd_store)

    sub = subparsers.add_parser(
        "loadgen",
        help="multi-process SLO load generator against a live loopback cluster",
    )
    sub.add_argument(
        "--clients", type=int, default=4, help="client worker processes (default 4)"
    )
    sub.add_argument(
        "--rate",
        type=float,
        default=5000.0,
        help="aggregate open-loop Poisson arrival rate, ops/second (default 5000)",
    )
    sub.add_argument(
        "--ops", type=int, default=50_000, help="total operations across workers (default 50000)"
    )
    sub.add_argument("--keys", type=int, default=64, help="distinct keys (default 64)")
    sub.add_argument(
        "--read-fraction",
        type=float,
        default=0.9,
        dest="read_fraction",
        help="fraction of operations that are reads (default 0.9)",
    )
    sub.add_argument(
        "--algorithm",
        default="abd-mwmr",
        choices=available_algorithms(),
        help="register algorithm under load (default abd-mwmr)",
    )
    sub.add_argument(
        "--replicas", type=int, default=3, help="replica processes (default 3)"
    )
    sub.add_argument(
        "--codec",
        choices=["binary", "json"],
        default="binary",
        help="wire codec (default binary; json also disables write batching)",
    )
    sub.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    sub.add_argument(
        "--slo-p99",
        type=float,
        default=None,
        dest="slo_p99",
        help="p99 wall-latency SLO in seconds (default: report only, no gate)",
    )
    sub.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        help="hard wall deadline for the whole run in seconds (default 300)",
    )
    sub.set_defaults(handler=cmd_loadgen)

    sub = subparsers.add_parser(
        "chaos",
        help="sweep seeds x fault schedules (partitions, storms) and verify every run",
    )
    sub.add_argument("--quick", action="store_true", help="2 seeds x 2 schedules for CI smoke")
    sub.add_argument(
        "--seeds",
        type=int,
        default=None,
        help="number of seeds per schedule (default: 2 quick, 3 full)",
    )
    sub.add_argument(
        "--out-dir",
        default=".",
        dest="out_dir",
        help="directory for BENCH_chaos.json (default: current directory)",
    )
    sub.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the sweep's cells (default 1; same payload)",
    )
    sub.set_defaults(handler=cmd_chaos)

    sub = subparsers.add_parser(
        "consensus",
        help="run a consensus-object scenario and gate on the SMR checker + invariants",
    )
    sub.add_argument(
        "--scenario",
        default="consensus_smoke",
        choices=["consensus_smoke", "kv_cas", "kv_counter"],
        help="which consensus scenario to run (default consensus_smoke)",
    )
    sub.add_argument(
        "--keys", type=int, default=None, help="override the scenario's key count"
    )
    sub.add_argument(
        "--ops", type=int, default=None, help="override the scenario's operation count"
    )
    sub.add_argument(
        "--algorithm",
        default="",
        help="override the scenario's consensus algorithm (e.g. mmr-cas-localcoin)",
    )
    sub.add_argument("--seed", type=int, default=None, help="override the scenario's seed")
    sub.add_argument(
        "--transport",
        choices=["sim", "live"],
        default="sim",
        help="simulator (default) or live asyncio loopback cluster",
    )
    sub.set_defaults(handler=cmd_consensus)

    sub = subparsers.add_parser(
        "explore",
        help="schedule exploration: search schedules, check every run, shrink violations",
    )
    sub.add_argument(
        "--strategy",
        default="random-walk",
        choices=["random-walk", "crash-sweep", "partition-sweep"],
        help="schedule search strategy (default random-walk)",
    )
    sub.add_argument("--budget", type=int, default=20, help="schedules to explore (default 20)")
    sub.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    sub.add_argument(
        "--algorithm",
        default="abd",
        help=(
            "register algorithm, including explorer mutants such as "
            "abd-sloppy-write (installed on demand)"
        ),
    )
    sub.add_argument("--keys", type=int, default=6, help="key population (default 6)")
    sub.add_argument("--ops", type=int, default=80, help="operations per schedule (default 80)")
    sub.add_argument(
        "--read-fraction",
        type=float,
        default=0.75,
        dest="read_fraction",
        help="fraction of operations that are gets (default 0.75)",
    )
    sub.add_argument("--shards", type=int, default=2, help="number of shards (default 2)")
    sub.add_argument(
        "--replication", type=int, default=3, help="replicas per shard (default 3)"
    )
    sub.add_argument(
        "--op-mix",
        default="",
        dest="op_mix",
        help=(
            "weighted operation mix, e.g. 'read=0.5,cas=0.5' (kinds: read, "
            "write, cas, tas, incr).  Defaults to read/write via "
            "--read-fraction; SMR algorithms default to a cas-heavy mix"
        ),
    )
    sub.add_argument(
        "--perturb-rate",
        type=float,
        default=0.5,
        dest="perturb_rate",
        help="fraction of messages perturbed per schedule (default 0.5)",
    )
    sub.add_argument(
        "--perturb-amplitude",
        type=float,
        default=4.0,
        dest="perturb_amplitude",
        help="delay multipliers drawn from [0.05, 1 + amplitude] (default 4.0)",
    )
    sub.add_argument("--quick", action="store_true", help="small budget/sizes for CI smoke")
    sub.add_argument(
        "--expect-violation",
        action="store_true",
        dest="expect_violation",
        help="mutation test: exit 0 only if a violation is found, shrunk and replayed",
    )
    sub.add_argument(
        "--replay",
        default="",
        help="replay a counterexample artifact instead of exploring",
    )
    sub.add_argument(
        "--out-dir",
        default=".",
        dest="out_dir",
        help="directory for counterexample artifacts (default: current directory)",
    )
    sub.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the explored cases (default 1; same verdicts)",
    )
    sub.set_defaults(handler=cmd_explore)

    sub = subparsers.add_parser(
        "bench", help="run the perf suite and emit BENCH_*.json baselines"
    )
    sub.add_argument("--quick", action="store_true", help="small sizes for CI smoke runs")
    sub.add_argument(
        "--out-dir",
        default=".",
        dest="out_dir",
        help="directory for the BENCH_*.json files (default: current directory)",
    )
    sub.add_argument(
        "--transport",
        choices=["sim", "live"],
        default="sim",
        help=(
            "benchmark the simulator baselines (default) or the live loopback "
            "socket cluster (BENCH_live_throughput.json)"
        ),
    )
    sub.set_defaults(handler=cmd_bench)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
