"""Checker scalability benchmark: ≥5 000-operation histories, end to end.

The original linearizability checker was a recursive backtracking search
hard-capped at **64 operations** — full ``kv_openloop`` and ``chaos``
histories were effectively unverifiable with it.  The rewritten checker
(:func:`repro.verification.linearizability.check_linearizability`) is an
iterative Wing–Gong search with memoized visited states, greedy read
linearization and per-key partitioning (P-compositionality), and has no
operation cap.  This benchmark proves the claim on real store runs:

* a **5 000-operation** ``kv_openloop`` run over 32 keys, every key checked
  with the Wing–Gong engine (the SWMR claims fast path is *disabled* so
  the search core itself is what scales);
* a **2 000-operation single-key** open-loop run — the worst case for
  per-key partitioning (no partitioning help at all);
* the old reference oracle (:func:`brute_force_is_linearizable`) is invoked
  on the same histories to demonstrate the cap it used to impose;
* the fast-path report (claims checker on SWMR keys) cross-checks the
  Wing–Gong verdicts: both must accept every key.

All gated metrics are **virtual-time deterministic** (operation counts,
state counts, verdicts), so ``benchmarks/check_bench_regression.py`` can
re-derive them exactly on any machine; wall-clock numbers are reported but
not gated.

Run modes:

* ``python benchmarks/bench_checker.py`` — full run; writes the committed
  ``BENCH_checker.json``.
* ``python benchmarks/bench_checker.py --quick`` — CI smoke (small sizes,
  no baseline write).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys
import time
from typing import Optional

if __package__ is None or __package__ == "":  # run as a plain script
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from benchmarks.conftest import report
from repro.verification.linearizability import (
    brute_force_is_linearizable,
    check_histories_per_key,
)
from repro.workloads.kv import run_kv_workload
from repro.workloads.scenarios import kv_openloop

DEFAULT_OUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_checker.json"

#: The committed baseline's workloads: (label, num_keys, num_ops, rate, seed).
FULL_WORKLOADS = (
    ("kv_openloop_5k", 32, 5000, 16.0, 8),
    ("single_key_2k", 1, 2000, 8.0, 3),
)
QUICK_WORKLOADS = (
    ("kv_openloop_quick", 8, 400, 8.0, 8),
    ("single_key_quick", 1, 200, 6.0, 3),
)


def check_run(num_keys: int, num_ops: int, rate: float, seed: int) -> dict:
    """Run one open-loop store workload and check it with both engines."""
    spec = kv_openloop(num_keys=num_keys, num_ops=num_ops, arrival_rate=rate, seed=seed)
    started = time.perf_counter()
    result = run_kv_workload(spec)
    run_wall = time.perf_counter() - started
    assert result.finished_cleanly, "open-loop run was truncated"
    histories = result.store.histories()

    started = time.perf_counter()
    wing_gong = check_histories_per_key(histories, swmr_fast_path=False)
    check_wall = time.perf_counter() - started
    assert wing_gong.ok, f"Wing-Gong checker rejected a healthy run: {wing_gong.violations()}"

    fast = check_histories_per_key(histories, swmr_fast_path=True)
    assert fast.ok, f"claims fast path rejected a healthy run: {fast.violations()}"
    assert fast.states_explored == 0, "SWMR keys must take the claims fast path"

    # The old oracle refuses exactly the histories the new checker handles.
    largest = max(histories.values(), key=len)
    cap_demonstrated = False
    if len(largest) > 64:
        try:
            brute_force_is_linearizable(largest.to_history(), max_operations=64)
        except ValueError:
            cap_demonstrated = True
    return {
        "num_keys": num_keys,
        "num_ops": num_ops,
        "arrival_rate": rate,
        "seed": seed,
        "completed": len(result.completed_ops()),
        "keys_checked": wing_gong.keys_checked,
        "operations_checked": wing_gong.operations_checked,
        "max_key_operations": max(len(history) for history in histories.values()),
        "states_explored": wing_gong.states_explored,
        "linearizable": wing_gong.ok,
        "old_checker_refuses": cap_demonstrated,
        "run_wall_seconds": round(run_wall, 4),
        "check_wall_seconds": round(check_wall, 4),
    }


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke sizes")
    parser.add_argument(
        "--out", default=str(DEFAULT_OUT), help="baseline path (full mode only)"
    )
    args = parser.parse_args(argv)
    workloads = QUICK_WORKLOADS if args.quick else FULL_WORKLOADS

    entries = {}
    rows = []
    for label, num_keys, num_ops, rate, seed in workloads:
        entry = check_run(num_keys, num_ops, rate, seed)
        entries[label] = entry
        rows.append(
            [
                label,
                entry["operations_checked"],
                entry["keys_checked"],
                entry["max_key_operations"],
                entry["states_explored"],
                entry["check_wall_seconds"],
                "yes" if entry["old_checker_refuses"] else "n/a",
            ]
        )
    report(
        f"checker scalability ({'quick' if args.quick else 'full'})",
        ["workload", "ops checked", "keys", "max ops/key", "states", "check wall s", "old cap hit"],
        rows,
    )

    if not args.quick:
        biggest = entries[FULL_WORKLOADS[0][0]]
        assert biggest["operations_checked"] >= 5000, "full mode must check >= 5000 ops"
        assert biggest["old_checker_refuses"], "the old 64-op cap must be demonstrated"
        payload = {
            "benchmark": "checker_scalability",
            "mode": "full",
            "old_checker_cap": 64,
            "workloads": entries,
            "python": platform.python_version(),
        }
        out_path = pathlib.Path(args.out)
        out_path.write_text(json.dumps(payload, indent=1, allow_nan=False) + "\n")
        print(f"\nbaseline -> {out_path}")
    return 0


def test_checker_bench_quick():
    """CI smoke: the quick benchmark must run green."""
    assert main(["--quick"]) == 0


if __name__ == "__main__":
    sys.exit(main())
