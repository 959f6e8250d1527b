"""Repeatability sweep: run every workload on many seeds and record the spread.

Usage (from the repository root)::

    python3 perfbench/prove.py                      # 10 seeds x 4 workloads
    python3 perfbench/prove.py --workloads live_register --seeds 5

For each workload this runs ``run.py --trace 0`` once per seed (seeds 1..N)
and ``run.py --trace 1`` once on seed 1, then reports every end-to-end
metric's median, quartiles and spread (interquartile distance over the
median, as ``statistics.quantiles(values, n=4)`` gives them) against the
bound in ``BENCHMARK.json``.  A spread above a third of its bound is
flagged (``setup_s`` excepted: its spread is not gated, only its median).
``--out`` writes the figures with their provenance (cpus, python, machine,
commit) and the held-out seed, which no tuning run used, so that a later
claim can be re-checked on a seed it was not written against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Never passed to run.py while the benchmark was tuned.
HELD_OUT_SEED = 7919


def run_once(workload: str, seed: int, seconds: int, trace: int) -> Dict[str, Any]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=180,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} failed:\n{out.stdout}{out.stderr}")
    return json.loads(lines[-1])


def summarize(values: List[float]) -> Dict[str, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
    }


def git_commit() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def main(argv: Optional[List[str]] = None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import bench_sim
    from run import largest_layer

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    seconds = config["run_seconds"]
    why = {w["name"]: w["why"] for w in config["workloads"]}
    seeds = list(range(1, args.seeds + 1))
    steady = True
    report: Dict[str, Any] = {}
    for workload in args.workloads.split(","):
        started = time.perf_counter()
        runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
        traced = run_once(workload, seeds[0], seconds, 1)
        if not all(run["correct"] and run["failed"] == 0 for run in runs + [traced]):
            print(f"{workload}: a run failed its verdict")
            steady = False
        per_layer = {name: m["value"] for name, m in traced["metrics"].items()}
        metrics = {}
        print(f"{workload}  ({time.perf_counter() - started:.0f} s for {len(runs) + 1} runs)")
        for name, bound in bounds.items():
            values = [run["metrics"][name]["value"] for run in runs]
            figures = summarize(values)
            flag = ""
            if name != "setup_s" and figures["spread"] > bound / 3:
                flag = "  <-- above a third of the bound: " + " ".join(f"{v:.4g}" for v in values)
                steady = False
            print(f"  {name:22s} median {figures['median']:14.6f}  spread {figures['spread']:.4f}"
                  f"  bound {bound}{flag}")
            metrics[name] = {"unit": runs[0]["metrics"][name]["unit"], "bound": bound, **figures}
        report[workload] = {
            "why": why[workload],
            "seeds": seeds,
            "ops_per_repeat": (
                bench_sim.SIM_WORKLOADS[workload].num_ops
                if workload in bench_sim.SIM_WORKLOADS
                else None
            ),
            "attempted_per_run": [run["attempted"] for run in runs],
            "end_to_end": metrics,
            "per_layer_seed_1": per_layer,
            "largest_layer_seed_1": largest_layer(per_layer),
        }
    if args.out is not None:
        payload = {
            "provenance": {
                "cpus": os.cpu_count(),
                "python": platform.python_version(),
                "machine": platform.machine(),
                "platform": platform.platform(),
                "commit": git_commit(),
                "run_seconds": seconds,
            },
            "held_out_seed": HELD_OUT_SEED,
            "workloads": report,
        }
        args.out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
