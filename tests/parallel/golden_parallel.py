"""Golden store runs: committed reference output for a small spec matrix.

Extends the golden-history coverage of ``tests/workloads``:
``golden_parallel.json`` pins the output of store runs — per-key histories,
makespan, message totals, clean-finish flags — for a matrix spanning both
driving loops and a fault-plan run.  The file and its case names date from
the retired shard-parallel engine (whose merged output had to match it);
the data was always generated by single-process runs, which is what every
case is now checked against.

Regenerate (only if the spec matrix itself changes, never to paper over a
history drift):

    PYTHONPATH=src python tests/parallel/golden_parallel.py
"""

from __future__ import annotations

import json
import pathlib
from typing import Any

from repro.workloads.kv import KVWorkloadSpec, run_kv_workload
from repro.workloads.scenarios import chaos, kv_openloop, kv_partitioned, kv_uniform, kv_zipfian

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_parallel.json")


def golden_cases() -> dict[str, KVWorkloadSpec]:
    """The spec matrix (name -> spec)."""
    return {
        "kv-uniform-w2": kv_uniform(num_keys=10, num_ops=100, seed=0),
        "kv-zipfian-w3": kv_zipfian(num_keys=12, num_ops=100, seed=1),
        "kv-openloop-w2": kv_openloop(num_keys=10, num_ops=100, arrival_rate=6.0, seed=2),
        "kv-partitioned-w2": kv_partitioned(num_keys=8, num_ops=80, seed=0),
        "chaos-w4": chaos(num_keys=12, num_ops=96, seed=3),
    }


def serialize_result(result) -> dict[str, Any]:
    """Everything the equivalence test compares, in a JSON-stable shape."""
    histories = result.store.histories()
    return {
        "histories": {str(key): histories[key].to_dict() for key in sorted(histories, key=str)},
        "virtual_makespan": result.virtual_makespan,
        "messages": result.total_messages(),
        "completed": len(result.completed_ops()),
        "failed": len(result.failed_ops()),
        "finished_cleanly": result.finished_cleanly,
    }


def regenerate() -> None:
    data = {
        name: serialize_result(run_kv_workload(spec)) for name, spec in golden_cases().items()
    }
    GOLDEN_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(data)} cases)")


if __name__ == "__main__":
    regenerate()
