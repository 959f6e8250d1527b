"""Columnar memory-plane benchmark: bytes/op, IPC transfer bytes, peak RSS.

The columnar history plane (:mod:`repro.exec.oplog`,
:mod:`repro.verification.columnar`) exists to make million-op runs
memory-lean: operations live in parallel ``array`` columns with an interned
value table instead of one ``Operation`` object (plus boxed floats, dict and
GC header) per op, and load-generator workers ship those raw columns to the
parent as pickle protocol-5 out-of-band buffers
(:func:`~repro.exec.oplog.encode_oplog`) instead of pickling an object
graph.  This benchmark measures both claims on a real ``kv_openloop`` run:

* **history bytes/op** — the deep size of the per-key object histories
  (``History.from_records`` over every key, the pre-columnar plane) against
  the columnar plane (raw column bytes plus the shared interned value
  table).  The committed baseline must show a >= 3x reduction;
* **worker->parent transfer bytes** — the legacy payload (the run's
  ``(index, ExecOp)`` pairs pickled as one object graph, continuations
  stripped) against the run's whole log on the columnar wire
  (``transfer_size(*encode_oplog(oplog))``);
* a **probe** at a smaller size whose deterministic fields (op counts, the
  two reduction ratios, columnar transfer bytes) are what
  ``benchmarks/check_bench_regression.py`` gates — cheap enough to
  re-derive in CI;
* **peak RSS** (``ru_maxrss``) — recorded for the record, never gated (RSS
  depends on the machine; the byte counts and ratios do not).

Run modes:

* ``python benchmarks/bench_memory.py`` — full run; writes the committed
  ``BENCH_memory.json``.
* ``python benchmarks/bench_memory.py --quick`` — CI smoke (probe size
  only, asserts the reduction floors, no baseline write).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import pickle
import platform
import resource
import sys
from array import array
from typing import Any, Optional

if __package__ is None or __package__ == "":  # run as a plain script
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from benchmarks.conftest import report
from repro.exec.oplog import encode_oplog, transfer_size
from repro.verification.history import History
from repro.workloads.kv import run_kv_workload
from repro.workloads.scenarios import kv_openloop

DEFAULT_OUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_memory.json"

#: The 64-key open-loop shape the ROADMAP's run-cost probes use.
SHAPE = {"num_keys": 64, "arrival_rate": 50.0, "seed": 4}
FULL_OPS = 100_000
PROBE_OPS = 10_000

#: The committed baseline must demonstrate at least these reductions: 3x on
#: history bytes/op (the headline claim), and a real — if smaller — win on
#: transfer bytes, where the columnar floor is ~66 raw column bytes/op
#: against a pickle stream that memoizes repeated keys aggressively.
HISTORY_REDUCTION_FLOOR = 3.0
TRANSFER_REDUCTION_FLOOR = 1.25


def deep_sizeof(root: Any) -> int:
    """Recursive ``sys.getsizeof`` with id-level sharing (each object once).

    Walks containers, ``__dict__`` and ``__slots__``; shared values (interned
    strings, the ``None`` singleton, cached small ints) are counted a single
    time, which is exactly how they occupy memory.
    """
    seen = set()
    total = 0
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif isinstance(obj, (str, bytes, bytearray, array, int, float, bool)):
            continue
        else:
            if hasattr(obj, "__dict__"):
                stack.append(obj.__dict__)
            for slot in getattr(type(obj), "__slots__", ()):
                if hasattr(obj, slot):
                    stack.append(getattr(obj, slot))
    return total


def measure_history(num_ops: int) -> dict:
    """Bytes/op of the per-key history plane, object vs columnar, one run."""
    spec = kv_openloop(num_ops=num_ops, **SHAPE)
    result = run_kv_workload(spec)
    store = result.store

    # Columnar plane: per-key raw column bytes plus the value table, which
    # all per-key histories share (count it once, like memory does).
    histories = store.histories()
    tables = {id(h._table): h._table for h in histories.values()}
    columnar_bytes = sum(h.nbytes() for h in histories.values())
    columnar_bytes += sum(deep_sizeof(table) for table in tables.values())

    # Object plane: the same histories the pre-columnar store built — one
    # Operation dataclass per completed op, assembled per key.
    object_histories = {}
    for key in histories:
        records = [op.record for op in store.ops if op.key == key and op.record is not None]
        object_histories[key] = History.from_records(
            records, initial_value=store.config.initial_value
        )
    object_bytes = deep_sizeof(list(object_histories.values()))

    operations = sum(len(h) for h in histories.values())
    assert operations == sum(len(h.operations) for h in object_histories.values())
    return {
        "num_ops": num_ops,
        "operations": operations,
        "object_bytes": object_bytes,
        "columnar_bytes": columnar_bytes,
        "object_bytes_per_op": round(object_bytes / operations, 1),
        "columnar_bytes_per_op": round(columnar_bytes / operations, 1),
        "reduction": round(object_bytes / columnar_bytes, 2),
    }


def measure_transfer(num_ops: int) -> dict:
    """One run's log on the wire: legacy pickled ExecOp pairs vs columnar buffers."""
    result = run_kv_workload(kv_openloop(num_ops=num_ops, **SHAPE))
    columnar_bytes = transfer_size(*encode_oplog(result.store.driver.oplog))

    # The legacy payload: the (index, ExecOp) pairs — continuations
    # stripped — pickled as one object graph.
    ops = result.ops
    saved = [op.on_done for op in ops]
    try:
        for op in ops:
            op.on_done = None
        legacy_bytes = len(pickle.dumps(list(enumerate(ops)), protocol=5))
    finally:
        for op, on_done in zip(ops, saved):
            op.on_done = on_done

    return {
        "num_ops": num_ops,
        "operations": len(ops),
        "legacy_bytes": legacy_bytes,
        "columnar_bytes": columnar_bytes,
        "reduction": round(legacy_bytes / columnar_bytes, 2),
    }


def peak_rss_kb() -> int:
    """Peak RSS of this process so far, in KiB (ru_maxrss is KiB on Linux)."""
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - recorded in bytes there
        usage //= 1024
    return usage


def _assert_floors(history: dict, transfer: dict) -> None:
    assert history["reduction"] >= HISTORY_REDUCTION_FLOOR, (
        f"history reduction {history['reduction']}x is below the "
        f"{HISTORY_REDUCTION_FLOOR}x floor"
    )
    assert transfer["reduction"] >= TRANSFER_REDUCTION_FLOOR, (
        f"transfer reduction {transfer['reduction']}x is below the "
        f"{TRANSFER_REDUCTION_FLOOR}x floor"
    )


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="probe size only, assert floors, no baseline write")
    parser.add_argument("--out", default=str(DEFAULT_OUT), help="baseline output path")
    args = parser.parse_args(argv)

    print(f"probe ({PROBE_OPS} ops):")
    probe_history = measure_history(PROBE_OPS)
    probe_transfer = measure_transfer(PROBE_OPS)
    print(
        f"  history: {probe_history['object_bytes_per_op']} -> "
        f"{probe_history['columnar_bytes_per_op']} bytes/op "
        f"({probe_history['reduction']}x)"
    )
    print(
        f"  transfer: {probe_transfer['legacy_bytes']} -> "
        f"{probe_transfer['columnar_bytes']} bytes "
        f"({probe_transfer['reduction']}x)"
    )
    _assert_floors(probe_history, probe_transfer)

    if args.quick:
        print("quick mode: reduction floors verified, baseline not written")
        return 0

    print(f"full ({FULL_OPS} ops):")
    history = measure_history(FULL_OPS)
    transfer = measure_transfer(FULL_OPS)
    _assert_floors(history, transfer)

    payload = {
        "benchmark": "columnar_memory_plane",
        "cpus": os.cpu_count() or 1,
        "workload": dict(SHAPE, arrival="poisson"),
        "history": history,
        "transfer": transfer,
        "probe": {"num_ops": PROBE_OPS, "history": probe_history,
                  "transfer": probe_transfer},
        "peak_rss_kb": peak_rss_kb(),
        "note": (
            "byte counts and reduction ratios are machine-independent and "
            "gated by check_bench_regression.py at the probe size; "
            "peak_rss_kb is informational (it depends on the machine); "
            "transfer bytes are one run's whole log encoded with "
            "encode_oplog, the load generator's worker->parent wire"
        ),
        "python": platform.python_version(),
    }
    out_path = pathlib.Path(args.out)
    out_path.write_text(json.dumps(payload, indent=1, allow_nan=False) + "\n")

    report(
        f"columnar memory plane ({FULL_OPS} ops) -> {out_path}",
        ["metric", "object/legacy", "columnar", "reduction"],
        [
            ["history bytes/op", history["object_bytes_per_op"],
             history["columnar_bytes_per_op"], f"{history['reduction']}x"],
            ["transfer bytes (one log)", transfer["legacy_bytes"],
             transfer["columnar_bytes"], f"{transfer['reduction']}x"],
        ],
    )
    print(f"peak RSS: {payload['peak_rss_kb']} KiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
