"""The columnar OpLog against the ExecOp object graph it replaces.

The driver records every operation's lifecycle into both representations
simultaneously (``driver.ops`` and ``driver.oplog``), so a real run is a
free differential oracle: every OpLog row must agree with its ExecOp on
every field, the per-key histories must serialize identically to the old
``History.from_records`` path, and the protocol-5 wire format must
round-trip the whole log bit-for-bit.
"""

import math

import pytest

from repro.exec.oplog import OpLog, decode_oplog, encode_oplog, transfer_size
from repro.store.store import KVStore
from repro.verification.history import History
from repro.workloads.kv import run_kv_workload
from repro.workloads.scenarios import kv_openloop, kv_uniform


def _specs():
    return [
        kv_uniform(num_keys=8, num_ops=80, seed=21),
        kv_openloop(num_keys=8, num_ops=60, arrival_rate=6.0, seed=22),
    ]


def logged_row(log, row):
    """One OpLog row read straight off the columns (NaN cells read as None)."""

    def at(column):
        value = column[row]
        return None if math.isnan(value) else value

    table = log.interner.values
    issued = log._pid[row] != -1
    result_idx = log._result_idx[row]
    return {
        "kind": log.kinds[log._kind[row]],
        "key": table[log._key_idx[row]],
        "value": table[log._value_idx[row]],
        "submitted_at": at(log._submitted),
        "failed": bool(log._failed[row]),
        "failure_reason": log.reasons.get(row, ""),
        "pid": log._pid[row] if issued else None,
        "record_op_id": log._proc_op_id[row] if issued else None,
        "invoked_at": at(log._invoked) if issued else None,
        "responded_at": at(log._responded),
        "result": None if result_idx < 0 else table[result_idx],
    }


def exec_row(op):
    """The same fields off an ExecOp and its OperationRecord."""
    record = op.record
    return {
        "kind": op.kind,
        "key": op.key,
        "value": op.value,
        "submitted_at": op.submitted_at,
        "failed": op.failed,
        "failure_reason": op.failure_reason,
        "pid": record.pid if record else None,
        "record_op_id": record.op_id if record else None,
        "invoked_at": record.invoked_at if record else None,
        "responded_at": record.responded_at if record else None,
        "result": record.result if record else None,
    }


def all_rows(log):
    return [logged_row(log, row) for row in range(len(log))]


class TestOpLogRecordsTheRun:
    @pytest.mark.parametrize("spec_index", [0, 1])
    def test_logged_ops_mirror_exec_ops(self, spec_index):
        result = run_kv_workload(_specs()[spec_index])
        log = result.store.driver.oplog
        assert len(log) == len(result.ops)
        assert all_rows(log) == [exec_row(op) for op in result.ops]

    def test_histories_match_the_object_path(self):
        result = run_kv_workload(_specs()[0])
        store = result.store
        for key, columnar in store.histories().items():
            records = [
                op.record for op in store.ops if op.key == key and op.record is not None
            ]
            objects = History.from_records(records, initial_value=store.config.initial_value)
            assert columnar.to_dict() == objects.to_dict(), key

    def test_failed_ops_keep_their_reason(self):
        store = KVStore(kv_uniform(num_keys=4, num_ops=1, seed=23).store_config())
        key = next(k for k in ("k0000", "k0001", "k0002", "k0003")
                   if store.shard_map.shard_of(k) == 0)
        # Crash the shard's writer, then submit a put: it fails at issue
        # time ("crashed before issuing"), which must land in the columnar
        # reasons too.
        store.crash_server_at(0.5, 0, 0, allow_writer=True)
        store.simulator.run(until=1.0)
        op = store.submit_put(key, "vX")
        store.drive(limit=50.0)
        assert op.failed
        logged = logged_row(store.driver.oplog, op.op_id)
        assert logged["failed"]
        assert logged["failure_reason"] == op.failure_reason
        assert logged["failure_reason"] != ""


class TestWireFormat:
    def test_encode_decode_round_trips(self):
        result = run_kv_workload(_specs()[1])
        log = result.store.driver.oplog
        blob, buffers = encode_oplog(log)
        assert transfer_size(blob, buffers) == len(blob) + sum(len(b) for b in buffers)
        # Columns cross out-of-band: the pickle stream itself stays small.
        assert buffers, "columns should be serialized out-of-band"
        decoded = decode_oplog(blob, buffers)
        assert len(decoded) == len(log)
        assert all_rows(decoded) == all_rows(log)
        assert decoded.reasons == log.reasons
        histories = {k: h.to_dict() for k, h in log.per_key_histories("v0").items()}
        assert {k: h.to_dict() for k, h in decoded.per_key_histories("v0").items()} == histories


class TestMergeReassembly:
    def test_extend_remapped_concatenates_decoded_logs(self):
        # The load generator's merge: every worker's log crosses the wire
        # encoded and is appended with its own value table re-interned.
        logs = [run_kv_workload(spec).store.driver.oplog for spec in _specs()]
        merged = OpLog()
        bases = []
        for log in logs:
            bases.append(merged.extend_remapped(decode_oplog(*encode_oplog(log))))
        assert bases == [0, len(logs[0])]
        assert all_rows(merged) == all_rows(logs[0]) + all_rows(logs[1])
