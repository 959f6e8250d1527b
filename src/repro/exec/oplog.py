"""The columnar operation log: per-run history material without per-op objects.

The driver used to be the only record of a run: a list of
:class:`~repro.exec.driver.ExecOp` objects, each holding an
:class:`~repro.registers.base.OperationRecord`, from which the store
re-derived per-key histories by walking every op and building yet more
objects (``Operation`` instances).  At a million operations that is three
object graphs for the same facts.

An :class:`OpLog` records the same lifecycle *as columns*, written in place
as the run executes — the driver appends a row when an operation is
created and fills in the issue/completion/failure cells as they happen:

========================  =====================================================
column                    meaning
========================  =====================================================
``kind``                  index into :attr:`OpLog.kinds` (READ=0, WRITE=1)
``key_idx / value_idx``   indices into the interned value table
``submitted``             virtual submission time (NaN before submission)
``pid / proc_op_id``      issuing process and its per-process record id
                          (-1 until issued — "no record yet")
``invoked / responded``   record timestamps (NaN = not issued / pending)
``result_idx``            interned result (-1 until completed)
``failed``                0/1, with a sparse ``reasons`` dict for messages
========================  =====================================================

Row index == driver ``op_id`` (submission order), so the log *is* the
``driver.ops`` list in columnar form.  Everything downstream reads it
through views:

* :meth:`OpLog.per_key_histories` groups issued rows by key and emits
  :class:`~repro.verification.columnar.ColumnarHistory` objects that share
  the log's value table — the store's history/checking plane allocates no
  per-op objects at all.

The wire format (:func:`encode_oplog` / :func:`decode_oplog`) serializes
the raw column buffers with pickle protocol 5 out-of-band buffers: a load
generator client worker (:mod:`repro.transport.loadgen`) ships its whole
run to the parent as a handful of flat byte blocks plus the value table,
not a pickled object graph, and the parent merges the logs with
:meth:`OpLog.extend_remapped`.
"""

from __future__ import annotations

import pickle
from array import array
from typing import Any, Dict, List, Tuple

from repro.registers.base import OperationKind, OperationRecord
from repro.verification.columnar import KIND_TO_BYTE, ColumnarHistory, ValueInterner
from repro.verification.history import OpKind

_NAN = float("nan")


class OpLog:
    """Columnar log of every driver operation (see module docstring)."""

    __slots__ = (
        "kinds",
        "_kind_slot",
        "_kind",
        "_key_idx",
        "_value_idx",
        "_submitted",
        "_pid",
        "_proc_op_id",
        "_invoked",
        "_responded",
        "_result_idx",
        "_failed",
        "reasons",
        "interner",
    )

    def __init__(self) -> None:
        #: Operation kinds seen so far; the ``kind`` column indexes this list.
        self.kinds: List[Any] = [OperationKind.READ, OperationKind.WRITE]
        self._kind_slot: Dict[Any, int] = {kind: i for i, kind in enumerate(self.kinds)}
        self._kind = bytearray()
        self._key_idx = array("q")
        self._value_idx = array("q")
        self._submitted = array("d")
        self._pid = array("q")
        self._proc_op_id = array("q")
        self._invoked = array("d")
        self._responded = array("d")
        self._result_idx = array("q")
        self._failed = bytearray()
        #: Sparse failure messages, keyed by row.
        self.reasons: Dict[int, str] = {}
        #: Shared table for keys, written values and results.
        self.interner = ValueInterner()

    def __len__(self) -> int:
        return len(self._kind)

    # --------------------------------------------------------- driver hooks

    def note_created(self, kind: Any, key: Any, value: Any) -> int:
        """Append a fresh row (driver ``new_op``); returns the row index."""
        slot = self._kind_slot.get(kind)
        if slot is None:
            slot = self._kind_slot[kind] = len(self.kinds)
            self.kinds.append(kind)
            if slot > 255:  # pragma: no cover - 256 operation kinds is absurd
                raise ValueError("OpLog supports at most 256 operation kinds")
        row = len(self._kind)
        self._kind.append(slot)
        self._key_idx.append(self.interner.intern(key))
        self._value_idx.append(self.interner.intern(value))
        self._submitted.append(_NAN)
        self._pid.append(-1)
        self._proc_op_id.append(-1)
        self._invoked.append(_NAN)
        self._responded.append(_NAN)
        self._result_idx.append(-1)
        self._failed.append(0)
        return row

    def note_submitted(self, row: int, now: float) -> None:
        self._submitted[row] = now

    def note_issued(self, row: int, record: OperationRecord) -> None:
        self._pid[row] = record.pid
        self._proc_op_id[row] = record.op_id
        self._invoked[row] = record.invoked_at

    def note_completed(self, row: int, record: OperationRecord) -> None:
        self._responded[row] = record.responded_at
        self._result_idx[row] = self.interner.intern(record.result)

    def note_failed(self, row: int, reason: str) -> None:
        self._failed[row] = 1
        self.reasons[row] = reason

    # ------------------------------------------------------------ histories

    def _history_from_rows(self, rows: List[int], initial_value: Any) -> ColumnarHistory:
        """Per-key history: sorted like ``History.from_records``, sharing the table."""
        table = self.interner.values
        none_idx = self.interner.intern(None)
        # Same sort key as History.from_records: (invoked_at, pid, record op id).
        rows = sorted(
            rows, key=lambda r: (self._invoked[r], self._pid[r], self._proc_op_id[r])
        )
        history = ColumnarHistory(initial_value=initial_value)
        history._table = table
        # Per-slot kind byte (read/write keep their historical bytes; the
        # consensus kinds map to their own collision-free bytes).
        slot_byte = [
            KIND_TO_BYTE[OpKind(kind.value)] for kind in self.kinds
        ]
        for op_id, row in enumerate(rows):
            result_idx = self._result_idx[row]
            history._pid.append(self._pid[row])
            history._kind.append(slot_byte[self._kind[row]])
            history._invoked.append(self._invoked[row])
            history._responded.append(self._responded[row])
            history._value_idx.append(self._value_idx[row])
            history._result_idx.append(none_idx if result_idx < 0 else result_idx)
            history._op_id.append(op_id)
        return history

    def rows_by_key(self) -> Dict[Any, List[int]]:
        """Issued rows grouped by key, in first-submission order (dict order)."""
        table = self.interner.values
        by_key: Dict[Any, List[int]] = {}
        pid = self._pid
        key_idx = self._key_idx
        for row in range(len(self._kind)):
            if pid[row] != -1:  # issued => has a record, exactly the serial filter
                by_key.setdefault(table[key_idx[row]], []).append(row)
        return by_key

    def per_key_histories(self, initial_value: Any = None) -> Dict[Any, ColumnarHistory]:
        """Every touched key's history — the columnar ``store.histories()``."""
        return {
            key: self._history_from_rows(rows, initial_value)
            for key, rows in self.rows_by_key().items()
        }

    def history_for(self, key: Any, initial_value: Any = None) -> ColumnarHistory:
        """One key's history (``==`` key matching, like the object path)."""
        table = self.interner.values
        pid = self._pid
        key_idx = self._key_idx
        rows = [
            row
            for row in range(len(self._kind))
            if pid[row] != -1 and table[key_idx[row]] == key
        ]
        return self._history_from_rows(rows, initial_value)

    # ----------------------------------------------------------- inspection

    def nbytes(self) -> int:
        """Raw column bytes (excluding the value table) — for benchmarks."""
        total = len(self._kind) + len(self._failed)
        for column in (
            self._key_idx,
            self._value_idx,
            self._submitted,
            self._pid,
            self._proc_op_id,
            self._invoked,
            self._responded,
            self._result_idx,
        ):
            total += column.itemsize * len(column)
        return total

    # -------------------------------------------------------------- merging

    def extend_remapped(self, other: "OpLog") -> int:
        """Append ``other``'s rows, re-interning its table; returns base row offset."""
        table_map = [self.interner.intern(value) for value in other.interner.values]
        kind_map = []
        for kind in other.kinds:
            slot = self._kind_slot.get(kind)
            if slot is None:
                slot = self._kind_slot[kind] = len(self.kinds)
                self.kinds.append(kind)
            kind_map.append(slot)
        base = len(self._kind)
        self._kind.extend(kind_map[slot] for slot in other._kind)
        self._key_idx.extend(table_map[idx] for idx in other._key_idx)
        self._value_idx.extend(table_map[idx] for idx in other._value_idx)
        self._submitted.extend(other._submitted)
        self._pid.extend(other._pid)
        self._proc_op_id.extend(other._proc_op_id)
        self._invoked.extend(other._invoked)
        self._responded.extend(other._responded)
        self._result_idx.extend(
            table_map[idx] if idx >= 0 else -1 for idx in other._result_idx
        )
        self._failed.extend(other._failed)
        for row, reason in other.reasons.items():
            self.reasons[base + row] = reason
        return base


# -------------------------------------------------------------- wire format
#
# Loadgen workers ship their OpLog as pickle protocol 5 out-of-band buffers: the pickle stream carries only the
# structure and the value table, and each column crosses as one flat byte
# block — no per-operation pickle opcodes, no object graph.

_WIRE_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("_kind", "B"),
    ("_key_idx", "q"),
    ("_value_idx", "q"),
    ("_submitted", "d"),
    ("_pid", "q"),
    ("_proc_op_id", "q"),
    ("_invoked", "d"),
    ("_responded", "d"),
    ("_result_idx", "q"),
    ("_failed", "B"),
)


def encode_oplog(log: OpLog) -> Tuple[bytes, List[bytes]]:
    """Serialize ``log`` to ``(pickle_bytes, out_of_band_buffers)``.

    The returned buffers are plain ``bytes`` so the pair can cross a
    multiprocessing queue as-is; transfer size is
    ``len(pickle_bytes) + sum(len(b) for b in buffers)``.
    """
    payload = {
        "rows": len(log),
        "kinds": log.kinds,
        "table": log.interner.values,
        "reasons": log.reasons,
        "columns": [pickle.PickleBuffer(getattr(log, name)) for name, _ in _WIRE_COLUMNS],
    }
    buffers: List[pickle.PickleBuffer] = []
    blob = pickle.dumps(payload, protocol=5, buffer_callback=buffers.append)
    return blob, [buffer.raw().tobytes() for buffer in buffers]


def decode_oplog(blob: bytes, buffers: List[bytes]) -> OpLog:
    """Inverse of :func:`encode_oplog`."""
    payload = pickle.loads(blob, buffers=buffers)
    log = OpLog()
    log.kinds = list(payload["kinds"])
    log._kind_slot = {kind: i for i, kind in enumerate(log.kinds)}
    log.reasons = dict(payload["reasons"])
    log.interner = ValueInterner(payload["table"])
    for (name, typecode), data in zip(_WIRE_COLUMNS, payload["columns"]):
        if typecode == "B":
            setattr(log, name, bytearray(data))
        else:
            column = array(typecode)
            column.frombytes(data)
            setattr(log, name, column)
    return log


def transfer_size(blob: bytes, buffers: List[bytes]) -> int:
    """Bytes an encoded log puts on the wire (stream + out-of-band blocks)."""
    return len(blob) + sum(len(buffer) for buffer in buffers)
