"""Columnar histories: one key's slice of the operation log, as columns.

A :class:`~repro.verification.history.History` stores one ``Operation``
object per operation — a frozen dataclass with a per-instance ``__dict__``,
boxed floats for both timestamps and a reference for every field.  At the
scale the ROADMAP targets (million-op open-loop runs, load-generator
workers shipping whole logs) that is ~300 bytes and several allocations per
operation.

:class:`ColumnarHistory` is what :meth:`OpLog.per_key_histories
<repro.exec.oplog.OpLog.per_key_histories>` and :meth:`OpLog.history_for
<repro.exec.oplog.OpLog.history_for>` return: one key's rows, sorted like
``History.from_records``, as parallel columns:

* ``array('d')`` invocation/response times (NaN = pending in the response
  column),
* one byte per operation for the kind (``b"r"`` / ``b"w"``, and distinct
  bytes for the consensus-object kinds),
* ``array('q')`` pids and op-ids,
* ``array('q')`` indices into the **interned value table** the log shares
  with every per-key history.  The intern key is ``(type(value), value)``
  so ``1``, ``1.0`` and ``True`` — equal under ``==`` — keep distinct slots
  and come back as themselves; unhashable values are appended without
  deduplication.

There is one row type, :class:`~repro.verification.history.Operation`.
The Lemma-10 claims checker reads a columnar history's :meth:`fields`
without building rows; everything else that walks rows (the Wing–Gong
search, witnesses, tests) calls :meth:`ColumnarHistory.to_history` first.
``to_dict`` output is byte-identical to the materialized history's, which
the golden-history suites pin.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.verification.history import History, OpKind, Operation

#: Kind <-> column byte.  Read/write keep their historical bytes; the
#: consensus-object kinds get distinct, collision-free bytes.
KIND_TO_BYTE: Dict[OpKind, int] = {
    OpKind.READ: ord("r"),
    OpKind.WRITE: ord("w"),
    OpKind.CAS: ord("c"),
    OpKind.TAS: ord("t"),
    OpKind.INCR: ord("i"),
}
BYTE_TO_KIND: Dict[int, OpKind] = {byte: kind for kind, byte in KIND_TO_BYTE.items()}


class ValueInterner:
    """A deduplicating value table: store each distinct value once.

    Interning is keyed by ``(type(value), value)`` — not ``value`` alone —
    because ``1 == 1.0 == True`` under Python equality but the three must
    round-trip as themselves.  Unhashable values (lists, dicts) cannot be
    deduplicated; they are appended as fresh slots, which preserves
    correctness (every index still resolves to the original object) at the
    cost of table size only when such values actually occur.
    """

    __slots__ = ("values", "_index")

    def __init__(self, values: Optional[List[Any]] = None) -> None:
        self.values: List[Any] = []
        self._index: Dict[Any, int] = {}
        if values:
            for value in values:
                self.intern(value)

    def __len__(self) -> int:
        return len(self.values)

    def intern(self, value: Any) -> int:
        """Return the table index of ``value``, adding it if new."""
        try:
            key = (value.__class__, value)
            slot = self._index.get(key)
            if slot is None:
                slot = len(self.values)
                self.values.append(value)
                self._index[key] = slot
            return slot
        except TypeError:  # unhashable: append without deduplication
            self.values.append(value)
            return len(self.values) - 1


class ColumnarHistory:
    """One key's operation history as parallel columns (see module docstring).

    ~50 bytes per operation instead of ~300, plus the value table shared
    with the :class:`~repro.exec.oplog.OpLog` that built it.
    """

    __slots__ = (
        "initial_value",
        "_pid",
        "_kind",
        "_invoked",
        "_responded",
        "_value_idx",
        "_result_idx",
        "_op_id",
        "_table",
    )

    def __init__(self, initial_value: Any = None) -> None:
        self.initial_value = initial_value
        self._pid = array("q")
        self._kind = bytearray()
        self._invoked = array("d")
        self._responded = array("d")
        self._value_idx = array("q")
        self._result_idx = array("q")
        self._op_id = array("q")
        #: The interned value table (shared with the parent OpLog).
        self._table: List[Any] = []

    def __len__(self) -> int:
        return len(self._pid)

    def nbytes(self) -> int:
        """Raw column bytes (excluding the value table) — for benchmarks."""
        return (
            self._pid.itemsize * len(self._pid)
            + len(self._kind)
            + self._invoked.itemsize * len(self._invoked)
            + self._responded.itemsize * len(self._responded)
            + self._value_idx.itemsize * len(self._value_idx)
            + self._result_idx.itemsize * len(self._result_idx)
            + self._op_id.itemsize * len(self._op_id)
        )

    def timestamps(self) -> Tuple[List[float], List[Optional[float]]]:
        """Every row's ``(invoked_at, responded_at)``, as two lists.

        A pending row's response is ``None``, as in ``Operation``.
        """
        responded = [None if at != at else at for at in self._responded]  # NaN = pending
        return self._invoked.tolist(), responded

    def fields(self) -> Tuple[Sequence[Any], ...]:
        """Every row's fields as seven sequences, in ``Operation`` field order.

        ``(pid, kind, value, result, invoked_at, responded_at, op_id)``:
        row ``i`` of the history is ``Operation(*(f[i] for f in fields))``.
        The integer columns are returned as they are; read, do not modify.
        """
        lookup = self._table.__getitem__
        invoked, responded = self.timestamps()
        return (
            self._pid,
            list(map(BYTE_TO_KIND.__getitem__, self._kind)),
            list(map(lookup, self._value_idx)),
            list(map(lookup, self._result_idx)),
            invoked,
            responded,
            self._op_id,
        )

    def to_history(self) -> History:
        """Materialize as an object-based :class:`History`, row for row."""
        return History(
            operations=[Operation(*row) for row in zip(*self.fields())],
            initial_value=self.initial_value,
        )

    def to_dict(self) -> dict:
        """Identical output to :meth:`History.to_dict` of :meth:`to_history`."""
        return self.to_history().to_dict()
