"""Columnar histories: the memory-lean representation of million-op runs.

A :class:`~repro.verification.history.History` stores one ``Operation``
object per operation — a frozen dataclass with a per-instance ``__dict__``,
boxed floats for both timestamps and a reference for every field.  At the
scale the ROADMAP targets (million-op open-loop runs, load-generator
workers shipping whole logs over pickle) the *representation* of a
history is itself a hot path: ~300 bytes and several allocations per
operation, and a pickle that walks the whole object graph.

:class:`ColumnarHistory` stores the same information as parallel columns:

* ``array('d')`` invocation/response times (NaN = pending in the response
  column; times that are not plain floats — integer times in hand-written
  test histories, or a genuine NaN timestamp — fall back to a sparse
  exact-value dict so round-trips are *exact*, never "close"),
* one byte per operation for the kind (``b"r"`` / ``b"w"``),
* ``array('q')`` pids and op-ids,
* an **interned value table**: values and results are stored once in a
  side table and referenced by index.  The intern key is
  ``(type(value), value)`` so ``1``, ``1.0`` and ``True`` — equal under
  ``==`` — keep distinct slots and round-trip exactly; unhashable values
  are appended without deduplication.

Consumers never see the columns: :attr:`ColumnarHistory.operations` is a
sequence of :class:`OpView` row views implementing the full ``Operation``
protocol (``pid``/``kind``/``value``/``result``/``invoked_at``/
``responded_at``/``op_id``, ``pending``/``is_read``/``is_write``,
``precedes``/``concurrent_with``/``describe``/``to_dict``, value-based
equality and the same hash as an equal ``Operation``), so the Wing–Gong
checker, the fast SWMR checker, golden-history ``to_dict`` serialization
and the explore artifacts all work unchanged — and byte-identically, which
is how this module is gated (see ``tests/verification/test_columnar.py``
and the golden suites).

Pickling a :class:`ColumnarHistory` serializes the raw columns (a handful
of flat buffers), not an object graph.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.registers.base import OperationKind, OperationRecord
from repro.verification.history import History, OpKind, Operation

_READ = ord("r")
_WRITE = ord("w")
_NAN = float("nan")

#: Kind <-> column byte.  Read/write keep their historical bytes (golden
#: histories and the wire protocol depend on them); the consensus-object
#: kinds get distinct, collision-free bytes.
KIND_TO_BYTE: Dict[OpKind, int] = {
    OpKind.READ: _READ,
    OpKind.WRITE: _WRITE,
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


def _store_time(
    column: array, exact: Dict[int, Any], row: int, value: Any
) -> None:
    """Append one timestamp, keeping non-float values exactly.

    Plain floats live in the column alone.  Anything else — ints from
    hand-built test histories, bools, a genuine float NaN (which would
    collide with the pending sentinel) — goes into the sparse ``exact``
    dict and the column gets a best-effort float for the comparisons that
    never fire on exact rows anyway.
    """
    if value is None:
        column.append(_NAN)
        return
    if type(value) is float and not math.isnan(value):
        column.append(value)
        return
    exact[row] = value
    try:
        column.append(float(value))
    except (TypeError, ValueError, OverflowError):
        column.append(_NAN)


class OpView:
    """A row of a :class:`ColumnarHistory`, quacking like an ``Operation``.

    Views are tiny (two slots) and created on demand; all state lives in
    the history's columns.  Equality and hashing are by field values, and
    ``Operation.__eq__`` returns ``NotImplemented`` for non-``Operation``
    operands, so ``view == operation`` and ``operation == view`` both
    resolve through this class and agree.
    """

    __slots__ = ("_h", "_i")

    def __init__(self, history: "ColumnarHistory", index: int) -> None:
        self._h = history
        self._i = index

    # ------------------------------------------------------------- fields

    @property
    def pid(self) -> int:
        return self._h._pid[self._i]

    @property
    def kind(self) -> OpKind:
        return BYTE_TO_KIND[self._h._kind[self._i]]

    @property
    def value(self) -> Any:
        return self._h._table[self._h._value_idx[self._i]]

    @property
    def result(self) -> Any:
        return self._h._table[self._h._result_idx[self._i]]

    @property
    def invoked_at(self) -> Any:
        exact = self._h._invoked_exact
        if exact and self._i in exact:
            return exact[self._i]
        return self._h._invoked[self._i]

    @property
    def responded_at(self) -> Any:
        exact = self._h._responded_exact
        if exact and self._i in exact:
            return exact[self._i]
        at = self._h._responded[self._i]
        return None if math.isnan(at) else at

    @property
    def op_id(self) -> int:
        return self._h._op_id[self._i]

    # ---------------------------------------------------------- predicates

    @property
    def pending(self) -> bool:
        return self.responded_at is None

    @property
    def is_read(self) -> bool:
        return self._h._kind[self._i] == _READ

    @property
    def is_write(self) -> bool:
        return self._h._kind[self._i] == _WRITE

    def precedes(self, other: Any) -> bool:
        responded = self.responded_at
        if responded is None:
            return False
        return responded < other.invoked_at

    def concurrent_with(self, other: Any) -> bool:
        return not self.precedes(other) and not other.precedes(self)

    # -------------------------------------------------------- conversions

    def describe(self) -> str:
        return self.to_operation().describe()

    def to_operation(self) -> Operation:
        """Materialize this row as a real ``Operation`` object."""
        return Operation(
            pid=self.pid,
            kind=self.kind,
            value=self.value,
            result=self.result,
            invoked_at=self.invoked_at,
            responded_at=self.responded_at,
            op_id=self.op_id,
        )

    def to_dict(self) -> dict:
        # Key order matches Operation.to_dict exactly: the golden suites
        # compare serialized histories produced by either representation.
        return {
            "pid": self.pid,
            "kind": self.kind.value,
            "value": self.value,
            "result": self.result,
            "invoked_at": self.invoked_at,
            "responded_at": self.responded_at,
            "op_id": self.op_id,
        }

    def _fields(self) -> Tuple[Any, ...]:
        return (
            self.pid,
            self.kind,
            self.value,
            self.result,
            self.invoked_at,
            self.responded_at,
            self.op_id,
        )

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, OpView):
            return self._fields() == other._fields()
        if isinstance(other, Operation):
            return self._fields() == (
                other.pid,
                other.kind,
                other.value,
                other.result,
                other.invoked_at,
                other.responded_at,
                other.op_id,
            )
        return NotImplemented

    def __hash__(self) -> int:
        # Matches the frozen-dataclass hash of an equal Operation, so views
        # and operations interoperate in sets and dict keys.
        return hash(self._fields())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OpView(pid={self.pid}, kind={self.kind.value!r}, value={self.value!r}, "
            f"result={self.result!r}, invoked_at={self.invoked_at!r}, "
            f"responded_at={self.responded_at!r}, op_id={self.op_id})"
        )


class _Rows(Sequence):
    """The ``operations`` sequence of a columnar history (views on demand)."""

    __slots__ = ("_h",)

    def __init__(self, history: "ColumnarHistory") -> None:
        self._h = history

    def __len__(self) -> int:
        return len(self._h._pid)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._h._view(i) for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(index)
        return self._h._view(index)

    def __iter__(self) -> Iterator[OpView]:
        history = self._h
        for i in range(len(history._pid)):
            yield history._view(i)


class ColumnarHistory:
    """An operation history stored as parallel columns.

    Implements the whole :class:`~repro.verification.history.History`
    surface (``operations``, ``initial_value``, the filtered views, the
    factories and serialization) with ~50 bytes per operation instead of
    ~300, plus the shared value table.  All checker access goes through
    :class:`OpView` rows, so verdicts — and serialized ``to_dict`` output —
    are identical to the object representation's.
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
        "_invoked_exact",
        "_responded_exact",
        "_views",
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
        #: The interned value table (may be shared with a parent OpLog).
        self._table: List[Any] = []
        self._invoked_exact: Dict[int, Any] = {}
        self._responded_exact: Dict[int, Any] = {}
        #: Lazy row-view cache: ``operations[i] is operations[i]``, so
        #: identity-based consumers (``verify_witness`` matches witness
        #: entries by ``id``) work across separate accesses.  Built on
        #: first view access, one pointer per row — never on the record path.
        self._views: Optional[List[Optional[OpView]]] = None

    def _view(self, index: int) -> OpView:
        views = self._views
        rows = len(self._pid)
        if views is None:
            views = self._views = [None] * rows
        elif len(views) < rows:  # rows appended since the cache was built
            views.extend([None] * (rows - len(views)))
        view = views[index]
        if view is None:
            view = views[index] = OpView(self, index)
        return view

    # -------------------------------------------------------------- sizing

    def __len__(self) -> int:
        return len(self._pid)

    def __iter__(self) -> Iterator[OpView]:
        return iter(self.operations)

    @property
    def operations(self) -> _Rows:
        return _Rows(self)

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

    # ------------------------------------------------------------ building

    def _append_row(
        self,
        pid: int,
        kind_byte: int,
        value_idx: int,
        result_idx: int,
        invoked_at: Any,
        responded_at: Any,
        op_id: int,
    ) -> None:
        row = len(self._pid)
        self._pid.append(pid)
        self._kind.append(kind_byte)
        self._value_idx.append(value_idx)
        self._result_idx.append(result_idx)
        _store_time(self._invoked, self._invoked_exact, row, invoked_at)
        _store_time(self._responded, self._responded_exact, row, responded_at)
        self._op_id.append(op_id)

    # ------------------------------------------------------------ factories

    @classmethod
    def from_operations(
        cls, operations: Iterable[Any], initial_value: Any = None
    ) -> "ColumnarHistory":
        """Build from ``Operation``-like objects, preserving their order and ids."""
        history = cls(initial_value=initial_value)
        interner = ValueInterner()
        history._table = interner.values
        for op in operations:
            history._append_row(
                op.pid,
                KIND_TO_BYTE[op.kind],
                interner.intern(op.value),
                interner.intern(op.result),
                op.invoked_at,
                op.responded_at,
                op.op_id,
            )
        return history

    @classmethod
    def from_history(cls, history: History) -> "ColumnarHistory":
        """Columnar copy of an object-based history."""
        return cls.from_operations(history.operations, initial_value=history.initial_value)

    @classmethod
    def from_records(
        cls,
        records: Iterable[OperationRecord],
        initial_value: Any = None,
    ) -> "ColumnarHistory":
        """Build from runner records — same sort and re-indexing as
        :meth:`History.from_records`, so the two paths produce equal histories."""
        history = cls(initial_value=initial_value)
        interner = ValueInterner()
        history._table = interner.values
        ordered = sorted(records, key=lambda r: (r.invoked_at, r.pid, r.op_id))
        for index, record in enumerate(ordered):
            history._append_row(
                record.pid,
                KIND_TO_BYTE[OpKind(record.kind.value)],
                interner.intern(record.value),
                interner.intern(record.result),
                record.invoked_at,
                record.responded_at,
                index,
            )
        return history

    def to_history(self) -> History:
        """Materialize as an object-based :class:`History` (round-trips exactly)."""
        return History(
            operations=[view.to_operation() for view in self.operations],
            initial_value=self.initial_value,
        )

    # ------------------------------------------------------- serialization

    def to_dict(self) -> dict:
        """Identical output to :meth:`History.to_dict` for an equal history."""
        return {
            "initial_value": self.initial_value,
            "operations": [view.to_dict() for view in self.operations],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ColumnarHistory":
        history = cls(initial_value=payload.get("initial_value"))
        interner = ValueInterner()
        history._table = interner.values
        for entry in payload["operations"]:
            history._append_row(
                entry["pid"],
                KIND_TO_BYTE[OpKind(entry["kind"])],
                interner.intern(entry.get("value")),
                interner.intern(entry.get("result")),
                entry["invoked_at"],
                entry.get("responded_at"),
                entry.get("op_id", 0),
            )
        return history

    # Pickling ships the raw columns, not an object graph: a million-op
    # history pickles as a handful of flat buffers plus the value table.
    def __reduce__(self):
        return (
            _restore_columnar,
            (
                self.initial_value,
                self._pid,
                bytes(self._kind),
                self._invoked,
                self._responded,
                self._value_idx,
                self._result_idx,
                self._op_id,
                self._table,
                self._invoked_exact,
                self._responded_exact,
            ),
        )

    # ----------------------------------------------------------------- views
    #
    # Mirrors of the History API; each returns OpView rows.

    def completed(self) -> List[OpView]:
        return [view for view in self.operations if not view.pending]

    def pending(self) -> List[OpView]:
        return [view for view in self.operations if view.pending]

    def reads(self, include_pending: bool = False) -> List[OpView]:
        return [
            view
            for view in self.operations
            if view.is_read and (include_pending or not view.pending)
        ]

    def writes(self, include_pending: bool = True) -> List[OpView]:
        ops = [
            view
            for view in self.operations
            if view.is_write and (include_pending or not view.pending)
        ]
        return sorted(ops, key=lambda view: view.invoked_at)

    def by_process(self, pid: int) -> List[OpView]:
        return sorted(
            (view for view in self.operations if view.pid == pid),
            key=lambda view: view.invoked_at,
        )

    def timestamps(self) -> Tuple[List[Any], List[Any]]:
        """Every row's ``(invoked_at, responded_at)``, as two lists.

        Column-wise reads of what :attr:`OpView.invoked_at` and
        :attr:`OpView.responded_at` return: exact overrides applied and
        ``None`` for a pending response.
        """
        invoked = self._invoked.tolist()
        for row, at in self._invoked_exact.items():
            invoked[row] = at
        responded = [None if at != at else at for at in self._responded]  # NaN = pending
        for row, at in self._responded_exact.items():
            responded[row] = at
        return invoked, responded

    def writer_pids(self) -> set:
        return {view.pid for view in self.operations if view.is_write}

    def written_values_distinct(self) -> bool:
        values = [self.initial_value] + [
            view.value for view in self.operations if view.is_write
        ]
        try:
            return len(values) == len(set(values))
        except TypeError:  # unhashable values: fall back to a quadratic check
            for i, left in enumerate(values):
                for right in values[i + 1 :]:
                    if left == right:
                        return False
            return True

    def max_concurrency(self) -> int:
        boundaries: List[Tuple[float, int]] = []
        for view in self.operations:
            end = view.responded_at
            if end is None:
                end = float("inf")
            boundaries.append((view.invoked_at, 1))
            boundaries.append((end, -1))
        boundaries.sort(key=lambda item: (item[0], item[1]))
        level = best = 0
        for _time, delta in boundaries:
            level += delta
            best = max(best, level)
        return best

    def describe(self, limit: Optional[int] = None) -> str:
        ops = sorted(self.operations, key=lambda view: view.invoked_at)
        if limit is not None:
            ops = ops[:limit]
        return "\n".join(view.describe() for view in ops)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnarHistory({len(self)} ops, initial_value={self.initial_value!r}, "
            f"table={len(self._table)} values)"
        )


def _restore_columnar(
    initial_value: Any,
    pid: array,
    kind: bytes,
    invoked: array,
    responded: array,
    value_idx: array,
    result_idx: array,
    op_id: array,
    table: List[Any],
    invoked_exact: Dict[int, Any],
    responded_exact: Dict[int, Any],
) -> ColumnarHistory:
    history = ColumnarHistory(initial_value=initial_value)
    history._pid = pid
    history._kind = bytearray(kind)
    history._invoked = invoked
    history._responded = responded
    history._value_idx = value_idx
    history._result_idx = result_idx
    history._op_id = op_id
    history._table = table
    history._invoked_exact = invoked_exact
    history._responded_exact = responded_exact
    return history
