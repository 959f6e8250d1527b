"""Operation histories: the observable behaviour of a register run.

A *history* is the sequence of invocation and response events of the
operations the clients issued.  Atomicity (linearizability) is a property of
histories: the run is correct iff the history could have been produced by a
register accessed sequentially, respecting real-time order.

:class:`Operation` is the one row type of the verification layer.  A
:class:`History` is a list of them: the single-register workload runner
builds one from the per-operation
:class:`~repro.registers.base.OperationRecord` objects each process
accumulates, tests build them by hand (:func:`make_history`), and a store,
live or load-generator run's per-key
:class:`~repro.verification.columnar.ColumnarHistory` becomes one through
``to_history()``.  The Lemma-10 claims checker accepts either form; the
Wing–Gong search and witness checking take a ``History``.

Conventions
-----------
* Operations that never responded (their process crashed mid-operation, or
  the run was cut off) are *pending*.  The atomicity definition lets pending
  operations either take effect or not; the fast checker simply excludes
  pending **reads** and treats a pending **write** as "may or may not have
  happened" (see :mod:`repro.verification.register_checker`).
* Written values are compared with ``==``; the fast checker additionally
  requires written values to be pairwise distinct so that a read's return
  value identifies the write it read from (the workload generator guarantees
  this by construction).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterable, Iterator, Optional, Sequence

from repro.registers.base import OperationKind, OperationRecord


class OpKind(str, Enum):
    """Kind of operation in a history (mirrors OperationKind, kept separate
    so the verification layer has no dependency on how runs are produced)."""

    READ = "read"
    WRITE = "write"
    CAS = "cas"
    TAS = "tas"
    INCR = "incr"


@dataclass(frozen=True)
class Operation:
    """One operation interval in a history.

    Attributes
    ----------
    pid:
        The invoking process.
    kind:
        Read or write.
    value:
        The written value (writes) or ``None`` (reads).
    result:
        The returned value (reads) or ``None`` (writes).
    invoked_at / responded_at:
        Virtual times of invocation and response; ``responded_at`` is ``None``
        for pending operations.
    op_id:
        Unique id within the history (stable ordering / error messages).
    """

    pid: int
    kind: OpKind
    value: Any = None
    result: Any = None
    invoked_at: float = 0.0
    responded_at: Optional[float] = None
    op_id: int = 0

    @property
    def pending(self) -> bool:
        """True if the operation never responded."""
        return self.responded_at is None

    @property
    def is_read(self) -> bool:
        """True for read operations."""
        return self.kind is OpKind.READ

    @property
    def is_write(self) -> bool:
        """True for write operations."""
        return self.kind is OpKind.WRITE

    def precedes(self, other: "Operation") -> bool:
        """Real-time precedence: this operation responded before ``other`` was invoked."""
        if self.responded_at is None:
            return False
        return self.responded_at < other.invoked_at

    def concurrent_with(self, other: "Operation") -> bool:
        """True when neither operation precedes the other."""
        return not self.precedes(other) and not other.precedes(self)

    def describe(self) -> str:
        """Readable one-line description used in violation messages."""
        span = (
            f"[{self.invoked_at:.3f}, "
            + (f"{self.responded_at:.3f}]" if self.responded_at is not None else "pending)")
        )
        if self.is_write:
            return f"write({self.value!r}) by p{self.pid} {span}"
        return f"read() -> {self.result!r} by p{self.pid} {span}"

    # ------------------------------------------------------------ serialization

    def to_dict(self) -> dict:
        """Plain-dict form (strict-JSON friendly for JSON-representable values)."""
        return {
            "pid": self.pid,
            "kind": self.kind.value,
            "value": self.value,
            "result": self.result,
            "invoked_at": self.invoked_at,
            "responded_at": self.responded_at,
            "op_id": self.op_id,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Operation":
        """Inverse of :meth:`to_dict`."""
        return cls(
            pid=payload["pid"],
            kind=OpKind(payload["kind"]),
            value=payload.get("value"),
            result=payload.get("result"),
            invoked_at=payload["invoked_at"],
            responded_at=payload.get("responded_at"),
            op_id=payload.get("op_id", 0),
        )


@dataclass
class History:
    """A collection of operations plus the register's initial value."""

    operations: list[Operation] = field(default_factory=list)
    initial_value: Any = None

    def __len__(self) -> int:
        return len(self.operations)

    def __iter__(self) -> Iterator[Operation]:
        return iter(self.operations)

    # ------------------------------------------------------------- factories

    @classmethod
    def from_records(
        cls,
        records: Iterable[OperationRecord],
        initial_value: Any = None,
    ) -> "History":
        """Build a history from the runner's per-operation records."""
        operations = []
        for index, record in enumerate(sorted(records, key=lambda r: (r.invoked_at, r.pid, r.op_id))):
            kind = OpKind(record.kind.value)
            operations.append(
                Operation(
                    pid=record.pid,
                    kind=kind,
                    value=record.value,
                    result=record.result,
                    invoked_at=record.invoked_at,
                    responded_at=record.responded_at,
                    op_id=index,
                )
            )
        return cls(operations=operations, initial_value=initial_value)

    # ------------------------------------------------------------ serialization

    def to_dict(self) -> dict:
        """Plain-dict form: ``{"initial_value": ..., "operations": [...]}``.

        Strict-JSON serializable whenever the stored values are; the
        schedule-exploration artifacts (:mod:`repro.explore`) embed recorded
        histories this way.
        """
        return {
            "initial_value": self.initial_value,
            "operations": [op.to_dict() for op in self.operations],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "History":
        """Inverse of :meth:`to_dict` (round-trips exactly)."""
        return cls(
            operations=[Operation.from_dict(entry) for entry in payload["operations"]],
            initial_value=payload.get("initial_value"),
        )

    # ----------------------------------------------------------------- views

    def completed(self) -> list[Operation]:
        """Operations that responded."""
        return [op for op in self.operations if not op.pending]

    def pending(self) -> list[Operation]:
        """Operations that never responded."""
        return [op for op in self.operations if op.pending]

    def reads(self, include_pending: bool = False) -> list[Operation]:
        """Read operations (completed only, unless ``include_pending``)."""
        return [
            op
            for op in self.operations
            if op.is_read and (include_pending or not op.pending)
        ]

    def writes(self, include_pending: bool = True) -> list[Operation]:
        """Write operations, in invocation order (the single writer's program order)."""
        ops = [op for op in self.operations if op.is_write and (include_pending or not op.pending)]
        return sorted(ops, key=lambda op: op.invoked_at)

    def by_process(self, pid: int) -> list[Operation]:
        """Operations invoked by process ``pid``, in invocation order."""
        return sorted(
            (op for op in self.operations if op.pid == pid), key=lambda op: op.invoked_at
        )

    def max_concurrency(self) -> int:
        """Maximum number of operations whose intervals overlap at one instant."""
        boundaries: list[tuple[float, int]] = []
        for op in self.operations:
            end = op.responded_at if op.responded_at is not None else float("inf")
            boundaries.append((op.invoked_at, 1))
            boundaries.append((end, -1))
        # Sort ends before starts at equal times so touching intervals do not count as overlapping.
        boundaries.sort(key=lambda item: (item[0], item[1]))
        level = best = 0
        for _time, delta in boundaries:
            level += delta
            best = max(best, level)
        return best

    def describe(self, limit: Optional[int] = None) -> str:
        """Multi-line rendering of the history (optionally truncated)."""
        ops = sorted(self.operations, key=lambda op: op.invoked_at)
        if limit is not None:
            ops = ops[:limit]
        return "\n".join(op.describe() for op in ops)


def make_history(
    entries: Sequence[tuple],
    initial_value: Any = None,
) -> History:
    """Build a history from compact tuples — a convenience for tests.

    Each entry is ``(pid, kind, value_or_result, invoked_at, responded_at)``
    where ``kind`` is ``"read"`` or ``"write"`` and ``responded_at`` may be
    ``None`` for pending operations.
    """
    operations = []
    for index, (pid, kind, payload, start, end) in enumerate(entries):
        op_kind = OpKind(kind)
        operations.append(
            Operation(
                pid=pid,
                kind=op_kind,
                value=payload if op_kind is OpKind.WRITE else None,
                result=payload if op_kind is OpKind.READ else None,
                invoked_at=start,
                responded_at=end,
                op_id=index,
            )
        )
    return History(operations=operations, initial_value=initial_value)
