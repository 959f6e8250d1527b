"""Unit tests for operation histories."""

from repro.registers.base import OperationKind, OperationRecord
from repro.verification.history import History, OpKind, Operation, make_history


class TestOperation:
    def test_precedence_and_concurrency(self):
        first = Operation(pid=0, kind=OpKind.WRITE, value="a", invoked_at=0.0, responded_at=1.0)
        second = Operation(pid=1, kind=OpKind.READ, result="a", invoked_at=2.0, responded_at=3.0)
        overlapping = Operation(pid=2, kind=OpKind.READ, result="a", invoked_at=0.5, responded_at=2.5)
        assert first.precedes(second)
        assert not second.precedes(first)
        assert first.concurrent_with(overlapping)
        assert overlapping.concurrent_with(second)

    def test_pending_operations_never_precede(self):
        pending = Operation(pid=0, kind=OpKind.WRITE, value="a", invoked_at=0.0, responded_at=None)
        later = Operation(pid=1, kind=OpKind.READ, invoked_at=10.0, responded_at=11.0)
        assert pending.pending
        assert not pending.precedes(later)
        assert pending.concurrent_with(later)

    def test_describe_mentions_kind_and_value(self):
        write = Operation(pid=0, kind=OpKind.WRITE, value="x", invoked_at=0.0, responded_at=1.0)
        read = Operation(pid=1, kind=OpKind.READ, result="x", invoked_at=0.0, responded_at=None)
        assert "write('x')" in write.describe()
        assert "read() -> 'x'" in read.describe()
        assert "pending" in read.describe()


class TestHistoryConstruction:
    def test_make_history_compact_form(self):
        history = make_history(
            [
                (0, "write", "v1", 0.0, 1.0),
                (1, "read", "v1", 2.0, 3.0),
                (2, "read", "v1", 2.5, None),
            ],
            initial_value="v0",
        )
        assert len(history) == 3
        assert len(history.completed()) == 2
        assert len(history.pending()) == 1
        assert history.initial_value == "v0"

    def test_from_records_sorted_by_invocation(self):
        records = [
            OperationRecord(op_id=0, pid=1, kind=OperationKind.READ, invoked_at=5.0, responded_at=6.0, result="v1", completed=True),
            OperationRecord(op_id=0, pid=0, kind=OperationKind.WRITE, value="v1", invoked_at=0.0, responded_at=2.0, completed=True),
        ]
        records[0].responded_at = 6.0
        history = History.from_records(records, initial_value="v0")
        assert [op.kind for op in history.operations] == [OpKind.WRITE, OpKind.READ]
        assert history.operations[0].value == "v1"
        assert history.operations[1].result == "v1"


class TestHistoryViews:
    def _sample(self):
        return make_history(
            [
                (0, "write", "v1", 0.0, 1.0),
                (0, "write", "v2", 2.0, 3.0),
                (1, "read", "v1", 0.5, 1.5),
                (1, "read", "v2", 4.0, 5.0),
                (2, "read", None, 4.5, None),
            ],
            initial_value="v0",
        )

    def test_reads_and_writes_views(self):
        history = self._sample()
        assert len(history.writes()) == 2
        assert len(history.reads()) == 2
        assert len(history.reads(include_pending=True)) == 3

    def test_by_process(self):
        history = self._sample()
        assert [op.value for op in history.by_process(0)] == ["v1", "v2"]
        assert len(history.by_process(1)) == 2

    def test_max_concurrency(self):
        sequential = make_history(
            [(0, "write", "v1", 0.0, 1.0), (1, "read", "v1", 2.0, 3.0)], initial_value="v0"
        )
        assert sequential.max_concurrency() == 1
        overlapping = make_history(
            [
                (0, "write", "v1", 0.0, 10.0),
                (1, "read", "v0", 1.0, 9.0),
                (2, "read", "v0", 2.0, 8.0),
            ],
            initial_value="v0",
        )
        assert overlapping.max_concurrency() == 3

    def test_describe_renders_every_operation(self):
        text = self._sample().describe()
        assert text.count("\n") == 4
        assert "write('v1')" in text
