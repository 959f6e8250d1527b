"""Unit tests for the fast SWMR atomicity checker (the three claims of Lemma 10)."""

import gc
import time

import pytest

from repro.exec.oplog import OpLog
from repro.registers.base import OperationKind, OperationRecord
from repro.store.store import create_store
from repro.verification import register_checker
from repro.verification.history import History, OpKind, Operation, make_history
from repro.verification.linearizability import check_histories_per_key
from repro.verification.register_checker import AtomicityViolation, check_swmr_atomicity


def check(entries, initial="v0", raise_on_violation=False):
    return check_swmr_atomicity(
        make_history(entries, initial_value=initial), raise_on_violation=raise_on_violation
    )


def record_entries(oplog, entries, key="k"):
    """Record ``make_history``-style entries into ``oplog`` under ``key``."""
    for op_id, (pid, kind, payload, start, end) in enumerate(entries):
        op_kind = OperationKind(kind)
        value = payload if op_kind is OperationKind.WRITE else None
        row = oplog.note_created(op_kind, key, value)
        record = OperationRecord(
            op_id=op_id,
            pid=pid,
            kind=op_kind,
            value=value,
            invoked_at=start,
            responded_at=end,
            result=payload if op_kind is OperationKind.READ else None,
        )
        oplog.note_issued(row, record)
        if end is not None:
            oplog.note_completed(row, record)


def oplog_history(entries, initial="v0"):
    """The same entries as a store's per-key columnar history."""
    oplog = OpLog()
    record_entries(oplog, entries)
    return oplog.history_for("k", initial_value=initial)


class TestAcceptedHistories:
    def test_empty_history_is_atomic(self):
        assert check([]).ok

    def test_sequential_history_is_atomic(self):
        report = check(
            [
                (0, "write", "v1", 0.0, 1.0),
                (1, "read", "v1", 2.0, 3.0),
                (0, "write", "v2", 4.0, 5.0),
                (2, "read", "v2", 6.0, 7.0),
            ]
        )
        assert report.ok
        assert report.reads_checked == 2
        assert report.writes_checked == 2

    def test_read_of_initial_value_before_any_write(self):
        assert check([(1, "read", "v0", 0.0, 1.0), (0, "write", "v1", 2.0, 3.0)]).ok

    def test_read_concurrent_with_write_may_return_either_value(self):
        for returned in ("v0", "v1"):
            assert check(
                [(0, "write", "v1", 0.0, 10.0), (1, "read", returned, 1.0, 9.0)]
            ).ok

    def test_pending_write_may_or_may_not_be_observed(self):
        for returned in ("v0", "v1"):
            assert check(
                [(0, "write", "v1", 0.0, None), (1, "read", returned, 5.0, 6.0)]
            ).ok

    def test_pending_reads_are_ignored(self):
        assert check(
            [(0, "write", "v1", 0.0, 1.0), (1, "read", None, 2.0, None)]
        ).ok

    def test_two_concurrent_reads_spanning_a_write(self):
        # Both reads overlap the write; one sees the old value, one the new:
        # allowed in either order because neither read precedes the other.
        assert check(
            [
                (0, "write", "v1", 0.0, 10.0),
                (1, "read", "v1", 1.0, 9.0),
                (2, "read", "v0", 2.0, 8.0),
            ]
        ).ok

    def test_max_read_lag_metric(self):
        report = check(
            [
                (0, "write", "v1", 0.0, 10.0),
                (1, "read", "v0", 1.0, 9.0),
            ]
        )
        assert report.ok
        assert report.max_read_lag == 1


class TestClaim1ReadFromTheFuture:
    def test_read_cannot_return_a_value_written_after_it_finished(self):
        report = check(
            [
                (1, "read", "v1", 0.0, 1.0),
                (0, "write", "v1", 5.0, 6.0),
            ]
        )
        assert not report.ok
        assert any("Claim 1" in violation for violation in report.violations)

    def test_never_written_value_is_a_violation(self):
        report = check([(1, "read", "ghost", 0.0, 1.0)])
        assert not report.ok
        assert any("never written" in violation for violation in report.violations)


class TestClaim2OverwrittenValue:
    def test_read_must_not_return_an_overwritten_value(self):
        report = check(
            [
                (0, "write", "v1", 0.0, 1.0),
                (0, "write", "v2", 2.0, 3.0),
                (1, "read", "v1", 4.0, 5.0),
            ]
        )
        assert not report.ok
        assert any("Claim 2" in violation for violation in report.violations)

    def test_stale_initial_value_after_completed_write(self):
        report = check(
            [
                (0, "write", "v1", 0.0, 1.0),
                (1, "read", "v0", 2.0, 3.0),
            ]
        )
        assert not report.ok

    def test_reader_must_see_its_own_process_preceding_write(self):
        # The writer reads after its own completed write.
        report = check(
            [
                (0, "write", "v1", 0.0, 1.0),
                (0, "read", "v0", 2.0, 3.0),
            ]
        )
        assert not report.ok


class TestClaim3NewOldInversion:
    def test_new_old_inversion_detected(self):
        report = check(
            [
                (0, "write", "v1", 0.0, 10.0),
                (1, "read", "v1", 1.0, 2.0),
                (2, "read", "v0", 3.0, 4.0),
            ]
        )
        assert not report.ok
        assert any("Claim 3" in violation for violation in report.violations)

    def test_same_value_in_sequence_is_fine(self):
        assert check(
            [
                (0, "write", "v1", 0.0, 10.0),
                (1, "read", "v1", 1.0, 2.0),
                (2, "read", "v1", 3.0, 4.0),
            ]
        ).ok


class TestInputValidation:
    def test_multiple_writers_rejected(self):
        with pytest.raises(ValueError, match="writers"):
            check([(0, "write", "a", 0.0, 1.0), (1, "write", "b", 2.0, 3.0)])

    def test_duplicate_written_values_rejected(self):
        with pytest.raises(ValueError, match="not unique"):
            check([(0, "write", "dup", 0.0, 1.0), (0, "write", "dup", 2.0, 3.0)])

    def test_raise_on_violation_mode(self):
        with pytest.raises(AtomicityViolation, match="Claim 2"):
            check(
                [
                    (0, "write", "v1", 0.0, 1.0),
                    (1, "read", "v0", 2.0, 3.0),
                ],
                raise_on_violation=True,
            )

    def test_report_lists_every_violation(self):
        report = check(
            [
                (0, "write", "v1", 0.0, 1.0),
                (1, "read", "v0", 2.0, 3.0),
                (2, "read", "ghost", 4.0, 5.0),
            ]
        )
        assert len(report.violations) == 2


class TestWriterProgramOrder:
    """Reads by the writer at zero think time, where only program order applies."""

    # The writer reads the initial value at the very instant its own write
    # responds.  Claim 2 compares times strictly, so only the writer pass
    # sees that the write precedes the read.
    ENTRIES = [
        (0, "write", "v1", 0.0, 1.0),
        (0, "read", "v0", 1.0, 2.0),
        (1, "read", "v1", 3.0, 4.0),
    ]
    MESSAGE = (
        "program order (writer): read() -> 'v0' by p0 [1.000, 2.000] returned write #0 "
        "although the writer itself had already completed write #1 before invoking the read"
    )

    def _store_report(self):
        store = create_store(num_shards=1, replication=3, algorithm="two-bit", initial_value="v0")
        record_entries(store.driver.oplog, self.ENTRIES)
        return store.check_atomicity(raise_on_violation=False)

    def test_read_at_the_writes_response_instant_is_pinned(self):
        report = check(self.ENTRIES)
        assert report.violations == [self.MESSAGE]

    def test_all_entry_points_report_the_same_violations(self):
        history = make_history(self.ENTRIES, initial_value="v0")
        columnar = oplog_history(self.ENTRIES)
        by_entry_point = {
            "History": check_swmr_atomicity(history, raise_on_violation=False).violations,
            "ColumnarHistory": check_swmr_atomicity(columnar, raise_on_violation=False).violations,
            "check_histories_per_key": check_histories_per_key({"k": columnar})
            .per_key["k"]
            .violations,
            "KVStore.check_atomicity": self._store_report().per_key["k"].violations,
        }
        for entry_point, violations in by_entry_point.items():
            assert violations == [self.MESSAGE], entry_point

    def test_read_of_the_writers_next_write_is_caught(self):
        # The writer's read responds exactly when its next write is invoked;
        # program order puts the read first, so it cannot see that write.
        report = check(
            [
                (0, "write", "v1", 0.0, 1.0),
                (0, "read", "v2", 1.0, 2.0),
                (0, "write", "v2", 2.0, 3.0),
            ]
        )
        assert report.violations == [
            "program order (writer): read() -> 'v2' by p0 [1.000, 2.000] returned the value of "
            "write('v2') by p0 [2.000, 3.000], which the writer itself invoked only after "
            "invoking the read"
        ]

    def test_read_of_the_writers_latest_write_is_fine(self):
        assert check(
            [
                (0, "write", "v1", 0.0, 1.0),
                (0, "read", "v1", 1.0, 2.0),
                (0, "write", "v2", 2.0, 3.0),
                (0, "read", "v2", 3.0, 4.0),
            ]
        ).ok


class TestEquality:
    def test_equal_values_of_different_types_are_duplicates(self):
        # Columns intern 1 and 1.0 in separate slots; the claims still
        # identify a write by ==, so the history is out of scope.
        with pytest.raises(ValueError, match="not unique"):
            check([(0, "write", 1, 0.0, 1.0), (0, "write", 1.0, 2.0, 3.0)])

    def test_read_result_matches_an_equal_written_value(self):
        assert check([(0, "write", 1, 0.0, 1.0), (1, "read", 1.0, 2.0, 3.0)]).ok

    def test_exact_integer_timestamps_are_honoured(self):
        entries = [(0, "write", "v1", 0, 1), (1, "read", "v0", 2, 3)]
        expected = check_swmr_atomicity(make_history(entries, "v0"), raise_on_violation=False)
        columnar = check_swmr_atomicity(oplog_history(entries), raise_on_violation=False)
        assert expected.violations == columnar.violations
        assert "[2.000, 3.000]" in expected.violations[0]


class TestPerKeyRouting:
    def test_unhashable_written_values_go_to_wing_gong(self):
        history = make_history(
            [(0, "write", [1], 0.0, 1.0), (0, "write", [2], 2.0, 3.0), (1, "read", [2], 4.0, 5.0)],
            initial_value="v0",
        )
        columnar = oplog_history(
            [(0, "write", [1], 0.0, 1.0), (0, "write", [2], 2.0, 3.0), (1, "read", [2], 4.0, 5.0)]
        )
        for candidate in (history, columnar):
            result = check_histories_per_key({"k": candidate}).per_key["k"]
            assert result.method == "wing-gong"
            assert result.linearizable
            assert result.operations == 3
        with pytest.raises(TypeError):
            check_swmr_atomicity(history)

    def test_out_of_scope_history_goes_to_wing_gong(self):
        two_writers = make_history([(0, "write", "a", 0.0, 1.0), (1, "write", "b", 2.0, 3.0)])
        result = check_histories_per_key({"k": two_writers}).per_key["k"]
        assert result.method == "wing-gong" and result.linearizable
        with pytest.raises(ValueError, match="2 writers"):
            check_swmr_atomicity(two_writers)

    def test_operations_other_than_reads_and_writes_are_rejected(self):
        history = History(
            operations=[
                Operation(0, OpKind.WRITE, value="a", invoked_at=0.0, responded_at=1.0, op_id=0),
                Operation(1, OpKind.CAS, value=("a", "b"), result=True, invoked_at=2.0, responded_at=3.0, op_id=1),
            ],
            initial_value="v0",
        )
        with pytest.raises(ValueError, match="holds a cas operation"):
            check_swmr_atomicity(history)

    def test_per_key_checks_go_through_the_public_entry_point(self, monkeypatch):
        calls = []
        original = register_checker.check_swmr_atomicity

        def spy(history, raise_on_violation=True):
            calls.append(raise_on_violation)
            return original(history, raise_on_violation=raise_on_violation)

        monkeypatch.setattr(register_checker, "check_swmr_atomicity", spy)
        histories = {"a": oplog_history([(0, "write", "v1", 0.0, 1.0)]), "b": oplog_history([])}
        report = check_histories_per_key(histories)
        assert calls == [False, False]
        assert {result.method for result in report.per_key.values()} == {"swmr-claims"}

    def test_claims_count_every_relevant_operation(self):
        history = make_history(
            [
                (0, "write", "v1", 0.0, 1.0),
                (0, "write", "v2", 2.0, None),
                (1, "read", "v1", 0.5, 1.5),
                (2, "read", None, 3.0, None),
            ],
            initial_value="v0",
        )
        result = check_histories_per_key({"k": history}).per_key["k"]
        assert result.method == "swmr-claims"
        assert result.operations == 3  # the pending read imposes nothing


def _zero_think_writer_history(num_ops):
    """The writer alternates write and read of its own value, back to back."""
    entries = []
    for op_id in range(num_ops):
        start = float(op_id)
        seq = op_id // 2 + 1
        kind = "write" if op_id % 2 == 0 else "read"
        entries.append((0, kind, f"v{seq}", start, start + 1.0))
    return oplog_history(entries)


def _best_check_seconds(history, repeats=5):
    best = float("inf")
    gc_was_enabled = gc.isenabled()
    gc.disable()  # a collection inside one timed call would skew the ratio
    try:
        for _ in range(repeats):
            started = time.perf_counter()
            report = check_swmr_atomicity(history, raise_on_violation=False)
            best = min(best, time.perf_counter() - started)
            assert report.ok
    finally:
        if gc_was_enabled:
            gc.enable()
    return best


def test_check_time_scales_like_sorting():
    """Four times the ops may cost at most eight times the wall time.

    An ``O(N log N)`` checker takes ~4.5x; a pass that rescans every write
    for each read by the writer takes ~16x.
    """
    small, large = 2_000, 8_000
    ratio = _best_check_seconds(_zero_think_writer_history(large)) / _best_check_seconds(
        _zero_think_writer_history(small)
    )
    assert ratio <= 8.0, f"checking {large} ops took {ratio:.1f}x the time of {small}"
