"""Columnar per-key histories: the OpLog's column slices against ``History``.

A :class:`ColumnarHistory` is built only by an :class:`OpLog`.  It is gated
on *exactness*: ``to_history()`` must rebuild the rows that
``History.from_records`` builds from the same records — pending and failed
operations, interned duplicate values, unhashable values and the
``1``/``1.0``/``True`` equality trap included — ``to_dict`` output must be
byte-identical, and the claims checker must return the same report on the
columns as on the materialized rows.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.exec.oplog import OpLog
from repro.registers.base import OperationKind, OperationRecord
from repro.verification.columnar import ValueInterner
from repro.verification.history import History, OpKind
from repro.verification.register_checker import check_swmr_atomicity
from repro.workloads.kv import run_kv_workload
from repro.workloads.scenarios import kv_openloop, kv_uniform, kv_zipfian

SETTINGS = dict(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# Small domains force duplicate values (exercising the interner's dedup) and
# include unhashables (lists) plus the 1 / 1.0 / True equality trap.
values = st.one_of(
    st.none(),
    st.sampled_from([0, 1, True, False, 1.0, 0.0, "v1", "v2", ""]),
    st.text(max_size=4),
    st.lists(st.integers(0, 2), max_size=2),
)
times = st.floats(min_value=0, max_value=1e6, allow_nan=False, allow_infinity=False)


def log_operation(log, key, kind, value, pid, op_id, invoked=None, responded=None, result=None, failed=None):
    """Record one driver operation into ``log``; returns its record (or None)."""
    row = log.note_created(kind, key, value)
    if invoked is None:  # never issued: no record, no history row
        if failed is not None:
            log.note_failed(row, failed)
        return None
    record = OperationRecord(
        op_id=op_id, pid=pid, kind=kind, value=value, invoked_at=invoked
    )
    log.note_issued(row, record)
    if responded is not None:
        record.responded_at = responded
        record.result = result
        log.note_completed(row, record)
    elif failed is not None:  # failed after issue: pending forever
        log.note_failed(row, failed)
    return record


@st.composite
def logged_runs(draw):
    """An OpLog over two keys plus, per key, the records it was fed."""
    log = OpLog()
    records = {"a": [], "b": []}
    for op_id in range(draw(st.integers(min_value=0, max_value=12))):
        key = draw(st.sampled_from(["a", "b"]))
        kind = draw(st.sampled_from([OperationKind.READ, OperationKind.WRITE]))
        issued = draw(st.booleans())
        invoked = draw(times) if issued else None
        pending = draw(st.booleans())
        record = log_operation(
            log,
            key,
            kind,
            draw(values),
            pid=draw(st.integers(min_value=0, max_value=3)),
            op_id=op_id,
            invoked=invoked,
            responded=None if not issued or pending else invoked + draw(times),
            result=draw(values),
            failed=draw(st.one_of(st.none(), st.just("crashed"))),
        )
        if record is not None:
            records[key].append(record)
    return log, records, draw(values)


def materialized(run):
    """Per key: the columnar history, and the History the records make."""
    log, records, initial = run
    for key, key_records in records.items():
        yield (
            log.history_for(key, initial_value=initial),
            History.from_records(key_records, initial_value=initial),
        )


def crafted_log():
    """One key: equal cross-type values, a pending row, two failed ops."""
    log = OpLog()
    read, write = OperationKind.READ, OperationKind.WRITE
    log_operation(log, "k", write, 1, pid=0, op_id=0, invoked=0.0, responded=1.0)
    log_operation(log, "k", write, 1.0, pid=0, op_id=1, invoked=2.0, responded=3.0)
    log_operation(log, "k", read, None, pid=1, op_id=0, invoked=4.0, responded=5.0, result=True)
    # Failed after issue: a pending row.  Failed before issue: no row.
    log_operation(log, "k", write, "lost", pid=0, op_id=2, invoked=6.0, failed="crashed")
    log_operation(log, "k", write, "never", pid=0, op_id=3, failed="crashed before issuing")
    return log


class TestRoundTripProperties:
    @settings(**SETTINGS)
    @given(logged_runs())
    def test_history_round_trips_exactly(self, run):
        for columnar, expected in materialized(run):
            back = columnar.to_history()
            assert back == expected
            assert len(columnar) == len(expected)
            for restored, original in zip(back.operations, expected.operations):
                assert type(restored.value) is type(original.value)
                assert type(restored.result) is type(original.result)

    @settings(**SETTINGS)
    @given(logged_runs())
    def test_to_dict_identical(self, run):
        for columnar, expected in materialized(run):
            assert columnar.to_dict() == expected.to_dict()

    @settings(**SETTINGS)
    @given(logged_runs())
    def test_timestamps_match_row_views(self, run):
        for columnar, expected in materialized(run):
            invoked, responded = columnar.timestamps()
            assert invoked == [op.invoked_at for op in expected.operations]
            assert responded == [op.responded_at for op in expected.operations]


class TestRepresentationDetails:
    def test_pending_operation_round_trips(self):
        history = crafted_log().history_for("k", initial_value="v0").to_history()
        assert [op.op_id for op in history.operations] == [0, 1, 2, 3]
        pending = history.operations[-1]
        assert pending.pending and pending.kind is OpKind.WRITE
        assert pending.value == "lost" and pending.result is None
        assert all(not op.pending for op in history.operations[:-1])

    def test_equal_cross_type_values_keep_their_type(self):
        history = crafted_log().history_for("k", initial_value="v0").to_history()
        first, second, read_op, _pending = history.operations
        assert type(first.value) is int and type(second.value) is float
        assert read_op.kind is OpKind.READ and read_op.result is True

    def test_history_for_matches_per_key_histories(self):
        log = crafted_log()
        assert log.history_for("k", "v0").to_dict() == log.per_key_histories("v0")["k"].to_dict()
        assert len(log.history_for("absent", "v0")) == 0

    def test_nbytes_counts_seven_columns(self):
        history = crafted_log().history_for("k", initial_value="v0")
        # One kind byte plus six 8-byte columns per row; the table is shared.
        assert history.nbytes() == 49 * len(history) == 49 * 4

    def test_interner_deduplicates_but_separates_equal_cross_type_values(self):
        interner = ValueInterner()
        assert interner.intern("v1") == interner.intern("v1")
        slots = {interner.intern(1), interner.intern(1.0), interner.intern(True)}
        assert len(slots) == 3  # 1 == 1.0 == True, yet all keep their identity
        assert interner.values[interner.intern(1)] is not True

    def test_unhashable_values_append_without_dedup(self):
        interner = ValueInterner()
        first, second = interner.intern([1, 2]), interner.intern([1, 2])
        assert first != second
        assert interner.values[first] == [1, 2]

    def test_duplicate_values_share_one_table_slot(self):
        log = OpLog()
        log_operation(log, "same", OperationKind.WRITE, "same", pid=0, op_id=0, invoked=0.0, responded=1.0)
        log_operation(
            log, "same", OperationKind.READ, None, pid=1, op_id=0, invoked=2.0, responded=3.0, result="same"
        )
        history = log.history_for("same", initial_value="same")
        assert history._table.count("same") == 1


def _real_run_histories():
    """Per-key histories of real runs, as columns and as rows."""
    pairs = []
    for spec in (
        kv_uniform(num_keys=8, num_ops=80, seed=11),
        kv_zipfian(num_keys=8, num_ops=80, seed=12),
        kv_openloop(num_keys=8, num_ops=60, arrival_rate=6.0, seed=13),
    ):
        for key, columnar in run_kv_workload(spec).store.histories().items():
            pairs.append((key, columnar, columnar.to_history()))
    return pairs


class TestCheckerDifferential:
    def test_swmr_verdicts_identical(self):
        for key, columnar, objects in _real_run_histories():
            col_report = check_swmr_atomicity(columnar, raise_on_violation=False)
            obj_report = check_swmr_atomicity(objects, raise_on_violation=False)
            assert col_report == obj_report, key
