"""ColumnarHistory ↔ History round-trips and checker differentials.

The columnar plane is gated on *exactness*: converting an object history to
columns and back must reproduce it field-for-field (including pending
operations, duplicate/interned values, unhashable values and
non-float-representable timestamps), serialized ``to_dict`` output must be
byte-identical, and every checker must return the same verdict — with the
same witness — on either representation.
"""

import math
import pickle

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.verification.columnar import ColumnarHistory, OpView, ValueInterner
from repro.verification.history import History, OpKind, Operation, make_history
from repro.verification.linearizability import (
    check_linearizability,
    find_linearization,
    is_linearizable,
    verify_witness,
)
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
# Times mix plain floats with ints (the non-float-representable-in-a-double
# column case hand-written test histories hit).
times = st.one_of(
    st.floats(min_value=0, max_value=1e6, allow_nan=False, allow_infinity=False),
    st.integers(min_value=0, max_value=10**6),
)


@st.composite
def histories(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    operations = []
    for op_id in range(n):
        invoked = draw(times)
        pending = draw(st.booleans())
        responded = None if pending else invoked + draw(times)
        operations.append(
            Operation(
                pid=draw(st.integers(min_value=0, max_value=5)),
                kind=draw(st.sampled_from([OpKind.READ, OpKind.WRITE])),
                value=draw(values),
                result=draw(values),
                invoked_at=invoked,
                responded_at=responded,
                op_id=op_id,
            )
        )
    return History(operations=operations, initial_value=draw(values))


class TestRoundTripProperties:
    @settings(**SETTINGS)
    @given(histories())
    def test_history_round_trips_exactly(self, history):
        columnar = ColumnarHistory.from_history(history)
        back = columnar.to_history()
        assert back == history
        for restored, original in zip(back.operations, history.operations):
            assert type(restored.invoked_at) is type(original.invoked_at)
            assert type(restored.responded_at) is type(original.responded_at)
            assert type(restored.value) is type(original.value)
            assert type(restored.result) is type(original.result)

    @settings(**SETTINGS)
    @given(histories())
    def test_to_dict_identical(self, history):
        columnar = ColumnarHistory.from_history(history)
        assert columnar.to_dict() == history.to_dict()

    @settings(**SETTINGS)
    @given(histories())
    def test_views_equal_operations_both_ways(self, history):
        columnar = ColumnarHistory.from_history(history)
        assert len(columnar) == len(history.operations)
        for view, op in zip(columnar.operations, history.operations):
            assert view == op
            assert op == view
            try:
                assert hash(view) == hash(op)
            except TypeError:
                pass  # unhashable field (list value): Operation can't hash either

    @settings(**SETTINGS)
    @given(histories())
    def test_pickle_ships_columns_and_round_trips(self, history):
        columnar = ColumnarHistory.from_history(history)
        restored = pickle.loads(pickle.dumps(columnar))
        assert restored.to_dict() == history.to_dict()

    @settings(**SETTINGS)
    @given(histories())
    def test_filtered_views_match_object_path(self, history):
        columnar = ColumnarHistory.from_history(history)
        assert [v.to_operation() for v in columnar.completed()] == history.completed()
        assert [v.to_operation() for v in columnar.pending()] == history.pending()
        assert [v.to_operation() for v in columnar.reads()] == history.reads()
        assert [v.to_operation() for v in columnar.writes()] == history.writes()
        assert columnar.writer_pids() == history.writer_pids()
        assert columnar.written_values_distinct() == history.written_values_distinct()
        assert columnar.max_concurrency() == history.max_concurrency()

    @settings(**SETTINGS)
    @given(histories())
    def test_timestamps_match_row_views(self, history):
        columnar = ColumnarHistory.from_history(history)
        invoked, responded = columnar.timestamps()
        assert invoked == [view.invoked_at for view in columnar]
        assert responded == [view.responded_at for view in columnar]
        assert responded == [op.responded_at for op in history.operations]


class TestRepresentationDetails:
    def test_pending_operation_round_trips(self):
        history = make_history([(0, "write", "v1", 0.0, None)], initial_value="v0")
        columnar = ColumnarHistory.from_history(history)
        view = columnar.operations[0]
        assert view.pending
        assert view.responded_at is None
        assert columnar.to_history() == history

    def test_integer_times_keep_their_type(self):
        history = make_history([(0, "write", "v1", 1, 3)], initial_value="v0")
        columnar = ColumnarHistory.from_history(history)
        view = columnar.operations[0]
        assert view.invoked_at == 1 and type(view.invoked_at) is int
        assert view.responded_at == 3 and type(view.responded_at) is int

    def test_nan_timestamp_survives_without_becoming_pending(self):
        nan = float("nan")
        op = Operation(
            pid=0, kind=OpKind.WRITE, value="v", result=None,
            invoked_at=0.0, responded_at=nan, op_id=0,
        )
        columnar = ColumnarHistory.from_operations([op])
        view = columnar.operations[0]
        assert not view.pending
        assert math.isnan(view.responded_at)

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
        history = make_history(
            [(0, "write", "same", 0.0, 1.0), (1, "read", "same", 2.0, 3.0)],
            initial_value="same",
        )
        columnar = ColumnarHistory.from_history(history)
        assert columnar._table.count("same") == 1

    def test_row_views_have_stable_identity(self):
        # verify_witness matches witness entries by id(), so separate
        # accesses to the same row must return the same view object.
        history = make_history([(0, "write", "v1", 0.0, 1.0)], initial_value="v0")
        columnar = ColumnarHistory.from_history(history)
        assert columnar.operations[0] is columnar.operations[0]
        assert list(columnar.operations)[0] is columnar.operations[0]

    def test_views_interoperate_with_operations_in_sets(self):
        history = make_history([(0, "write", "v1", 0.0, 1.0)], initial_value="v0")
        columnar = ColumnarHistory.from_history(history)
        assert {columnar.operations[0]} == {history.operations[0]}

    def test_row_views_support_negative_index_and_slices(self):
        history = make_history(
            [(0, "write", "v1", 0.0, 1.0), (1, "read", "v1", 2.0, 3.0)],
            initial_value="v0",
        )
        rows = ColumnarHistory.from_history(history).operations
        assert rows[-1] == history.operations[-1]
        assert [v.to_operation() for v in rows[0:2]] == history.operations
        with pytest.raises(IndexError):
            rows[2]


def _real_run_histories():
    """Per-key histories of real runs, in both representations."""
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
            assert col_report.ok == obj_report.ok, key
            assert col_report.violations == obj_report.violations, key

    def test_wing_gong_verdicts_and_witnesses_identical(self):
        for key, columnar, objects in _real_run_histories():
            col = check_linearizability(columnar)
            obj = check_linearizability(objects)
            assert col.linearizable == obj.linearizable, key
            assert col.operations == obj.operations, key
            assert col.states_explored == obj.states_explored, key
            assert is_linearizable(columnar) == is_linearizable(objects), key

            col_witness = find_linearization(columnar)
            obj_witness = find_linearization(objects)
            assert (col_witness is None) == (obj_witness is None), key
            if col_witness is not None:
                # Same linearization order on both representations, and each
                # witness independently verifies against its own history
                # (verify_witness matches operations by identity).
                assert [op.to_dict() for op in col_witness] == [
                    op.to_dict() for op in obj_witness
                ], key
                assert verify_witness(columnar, col_witness) == [], key
                assert verify_witness(objects, obj_witness) == [], key
