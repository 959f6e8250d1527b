"""Serial store runs as their own differential oracle.

Every store run is single-process, so the guarantees that matter are that a
run is a pure function of its spec, and that the verdicts do not depend on
the route a history takes to the checker:

* a repeat run reproduces histories, metrics and message totals exactly;
* the OpLog shipped over the load generator's wire (``encode_oplog`` /
  ``decode_oplog``) checks to the same per-key verdicts as the store itself;
* the single-writer claims fast path and the Wing–Gong search agree on
  every key;
* the claims checker returns the same report on a key's columns as on its
  ``to_history()`` rows, violating histories included.

The matrix spans both driving loops, a skewed key distribution and a
fault-plan run with partitions.
"""

import pytest

from repro.exec.oplog import decode_oplog, encode_oplog
from repro.verification.history import OpKind
from repro.verification.linearizability import check_histories_per_key
from repro.verification.register_checker import check_swmr_atomicity
from repro.workloads.kv import run_kv_workload
from repro.workloads.scenarios import kv_openloop, kv_partitioned, kv_uniform, kv_zipfian

#: name -> spec builder.  Builders (not specs) keep the module import cheap.
CASES = {
    "uniform": lambda: kv_uniform(num_keys=12, num_ops=120, seed=5),
    "zipfian": lambda: kv_zipfian(num_keys=16, num_ops=120, seed=6),
    "openloop": lambda: kv_openloop(num_keys=16, num_ops=120, arrival_rate=8.0, seed=7),
    "faultplan": lambda: kv_partitioned(num_keys=10, num_ops=100, seed=8),
}


def histories_dict(result):
    return {str(key): history.to_dict() for key, history in result.store.histories().items()}


def verdicts(report):
    return {
        str(key): (check.linearizable, check.operations, check.method)
        for key, check in report.per_key.items()
    }


class TestSerialDifferential:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_repeat_run_is_bit_identical(self, name):
        first, second = run_kv_workload(CASES[name]()), run_kv_workload(CASES[name]())
        assert histories_dict(first) == histories_dict(second)
        assert first.metrics == second.metrics
        assert first.total_messages() == second.total_messages()
        assert first.virtual_makespan == second.virtual_makespan
        assert first.finished_cleanly and second.finished_cleanly

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_wire_decoded_log_checks_like_the_store(self, name):
        result = run_kv_workload(CASES[name]())
        store = result.store
        direct = store.check_linearizability()
        decoded = decode_oplog(*encode_oplog(store.driver.oplog))
        shipped = check_histories_per_key(
            decoded.per_key_histories(initial_value=store.config.initial_value)
        )
        assert direct.ok and direct.keys_checked > 0
        assert verdicts(shipped) == verdicts(direct)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_fast_path_and_search_agree_on_every_key(self, name):
        store = run_kv_workload(CASES[name]()).store
        fast = store.check_linearizability()
        search = store.check_linearizability(swmr_fast_path=False)
        assert {key: check.linearizable for key, check in fast.per_key.items()} == {
            key: check.linearizable for key, check in search.per_key.items()
        }
        assert fast.operations_checked == search.operations_checked
        assert fast.ok
        assert {check.method for check in search.per_key.values()} <= {"wing-gong", "trivial"}


def stale_read(history):
    """Rewrite one read's result index to an older written value, in place.

    The read starts after a write completed and now returns the value of
    the write before it: a Claim-2 violation.  Returns False when the key
    has no such read (fewer than two writes, or no read after them).
    """
    _pids, kinds, _values, _results, invoked, responded, _ = history.fields()
    writes = sorted(
        (row for row, kind in enumerate(kinds) if kind is OpKind.WRITE), key=invoked.__getitem__
    )
    for row, kind in enumerate(kinds):
        if kind is not OpKind.READ or responded[row] is None:
            continue
        for newer, older in zip(reversed(writes), reversed(writes[:-1])):
            if responded[newer] is not None and responded[newer] < invoked[row]:
                history._result_idx[row] = history._value_idx[older]
                return True
    return False


class TestClaimsAdapterParity:
    """The claims checker reads store columns and ``Operation`` rows alike."""

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_columns_and_rows_give_equal_reports(self, name):
        store = run_kv_workload(CASES[name]()).store
        mutated = 0
        for key, history in store.histories().items():
            report = check_swmr_atomicity(history, raise_on_violation=False)
            assert report == check_swmr_atomicity(history.to_history(), raise_on_violation=False), key
            assert report.ok, key
            if stale_read(history):
                mutated += 1
                report = check_swmr_atomicity(history, raise_on_violation=False)
                rows = check_swmr_atomicity(history.to_history(), raise_on_violation=False)
                assert not report.ok, key
                assert report == rows, key
                assert report.violations == rows.violations, key
        assert mutated, "no key had a read to rewrite"
