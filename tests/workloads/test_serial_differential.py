"""Serial store runs as their own differential oracle.

Every store run is single-process, so the guarantees that matter are that a
run is a pure function of its spec, and that the verdicts do not depend on
the route a history takes to the checker:

* a repeat run reproduces histories, metrics and message totals exactly;
* the OpLog shipped over the load generator's wire (``encode_oplog`` /
  ``decode_oplog``) checks to the same per-key verdicts as the store itself;
* the single-writer claims fast path and the Wing–Gong search agree on
  every key.

The matrix spans both driving loops, a skewed key distribution and a
fault-plan run with partitions.
"""

import pytest

from repro.exec.oplog import decode_oplog, encode_oplog
from repro.verification.linearizability import check_histories_per_key
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
