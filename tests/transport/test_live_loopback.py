"""Live loopback cluster: end-to-end smoke + cross-backend equivalence.

These tests launch real OS processes talking asyncio TCP on 127.0.0.1, so
they are the slowest in the suite (a few seconds each) but also the proof
that the same register algorithms run unmodified over real sockets.
"""

import pytest

from repro.registers.base import OperationKind
from repro.workloads.kv import iter_kv_operations, run_kv_workload
from repro.workloads.scenarios import kv_uniform


def live_spec(**overrides):
    defaults = dict(num_keys=6, num_ops=60, replication=3, seed=13)
    defaults.update(overrides)
    return kv_uniform(**defaults).with_(transport="live")


class TestLiveLoopbackRun:
    def test_closed_loop_run_is_clean_and_linearizable(self):
        result = run_kv_workload(live_spec())
        assert result.finished_cleanly
        assert result.completed == 60 and result.failed == 0
        assert result.messages_total > 0
        report = result.check_linearizability()
        assert report.ok
        assert report.keys_checked == len(result.histories())
        # Wall-clock metrics plane: wall throughput present, virtual nulled.
        assert result.metrics["virtual_throughput"] is None
        assert result.metrics["wall_throughput"] > 0
        assert result.wall_throughput() > 0
        assert result.metrics["messages"]["total"] == result.messages_total

    def test_open_loop_poisson_run_is_clean(self):
        result = run_kv_workload(
            live_spec(num_ops=40).with_(arrival="poisson", arrival_rate=200.0)
        )
        assert result.finished_cleanly
        assert result.completed == 40
        assert result.check_linearizability().ok

    def test_open_loop_replies_are_stamped_on_arrival(self):
        # The schedule spans ~0.75 s and replies take milliseconds: a reply
        # stamped on arrival lands before the last invocation, while one
        # stamped after the schedule has fired never can.
        result = run_kv_workload(
            live_spec(num_ops=300).with_(arrival="poisson", arrival_rate=400.0)
        )
        assert result.finished_cleanly
        ops = [op for history in result.histories().values() for op in history.to_history().operations]
        assert len(ops) == 300
        assert min(op.responded_at for op in ops) < max(op.invoked_at for op in ops)


class TestCrossBackendEquivalence:
    def test_sim_and_live_execute_the_identical_operation_set(self):
        """Satellite gate: same seeded spec, both backends, same operations.

        The op-mix RNG stream is independent of the arrival model and of the
        transport, so a simulated run and a live loopback run of the same
        spec execute the exact same (kind, key, value) sequence; only the
        timings differ (virtual units vs wall seconds), by design.
        """
        sim_spec = kv_uniform(num_keys=6, num_ops=60, replication=3, seed=13)
        spec = live_spec()

        def op_set(s):
            return [
                (op.kind, op.key, op.value) for op in iter_kv_operations(s)
            ]

        assert op_set(sim_spec) == op_set(spec)

        sim_result = run_kv_workload(sim_spec)
        live_result = run_kv_workload(spec)
        sim_result.check_atomicity()
        assert live_result.check_linearizability().ok
        assert live_result.finished_cleanly

        from collections import Counter

        sim_ops = Counter(
            (op.kind.value, op.key, op.value) for op in sim_result.completed_ops()
        )
        live_ops = Counter()
        for key, history in live_result.histories().items():
            for record in history.to_history().operations:
                kind = OperationKind.WRITE if record.is_write else OperationKind.READ
                live_ops[(kind.value, key, record.value if record.is_write else None)] += 1
        assert sim_ops == live_ops

    def test_both_backends_checker_clean_on_every_algorithm(self):
        for algorithm in ("two-bit", "abd-mwmr"):
            spec = live_spec(num_ops=30, algorithm=algorithm)
            live_result = run_kv_workload(spec)
            assert live_result.finished_cleanly, algorithm
            assert live_result.check_linearizability().ok, algorithm
            sim_result = run_kv_workload(spec.with_(transport="sim"))
            sim_result.check_atomicity()
