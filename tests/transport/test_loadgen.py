"""Multi-process load generator: spec validation + checker-gated smoke run.

The smoke run is the expensive test in this file (one cluster boot plus two
spawned client workers), so it runs once and every property — counts,
linearizability, SLO report shape, unique per-op sessions, transport
accounting — is asserted against that single run.
"""

import dataclasses

import pytest

from repro.transport.loadgen import LoadgenSpec, run_loadgen


class TestLoadgenSpecValidation:
    @pytest.mark.parametrize(
        "overrides,match",
        [
            (dict(clients=0), "at least 1 client"),
            (dict(rate=0.0), "rate must be positive"),
            (dict(num_ops=0), "num_ops must be positive"),
            (dict(num_keys=0), "num_keys must be positive"),
            (dict(read_fraction=1.5), "read_fraction"),
            (dict(replicas=1), "at least 2 replicas"),
            (dict(codec="msgpack"), "unknown wire codec"),
            (dict(algorithm="raft"), "unknown algorithm"),
            (dict(num_ops=100_000, rate=10.0), "timeout must exceed"),
        ],
    )
    def test_bad_specs_rejected_up_front(self, overrides, match):
        with pytest.raises(ValueError, match=match):
            LoadgenSpec(**overrides)

    def test_worker_ops_partition_num_ops_exactly(self):
        spec = LoadgenSpec(clients=3, num_ops=100, rate=1000.0)
        shares = [spec.worker_ops(w) for w in range(spec.clients)]
        assert sum(shares) == 100
        assert max(shares) - min(shares) <= 1


class TestLoadgenSmoke:
    @pytest.fixture(scope="class")
    def result(self):
        spec = LoadgenSpec(
            clients=2,
            rate=400.0,
            num_ops=200,
            num_keys=8,
            read_fraction=0.8,
            replicas=3,
            seed=3,
            timeout=60.0,
        )
        return run_loadgen(spec)

    def test_all_ops_complete_with_no_failures(self, result):
        assert result.finished_cleanly
        assert result.worker_errors == []
        assert result.completed == 200 and result.failed == 0
        assert result.submitted == 200
        assert result.messages_total > 0

    def test_merged_history_is_linearizable_per_key(self, result):
        report = result.check_linearizability()
        assert report.ok
        assert report.keys_checked == len(result.histories())

    def test_replies_are_stamped_on_arrival(self, result):
        # Each worker's schedule spans ~0.5 s; an op answered in
        # milliseconds must carry that reply time, not the end of its
        # worker's schedule.  Session pids are worker + clients * n.
        clients = result.spec.clients
        ops = [op for history in result.histories().values() for op in history.to_history().operations]
        for worker in range(clients):
            mine = [op for op in ops if op.pid % clients == worker]
            assert min(op.responded_at for op in mine) < max(op.invoked_at for op in mine)

    def test_open_loop_ops_are_one_session_each(self, result):
        """Regression: open-loop ops must NOT share checker pids.

        The generator never waits for a response before issuing the next
        op, so consecutive ops from one worker genuinely overlap; reusing
        a per-worker pid would make the checker impose a fictitious
        program order over them and reject linearizable histories.  Every
        record therefore carries its own globally unique pid.
        """
        pids = [
            record.pid
            for history in result.histories().values()
            for record in history.to_history().operations
        ]
        assert len(pids) == len(set(pids))

    def test_written_values_are_globally_distinct(self, result):
        writes = [
            record.value
            for history in result.histories().values()
            for record in history.to_history().operations
            if record.is_write
        ]
        assert len(writes) == len(set(writes))

    def test_slo_report_shape_and_gating(self, result):
        report = result.slo_report()
        assert report["ok"] is True
        assert report["failed"] == 0
        assert report["offered_rate"] == 400.0
        assert report["achieved_rate"] > 0
        assert 0 < report["p50"] <= report["p95"] <= report["p99"]
        assert report["target_p99"] is None  # report-only by default

        gated = dataclasses.replace(
            result, spec=dataclasses.replace(result.spec, slo_p99=1e-9)
        )
        assert gated.slo_report()["ok"] is False  # p99 cannot beat 1ns

    def test_transport_accounting_covers_every_worker(self, result):
        transport = result.metrics["transport"]
        assert transport["codec"] == "binary" and transport["batching"]
        assert set(transport["client_connections"]) == {"client0", "client1"}
        for rows in transport["client_connections"].values():
            assert len(rows) == 3  # one connection per replica
            assert all(row["bytes_out"] > 0 for row in rows)
        assert set(transport["replica_connections"]) == {"0", "1", "2"}
