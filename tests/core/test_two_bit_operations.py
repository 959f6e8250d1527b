"""Operation-level tests for the two-bit algorithm (Figure 1, lines 1-10).

These run full clusters through the convenience handles and verify the
behaviour the paper states: termination, returned values, exact message
counts (Theorem 2), latency bounds (Table 1 lines 5-6), and the single-writer
access discipline.
"""

import pytest

from repro.core.register import TWO_BIT_ALGORITHM, build_two_bit_cluster
from repro.registers.base import OperationKind
from repro.sim.delays import FixedDelay, UniformDelay
from repro.sim.failures import CrashSchedule


class TestBasicReadWrite:
    def test_initial_value_is_readable_everywhere(self):
        cluster = build_two_bit_cluster(n=5, initial_value="genesis")
        for pid in range(5):
            assert cluster.reader(pid).read() == "genesis"

    def test_read_returns_last_written_value(self):
        cluster = build_two_bit_cluster(n=5, initial_value="v0")
        cluster.writer.write("v1")
        assert cluster.reader(3).read() == "v1"
        cluster.writer.write("v2")
        cluster.writer.write("v3")
        assert cluster.reader(1).read() == "v3"
        assert cluster.reader(4).read() == "v3"

    def test_writer_can_use_the_general_read_path(self):
        cluster = build_two_bit_cluster(n=3, initial_value="v0")
        cluster.writer.write("v1")
        assert cluster.writer.read() == "v1"

    def test_writer_fast_read_shortcut(self):
        cluster = build_two_bit_cluster(n=3, initial_value="v0", writer_fast_read=True)
        cluster.writer.write("v1")
        messages_before = cluster.network.stats.messages_sent
        assert cluster.writer.read() == "v1"
        # The shortcut requires no communication at all.
        assert cluster.network.stats.messages_sent == messages_before

    def test_two_process_system(self):
        """n=2, t=0: quorum is both processes; still must work."""
        cluster = build_two_bit_cluster(n=2, initial_value="v0")
        cluster.writer.write("v1")
        assert cluster.reader(1).read() == "v1"

    def test_many_writes_converge_everywhere(self):
        cluster = build_two_bit_cluster(n=5, initial_value="v0", check_invariants=True)
        for index in range(1, 21):
            cluster.writer.write(f"v{index}")
        cluster.settle()
        for process in cluster.processes:
            assert process.state.history == [f"v{i}" if i else "v0" for i in range(21)]

    def test_non_default_writer_pid(self):
        cluster = build_two_bit_cluster(n=5, writer_pid=3, initial_value="v0")
        cluster.writer.write("from-p3")
        assert cluster.writer.pid == 3
        assert cluster.reader(0).read() == "from-p3"


class TestAccessDiscipline:
    def test_only_the_writer_may_write(self):
        cluster = build_two_bit_cluster(n=3)
        with pytest.raises(PermissionError, match="not the writer"):
            cluster.reader(1).write("intruder")

    def test_sequential_processes_cannot_overlap_their_own_operations(self):
        cluster = build_two_bit_cluster(n=3)
        cluster.processes[0].invoke_write("v1", lambda record: None)
        with pytest.raises(RuntimeError, match="sequential"):
            cluster.processes[0].invoke_write("v2", lambda record: None)

    def test_crashed_process_cannot_invoke_operations(self):
        from repro.transport.runtime import ProcessCrashedError

        cluster = build_two_bit_cluster(n=5)
        cluster.processes[2].crash()
        with pytest.raises(ProcessCrashedError):
            cluster.processes[2].invoke_read(lambda record: None)


class TestTheorem2MessageCounts:
    """Theorem 2: a read needs 2(n-1) messages; a write at most n(n-1)."""

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_write_message_count_is_exactly_n_times_n_minus_1(self, n):
        cluster = build_two_bit_cluster(n=n, initial_value="v0", delay_model=FixedDelay(1.0))
        before = cluster.network.stats.messages_sent
        cluster.writer.write("v1")
        cluster.settle()
        assert cluster.network.stats.messages_sent - before == n * (n - 1)

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_read_message_count_is_exactly_2_times_n_minus_1(self, n):
        cluster = build_two_bit_cluster(n=n, initial_value="v0", delay_model=FixedDelay(1.0))
        cluster.writer.write("v1")
        cluster.settle()
        before = cluster.network.stats.messages_sent
        cluster.reader(n - 1).read()
        cluster.settle()
        assert cluster.network.stats.messages_sent - before == 2 * (n - 1)

    def test_only_four_message_types_ever_appear(self):
        cluster = build_two_bit_cluster(n=5, initial_value="v0")
        for index in range(1, 6):
            cluster.writer.write(f"v{index}")
            cluster.reader(index % 5 or 1).read()
        cluster.settle()
        assert set(cluster.network.stats.by_type) <= {"WRITE0", "WRITE1", "READ", "PROCEED"}

    def test_write_messages_alternate_parity(self):
        cluster = build_two_bit_cluster(n=3, initial_value="v0")
        for index in range(1, 5):
            cluster.writer.write(f"v{index}")
        cluster.settle()
        by_type = cluster.network.stats.by_type
        # Values 1 and 3 travel as WRITE1, values 2 and 4 as WRITE0; per value
        # there are n(n-1) = 6 messages.
        assert by_type["WRITE1"] == 12
        assert by_type["WRITE0"] == 12

    def test_control_bits_never_exceed_two(self):
        cluster = build_two_bit_cluster(n=5, initial_value="v0")
        for index in range(1, 30):
            cluster.writer.write(f"v{index}")
        cluster.reader(2).read()
        cluster.settle()
        assert cluster.network.stats.max_control_bits == 2


class TestLatencyBounds:
    """Table 1 lines 5-6: write <= 2 delta, read <= 4 delta (failure-free, fixed delay)."""

    @pytest.mark.parametrize("delta", [1.0, 2.5])
    def test_write_latency_is_two_delta(self, delta):
        cluster = build_two_bit_cluster(n=5, initial_value="v0", delay_model=FixedDelay(delta))
        record = cluster.writer.write("v1")
        assert record.latency == pytest.approx(2 * delta)

    @pytest.mark.parametrize("delta", [1.0, 2.5])
    def test_quiescent_read_latency_is_two_delta(self, delta):
        cluster = build_two_bit_cluster(n=5, initial_value="v0", delay_model=FixedDelay(delta))
        cluster.writer.write("v1")
        cluster.settle()
        record = cluster.reader(2).read(run=False)
        finished = cluster.simulator.run_until(lambda: record.completed)
        assert finished
        assert record.latency == pytest.approx(2 * delta)

    def test_read_concurrent_with_write_is_at_most_four_delta(self):
        delta = 1.0
        cluster = build_two_bit_cluster(n=5, initial_value="v0", delay_model=FixedDelay(delta))
        # Start a write and a read at the same instant.
        write_record = cluster.processes[0].invoke_write("v1", lambda r: None)
        read_record = cluster.processes[3].invoke_read(lambda r: None)
        cluster.simulator.run_until(lambda: write_record.completed and read_record.completed)
        assert read_record.latency is not None
        assert read_record.latency <= 4 * delta + 1e-9
        assert read_record.result in ("v0", "v1")

    def test_latencies_scale_with_delta(self):
        fast = build_two_bit_cluster(n=5, delay_model=FixedDelay(1.0))
        slow = build_two_bit_cluster(n=5, delay_model=FixedDelay(10.0))
        assert slow.writer.write("x").latency == 10.0 * fast.writer.write("x").latency


class TestAlgorithmFactory:
    def test_registered_metadata(self):
        assert TWO_BIT_ALGORITHM.name == "two-bit"
        assert not TWO_BIT_ALGORITHM.supports_multi_writer

    def test_build_validates_parameters(self):
        from repro.sim.network import Network
        from repro.sim.scheduler import Simulator

        simulator = Simulator()
        network = Network(simulator)
        with pytest.raises(ValueError):
            TWO_BIT_ALGORITHM.build(simulator, network, n=1)
        with pytest.raises(ValueError):
            TWO_BIT_ALGORITHM.build(simulator, network, n=5, writer_pid=7)
        with pytest.raises(ValueError):
            TWO_BIT_ALGORITHM.build(simulator, network, n=4, t=2)

    def test_cluster_crash_budget_enforced(self):
        cluster = build_two_bit_cluster(n=5)
        cluster.processes[1].crash()
        cluster.processes[2].crash()
        # A third crash would exceed t = 2 for n = 5 via the cluster helper.
        from repro.api import RegisterCluster

        api_cluster = RegisterCluster(
            algorithm="two-bit",
            simulator=cluster.simulator,
            network=cluster.network,
            processes=cluster.processes,
            handles=cluster.handles,
            writer_pid=0,
        )
        with pytest.raises(ValueError, match="minority"):
            api_cluster.crash(3)


class TestRandomDelays:
    def test_reads_remain_correct_under_heavy_reordering(self):
        cluster = build_two_bit_cluster(
            n=5, initial_value="v0", delay_model=UniformDelay(0.1, 5.0, seed=13), check_invariants=True
        )
        for index in range(1, 11):
            cluster.writer.write(f"v{index}")
            value = cluster.reader((index % 4) + 1).read()
            assert value == f"v{index}"
        cluster.settle()

    def test_crash_schedule_can_be_installed_at_build_time(self):
        cluster = build_two_bit_cluster(
            n=5,
            initial_value="v0",
            crash_schedule=CrashSchedule.at_times({4: 0.5}),
            delay_model=FixedDelay(1.0),
        )
        cluster.writer.write("v1")
        cluster.settle()
        assert cluster.processes[4].crashed
        assert cluster.reader(1).read() == "v1"
