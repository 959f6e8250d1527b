"""Transport selection on KVWorkloadSpec / StoreConfig: validation and dispatch."""

import pytest

from repro.store.store import KVStore, StoreConfig
from repro.workloads.scenarios import kv_uniform


class TestSpecTransportField:
    def test_default_is_sim(self):
        spec = kv_uniform(num_keys=4, num_ops=10)
        assert spec.transport == "sim"
        assert spec.store_config().transport == "sim"

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="choose from"):
            kv_uniform(num_keys=4, num_ops=10).with_(transport="udp")

    def test_live_carries_through_to_store_config(self):
        spec = kv_uniform(num_keys=4, num_ops=10).with_(transport="live")
        assert spec.store_config().transport == "live"

    def test_live_rejects_crash_points(self):
        from repro.workloads.kv import CrashPoint

        with pytest.raises(ValueError, match="simulated-only"):
            kv_uniform(num_keys=4, num_ops=10).with_(
                transport="live", crash_points=(CrashPoint(at_time=1.0, shard=0, replica=1),)
            )

    def test_live_rejects_fault_plans(self):
        from repro.faults.partitions import PartitionSchedule, PartitionWindow
        from repro.faults.plan import FaultPlan

        window = PartitionWindow.isolate((2,), 3, start=1.0, heal=2.0)
        plan = FaultPlan(name="test", link_policies=(PartitionSchedule(windows=(window,)),))
        with pytest.raises(ValueError, match="simulated-only"):
            kv_uniform(num_keys=4, num_ops=10).with_(transport="live", fault_plan=plan)

    def test_live_needs_a_real_replica_set(self):
        from repro.transport.live import _validate_live_spec

        with pytest.raises(ValueError, match="at least 2 replicas"):
            _validate_live_spec(kv_uniform(num_keys=4, num_ops=10, replication=1).with_(transport="live"))


class TestStoreConfigTransportField:
    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="choose from"):
            StoreConfig(transport="quic")

    def test_kvstore_refuses_live_configs(self):
        # KVStore is the simulated deployment; live runs go through
        # repro.transport.live.run_live_workload instead.
        with pytest.raises(ValueError, match="simulated deployment"):
            KVStore(StoreConfig(transport="live"))
