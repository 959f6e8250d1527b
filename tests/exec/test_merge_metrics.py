"""Hand-crafted cases for pooled metrics merging (the load generator's merge).

These pin the merge *semantics* independently of any run: percentiles are
recomputed from pooled samples (never averaged), empty workers are neutral,
and the throughput window spans min(first issue)..max(last completion).
"""

import math

import pytest

from repro.exec.metrics import (
    MetricsCollector,
    _latency_summary,
    collector_raw_state,
    merge_metrics,
)
from repro.registers.base import OperationKind


def metrics_part(
    issued=0,
    completed=0,
    failed=0,
    first_issue_at=None,
    last_completion_at=None,
    reads=(),
    writes=(),
):
    """A collector_raw_state()-shaped worker part."""
    return {
        "issued": issued,
        "completed": completed,
        "failed": failed,
        "first_issue_at": first_issue_at,
        "last_completion_at": last_completion_at,
        "latencies": {"read": list(reads), "write": list(writes)},
    }


class TestMergeMetrics:
    def test_empty_merge_has_zero_counts_and_no_latency(self):
        snapshot = merge_metrics([], 0)
        assert snapshot["issued"] == snapshot["completed"] == snapshot["failed"] == 0
        assert snapshot["virtual_throughput"] == 0.0
        assert snapshot["latency"]["read"] is None
        assert snapshot["latency"]["write"] is None
        assert snapshot["latency"]["all"] is None
        assert snapshot["messages"]["total"] == 0
        assert snapshot["messages"]["per_completed_op"] is None

    def test_empty_worker_part_is_neutral(self):
        part = metrics_part(
            issued=4, completed=4, first_issue_at=0.0, last_completion_at=8.0,
            reads=[1.0, 2.0], writes=[3.0, 4.0],
        )
        alone = merge_metrics([part], 12)
        with_empty = merge_metrics([part, metrics_part()], 12)
        assert alone == with_empty

    def test_single_key_worker_merges_into_serial_shape(self):
        # One worker saw only writes, the other only reads: the merged
        # snapshot must still carry both pre-keyed buckets plus "all".
        parts = [
            metrics_part(issued=2, completed=2, first_issue_at=0.0,
                         last_completion_at=5.0, writes=[2.0, 3.0]),
            metrics_part(issued=3, completed=3, first_issue_at=1.0,
                         last_completion_at=6.0, reads=[1.0, 1.5, 2.5]),
        ]
        snapshot = merge_metrics(parts, 30)
        assert snapshot["issued"] == 5 and snapshot["completed"] == 5
        assert snapshot["latency"]["write"] == _latency_summary([2.0, 3.0])
        assert snapshot["latency"]["read"] == _latency_summary([1.0, 1.5, 2.5])
        assert snapshot["latency"]["all"] == _latency_summary([1.0, 1.5, 2.5, 2.0, 3.0])
        assert snapshot["messages"]["total"] == 30
        assert snapshot["messages"]["per_completed_op"] == 6.0

    def test_percentiles_recomputed_from_pooled_samples_not_averaged(self):
        low = [float(v) for v in range(1, 51)]     # p99 = 50
        high = [float(v) for v in range(51, 101)]  # p99 = 100
        parts = [
            metrics_part(issued=50, completed=50, first_issue_at=0.0,
                         last_completion_at=50.0, reads=low),
            metrics_part(issued=50, completed=50, first_issue_at=0.0,
                         last_completion_at=50.0, reads=high),
        ]
        merged = merge_metrics(parts, 0)["latency"]["read"]
        pooled = _latency_summary(low + high)
        assert merged["p99"] == pooled["p99"] == 99.0
        averaged_p99 = (_latency_summary(low)["p99"] + _latency_summary(high)["p99"]) / 2
        assert merged["p99"] != averaged_p99
        assert merged["p50"] == pooled["p50"]
        assert merged["max"] == 100.0
        assert merged["count"] == 100
        assert math.isclose(merged["mean"], pooled["mean"], rel_tol=1e-12)

    def test_throughput_window_spans_min_issue_to_max_completion(self):
        parts = [
            metrics_part(issued=5, completed=5, first_issue_at=0.0, last_completion_at=10.0),
            metrics_part(issued=15, completed=15, first_issue_at=2.0, last_completion_at=20.0),
        ]
        snapshot = merge_metrics(parts, 0)
        assert snapshot["virtual_throughput"] == pytest.approx(20 / 20.0)

    def test_zero_span_throughput_serializes_as_none(self):
        parts = [metrics_part(issued=1, completed=1, first_issue_at=3.0, last_completion_at=3.0)]
        assert merge_metrics(parts, 0)["virtual_throughput"] is None

    def test_one_collector_merges_to_its_own_snapshot(self):
        collector = MetricsCollector()
        collector.note_issued(0.0)
        collector.note_issued(1.0)
        collector.note_completed(OperationKind.READ, 2.0, 2.0)
        collector.note_completed(OperationKind.WRITE, 3.0, 4.0)
        collector.note_issued(4.5)
        collector.note_failed()
        assert merge_metrics([collector_raw_state(collector)], 0) == collector.snapshot()
