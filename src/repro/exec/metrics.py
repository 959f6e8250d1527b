"""Operation-level metrics for the unified driver.

The :class:`MetricsCollector` rides along with a
:class:`~repro.exec.driver.Driver`: the driver notifies it when operations
are issued, complete or fail, and the collector turns that stream into the
numbers the analysis layer and the CLI report — latency percentiles
(p50/p95/p99), virtual-time throughput, and per-kind message attribution
(operation kinds for latency, wire message types for the bill, taken from the
shared :class:`~repro.sim.network.NetworkStats`).  All message numbers are
**logical** counts: network-level coalescing packs same-instant deliveries
into shared heap events but bills every message individually — coalescing
itself never adds a message to or drops one from a collector window (any
difference between coalesced and uncoalesced totals can only come from the
protocol reacting to the legal intra-instant reordering, never from the
accounting).

Kept dependency-free of :mod:`repro.analysis` (which imports the workload
layer, which imports this package) — the percentile helper is local.
"""

from __future__ import annotations

import math
from array import array
from typing import Any, Dict, List, Optional, Sequence

from repro.registers.base import OperationKind
from repro.transport.base import Transport


def nearest_rank(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sample (``fraction`` in [0, 1])."""
    if not values:
        raise ValueError("cannot take a percentile of an empty sample")
    return _rank_in_sorted(sorted(values), fraction)


def _rank_in_sorted(ordered: Sequence[float], fraction: float) -> float:
    rank = max(0, min(len(ordered) - 1, math.ceil(fraction * len(ordered)) - 1))
    return ordered[rank]


def _latency_summary(latencies: Sequence[float]) -> Optional[Dict[str, float]]:
    if not latencies:
        return None
    # The mean sums in insertion order (float addition is not associative, and
    # snapshots are compared bit-for-bit against goldens); everything else
    # indexes into a single sorted copy instead of re-sorting per percentile.
    ordered = sorted(latencies)
    return {
        "count": len(latencies),
        "mean": sum(latencies) / len(latencies),
        "p50": _rank_in_sorted(ordered, 0.50),
        "p95": _rank_in_sorted(ordered, 0.95),
        "p99": _rank_in_sorted(ordered, 0.99),
        "max": ordered[-1],
    }


class MetricsCollector:
    """Accumulates per-operation metrics for one driver.

    Attach a network to also attribute messages: the collector snapshots the
    aggregate counters when constructed and reports the delta, so several
    collectors can share one :class:`~repro.sim.network.NetworkStats` without
    double counting (the store's subnets all bill to the parent).
    """

    def __init__(self, network: Optional[Transport] = None, wall_clock: bool = False) -> None:
        self.network = network
        #: True when timestamps fed to this collector are wall-clock seconds
        #: (the live transport).  A wall-clock snapshot nulls out
        #: ``virtual_throughput`` — a virtual-time number computed from wall
        #: timestamps would be meaningless — and reports ``wall_throughput``
        #: (ops/second) instead, mirroring the Infinity-sanitization fix.
        self.wall_clock = wall_clock
        self.issued = 0
        self.completed = 0
        self.failed = 0
        self.first_issue_at: Optional[float] = None
        self.last_completion_at: Optional[float] = None
        # Pre-keyed for the classic kinds (so snapshots always report them),
        # but open: note_completed accepts any OperationKind-like value and
        # creates its bucket on first use.  Buckets are ``array('d')`` — 8
        # bytes per sample, no per-float object — so a million-op run keeps
        # its latency tape in a few flat buffers.
        self._latencies: Dict[OperationKind, array] = {
            OperationKind.READ: array("d"),
            OperationKind.WRITE: array("d"),
        }
        #: Fault-timeline annotation (set when a fault plan is installed):
        #: the plain-dict entries of :meth:`repro.faults.FaultPlan.timeline`,
        #: embedded in snapshots so latency spikes can be read against the
        #: partitions/storms/crashes that caused them.
        self.fault_timeline: Optional[List[Dict[str, Any]]] = None
        self._messages_at_start = network.stats.messages_sent if network is not None else 0
        self._by_type_at_start = dict(network.stats.by_type) if network is not None else {}

    # ------------------------------------------------------------ driver hooks

    def note_issued(self, now: float) -> None:
        self.issued += 1
        if self.first_issue_at is None:
            self.first_issue_at = now

    def note_completed(self, kind: OperationKind, latency: Optional[float], now: float) -> None:
        self.completed += 1
        self.last_completion_at = now
        if latency is not None:
            # setdefault, not direct indexing: operation kinds beyond
            # READ/WRITE (scans, CAS extensions, ...) must grow a bucket,
            # not raise KeyError on their first completion.
            self._latencies.setdefault(kind, array("d")).append(latency)

    def note_failed(self) -> None:
        self.failed += 1

    # -------------------------------------------------------------- reporting

    def latencies(self, kind: Optional[OperationKind] = None) -> List[float]:
        """Recorded latencies, optionally restricted to one operation kind."""
        if kind is not None:
            return list(self._latencies.get(kind, []))
        combined: List[float] = []
        for values in self._latencies.values():
            combined.extend(values)
        return combined

    def virtual_throughput(self) -> float:
        """Completed operations per virtual-time unit (first issue -> last completion)."""
        if self.first_issue_at is None or self.last_completion_at is None:
            return 0.0
        span = self.last_completion_at - self.first_issue_at
        if span <= 0:
            return float("inf") if self.completed else 0.0
        return self.completed / span

    def wall_throughput(self) -> float:
        """Completed operations per wall-clock second (wall-clock mode only)."""
        if not self.wall_clock:
            raise RuntimeError(
                "wall_throughput is only meaningful on a wall-clock collector; "
                "use virtual_throughput() on the simulated transport"
            )
        # Same window arithmetic; the timestamps are already wall-clock.
        if self.first_issue_at is None or self.last_completion_at is None:
            return 0.0
        span = self.last_completion_at - self.first_issue_at
        if span <= 0:
            return float("inf") if self.completed else 0.0
        return self.completed / span

    def messages_sent(self) -> int:
        """Messages attributed to this collector's window."""
        if self.network is None:
            return 0
        return self.network.stats.messages_sent - self._messages_at_start

    def messages_by_type(self) -> Dict[str, int]:
        """Per-wire-type message counts within this collector's window."""
        if self.network is None:
            return {}
        start = self._by_type_at_start
        return {
            name: count - start.get(name, 0)
            for name, count in self.network.stats.by_type.items()
            if count - start.get(name, 0) > 0
        }

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict summary for reports, the CLI and ``BENCH_*.json`` files.

        Snapshots are the JSON boundary: non-finite numbers (a zero-span
        run's infinite throughput) are sanitized to ``None`` here so every
        consumer can ``json.dumps(..., allow_nan=False)`` — bare ``Infinity``
        is not valid JSON and strict parsers reject it.
        """
        messages = self.messages_sent()
        throughput = self.virtual_throughput()
        # One summary per kind present (READ/WRITE always reported, other
        # kinds by their value name), plus the combined "all" row.
        latency: Dict[str, Any] = {
            "read": _latency_summary(self._latencies[OperationKind.READ]),
            "write": _latency_summary(self._latencies[OperationKind.WRITE]),
        }
        for kind, values in self._latencies.items():
            if kind in (OperationKind.READ, OperationKind.WRITE):
                continue
            latency[getattr(kind, "value", str(kind))] = _latency_summary(values)
        latency["all"] = _latency_summary(self.latencies())
        snapshot: Dict[str, Any] = {
            "issued": self.issued,
            "completed": self.completed,
            "failed": self.failed,
            "virtual_throughput": (
                None if self.wall_clock else (throughput if math.isfinite(throughput) else None)
            ),
            "latency": latency,
            "messages": {
                "total": messages,
                "per_completed_op": (messages / self.completed) if self.completed else None,
                "by_type": self.messages_by_type(),
            },
        }
        if self.wall_clock:
            wall = self.wall_throughput()
            snapshot["wall_throughput"] = wall if math.isfinite(wall) else None
        if self.fault_timeline is not None:
            snapshot["faults"] = list(self.fault_timeline)
        return snapshot


# ---------------------------------------------------------- pooled merging
#
# The multi-process load generator (:mod:`repro.transport.loadgen`) runs one
# collector per client worker and merges them here.  Percentiles are order
# statistics: the p99 of a union is not any function of the per-worker p99s,
# so workers ship raw samples, never summaries, and the parent re-ranks the
# pool.  The mean sums in worker-concatenation order, so it can differ from a
# single collector's in the last few ulps.


def collector_raw_state(metrics: MetricsCollector) -> Dict[str, Any]:
    """The picklable raw state :func:`merge_metrics` consumes.

    Samples are keyed by ``OperationKind.value`` so the payload survives
    pickling without enum round-trips; each bucket ships as its flat
    ``array('d')`` (one byte block, not a float object per sample).
    """
    return {
        "issued": metrics.issued,
        "completed": metrics.completed,
        "failed": metrics.failed,
        "first_issue_at": metrics.first_issue_at,
        "last_completion_at": metrics.last_completion_at,
        "latencies": {
            getattr(kind, "value", str(kind)): samples
            for kind, samples in metrics._latencies.items()
        },
    }


def merge_metrics(parts: List[Dict[str, Any]], messages: int) -> Dict[str, Any]:
    """A :meth:`MetricsCollector.snapshot`-shaped dict from pooled raw parts.

    ``parts`` are :func:`collector_raw_state` dicts; ``messages`` is the
    run's total message bill.  The throughput window spans the earliest
    first issue to the latest last completion over all parts.
    """
    merged = MetricsCollector()
    pooled: Dict[str, array] = {}
    for part in parts:
        merged.issued += part["issued"]
        merged.completed += part["completed"]
        merged.failed += part["failed"]
        for kind_value, samples in part["latencies"].items():
            pooled.setdefault(kind_value, array("d")).extend(samples)
    merged.first_issue_at = min(
        (part["first_issue_at"] for part in parts if part["first_issue_at"] is not None),
        default=None,
    )
    merged.last_completion_at = max(
        (part["last_completion_at"] for part in parts if part["last_completion_at"] is not None),
        default=None,
    )
    # Kinds beyond READ/WRITE get their buckets in name order, so the
    # snapshot never depends on the order the parts arrived in.
    for kind_value in sorted(pooled):
        merged._latencies.setdefault(OperationKind(kind_value), array("d")).extend(
            pooled[kind_value]
        )
    snapshot = merged.snapshot()
    snapshot["messages"] = {
        "total": messages,
        "per_completed_op": (messages / merged.completed) if merged.completed else None,
        "by_type": {},
    }
    return snapshot
