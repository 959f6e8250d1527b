"""Fast atomicity checker for single-writer register histories.

Lemma 10 of the paper proves atomicity by establishing three claims about any
run (``read[i, x]`` denotes a read by ``p_i`` returning the value with
sequence number ``x``; ``write[y]`` the write of the value with sequence
number ``y``):

* **Claim 1** — *no read from the future*: if ``read[i, x]`` terminates before
  ``write[y]`` starts, then ``x < y``.
* **Claim 2** — *no overwritten read*: if ``write[x]`` terminates before
  ``read[i, y]`` starts, then ``x <= y``.
* **Claim 3** — *no new/old inversion*: if ``read[i, x]`` terminates before
  ``read[j, y]`` starts, then ``x <= y``.

For a **single-writer** register (writes are totally ordered by the writer's
program order) these claims, together with every read returning either the
initial value or some written value, are equivalent to atomicity — which is
precisely why the paper's proof stops there.  This module checks them
directly on a recorded history in ``O((R + W) log(R + W))`` time, where R/W
are the numbers of reads/writes: every claim, and the program-order
refinements, is a prefix maximum over one sorted sequence queried by
bisection.  The general (exponential) checker in
:mod:`repro.verification.linearizability` is used in property-based tests to
cross-validate this one on small histories.

The checker reads one sequence per field: a
:class:`~repro.verification.history.History` yields them with one
comprehension per ``Operation`` field, and the per-key
:class:`~repro.verification.columnar.ColumnarHistory` of a store, live or
load-generator run yields them from its columns and value table
(:meth:`~repro.verification.columnar.ColumnarHistory.fields`).  Neither is
converted to the other, so both produce the same report, message for
message; a violating row is described through ``Operation.describe``.

Requirements on the history (enforced, with clear errors):

* only reads and writes (any other kind of operation raises ``ValueError``);
* at most one writer process (pending writes included);
* written values pairwise distinct (under ``==``) and different from the
  initial value, so a read's return value identifies the write it read from
  (the workload generator guarantees this by construction);
* pending operations are allowed: a pending write may or may not have taken
  effect (it only ever *relaxes* Claim 2), and pending reads are ignored.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from operator import itemgetter
from typing import Any, Sequence, Tuple, Union

from repro.verification.columnar import ColumnarHistory
from repro.verification.history import History, OpKind, Operation


class AtomicityViolation(AssertionError):
    """Raised when a history is provably not atomic."""


@dataclass
class AtomicityReport:
    """Result of checking a history.

    Attributes
    ----------
    ok:
        True when no violation was found.
    violations:
        Human-readable description of each violation found.
    reads_checked / writes_checked:
        Sizes of the checked history (completed reads; all writes, pending
        ones included).
    max_read_lag:
        Over all completed reads, the largest difference between the newest
        write index the read *could* have returned (writes invoked before the
        read responded) and the index it did return — a staleness indicator
        that is always 0 in a sequential run and bounded by concurrency in an
        atomic one.
    """

    ok: bool = True
    violations: list[str] = field(default_factory=list)
    reads_checked: int = 0
    writes_checked: int = 0
    max_read_lag: int = 0

    @property
    def operations(self) -> int:
        """Operations the claims constrained: completed reads plus every write."""
        return self.reads_checked + self.writes_checked

    def record(self, message: str) -> None:
        self.ok = False
        self.violations.append(message)


def _fields(history: Union[History, ColumnarHistory]) -> Tuple[Sequence[Any], ...]:
    """``(pid, kind, value, result, invoked_at, responded_at, op_id)`` per row."""
    if isinstance(history, ColumnarHistory):
        return history.fields()
    ops = history.operations
    return (
        [op.pid for op in ops],
        [op.kind for op in ops],
        [op.value for op in ops],
        [op.result for op in ops],
        [op.invoked_at for op in ops],
        [op.responded_at for op in ops],
        [op.op_id for op in ops],
    )


def check_swmr_atomicity(
    history: Union[History, ColumnarHistory], raise_on_violation: bool = True
) -> AtomicityReport:
    """Check a single-writer history against the three claims of Lemma 10.

    Returns an :class:`AtomicityReport`; if ``raise_on_violation`` is true the
    first collected set of violations is raised as :class:`AtomicityViolation`
    (with every violation listed in the message).

    A history the claims do not decide — an operation that is neither a
    read nor a write, more than one writer, an unhashable initial or
    written value, written values that are not pairwise distinct — raises
    ``ValueError`` (``TypeError`` for an unhashable written value);
    :func:`~repro.verification.linearizability.check_histories_per_key`
    sends such a key to the Wing–Gong search.
    """
    columns = _fields(history)
    pids, kinds, values, results, invoked, responded, op_ids = columns

    # --- scope: who writes what, and which reads completed --------------------
    write_rows: list[int] = []
    read_rows: list[int] = []
    write, read = OpKind.WRITE, OpKind.READ
    for row, kind in enumerate(kinds):
        if kind is write:
            write_rows.append(row)
        elif kind is read:
            if responded[row] is not None:
                read_rows.append(row)
        else:
            raise ValueError(
                f"history holds a {kind.value} operation; "
                "the fast checker only handles reads and writes — "
                "use verification.linearizability.check_linearizability instead"
            )
    writer_pids = {pids[row] for row in write_rows}
    if len(writer_pids) > 1:
        raise ValueError(
            f"history has {len(writer_pids)} writers ({sorted(writer_pids)}); "
            "the fast checker only handles single-writer histories — "
            "use verification.linearizability.is_linearizable instead"
        )
    # Writes in the writer's program order (invocation time, ties by row);
    # a write's sequence number is its position in this order, from 1.
    write_rows.sort(key=invoked.__getitem__)
    try:
        seq_of_value: dict[Any, int] = {history.initial_value: 0}
    except TypeError as exc:  # unhashable initial value
        raise ValueError("initial value must be hashable for the fast checker") from exc
    for seq, row in enumerate(write_rows, start=1):
        value = values[row]
        if value in seq_of_value:  # TypeError for an unhashable value
            raise ValueError(
                f"written value {value!r} is not unique in the history; "
                "the fast checker requires distinct written values — "
                "use verification.linearizability.is_linearizable instead"
            )
        seq_of_value[value] = seq

    report = AtomicityReport(reads_checked=len(read_rows), writes_checked=len(write_rows))

    def describe(row: int) -> str:
        return Operation(*(column[row] for column in columns)).describe()

    # --- map each completed read to the index of the value it returned -------
    # Equality, not the intern slot, decides which write a result names: the
    # value table keeps ``1`` and ``1.0`` apart, the claims do not.
    reads: list[tuple[int, int]] = []
    for row in read_rows:
        seq = seq_of_value.get(results[row])
        if seq is None:
            report.record(
                f"read returned a value that was never written: {describe(row)} "
                f"(known values: initial {history.initial_value!r} plus {len(write_rows)} writes)"
            )
        else:
            reads.append((row, seq))

    # --- sorted sequences with prefix maxima, one per bound ------------------
    # Claim 1 and the staleness metric: writes by invocation time.  Their
    # sequence numbers are their positions, so "newest write invoked at or
    # before T" is a bisect_right.
    write_invoked = [invoked[row] for row in write_rows]
    # Claim 2: completed writes by response time, with a running maximum of
    # their sequence numbers.  (With a single sequential writer sequence
    # numbers increase with response time, but we do not rely on that.)
    by_response = sorted(
        ((responded[row], seq) for seq, row in enumerate(write_rows, start=1) if responded[row] is not None),
        key=itemgetter(0),
    )
    done_responded = [at for at, _seq in by_response]
    done_max = list(accumulate((seq for _at, seq in by_response), max))
    # Writer program order: the newest completed write among the first k
    # writes by invocation time, for every k.
    newest_done = list(
        accumulate(
            (seq if responded[row] is not None else 0 for seq, row in enumerate(write_rows, start=1)),
            max,
            initial=0,
        )
    )
    # Claim 3: mapped reads by response time, with a running maximum.
    reads_by_response = sorted(reads, key=lambda item: responded[item[0]])
    read_responded = [responded[row] for row, _seq in reads_by_response]
    read_max = list(accumulate((seq for _row, seq in reads_by_response), max))

    # --- one pass over the reads ----------------------------------------------
    claim1: list[str] = []
    claim2: list[str] = []
    writer_order: list[str] = []
    claim3: list[str] = []
    writer_pid = pids[write_rows[0]] if write_rows else None
    max_lag = 0
    for row, seq in reads:
        started = invoked[row]
        ended = responded[row]
        if seq and ended < write_invoked[seq - 1]:
            claim1.append(
                "Claim 1 (read from the future): "
                f"{describe(row)} returned the value of {describe(write_rows[seq - 1])}, "
                "which was written only after the read had already terminated"
            )
        position = bisect_left(done_responded, started)
        lower_bound = done_max[position - 1] if position else 0
        if seq < lower_bound:
            claim2.append(
                "Claim 2 (overwritten value): "
                f"{describe(row)} returned write #{seq} although "
                f"{describe(write_rows[lower_bound - 1])} "
                f"(write #{lower_bound}) had already completed before the read started"
            )
        lag = bisect_right(write_invoked, ended) - seq
        if lag > max_lag:
            max_lag = lag
        # Real-time precedence uses strict inequalities; for two operations
        # of the *same* sequential process whose boundary times coincide
        # (zero think time), program order still applies: a read by the
        # writer must not return a value older than the writer's own latest
        # completed write invoked before the read, nor the value of a write
        # the writer invoked after it (Claim 1 covers the strict case).
        if pids[row] == writer_pid:
            newest = newest_done[bisect_left(write_invoked, started)]
            if seq < newest:
                writer_order.append(
                    "program order (writer): "
                    f"{describe(row)} returned write #{seq} although the writer itself had "
                    f"already completed write #{newest} before invoking the read"
                )
            elif seq and started < write_invoked[seq - 1] <= ended:
                writer_order.append(
                    "program order (writer): "
                    f"{describe(row)} returned the value of {describe(write_rows[seq - 1])}, "
                    "which the writer itself invoked only after invoking the read"
                )
        # Claim 3: reads that responded strictly before this one was invoked
        # must not have returned a newer write.
        position = bisect_left(read_responded, started)
        if position and read_max[position - 1] > seq:
            claim3.append(
                "Claim 3 (new/old inversion): "
                f"{describe(row)} returned write #{seq} although an earlier read that had "
                f"already terminated before it started returned write #{read_max[position - 1]}"
            )
    report.max_read_lag = max_lag

    # Successive reads by the same process must return non-decreasing indices.
    by_reader: dict[int, list[tuple[int, int]]] = {}
    for row, seq in reads:
        by_reader.setdefault(pids[row], []).append((row, seq))
    reader_order: list[str] = []
    for pid, items in by_reader.items():
        items.sort(key=lambda item: (invoked[item[0]], op_ids[item[0]]))
        best_so_far = 0
        for row, seq in items:
            if seq < best_so_far:
                reader_order.append(
                    "program order (reader): "
                    f"{describe(row)} returned write #{seq} although an earlier read by the "
                    f"same process p{pid} had already returned write #{best_so_far}"
                )
            elif seq > best_so_far:
                best_so_far = seq

    for message in claim1 + claim2 + writer_order + reader_order + claim3:
        report.record(message)
    if not report.ok and raise_on_violation:
        raise AtomicityViolation(
            f"{len(report.violations)} atomicity violation(s):\n  - "
            + "\n  - ".join(report.violations)
        )
    return report
