"""Property-based cross-validation of the two atomicity checkers.

The fast single-writer checker (:func:`check_swmr_atomicity`) is the one the
whole harness relies on; the exponential Wing–Gong search
(:func:`is_linearizable`) is the reference oracle.  On randomly generated
small single-writer histories the two must always agree.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.verification.history import History, OpKind, Operation
from repro.verification.linearizability import is_linearizable
from repro.verification.register_checker import check_swmr_atomicity

MAX_WRITES = 4
MAX_READS = 5


@st.composite
def swmr_histories(draw) -> History:
    """Random single-writer histories with distinct written values.

    The writer (process 0) is sequential: its writes, and the reads it
    interleaves between them, follow one another in program order, and
    each of its operations may start at the very instant the previous one
    responded (zero think time), where only program order — not real-time
    precedence — orders the two.  The other reads are placed at arbitrary
    (possibly overlapping) intervals.  Every read returns either the
    initial value or any written value — so roughly half the generated
    histories are atomic and half are not, which is exactly what a
    cross-validation test wants.
    """
    num_writes = draw(st.integers(min_value=0, max_value=MAX_WRITES))
    num_reads = draw(st.integers(min_value=1, max_value=MAX_READS))
    possible_values = ["v0"] + [f"v{i}" for i in range(1, num_writes + 1)]
    operations: list[Operation] = []

    def think_time() -> float:
        return draw(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=2.0)))

    def add(pid: int, kind: OpKind, payload: str, start: float, end: float) -> None:
        operations.append(
            Operation(
                pid=pid,
                kind=kind,
                value=payload if kind is OpKind.WRITE else None,
                result=payload if kind is OpKind.READ else None,
                invoked_at=start,
                responded_at=end,
                op_id=len(operations),
            )
        )

    # The writer's program: each write, optionally followed by a read of its own.
    clock = 0.0
    for index in range(1, num_writes + 1):
        start = clock + think_time()
        clock = start + draw(st.floats(min_value=0.1, max_value=3.0))
        add(0, OpKind.WRITE, f"v{index}", start, clock)
        if draw(st.booleans()):
            start = clock + think_time()
            clock = start + draw(st.floats(min_value=0.1, max_value=3.0))
            add(0, OpKind.READ, draw(st.sampled_from(possible_values)), start, clock)

    horizon = max(clock, 1.0) + 2.0
    for reader in range(num_reads):
        start = draw(st.floats(min_value=0.0, max_value=horizon))
        duration = draw(st.floats(min_value=0.1, max_value=3.0))
        add(1 + (reader % 3), OpKind.READ, draw(st.sampled_from(possible_values)), start, start + duration)

    return History(operations=operations, initial_value="v0")


@given(history=swmr_histories())
@settings(max_examples=200, deadline=None)
def test_fast_checker_agrees_with_the_linearizability_oracle(history: History):
    """The specialised Lemma-10 checker and the general oracle must agree."""
    fast_verdict = check_swmr_atomicity(history, raise_on_violation=False).ok
    oracle_verdict = is_linearizable(history, max_operations=2 * MAX_WRITES + MAX_READS)
    assert fast_verdict == oracle_verdict, (
        f"checkers disagree (fast={fast_verdict}, oracle={oracle_verdict}) on:\n"
        + history.describe()
    )


@given(history=swmr_histories())
@settings(max_examples=100, deadline=None)
def test_fast_checker_is_deterministic(history: History):
    first = check_swmr_atomicity(history, raise_on_violation=False)
    second = check_swmr_atomicity(history, raise_on_violation=False)
    assert first.ok == second.ok
    assert first.violations == second.violations


@given(
    num_writes=st.integers(min_value=0, max_value=6),
    gap=st.floats(min_value=0.1, max_value=5.0),
)
@settings(max_examples=50, deadline=None)
def test_sequential_histories_reading_the_latest_value_are_always_atomic(num_writes, gap):
    """A fully sequential run where every read returns the latest completed
    write is atomic by construction; both checkers must accept it."""
    operations = []
    clock = 0.0
    op_id = 0
    latest = "v0"
    for index in range(1, num_writes + 1):
        operations.append(
            Operation(pid=0, kind=OpKind.WRITE, value=f"v{index}", invoked_at=clock, responded_at=clock + gap, op_id=op_id)
        )
        latest = f"v{index}"
        clock += 2 * gap
        op_id += 1
        operations.append(
            Operation(pid=1, kind=OpKind.READ, result=latest, invoked_at=clock, responded_at=clock + gap, op_id=op_id)
        )
        clock += 2 * gap
        op_id += 1
    history = History(operations=operations, initial_value="v0")
    assert check_swmr_atomicity(history, raise_on_violation=False).ok
    assert is_linearizable(history, max_operations=16)
