"""Sequential specifications for checkable replicated objects.

The Wing–Gong search core in :mod:`repro.verification.linearizability` is
specification-parametric: a history is linearizable iff its operations can
be arranged into a legal *sequential* execution, and "legal" is defined by
a :class:`SequentialSpec` — a deterministic state machine mapping
``(state, kind, value)`` to ``(result, next_state)``.

Two specs exist:

* the implicit **register** spec (``spec=None`` everywhere) — reads return
  the current value, writes replace it, write results are unconstrained.
  The checker's register path is hand-tuned and byte-for-byte unchanged;
* the **SMR** spec (:class:`SMRSpec`, name ``"smr"``) — the state-machine
  objects served by :mod:`repro.consensus`: read/write plus
  compare-and-swap, test-and-set and counter increment, every completed
  operation's recorded result checked against the spec's result.

Specs are looked up by *name* (:func:`get_spec`) so a store config
(:meth:`~repro.store.store.StoreConfig.effective_spec`) can name its spec
as a plain string.
"""

from __future__ import annotations

from typing import Any, Tuple

from repro.verification.history import OpKind

__all__ = ["SMRSpec", "SequentialSpec", "get_spec"]


class SequentialSpec:
    """Interface of a deterministic sequential object specification."""

    #: Registry name (what ``check_histories_per_key(spec=...)`` accepts).
    name = "abstract"

    def is_pure(self, kind: OpKind) -> bool:
        """True when operations of ``kind`` never change the state.

        Pure operations are linearized greedily by the checker (moving a
        minimal pure operation with a matching result to the front of a
        valid linearization yields another valid linearization) and pending
        pure operations impose no constraint at all.
        """
        raise NotImplementedError

    def apply(self, state: Any, kind: OpKind, value: Any) -> Tuple[Any, Any]:
        """Apply one operation: ``(result, next_state)``."""
        raise NotImplementedError


class SMRSpec(SequentialSpec):
    """The replicated-state-machine objects of :mod:`repro.consensus`.

    The state is the object's current value (``initial_value`` at the
    start).  Kinds:

    ========  ==========================  =============================
    kind      result                      next state
    ========  ==========================  =============================
    READ      state                       state
    WRITE     ``None``                    the written value
    CAS       ``True``/``False``          new value on match, else state
    TAS       the old state               ``True``
    INCR      state + addend              state + addend
    ========  ==========================  =============================

    CAS takes a ``(expected, new)`` pair as its value; INCR treats any
    non-numeric state (``None``, strings) as 0 so counters work on
    untouched keys and the spec stays total under mixed-kind races.
    """

    name = "smr"

    def is_pure(self, kind: OpKind) -> bool:
        return kind is OpKind.READ

    def apply(self, state: Any, kind: OpKind, value: Any) -> Tuple[Any, Any]:
        if kind is OpKind.READ:
            return state, state
        if kind is OpKind.WRITE:
            return None, value
        if kind is OpKind.CAS:
            expected, new = value
            if state == expected:
                return True, new
            return False, state
        if kind is OpKind.TAS:
            return state, True
        if kind is OpKind.INCR:
            # Total on any state: non-numeric values (unset keys, strings
            # left by writes/swaps racing with the increment) count from 0,
            # so the spec never raises mid-search and replica state machines
            # never diverge by exception.  Booleans are ints (a tas'd key
            # increments from 1), matching plain Python arithmetic.
            base = state if isinstance(state, (int, float)) else 0
            return base + value, base + value
        raise ValueError(f"SMR spec does not define operation kind {kind!r}")


_SPECS = {SMRSpec.name: SMRSpec()}


def get_spec(name: Any) -> Any:
    """Resolve a spec by name; ``None``/``"register"`` mean the register path."""
    if name is None or name == "register":
        return None
    if isinstance(name, SequentialSpec):
        return name
    try:
        return _SPECS[name]
    except KeyError:
        raise ValueError(
            f"unknown sequential spec {name!r} (known: register, "
            + ", ".join(sorted(_SPECS))
            + ")"
        ) from None
