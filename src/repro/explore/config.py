"""Explorer configuration: how much to search, over what base workload."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Tuple


@dataclass(frozen=True)
class ExploreConfig:
    """Parameters of one schedule-exploration run.

    ``budget`` bounds the number of schedules explored; everything else
    describes the base keyed workload each schedule perturbs.  All
    randomness (operation scripts, perturbation choices, sweep grids)
    derives from ``seed`` — same config, same schedules, same verdicts, and
    the same shrunken counterexample if one is found (the repository-wide
    determinism contract).
    """

    strategy: str = "random-walk"
    budget: int = 20
    seed: int = 0
    algorithm: str = "abd"
    num_keys: int = 6
    num_ops: int = 80
    read_fraction: float = 0.75
    num_shards: int = 2
    replication: int = 3
    batch_size: int = 8
    #: Weighted operation mix (see :class:`~repro.workloads.kv.KVWorkloadSpec`).
    #: ``None`` keeps the classic read/write split driven by
    #: ``read_fraction``; consensus-object explorations pass e.g.
    #: ``(("read", .5), ("cas", .5))`` to script cas/tas/incr operations.
    op_mix: Optional[Tuple[Tuple[str, float], ...]] = None
    #: Initial value of every key (``None`` = store starts empty, the
    #: natural choice for cas chains that begin from "unset").
    initial_value: Optional[str] = "v0"
    #: One operation arrives every ``arrival_gap`` virtual-time units
    #: (open-loop): operations overlap across replicas *and* acquire
    #: real-time ordering, the combination atomicity bugs need.  ``0``
    #: falls back to closed-loop batches of ``batch_size``.
    arrival_gap: float = 0.4
    #: Base delay model.  The default is **fixed**: all schedule variability
    #: then comes from the scoped, recorded perturbation, which makes every
    #: key's execution independent of every other key's — the property the
    #: shrinker exploits (removing another key's operations cannot shift
    #: this key's delays).  A ``{"kind": "uniform", ...}`` base is allowed
    #: but couples keys through the shared delay RNG stream.
    delay: Dict[str, Any] = field(default_factory=lambda: {"kind": "fixed", "delta": 1.0})
    #: Perturbation knobs (all strategies record one): fraction of messages
    #: perturbed and the multiplier range ``[shrink_to, 1 + amplitude]``
    #: (see ``explore.perturb``).
    perturb_rate: float = 0.5
    perturb_amplitude: float = 4.0
    #: Stop exploring after this many shrunken counterexamples (a violation
    #: is actionable on its own; keep sweeping only if asked to).
    max_counterexamples: int = 1
    #: Per-key search budget for the Wing–Gong checker on explored runs.
    check_max_states: int = 1_000_000
    #: Worker processes for the sweep: cases are independent seeded
    #: executions, so ``N > 1`` runs them on a process pool
    #: (:func:`repro.parallel.run_chunked`).  Verdicts, counts and any shrunken counterexample are identical
    #: to the serial sweep; ``1`` is exactly the serial loop.
    workers: int = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.budget < 1:
            raise ValueError(f"budget must be at least 1, got {self.budget}")
        if self.num_ops < 1:
            raise ValueError(f"num_ops must be at least 1, got {self.num_ops}")
        if self.num_keys < 1:
            raise ValueError(f"num_keys must be at least 1, got {self.num_keys}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError(f"read_fraction must be in [0, 1], got {self.read_fraction}")
        if self.arrival_gap < 0:
            raise ValueError(f"arrival_gap must be non-negative, got {self.arrival_gap}")
        if self.replication < 2:
            raise ValueError(f"replication must be >= 2, got {self.replication}")
        if self.max_counterexamples < 0:
            raise ValueError("max_counterexamples must be non-negative")

    def with_(self, **changes: object) -> "ExploreConfig":
        """Copy with fields replaced (sugar over :func:`dataclasses.replace`)."""
        return replace(self, **changes)
