"""Message-delay models.

The paper's model only assumes that every message sent to a correct process
is eventually delivered (finite but unbounded delay).  Its *time-complexity*
claims (Table 1, lines 5-6) additionally assume a failure-free run in which
every transfer takes at most ``delta`` time units and local computation is
instantaneous.  The delay models below cover both regimes:

* :class:`FixedDelay` — every message takes exactly ``delta``; used by the
  Table-1 latency benchmarks so measured latencies come out in exact
  multiples of ``delta``.
* :class:`UniformDelay` / :class:`ExponentialDelay` / :class:`JitteredDelay`
  — randomised delays (seeded) that exercise message reordering, which is
  what makes the alternating-bit reorder buffer and the atomicity checker
  earn their keep.
* :class:`PerLinkDelay` — heterogeneous links (fast/slow processes), used by
  the asynchrony-sensitivity ablation.

A delay model is just a callable ``sample(src, dst) -> float``; models are
stateless apart from their RNG so they can be shared across channels.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Mapping, Optional, Tuple

from repro.sim.rng import derive_seed, make_rng


class DelayModel(ABC):
    """Base class for message-delay models."""

    @abstractmethod
    def sample(self, src: int, dst: int) -> float:
        """Return the transfer delay for a message from ``src`` to ``dst``."""

    def max_delay(self) -> Optional[float]:
        """Upper bound on delays if one exists (the paper's ``delta``), else ``None``."""
        return None

    def fresh(self) -> "DelayModel":
        """Return an equivalent model with its RNG stream rewound to the start.

        The workload runner calls this once per run so that re-running the
        same :class:`~repro.workloads.spec.WorkloadSpec` reproduces the exact
        same delays even though delay models are stateful objects.  Stateless
        models simply return themselves.
        """
        return self

    def scoped(self, scope: str) -> "DelayModel":
        """Return an equivalent model whose RNG stream is private to ``scope``.

        The sharded store gives every key's subnet a *scoped* delay model
        (scope = the subnet name) so that a subnet's delay draws depend only
        on its own send sequence, never on interleaving with other subnets.
        The scoped seed is derived deterministically from the model's own
        seed and the scope string, mirroring how perturbation streams are
        scoped per subnet.

        Stateless models (no RNG) return themselves; seeded models return a
        fresh instance with a derived seed.
        """
        return self


class FixedDelay(DelayModel):
    """Every message takes exactly ``delta`` time units.

    This is the regime of Table 1 lines 5-6: failure-free run, transfer
    delays bounded by ``delta``, instantaneous local computation.
    """

    def __init__(self, delta: float = 1.0) -> None:
        if delta <= 0:
            raise ValueError(f"delta must be positive, got {delta}")
        self.delta = delta

    def sample(self, src: int, dst: int) -> float:
        return self.delta

    def max_delay(self) -> float:
        return self.delta

    def __repr__(self) -> str:
        return f"FixedDelay(delta={self.delta})"


class UniformDelay(DelayModel):
    """Delays drawn uniformly from ``[low, high]`` (seeded, reproducible)."""

    def __init__(self, low: float, high: float, seed: Optional[int] = 0) -> None:
        if low < 0 or high < low:
            raise ValueError(f"invalid delay range [{low}, {high}]")
        self.low = low
        self.high = high
        self._seed = seed
        self._rng = make_rng(seed, "uniform-delay", low, high)

    def sample(self, src: int, dst: int) -> float:
        return self._rng.uniform(self.low, self.high)

    def max_delay(self) -> float:
        return self.high

    def fresh(self) -> "UniformDelay":
        return UniformDelay(self.low, self.high, seed=self._seed)

    def scoped(self, scope: str) -> "UniformDelay":
        if self._seed is None:
            return UniformDelay(self.low, self.high, seed=None)
        return UniformDelay(
            self.low, self.high, seed=derive_seed(self._seed, "scoped-delay", scope)
        )

    def __repr__(self) -> str:
        return f"UniformDelay(low={self.low}, high={self.high})"


class ExponentialDelay(DelayModel):
    """Heavy-ish tailed delays: ``base + Exp(mean)`` truncated at ``cap``.

    Models an asynchronous network where most messages are fast but a few
    straggle badly — the regime in which non-FIFO reordering is common and
    new/old read inversions would appear if the protocol were wrong.
    """

    def __init__(
        self,
        base: float = 0.1,
        mean: float = 1.0,
        cap: float = 50.0,
        seed: Optional[int] = 0,
    ) -> None:
        if base < 0 or mean <= 0 or cap < base:
            raise ValueError("invalid ExponentialDelay parameters")
        self.base = base
        self.mean = mean
        self.cap = cap
        self._seed = seed
        self._rng = make_rng(seed, "exp-delay", base, mean, cap)

    def sample(self, src: int, dst: int) -> float:
        raw = self.base + self._rng.expovariate(1.0 / self.mean)
        return min(raw, self.cap)

    def max_delay(self) -> float:
        return self.cap

    def fresh(self) -> "ExponentialDelay":
        return ExponentialDelay(base=self.base, mean=self.mean, cap=self.cap, seed=self._seed)

    def scoped(self, scope: str) -> "ExponentialDelay":
        seed = None if self._seed is None else derive_seed(self._seed, "scoped-delay", scope)
        return ExponentialDelay(base=self.base, mean=self.mean, cap=self.cap, seed=seed)

    def __repr__(self) -> str:
        return f"ExponentialDelay(base={self.base}, mean={self.mean}, cap={self.cap})"


class JitteredDelay(DelayModel):
    """A fixed delay plus bounded symmetric jitter: ``delta * (1 ± jitter*U)``.

    Keeps the bound ``delta * (1 + jitter)`` while still producing
    reorderings; handy for latency benches that want "almost synchronous"
    behaviour.
    """

    def __init__(self, delta: float = 1.0, jitter: float = 0.1, seed: Optional[int] = 0) -> None:
        if delta <= 0 or not 0 <= jitter < 1:
            raise ValueError("invalid JitteredDelay parameters")
        self.delta = delta
        self.jitter = jitter
        self._seed = seed
        self._rng = make_rng(seed, "jitter-delay", delta, jitter)

    def sample(self, src: int, dst: int) -> float:
        factor = 1.0 + self.jitter * (2.0 * self._rng.random() - 1.0)
        return self.delta * factor

    def max_delay(self) -> float:
        return self.delta * (1.0 + self.jitter)

    def fresh(self) -> "JitteredDelay":
        return JitteredDelay(delta=self.delta, jitter=self.jitter, seed=self._seed)

    def scoped(self, scope: str) -> "JitteredDelay":
        seed = None if self._seed is None else derive_seed(self._seed, "scoped-delay", scope)
        return JitteredDelay(delta=self.delta, jitter=self.jitter, seed=seed)

    def __repr__(self) -> str:
        return f"JitteredDelay(delta={self.delta}, jitter={self.jitter})"


class PerLinkDelay(DelayModel):
    """Heterogeneous links: a different delay model per ``(src, dst)`` pair.

    Pairs not present in ``overrides`` fall back to ``default``.  Used by the
    asynchrony ablation to model one slow process or one slow link.
    """

    def __init__(
        self,
        default: DelayModel,
        overrides: Optional[Mapping[Tuple[int, int], DelayModel]] = None,
    ) -> None:
        self.default = default
        self.overrides = dict(overrides or {})

    def sample(self, src: int, dst: int) -> float:
        model = self.overrides.get((src, dst), self.default)
        return model.sample(src, dst)

    def max_delay(self) -> Optional[float]:
        bounds = [self.default.max_delay()]
        bounds.extend(model.max_delay() for model in self.overrides.values())
        if any(bound is None for bound in bounds):
            return None
        return max(bound for bound in bounds if bound is not None)

    def fresh(self) -> "PerLinkDelay":
        return PerLinkDelay(
            default=self.default.fresh(),
            overrides={link: model.fresh() for link, model in self.overrides.items()},
        )

    def scoped(self, scope: str) -> "PerLinkDelay":
        return PerLinkDelay(
            default=self.default.scoped(scope),
            overrides={link: model.scoped(scope) for link, model in self.overrides.items()},
        )

    def __repr__(self) -> str:
        return f"PerLinkDelay(default={self.default!r}, overrides={len(self.overrides)} links)"


def effective_delta(model: DelayModel) -> float:
    """Return the paper's ``delta`` (delay bound) for a model, or raise if unbounded."""
    bound = model.max_delay()
    if bound is None or not math.isfinite(bound):
        raise ValueError(f"delay model {model!r} has no finite bound delta")
    return bound
