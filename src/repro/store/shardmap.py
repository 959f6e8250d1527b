"""Hash-based key → shard placement for the multi-key store.

A :class:`ShardMap` is a pure, frozen description of how keys are placed on
the store's server fleet: ``num_shards`` shard groups, each made of
``replication`` virtual servers, with keys assigned to shards by a *stable*
hash (SHA-256 based, so placement is independent of ``PYTHONHASHSEED`` and
identical across runs, processes and Python versions — the same determinism
contract the rest of the simulator follows, see :mod:`repro.sim.rng`).

Placement is the only coupling between keys: two keys on the same shard share
a crash domain (crashing replica ``i`` of a shard crashes replica ``i`` of
every register hosted there), while keys on different shards share nothing
but the virtual clock.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable


def stable_key_hash(key: object, salt: int = 0) -> int:
    """A 64-bit hash of ``key`` that is stable across processes and versions.

    Python's builtin ``hash`` is salted per-process for strings, which would
    make placement non-reproducible; this helper hashes ``repr(key)`` with
    SHA-256 instead (the same trick :func:`repro.sim.rng.derive_seed` uses).
    """
    digest = hashlib.sha256()
    digest.update(str(salt).encode("utf-8"))
    digest.update(b"\x1f")
    digest.update(repr(key).encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big")


@dataclass(frozen=True)
class Placement:
    """Where one key lives: its shard id and the global ids of its replicas."""

    key: object
    shard: int
    servers: tuple[int, ...]


@dataclass(frozen=True)
class ShardMap:
    """Key → shard-group placement.

    Attributes
    ----------
    num_shards:
        Number of shard groups.
    replication:
        Servers per shard group; each key's register deploys one process per
        server of its shard.  Must be at least 2 (a message-passing register
        needs a peer) and tolerates ``(replication - 1) // 2`` crashes.
    salt:
        Perturbs the key hash so different stores can place the same keys
        differently (useful for rebalancing experiments).
    """

    num_shards: int = 4
    replication: int = 3
    salt: int = 0

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError(f"need at least one shard, got {self.num_shards}")
        if self.replication < 2:
            raise ValueError(
                f"replication must be >= 2 (a message-passing register needs a "
                f"peer), got {self.replication}"
            )

    # ------------------------------------------------------------- geometry

    @property
    def num_servers(self) -> int:
        """Total virtual servers across all shards."""
        return self.num_shards * self.replication

    @property
    def max_faulty_per_shard(self) -> int:
        """Crashes each shard tolerates: the largest ``t`` with ``t < replication/2``."""
        return (self.replication - 1) // 2

    def servers_of(self, shard: int) -> tuple[int, ...]:
        """Global server ids of ``shard``'s replicas."""
        if not 0 <= shard < self.num_shards:
            raise ValueError(f"shard {shard} out of range for {self.num_shards} shards")
        base = shard * self.replication
        return tuple(range(base, base + self.replication))

    # ------------------------------------------------------------ placement

    def shard_of(self, key: object) -> int:
        """The shard ``key`` is placed on (deterministic, uniform in expectation)."""
        return stable_key_hash(key, self.salt) % self.num_shards

    def placement(self, key: object) -> Placement:
        """Full placement of ``key``: shard plus replica server ids."""
        shard = self.shard_of(key)
        return Placement(key=key, shard=shard, servers=self.servers_of(shard))

    def histogram(self, keys: Iterable[object]) -> dict[int, int]:
        """Keys-per-shard counts (every shard present, possibly with 0)."""
        counts = {shard: 0 for shard in range(self.num_shards)}
        for key in keys:
            counts[self.shard_of(key)] += 1
        return counts
