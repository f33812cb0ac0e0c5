"""Set-associative cache models (instruction and data caches).

The environment-modeling challenge GameTime addresses (paper Section 3.1)
comes precisely from micro-architectural state such as caches: the same
instruction can take an order of magnitude longer on a miss than on a hit,
and whether it hits depends on the execution history.  This module
provides a parameterisable set-associative cache with LRU replacement used
by the cycle-level simulator for both instruction fetches and data
accesses.

Cache *state* (the set of resident lines and their recency) is the part of
the platform's environment state that GameTime treats adversarially; the
simulator exposes it so experiments can run from cold or warm starting
states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.exceptions import SimulationError


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache.

    Attributes:
        line_size_words: number of words per cache line (power of two).
        num_sets: number of sets (power of two).
        associativity: ways per set.
        hit_latency: cycles charged on a hit.
        miss_penalty: additional cycles charged on a miss.
    """

    line_size_words: int = 4
    num_sets: int = 16
    associativity: int = 2
    hit_latency: int = 1
    miss_penalty: int = 10

    def __post_init__(self) -> None:
        for name in ("line_size_words", "num_sets", "associativity"):
            value = getattr(self, name)
            if value <= 0:
                raise SimulationError(f"cache {name} must be positive")
        if self.line_size_words & (self.line_size_words - 1):
            raise SimulationError("line size must be a power of two")
        if self.num_sets & (self.num_sets - 1):
            raise SimulationError("number of sets must be a power of two")
        if self.hit_latency < 0 or self.miss_penalty < 0:
            raise SimulationError("cache latencies must be non-negative")

    @property
    def capacity_words(self) -> int:
        """Total capacity in words."""
        return self.line_size_words * self.num_sets * self.associativity


@dataclass
class CacheStatistics:
    """Hit/miss counters."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses that hit (0 when there were none)."""
        return self.hits / self.accesses if self.accesses else 0.0


class Cache:
    """A set-associative cache with true-LRU replacement.

    Addresses are word addresses; the cache maps them to (set, tag) pairs
    according to the configured geometry.
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        # Each set is an ordered list of tags, most recently used last.
        self._sets: list[list[int]] = [[] for _ in range(config.num_sets)]
        self.statistics = CacheStatistics()

    def _locate(self, address: int) -> tuple[int, int]:
        line = address // self.config.line_size_words
        set_index = line % self.config.num_sets
        tag = line // self.config.num_sets
        return set_index, tag

    def access(self, address: int) -> int:
        """Access ``address``; update state and return the cycle cost."""
        if address < 0:
            raise SimulationError(f"negative address {address}")
        self.statistics.accesses += 1
        set_index, tag = self._locate(address)
        ways = self._sets[set_index]
        if tag in ways:
            ways.remove(tag)
            ways.append(tag)
            self.statistics.hits += 1
            return self.config.hit_latency
        self.statistics.misses += 1
        ways.append(tag)
        if len(ways) > self.config.associativity:
            ways.pop(0)
        return self.config.hit_latency + self.config.miss_penalty

    def probe(self, address: int) -> bool:
        """Return True iff ``address`` currently hits (state unchanged)."""
        set_index, tag = self._locate(address)
        return tag in self._sets[set_index]

    def flush(self) -> None:
        """Invalidate the entire cache (cold state)."""
        self._sets = [[] for _ in range(self.config.num_sets)]

    def warm(self, addresses: Iterable[int]) -> None:
        """Pre-load the cache with the lines of ``addresses`` (in order)."""
        for address in addresses:
            set_index, tag = self._locate(address)
            ways = self._sets[set_index]
            if tag in ways:
                ways.remove(tag)
            ways.append(tag)
            if len(ways) > self.config.associativity:
                ways.pop(0)

    def snapshot(self) -> list[list[int]]:
        """Return a copy of the full cache state (per-set LRU-ordered tags)."""
        return [list(ways) for ways in self._sets]
