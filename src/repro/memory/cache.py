"""Set-associative LRU cache models.

Caches are indexed by byte address; internally everything is tracked at
cache-line granularity.  The models are purely functional w.r.t. timing —
they report hits and misses, and the surrounding hierarchy converts those
into latencies.

Two implementations share one contract:

* :class:`Cache` — the fast engine.  Each set is a plain list of its
  resident lines, least recently used first: a hit is ``line in lru``
  plus a move to the end (skipped when the line is already last), and
  a miss deletes the head of a full set before appending.  The batched
  :meth:`Cache.access_lines` entry point processes a whole footprint
  per call, and :meth:`Cache.acquire_state` hands the lists to the
  replay engine's chunked loop.
* :class:`ReferenceCache` — the original ``OrderedDict``-per-set model,
  kept as the executable specification.  Differential tests drive both
  on identical access streams and require bit-identical counters,
  hit/miss sequences, eviction order and per-set recency order.

A recency list is an ``OrderedDict`` set without the dict: the list
order is the ``OrderedDict`` key order, ``remove`` + ``append`` is
``move_to_end`` and ``del lru[0]`` is ``popitem(last=False)``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import CacheConfig
from repro.errors import ConfigError


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache instance."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def miss_rate(self) -> float:
        """Fraction of accesses that missed (0.0 when never accessed)."""
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses that hit (0.0 when never accessed)."""
        return self.hits / self.accesses if self.accesses else 0.0

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Return a new ``CacheStats`` with the sums of both counters."""
        return CacheStats(
            accesses=self.accesses + other.accesses,
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            evictions=self.evictions + other.evictions,
        )

    def reset(self) -> None:
        self.accesses = self.hits = self.misses = self.evictions = 0


@dataclass
class Cache:
    """A set-associative cache with true-LRU replacement (fast engine).

    Parameters come from a :class:`~repro.config.CacheConfig`.  Backing
    store: ``_sets[set]`` is the list of that set's resident lines,
    least recently used first.
    """

    config: CacheConfig
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self._line_shift = self.config.line_bytes.bit_length() - 1
        if (1 << self._line_shift) != self.config.line_bytes:
            raise ConfigError("line size must be a power of two")
        self._num_sets = self.config.num_sets
        self._ways = self.config.associativity
        self._sets: List[List[int]] = [[] for _ in range(self._num_sets)]

    # -- address helpers ------------------------------------------------------

    def line_of(self, address: int) -> int:
        """Cache-line number containing ``address``."""
        return address >> self._line_shift

    def _set_index(self, line: int) -> int:
        return line % self._num_sets

    # -- operations -----------------------------------------------------------

    def access(self, address: int) -> bool:
        """Access a byte address.  Returns ``True`` on hit.

        On a miss, the line is filled and the LRU line of its set is
        evicted if the set is full.
        """
        return self.access_line(self.line_of(address))

    def access_line(self, line: int) -> bool:
        """Access by precomputed line number (hot path for the simulator)."""
        hits, _ = self.access_lines((line,))
        return hits == 1

    def access_lines(self, lines: Sequence[int]) -> Tuple[int, List[int]]:
        """Access a whole footprint of line numbers in stream order.

        Returns ``(hits, missed_lines)`` where ``missed_lines`` preserves
        the order misses occurred — exactly the stream the next level of
        the hierarchy must see.  Counter updates are identical to calling
        :meth:`access_line` once per element.
        """
        sets = self._sets
        num_sets = self._num_sets
        ways = self._ways
        hits = 0
        evictions = 0
        missed: List[int] = []
        for line in lines:
            lru = sets[line % num_sets]
            if line in lru:
                hits += 1
                if lru[-1] != line:
                    lru.remove(line)
                    lru.append(line)
                continue
            missed.append(line)
            if len(lru) == ways:
                del lru[0]
                evictions += 1
            lru.append(line)
        self.release_state(hits, len(missed), evictions)
        return hits, missed

    # -- replay-loop support ---------------------------------------------------

    def acquire_state(self) -> Tuple[List[List[int]], int]:
        """Expose the recency lists for a replay loop outside the class.

        Returns ``(sets, ways)``: ``sets[line % len(sets)]`` holds that
        set's resident lines, least recently used first.  The replay
        engine drives these lists directly over whole chunks of tiles
        (one Python call per line is too expensive at trace scale) and
        must finish with :meth:`release_state` to add the statistics.
        The differential tests pin that loop to this class.
        """
        return self._sets, self._ways

    def release_state(self, hits: int, misses: int, evictions: int) -> None:
        """Add the statistics of accesses made through :meth:`acquire_state`.

        The counter updates are plain sums, so deferring them to one
        bulk update per batch leaves the final statistics identical to
        per-access updates.
        """
        stats = self.stats
        stats.accesses += hits + misses
        stats.hits += hits
        stats.misses += misses
        stats.evictions += evictions

    def probe(self, address: int) -> bool:
        """Check residency without updating LRU state or statistics."""
        line = self.line_of(address)
        return line in self._sets[self._set_index(line)]

    def invalidate(self, address: Optional[int] = None) -> None:
        """Invalidate one line (or the whole cache when ``address`` is None)."""
        if address is None:
            for lru in self._sets:
                lru.clear()
            return
        line = self.line_of(address)
        lru = self._sets[self._set_index(line)]
        if line in lru:
            lru.remove(line)

    @property
    def resident_lines(self) -> int:
        """Number of valid lines currently held."""
        return sum(map(len, self._sets))

    def resident_line_set(self) -> set:
        """The set of all resident line numbers (for replication analysis)."""
        return set().union(*self._sets)

    def reset(self) -> None:
        """Clear contents and statistics."""
        self.invalidate()
        self.stats.reset()


def access_set_streams(
    sets, ways, group, lines
) -> Tuple[np.ndarray, np.ndarray]:
    """Drive a line stream through LRU recency lists, one set at a time.

    ``lines`` is an int64 access stream and ``group[i]`` the index into
    ``sets`` of access ``i`` — the set of one cache, or of one of
    several caches whose :meth:`Cache.acquire_state` lists are
    concatenated.  Sets are independent state machines, so replaying
    every set's accesses together, in stream order, gives each access
    the hit or miss, and each set the evictions and final recency
    order, that the interleaved stream would.  One stable argsort
    groups the accesses (a radix sort when ``group`` fits int16).  An
    access equal to the previous access of its set hits the most
    recently used line and changes no state: those are counted as hits
    here and never reach the Python loop.

    Returns the stream positions of the misses, ascending, and of the
    misses that evicted a line.  The caller adds the statistics with
    :meth:`Cache.release_state`.
    """
    if len(sets) <= np.iinfo(np.int16).max + 1:
        order = np.argsort(group.astype(np.int16), kind="stable")
    else:
        order = np.argsort(group, kind="stable")
    group = group[order]
    lines = lines[order]
    fresh = np.ones(len(lines), dtype=bool)
    fresh[1:] = (group[1:] != group[:-1]) | (lines[1:] != lines[:-1])
    live = np.flatnonzero(fresh)
    missed: List[int] = []
    evicted: List[int] = []
    for i, key, line in zip(
        live.tolist(), group[live].tolist(), lines[live].tolist()
    ):
        lru = sets[key]
        if line in lru:
            # Not the MRU line (a repeat would have been skipped) unless
            # it opens its set's run; either way, move it to the end.
            lru.remove(line)
            lru.append(line)
            continue
        missed.append(i)
        if len(lru) == ways:
            del lru[0]
            evicted.append(i)
        lru.append(line)
    return np.sort(order[missed]), order[evicted]


@dataclass
class ReferenceCache:
    """The original ``OrderedDict``-per-set LRU model (specification).

    Each set is an ``OrderedDict`` mapping line-tag -> None, oldest
    first, so a hit is a ``move_to_end`` and a replacement pops the
    front.  :class:`Cache` must match this model counter-for-counter;
    the reference replay engine and the differential tests run on it.
    """

    config: CacheConfig
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self._line_shift = self.config.line_bytes.bit_length() - 1
        if (1 << self._line_shift) != self.config.line_bytes:
            raise ConfigError("line size must be a power of two")
        self._num_sets = self.config.num_sets
        self._sets: List[OrderedDict] = [
            OrderedDict() for _ in range(self._num_sets)
        ]

    # -- address helpers ------------------------------------------------------

    def line_of(self, address: int) -> int:
        """Cache-line number containing ``address``."""
        return address >> self._line_shift

    def _set_index(self, line: int) -> int:
        return line % self._num_sets

    # -- operations -----------------------------------------------------------

    def access(self, address: int) -> bool:
        """Access a byte address.  Returns ``True`` on hit.

        On a miss, the line is filled and the LRU line of its set is
        evicted if the set is full.
        """
        return self.access_line(self.line_of(address))

    def access_line(self, line: int) -> bool:
        """Access by precomputed line number."""
        cache_set = self._sets[line % self._num_sets]
        self.stats.accesses += 1
        if line in cache_set:
            cache_set.move_to_end(line)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        if len(cache_set) >= self.config.associativity:
            cache_set.popitem(last=False)
            self.stats.evictions += 1
        cache_set[line] = None
        return False

    def access_lines(self, lines: Iterable[int]) -> Tuple[int, List[int]]:
        """Batched counterpart of :meth:`access_line` (same contract as
        :meth:`Cache.access_lines`)."""
        hits = 0
        missed: List[int] = []
        for line in lines:
            if self.access_line(line):
                hits += 1
            else:
                missed.append(line)
        return hits, missed

    def probe(self, address: int) -> bool:
        """Check residency without updating LRU state or statistics."""
        line = self.line_of(address)
        return line in self._sets[self._set_index(line)]

    def invalidate(self, address: Optional[int] = None) -> None:
        """Invalidate one line (or the whole cache when ``address`` is None)."""
        if address is None:
            for cache_set in self._sets:
                cache_set.clear()
            return
        line = self.line_of(address)
        self._sets[self._set_index(line)].pop(line, None)

    @property
    def resident_lines(self) -> int:
        """Number of valid lines currently held."""
        return sum(len(s) for s in self._sets)

    def resident_line_set(self) -> set:
        """The set of all resident line numbers (for replication analysis)."""
        lines: set = set()
        for cache_set in self._sets:
            lines.update(cache_set.keys())
        return lines

    def reset(self) -> None:
        """Clear contents and statistics."""
        self.invalidate()
        self.stats.reset()
