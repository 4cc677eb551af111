"""The memory hierarchy of Figure 5.

Per shader core: a private L1 texture cache.  Shared across the GPU: the
vertex cache (used by the Geometry Pipeline), the tile cache (used by the
Tiling Engine for the Parameter Buffer) and the L2 cache.  The L2 backs
every L1 and is itself backed by DRAM.

The hierarchy exposes one entry point per traffic class
(:meth:`texture_access`, :meth:`vertex_access`, :meth:`tile_access`)
returning an :class:`AccessResult` with the level serviced and total
latency, while maintaining per-level statistics.  ``l2.stats.accesses`` is
the paper's headline "L2 Accesses" metric.

The batched counterparts (:meth:`vertex_access_lines`,
:meth:`tile_access_lines`) walk a whole footprint per call without
allocating per-access result records; they update every counter in the
same per-line order as the scalar entry points.  The fast replay engine drives the caches' recency lists
directly, one chunk of tiles at a time (see :mod:`repro.sim.replay`).
``backend`` selects the cache implementation: ``"fast"`` (recency
lists, the default) or ``"reference"`` (the OrderedDict specification
the differential tests compare against).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Sequence, Tuple

from repro.config import GPUConfig
from repro.errors import ConfigError
from repro.memory.cache import Cache, CacheStats, ReferenceCache
from repro.memory.dram import DRAM

#: backend name -> cache class, for :class:`MemoryHierarchy`.
CACHE_BACKENDS = {"fast": Cache, "reference": ReferenceCache}


class ServiceLevel(Enum):
    """Which level of the hierarchy supplied the data."""

    L1 = "l1"
    L2 = "l2"
    DRAM = "dram"


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one memory access."""

    level: ServiceLevel
    latency: int

    @property
    def l1_hit(self) -> bool:
        return self.level is ServiceLevel.L1


class MemoryHierarchy:
    """Texture/vertex/tile L1 caches + shared L2 + DRAM.

    One instance is created per simulated configuration; statistics
    accumulate until :meth:`reset`.
    """

    def __init__(self, config: GPUConfig, backend: str = "fast"):
        try:
            cache_cls = CACHE_BACKENDS[backend]
        except KeyError:
            raise ConfigError(
                f"unknown cache backend {backend!r}; "
                f"choose from {', '.join(sorted(CACHE_BACKENDS))}"
            ) from None
        self.config = config
        self.backend = backend
        self.texture_l1s: List[Cache] = [
            cache_cls(config.texture_cache)
            for _ in range(config.num_shader_cores)
        ]
        self.vertex_cache = cache_cls(config.vertex_cache)
        self.tile_cache = cache_cls(config.tile_cache)
        self.l2 = cache_cls(config.l2_cache)
        self.dram = DRAM(config.dram)

    # -- internal -------------------------------------------------------------

    def _through_l2(self, line: int) -> AccessResult:
        """Access the L2 (and DRAM below it) for ``line``; L1 already missed."""
        l2_latency = self.config.l2_cache.hit_latency
        if self.l2.access_line(line):
            return AccessResult(ServiceLevel.L2, l2_latency)
        dram_latency = self.dram.access_line(line)
        return AccessResult(ServiceLevel.DRAM, l2_latency + dram_latency)

    def _access(self, l1: Cache, l1_latency: int, line: int) -> AccessResult:
        if l1.access_line(line):
            return AccessResult(ServiceLevel.L1, l1_latency)
        below = self._through_l2(line)
        return AccessResult(below.level, l1_latency + below.latency)

    # -- traffic classes ------------------------------------------------------

    def texture_access(self, sc_id: int, line: int) -> AccessResult:
        """Texture fetch from shader core ``sc_id`` for cache line ``line``."""
        l1 = self.texture_l1s[sc_id]
        return self._access(l1, self.config.texture_cache.hit_latency, line)

    def vertex_access(self, line: int) -> AccessResult:
        """Vertex fetch from the Geometry Pipeline."""
        return self._access(
            self.vertex_cache, self.config.vertex_cache.hit_latency, line
        )

    def tile_access(self, line: int) -> AccessResult:
        """Parameter Buffer access from the Tiling Engine / Tile Fetcher."""
        return self._access(
            self.tile_cache, self.config.tile_cache.hit_latency, line
        )

    # -- batched traffic ------------------------------------------------------

    def _access_lines(self, l1, lines: Sequence[int]) -> Tuple[int, int]:
        """Drive ``lines`` through ``l1`` and the shared L2/DRAM below it.

        Returns ``(l1_hits, below_latency)`` where ``below_latency`` is
        the summed service latency beneath the L1 for every missing line
        (L2 hit latency per miss, plus the DRAM fill latency for lines
        the L2 missed too).  Every cache and DRAM counter advances
        exactly as if each line had gone through the scalar path.
        """
        hits, missed = l1.access_lines(lines)
        if not missed:
            return hits, 0
        _, to_dram = self.l2.access_lines(missed)
        below = len(missed) * self.config.l2_cache.hit_latency
        if to_dram:
            below += self.dram.access_lines(to_dram)
        return hits, below

    def vertex_access_lines(self, lines: Sequence[int]) -> Tuple[int, int]:
        """Batched Geometry Pipeline fetches; returns (hits, below-L1 latency)."""
        return self._access_lines(self.vertex_cache, lines)

    def tile_access_lines(self, lines: Sequence[int]) -> Tuple[int, int]:
        """Batched Parameter Buffer fetches; returns (hits, below-L1 latency)."""
        return self._access_lines(self.tile_cache, lines)

    # -- statistics -----------------------------------------------------------

    @property
    def l2_accesses(self) -> int:
        """The paper's headline metric: total accesses arriving at the L2."""
        return self.l2.stats.accesses

    @property
    def l2_misses(self) -> int:
        return self.l2.stats.misses

    @property
    def dram_accesses(self) -> int:
        return self.dram.stats.accesses

    def texture_l1_stats(self) -> CacheStats:
        """Aggregated statistics over all private L1 texture caches."""
        total = CacheStats()
        for l1 in self.texture_l1s:
            total = total.merge(l1.stats)
        return total

    def replication_factor(self) -> float:
        """Mean number of L1 copies of each line resident in any L1.

        1.0 means no line is replicated; values approach the number of
        shader cores as every line becomes resident everywhere.  This is
        the quantity DTexL's coarse-grained groupings reduce.
        """
        per_cache = [l1.resident_line_set() for l1 in self.texture_l1s]
        union = set().union(*per_cache) if per_cache else set()
        if not union:
            return 1.0
        total_resident = sum(len(lines) for lines in per_cache)
        return total_resident / len(union)

    def reset(self) -> None:
        """Clear all cache contents and statistics."""
        for l1 in self.texture_l1s:
            l1.reset()
        self.vertex_cache.reset()
        self.tile_cache.reset()
        self.l2.reset()
        self.dram.reset()
