"""Main-memory (DRAM) latency model.

Table II models main memory as a 1 GiB store with a 50-100 cycle access
latency.  The paper reports that DTexL does not change L2 misses and hence
does not change DRAM traffic, so a detailed bank/row model is not load-
bearing; we model the latency band deterministically.  Latency within the
[min, max] band is derived from the line address (a cheap stand-in for
row-buffer and bank effects) so repeated runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import DRAMConfig


@dataclass
class DRAMStats:
    """Access and traffic counters for main memory."""

    accesses: int = 0
    total_latency: int = 0

    def reset(self) -> None:
        self.accesses = 0
        self.total_latency = 0


@dataclass
class DRAM:
    """Deterministic banded-latency DRAM model."""

    config: DRAMConfig = field(default_factory=DRAMConfig)
    stats: DRAMStats = field(default_factory=DRAMStats)

    def latency_for_line(self, line: int) -> int:
        """Latency in cycles for a fill of cache line ``line``.

        A multiplicative hash spreads lines across the [min, max] latency
        band, emulating bank/row variation without random state.
        """
        band = self.config.max_latency - self.config.min_latency + 1
        # Knuth multiplicative hash keeps neighbouring lines decorrelated.
        jitter = ((line * 2654435761) >> 7) % band
        return self.config.min_latency + jitter

    def access_line(self, line: int) -> int:
        """Record an access and return its latency in cycles."""
        latency = self.latency_for_line(line)
        self.stats.accesses += 1
        self.stats.total_latency += latency
        return latency

    def latencies(self, lines) -> np.ndarray:
        """:meth:`latency_for_line` of every line, as an int64 array.

        The int64 product ``line * 2654435761`` is exact up to line
        ``(2**63 - 1) // 2654435761``; a batch with a line above that
        falls back to exact Python ints.
        """
        lines = np.asarray(lines, dtype=np.int64)
        knuth = 2654435761
        if lines.size and int(lines.max()) > np.iinfo(np.int64).max // knuth:
            return np.array(
                [self.latency_for_line(line) for line in lines.tolist()],
                dtype=np.int64,
            )
        band = self.config.max_latency - self.config.min_latency + 1
        return self.config.min_latency + ((lines * knuth) >> 7) % band

    def access_lines(self, lines) -> int:
        """Record a batch of accesses; returns their total latency.

        Counter updates are identical to calling :meth:`access_line`
        once per element (latency is a pure function of the line, so the
        batch total is order-independent).
        """
        total = int(self.latencies(lines).sum())
        self.stats.accesses += len(lines)
        self.stats.total_latency += total
        return total

    def reset(self) -> None:
        self.stats.reset()
