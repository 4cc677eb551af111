"""GPU simulation parameters (paper Table II).

The defaults reproduce Table II of the paper::

    Tech Specs            600 MHz, 1 V, 32 nm
    Screen Resolution     1960x768
    Tile Size             32x32
    Tile Traversal Order  Z-order
    Main Memory           50-100 cycles, 1 GiB
    Vertex Cache          64-B lines,  8 KiB, 4-way, 1 cycle
    Texture Caches (4x)   64-B lines, 16 KiB, 4-way, 1 cycle
    Tile Cache            64-B lines, 64 KiB, 4-way, 1 cycle
    L2 Cache              64-B lines,  1 MiB, 8-way, 12 cycles

``GPUConfig`` is the single source of truth threaded through the whole
simulator.  Scaled-down variants (for tests and fast benches) set a smaller
``screen_width``/``screen_height`` at construction, as :data:`TEST_CONFIG`
does.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.errors import ConfigError

KIB = 1024
MIB = 1024 * KIB


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level."""

    name: str
    size_bytes: int
    line_bytes: int = 64
    associativity: int = 4
    hit_latency: int = 1

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.line_bytes <= 0:
            raise ConfigError("cache size and line size must be positive")
        if self.size_bytes % self.line_bytes:
            raise ConfigError(
                f"{self.name}: size {self.size_bytes} not a multiple of "
                f"line size {self.line_bytes}"
            )
        num_lines = self.size_bytes // self.line_bytes
        if self.associativity <= 0 or num_lines % self.associativity:
            raise ConfigError(
                f"{self.name}: {num_lines} lines not divisible by "
                f"associativity {self.associativity}"
            )

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.associativity


@dataclass(frozen=True)
class DRAMConfig:
    """Main-memory model (Table II: 50-100 cycles, 1 GiB)."""

    min_latency: int = 50
    max_latency: int = 100
    size_bytes: int = 1 * 1024 * MIB

    def __post_init__(self) -> None:
        if not 0 < self.min_latency <= self.max_latency:
            raise ConfigError("require 0 < min_latency <= max_latency")


@dataclass(frozen=True)
class ShaderConfig:
    """Shader-core (SC) execution model parameters.

    ``max_warps`` bounds the number of quads (warps) simultaneously in
    flight per SC — the multithreading that hides texture-miss latency.
    ``issue_rate`` is instructions issued per cycle per SC.
    """

    max_warps: int = 4
    issue_rate: int = 1
    base_shader_cycles: int = 12
    texture_issue_cycles: int = 1
    #: Extra cycles per L1 texture miss beyond the raw cache latencies:
    #: NoC round trip to the shared L2 plus texture-unit pipeline replay.
    miss_overhead_cycles: int = 24

    def __post_init__(self) -> None:
        if self.max_warps <= 0 or self.issue_rate <= 0:
            raise ConfigError("max_warps and issue_rate must be positive")
        if self.miss_overhead_cycles < 0:
            raise ConfigError("miss_overhead_cycles must be non-negative")


@dataclass(frozen=True)
class GPUConfig:
    """Full GPU configuration (paper Table II defaults)."""

    screen_width: int = 1960
    screen_height: int = 768
    tile_size: int = 32
    num_shader_cores: int = 4
    frequency_mhz: int = 600
    voltage: float = 1.0
    tech_nm: int = 32

    vertex_cache: CacheConfig = field(
        default_factory=lambda: CacheConfig("vertex", 8 * KIB)
    )
    texture_cache: CacheConfig = field(
        default_factory=lambda: CacheConfig("texture-l1", 16 * KIB)
    )
    tile_cache: CacheConfig = field(
        default_factory=lambda: CacheConfig("tile", 64 * KIB)
    )
    l2_cache: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            "l2", 1 * MIB, associativity=8, hit_latency=12
        )
    )
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    shader: ShaderConfig = field(default_factory=ShaderConfig)

    # Raster-pipeline structural parameters.
    fifo_depth: int = 16
    tile_fetcher_cycles_per_primitive: int = 2
    raster_quads_per_cycle: int = 4
    stage_unit_quads_per_cycle: int = 1
    #: Color Buffer -> Frame Buffer flush bandwidth.  The baseline
    #: flushes the whole tile before Blending may start the next tile;
    #: the decoupled architecture flushes each bank independently.
    flush_bytes_per_cycle: int = 16
    color_bytes_per_pixel: int = 4

    def __post_init__(self) -> None:
        if self.tile_size <= 0 or self.tile_size % 2:
            raise ConfigError("tile_size must be a positive even number")
        if self.num_shader_cores not in (1, 2, 4, 8, 16):
            raise ConfigError("num_shader_cores must be a power of two <= 16")
        if self.screen_width <= 0 or self.screen_height <= 0:
            raise ConfigError("screen dimensions must be positive")

    # -- derived geometry ---------------------------------------------------

    @property
    def tiles_x(self) -> int:
        """Number of tile columns (partial edge tiles round up)."""
        return -(-self.screen_width // self.tile_size)

    @property
    def tiles_y(self) -> int:
        """Number of tile rows (partial edge tiles round up)."""
        return -(-self.screen_height // self.tile_size)

    @property
    def num_tiles(self) -> int:
        return self.tiles_x * self.tiles_y

    @property
    def quads_per_tile_side(self) -> int:
        """Quads along one side of a tile (a quad covers 2x2 pixels)."""
        return self.tile_size // 2

    # -- variants ------------------------------------------------------------

    def with_upper_bound_cache(self) -> "GPUConfig":
        """Single-SC configuration with one 4x-sized L1 texture cache.

        This is the paper's conservative upper bound for Figure 16: one
        shader core whose private L1 has the aggregate capacity of the
        four baseline L1s, eliminating all replication.
        """
        big_l1 = dataclasses.replace(
            self.texture_cache,
            size_bytes=self.texture_cache.size_bytes * self.num_shader_cores,
        )
        return dataclasses.replace(
            self, num_shader_cores=1, texture_cache=big_l1
        )


#: The exact configuration of paper Table II.
PAPER_CONFIG = GPUConfig()

#: Small configuration used by the test-suite and quick benches.
TEST_CONFIG = GPUConfig(screen_width=512, screen_height=256)
