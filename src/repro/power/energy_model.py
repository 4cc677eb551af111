"""Event-energy GPU power model.

The paper uses McPAT (32 nm) for power.  We substitute an event-energy
model: every architectural event (cache access at each level, DRAM
access, SC issue cycle) carries a per-event energy, and a constant
leakage-plus-clock-tree power burns for the whole frame time.  The
per-event constants below are CACTI/McPAT-flavoured values for a 32 nm
low-power process; the *structure* (which events dominate, and that a
large share of total GPU energy is time-proportional) is what the
paper's Figure 18 depends on — its energy saving tracks the speedup
("reduction in energy comes mainly from a decrease in L2 accesses and
execution time", §V-C3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.errors import ConfigError


@dataclass(frozen=True)
class EnergyParams:
    """Per-event energies (nJ) and static power (W)."""

    l1_access_nj: float = 0.010       # 16 KiB 4-way SRAM read
    l2_access_nj: float = 0.075       # 1 MiB 8-way SRAM read
    dram_access_nj: float = 2.5       # 64 B LPDDR transfer
    #: Frame-buffer writeback (64 B streaming store to DRAM).
    framebuffer_write_nj: float = 2.5
    vertex_cache_access_nj: float = 0.008
    tile_cache_access_nj: float = 0.020
    sc_issue_nj: float = 0.030        # one SIMD issue cycle (4 lanes)
    fixed_function_quad_nj: float = 0.012  # rasterize+EZ+blend per quad
    #: Leakage + clock distribution for the whole GPU at 1 V / 32 nm,
    #: calibrated so the time-proportional share of total GPU energy is
    #: ~35% (the share McPAT reports for this class of mobile GPU, and
    #: the share under which the paper's Figure 17/18 correlation —
    #: energy savings tracking speedup — reproduces).
    static_power_w: float = 0.05

    def __post_init__(self) -> None:
        for name in (
            "l1_access_nj", "l2_access_nj", "dram_access_nj",
            "framebuffer_write_nj",
            "vertex_cache_access_nj", "tile_cache_access_nj",
            "sc_issue_nj", "fixed_function_quad_nj", "static_power_w",
        ):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy per component, in millijoules."""

    components_mj: Dict[str, float] = field(default_factory=dict)

    @property
    def total_mj(self) -> float:
        return sum(self.components_mj.values())


class EnergyModel:
    """Accumulates event counts into a frame-energy breakdown."""

    def __init__(self, params: EnergyParams = EnergyParams()):
        self.params = params

    def frame_energy(
        self,
        l1_accesses: int,
        l2_accesses: int,
        dram_accesses: int,
        vertex_accesses: int,
        tile_accesses: int,
        sc_issue_cycles: int,
        quads_processed: int,
        frame_cycles: int,
        frequency_mhz: int,
        framebuffer_write_lines: int = 0,
    ) -> EnergyBreakdown:
        """Total GPU energy for one frame.

        ``sc_issue_cycles`` is the sum of busy cycles over all SCs;
        ``frame_cycles`` the wall-clock frame length in cycles.
        """
        p = self.params
        frame_seconds = frame_cycles / (frequency_mhz * 1e6)
        components = {
            "l1_texture": l1_accesses * p.l1_access_nj * 1e-6,
            "l2": l2_accesses * p.l2_access_nj * 1e-6,
            "dram": dram_accesses * p.dram_access_nj * 1e-6,
            "framebuffer": (
                framebuffer_write_lines * p.framebuffer_write_nj * 1e-6
            ),
            "vertex_cache": vertex_accesses * p.vertex_cache_access_nj * 1e-6,
            "tile_cache": tile_accesses * p.tile_cache_access_nj * 1e-6,
            "shader_cores": sc_issue_cycles * p.sc_issue_nj * 1e-6,
            "fixed_function": quads_processed * p.fixed_function_quad_nj * 1e-6,
            "static": p.static_power_w * frame_seconds * 1e3,
        }
        return EnergyBreakdown(components_mj=components)
