"""Cross-validation tests: independent components must agree.

These catch integration drift that unit tests cannot: the replayer, the
standalone cache model, the reuse-distance analyzer and the timing model
all reason about the same streams, so their numbers must reconcile.
"""

import pytest

from repro.core.dtexl import BASELINE, PAPER_CONFIGURATIONS
from repro.memory.cache import Cache
from repro.sim.replay import TraceReplayer


def per_core_streams(trace, scheduler, n_cores=4):
    streams = [[] for _ in range(n_cores)]
    for step, tile in enumerate(scheduler.tiles):
        entry = trace.tiles.get(tile)
        if entry is None:
            continue
        perm = scheduler.permutation_at(step)
        for quad in entry.quads:
            core = perm[scheduler.slot_of(quad.qx, quad.qy)] % n_cores
            streams[core].extend(quad.texture_lines)
    return streams


class TestReplayVsStandaloneCache:
    @pytest.mark.parametrize(
        "design_name", ["baseline", "CG-square-coupled", "HLB-flp2"]
    )
    def test_l1_misses_match_direct_simulation(
        self, tiny_config, tiny_trace, design_name
    ):
        """Replaying through the hierarchy and simulating each core's
        stream on a standalone Cache must give identical L1 miss counts."""
        design = PAPER_CONFIGURATIONS[design_name]
        result = TraceReplayer(tiny_config).run(tiny_trace, design)

        scheduler = design.build_scheduler(tiny_config)
        direct_misses = 0
        for stream in per_core_streams(tiny_trace, scheduler):
            cache = Cache(tiny_config.texture_cache)
            for line in stream:
                cache.access_line(line)
            direct_misses += cache.stats.misses
        assert result.l1_misses == direct_misses

    def test_l2_texture_accesses_equal_l1_misses(self, tiny_config, tiny_trace):
        """Texture traffic arriving at the L2 is exactly the L1 misses
        (plus the vertex/tile-cache misses, measured separately)."""
        result = TraceReplayer(tiny_config).run(tiny_trace, BASELINE)
        non_texture = result.vertex_accesses + result.tile_accesses
        # vertex/tile caches filter some of their traffic before the L2:
        assert result.l2_accesses <= result.l1_misses + non_texture
        assert result.l2_accesses >= result.l1_misses


class TestReuseProfileVsRealCache:
    def test_fa_prediction_brackets_set_associative(
        self, tiny_config, tiny_trace
    ):
        """A fully-associative LRU (reuse-profile prediction) can only
        do better than the real 4-way cache on the same stream."""
        from repro.analysis.reuse import reuse_profile

        scheduler = BASELINE.build_scheduler(tiny_config)
        for stream in per_core_streams(tiny_trace, scheduler):
            if not stream:
                continue
            profile = reuse_profile(stream)
            predicted_misses = round(
                (1.0 - profile.hit_rate(tiny_config.texture_cache.num_lines))
                * len(stream)
            )
            cache = Cache(tiny_config.texture_cache)
            for line in stream:
                cache.access_line(line)
            assert predicted_misses <= cache.stats.misses + 1


class TestTimingReconciliation:
    def test_coupled_time_at_least_sum_of_tile_maxima(
        self, tiny_config, tiny_trace
    ):
        """The coupled pipeline can never beat the barrier lower bound:
        the sum over tiles of the slowest SC's fragment time."""
        result = TraceReplayer(tiny_config).run(tiny_trace, BASELINE)
        lower_bound = sum(
            max(per_sc) for per_sc in result.timing.per_tile_sc_cycles
        )
        assert result.frame_cycles >= lower_bound

    def test_decoupled_time_at_least_per_core_chain(
        self, tiny_config, tiny_trace
    ):
        """The decoupled pipeline can never beat its busiest SC chain."""
        from repro.core.dtexl import DTEXL_BEST

        result = TraceReplayer(tiny_config).run(tiny_trace, DTEXL_BEST)
        chains = [0] * tiny_config.num_shader_cores
        for per_sc in result.timing.per_tile_sc_cycles:
            for core, cycles in enumerate(per_sc):
                chains[core] += cycles
        assert result.frame_cycles >= max(chains)

    def test_busy_cycles_equal_per_tile_sums(self, tiny_config, tiny_trace):
        result = TraceReplayer(tiny_config).run(tiny_trace, BASELINE)
        for core in range(tiny_config.num_shader_cores):
            total = sum(
                per_sc[core] for per_sc in result.timing.per_tile_sc_cycles
            )
            assert result.timing.sc_busy_cycles[core] == total


class TestEnergyReconciliation:
    def test_component_counts_match_replay(self, tiny_config, tiny_trace):
        """Recomputing energy from the replay's own counters must give
        exactly the breakdown the replay reported."""
        from repro.power.energy_model import EnergyModel

        result = TraceReplayer(tiny_config).run(tiny_trace, BASELINE)
        recomputed = EnergyModel().frame_energy(
            l1_accesses=result.l1_accesses,
            l2_accesses=result.l2_accesses,
            dram_accesses=result.dram_accesses,
            vertex_accesses=result.vertex_accesses,
            tile_accesses=result.tile_accesses,
            sc_issue_cycles=sum(result.timing.sc_issue_cycles),
            quads_processed=result.total_quads,
            frame_cycles=result.frame_cycles,
            frequency_mhz=tiny_config.frequency_mhz,
            framebuffer_write_lines=result.framebuffer_write_lines,
        )
        assert recomputed.total_mj == pytest.approx(result.energy.total_mj)
