"""Edge-case and robustness tests across the stack."""

import pytest

from repro.config import GPUConfig
from repro.core.dtexl import BASELINE, DTEXL_BEST
from repro.geometry.mesh import Scene
from repro.sim.driver import FrameRenderer
from repro.sim.replay import TraceReplayer
from repro.texture.texture import TextureAllocator
from repro.workloads.recipe import BuiltWorkload, SceneRecipe


class TestEmptyAndDegenerateScenes:
    def test_empty_scene_renders(self):
        config = GPUConfig(screen_width=64, screen_height=64)
        workload = BuiltWorkload(
            scene=Scene(name="empty"), allocator=TextureAllocator()
        )
        # An empty scene still needs one texture slot for the allocator.
        trace, _ = FrameRenderer(config).render(workload)
        assert trace.total_quads == 0
        assert trace.stats.num_primitives == 0

    def test_empty_trace_replays(self):
        config = GPUConfig(screen_width=64, screen_height=64)
        workload = BuiltWorkload(
            scene=Scene(name="empty"), allocator=TextureAllocator()
        )
        trace, _ = FrameRenderer(config).render(workload)
        result = TraceReplayer(config).run(trace, BASELINE)
        assert result.total_quads == 0
        assert result.l1_accesses == 0
        # The pipeline still walks (and flushes) every tile.
        assert result.frame_cycles > 0
        assert result.framebuffer_write_lines > 0

    def test_empty_trace_decoupled(self):
        config = GPUConfig(screen_width=64, screen_height=64)
        workload = BuiltWorkload(
            scene=Scene(name="empty"), allocator=TextureAllocator()
        )
        trace, _ = FrameRenderer(config).render(workload)
        result = TraceReplayer(config).run(trace, DTEXL_BEST)
        assert result.total_quads == 0


class TestOddScreenShapes:
    @pytest.mark.parametrize(
        "width,height", [(32, 32), (96, 32), (32, 96), (160, 64)]
    )
    def test_various_grids_render_and_replay(self, width, height):
        config = GPUConfig(screen_width=width, screen_height=height)
        recipe = SceneRecipe(
            name="edge", seed=13, is_3d=False, texture_budget_mib=0.2,
            depth_complexity=1.0, sprite_size=(0.3, 0.6),
        )
        trace, _ = FrameRenderer(config).render(recipe.build(config))
        assert trace.total_quads > 0
        base = TraceReplayer(config).run(trace, BASELINE)
        dtexl = TraceReplayer(config).run(trace, DTEXL_BEST)
        assert base.total_quads == dtexl.total_quads

    def test_non_multiple_screen_clips_correctly(self):
        """A 48x48 screen has partial edge tiles; no quad may exceed it."""
        config = GPUConfig(screen_width=48, screen_height=48)
        recipe = SceneRecipe(
            name="clip", seed=14, is_3d=False, texture_budget_mib=0.2,
            depth_complexity=1.0,
        )
        trace, _ = FrameRenderer(config).render(recipe.build(config))
        assert trace.stats.pixels_shaded <= 48 * 48 * 10
        for tile, entry in trace.tiles.items():
            for quad in entry.quads:
                px = tile[0] * 32 + quad.qx * 2
                py = tile[1] * 32 + quad.qy * 2
                assert px < 48 and py < 48

    def test_single_tile_screen(self):
        config = GPUConfig(screen_width=32, screen_height=32)
        assert config.num_tiles == 1
        scheduler = DTEXL_BEST.build_scheduler(config)
        assert scheduler.tiles == [(0, 0)]
        assert scheduler.permutation_at(0) == (0, 1, 2, 3)


class TestSingleCoreConfigs:
    def test_two_core_config_replays(self):
        """Core counts other than 4 still work (slots fold via modulo)."""
        config = GPUConfig(
            screen_width=64, screen_height=64, num_shader_cores=2
        )
        recipe = SceneRecipe(
            name="two", seed=15, is_3d=False, texture_budget_mib=0.2,
            depth_complexity=1.0,
        )
        trace, _ = FrameRenderer(config).render(recipe.build(config))
        result = TraceReplayer(config).run(trace, BASELINE)
        assert len(result.timing.sc_busy_cycles) == 2
        assert result.total_quads == trace.total_quads

    def test_eight_core_config_replays(self):
        config = GPUConfig(
            screen_width=64, screen_height=64, num_shader_cores=8
        )
        recipe = SceneRecipe(
            name="eight", seed=15, is_3d=False, texture_budget_mib=0.2,
            depth_complexity=1.0,
        )
        trace, _ = FrameRenderer(config).render(recipe.build(config))
        result = TraceReplayer(config).run(trace, BASELINE)
        assert len(result.timing.sc_busy_cycles) == 8
        # Slots 0..3 fold onto cores 0..3; cores 4..7 stay idle.
        assert sum(
            1 for counts in result.per_tile_quad_counts
            for core, n in enumerate(counts) if core >= 4 and n > 0
        ) == 0


class TestTextureEdgeCases:
    def test_one_by_one_texture(self):
        from repro.texture.texture import Texture

        texture = Texture(0, 1, 1, base_address=1 << 28)
        assert texture.num_mip_levels == 1
        assert texture.texel_line(0, 0) == (1 << 28) // 64

    def test_extreme_aspect_texture(self):
        from repro.texture.texture import Texture

        texture = Texture(0, 512, 2, base_address=1 << 28)
        seen = set()
        for y in range(2):
            for x in range(512):
                addr = texture.texel_address(x, y, 0)
                assert addr not in seen
                seen.add(addr)

    def test_sampling_at_uv_boundaries(self):
        from repro.texture.sampler import Sampler
        from repro.texture.texture import Texture

        texture = Texture(0, 64, 64, base_address=1 << 28)
        sampler = Sampler()
        for uv in [(0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (-0.25, 2.5)]:
            footprint = sampler.footprint(texture, *uv)
            assert len(footprint.lines) >= 1
