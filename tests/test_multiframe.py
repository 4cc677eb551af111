"""Tests for animated multi-frame simulation with warm caches."""

import gc
import weakref

import pytest

from repro.config import GPUConfig
from repro.core.dtexl import BASELINE, DTEXL_BEST
from repro.sim.multiframe import AnimationResult, AnimationSimulator
from repro.workloads.animation import Animation
from repro.workloads.games import GAMES
from repro.workloads.recipe import SceneRecipe


@pytest.fixture(scope="module")
def config():
    return GPUConfig(screen_width=128, screen_height=64)


@pytest.fixture(scope="module")
def animation():
    recipe = SceneRecipe(
        name="anim", seed=11, is_3d=False, texture_budget_mib=0.3,
        depth_complexity=1.5, sprite_size=(0.2, 0.4), scroll=(0.05, 0.0),
    )
    return Animation(recipe=recipe, num_frames=3)


@pytest.fixture(scope="module")
def warm_result(config, animation):
    return AnimationSimulator(config).run(animation, BASELINE)


class TestAnimation:
    def test_frame_count(self, warm_result):
        assert len(warm_result.frames) == 3

    def test_frames_share_textures(self, animation, config):
        frames = [
            animation.recipe.build(config, frame=k)
            for k in range(animation.num_frames)
        ]
        first = frames[0].allocator.textures
        last = frames[-1].allocator.textures
        assert {t.base_address for t in first.values()} == {
            t.base_address for t in last.values()
        }

    def test_frames_differ_in_geometry(self, animation, config):
        frames = [animation.recipe.build(config, frame=k) for k in (0, 1)]
        v0 = frames[0].scene.draws[-1].mesh.vertices[0].position
        v1 = frames[1].scene.draws[-1].mesh.vertices[0].position
        assert v0 != v1

    def test_of_game(self):
        animation = Animation.of_game("SWa", num_frames=2)
        assert animation.recipe == GAMES["SWa"].recipe
        assert animation.num_frames == 2

    def test_of_unknown_game(self):
        with pytest.raises(KeyError):
            Animation.of_game("XYZ")

    def test_rejects_zero_frames(self):
        with pytest.raises(ValueError):
            Animation(recipe=SceneRecipe(
                name="x", seed=1, is_3d=False, texture_budget_mib=0.1,
            ), num_frames=0)


class TestWarmCaches:
    def test_per_frame_results(self, warm_result):
        assert len(warm_result.frames) == 3
        assert all(f.frame_cycles > 0 for f in warm_result.frames)

    def test_first_frame_is_coldest(self, warm_result):
        """Frame 0 misses more in DRAM than the warm frames."""
        cold = warm_result.frames[0].dram_accesses
        later = [f.dram_accesses for f in warm_result.frames[1:]]
        assert cold >= max(later)

    def test_warmup_ratio_at_least_one(self, warm_result):
        assert warm_result.warmup_ratio() >= 0.95

    def test_totals(self, warm_result):
        assert warm_result.total_cycles == sum(
            f.frame_cycles for f in warm_result.frames
        )
        assert warm_result.fps(600) > 0

    def test_cold_mode_repeats_cold_behaviour(self, config, animation):
        sim = AnimationSimulator(config)
        cold = sim.run(animation, BASELINE, cold_caches_each_frame=True)
        warm = sim.run(animation, BASELINE)
        # Cold-per-frame can never see fewer DRAM fills than warm replay.
        assert (
            sum(f.dram_accesses for f in cold.frames)
            >= sum(f.dram_accesses for f in warm.frames)
        )

    def test_dtexl_works_across_frames(self, config, animation):
        sim = AnimationSimulator(config)
        base = sim.run(animation, BASELINE)
        dtexl = sim.run(animation, DTEXL_BEST)
        assert dtexl.total_l2_accesses < base.total_l2_accesses


class TestFrameLifetime:
    def test_one_live_trace_per_frame(self, config, animation):
        """Frame k's trace is released before frame k+1 renders, so a
        warm-cache run holds one frame at a time."""
        simulator = AnimationSimulator(config)
        render = simulator.renderer.render
        traces = []
        live_at_render = []

        def tracked(workload, *args, **kwargs):
            gc.collect()
            live_at_render.append(sum(ref() is not None for ref in traces))
            trace, image = render(workload, *args, **kwargs)
            traces.append(weakref.ref(trace))
            return trace, image

        simulator.renderer.render = tracked
        simulator.run(animation, BASELINE)
        assert live_at_render == [0] * animation.num_frames


class TestFrameCoherenceStats:
    """Edge behaviour of the aggregate animation statistics."""

    def test_warmup_ratio_single_frame_is_neutral(self, warm_result):
        solo = AnimationResult(
            design_point="solo", frames=warm_result.frames[:1]
        )
        assert solo.warmup_ratio() == 1.0

    def test_warmup_ratio_matches_counters(self, warm_result):
        later = warm_result.frames[1:]
        steady = sum(f.l2_accesses for f in later) / len(later)
        expected = warm_result.frames[0].l2_accesses / steady
        assert warm_result.warmup_ratio() == pytest.approx(expected)

    def test_empty_result_fps_is_infinite(self):
        empty = AnimationResult(design_point="none")
        assert empty.fps(600) == float("inf")
        assert empty.total_cycles == 0
        assert empty.total_l2_accesses == 0

    def test_fps_scales_with_frequency(self, warm_result):
        assert warm_result.fps(1200) == pytest.approx(
            2.0 * warm_result.fps(600)
        )

