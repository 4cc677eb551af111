"""Tests for the synthetic benchmark suite (Table I stand-ins)."""

import pytest

from repro.config import GPUConfig
from repro.workloads.games import GAMES, build_game, game_aliases
from repro.workloads.recipe import (
    MIB,
    SceneRecipe,
    chain_bytes,
    plan_texture_sides,
)
import random


@pytest.fixture(scope="module")
def config():
    return GPUConfig(screen_width=128, screen_height=64)


class TestTableOne:
    def test_ten_games(self):
        assert len(GAMES) == 10

    def test_table1_aliases(self):
        assert game_aliases() == [
            "CCS", "SoD", "TRu", "SWa", "CRa", "RoK", "DDS", "Snp", "Mze", "GTr",
        ]

    def test_table1_footprints_recorded(self):
        expected = {
            "CCS": 2.4, "SoD": 1.4, "TRu": 0.4, "SWa": 0.2, "CRa": 2.8,
            "RoK": 6.8, "DDS": 1.4, "Snp": 1.8, "Mze": 2.4, "GTr": 0.7,
        }
        for alias, footprint in expected.items():
            assert GAMES[alias].texture_footprint_mib == footprint

    def test_table1_types(self):
        assert GAMES["CCS"].scene_type == "2D"
        assert GAMES["RoK"].scene_type == "2D"
        assert all(
            GAMES[a].scene_type == "3D"
            for a in ["SoD", "TRu", "SWa", "CRa", "DDS", "Snp", "Mze", "GTr"]
        )

    def test_unknown_game_raises(self, config):
        with pytest.raises(KeyError):
            build_game("XYZ", config)


class TestTexturePlanning:
    def test_chain_bytes_about_four_thirds(self):
        assert chain_bytes(256) == int(256 * 256 * 4 * 4 / 3)

    def test_plan_hits_budget_roughly(self):
        rng = random.Random(1)
        sides = plan_texture_sides(int(2.0 * MIB), 6, rng)
        total = sum(chain_bytes(s) for s in sides)
        assert 0.5 * 2.0 * MIB <= total <= 1.2 * 2.0 * MIB

    def test_plan_rejects_zero_budget(self):
        with pytest.raises(ValueError):
            plan_texture_sides(0, 4, random.Random(0))

    def test_plan_returns_powers_of_two(self):
        sides = plan_texture_sides(MIB, 8, random.Random(2))
        assert all(s & (s - 1) == 0 for s in sides)
        assert all(32 <= s <= 1024 for s in sides)


@pytest.mark.parametrize("alias", game_aliases())
class TestEveryGameBuilds:
    def test_builds_with_content(self, alias, config):
        workload = build_game(alias, config)
        assert workload.scene.draws
        assert workload.textures

    def test_footprint_tracks_table1(self, alias, config):
        workload = build_game(alias, config)
        target = GAMES[alias].texture_footprint_mib * MIB
        actual = workload.texture_footprint_bytes
        assert 0.4 * target <= actual <= 1.3 * target

    def test_deterministic(self, alias, config):
        a = build_game(alias, config)
        b = build_game(alias, config)
        assert len(a.scene.draws) == len(b.scene.draws)
        va = a.scene.draws[0].mesh.vertices[0].position
        vb = b.scene.draws[0].mesh.vertices[0].position
        assert va == vb


class TestRecipeKnobs:
    def test_sprites_sample_several_textures(self, config):
        recipe = SceneRecipe(
            name="plain", seed=9, is_3d=False, texture_budget_mib=0.5,
            background=False, depth_complexity=1.5, max_textures=4,
        )
        workload = recipe.build(config)
        assert len({d.texture_id for d in workload.scene.draws}) > 1

    def test_sprite_count_scales_with_depth_complexity(self, config):
        base = SceneRecipe(
            name="a", seed=1, is_3d=False, texture_budget_mib=0.3,
            depth_complexity=1.0,
        )
        deep = SceneRecipe(
            name="b", seed=1, is_3d=False, texture_budget_mib=0.3,
            depth_complexity=4.0,
        )
        assert len(deep.build(config).scene.draws) > len(
            base.build(config).scene.draws
        )

    def test_blend_fraction_respected(self, config):
        recipe = SceneRecipe(
            name="blendy", seed=3, is_3d=False, texture_budget_mib=0.3,
            blend_fraction=1.0, background=False,
        )
        scene = recipe.build(config).scene
        assert all(d.blend for d in scene.draws)

    def test_no_background_option(self, config):
        with_bg = SceneRecipe(
            name="bg", seed=2, is_3d=False, texture_budget_mib=0.3,
        )
        without = SceneRecipe(
            name="nobg", seed=2, is_3d=False, texture_budget_mib=0.3,
            background=False,
        )
        assert len(with_bg.build(config).scene.draws) == (
            len(without.build(config).scene.draws) + 1
        )

    def test_3d_uses_perspective(self, config):
        recipe = SceneRecipe(
            name="p", seed=4, is_3d=True, texture_budget_mib=0.3,
        )
        scene = recipe.build(config).scene
        # Perspective projection has row 3 == [0, 0, -1, 0].
        assert scene.projection_matrix.rows[3] == (0.0, 0.0, -1.0, 0.0)

    def test_2d_uses_orthographic(self, config):
        recipe = SceneRecipe(
            name="o", seed=4, is_3d=False, texture_budget_mib=0.3,
        )
        scene = recipe.build(config).scene
        assert scene.projection_matrix.rows[3] == (0.0, 0.0, 0.0, 1.0)

    def test_horizontal_clustering_concentrates_rows(self, config):
        """Clustered scenes put most sprite centres in the gravity bands."""
        clustered = SceneRecipe(
            name="c", seed=5, is_3d=False, texture_budget_mib=0.3,
            horizontal_clustering=1.0, background=False,
            depth_complexity=4.0,
        )
        scene = clustered.build(config).scene
        heights = []
        for draw in scene.draws:
            ys = [v.position.y for v in draw.mesh.vertices]
            heights.append((min(ys) + max(ys)) / 2 / config.screen_height)
        bands = [0.25, 0.55, 0.8]
        near_band = sum(
            1 for h in heights if any(abs(h - b) < 0.15 for b in bands)
        )
        assert near_band > len(heights) * 0.8

