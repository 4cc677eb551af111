"""Differential tests for the fast render front-end.

The render analogue of ``test_fast_engine.py``: the batched pass-1
engine (``FrameRenderer(engine="fast")``) must produce traces
bit-identical to the scalar reference path — same ``trace_digest``,
same :class:`FrameTrace` dataclass equality (which includes the
:class:`RenderStats` counters) — over the whole game suite, over
randomized scene recipes and over adversarial hand-built meshes that
exercise clipping, culling and degenerate geometry.

A golden-digest table additionally pins the trace content itself: a
change that alters *both* engines in lockstep (and so passes the
differential tests) still fails here unless the goldens are
deliberately regenerated.
"""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.lint.sanitizer import trace_digest
from repro.config import GPUConfig
from repro.errors import ConfigError
from repro.geometry.mesh import (
    DrawCommand,
    Mesh,
    Scene,
    ShaderProgram,
    Vertex,
)
from repro.geometry.transform import orthographic, perspective
from repro.geometry.vec import Vec2, Vec3
from repro.raster.fragment import TileQuads
from repro.sim.checkpoint import tile_digest
from repro.sim.driver import DEFAULT_GROUP_TILES, ENGINES, FrameRenderer
from repro.texture.sampler import FilterMode, Sampler
from repro.texture.texture import TextureAllocator
from repro.workloads.games import build_game, game_aliases
from repro.workloads.recipe import BuiltWorkload, SceneRecipe

TINY = GPUConfig(screen_width=128, screen_height=64)

#: 8x3 tiles: one full raster chunk of ``DEFAULT_GROUP_TILES`` and a
#: partial one of 8, so chunk seams and a partial chunk are both hit.
MULTI = GPUConfig(screen_width=256, screen_height=96)

#: Golden fast-engine digests of every suite game at the tiny scale.
#: Regenerate deliberately (render at 128x64 and print ``trace_digest``)
#: when the trace format or the pipeline semantics change on purpose.
GOLDEN_DIGESTS = {
    "CCS": "fc651646ade518701d6872ced9145426a1a3e69768fe86da165022b5e47e8562",
    "SoD": "e001543455cafb6dc115d1987fb8f393d23bd712c779572292d0e60d3a3fcbca",
    "TRu": "b3d67870becf652c584d2495912af1a3e7d7aff5079724cb5f48786868df46ce",
    "SWa": "c857d8d55ea5b48a2b8b76fac740de31ee58333d8249031b4b04c29c9984b338",
    "CRa": "758382fd254b4f5812e5fb014cd97c350f9c15f88aea98eff5fa8d06517ec4ca",
    "RoK": "cbf73bc0a294f6ed0217cb3e500c2be234e36e651a1d6a72467f70e7e01d72be",
    "DDS": "175d90722c86af3c2d748828550340833b90dcd722f019c6a6ab751c5b9a8b59",
    "Snp": "8e8fa3a7e37200400d282ba2717e1010973a41da5b432116879515914bb06f6b",
    "Mze": "1f9bed25adbb12e452cbd4fecc99a3ff7f2e65712d4c55c776501c09d3a9be84",
    "GTr": "f4df89c618fd3a113300175e9e7a39c7485e02477aacc83b68f9fa1800023e1d",
}


def render_both(workload, config=TINY):
    """(fast trace, reference trace) for one workload."""
    fast, _ = FrameRenderer(config, engine="fast").render(workload)
    ref, _ = FrameRenderer(config, engine="reference").render(workload)
    return fast, ref


def view_digest(tile, entry):
    """``tile_digest``'s payload built from the ``Quad`` view instead."""
    payload = {
        "tile": list(tile),
        "fetch_lines": list(entry.fetch_lines),
        "fetch_cycles": entry.fetch_cycles,
        "quads": [
            [
                q.qx, q.qy, q.primitive_id, q.texture_id, list(q.coverage),
                q.alu_cycles, list(q.texture_lines), repr(q.lod), q.blend,
            ]
            for q in entry.quads
        ],
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def assert_columns_match_view(trace):
    """The stored columns and the on-demand ``Quad`` view agree."""
    for tile, entry in trace.tiles.items():
        assert TileQuads.from_quads(entry.quads) == entry.columns
        assert tile_digest(tile, entry) == view_digest(tile, entry)


def assert_traces_identical(fast, ref):
    """Digest AND dataclass equality — stats counters included."""
    assert trace_digest(fast) == trace_digest(ref)
    assert fast == ref
    assert_columns_match_view(fast)
    assert_columns_match_view(ref)


# -- the game suite ---------------------------------------------------------


class TestGameSuiteDifferential:
    @pytest.mark.parametrize("alias", game_aliases())
    def test_fast_matches_golden_digest(self, alias):
        workload = build_game(alias, TINY)
        trace, _ = FrameRenderer(TINY, engine="fast").render(workload)
        assert trace_digest(trace) == GOLDEN_DIGESTS[alias]

    @pytest.mark.parametrize("alias", ["CCS", "RoK", "GTr"])
    def test_fast_matches_reference(self, alias):
        """2D and 3D games, full trace equality."""
        fast, ref = render_both(build_game(alias, TINY))
        assert_traces_identical(fast, ref)

    @pytest.mark.parametrize("alias", game_aliases())
    def test_columns_match_quad_view(self, alias):
        """Both engines' columns round-trip through the ``Quad`` view."""
        fast, ref = render_both(build_game(alias, TINY))
        assert_columns_match_view(fast)
        assert_columns_match_view(ref)
        assert trace_digest(ref) == GOLDEN_DIGESTS[alias]

    def test_goldens_cover_every_game(self):
        assert sorted(GOLDEN_DIGESTS) == sorted(game_aliases())


# -- randomized scene recipes ----------------------------------------------


recipe_params = st.fixed_dictionaries(
    {
        "seed": st.integers(min_value=0, max_value=2**31 - 1),
        "is_3d": st.booleans(),
        "depth_complexity": st.floats(min_value=0.5, max_value=4.0),
        "blend_fraction": st.floats(min_value=0.0, max_value=1.0),
        "horizontal_clustering": st.floats(min_value=0.0, max_value=1.0),
        "texture_samples": st.integers(min_value=0, max_value=3),
    }
)


class TestRandomScenes:
    @given(params=recipe_params)
    @settings(max_examples=20, deadline=None)
    def test_random_recipe_fast_matches_reference(self, params):
        recipe = SceneRecipe(
            name="prop", texture_budget_mib=0.25, **params
        )
        workload = recipe.build(TINY)
        fast, ref = render_both(workload)
        assert_traces_identical(fast, ref)


# -- adversarial hand-built meshes -----------------------------------------


finite = st.floats(
    min_value=-4.0, max_value=4.0, allow_nan=False, allow_infinity=False
)
#: z spans the camera plane, so triangles straddle (and cross) the near
#: plane under the perspective projection — the scalar clip fallback.
depths = st.floats(
    min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False
)

vertex_strategy = st.builds(
    Vertex,
    position=st.builds(Vec3, finite, finite, depths),
    uv=st.builds(Vec2, finite, finite),
)

triangle_strategy = st.lists(vertex_strategy, min_size=3, max_size=3)

draw_flags = st.fixed_dictionaries(
    {
        "depth_write": st.booleans(),
        "blend": st.booleans(),
        "late_z": st.booleans(),
    }
)


def build_mesh_workload(triangles, flags_list, samples_list):
    """A scene of hand-built triangles under a perspective camera."""
    allocator = TextureAllocator()
    texture = allocator.create(32, 32, seed=3)
    scene = Scene(
        name="prop-mesh",
        projection_matrix=perspective(1.1, 2.0, 0.5, 10.0),
    )
    for triangle, flags, samples in zip(
        triangles, flags_list, samples_list
    ):
        mesh = Mesh(vertices=list(triangle), indices=[0, 1, 2])
        scene.add(
            DrawCommand(
                mesh=mesh,
                texture_id=texture.texture_id,
                shader=ShaderProgram(
                    alu_cycles=9, texture_samples=samples
                ),
                **flags,
            )
        )
    return BuiltWorkload(scene=scene, allocator=allocator)


class TestRandomMeshes:
    @given(
        triangles=st.lists(triangle_strategy, min_size=1, max_size=6),
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_meshes_fast_matches_reference(self, triangles, data):
        """Clipped, culled, degenerate and offscreen triangles agree.

        Depth coordinates straddle the near plane, so the batch takes
        every branch: trivially-kept rows, trivially-rejected rows and
        rows routed through the scalar Sutherland-Hodgman fallback.
        """
        flags_list = [
            data.draw(draw_flags, label=f"flags[{i}]")
            for i in range(len(triangles))
        ]
        samples_list = [
            data.draw(
                st.integers(min_value=0, max_value=2),
                label=f"samples[{i}]",
            )
            for i in range(len(triangles))
        ]
        workload = build_mesh_workload(triangles, flags_list, samples_list)
        fast, ref = render_both(workload)
        assert_traces_identical(fast, ref)

    def test_degenerate_and_behind_camera_triangles(self):
        """Deterministic worst cases: zero area, w <= 0, offscreen."""
        def tri(*pts):
            return [
                Vertex(position=Vec3(*p), uv=Vec2(0.0, 0.0)) for p in pts
            ]
        triangles = [
            tri((0.0, 0.0, -1.0), (0.0, 0.0, -1.0), (0.0, 0.0, -1.0)),
            tri((-1.0, -1.0, 2.0), (1.0, -1.0, 2.0), (0.0, 1.0, 2.0)),
            tri((-1.0, -1.0, -1.0), (1.0, -1.0, -1.0), (0.0, 1.0, 2.0)),
            tri((50.0, 50.0, -1.0), (51.0, 50.0, -1.0), (50.0, 51.0, -1.0)),
        ]
        n = len(triangles)
        flags = [
            {"depth_write": True, "blend": False, "late_z": False}
        ] * n
        workload = build_mesh_workload(triangles, flags, [1] * n)
        fast, ref = render_both(workload)
        assert_traces_identical(fast, ref)


# -- screens of more than one raster chunk ----------------------------------


def chunk_scene_workload():
    """Hand-built scene that packs the chunk edge cases into chunk 0.

    An orthographic camera maps world ``(x, y)`` to screen pixel
    ``(x + 128, y + 48)`` on :data:`MULTI`, and world ``z`` to depth
    ``(1 - z) / 2``.  In scanline order the first chunk holds tile rows
    0 and 1:

    - tile (1, 0) gets twelve overlapping triangles at mixed depths,
      with ``depth_write=False``, late-Z and blended draws among them;
    - tile (4, 1) gets only a triangle that is non-degenerate in NDC
      but collapses to one screen point, so its single binned row
      fails the clip-region test (zero screen area);
    - tile (6, 0) is bare;
    - one triangle spans tile rows 1 and 2, across the chunk seam.
    """
    allocator = TextureAllocator()
    texture = allocator.create(32, 32, seed=3)
    scene = Scene(
        name="chunk-edges",
        projection_matrix=orthographic(-128.0, 128.0, 48.0, -48.0),
    )

    def draw(points, **flags):
        mesh = Mesh(
            vertices=[
                Vertex(position=Vec3(x, y, z), uv=Vec2(x / 40.0, y / 40.0))
                for x, y, z in points
            ],
            indices=[0, 1, 2],
        )
        scene.add(DrawCommand(
            mesh=mesh,
            texture_id=texture.texture_id,
            shader=ShaderProgram(alu_cycles=9, texture_samples=1),
            **flags,
        ))

    for i in range(12):
        z = 0.6 - 0.1 * (i % 5)
        draw(
            [(-95.0 + i, -47.5 + 1.5 * i, z),
             (-64.5, -46.0 + i, z - 0.05),
             (-93.0 + 2.0 * i, -16.5, z + 0.05)],
            depth_write=i % 4 != 1,
            late_z=i % 4 == 2,
            blend=i % 4 == 3,
        )
    tiny = 1e-15
    draw([(0.0, 0.0, 0.0), (tiny, 0.0, 0.0), (0.0, tiny, 0.0)])
    draw([(40.0, -6.0, 0.2), (120.0, 44.0, 0.3), (45.0, 40.0, 0.1)])
    return BuiltWorkload(scene=scene, allocator=allocator)


class TestMultiChunk:
    def test_screen_spans_a_partial_chunk(self):
        tiles = MULTI.tiles_x * MULTI.tiles_y
        assert tiles > DEFAULT_GROUP_TILES
        assert tiles % DEFAULT_GROUP_TILES

    @pytest.mark.parametrize("alias", ["CCS", "RoK", "GTr"])
    def test_fast_matches_reference(self, alias):
        fast, ref = render_both(build_game(alias, MULTI), MULTI)
        assert_traces_identical(fast, ref)

    @given(params=recipe_params)
    @settings(max_examples=8, deadline=None)
    def test_random_recipe_fast_matches_reference(self, params):
        recipe = SceneRecipe(
            name="prop", texture_budget_mib=0.25, **params
        )
        fast, ref = render_both(recipe.build(MULTI), MULTI)
        assert_traces_identical(fast, ref)

    def test_chunk_edge_cases_match_reference(self):
        fast, ref = render_both(chunk_scene_workload(), MULTI)
        assert_traces_identical(fast, ref)
        tiles = fast.tiles
        per_primitive = MULTI.tile_fetcher_cycles_per_primitive
        # The scene exercises what it claims, all inside chunk 0.
        for tile in ((1, 0), (4, 1), (6, 0)):
            assert tile[1] * MULTI.tiles_x + tile[0] < DEFAULT_GROUP_TILES
        assert tiles[(1, 0)].fetch_cycles >= 10 * per_primitive
        assert len(tiles[(1, 0)].columns)
        assert tiles[(4, 1)].fetch_cycles == per_primitive
        assert not len(tiles[(4, 1)].columns)
        assert not tiles[(6, 0)].fetch_lines
        assert any(len(tiles[(x, 2)].columns) for x in range(MULTI.tiles_x))
        assert fast.stats.z_cull_rate > 0.0


# -- engine selection -------------------------------------------------------


class TestEngineSelection:
    def test_engines_tuple(self):
        assert ENGINES == ("fast", "reference")

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigError, match="unknown render engine"):
            FrameRenderer(TINY, engine="warp-speed")

    def test_default_engine_is_fast(self):
        assert FrameRenderer(TINY).engine == "fast"

    def test_with_image_falls_back_to_reference(self, tiny_workload):
        """Image output is reference-only; the trace must not change."""
        fast = FrameRenderer(TINY, engine="fast")
        with_image, image = fast.render(tiny_workload, with_image=True)
        without, none = fast.render(tiny_workload)
        assert image is not None and none is None
        assert_traces_identical(without, with_image)

    def test_non_bilinear_filter_falls_back(self, tiny_workload):
        """Trilinear sampling has no batch path; both engines agree."""
        sampler = Sampler(filter_mode=FilterMode.TRILINEAR)
        fast, _ = FrameRenderer(
            TINY, sampler=sampler, engine="fast"
        ).render(tiny_workload)
        ref, _ = FrameRenderer(
            TINY, sampler=sampler, engine="reference"
        ).render(tiny_workload)
        assert_traces_identical(fast, ref)
