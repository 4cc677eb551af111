"""Tests for the rasterizer: coverage, Early-Z interaction, footprints."""

import pytest

from repro.config import GPUConfig
from repro.geometry.mesh import ShaderProgram
from repro.geometry.primitive_assembly import Primitive
from repro.geometry.vec import Vec2, Vec3, Vec4
from repro.geometry.vertex_stage import TransformedVertex
from repro.raster.rasterizer import Rasterizer
from repro.raster.setup import setup_primitive
from repro.raster.zbuffer import ZBuffer
from repro.texture.texture import Texture


@pytest.fixture
def config():
    return GPUConfig(screen_width=64, screen_height=64)  # one 2x2 tile grid


@pytest.fixture
def texture():
    return Texture(0, 128, 128, base_address=1 << 28)


def ndc_primitive(points, pid=0, depth=0.0, shader=None, uv_scale=1.0,
                  blend=False, depth_write=True):
    vertices = tuple(
        TransformedVertex(
            clip_position=Vec4(x, y, depth, 1.0),
            uv=Vec2((x + 1) / 2 * uv_scale, (1 - y) / 2 * uv_scale),
            color=Vec3(1, 1, 1),
        )
        for x, y in points
    )
    prim = Primitive(
        primitive_id=pid, vertices=vertices, texture_id=0,
        shader=shader or ShaderProgram(alu_cycles=10, texture_samples=1),
        blend=blend, depth_write=depth_write,
    )
    return prim


def full_screen(pid=0, depth=0.0, **kwargs):
    """Two NDC triangles covering the whole screen, as primitives."""
    return [
        ndc_primitive([(-1, 1), (1, 1), (-1, -1)], pid=pid, depth=depth, **kwargs),
        ndc_primitive([(1, 1), (1, -1), (-1, -1)], pid=pid, depth=depth, **kwargs),
    ]


def rasterize(config, texture, primitives, tile=(0, 0)):
    rasterizer = Rasterizer(config, {0: texture})
    zbuffer = ZBuffer(config.tile_size)
    screen = [
        setup_primitive(p, config.screen_width, config.screen_height)
        for p in primitives
    ]
    return rasterizer.rasterize_tile(tile, screen, zbuffer), rasterizer


class TestCoverage:
    def test_full_screen_covers_every_pixel_once(self, config, texture):
        quads, rasterizer = rasterize(config, texture, full_screen())
        assert rasterizer.pixels_shaded == config.tile_size ** 2
        covered = {(q.qx, q.qy) for q in quads}
        side = config.quads_per_tile_side
        assert len(covered) == side * side

    def test_quads_in_primitive_order(self, config, texture):
        prims = full_screen(pid=0) + full_screen(pid=1, depth=-0.5)
        quads, _ = rasterize(config, texture, prims)
        pids = [q.primitive_id for q in quads]
        assert pids == sorted(pids)

    def test_small_triangle_partial_quad_coverage(self, config, texture):
        # A triangle covering ~1 pixel at the tile origin.
        prim = ndc_primitive([(-1, 1), (-0.95, 1), (-1, 0.95)])
        quads, _ = rasterize(config, texture, [prim])
        assert len(quads) == 1
        assert quads[0].covered_pixels < 4

    def test_offscreen_triangle_produces_nothing(self, config, texture):
        prim = ndc_primitive([(2, 2), (3, 2), (2, 3)])
        quads, _ = rasterize(config, texture, [prim])
        assert quads == []

    def test_second_tile_region(self, config, texture):
        quads, _ = rasterize(config, texture, full_screen(), tile=(1, 1))
        assert len(quads) == config.quads_per_tile_side ** 2
        assert all(q.tile == (1, 1) for q in quads)


class TestEarlyZ:
    def test_occluded_layer_fully_culled(self, config, texture):
        near = full_screen(pid=0, depth=-0.5)   # closer (smaller z)
        far = full_screen(pid=1, depth=0.5)
        quads, _ = rasterize(config, texture, near + far)
        assert all(q.primitive_id == 0 for q in quads)

    def test_back_to_front_keeps_both_layers(self, config, texture):
        far = full_screen(pid=0, depth=0.5)
        near = full_screen(pid=1, depth=-0.5)
        quads, _ = rasterize(config, texture, far + near)
        pids = {q.primitive_id for q in quads}
        assert pids == {0, 1}

    def test_no_depth_write_does_not_occlude(self, config, texture):
        transparent = full_screen(pid=0, depth=-0.5, depth_write=False,
                                  blend=True)
        opaque = full_screen(pid=1, depth=0.5)
        quads, _ = rasterize(config, texture, transparent + opaque)
        assert {q.primitive_id for q in quads} == {0, 1}

    def test_blend_flag_propagates(self, config, texture):
        quads, _ = rasterize(
            config, texture, full_screen(blend=True, depth_write=False)
        )
        assert all(q.blend for q in quads)


class TestFootprints:
    def test_quads_carry_texture_lines(self, config, texture):
        quads, _ = rasterize(config, texture, full_screen())
        assert all(q.texture_lines for q in quads)
        for quad in quads:
            assert len(set(quad.texture_lines)) == len(quad.texture_lines)

    def test_zero_samples_no_lines(self, config, texture):
        shader = ShaderProgram(alu_cycles=5, texture_samples=0)
        quads, _ = rasterize(config, texture, full_screen(shader=shader))
        assert all(q.texture_lines == () for q in quads)

    def test_minified_texture_raises_lod(self, config, texture):
        """uv_scale 8: ~16 texels per pixel -> LOD ~4."""
        low, _ = rasterize(config, texture, full_screen(uv_scale=1.0))
        high, _ = rasterize(config, texture, full_screen(uv_scale=8.0))
        assert high[10].lod > low[10].lod

    def test_adjacent_quads_share_lines(self, config, texture):
        """The locality DTexL exploits: neighbouring quads overlap."""
        quads, _ = rasterize(config, texture, full_screen())
        by_pos = {(q.qx, q.qy): q for q in quads}
        shared = 0
        for (qx, qy), quad in by_pos.items():
            right = by_pos.get((qx + 1, qy))
            if right and set(quad.texture_lines) & set(right.texture_lines):
                shared += 1
        assert shared > len(by_pos) * 0.3

    def test_compute_cycles_include_texture_issues(self, config, texture):
        quads, _ = rasterize(config, texture, full_screen())
        q = quads[0]
        assert q.compute_cycles == q.alu_cycles + len(q.texture_lines)

    def test_missing_texture_tolerated(self, config):
        rasterizer = Rasterizer(config, {})
        zbuffer = ZBuffer(config.tile_size)
        prim = setup_primitive(
            full_screen()[0], config.screen_width, config.screen_height
        )
        quads = rasterizer.rasterize_tile((0, 0), [prim], zbuffer)
        assert quads
        assert all(q.texture_lines == () for q in quads)


class TestScreenEdges:
    def test_partial_edge_tile_clips_to_screen(self, texture):
        config = GPUConfig(screen_width=48, screen_height=48)
        quads, rasterizer = rasterize(config, texture, full_screen(),
                                      tile=(1, 1))
        # Tile (1,1) holds only a 16x16 valid region.
        assert rasterizer.pixels_shaded == 16 * 16
