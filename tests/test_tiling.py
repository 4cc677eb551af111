"""Tests for the Tiling Engine: binning, Parameter Buffer, Tile Fetcher."""

import pytest

from repro.config import GPUConfig
from repro.geometry.mesh import ShaderProgram
from repro.geometry.primitive_assembly import Primitive
from repro.geometry.vec import Vec2, Vec3, Vec4
from repro.geometry.vertex_stage import TransformedVertex
from repro.raster.setup import setup_primitive
from repro.tiling.parameter_buffer import (
    ATTRIBUTE_RECORD_BYTES,
    ParameterBuffer,
)
from repro.tiling.polygon_list_builder import PolygonListBuilder
from repro.tiling.tile_fetcher import TileFetcher


@pytest.fixture
def config():
    return GPUConfig(screen_width=128, screen_height=64)  # 4x2 tiles


def screen_prim(config, pts, pid=0):
    vertices = tuple(
        TransformedVertex(
            clip_position=Vec4(
                x / config.screen_width * 2 - 1,
                1 - y / config.screen_height * 2,
                0.0, 1.0,
            ),
            uv=Vec2(0, 0), color=Vec3(1, 1, 1),
        )
        for x, y in pts
    )
    prim = Primitive(
        primitive_id=pid, vertices=vertices, texture_id=0,
        shader=ShaderProgram(),
    )
    return setup_primitive(prim, config.screen_width, config.screen_height)


def list_entries(buffer):
    """Tile-list entries over every tile of a Parameter Buffer."""
    return sum(len(entries) for entries in buffer.tile_lists.values())


class TestPolygonListBuilder:
    def test_small_triangle_bins_to_one_tile(self, config):
        prim = screen_prim(config, [(5, 5), (20, 5), (5, 20)])
        builder = PolygonListBuilder(config)
        buffer = builder.build([prim])
        assert set(buffer.tile_lists) == {(0, 0)}

    def test_spanning_triangle_bins_to_multiple_tiles(self, config):
        prim = screen_prim(config, [(5, 5), (120, 5), (5, 60)])
        builder = PolygonListBuilder(config)
        buffer = builder.build([prim])
        assert (0, 0) in buffer.tile_lists
        assert (3, 0) in buffer.tile_lists
        assert (0, 1) in buffer.tile_lists

    def test_diagonal_triangle_skips_far_corner_tile(self, config):
        """bbox covers all tiles, but the far corner is empty."""
        prim = screen_prim(config, [(0, 0), (127, 0), (0, 63)])
        builder = PolygonListBuilder(config)
        buffer = builder.build([prim])
        assert (3, 1) not in buffer.tile_lists

    def test_program_order_within_tile(self, config):
        prims = [
            screen_prim(config, [(5, 5), (20, 5), (5, 20)], pid=i)
            for i in range(3)
        ]
        buffer = PolygonListBuilder(config).build(prims)
        listed = [p.primitive_id for p in buffer.primitives_for_tile((0, 0))]
        assert listed == [0, 1, 2]

    def test_offscreen_primitive_not_binned(self, config):
        prim = screen_prim(config, [(-50, -50), (-10, -50), (-50, -10)])
        buffer = PolygonListBuilder(config).build([prim])
        assert buffer.tile_lists == {}

    def test_bin_entry_counters(self, config):
        prim = screen_prim(config, [(5, 5), (60, 5), (5, 40)])
        builder = PolygonListBuilder(config)
        buffer = builder.build([prim])
        assert builder.primitives_binned == 1
        assert builder.bin_entries == list_entries(buffer)


class TestParameterBuffer:
    def test_attributes_stored_once_per_primitive(self, config):
        prim = screen_prim(config, [(5, 5), (120, 5), (5, 60)])
        buffer = PolygonListBuilder(config).build([prim])
        assert {key[0] for key in buffer.primitives} == {prim.primitive_id}
        assert list_entries(buffer) >= 4

    def test_footprint_grows_with_list_entries(self, config):
        small = PolygonListBuilder(config).build(
            [screen_prim(config, [(5, 5), (10, 5), (5, 10)])]
        )
        large = PolygonListBuilder(config).build(
            [screen_prim(config, [(5, 5), (120, 5), (5, 60)])]
        )
        assert list_entries(large) > list_entries(small)

    def test_attribute_addresses_disjoint(self):
        buffer = ParameterBuffer()
        a = buffer.attribute_address(0)
        b = buffer.attribute_address(1)
        assert b - a == ATTRIBUTE_RECORD_BYTES

    def test_list_addresses_after_attributes(self, config):
        prim = screen_prim(config, [(5, 5), (20, 5), (5, 20)])
        buffer = PolygonListBuilder(config).build([prim])
        list_addr = buffer.list_entry_address((0, 0), 0)
        assert list_addr > buffer.attribute_address(0)

    def test_empty_tile_queries(self, config):
        buffer = PolygonListBuilder(config).build([])
        assert buffer.primitives_for_tile((0, 0)) == []
        assert buffer.tile_primitive_count((0, 0)) == 0


class TestTileFetcher:
    def test_fetch_lines_cover_list_and_attributes(self, config):
        prim = screen_prim(config, [(5, 5), (20, 5), (5, 20)])
        buffer = PolygonListBuilder(config).build([prim])
        lines = TileFetcher.fetch_lines(
            buffer, (0, 0), buffer.primitives_for_tile((0, 0))
        )
        assert len(lines) >= 2  # at least one list line + one attribute line

    def test_fetch_lines_empty_tile(self, config):
        buffer = PolygonListBuilder(config).build([])
        assert TileFetcher.fetch_lines(buffer, (0, 0), []) == []

    def test_fetch_cycles_scale_with_primitives(self, config):
        prims = [
            screen_prim(config, [(5, 5), (20, 5), (5, 20)], pid=i)
            for i in range(4)
        ]
        buffer = PolygonListBuilder(config).build(prims)
        fetcher = TileFetcher(config)
        assert fetcher.fetch_cycles(buffer, (0, 0)) == (
            4 * config.tile_fetcher_cycles_per_primitive
        )
        assert fetcher.fetch_cycles(buffer, (3, 1)) == 1
