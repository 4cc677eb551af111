"""Tests for the vectorized texture addressing / sampling fast path."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.raster.rasterizer import first_visit_mask
from repro.texture.sampler import FilterMode, Sampler, compute_lod
from repro.texture.texture import Texture


@pytest.fixture
def texture():
    return Texture(0, 128, 64, base_address=1 << 28)


class TestTexelLinesArray:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=-200, max_value=400),
                st.integers(min_value=-200, max_value=400),
                st.integers(min_value=0, max_value=7),
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_with_wrapping(self, points):
        texture = Texture(0, 128, 64, base_address=1 << 28)
        xs = np.array([p[0] for p in points])
        ys = np.array([p[1] for p in points])
        levels = np.array([min(p[2], texture.max_lod) for p in points])
        batch = texture.texel_lines_array(xs, ys, levels)
        for i, (x, y, lod) in enumerate(points):
            lod = min(lod, texture.max_lod)
            assert int(batch[i]) == texture.texel_line(x, y, lod)

    def test_tall_texture(self):
        texture = Texture(0, 16, 128, base_address=1 << 28)
        xs = np.arange(16)
        ys = np.arange(16) * 7 % 128
        levels = np.zeros(16, dtype=np.int64)
        batch = texture.texel_lines_array(xs, ys, levels)
        for i in range(16):
            assert int(batch[i]) == texture.texel_line(int(xs[i]), int(ys[i]), 0)


class TestBilinearBatch:
    def test_matches_scalar_footprint(self, texture):
        sampler = Sampler(FilterMode.BILINEAR)
        rng = np.random.default_rng(3)
        u = rng.random((5, 7))
        v = rng.random((5, 7))
        level = rng.integers(0, texture.max_lod + 1, size=(5, 7))
        batch = sampler.bilinear_lines_batch(texture, u, v, level)
        assert batch.shape == (5, 7, 4)
        for i in range(5):
            for j in range(7):
                scalar = sampler.footprint(
                    texture, u[i, j], v[i, j], float(level[i, j])
                )
                assert set(batch[i, j].tolist()) == set(scalar.lines)

    def test_rejects_non_bilinear(self, texture):
        sampler = Sampler(FilterMode.TRILINEAR)
        with pytest.raises(ValueError):
            sampler.bilinear_lines_batch(
                texture, np.zeros(1), np.zeros(1), np.zeros(1, dtype=int)
            )


def scalar_visits(texture, u, v, level):
    """Cache lines of one bilinear sample's 2x2 texels, in visit order.

    The scalar walk spelled out: texel centres at half-integers,
    neighbours (0,0), (1,0), (0,1), (1,1), repeat wrapping and the
    address layout of ``Texture.texel_line``; duplicates kept.
    """
    mip = texture.level(level)
    x0 = math.floor(u * mip.width - 0.5)
    y0 = math.floor(v * mip.height - 0.5)
    return [
        texture.texel_line(x0 + dx, y0 + dy, level)
        for dy in (0, 1) for dx in (0, 1)
    ]


lane_offsets = st.lists(
    st.floats(min_value=-1.0, max_value=1.0), min_size=8, max_size=8
)
quad_strategy = st.tuples(
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-3.0, max_value=3.0),
    st.integers(min_value=-12, max_value=3),
    lane_offsets,
)


class TestQuadFootprintsBatch:
    """The separable fast footprint against the scalar texel walk.

    Square, wide and tall textures down to the 1x1 tail of the mip
    chain, where levels below a 4x4 block share one cache line and the
    level byte offsets stop being 64-byte aligned; lane UVs outside
    [0, 1], so addresses wrap; every LOD up to ``max_lod`` (each example
    adds one quad far past it and one at LOD 0); 1-3 samples.
    """

    @pytest.mark.parametrize("shape", ["square", "wide", "tall"])
    @given(
        short=st.integers(min_value=0, max_value=5),
        extra=st.integers(min_value=1, max_value=3),
        base=st.sampled_from([0, 1 << 28, (1 << 28) + 4 * 37]),
        samples=st.integers(min_value=1, max_value=3),
        quads=st.lists(quad_strategy, min_size=1, max_size=12),
    )
    @settings(max_examples=25, deadline=None)
    def test_columns_match_scalar_visits(
        self, shape, short, extra, base, samples, quads
    ):
        width = height = 1 << short
        if shape == "wide":
            width <<= extra
        elif shape == "tall":
            height <<= extra
        texture = Texture(0, width, height, base_address=base)
        quads = quads + [
            (0.25, 0.75, 4, [1.0, -1.0] * 4),
            (0.5, 0.5, -12, [0.0] * 8),
        ]
        lane_u = np.array(
            [[u + (2.0 ** e) * off[lane] for u, _, e, off in quads]
             for lane in range(4)]
        )
        lane_v = np.array(
            [[v + (2.0 ** e) * off[4 + lane] for _, v, e, off in quads]
             for lane in range(4)]
        )
        sampler = Sampler()
        lods, lines = sampler.quad_footprints_batch(
            texture, lane_u, lane_v, samples
        )
        assert lines.shape == (16 * samples, len(quads))
        assert int(min(lods[-2], texture.max_lod)) == texture.max_lod
        assert lods[-1] == 0.0
        first = first_visit_mask(lines)
        for q in range(len(quads)):
            u, v = lane_u[:, q], lane_v[:, q]
            assert lods[q] == pytest.approx(compute_lod(
                u[1] - u[0], v[1] - v[0], u[2] - u[0], v[2] - v[0],
                width, height,
            ))
            level = int(min(lods[q], texture.max_lod))
            expected = []
            for lane in range(4):
                for sample in range(samples):
                    scale = float(sample + 1)
                    visits = scalar_visits(
                        texture, u[lane] * scale, v[lane] * scale, level
                    )
                    footprint = sampler.footprint(
                        texture, u[lane] * scale, v[lane] * scale, lods[q]
                    )
                    assert footprint.lines == tuple(dict.fromkeys(visits))
                    expected.extend(visits)
            column = lines[:, q].tolist()
            assert column == expected
            assert lines[first[:, q], q].tolist() == list(
                dict.fromkeys(column)
            )


class TestFirstVisitMask:
    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=4),
                     min_size=5, max_size=5),
            min_size=1, max_size=20,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_survivors_are_dict_fromkeys_order(self, rows):
        lines = np.array(rows, dtype=np.int64)
        first = first_visit_mask(lines)
        for q in range(lines.shape[1]):
            column = lines[:, q].tolist()
            assert lines[first[:, q], q].tolist() == list(
                dict.fromkeys(column)
            )


class TestRasterizerFastPath:
    def test_batch_equals_scalar_end_to_end(self):
        """The reference rasterizer's vectorized bilinear footprints
        match its scalar per-lane path over a whole frame: the same
        cache lines, and LODs within one ulp (the scalar path's
        ``math.hypot``/``math.log2`` may round the last bit differently
        from numpy's)."""
        from repro.config import GPUConfig
        from repro.raster import rasterizer as rmod
        from repro.sim.driver import FrameRenderer
        from repro.workloads.recipe import SceneRecipe

        config = GPUConfig(screen_width=128, screen_height=64)
        recipe = SceneRecipe(
            name="fastpath", seed=21, is_3d=True, texture_budget_mib=0.3,
            depth_complexity=1.5,
        )
        workload = recipe.build(config)
        batch, _ = FrameRenderer(config, engine="reference").render(workload)

        original = rmod.Rasterizer._batch_footprints
        rmod.Rasterizer._batch_footprints = (
            lambda self, u, v, blocks, texture, samples: [
                self._quad_texture_footprint(u, v, bx, by, texture, samples)
                for bx, by in blocks
            ]
        )
        try:
            scalar, _ = FrameRenderer(config, engine="reference").render(
                workload
            )
        finally:
            rmod.Rasterizer._batch_footprints = original

        assert batch.total_quads == scalar.total_quads > 0
        assert batch.tiles.keys() == scalar.tiles.keys()
        for tile in batch.tiles:
            ours, theirs = batch.tiles[tile].quads, scalar.tiles[tile].quads
            assert len(ours) == len(theirs)
            for a, b in zip(ours, theirs):
                assert a.texture_lines == b.texture_lines
                assert abs(a.lod - b.lod) <= math.ulp(max(a.lod, b.lod))

    def test_trilinear_still_works(self):
        """Non-bilinear modes use the scalar fallback transparently."""
        from repro.config import GPUConfig
        from repro.sim.driver import FrameRenderer
        from repro.workloads.recipe import SceneRecipe

        config = GPUConfig(screen_width=64, screen_height=64)
        recipe = SceneRecipe(
            name="tri", seed=5, is_3d=False, texture_budget_mib=0.2,
            depth_complexity=1.0,
        )
        trace, _ = FrameRenderer(
            config, Sampler(FilterMode.TRILINEAR)
        ).render(recipe.build(config))
        assert trace.total_quads > 0
        assert trace.total_texture_lines > 0
