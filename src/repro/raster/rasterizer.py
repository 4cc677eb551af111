"""The Rasterizer: primitives -> covered quads, through Early-Z.

"The Rasterizer takes each primitive from the FIFO queue and identifies
which pixels of the current tile are overlapped by the primitive...  The
fragments of every four adjacent pixels are grouped to form a quad."

The reference implementation is vectorized per (primitive, tile):
barycentric weights, coverage, depth and perspective-correct UVs are
evaluated with numpy over the primitive's quad-aligned bounding box
inside the tile, then surviving 2x2 blocks are emitted as
:class:`~repro.raster.fragment.Quad` records carrying their texture
cache-line footprints.  The fast path (:meth:`Rasterizer.rasterize_tile_fast`
and :meth:`Rasterizer.finalize_quads_fast`) does the same for a chunk
of tiles at once and emits :class:`~repro.raster.fragment.TileQuads`
columns.

UV derivatives are taken across each quad's 2x2 lanes — including helper
lanes outside the triangle — exactly as real GPU quads compute mip LOD.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import GPUConfig
from repro.core.tile_order import TileCoord
from repro.raster.blending import BlendingUnit
from repro.raster.color_buffer import ColorBuffer
from repro.raster.fragment import Quad, TileQuads
from repro.raster.interpolation import barycentric_grid, interpolate_uv_grid
from repro.raster.setup import ScreenBatch, ScreenPrimitive
from repro.raster.zbuffer import ZBuffer
from repro.texture.sampler import FilterMode, Sampler, compute_lod
from repro.texture.texture import Texture

_COVERAGE_WEIGHTS = np.array([8, 4, 2, 1], dtype=np.int64)


@dataclass
class PendingTileQuads:
    """One chunk's rasterized quads awaiting batched footprint assembly.

    Everything the final :class:`TileQuads` columns need except the
    texture footprints, which are computed per (texture, samples) group
    by :meth:`Rasterizer.finalize_quads_fast`.  Quads are in chunk
    stream order (tile, then primitive, then 2x2 block row-major), and
    ``tiles[i]`` owns the next ``quad_counts[i]`` of them.  The lane
    UVs are lane-major ``(4, Q)``: row ``k`` is lane ``k`` of every
    quad, in footprint order ``(0,0), (1,0), (0,1), (1,1)``.
    """

    tiles: Sequence[TileCoord]
    quad_counts: np.ndarray
    qx: np.ndarray
    qy: np.ndarray
    prim_row: np.ndarray
    coverage_code: np.ndarray
    covered: int
    lane_u: np.ndarray
    lane_v: np.ndarray


def first_visit_mask(lines: np.ndarray) -> np.ndarray:
    """Column-wise first-visit mask of an ``(N, Q)`` cache-line matrix.

    Entry ``(j, q)`` survives when no earlier row holds the same line
    for quad ``q``: per column, exactly the entries ``dict.fromkeys``
    keeps, and a column's survivors read top to bottom are in its
    order.
    """
    first = np.ones(lines.shape, dtype=bool)
    for j in range(1, len(lines)):
        np.all(lines[:j] != lines[j], axis=0, out=first[j])
    return first


class Rasterizer:
    """Rasterizes the primitives of one tile at a time."""

    def __init__(
        self,
        config: GPUConfig,
        textures: Dict[int, Texture],
        sampler: Optional[Sampler] = None,
    ):
        self.config = config
        self.textures = textures
        self.sampler = sampler or Sampler()
        self.quads_emitted = 0
        self.pixels_shaded = 0

    # -- public API -------------------------------------------------------------

    def rasterize_tile(
        self,
        tile: TileCoord,
        primitives: List[ScreenPrimitive],
        zbuffer: ZBuffer,
        color_buffer: Optional[ColorBuffer] = None,
        blender: Optional[BlendingUnit] = None,
    ) -> List[Quad]:
        """Produce the tile's shaded-quad stream in primitive order.

        ``zbuffer`` must be cleared by the caller before the first
        primitive of the tile.  When ``color_buffer`` is given, final
        pixel colors are also computed (image output mode).
        """
        quads: List[Quad] = []
        for primitive in primitives:
            quads.extend(
                self._rasterize_primitive(
                    tile, primitive, zbuffer, color_buffer, blender
                )
            )
        return quads

    def rasterize_tile_fast(
        self,
        tiles: Sequence[TileCoord],
        batch: ScreenBatch,
        rows: Sequence[np.ndarray],
        zbuffer: ZBuffer,
    ) -> Optional[PendingTileQuads]:
        """Whole-tile rasterization of a chunk of tiles at once.

        ``rows[i]`` is tile ``tiles[i]``'s binned primitive rows.  Every
        (tile, primitive) pair lies on one axis and is evaluated over
        its own tile's full pixel grid: the three edge functions, depth
        and perspective UVs in one shot.  Early-Z is a per-tile
        exclusive running minimum over the pair axis (depth updates are
        order-independent ``min`` folds, so the sequential
        per-primitive test collapses exactly), taken one primitive rank
        at a time, and covered 2x2 quads are extracted vectorized.
        Bit-identical to running :meth:`rasterize_tile` over each
        tile's primitive list: every arithmetic expression reproduces
        the scalar path's association order, the full-grid evaluation
        only adds pixels the per-region masks switch off, and the quad
        emission order (tile, primitive, then block row-major) is
        ``np.nonzero``'s C order.

        ``zbuffer`` only accumulates the ``tests``/``passes`` counters
        (the depth state lives in the running minimum here).  Returns
        ``None`` when the chunk shades no quad.
        """
        config = self.config
        ts = config.tile_size
        n_tiles = len(tiles)
        # (tile, primitive) pairs, tile-major, each tile's primitives in
        # binned stream order.
        pair_tile = np.repeat(np.arange(n_tiles), [len(r) for r in rows])
        if not len(pair_tile):
            return None
        pair_row = np.concatenate(rows)
        origin = np.array(tiles, dtype=np.int64).reshape(n_tiles, 2) * ts
        tile_x0 = origin[pair_tile, 0]
        tile_y0 = origin[pair_tile, 1]

        # Quad-aligned clip region per pair (the scalar
        # _tile_clip_region, vectorized; floats first so huge
        # coordinates cannot overflow the int cast — any such row is
        # empty or clamped to the tile bound before casting).
        vx = batch.x[pair_row]
        vy = batch.y[pair_row]
        fx0 = np.maximum(tile_x0, np.floor(np.min(vx, axis=1)))
        fy0 = np.maximum(tile_y0, np.floor(np.min(vy, axis=1)))
        fx1 = np.minimum(
            np.minimum(tile_x0 + ts, config.screen_width),
            np.ceil(np.max(vx, axis=1)) + 1.0,
        )
        fy1 = np.minimum(
            np.minimum(tile_y0 + ts, config.screen_height),
            np.ceil(np.max(vy, axis=1)) + 1.0,
        )
        valid = (fx0 < fx1) & (fy0 < fy1) & (batch.area2[pair_row] != 0.0)
        if not valid.all():
            pair_row = pair_row[valid]
            if not len(pair_row):
                return None
            pair_tile = pair_tile[valid]
            tile_x0, tile_y0 = tile_x0[valid], tile_y0[valid]
            fx0, fy0 = fx0[valid], fy0[valid]
            fx1, fy1 = fx1[valid], fy1[valid]
            vx, vy = vx[valid], vy[valid]
        x0 = fx0.astype(np.int64)
        y0 = fy0.astype(np.int64)
        x1 = fx1.astype(np.int64)
        y1 = fy1.astype(np.int64)
        x0 -= (x0 - tile_x0) % 2
        y0 -= (y0 - tile_y0) % 2
        x1 += (x1 - tile_x0) % 2
        y1 += (y1 - tile_y0) % 2
        x1 = np.minimum(x1, tile_x0 + ts)
        y1 = np.minimum(y1, tile_y0 + ts)

        # Pixel-centre grids over each pair's whole tile; the scalar
        # path's region grid is the same values restricted to the
        # region.
        offset = np.arange(ts, dtype=np.int64)
        col = tile_x0[:, None] + offset
        row_pix = tile_y0[:, None] + offset
        px = (col + 0.5)[:, None, :]
        py = (row_pix + 0.5)[:, :, None]

        area2 = batch.area2[pair_row][:, None, None]
        ax, bx, cx = (
            vx[:, 0][:, None, None], vx[:, 1][:, None, None],
            vx[:, 2][:, None, None],
        )
        ay, by, cy = (
            vy[:, 0][:, None, None], vy[:, 1][:, None, None],
            vy[:, 2][:, None, None],
        )
        w0, w1, w2 = barycentric_grid(ax, ay, bx, by, cx, cy, area2, px, py)
        inside = (w0 >= 0.0) & (w1 >= 0.0) & (w2 >= 0.0)

        # Region rect + screen clip (the scalar path only applies the
        # screen clip on overhang, but it is a no-op elsewhere).
        colm = (col >= x0[:, None]) & (col < x1[:, None])
        rowm = (row_pix >= y0[:, None]) & (row_pix < y1[:, None])
        colm &= col < config.screen_width
        rowm &= row_pix < config.screen_height
        inside &= rowm[:, :, None]
        inside &= colm[:, None, :]

        # Depth, folded into the weight grids' own buffers (the scalar
        # sum of products, in its order).  The weights are recomputed
        # at the emitted quads' lanes below, so no more than three
        # float grids, each scaling with the chunk's pairs, are alive
        # at once.
        vz = batch.z[pair_row]
        w0 *= vz[:, 0][:, None, None]
        w1 *= vz[:, 1][:, None, None]
        w0 += w1
        w2 *= vz[:, 2][:, None, None]
        w0 += w2
        z = w0
        del w0, w1, w2
        inside &= (z >= 0.0) & (z <= 1.0)

        # Early-Z.  The scalar depth update is an elementwise min fold
        # over a tile's primitives, so "depth before primitive k" is an
        # exclusive running minimum of the depth-write contributions.
        # Each step takes the pairs of one rank within their tile (at
        # most one per tile) against one running depth buffer per tile;
        # working per step keeps z the chunk's one live float grid.
        writes = inside & batch.depth_write[pair_row][:, None, None]
        per_tile = np.bincount(pair_tile, minlength=n_tiles)
        rank = np.arange(len(pair_tile)) - (
            np.cumsum(per_tile) - per_tile
        )[pair_tile]
        running = np.full((n_tiles, ts, ts), np.inf)
        tested = np.empty_like(inside)
        for step in range(int(per_tile.max())):
            at = np.flatnonzero(rank == step)
            owner = pair_tile[at]
            depth = running[owner]
            step_z = z[at]
            tested[at] = inside[at] & (step_z < depth)
            running[owner] = np.minimum(
                depth, np.where(writes[at], step_z, np.inf)
            )
        del z, writes
        zbuffer.tests += int(inside.sum())
        zbuffer.passes += int(tested.sum())
        passed = np.where(
            batch.late_z[pair_row][:, None, None], inside, tested
        )

        # 2x2 block reduction over every pair at once (a block is
        # covered when any of its four lanes is); nonzero's C order is
        # the scalar (tile, primitive, by, bx) emission order.
        half = ts // 2
        block = passed.reshape(-1, half, 2, half, 2)
        kidx, qy, qx = np.nonzero(
            block[:, :, 0, :, 0] | block[:, :, 0, :, 1]
            | block[:, :, 1, :, 0] | block[:, :, 1, :, 1]
        )
        if not len(kidx):
            return None
        # Each quad's four lanes by flat pixel index, lane-major, in
        # footprint order (0,0),(1,0),(0,1),(1,1).  Region clamps never
        # bind (regions are even-sized), so the lanes are exactly the
        # block.
        corner = kidx * (ts * ts) + qy * (2 * ts) + qx * 2
        lane_index = corner + np.array([0, 1, ts, ts + 1])[:, None]
        lanes = passed.ravel()[lane_index]
        codes = _COVERAGE_WEIGHTS @ lanes

        # Perspective UVs only at the emitted quads' lanes: the
        # barycentric weights at the lanes' pixel centres, then the
        # scalar interpolation expressions.  Same inputs, same
        # operations — bit-identical to interpolating the whole grid.
        prim = pair_row[kidx]
        qvx = batch.x[prim]
        qvy = batch.y[prim]
        lw0, lw1, lw2 = barycentric_grid(
            qvx[:, 0], qvy[:, 0], qvx[:, 1], qvy[:, 1], qvx[:, 2], qvy[:, 2],
            batch.area2[prim],
            tile_x0[kidx] + 2 * qx + np.array([0, 1, 0, 1])[:, None] + 0.5,
            tile_y0[kidx] + 2 * qy + np.array([0, 0, 1, 1])[:, None] + 0.5,
        )
        vw = batch.inv_w[prim]
        uw = batch.u_over_w[prim]
        vvw = batch.v_over_w[prim]
        lane_u, lane_v = interpolate_uv_grid(
            lw0, lw1, lw2,
            vw[:, 0], vw[:, 1], vw[:, 2],
            uw[:, 0], uw[:, 1], uw[:, 2],
            vvw[:, 0], vvw[:, 1], vvw[:, 2],
        )
        return PendingTileQuads(
            tiles=tiles,
            quad_counts=np.bincount(pair_tile[kidx], minlength=n_tiles),
            qx=qx,
            qy=qy,
            prim_row=prim,
            coverage_code=codes,
            covered=int(lanes.sum()),
            lane_u=lane_u,
            lane_v=lane_v,
        )

    def finalize_quads_fast(
        self, batch: ScreenBatch, pending: PendingTileQuads
    ) -> Dict[TileCoord, TileQuads]:
        """Footprint batching + columnar quad emission for one chunk.

        The chunk's quads are grouped by (texture, samples) so the
        mip-LOD and cache-line math runs in a handful of vectorized
        calls; each group's ``(N, Q)`` cache-line matrix is deduped
        column by column in first-visit order (:func:`first_visit_mask`)
        and scattered into one CSR line array.  Each tile's
        :class:`TileQuads` is then a set of slices of the chunk's
        columns, in the tile's emission order.
        """
        rows_all = pending.prim_row
        lane_u = pending.lane_u
        lane_v = pending.lane_v
        tex_ids = batch.texture_id[rows_all]
        samples = batch.texture_samples[rows_all]
        total = len(rows_all)
        lods = np.zeros(total, dtype=np.float64)
        counts = np.zeros(total, dtype=np.int64)
        owners: List[np.ndarray] = []
        survivors: List[np.ndarray] = []
        # One flat loop over (texture, samples) groups: the pairing key
        # is unique because samples lies in [0, stride).
        stride = int(samples.max(initial=0)) + 1
        group_key = tex_ids * stride + samples
        textures_get = self.textures.get
        footprints_batch = self.sampler.quad_footprints_batch
        for key in np.unique(group_key).tolist():
            count = key % stride
            texture = textures_get(key // stride)
            if texture is None or count == 0:
                continue
            idx = np.flatnonzero(group_key == key)
            group_lods, group_lines = footprints_batch(
                texture, lane_u[:, idx], lane_v[:, idx], count
            )
            lods[idx] = group_lods
            first = first_visit_mask(group_lines)
            group_counts = first.sum(axis=0)
            counts[idx] = group_counts
            owners.append(np.repeat(idx, group_counts))
            # Column-major read-out: quad by quad, each in visit order.
            survivors.append(group_lines.T[first.T])

        # CSR over the chunk.  Each group's survivors are quad-major
        # with quads in stream order, and groups partition the quads,
        # so a stable sort by owning quad yields stream order; a single
        # group is in stream order already.
        offsets = np.zeros(total + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        if len(survivors) == 1:
            flat = survivors[0]
        elif survivors:
            order = np.argsort(np.concatenate(owners), kind="stable")
            flat = np.concatenate(survivors)[order]
        else:
            flat = np.zeros(0, dtype=np.int64)

        qx, qy, codes = pending.qx, pending.qy, pending.coverage_code
        pids = batch.pid[rows_all]
        alu = batch.alu_cycles[rows_all]
        blend = batch.blend[rows_all]
        tiles = pending.tiles
        quad_bounds = np.zeros(len(tiles) + 1, dtype=np.int64)
        np.cumsum(pending.quad_counts, out=quad_bounds[1:])
        starts = quad_bounds.tolist()
        line_starts = offsets[quad_bounds].tolist()
        out: Dict[TileCoord, TileQuads] = {}
        for i, tile in enumerate(tiles):
            start, stop = starts[i], starts[i + 1]
            if start == stop:
                continue
            first_line = line_starts[i]
            out[tile] = TileQuads(
                tile, qx[start:stop], qy[start:stop],
                pids[start:stop], tex_ids[start:stop],
                codes[start:stop], alu[start:stop],
                lods[start:stop], blend[start:stop],
                flat[first_line:line_starts[i + 1]],
                offsets[start:stop + 1] - first_line,
            )
        self.quads_emitted += total
        self.pixels_shaded += pending.covered
        return out

    # -- internals --------------------------------------------------------------

    def _tile_clip_region(
        self, tile: TileCoord, primitive: ScreenPrimitive
    ) -> Optional[Tuple[int, int, int, int]]:
        """Quad-aligned pixel rect of the primitive inside the tile.

        Returns (x0, y0, x1, y1) in screen pixels, end-exclusive, snapped
        outward to 2-pixel quad boundaries, or None when empty.
        """
        ts = self.config.tile_size
        tile_x0, tile_y0 = tile[0] * ts, tile[1] * ts
        tile_x1 = min(tile_x0 + ts, self.config.screen_width)
        tile_y1 = min(tile_y0 + ts, self.config.screen_height)
        min_x, min_y, max_x, max_y = primitive.bbox()
        x0 = max(tile_x0, int(np.floor(min_x)))
        y0 = max(tile_y0, int(np.floor(min_y)))
        x1 = min(tile_x1, int(np.ceil(max_x)) + 1)
        y1 = min(tile_y1, int(np.ceil(max_y)) + 1)
        if x0 >= x1 or y0 >= y1:
            return None
        # Snap outward to the quad grid (anchored at the tile origin,
        # which is always even).
        x0 -= (x0 - tile_x0) % 2
        y0 -= (y0 - tile_y0) % 2
        x1 += (x1 - tile_x0) % 2
        y1 += (y1 - tile_y0) % 2
        x1 = min(x1, tile_x0 + ts)
        y1 = min(y1, tile_y0 + ts)
        return x0, y0, x1, y1

    def _rasterize_primitive(
        self,
        tile: TileCoord,
        primitive: ScreenPrimitive,
        zbuffer: ZBuffer,
        color_buffer: Optional[ColorBuffer],
        blender: Optional[BlendingUnit],
    ) -> List[Quad]:
        region = self._tile_clip_region(tile, primitive)
        if region is None or primitive.area2 == 0.0:
            return []
        x0, y0, x1, y1 = region
        ts = self.config.tile_size
        tile_x0, tile_y0 = tile[0] * ts, tile[1] * ts

        # Pixel-centre grids.
        xs = np.arange(x0, x1, dtype=np.float64) + 0.5
        ys = np.arange(y0, y1, dtype=np.float64) + 0.5
        px, py = np.meshgrid(xs, ys)

        a, b, c = primitive.vertices
        area2 = primitive.area2
        w0 = ((b.x - px) * (c.y - py) - (c.x - px) * (b.y - py)) / area2
        w1 = ((c.x - px) * (a.y - py) - (a.x - px) * (c.y - py)) / area2
        w2 = 1.0 - w0 - w1
        inside = (w0 >= 0.0) & (w1 >= 0.0) & (w2 >= 0.0)

        # Clip to the actual screen (edge tiles may overhang).
        if x1 > self.config.screen_width or y1 > self.config.screen_height:
            inside &= px < self.config.screen_width
            inside &= py < self.config.screen_height

        if not inside.any():
            return []

        z = w0 * a.z + w1 * b.z + w2 * c.z
        inside &= (z >= 0.0) & (z <= 1.0)
        mode = primitive.primitive
        tested = zbuffer.test_block(
            x0 - tile_x0, y0 - tile_y0, z, inside,
            depth_write=mode.depth_write,
        )
        if mode.late_z:
            # Late-Z: the shader may change depth, so every covered
            # fragment must be shaded; the depth test (already applied
            # to the buffer above) only gates what reaches Blending.
            passed = inside
        else:
            passed = tested
        if not passed.any():
            return []

        # Perspective-correct attributes over the whole block (helper
        # lanes included — they feed the LOD derivatives).
        inv_w = w0 * a.inv_w + w1 * b.inv_w + w2 * c.inv_w
        safe = np.where(inv_w == 0.0, 1.0, inv_w)
        u = (w0 * a.u_over_w + w1 * b.u_over_w + w2 * c.u_over_w) / safe
        v = (w0 * a.v_over_w + w1 * b.v_over_w + w2 * c.v_over_w) / safe

        texture = self.textures.get(mode.texture_id)
        return self._emit_quads(
            tile, tile_x0, tile_y0, x0, y0, passed, tested, u, v,
            texture, mode, color_buffer, blender, w0, w1,
            primitive,
        )

    def _emit_quads(
        self,
        tile: TileCoord,
        tile_x0: int,
        tile_y0: int,
        x0: int,
        y0: int,
        passed: np.ndarray,
        visible: np.ndarray,
        u: np.ndarray,
        v: np.ndarray,
        texture: Optional[Texture],
        mode,
        color_buffer: Optional[ColorBuffer],
        blender: Optional[BlendingUnit],
        w0: np.ndarray,
        w1: np.ndarray,
        primitive: ScreenPrimitive,
    ) -> List[Quad]:
        quads: List[Quad] = []
        height, width = passed.shape
        shader = mode.shader
        # 2x2 block reduction over the whole region at once; nonzero's
        # row-major order reproduces the (by, bx) nested-loop order.
        grid = passed
        if height % 2 or width % 2:
            grid = np.zeros(
                (height + height % 2, width + width % 2), dtype=bool
            )
            grid[:height, :width] = passed
        block_view = grid.reshape(
            grid.shape[0] // 2, 2, grid.shape[1] // 2, 2
        ).transpose(0, 2, 1, 3)
        block_any = block_view.any(axis=(2, 3))
        bys, bxs = np.nonzero(block_any)
        covered_blocks = [
            (int(bx) * 2, int(by) * 2) for by, bx in zip(bys, bxs)
        ]
        if not covered_blocks:
            return quads
        # Per-quad 2x2 coverage for every covered block at once; the
        # row-major (dy, dx) flattening reproduces QUAD_PIXEL_OFFSETS
        # order, and the grid's False padding matches the out-of-bounds
        # lanes of the old per-block slice.
        coverages = [
            tuple(row) for row in block_view[bys, bxs]
            .reshape(len(covered_blocks), 4).tolist()
        ]
        footprints = self._batch_footprints(
            u, v, covered_blocks, texture, shader.texture_samples
        )
        for (bx, by), coverage, (lod, lines) in zip(
            covered_blocks, coverages, footprints
        ):
            quad = Quad(
                tile=tile,
                qx=(x0 + bx - tile_x0) // 2,
                qy=(y0 + by - tile_y0) // 2,
                primitive_id=primitive.primitive_id,
                texture_id=mode.texture_id,
                coverage=coverage,
                alu_cycles=shader.alu_cycles,
                texture_lines=lines,
                lod=lod,
                blend=mode.blend,
            )
            quads.append(quad)
            self.quads_emitted += 1
            self.pixels_shaded += quad.covered_pixels
            if color_buffer is not None and blender is not None:
                # Only depth-test survivors reach Blending (matters
                # for Late-Z, where shaded != visible).
                visible_block = visible[by : by + 2, bx : bx + 2]
                self._shade_pixels(
                    tile_x0, tile_y0, x0, y0, bx, by, visible_block,
                    u, v, lod, texture, mode, color_buffer, blender,
                    w0, w1, primitive,
                )
        return quads

    def _batch_footprints(
        self,
        u: np.ndarray,
        v: np.ndarray,
        blocks: List[Tuple[int, int]],
        texture: Optional[Texture],
        texture_samples: int,
    ) -> List[Tuple[float, Tuple[int, ...]]]:
        """Per-quad (lod, cache lines) for all covered blocks at once.

        Bilinear sampling — the overwhelmingly common case — runs fully
        vectorized; other filter modes take the scalar per-lane path,
        their only path.  On bilinear quads that path touches the same
        cache lines and gives LODs within one ulp (``math`` against
        numpy rounding in :func:`compute_lod`).
        """
        if texture is None or texture_samples == 0:
            return [(0.0, ())] * len(blocks)
        if self.sampler.filter_mode is not FilterMode.BILINEAR:
            return [
                self._quad_texture_footprint(
                    u, v, bx, by, texture, texture_samples
                )
                for bx, by in blocks
            ]

        height, width = u.shape
        bxs = np.array([b[0] for b in blocks])
        bys = np.array([b[1] for b in blocks])
        x1 = np.minimum(bxs + 1, width - 1)
        y1 = np.minimum(bys + 1, height - 1)

        # Quad-level mip LOD from the 2x2 lanes (helper lanes included).
        u00, v00 = u[bys, bxs], v[bys, bxs]
        sx = np.hypot(
            (u[bys, x1] - u00) * texture.width,
            (v[bys, x1] - v00) * texture.height,
        )
        sy = np.hypot(
            (u[y1, bxs] - u00) * texture.width,
            (v[y1, bxs] - v00) * texture.height,
        )
        rho = np.maximum(np.maximum(sx, sy), 1e-12)
        lods = np.maximum(0.0, np.log2(rho))
        # The *sampled* level clamps to the mip chain; the reported LOD
        # stays raw, matching the scalar path.
        levels = np.minimum(lods, float(texture.max_lod)).astype(np.int64)

        # The four lanes of each quad, in the scalar path's order.
        lane_y = np.stack([bys, bys, y1, y1], axis=1)
        lane_x = np.stack([bxs, x1, bxs, x1], axis=1)
        lane_levels = np.broadcast_to(levels[:, None], lane_x.shape)

        # lines[k, lane, sample, neighbour] in scalar visit order.
        lines_batch = self.sampler.bilinear_lines_batch
        per_sample = []
        for sample in range(texture_samples):
            scale = float(sample + 1)
            lane_u = u[lane_y, lane_x] * scale
            lane_v = v[lane_y, lane_x] * scale
            per_sample.append(
                lines_batch(texture, lane_u, lane_v, lane_levels)
            )
        lines = np.stack(per_sample, axis=2)

        # Flattening each block's slice row-major is exactly its
        # ravel(); dict.fromkeys dedups in first-visit order.
        flat = lines.reshape(len(blocks), -1).tolist()
        return [
            (lod, tuple(dict.fromkeys(row)))
            for lod, row in zip(lods.tolist(), flat)
        ]

    def _quad_texture_footprint(
        self,
        u: np.ndarray,
        v: np.ndarray,
        bx: int,
        by: int,
        texture: Optional[Texture],
        texture_samples: int,
    ) -> Tuple[float, Tuple[int, ...]]:
        """LOD and ordered unique cache lines of one quad's samples."""
        if texture is None or texture_samples == 0:
            return 0.0, ()
        height, width = u.shape
        x1 = min(bx + 1, width - 1)
        y1 = min(by + 1, height - 1)
        du_dx = u[by, x1] - u[by, bx]
        dv_dx = v[by, x1] - v[by, bx]
        du_dy = u[y1, bx] - u[by, bx]
        dv_dy = v[y1, bx] - v[by, bx]
        lod = compute_lod(
            du_dx, dv_dx, du_dy, dv_dy, texture.width, texture.height
        )
        lines: List[int] = []
        seen = set()
        for dy in (0, 1):
            for dx in (0, 1):
                iy, ix = min(by + dy, height - 1), min(bx + dx, width - 1)
                for sample in range(texture_samples):
                    scale = float(sample + 1)
                    footprint = self.sampler.footprint(
                        texture, u[iy, ix] * scale, v[iy, ix] * scale, lod
                    )
                    for line in footprint.lines:
                        if line not in seen:
                            seen.add(line)
                            lines.append(line)
        return lod, tuple(lines)

    def _shade_pixels(
        self,
        tile_x0: int,
        tile_y0: int,
        x0: int,
        y0: int,
        bx: int,
        by: int,
        block: np.ndarray,
        u: np.ndarray,
        v: np.ndarray,
        lod: float,
        texture: Optional[Texture],
        mode,
        color_buffer: ColorBuffer,
        blender: BlendingUnit,
        w0: np.ndarray,
        w1: np.ndarray,
        primitive: ScreenPrimitive,
    ) -> None:
        """Compute and emit final colors for the covered pixels of a quad."""
        a, b, c = primitive.vertices
        for dy in range(block.shape[0]):
            for dx in range(block.shape[1]):
                if not block[dy, dx]:
                    continue
                iy, ix = by + dy, bx + dx
                ww0, ww1 = w0[iy, ix], w1[iy, ix]
                ww2 = 1.0 - ww0 - ww1
                inv_w = ww0 * a.inv_w + ww1 * b.inv_w + ww2 * c.inv_w
                if inv_w == 0.0:
                    continue
                vertex_color = tuple(
                    (ww0 * a.color_over_w[i] + ww1 * b.color_over_w[i]
                     + ww2 * c.color_over_w[i]) / inv_w
                    for i in range(3)
                )
                if texture is not None:
                    tex_color = self.sampler.sample_color(
                        texture, u[iy, ix], v[iy, ix], lod
                    )
                    color = tuple(
                        vertex_color[i] * tex_color[i] for i in range(3)
                    )
                else:
                    color = vertex_color
                px = x0 + ix - tile_x0
                py = y0 + iy - tile_y0
                blender.emit(color_buffer, px, py, color, mode.blend)
