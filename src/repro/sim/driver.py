"""Pass 1: the functional frame render that produces the trace.

Runs the full Graphics Pipeline — Vertex Stage, Primitive Assembly,
clipping, Polygon List Builder, and per-tile rasterization with Early-Z —
and records a :class:`FrameTrace`: the per-tile shaded-quad streams plus
the vertex and Parameter Buffer cache lines.

Everything in the trace is independent of the quad schedule, the subtile
assignment, the tile order and the barrier architecture: tiles are
disjoint (so tile order cannot change Z results), Early-Z depends only on
within-tile primitive order (fixed by the program), and quad-to-SC
mapping does not alter which fragments survive.  That is what makes the
two-pass split exact rather than approximate — and what makes the
*incremental* API below exact as well: the tile pass returned by
:meth:`FrameRenderer.begin_tiles` emits tiles one at a time, in **any**
requested order, and every emitted :class:`TileTraceEntry` is
bit-identical to the one a whole-frame :meth:`FrameRenderer.render`
would have produced.

The incremental split is the producer half of the streaming tile
dataflow (:mod:`repro.sim.stream`): geometry, clipping and binning run
once up front (:meth:`FrameRenderer.begin_tiles`), then tiles are
rasterized on demand so a consumer can replay and drop each tile without
ever materializing the full frame.  The fast pass rasterizes and
flushes one chunk of tiles at a time, so a whole-frame ``render`` holds
the finished trace plus one chunk's temporaries, never the frame's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import GPUConfig
from repro.core.tile_order import TileCoord, scanline_order
from repro.errors import ConfigError
from repro.geometry.clipping import clip_batch, clip_primitive
from repro.geometry.mesh import VERTEX_STRIDE_BYTES
from repro.geometry.primitive_assembly import PrimitiveAssembler
from repro.geometry.vertex_stage import VertexStage
from repro.raster.blending import BlendingUnit
from repro.raster.color_buffer import ColorBuffer, FrameBuffer
from repro.raster.fragment import Quad, QuadStream, TileQuads
from repro.raster.rasterizer import Rasterizer
from repro.raster.setup import ScreenBatch, setup_draw_batch, setup_primitive
from repro.raster.zbuffer import ZBuffer
from repro.texture.sampler import FilterMode, Sampler
from repro.tiling.polygon_list_builder import PolygonListBuilder
from repro.tiling.tile_fetcher import TileFetcher
from repro.workloads.recipe import BuiltWorkload

LINE_BYTES = 64

#: Render engine names accepted by :class:`FrameRenderer`.
ENGINES = ("fast", "reference")

#: The fast rasterizer's chunk size, and the tiles a streaming consumer
#: asks the tile pass for at a time.  Large enough that the vectorized
#: raster and LOD/cache-line math keep their batching win, small enough
#: that a render holds one chunk's temporaries and a streaming consumer
#: O(group) tiles rather than the frame.
DEFAULT_GROUP_TILES = 16


@dataclass
class TileTraceEntry:
    """One tile's replayable work: fetch traffic plus the quad columns."""

    fetch_lines: List[int] = field(default_factory=list)
    fetch_cycles: int = 1
    columns: TileQuads = field(default_factory=TileQuads.empty)

    @property
    def quads(self) -> Tuple[Quad, ...]:
        """Read-only :class:`Quad` view of :attr:`columns`, built per call."""
        return self.columns.to_quads()

    def quad_stream(self, side: int) -> QuadStream:
        """The replay's per-quad slot/issue and per-line owner columns.

        Computed once per entry and reused across every design point
        and engine replaying the trace (the derivation is pure, so
        sharing cannot couple replays).
        """
        return self.columns.stream(side)


@dataclass
class RenderStats:
    """Summary statistics of the functional render."""

    num_draws: int = 0
    num_primitives: int = 0
    num_clipped_primitives: int = 0
    num_quads: int = 0
    pixels_shaded: int = 0
    z_cull_rate: float = 0.0
    nonempty_tiles: int = 0

    def overdraw_factor(self, config: GPUConfig) -> float:
        """Shaded pixels per screen pixel (the depth-complexity proxy)."""
        screen = config.screen_width * config.screen_height
        return self.pixels_shaded / screen if screen else 0.0


@dataclass
class FrameTrace:
    """Schedule-independent record of one rendered frame.

    :attr:`schedule_memo` holds the memory halves of this trace's
    replays, keyed by :func:`repro.sim.replay.memory_key`, so design
    points whose schedules compute the same memory half share one
    memory pass.  It is not a field: it never enters ``==``, ``repr``
    or ``asdict``, and a pickle, copy, checkpoint load or
    ``dataclasses.replace`` of the trace starts with an empty one.
    """

    config: GPUConfig
    vertex_lines: List[int]
    tiles: Dict[TileCoord, TileTraceEntry]
    stats: RenderStats

    def __post_init__(self) -> None:
        self.schedule_memo: Dict[str, object] = {}

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["schedule_memo"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.schedule_memo = {}

    @property
    def total_quads(self) -> int:
        return sum(len(t.columns) for t in self.tiles.values())

    @property
    def total_texture_lines(self) -> int:
        return sum(t.columns.num_lines for t in self.tiles.values())


class _FastTilePass:
    """Incremental fast-engine pass 1: geometry up front, tiles on demand.

    The constructor runs everything that is *frame*-scoped — the batched
    Geometry Pipeline, clipping, and Polygon List binning.  Each
    :meth:`iter_tiles` call then rasterizes the tiles it is given a
    chunk of ``DEFAULT_GROUP_TILES`` at a time, running the footprint
    batching of ``finalize_quads_fast`` on each chunk before yielding
    its tiles.  Chunks and calls only partition the work — a tile's
    quads depend on its own primitives alone, and every per-quad LOD
    and cache-line row on that quad's own lanes — so any partition of
    the tiles yields bit-identical entries.
    """

    framebuffer: Optional[FrameBuffer] = None

    def __init__(self, renderer: "FrameRenderer", workload: BuiltWorkload):
        scene = workload.scene
        config = renderer.config
        stats = RenderStats(num_draws=len(scene.draws))

        # Geometry Pipeline, one batch per draw.
        vertex_stage = VertexStage()
        assembler = PrimitiveAssembler()
        vertex_lines: List[int] = []
        parts: List[ScreenBatch] = []
        for draw in scene.draws:
            index = np.asarray(draw.mesh.indices, dtype=np.int64)
            vertex_lines.extend(
                (
                    (draw.mesh.base_address + index * VERTEX_STRIDE_BYTES)
                    // LINE_BYTES
                ).tolist()
            )
            vertex_batch = vertex_stage.run_batch(
                draw, scene.view_matrix, scene.projection_matrix
            )
            primitive_batch = assembler.assemble_batch(draw, vertex_batch)
            stats.num_primitives += len(primitive_batch)
            keep, fallback = clip_batch(primitive_batch)
            parts.append(
                setup_draw_batch(
                    primitive_batch, keep, fallback,
                    config.screen_width, config.screen_height,
                )
            )
        batch = ScreenBatch.concatenate(parts)
        stats.num_clipped_primitives = len(batch)

        # Tiling Engine.
        builder = PolygonListBuilder(config)
        self._bins = builder.build_fast(batch)
        self._batch = batch
        self._fetch_cycles = config.tile_fetcher_cycles_per_primitive
        self._rasterizer = Rasterizer(config, workload.textures, renderer.sampler)
        self._zbuffer = ZBuffer(config.tile_size)
        self.vertex_lines = vertex_lines
        self.stats = stats

    def _entry(self, tile: TileCoord, rows: np.ndarray) -> TileTraceEntry:
        """A tile's fetch traffic; the caller attaches its quads."""
        return TileTraceEntry(
            fetch_lines=TileFetcher.fetch_lines_fast(
                self._bins, tile, self._batch.pid[rows]
            ),
            fetch_cycles=max(len(rows) * self._fetch_cycles, 1),
        )

    def iter_tiles(
        self, order: Sequence[TileCoord]
    ) -> Iterator[Tuple[TileCoord, TileTraceEntry]]:
        """Yield ``(tile, finished entry)`` for every tile of ``order``.

        Each chunk is rasterized and its footprints flushed before its
        tiles are yielded and the next chunk starts, so the pass holds
        one chunk's temporaries however many tiles ``order`` names.
        """
        rows_for_tile = self._bins.rows_for_tile
        rasterize = self._rasterizer.rasterize_tile_fast
        finalize = self._rasterizer.finalize_quads_fast
        batch = self._batch
        zbuffer = self._zbuffer
        stats = self.stats
        for start in range(0, len(order), DEFAULT_GROUP_TILES):
            chunk = order[start:start + DEFAULT_GROUP_TILES]
            rows = list(map(rows_for_tile, chunk))
            pending = rasterize(chunk, batch, rows, zbuffer)
            quads_by_tile = {} if pending is None else finalize(batch, pending)
            del pending
            stats.nonempty_tiles += len(quads_by_tile)
            for tile, tile_rows in zip(chunk, rows):
                entry = self._entry(tile, tile_rows)
                if tile in quads_by_tile:
                    entry.columns = quads_by_tile[tile]
                yield tile, entry

    def finish(self) -> RenderStats:
        """Complete the frame-level counters; valid after full iteration."""
        stats = self.stats
        rasterizer = self._rasterizer
        stats.num_quads = rasterizer.quads_emitted
        stats.pixels_shaded = rasterizer.pixels_shaded
        stats.z_cull_rate = self._zbuffer.cull_rate
        return stats


class _ReferenceTilePass:
    """Incremental scalar pass 1 (the fast pass's equality oracle).

    Per-tile state (Z-buffer, Color Buffer) is cleared on entry to each
    tile, so tiles can be produced in any order — the same disjointness
    argument the module docstring makes for the whole trace.
    """

    def __init__(
        self,
        renderer: "FrameRenderer",
        workload: BuiltWorkload,
        with_image: bool = False,
    ):
        scene = workload.scene
        config = renderer.config
        stats = RenderStats(num_draws=len(scene.draws))

        # Geometry Pipeline.
        vertex_stage = VertexStage()
        assembler = PrimitiveAssembler()
        vertex_lines: List[int] = []
        screen_primitives = []
        for draw in scene.draws:
            for index in draw.mesh.indices:
                vertex_lines.append(draw.mesh.vertex_address(index) // LINE_BYTES)
            transformed = vertex_stage.run(
                draw, scene.view_matrix, scene.projection_matrix
            )
            for primitive in assembler.assemble(draw, transformed):
                stats.num_primitives += 1
                for clipped in clip_primitive(primitive):
                    stats.num_clipped_primitives += 1
                    screen_primitives.append(
                        setup_primitive(
                            clipped, config.screen_width, config.screen_height
                        )
                    )

        # Tiling Engine.
        builder = PolygonListBuilder(config)
        self._parameter_buffer = builder.build(screen_primitives)
        self._rasterizer = Rasterizer(config, workload.textures, renderer.sampler)
        self._zbuffer = ZBuffer(config.tile_size)
        self._fetcher = TileFetcher(config)
        self.framebuffer = (
            FrameBuffer(config.screen_width, config.screen_height, config.tile_size)
            if with_image else None
        )
        self._color_buffer = ColorBuffer(config.tile_size) if with_image else None
        self._blender = BlendingUnit() if with_image else None
        self.vertex_lines = vertex_lines
        self.stats = stats

    def render_tile(self, tile: TileCoord) -> TileTraceEntry:
        """One finished tile (canonical scalar rasterization)."""
        parameter_buffer = self._parameter_buffer
        primitives = parameter_buffer.primitives_for_tile(tile)
        entry = TileTraceEntry(
            fetch_lines=TileFetcher.fetch_lines(
                parameter_buffer, tile, primitives
            ),
            fetch_cycles=self._fetcher.fetch_cycles(parameter_buffer, tile),
        )
        if primitives:
            color_buffer = self._color_buffer
            self._zbuffer.clear()
            if color_buffer is not None:
                color_buffer.clear()
            quads = self._rasterizer.rasterize_tile(
                tile, primitives, self._zbuffer, color_buffer, self._blender
            )
            if self.framebuffer is not None and color_buffer is not None:
                color_buffer.flush_tile(self.framebuffer, tile)
            if quads:
                entry.columns = TileQuads.from_quads(quads)
                self.stats.nonempty_tiles += 1
        return entry

    def iter_tiles(
        self, order: Sequence[TileCoord]
    ) -> Iterator[Tuple[TileCoord, TileTraceEntry]]:
        """Yield ``(tile, entry)`` in ``order``, each rendered on demand."""
        for tile in order:
            yield tile, self.render_tile(tile)

    def finish(self) -> RenderStats:
        """Complete the frame-level counters; valid after full iteration."""
        stats = self.stats
        rasterizer = self._rasterizer
        stats.num_quads = rasterizer.quads_emitted
        stats.pixels_shaded = rasterizer.pixels_shaded
        stats.z_cull_rate = self._zbuffer.cull_rate
        return stats


class FrameRenderer:
    """Runs pass 1 for one workload.

    Two engines produce bit-identical :class:`FrameTrace` records:

    - ``"fast"`` (default) batches the whole Geometry Pipeline and the
      per-tile rasterization with numpy, falling back to the scalar
      clipper only for triangles straddling the near plane.
    - ``"reference"`` is the original scalar pipeline, kept verbatim as
      the equality oracle (``sanitizer.trace_digest`` matches per game).

    Image output and non-bilinear samplers always take the reference
    path — the fast engine only accelerates trace generation.

    Both engines expose the same two shapes of pass 1:

    - :meth:`render` — the whole frame at once, returning a
      :class:`FrameTrace`;
    - :meth:`begin_tiles` — the incremental form: frame-scoped
      geometry first, then a tile pass that emits tiles in any order,
      which is what the streaming dataflow driver consumes.
    """

    def __init__(
        self,
        config: GPUConfig,
        sampler: Optional[Sampler] = None,
        engine: str = "fast",
    ):
        if engine not in ENGINES:
            raise ConfigError(
                f"unknown render engine {engine!r}; "
                f"choose from {', '.join(ENGINES)}"
            )
        self.config = config
        self.sampler = sampler or Sampler()
        self.engine = engine

    def begin_tiles(self, workload: BuiltWorkload, with_image: bool = False):
        """Run the frame-scoped half of pass 1; returns a tile pass.

        The returned pass exposes ``vertex_lines`` (the Geometry
        Pipeline's cache lines, known before any tile is rasterized),
        ``iter_tiles(order)``, which renders any subset of the frame's
        tiles, one call per group a consumer holds at once, and
        ``finish()`` for the frame-level :class:`RenderStats`.
        """
        if (
            self.engine == "fast"
            and not with_image
            and self.sampler.filter_mode is FilterMode.BILINEAR
        ):
            return _FastTilePass(self, workload)
        return _ReferenceTilePass(self, workload, with_image)

    def render(
        self, workload: BuiltWorkload, with_image: bool = False
    ) -> Tuple[FrameTrace, Optional[FrameBuffer]]:
        """Render one frame; returns the trace and (optionally) the image.

        Implemented on the incremental pass as one ``iter_tiles`` call
        over the whole frame in scanline order: the render holds the
        finished trace plus one chunk's temporaries, and its entries
        are the ones any other partition of the tiles yields.
        """
        tile_pass = self.begin_tiles(workload, with_image)
        order = scanline_order(self.config.tiles_x, self.config.tiles_y)
        tiles = dict(tile_pass.iter_tiles(order))
        trace = FrameTrace(
            config=self.config,
            vertex_lines=tile_pass.vertex_lines,
            tiles=tiles,
            stats=tile_pass.finish(),
        )
        return trace, tile_pass.framebuffer
