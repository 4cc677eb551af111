"""The streaming tile dataflow: per-tile producer/consumer protocol.

The two-pass harness used to be coupled at frame granularity: pass 2
(:class:`~repro.sim.replay.TraceReplayer`) could not start until pass 1
(:class:`~repro.sim.driver.FrameRenderer`) had materialized the entire
:class:`~repro.sim.driver.FrameTrace`, so peak memory scaled with the
whole frame and render/replay never overlapped.  Because tiles are
disjoint and the trace is schedule-independent (see ``driver``'s module
docstring), a tile-granular split is *exact*: this module defines the
seam.

A **tile stream** delivers :class:`TileWorkUnit` records — one per tile,
in the replay's traversal order, the frame's vertex/Parameter-Buffer
prologue riding the first unit — through two interchangeable drivers:

* :class:`BatchTileStream` — walks a fully materialized trace.  Current
  behaviour, kept as the executable specification; ``TraceReplayer.run``
  is a thin wrapper over it.
* :class:`StreamingTileStream` — a generator over groups of
  ``DEFAULT_GROUP_TILES`` consecutive tiles: each group is rendered,
  handed to the consumer, and dropped, bounding peak memory to one
  group.  With a :class:`~repro.sim.checkpoint.TileChunkStore`
  attached, a group's tiles are loaded from per-tile chunks and only
  the misses rendered (and saved), restoring the render-once economy
  of the batch path without ever holding the frame.

Both drivers yield bit-identical unit sequences for the same frame and
order, which is what makes ``RunResult`` equality across
``--stream batch|streaming`` a testable invariant rather than an
aspiration.

Usage::

    stream = StreamingTileStream(renderer, workload)
    for unit in stream.open(scheduler.tiles):
        ...  # replay unit.entry, then drop it
"""

from __future__ import annotations

from typing import Dict, Iterator, NamedTuple, Optional, Sequence, Tuple

from repro.core.tile_order import TileCoord
from repro.errors import ConfigError
from repro.sim.driver import (
    DEFAULT_GROUP_TILES,
    FrameRenderer,
    FrameTrace,
    RenderStats,
    TileTraceEntry,
)
from repro.workloads.recipe import BuiltWorkload

#: Stream driver names accepted by ``--stream`` and the orchestration
#: layers.  Order matters only for help text.
STREAM_DRIVERS = ("batch", "streaming")

#: Shared empty prologue for every unit after the first (module-level so
#: the hot generators never allocate a tuple per tile).
_NO_LINES: Tuple[int, ...] = ()


class TileWorkUnit(NamedTuple):
    """One tile's worth of replayable work, as the stream delivers it.

    ``vertex_lines`` is non-empty only on the first unit of a frame:
    the Geometry Pipeline's cache-line prologue precedes all tile work
    in the replay, exactly as the batch replayer always ordered it, so
    it rides the first unit rather than a separate message type.
    """

    tile: TileCoord
    step: int
    entry: TileTraceEntry
    vertex_lines: Sequence[int] = _NO_LINES


def check_driver(driver: str) -> str:
    """Validate a stream driver name (shared by CLI and orchestration)."""
    if driver not in STREAM_DRIVERS:
        raise ConfigError(
            f"unknown stream driver {driver!r}; "
            f"choose from {', '.join(STREAM_DRIVERS)}"
        )
    return driver


class BatchTileStream:
    """The executable specification: stream a materialized trace.

    Peak memory is the whole frame (that is the point of the batch
    path — render once, replay many); the stream protocol just re-frames
    the replayer's original ``for tile in scheduler.tiles`` walk.
    """

    driver = "batch"

    def __init__(self, trace: FrameTrace):
        self.trace = trace
        self._order: Sequence[TileCoord] = ()

    def open(self, order: Sequence[TileCoord]) -> "BatchTileStream":
        """Bind the traversal order; returns ``self`` to iterate."""
        self._order = order
        return self

    def __iter__(self) -> Iterator[TileWorkUnit]:
        trace = self.trace
        entries = trace.tiles
        vertex_lines = trace.vertex_lines
        for step, tile in enumerate(self._order):
            entry = entries.get(tile) or TileTraceEntry()
            if step:
                yield TileWorkUnit(tile, step, entry, _NO_LINES)
            else:
                yield TileWorkUnit(tile, step, entry, vertex_lines)


class StreamingTileStream:
    """Render-as-you-replay: tile groups are produced, consumed, dropped.

    Peak memory is O(one group of ``DEFAULT_GROUP_TILES`` tiles) instead
    of O(frame).  The price is that every replay re-renders the frame —
    unless a :class:`~repro.sim.checkpoint.TileChunkStore` is attached,
    in which case tiles rendered once are persisted as verified per-tile
    chunks and later replays load them back (corrupt or missing chunks
    are transparently re-rendered, mirroring the trace store's
    cache-miss semantics).
    """

    driver = "streaming"

    def __init__(
        self,
        renderer: FrameRenderer,
        workload: BuiltWorkload,
        chunk_store=None,
    ):
        self.renderer = renderer
        self.workload = workload
        self.chunk_store = chunk_store
        self._order: Sequence[TileCoord] = ()
        self._pass = None
        #: Frame-level stats, available after full iteration (store-less
        #: streaming only; with a chunk store attached stats stay ``None``).
        self.stats: Optional[RenderStats] = None
        #: Tiles actually rendered (vs loaded from the chunk store).
        self.tiles_rendered = 0

    def open(self, order: Sequence[TileCoord]) -> "StreamingTileStream":
        """Bind the traversal order; returns ``self`` to iterate."""
        self._order = order
        return self

    def _tile_pass(self):
        """The incremental render pass, created on first need.

        Lazy so a fully chunk-cached frame never pays geometry again —
        except for the vertex prologue, which lives in the chunk store's
        frame meta once a first pass completed.
        """
        tile_pass = self._pass
        if tile_pass is None:
            tile_pass = self.renderer.begin_tiles(self.workload)
            self._pass = tile_pass
        return tile_pass

    def _group_entries(
        self,
        group: Sequence[TileCoord],
        tile_digests: Dict[TileCoord, str],
    ) -> Dict[TileCoord, TileTraceEntry]:
        """One group's entries: chunk-store hits, then one render of misses.

        Records each tile's digest in ``tile_digests`` (loaded with the
        chunk, or returned by the save of a rendered tile).
        """
        store = self.chunk_store
        entries: Dict[TileCoord, TileTraceEntry] = {}
        if store is not None:
            for tile in group:
                loaded = store.load_tile(tile)
                if loaded is not None:
                    entries[tile], tile_digests[tile] = loaded
        missing = [tile for tile in group if tile not in entries]
        if missing:
            for tile, entry in self._tile_pass().iter_tiles(missing):
                entries[tile] = entry
                if store is not None:
                    tile_digests[tile] = store.save_tile(tile, entry)
            self.tiles_rendered += len(missing)
        return entries

    def __iter__(self) -> Iterator[TileWorkUnit]:
        """Yield the traversal, one group of ``DEFAULT_GROUP_TILES`` at a time.

        Without a chunk store every tile is a miss, and the frame's
        :class:`RenderStats` land in :attr:`stats` after the traversal.
        With one, every tile's digest and quad and pixel counts are
        collected as it flows past, so after the full traversal the
        store can seal (or re-verify) the frame meta whose hash chain
        terminates in the trace digest.
        """
        store = self.chunk_store
        order = self._order
        try:
            vertex_lines = None if store is None else store.vertex_lines()
            if vertex_lines is None:
                vertex_lines = self._tile_pass().vertex_lines
            tile_digests: Dict[TileCoord, str] = {}
            num_quads = pixels_shaded = 0
            for step, tile in enumerate(order):
                if not step % DEFAULT_GROUP_TILES:
                    entries = self._group_entries(
                        order[step:step + DEFAULT_GROUP_TILES], tile_digests
                    )
                # Popped, so rendering the next group holds none of this
                # one: the stream keeps at most one group of tiles.
                entry = entries.pop(tile)
                if store is not None:
                    columns = entry.columns
                    num_quads += len(columns)
                    pixels_shaded += columns.covered_pixels
                yield TileWorkUnit(
                    tile, step, entry, _NO_LINES if step else vertex_lines
                )
            if store is None:
                self.stats = self._pass.finish()
            else:
                store.seal(
                    self.renderer.config, vertex_lines, tile_digests,
                    num_quads, pixels_shaded,
                )
        finally:
            # The frame's render state dies with the traversal, not
            # with the stream object.
            self._pass = None
