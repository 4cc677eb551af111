"""The streaming tile dataflow: per-tile producer/consumer protocol.

Tiles are disjoint and the trace is schedule-independent (see
``driver``'s module docstring), so pass 2 can consume pass 1 a tile at
a time instead of after a whole :class:`~repro.sim.driver.FrameTrace`
exists.  This module defines that seam.

A **tile stream** delivers :class:`TileWorkUnit` records — one per tile,
in the replay's traversal order, the frame's vertex/Parameter-Buffer
prologue riding the first unit — through two interchangeable drivers:

* :class:`BatchTileStream` — walks a fully materialized trace: the
  executable specification, which ``TraceReplayer.run`` wraps.
* :class:`StreamingTileStream` — renders ``DEFAULT_GROUP_TILES`` tiles
  at a time, hands them to the consumer and drops them, bounding peak
  memory to one group.  With a
  :class:`~repro.sim.checkpoint.TileChunkStore` it works in the store's
  16-tile segments instead, so every tile order reads each segment once
  per replay.  Under a sealed manifest it loads each segment a group
  touches, re-rendering and saving only one that is lost; an unsealed
  frame renders whole, then is sealed with its stats.  A replay of a
  sealed frame never builds the scene.  The batch runner keeps one
  scanline traversal of this stream as its trace, so either driver
  loads what the other saved.

Both drivers yield bit-identical unit sequences for the same frame and
order, which is what makes ``RunResult`` equality across
``--stream batch|streaming`` a testable invariant.

Usage::

    stream = StreamingTileStream(renderer, workload)
    for unit in stream.open(scheduler.tiles):
        ...  # replay unit.entry, then drop it
"""

from __future__ import annotations

from itertools import chain
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.tile_order import TileCoord
from repro.errors import ConfigError, TraceIntegrityError
from repro.sim.checkpoint import segment_layout
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

    #: A materialized trace renders nothing when it is walked.
    tiles_rendered = 0

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

    Without a store, peak memory is O(one group of
    ``DEFAULT_GROUP_TILES`` tiles) instead of O(frame), and every
    replay re-renders the frame.  With a
    :class:`~repro.sim.checkpoint.TileChunkStore` attached, tiles come
    in the store's segments, and its manifest is the commit record.
    Under a seal, a segment the traversal touches is loaded whole, or
    re-rendered whole and saved when it is missing, torn or corrupt.
    An unsealed frame reads nothing from the store: every segment is
    rendered and saved, and the traversal seals them with the frame's
    stats.  A segment's tiles are held until the traversal yields them,
    so the stream holds the tiles of the segments it has opened and not
    yet yielded: one group under ``zorder`` and ``hilbert``, a band of
    segments under ``sorder`` and ``scanline`` (at 1960x768, 16, 32,
    128 and 208 tiles).

    ``workload`` is the built scene, or a zero-argument callable that
    builds it.  A callable runs the first time the stream needs the
    tile pass — no store, an unsealed manifest or a segment miss — so a
    replay of a sealed frame never builds its scene.
    """

    def __init__(
        self,
        renderer: FrameRenderer,
        workload: Union[BuiltWorkload, Callable[[], BuiltWorkload]],
        chunk_store=None,
    ):
        self.renderer = renderer
        self.workload = workload
        self.chunk_store = chunk_store
        self._order: Sequence[TileCoord] = ()
        self._pass = None
        #: Frame-level stats, set after a traversal that rendered every
        #: tile: always without a store, on a cold frame with one.
        self.stats: Optional[RenderStats] = None
        #: Tiles actually rendered (vs loaded from the chunk store).
        self.tiles_rendered = 0

    def open(self, order: Sequence[TileCoord]) -> "StreamingTileStream":
        """Bind the traversal order; returns ``self`` to iterate."""
        self._order = order
        return self

    def _tile_pass(self):
        """The incremental render pass, created on first need.

        Lazy so a fully checkpointed frame never builds its scene or
        pays geometry again — its vertex prologue lives in the store's
        manifest once a first pass completed.
        """
        tile_pass = self._pass
        if tile_pass is None:
            workload = self.workload
            if not isinstance(workload, BuiltWorkload):
                workload = self.workload = workload()
            tile_pass = self.renderer.begin_tiles(workload)
            self._pass = tile_pass
        return tile_pass

    def _render(
        self, tiles: Sequence[TileCoord], held: Dict[TileCoord, TileTraceEntry]
    ) -> None:
        """Render ``tiles`` with one ``iter_tiles`` call into ``held``."""
        held.update(self._tile_pass().iter_tiles(tiles))
        self.tiles_rendered += len(tiles)

    def __iter__(self) -> Iterator[TileWorkUnit]:
        """Yield the traversal, one group of ``DEFAULT_GROUP_TILES`` at a time.

        Without a chunk store every group is rendered as the traversal
        reaches it.  With one, each group opens the segments it touches
        (:class:`_Segments`), and a traversal of an unsealed frame ends
        by sealing the store's manifest.  A traversal that rendered every
        tile sets :attr:`stats`.
        """
        store = self.chunk_store
        order = self._order
        rendered = self.tiles_rendered
        try:
            manifest = None if store is None else store.manifest()
            if manifest is None:
                vertex_lines = self._tile_pass().vertex_lines
            else:
                vertex_lines = manifest["vertex_lines"]
            segments = (
                None if store is None else _Segments(self, store, manifest)
            )
            held: Dict[TileCoord, TileTraceEntry] = {}
            for step, tile in enumerate(order):
                if not step % DEFAULT_GROUP_TILES:
                    group = order[step:step + DEFAULT_GROUP_TILES]
                    if segments is None:
                        self._render(group, held)
                    else:
                        segments.open_group(group, held)
                # Popped, so the stream holds only tiles it has yet to
                # yield.
                entry = held.pop(tile)
                yield TileWorkUnit(
                    tile, step, entry, _NO_LINES if step else vertex_lines
                )
            config = self.renderer.config
            if self.tiles_rendered - rendered == config.num_tiles:
                stats = self.stats = self._pass.finish()
                if segments is not None and manifest is None:
                    store.seal(config, vertex_lines, segments.hashes, stats)
        finally:
            # The frame's render state dies with the traversal, not
            # with the stream object.
            self._pass = None


class _Segments:
    """One checkpointed traversal's segment book-keeping.

    Opens each segment the first time the traversal touches it.  Under a
    sealed manifest it loads the segment and holds its payload hash to
    the sealed one; an unsealed frame's segments are never read, since
    only the seal vouches for them.  Every segment not loaded is
    rendered, all of a group's with one ``iter_tiles`` call, and saved
    whole, so segments on disk are always complete.
    """

    def __init__(self, stream: StreamingTileStream, store, manifest):
        config = stream.renderer.config
        self.stream = stream
        self.store = store
        self.tiles, self.segment_of = segment_layout(
            config.tiles_x, config.tiles_y
        )
        #: Payload hash of every segment opened so far (``None``: not yet).
        self.hashes: List[Optional[str]] = [None] * len(self.tiles)
        self.sealed = None if manifest is None else manifest["segments"]

    def open_group(
        self, group: Sequence[TileCoord], held: Dict[TileCoord, TileTraceEntry]
    ) -> None:
        """Bring every unopened segment ``group`` touches into ``held``."""
        store = self.store
        segment_tiles = self.tiles
        hashes = self.hashes
        sealed = self.sealed
        missing: List[int] = []
        for index in dict.fromkeys(map(self.segment_of.__getitem__, group)):
            if hashes[index] is not None:
                continue
            tiles = segment_tiles[index]
            loaded = None if sealed is None else store.load_tile(index, tiles)
            if loaded is None:
                missing.append(index)
            else:
                self._take(index, tiles, *loaded, held)
        if missing:
            rendered: Dict[TileCoord, TileTraceEntry] = {}
            self.stream._render(list(chain.from_iterable(
                map(segment_tiles.__getitem__, missing)
            )), rendered)
            for index in missing:
                tiles = segment_tiles[index]
                entries = list(map(rendered.pop, tiles))
                self._take(
                    index, tiles, entries,
                    store.save_tile(index, tiles, entries), held,
                )

    def _take(
        self,
        index: int,
        tiles: Sequence[TileCoord],
        entries: Sequence[TileTraceEntry],
        content: str,
        held: Dict[TileCoord, TileTraceEntry],
    ) -> None:
        """Check one opened segment against the seal; hold its tiles."""
        sealed = self.sealed
        if sealed is not None and sealed[index] != content:
            raise TraceIntegrityError(
                f"segment {index} under {self.store.directory} does not "
                "match its sealed manifest"
            )
        self.hashes[index] = content
        held.update(zip(tiles, entries))
