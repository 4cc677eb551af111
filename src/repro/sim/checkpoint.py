"""Durable frame checkpoints and sweep progress.

Pass 1 (the functional render) is the expensive half of the two-pass
economy; a crashed campaign that throws its frames away pays it again.
This module makes pass-1 results durable:

* :func:`trace_key` — a content hash of ``(GPUConfig, workload recipe,
  frame)``, so a checkpoint is only ever reused for the exact workload
  and configuration that produced it.
* :class:`TileChunkStore` — the one on-disk form of a frame, for both
  stream drivers: ``DEFAULT_GROUP_TILES``-tile segments plus a
  ``frame.json`` manifest, the frame's commit record, sealing their
  hashes and its :class:`RenderStats`.  A frame either driver sealed
  serves the other.  Beside the segments, one ``<memory key>.work``
  schedule record per memory half computed from the frame, bound to
  the seal it was computed under.
* :func:`verify_trace` — the structural invariants a loaded trace must
  hold; any violation raises :class:`~repro.errors.TraceIntegrityError`.
* :class:`SweepProgress` — an append-only journal of completed sweep
  rows, keyed by a campaign hash, so a re-run with ``--resume`` skips
  every design point that already finished; beside it, the campaign's
  ``manifest.json`` (:func:`write_run_manifest`).
* :func:`trace_digest` / :func:`frame_digest` — the canonical
  *semantic* content hash of a frame trace, built as a hash chain over
  per-tile digests (sorted tile order) so it can be computed from tile
  digests collected one at a time without ever materializing the
  frame.

Segment file layout (version 4): one ASCII JSON header line holding the
key, segment index and payload SHA-256, a newline, then a typed payload
(:func:`_pack_segment`) decoded with ``np.frombuffer``, so no
checkpoint read rebuilds a Python object from stored bytes.  A schedule
record has the same form: its header holds the key, the memory key and
the seal, its payload is
:meth:`~repro.sim.replay.ScheduleWork.to_bytes`.  One atomic
writer (temp file + ``os.replace``, so a crash mid-save never leaves a
half-written checkpoint that a later ``--resume`` would trust) and one
verifying reader hold the ``checkpoint.save`` and ``checkpoint.load``
fault sites.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import warnings
from functools import lru_cache
from itertools import accumulate, chain
from operator import attrgetter
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import GPUConfig
from repro.core.tile_order import TileCoord, z_order
from repro.errors import TraceIntegrityError
from repro.raster.fragment import COVERAGE_TUPLES, TileQuads
from repro.sim.driver import (
    DEFAULT_GROUP_TILES,
    FrameTrace,
    RenderStats,
    TileTraceEntry,
)
from repro.sim.faults import (
    InjectedKill,
    KIND_CORRUPT,
    KIND_PARTIAL_LINE,
    KIND_TORN_WRITE,
    KIND_TRUNCATE,
    SITE_CHECKPOINT_LOAD,
    SITE_CHECKPOINT_SAVE,
    SITE_JOURNAL_RECORD,
    fault_point,
)
from repro.sim.resilience import RunManifest
from repro.workloads.recipe import SceneRecipe

#: Version 4: a segment is a typed payload hashed once.  The serialized
#: objects of earlier versions (version-3 segments, version-2 per-tile
#: chunks, version-1 ``Quad`` lists) all load as cache misses, and the
#: whole-frame files earlier versions kept beside the segments are
#: never read.
CHECKPOINT_VERSION = 4
_HEADER_LIMIT = 4096  # sane upper bound on the header line


def _truncate_file(path: Path, fraction: float) -> None:
    """Cut ``path`` down to ``fraction`` of its size (torn-write sim)."""
    try:
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(max(0, int(size * fraction)))
    except OSError:
        pass  # a checkpoint that cannot be damaged cannot be injected


def _flip_last_byte(path: Path) -> None:
    """Invert the final byte of ``path`` (bit-level corruption sim)."""
    try:
        with open(path, "r+b") as handle:
            handle.seek(-1, os.SEEK_END)
            byte = handle.read(1)
            if byte:
                handle.seek(-1, os.SEEK_END)
                handle.write(bytes([byte[0] ^ 0xFF]))
    except OSError:
        pass


def _canonical_json(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=list)


def _atomic_write(path: Path, *parts: bytes) -> None:
    """Write ``parts`` to ``path`` through a temp file and ``os.replace``."""
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=".tmp-", suffix=path.suffix
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            for part in parts:
                handle.write(part)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _write_record(
    path: Path, fault_key: str, data: bytes, **header: Any
) -> str:
    """Atomically write one checkpoint record: header line, then ``data``.

    The header gains the format version and the payload's SHA-256,
    which is returned.
    """
    sha256 = hashlib.sha256(data).hexdigest()
    header["version"] = CHECKPOINT_VERSION
    header["sha256"] = sha256
    _atomic_write(path, _canonical_json(header).encode("ascii") + b"\n", data)
    if fault_point(SITE_CHECKPOINT_SAVE, key=fault_key) == KIND_TORN_WRITE:
        # Simulated torn write: the rename survived but the tail of
        # the payload never hit the platter.  The reader must detect it.
        _truncate_file(path, 0.5)
    return sha256


def _read_record(
    path: Path, fault_key: str, **expected: Any
) -> Tuple[Dict[str, Any], bytes]:
    """Read and verify one checkpoint record; returns (header, payload).

    Raises :class:`TraceIntegrityError` unless the header is a JSON
    object of this version whose ``expected`` fields match and the
    payload's SHA-256 is the header's.
    """
    fault = fault_point(SITE_CHECKPOINT_LOAD, key=fault_key)
    if fault == KIND_TRUNCATE:
        _truncate_file(path, 0.5)
    elif fault == KIND_CORRUPT:
        _flip_last_byte(path)
    try:
        with open(path, "rb") as handle:
            header_line = handle.readline(_HEADER_LIMIT)
            data = handle.read()
    except OSError as error:
        raise TraceIntegrityError(
            f"cannot read checkpoint {path}: {error}"
        ) from error
    try:
        header = json.loads(header_line.decode("ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise TraceIntegrityError(
            f"checkpoint {path} has a corrupt header"
        ) from error
    if not isinstance(header, dict):
        raise TraceIntegrityError(f"checkpoint {path} has a corrupt header")
    if header.get("version") != CHECKPOINT_VERSION:
        raise TraceIntegrityError(
            f"checkpoint {path} has unsupported version "
            f"{header.get('version')!r}"
        )
    wrong = [name for name in expected if header.get(name) != expected[name]]
    if wrong:
        raise TraceIntegrityError(
            f"checkpoint {path} was written for {wrong[0]} "
            f"{header.get(wrong[0])!r}, not {expected[wrong[0]]!r}"
        )
    if hashlib.sha256(data).hexdigest() != header.get("sha256"):
        raise TraceIntegrityError(
            f"checkpoint {path} payload hash mismatch "
            "(file corrupted or tampered with)"
        )
    return header, data


def config_fingerprint(config: GPUConfig) -> Dict[str, Any]:
    """The GPU configuration as a plain, hashable dictionary."""
    return dataclasses.asdict(config)


def config_hash(config: GPUConfig) -> str:
    """Stable hex digest identifying one GPU configuration."""
    text = _canonical_json(config_fingerprint(config))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def workload_fingerprint(recipe: SceneRecipe, frame: int = 0) -> Dict[str, Any]:
    """The workload recipe (plus animation frame) as a plain dictionary."""
    return {"recipe": dataclasses.asdict(recipe), "frame": frame}


def trace_key(config: GPUConfig, recipe: SceneRecipe, frame: int = 0) -> str:
    """Content hash keying one checkpointed trace.

    Any change to the GPU configuration or the scene recipe produces a
    different key, so stale checkpoints are never silently reused.
    """
    payload = {
        "version": CHECKPOINT_VERSION,
        "config": config_fingerprint(config),
        "workload": workload_fingerprint(recipe, frame),
    }
    text = _canonical_json(payload)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def verify_trace(trace: FrameTrace) -> None:
    """Check a trace's structural invariants; raise on any violation.

    The invariants are exactly the schedule-independent facts pass 1
    guarantees: the tile map covers the full screen grid, every quad
    sits in the tile that recorded it, and the per-tile streams agree
    with the :class:`RenderStats` totals.
    """
    config = trace.config
    expected_tiles = {
        (x, y)
        for x in range(config.tiles_x)
        for y in range(config.tiles_y)
    }
    actual_tiles = set(trace.tiles)
    if actual_tiles != expected_tiles:
        missing = len(expected_tiles - actual_tiles)
        extra = len(actual_tiles - expected_tiles)
        raise TraceIntegrityError(
            f"trace tile map does not cover the {config.tiles_x}x"
            f"{config.tiles_y} grid ({missing} missing, {extra} extra)"
        )
    for tile, entry in trace.tiles.items():
        columns = entry.columns
        if len(columns) and columns.tile != tile:
            raise TraceIntegrityError(
                f"quads recorded under tile {tile} claim tile "
                f"{columns.tile}"
            )
    if trace.total_quads != trace.stats.num_quads:
        raise TraceIntegrityError(
            f"trace holds {trace.total_quads} quads but RenderStats "
            f"counted {trace.stats.num_quads}"
        )
    covered = sum(
        entry.columns.covered_pixels for entry in trace.tiles.values()
    )
    if covered != trace.stats.pixels_shaded:
        raise TraceIntegrityError(
            f"trace covers {covered} pixels but RenderStats counted "
            f"{trace.stats.pixels_shaded}"
        )


def tile_digest(tile: TileCoord, entry: TileTraceEntry) -> str:
    """Semantic content hash of one tile's replayable work.

    Covers every replay-relevant field in canonical form (quads in
    stream order, LODs by ``repr`` so float identity is exact), so two
    structurally equal entries hash equally regardless of how — or in
    which process — they were produced.  Read straight off the quad
    columns; the payload is the one the ``Quad`` view would give.
    """
    columns = entry.columns
    flat = columns.lines.tolist()
    bounds = columns.line_offsets.tolist()
    payload = {
        "tile": list(tile),
        "fetch_lines": list(entry.fetch_lines),
        "fetch_cycles": entry.fetch_cycles,
        "quads": [
            [
                qx, qy, primitive_id, texture_id, COVERAGE_TUPLES[code],
                alu_cycles, flat[start:stop], repr(lod), blend,
            ]
            for (
                qx, qy, primitive_id, texture_id, code, alu_cycles,
                start, stop, lod, blend,
            ) in zip(
                columns.qx.tolist(), columns.qy.tolist(),
                columns.primitive_id.tolist(), columns.texture_id.tolist(),
                columns.coverage_code.tolist(), columns.alu_cycles.tolist(),
                bounds, bounds[1:], columns.lod.tolist(),
                columns.blend.tolist(),
            )
        ],
    }
    text = _canonical_json(payload)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def frame_digest(
    fingerprint: Dict[str, Any],
    vertex_lines: Sequence[int],
    tile_digests: Dict[TileCoord, str],
    num_quads: int,
    pixels_shaded: int,
) -> str:
    """The trace digest of a frame, from its per-tile digests.

    A hash chain: a frame prefix (the :func:`config_fingerprint` +
    vertex lines), then every tile's :func:`tile_digest` folded in
    *sorted tile order*, then the replay-relevant stats totals.
    Because the chain sorts the tiles itself and ``num_quads`` /
    ``pixels_shaded`` are order-independent sums, the digest can be
    built from tile digests gathered in any order — from a
    materialized trace or from a segment store's segments — and still
    arrive at the same value.
    """
    prefix = _canonical_json({
        "config": fingerprint,
        "vertex_lines": list(vertex_lines),
    })
    chain = hashlib.sha256(prefix.encode("ascii")).hexdigest()
    for tile in sorted(tile_digests):
        chain = hashlib.sha256(
            (chain + tile_digests[tile]).encode("ascii")
        ).hexdigest()
    stats = _canonical_json({
        "num_quads": num_quads,
        "pixels_shaded": pixels_shaded,
    })
    return hashlib.sha256((chain + stats).encode("ascii")).hexdigest()


def trace_digest(trace: FrameTrace) -> str:
    """Canonical content hash of a frame trace.

    Unlike a segment's payload hash, a function of the trace's
    *semantic* content (tiles sorted, quads in stream order, every
    replay-relevant field), so equal traces hash equally however they
    were stored.  Built with :func:`frame_digest`, which lets
    :meth:`TileChunkStore.frame_meta` compute it from the segments.
    """
    return frame_digest(
        config_fingerprint(trace.config),
        trace.vertex_lines,
        {tile: tile_digest(tile, entry) for tile, entry in trace.tiles.items()},
        trace.stats.num_quads,
        trace.stats.pixels_shaded,
    )


@lru_cache(maxsize=None)
def segment_layout(
    tiles_x: int, tiles_y: int
) -> Tuple[Tuple[Tuple[TileCoord, ...], ...], Dict[TileCoord, int]]:
    """A grid's segments and the segment index of every tile.

    Segment *i* holds the frame's z-order tiles ``16i .. 16i + 15``
    (``DEFAULT_GROUP_TILES``).  Built once per grid and shared, so
    neither the tuple nor the dictionary may be mutated.
    """
    order = z_order(tiles_x, tiles_y)
    segments = tuple(
        tuple(order[start:start + DEFAULT_GROUP_TILES])
        for start in range(0, len(order), DEFAULT_GROUP_TILES)
    )
    segment_of = {
        tile: index
        for index, tiles in enumerate(segments)
        for tile in tiles
    }
    return segments, segment_of


#: Integer encodings of a segment column by dtype code, smallest first.
#: A column is stored in the first one that holds every value it has,
#: so the choice is a function of the values alone; each is
#: little-endian or one byte wide, so a payload is the same on every
#: host.
_INT_DTYPES = ("|u1", "|i1", "<u2", "<i2", "<u4", "<i4", "<i8")
_INT_LIMITS = tuple(
    (int(info.min), int(info.max)) for info in map(np.iinfo, _INT_DTYPES)
)
#: The fixed encodings of the two columns that are not narrowed.
_LOD_DTYPE = "<f8"
_BLEND_DTYPE = "|u1"
#: The quad columns stored narrowed, in payload order; the fetch lines
#: follow them, then ``lod`` and ``blend``.
_INT_FIELDS = (
    "qx", "qy", "primitive_id", "texture_id", "coverage_code",
    "alu_cycles", "lines", "line_offsets",
)
_FIELDS_OF = attrgetter(*TileQuads.FIELDS)
#: Narrowed columns: the integer quad columns and the fetch lines.
_NARROWED = len(_INT_FIELDS) + 1
#: What a load widens each stored column back to: the render's dtypes.
_WIDENED = (np.int64,) * _NARROWED + (np.float64, bool)
#: Index-block words: the head (tile count, one dtype code per narrowed
#: column) and each tile's (x, y, fetch cycles, fetch lines, quads,
#: lines).
_HEAD_WORDS = 1 + _NARROWED
_TILE_WORDS = 6


def _narrow_code(values: np.ndarray) -> int:
    """The dtype code of the smallest encoding that holds ``values``."""
    if not len(values):
        return 0
    low, high = int(values.min()), int(values.max())
    for code, (floor, ceiling) in enumerate(_INT_LIMITS[:-1]):
        if floor <= low and high <= ceiling:
            return code
    return len(_INT_LIMITS) - 1  # <i8 holds any int64


def _pack_segment(
    tiles: Sequence[TileCoord], entries: Sequence[TileTraceEntry]
) -> bytes:
    """One segment's canonical payload; equal entries give equal bytes.

    An index block of little-endian int64 words: the tile count, the
    dtype code of each narrowed column, then per tile its ``x``, ``y``,
    fetch cycles and fetch-line, quad and line counts.  Then the
    columns, each concatenated over the tiles: the eight integer quad
    columns and the fetch lines in the smallest of
    :data:`_INT_DTYPES` that holds them, ``lod`` as ``<f8`` and
    ``blend`` as one byte per quad.  A segment has at least one tile.
    """
    columns = [entry.columns for entry in entries]
    fetch_lines = [entry.fetch_lines for entry in entries]
    fields = dict(zip(
        TileQuads.FIELDS,
        map(np.concatenate, zip(*map(_FIELDS_OF, columns))),
    ))
    stored = [fields[name] for name in _INT_FIELDS]
    stored.append(
        np.array(list(chain.from_iterable(fetch_lines)), dtype=np.int64)
    )
    codes = list(map(_narrow_code, stored))
    dtypes = [_INT_DTYPES[code] for code in codes]
    stored += [fields["lod"], fields["blend"]]
    dtypes += [_LOD_DTYPE, _BLEND_DTYPE]
    table = [
        (x, y, entry.fetch_cycles, len(lines), len(quads), quads.num_lines)
        for (x, y), entry, lines, quads in zip(
            tiles, entries, fetch_lines, columns
        )
    ]
    index = np.array(
        [len(entries), *codes, *chain.from_iterable(table)], dtype="<i8"
    )
    parts = [index.tobytes()]
    parts.extend(
        values.astype(dtype).tobytes()
        for values, dtype in zip(stored, dtypes)
    )
    return b"".join(parts)


def _unpack_segment(
    data: bytes,
) -> Tuple[List[TileCoord], List[TileTraceEntry]]:
    """The tiles and entries of a :func:`_pack_segment` payload.

    Every column is decoded with ``np.frombuffer``, widened back to the
    dtype the render produces (int64, float64, bool) and frozen once, so
    each tile's :class:`TileQuads` takes read-only slices of it as they
    are; the fetch lines become a list of ints.  So the entries equal
    rendered ones, dtypes included.  Raises :class:`TraceIntegrityError`
    when the layout does not add up: an unknown dtype code, a count that
    disagrees with the byte lengths or the line offsets, offsets that
    fall inside a tile, or trailing bytes.
    """
    if len(data) < _HEAD_WORDS * 8:
        raise TraceIntegrityError("segment payload has no index block")
    count, *codes = np.frombuffer(data, "<i8", _HEAD_WORDS).tolist()
    start = (_HEAD_WORDS + _TILE_WORDS * count) * 8
    if (
        count < 1 or len(data) < start
        or not all(0 <= code < len(_INT_DTYPES) for code in codes)
    ):
        raise TraceIntegrityError("segment payload has a corrupt index block")
    xs, ys, cycles, fetch_counts, quad_counts, line_counts = zip(
        *np.frombuffer(
            data, "<i8", _TILE_WORDS * count, _HEAD_WORDS * 8
        ).reshape(count, _TILE_WORDS).tolist()
    )
    if min(chain(fetch_counts, quad_counts, line_counts)) < 0:
        raise TraceIntegrityError("segment payload has a negative count")
    quads = sum(quad_counts)
    # qx .. alu_cycles, lines, line_offsets, fetch lines, lod, blend.
    lengths = (quads,) * 6 + (
        sum(line_counts), quads + count, sum(fetch_counts), quads, quads,
    )
    dtypes = [np.dtype(_INT_DTYPES[code]) for code in codes]
    dtypes += [np.dtype(_LOD_DTYPE), np.dtype(_BLEND_DTYPE)]
    sizes = [length * dtype.itemsize for length, dtype in zip(lengths, dtypes)]
    if start + sum(sizes) != len(data):
        raise TraceIntegrityError(
            "segment payload length disagrees with its index block"
        )
    decoded = []
    offset = start
    for dtype, length, size, widened in zip(dtypes, lengths, sizes, _WIDENED):
        column = np.frombuffer(data, dtype, length, offset).astype(widened)
        # Frozen once per segment: every tile's slices are read-only.
        column.flags.writeable = False
        decoded.append(column)
        offset += size
    (qx, qy, primitive_id, texture_id, code, alu, flat, offsets, fetch,
     lod, blend) = decoded
    quad_bounds = list(accumulate(quad_counts, initial=0))
    line_bounds = list(accumulate(line_counts, initial=0))
    fetch_bounds = list(accumulate(fetch_counts, initial=0))
    # Tile i's offsets sit at quad_bounds[i] + i .. quad_bounds[i + 1] + i:
    # they must start at 0, never fall and end at the tile's line count.
    firsts = np.array(quad_bounds[:-1]) + np.arange(count)
    steps = np.diff(offsets)
    steps[firsts[1:] - 1] = 0  # from one tile's last offset to the next's first
    if (
        offsets[firsts].any() or (steps < 0).any()
        or not np.array_equal(offsets[firsts + quad_counts], line_counts)
    ):
        raise TraceIntegrityError(
            "segment line offsets disagree with its line counts"
        )
    fetch = fetch.tolist()
    tiles = list(zip(xs, ys))
    entries = []
    append = entries.append
    for i, tile in enumerate(tiles):
        first, last = quad_bounds[i], quad_bounds[i + 1]
        if first == last:
            columns = TileQuads.empty()
        else:
            columns = TileQuads.frozen(
                tile, qx[first:last], qy[first:last],
                primitive_id[first:last], texture_id[first:last],
                code[first:last], alu[first:last], lod[first:last],
                blend[first:last], flat[line_bounds[i]:line_bounds[i + 1]],
                offsets[first + i:last + i + 1],
            )
        append(TileTraceEntry(
            fetch[fetch_bounds[i]:fetch_bounds[i + 1]], cycles[i], columns
        ))
    return tiles, entries


#: The type of every :class:`RenderStats` field, read off its default.
_STATS_TYPES = {
    field.name: type(field.default) for field in dataclasses.fields(RenderStats)
}
#: The config-fingerprint fields that fix a frame's tile grid.
_GRID_FIELDS = ("screen_width", "screen_height", "tile_size")


def _segments_of(fingerprint: Dict[str, Any]) -> Optional[tuple]:
    """The segments of a fingerprint's grid; ``None`` if it has none."""
    width, height, size = map(fingerprint.get, _GRID_FIELDS)
    if not all(type(n) is int and n > 0 for n in (width, height, size)):
        return None
    return segment_layout(-(-width // size), -(-height // size))[0]


def _sealed_stats(stats: Any) -> bool:
    """Whether a manifest's ``stats`` entry is a :class:`RenderStats`.

    The manifest comes from disk: only exactly the dataclass's fields,
    each of its field's type, count.
    """
    return isinstance(stats, dict) and _STATS_TYPES == {
        name: type(value) for name, value in stats.items()
    }


def _seal_of(manifest: Dict[str, Any]) -> str:
    """What a schedule record is bound to: the SHA-256 of everything a
    replay reads from a sealed manifest, the segment hashes and the
    vertex prologue.  The cached ``digest`` stays out: it is added after
    the seal."""
    text = _canonical_json([manifest["segments"], manifest["vertex_lines"]])
    return hashlib.sha256(text.encode("ascii")).hexdigest()


class TileChunkStore:
    """A frame's segment store: the one on-disk form of a frame.

    A frame is a directory of segments plus a ``frame.json`` manifest.
    Segment *i* holds the frame's z-order tiles ``16i .. 16i + 15``
    (:func:`segment_layout`) as one verified record keyed ``<trace
    key>:s<index>``, whose typed :func:`_pack_segment` payload's SHA-256
    is the segment's only hash: the header carries it, :meth:`save_tile`
    returns it and the manifest seals it.

    The manifest is the commit record.  A traversal of an unsealed frame
    renders every tile, saves every segment and then seals their hashes
    with the frame's :class:`RenderStats` (:meth:`seal`), so every
    sealed manifest carries them; a segment is read only under a seal.
    Both drivers read and write the store through one
    :class:`~repro.sim.stream.StreamingTileStream`, a batch runner
    keeping the whole traversal.  Every reader holds each segment to the
    manifest's hash and fails closed with :class:`TraceIntegrityError`
    on a mismatch.  :meth:`frame_meta` computes the trace digest on
    first request.

    Under a seal, a missing, torn or corrupt segment is a *cache miss*
    that re-renders its 16 tiles, never an error.  A write that fails
    with :class:`OSError` costs the file, never the replay.

    The store also keeps one schedule record per
    :func:`~repro.sim.replay.memory_key`, ``<memory key>.work``: the
    memory half of a replay of this frame, written by the replay that
    computed it (:meth:`save_work`) and read by any later replay of an
    equal key (:meth:`load_work`), in any process.  A record is read
    only under a sealed manifest and only if its header names this
    frame, its key and the current seal (:func:`_seal_of`); anything
    else is a miss that recomputes and rewrites it.
    """

    MANIFEST_FILENAME = "frame.json"

    def __init__(self, directory: os.PathLike, key: str):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.key = key

    # -- segments --------------------------------------------------------------

    def segment_path(self, index: int) -> Path:
        return self.directory / f"s{index:05d}.seg"

    def save_tile(
        self,
        index: int,
        tiles: Sequence[TileCoord],
        entries: Sequence[TileTraceEntry],
    ) -> str:
        """Atomically persist one whole segment; returns its payload hash.

        A write that fails with :class:`OSError` is tolerated: the
        entries in memory are still good and the hash is known, so the
        replay goes on, and the next reader re-renders and re-saves the
        segment.
        """
        data = _pack_segment(tiles, entries)
        try:
            return _write_record(
                self.segment_path(index), f"{self.key}:s{index}", data,
                key=self.key, segment=index,
            )
        except OSError:
            return hashlib.sha256(data).hexdigest()

    def load_tile(
        self, index: int, tiles: Sequence[TileCoord]
    ) -> Optional[Tuple[List[TileTraceEntry], str]]:
        """Load one verified segment, or ``None`` to mean "re-render it".

        Returns the segment's entries in ``tiles`` order with the
        payload hash its header carries.  A segment of other tiles is a
        miss.
        """
        path = self.segment_path(index)
        if not path.is_file():
            return None
        try:
            header, data = _read_record(
                path, f"{self.key}:s{index}", key=self.key, segment=index,
            )
            stored_tiles, entries = _unpack_segment(data)
        except TraceIntegrityError:
            return None
        if stored_tiles != list(tiles):
            return None
        return entries, header["sha256"]

    # -- the manifest ----------------------------------------------------------

    def manifest_path(self) -> Path:
        return self.directory / self.MANIFEST_FILENAME

    def manifest(self) -> Optional[Dict[str, Any]]:
        """The sealed manifest as written, or ``None`` while unsealed.

        Reads one small file and hashes nothing: this is what a replay
        consults.  An unreadable manifest, one of another key or
        version, one without the frame's :class:`RenderStats`, or one
        whose top-level ``num_quads``/``pixels_shaded`` disagree with
        them counts as unsealed; one that seals more or fewer segments
        than its grid has raises :class:`TraceIntegrityError`.
        """
        path = self.manifest_path()
        if not path.is_file():
            return None
        try:
            with open(path, "r", encoding="ascii") as handle:
                manifest = json.load(handle)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            return None
        if (
            not isinstance(manifest, dict)
            or manifest.get("version") != CHECKPOINT_VERSION
            or manifest.get("key") != self.key
            or not isinstance(manifest.get("config"), dict)
            or not isinstance(manifest.get("segments"), list)
            or not isinstance(manifest.get("vertex_lines"), list)
            or not isinstance(manifest.get("num_quads"), int)
            or not isinstance(manifest.get("pixels_shaded"), int)
            or not _sealed_stats(manifest.get("stats"))
            or manifest["num_quads"] != manifest["stats"]["num_quads"]
            or manifest["pixels_shaded"] != manifest["stats"]["pixels_shaded"]
            or _segments_of(manifest["config"]) is None
        ):
            return None
        segments = _segments_of(manifest["config"])
        if len(manifest["segments"]) != len(segments):
            raise TraceIntegrityError(
                f"manifest under {self.directory} seals "
                f"{len(manifest['segments'])} segments, the grid has "
                f"{len(segments)}"
            )
        return manifest

    def _write_manifest(self, manifest: Dict[str, Any]) -> None:
        """Write ``frame.json``; a write that fails with OSError is
        tolerated, since the next traversal seals again and the next
        :meth:`frame_meta` recomputes the digest."""
        try:
            _atomic_write(
                self.manifest_path(),
                (_canonical_json(manifest) + "\n").encode("ascii"),
            )
        except OSError:
            pass

    def frame_meta(self) -> Optional[Dict[str, Any]]:
        """The sealed manifest with the frame's trace ``digest``.

        The digest is :func:`frame_digest` over every segment's
        :func:`tile_digest`\\ s, computed on the first request and
        cached in the manifest.  ``None`` while the frame is unsealed or
        a segment is missing or unreadable; a segment whose verified
        payload hash differs from the manifest's raises
        :class:`TraceIntegrityError`.
        """
        manifest = self.manifest()
        if manifest is None or isinstance(manifest.get("digest"), str):
            return manifest
        tile_digests: Dict[TileCoord, str] = {}
        segments = _segments_of(manifest["config"])
        for index, (tiles, sealed) in enumerate(
            zip(segments, manifest["segments"])
        ):
            loaded = self.load_tile(index, tiles)
            if loaded is None:
                return None
            entries, content = loaded
            if content != sealed:
                raise TraceIntegrityError(
                    f"segment {index} under {self.directory} does not "
                    "match its sealed manifest"
                )
            for tile, entry in zip(tiles, entries):
                tile_digests[tile] = tile_digest(tile, entry)
        manifest["digest"] = frame_digest(
            manifest["config"], manifest["vertex_lines"], tile_digests,
            manifest["num_quads"], manifest["pixels_shaded"],
        )
        self._write_manifest(manifest)
        return manifest

    # -- schedule records ------------------------------------------------------

    def work_path(self, key: str) -> Path:
        return self.directory / f"{key}.work"

    def save_work(self, key: str, data: bytes) -> None:
        """Persist one memory half's record, bound to the current seal.

        ``key`` is the :func:`~repro.sim.replay.memory_key` it was
        computed under and ``data`` its
        :meth:`~repro.sim.replay.ScheduleWork.to_bytes` payload.  An
        unsealed frame keeps no record, and a write that fails with
        :class:`OSError` costs the file, never the replay.
        """
        try:
            manifest = self.manifest()
            if manifest is not None:
                _write_record(
                    self.work_path(key), f"{self.key}:w{key}", data,
                    key=self.key, work=key, seal=_seal_of(manifest),
                )
        except (OSError, TraceIntegrityError):
            pass

    def load_work(self, key: str) -> Optional[bytes]:
        """The payload of ``key``'s verified record, or ``None`` to mean
        "compute the memory half".

        Read only under a seal, and only a record of this frame and
        ``key`` that was written under the current seal: a missing,
        torn, corrupt, foreign-key or foreign-seal record is a miss.
        """
        path = self.work_path(key)
        if not path.is_file():
            return None
        try:
            manifest = self.manifest()
            if manifest is None:
                return None
            return _read_record(
                path, f"{self.key}:w{key}",
                key=self.key, work=key, seal=_seal_of(manifest),
            )[1]
        except TraceIntegrityError:
            return None

    def seal(
        self,
        config: GPUConfig,
        vertex_lines: Sequence[int],
        segment_hashes: Sequence[str],
        stats: RenderStats,
    ) -> None:
        """Commit a frame: seal every segment's hash and its ``stats``.

        Writes ``frame.json`` or, when another traversal sealed it
        meanwhile, cross-checks the segment hashes against it, raising
        :class:`TraceIntegrityError` on divergence.
        """
        manifest = self.manifest()
        if manifest is None:
            self._write_manifest({
                "version": CHECKPOINT_VERSION,
                "key": self.key,
                "config": config_fingerprint(config),
                "vertex_lines": list(vertex_lines),
                "num_quads": stats.num_quads,
                "pixels_shaded": stats.pixels_shaded,
                "segments": list(segment_hashes),
                "stats": dataclasses.asdict(stats),
            })
        elif manifest["segments"] != list(segment_hashes):
            raise TraceIntegrityError(
                f"segments under {self.directory} disagree with the "
                "manifest another traversal sealed"
            )


class SweepProgress:
    """Append-only journal of completed sweep rows for one campaign.

    Each line is ``{"campaign": ..., "design": ..., "row": {...}}``;
    rows of other campaigns sharing the file are ignored, and malformed
    lines (e.g. from a crash mid-append) are skipped rather than trusted.
    """

    FILENAME = "sweep_progress.jsonl"

    def __init__(self, directory: os.PathLike, campaign: str):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / self.FILENAME
        self.campaign = campaign

    def completed_rows(self) -> Dict[str, Dict[str, Any]]:
        """Design-point name -> recorded row dict, for this campaign.

        A crash mid-append (power cut, SIGKILL) legitimately leaves a
        partial trailing line; it is dropped with a warning — the row
        it would have recorded is simply recomputed.  A malformed line
        *before* the end means something else scribbled on the journal;
        it is skipped with a louder warning, but one bad line never
        costs the rows around it.
        """
        rows: Dict[str, Dict[str, Any]] = {}
        if not self.path.is_file():
            return rows
        with open(self.path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        for index, line in enumerate(lines):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                record = json.loads(stripped)
            except json.JSONDecodeError:
                warnings.warn(
                    f"dropping partial trailing line in sweep journal "
                    f"{self.path} (crash mid-append?); its row will be "
                    f"recomputed" if index == len(lines) - 1 else
                    f"skipping malformed line {index + 1} in sweep "
                    f"journal {self.path}",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            if (
                isinstance(record, dict)
                and record.get("campaign") == self.campaign
                and isinstance(record.get("row"), dict)
                and isinstance(record.get("design"), str)
            ):
                rows[record["design"]] = record["row"]
        return rows

    def record(self, design: str, row: Dict[str, Any]) -> None:
        """Append one completed row; flushed so a crash loses at most it."""
        line = json.dumps(
            {"campaign": self.campaign, "design": design, "row": row},
            sort_keys=True,
        )
        fault = fault_point(SITE_JOURNAL_RECORD)
        if fault == KIND_PARTIAL_LINE:
            # Die mid-append: flush a prefix with no newline, exactly
            # the state a power cut leaves, then kill the campaign.
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line[: max(1, len(line) // 2)])
                handle.flush()
                os.fsync(handle.fileno())
            raise InjectedKill(
                f"injected kill mid-append of row {design!r}"
            )
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())


def write_run_manifest(path: Path, manifest: RunManifest) -> None:
    """Archive a campaign manifest as JSON beside its journal, through
    the atomic writer, so a crash while archiving never leaves a
    truncated manifest for the next resume to read."""
    text = json.dumps(manifest.as_dict(), indent=2, sort_keys=True) + "\n"
    _atomic_write(path, text.encode("utf-8"))


def campaign_key(config: GPUConfig, games, baseline_name: str) -> str:
    """Hash identifying one sweep campaign for resume matching.

    Includes the GPU configuration, the game list and the baseline, but
    *not* the full grid: a resumed run may extend the grid and still
    reuse every previously completed point.
    """
    text = _canonical_json({
        "config": config_fingerprint(config),
        "games": list(games),
        "baseline": baseline_name,
    })
    return hashlib.sha256(text.encode("ascii")).hexdigest()
