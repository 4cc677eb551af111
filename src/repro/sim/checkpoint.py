"""Durable frame-trace checkpoints and sweep progress.

Pass 1 (the functional render) is the expensive half of the two-pass
economy; a crashed campaign that throws its traces away pays it again.
This module makes pass-1 results durable:

* :func:`trace_key` — a content hash of ``(GPUConfig, workload recipe,
  frame)``, so a checkpoint is only ever reused for the exact workload
  and configuration that produced it.
* :class:`TraceCheckpointStore` — serializes a
  :class:`~repro.sim.driver.FrameTrace` to disk and verifies it on load:
  a payload hash catches bit-level tampering, and structural invariants
  (full tile coverage, quad counts against :class:`RenderStats`) catch
  semantically broken traces that still unpickle.  Any verification
  failure raises :class:`~repro.errors.TraceIntegrityError`.
* :class:`SweepProgress` — an append-only journal of completed sweep
  rows, keyed by a campaign hash, so a re-run with ``--resume`` skips
  every design point that already finished.
* :func:`trace_digest` / :func:`frame_digest` — the canonical
  *semantic* content hash of a frame trace, built as a hash chain over
  per-tile digests (sorted tile order) so it can be computed from tile
  digests collected one at a time without ever materializing the
  frame.
* :class:`TileChunkStore` — the segment store the streaming dataflow
  checkpoints through: a frame is a directory of
  ``DEFAULT_GROUP_TILES``-tile segments in the frame's z-order, each
  one verified record, plus a ``frame.json`` manifest sealing every
  segment's :func:`segment_hash`.  The trace digest is computed from
  the segments when someone asks for it, never on the save path.

Checkpoint file layout (version 3), shared by ``.trace`` files and
segments: one ASCII JSON header line holding the key, payload SHA-256
and summary fields, a newline, then the raw pickle payload.  Both
stores write it through one atomic writer (temp file + ``os.replace``,
so a crash mid-save never leaves a half-written checkpoint that a later
``--resume`` would trust) and verify it through one reader; those two
functions hold the ``checkpoint.save`` and ``checkpoint.load`` fault
sites.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import struct
import tempfile
import warnings
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import GPUConfig
from repro.core.tile_order import TileCoord, z_order
from repro.errors import TraceIntegrityError
from repro.raster.fragment import COVERAGE_TUPLES, TileQuads
from repro.sim.driver import DEFAULT_GROUP_TILES, FrameTrace, TileTraceEntry
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
from repro.texture.sampler import Sampler
from repro.workloads.recipe import SceneRecipe

#: Version 3: a streamed frame is a directory of 16-tile segments plus
#: a manifest.  Version-2 per-tile chunks and ``.trace`` files, and
#: version-1 ``Quad``-list files, load as cache misses.
CHECKPOINT_VERSION = 3
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
    path: Path, fault_key: str, payload: Any, **header: Any
) -> None:
    """Atomically write one checkpoint record: header line, then pickle.

    The header gains the format version and the payload's SHA-256.
    """
    data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    header["version"] = CHECKPOINT_VERSION
    header["sha256"] = hashlib.sha256(data).hexdigest()
    _atomic_write(path, _canonical_json(header).encode("ascii") + b"\n", data)
    if fault_point(SITE_CHECKPOINT_SAVE, key=fault_key) == KIND_TORN_WRITE:
        # Simulated torn write: the rename survived but the tail of
        # the payload never hit the platter.  The reader must detect it.
        _truncate_file(path, 0.5)


def _read_record(
    path: Path, fault_key: str, kind: type, **expected: Any
) -> Tuple[Dict[str, Any], Any]:
    """Read and verify one checkpoint record; returns (header, payload).

    Raises :class:`TraceIntegrityError` unless the header is a JSON
    object of this version whose ``expected`` fields match, the
    payload's SHA-256 is the header's, and the payload unpickles to a
    ``kind``.
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
    try:
        payload = pickle.loads(data)
    except Exception as error:
        raise TraceIntegrityError(
            f"checkpoint {path} payload does not unpickle: {error}"
        ) from error
    if not isinstance(payload, kind):
        raise TraceIntegrityError(
            f"checkpoint {path} holds a {type(payload).__name__}, "
            f"not a {kind.__name__}"
        )
    return header, payload


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


def trace_key(
    config: GPUConfig,
    recipe: SceneRecipe,
    frame: int = 0,
    sampler: Optional[Sampler] = None,
) -> str:
    """Content hash keying one checkpointed trace.

    Any change to the GPU configuration, the scene recipe or the
    texture sampler produces a different key, so stale checkpoints are
    never silently reused.  The default sampler adds nothing to the
    hashed payload, so its keys are the ones written before samplers
    were keyed.
    """
    payload = {
        "version": CHECKPOINT_VERSION,
        "config": config_fingerprint(config),
        "workload": workload_fingerprint(recipe, frame),
    }
    if sampler is not None and sampler != Sampler():
        payload["sampler"] = {
            "filter_mode": sampler.filter_mode.value,
            "max_anisotropy": sampler.max_anisotropy,
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

    Unlike the pickle-payload hash of :class:`TraceCheckpointStore`,
    this digest is a function of the trace's *semantic* content (tiles
    sorted, quads in stream order, every replay-relevant field), so two
    structurally equal traces hash equally regardless of how they were
    serialized.  Built with :func:`frame_digest`, which is what lets
    :meth:`TileChunkStore.digest` compute the same digest from a
    streamed frame's segments.
    """
    return frame_digest(
        config_fingerprint(trace.config),
        trace.vertex_lines,
        {tile: tile_digest(tile, entry) for tile, entry in trace.tiles.items()},
        trace.stats.num_quads,
        trace.stats.pixels_shaded,
    )


class TraceCheckpointStore:
    """Disk-backed, integrity-checked store of frame traces."""

    def __init__(self, directory: os.PathLike):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> Path:
        return self.directory / f"{key}.trace"

    def contains(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def save(self, key: str, trace: FrameTrace) -> Path:
        """Atomically persist ``trace`` under ``key``."""
        path = self.path_for(key)
        _write_record(
            path, key, trace, key=key, num_quads=trace.stats.num_quads,
            num_tiles=len(trace.tiles),
        )
        return path

    def load(self, key: str) -> FrameTrace:
        """Load and fully verify the trace stored under ``key``.

        Raises :class:`TraceIntegrityError` (a
        :class:`~repro.errors.CheckpointError`) for anything short of a
        byte-identical, structurally sound checkpoint; callers treat
        that as a cache miss and re-render, never as a fatal error.
        """
        path = self.path_for(key)
        header, trace = _read_record(path, key, FrameTrace, key=key)
        if len(trace.tiles) != header.get("num_tiles"):
            raise TraceIntegrityError(
                f"checkpoint {path} tile count disagrees with its header"
            )
        verify_trace(trace)
        return trace


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


#: Per-entry framing of :func:`segment_hash`: the tile, the fetch
#: cycles and the lengths that delimit the variable-size fields.
_ENTRY_HEAD = struct.Struct("<6q")


def segment_hash(
    tiles: Sequence[TileCoord], entries: Sequence[TileTraceEntry]
) -> str:
    """Content identity of one segment, cheap enough for every save.

    SHA-256 over each entry's tile, fetch cycles, fetch lines and the
    raw bytes of its quad columns (all int64, float64 or bool), with
    the lengths that delimit them.  Unlike pickle bytes it survives a
    pickle round trip, and unlike :func:`tile_digest` it builds no
    per-quad Python objects.
    """
    sha = hashlib.sha256()
    update = sha.update
    pack = _ENTRY_HEAD.pack
    fields = TileQuads.FIELDS
    for (x, y), entry in zip(tiles, entries):
        columns = entry.columns
        fetch_lines = entry.fetch_lines
        update(pack(
            x, y, entry.fetch_cycles, len(fetch_lines), len(columns),
            columns.num_lines,
        ))
        update(np.asarray(fetch_lines, dtype=np.int64).tobytes())
        for name in fields:
            update(getattr(columns, name).tobytes())
    return sha.hexdigest()


class TileChunkStore:
    """The streamed frame's segment store.

    A frame is a directory of segments plus a ``frame.json`` manifest.
    Segment *i* holds the frame's z-order tiles ``16i .. 16i + 15``
    (:func:`segment_layout`) as one verified record — the same
    header-line + pickle layout, atomic replace and ``checkpoint.save``
    / ``checkpoint.load`` fault sites as :class:`TraceCheckpointStore`,
    keyed ``<trace key>:s<index>`` — whose header carries the
    segment's tiles and :func:`segment_hash`.

    The first full traversal seals the manifest: config fingerprint,
    vertex prologue, quad and pixel totals and every segment's content
    hash.  Later traversals hold each segment they load or re-render
    to the manifest's hash and fail closed with
    :class:`TraceIntegrityError` on a mismatch.  The semantic trace
    digest is not on the save path: :meth:`frame_meta` and
    :meth:`digest` compute it from the verified segments on first
    request and cache it in the manifest.

    A missing, torn or corrupt segment is a *cache miss* — the caller
    re-renders that segment's tiles — never an error, mirroring the
    trace store's self-healing contract at segment granularity.  The
    first design point of a streaming campaign renders the frame once
    and saves it segment by segment; every later design point replays
    the game from segments, restoring the render-once economy while
    peak memory stays O(segments in flight).
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
        """Atomically persist one whole segment; returns its content hash."""
        content = segment_hash(tiles, entries)
        _write_record(
            self.segment_path(index), f"{self.key}:s{index}", list(entries),
            key=self.key, segment=index, tiles=[list(tile) for tile in tiles],
            content=content,
        )
        return content

    def load_tile(
        self, index: int, tiles: Sequence[TileCoord]
    ) -> Optional[Tuple[List[TileTraceEntry], str]]:
        """Load one verified segment, or ``None`` to mean "re-render it".

        Returns the segment's entries in ``tiles`` order with the
        content hash its header carries.
        """
        loaded = self._read_segment(index)
        if loaded is None:
            return None
        header, entries = loaded
        if header["tiles"] != [list(tile) for tile in tiles]:
            return None
        return entries, header["content"]

    def _read_segment(
        self, index: int
    ) -> Optional[Tuple[Dict[str, Any], List[TileTraceEntry]]]:
        """One segment's verified ``(header, entries)``, or ``None``."""
        path = self.segment_path(index)
        if not path.is_file():
            return None
        try:
            header, entries = _read_record(
                path, f"{self.key}:s{index}", list, key=self.key,
                segment=index,
            )
        except TraceIntegrityError:
            return None
        tiles = header.get("tiles")
        if (
            not isinstance(header.get("content"), str)
            or not isinstance(tiles, list)
            or len(tiles) != len(entries)
            or not all(isinstance(entry, TileTraceEntry) for entry in entries)
        ):
            return None
        return header, entries

    # -- the manifest ----------------------------------------------------------

    def manifest_path(self) -> Path:
        return self.directory / self.MANIFEST_FILENAME

    def manifest(self) -> Optional[Dict[str, Any]]:
        """The sealed manifest as written, or ``None`` while unsealed.

        Reads one small file and hashes nothing: this is what a replay
        consults.  An unreadable manifest, or one of another key or
        version, counts as unsealed.
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
        ):
            return None
        return manifest

    def _write_manifest(self, manifest: Dict[str, Any]) -> None:
        _atomic_write(
            self.manifest_path(),
            (_canonical_json(manifest) + "\n").encode("ascii"),
        )

    def vertex_lines(self) -> Optional[List[int]]:
        """The frame's vertex prologue, once a full traversal sealed it."""
        manifest = self.manifest()
        return None if manifest is None else list(manifest["vertex_lines"])

    def frame_meta(self) -> Optional[Dict[str, Any]]:
        """The sealed manifest with the frame's trace ``digest``.

        The digest is :func:`frame_digest` over every segment's
        :func:`tile_digest`\\ s, computed on the first request and
        cached in the manifest.  ``None`` while the frame is unsealed or
        a segment is missing or unreadable; a segment whose recomputed
        :func:`segment_hash` differs from the manifest's raises
        :class:`TraceIntegrityError`.
        """
        manifest = self.manifest()
        if manifest is None or isinstance(manifest.get("digest"), str):
            return manifest
        tile_digests: Dict[TileCoord, str] = {}
        for index, sealed in enumerate(manifest["segments"]):
            loaded = self._read_segment(index)
            if loaded is None:
                return None
            header, entries = loaded
            tiles = [tuple(tile) for tile in header["tiles"]]
            if segment_hash(tiles, entries) != sealed:
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

    def digest(self) -> Optional[str]:
        """The frame's trace digest, or ``None`` while unsealed."""
        meta = self.frame_meta()
        return None if meta is None else meta["digest"]

    def seal(
        self,
        config: GPUConfig,
        vertex_lines: Sequence[int],
        segment_hashes: Sequence[str],
        num_quads: int,
        pixels_shaded: int,
    ) -> None:
        """Seal one full traversal's segments into the manifest.

        Writes ``frame.json`` or, when another traversal sealed it
        meanwhile, cross-checks the segment hashes against it and
        raises :class:`TraceIntegrityError` on divergence.
        """
        existing = self.manifest()
        if existing is None:
            self._write_manifest({
                "version": CHECKPOINT_VERSION,
                "key": self.key,
                "config": config_fingerprint(config),
                "vertex_lines": list(vertex_lines),
                "num_quads": num_quads,
                "pixels_shaded": pixels_shaded,
                "segments": list(segment_hashes),
            })
        elif existing["segments"] != list(segment_hashes):
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
                if index == len(lines) - 1:
                    warnings.warn(
                        f"dropping partial trailing line in sweep journal "
                        f"{self.path} (crash mid-append?); its row will "
                        f"be recomputed",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                else:
                    warnings.warn(
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


def read_manifest(path: os.PathLike) -> Optional[Dict[str, Any]]:
    """Load a previously written run manifest, or ``None`` if absent."""
    path = Path(path)
    if not path.is_file():
        return None
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
