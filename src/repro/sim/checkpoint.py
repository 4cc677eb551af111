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
* :class:`TileChunkStore` — the tile-granular checkpoint the streaming
  dataflow uses: one verified chunk per tile coordinate plus a frame
  meta record whose hash chain terminates in the trace digest, so a
  chunk set reassembles (and cross-checks) to exactly the trace the
  batch path would have checkpointed.

Checkpoint file layout (version 2), shared by ``.trace`` files and tile
chunks: one ASCII JSON header line holding the key, payload SHA-256 and
summary counts, a newline, then the raw pickle payload.  Both stores
write it through one atomic writer (temp file + ``os.replace``, so a
crash mid-save never leaves a half-written checkpoint that a later
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
import tempfile
import warnings
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.config import GPUConfig
from repro.core.tile_order import TileCoord
from repro.errors import TraceIntegrityError
from repro.raster.fragment import COVERAGE_TUPLES
from repro.sim.driver import FrameTrace, TileTraceEntry
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
from repro.workloads.recipe import SceneRecipe

#: Version 2: tile entries pickle as quad columns (:class:`TileQuads`)
#: rather than ``Quad`` lists; version-1 files load as cache misses.
CHECKPOINT_VERSION = 2
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


def trace_key(config: GPUConfig, recipe: SceneRecipe, frame: int = 0) -> str:
    """Content hash keying one checkpointed trace.

    Any change to the GPU configuration or the scene recipe produces a
    different key, so stale checkpoints are never silently reused.
    """
    text = _canonical_json({
        "version": CHECKPOINT_VERSION,
        "config": config_fingerprint(config),
        "workload": workload_fingerprint(recipe, frame),
    })
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
    config: GPUConfig,
    vertex_lines: Sequence[int],
    tile_digests: Dict[TileCoord, str],
    num_quads: int,
    pixels_shaded: int,
) -> str:
    """The trace digest of a frame, from its per-tile digests.

    A hash chain: a frame prefix (config fingerprint + vertex lines),
    then every tile's :func:`tile_digest` folded in *sorted tile
    order*, then the replay-relevant stats totals.  Because the chain
    sorts the tiles itself and ``num_quads`` / ``pixels_shaded`` are
    order-independent sums, a streaming producer can collect tile
    digests in the replay's traversal order and still arrive at the
    exact digest a materialized trace hashes to.
    """
    prefix = _canonical_json({
        "config": config_fingerprint(config),
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
    the streaming dataflow compute the same digest without ever
    holding the whole frame.
    """
    return frame_digest(
        trace.config,
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


class TileChunkStore:
    """Tile-granular trace checkpoints, hash-chained to the trace digest.

    The streaming dataflow's durable form of pass 1: one verified chunk
    per tile coordinate (the same record writer and reader as
    :class:`TraceCheckpointStore`, so the same header-line + pickle
    layout, atomic replace and fault sites) plus a ``frame.json`` record
    holding the vertex prologue and the per-tile hash chain whose final
    link is exactly :func:`trace_digest` of the reassembled trace.

    A missing, truncated or corrupt chunk is a *cache miss* — the
    caller re-renders that one tile — never an error, mirroring the
    trace store's self-healing contract at tile granularity.  The first
    design point of a streaming campaign therefore renders each tile
    once and chunks it; every later design point replays the same game
    from chunks, restoring the render-once economy while peak memory
    stays O(tiles-in-flight).
    """

    META_FILENAME = "frame.json"

    def __init__(self, directory: os.PathLike, key: str):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.key = key

    # -- per-tile chunks -------------------------------------------------------

    def chunk_path(self, tile: TileCoord) -> Path:
        return self.directory / f"t{tile[0]:03d}_{tile[1]:03d}.chunk"

    def _fault_key(self, tile: TileCoord) -> str:
        return f"{self.key}:{tile[0]},{tile[1]}"

    def save_tile(self, tile: TileCoord, entry: TileTraceEntry) -> str:
        """Atomically persist one tile's entry; returns its tile digest."""
        digest = tile_digest(tile, entry)
        _write_record(
            self.chunk_path(tile), self._fault_key(tile), entry,
            key=self.key, tile=list(tile), tile_digest=digest,
            num_quads=len(entry.columns),
        )
        return digest

    def load_tile(
        self, tile: TileCoord
    ) -> Optional[Tuple[TileTraceEntry, str]]:
        """Load one verified chunk, or ``None`` to mean "re-render me".

        Returns ``(entry, tile_digest)`` so the caller's running frame
        digest can reuse the chunk's verified hash instead of rehashing
        the entry on every replay.
        """
        path = self.chunk_path(tile)
        if not path.is_file():
            return None
        try:
            header, entry = _read_record(
                path, self._fault_key(tile), TileTraceEntry,
                key=self.key, tile=list(tile),
            )
        except TraceIntegrityError:
            return None
        digest = header.get("tile_digest")
        return (entry, digest) if isinstance(digest, str) else None

    # -- frame meta ------------------------------------------------------------

    def meta_path(self) -> Path:
        return self.directory / self.META_FILENAME

    def frame_meta(self) -> Optional[Dict[str, Any]]:
        """The sealed frame record, or ``None`` while incomplete/corrupt."""
        path = self.meta_path()
        if not path.is_file():
            return None
        try:
            with open(path, "r", encoding="ascii") as handle:
                meta = json.load(handle)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            return None
        if not isinstance(meta, dict) or meta.get("key") != self.key:
            return None
        return meta

    def vertex_lines(self) -> Optional[List[int]]:
        """The frame's vertex prologue, once a full traversal sealed it."""
        meta = self.frame_meta()
        if meta is None:
            return None
        lines = meta.get("vertex_lines")
        return list(lines) if isinstance(lines, list) else None

    def digest(self) -> Optional[str]:
        """The sealed trace digest, or ``None`` while incomplete."""
        meta = self.frame_meta()
        return meta.get("digest") if meta else None

    def write_frame_meta(
        self,
        digest: str,
        vertex_lines: Sequence[int],
        tile_digests: Dict[TileCoord, str],
        num_quads: int,
        pixels_shaded: int,
    ) -> Path:
        """Atomically seal the frame: chain record + final digest."""
        chain = [
            {"tile": list(tile), "digest": tile_digests[tile]}
            for tile in sorted(tile_digests)
        ]
        meta = _canonical_json({
            "version": CHECKPOINT_VERSION,
            "key": self.key,
            "digest": digest,
            "vertex_lines": list(vertex_lines),
            "num_quads": num_quads,
            "pixels_shaded": pixels_shaded,
            "chain": chain,
        })
        path = self.meta_path()
        _atomic_write(path, (meta + "\n").encode("ascii"))
        return path

    def seal(
        self,
        config: GPUConfig,
        vertex_lines: Sequence[int],
        tile_digests: Dict[TileCoord, str],
        num_quads: int,
        pixels_shaded: int,
    ) -> str:
        """Seal one full tile traversal; returns the frame's digest.

        Writes the frame meta — vertex prologue, per-tile hash chain,
        final trace digest — or, when a previous traversal already
        sealed it, cross-checks the digest against it and raises
        :class:`TraceIntegrityError` on divergence.
        """
        digest = frame_digest(
            config, vertex_lines, tile_digests, num_quads, pixels_shaded
        )
        existing = self.frame_meta()
        if existing is None:
            self.write_frame_meta(
                digest=digest,
                vertex_lines=vertex_lines,
                tile_digests=tile_digests,
                num_quads=num_quads,
                pixels_shaded=pixels_shaded,
            )
        elif existing.get("digest") != digest:
            raise TraceIntegrityError(
                f"chunked frame under {self.directory} reassembled to "
                f"digest {digest}, but its sealed meta records "
                f"{existing.get('digest')!r}"
            )
        return digest


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
