"""Numeric model inputs: tag vocabulary, embeddings, boxes and token batches.

Everything here is deterministic and padding-explicit.  A TokenBatch is the
unit handed to masking and loss code: per sample a run of real tokens
(modality ENTITY or IMG) followed by all-zero PAD slots.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .model import Entity, MinBox, Tile, tag_key

MODALITY_PAD = 0
MODALITY_ENTITY = 1
MODALITY_IMG = 2

VOCAB_MAX_SIZE = 12500
VOCAB_MIN_OCCURRENCES = 10
PATCH_GRID = 14
BATCH_MAGIC = b"GJTB"
BATCH_VERSION = 1


class TokenError(ValueError):
    """A malformed embedding table, token-batch dump or ``.ids`` sidecar."""


@dataclass(frozen=True)
class TagVocab:
    """Ordered canonical key=value strings, most frequent first."""

    tags: tuple[str, ...]


def prune_vocab(counts: Mapping[str, int]) -> TagVocab:
    """Keep tags seen at least VOCAB_MIN_OCCURRENCES times, most frequent first.

    At most VOCAB_MAX_SIZE survive.  Ties sort lexicographically so two
    builds of the same corpus agree.
    """
    kept = [(tag, c) for tag, c in counts.items() if c >= VOCAB_MIN_OCCURRENCES]
    kept.sort(key=lambda item: (-item[1], item[0]))
    return TagVocab(tags=tuple(tag for tag, _ in kept[:VOCAB_MAX_SIZE]))


# ------------------------------------------------------------- embeddings


@dataclass
class EmbeddingTable:
    dim: int
    vectors: dict[str, np.ndarray]

    def __post_init__(self):
        for tag, vec in self.vectors.items():
            if vec.shape != (self.dim,):
                raise ValueError(f"vector for {tag!r} has shape {vec.shape}, want ({self.dim},)")
            if not np.all(np.isfinite(vec)):
                raise ValueError(f"vector for {tag!r} is not finite")


def load_embeddings(path: str) -> EmbeddingTable:
    """Text table: header ``d=<int>``, then ``key=value<TAB>f1 f2 ... fd``.

    A bad header or row, a repeated tag, or bytes that are not UTF-8, raise
    TokenError at ``path:line``.
    """
    from .tef import utf8_lines

    vectors: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        lines = utf8_lines(fh, path, TokenError)
        header = next(lines, "").strip()
        dim = int(header[2:]) if header.startswith("d=") and header[2:].isdecimal() else 0
        if dim < 1:
            raise TokenError(f"{path}:1: expected 'd=<int>' header with d >= 1, got {header!r}")
        for lineno, line in enumerate(lines, start=2):
            if not line.strip():
                continue
            if "\t" not in line:
                raise TokenError(f"{path}:{lineno}: missing tab separator")
            tag, values = line.rstrip("\n").split("\t", 1)
            if tag in vectors:
                raise TokenError(f"{path}:{lineno}: duplicate tag {tag!r}")
            try:
                vec = np.array([float(x) for x in values.split()], dtype=np.float64)
            except ValueError:
                raise TokenError(f"{path}:{lineno}: vector for {tag!r} has a value that is not a float") from None
            if vec.shape != (dim,):
                raise TokenError(f"{path}:{lineno}: expected {dim} floats, got {vec.shape[0]}")
            if not np.isfinite(vec).all():
                raise TokenError(f"{path}:{lineno}: vector for {tag!r} is not finite")
            vectors[tag] = vec
    return EmbeddingTable(dim=dim, vectors=vectors)


def save_embeddings(table: EmbeddingTable, path: str) -> None:
    from .tef import atomic_write_bytes

    lines = [f"d={table.dim}"]
    for tag in sorted(table.vectors):
        lines.append(tag + "\t" + " ".join(repr(float(x)) for x in table.vectors[tag]))
    atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("utf-8"))


@dataclass
class EmbedDiagnostics:
    entities_without_vectors: int = 0


def entity_embed_mean(entity: Entity, table: EmbeddingTable) -> np.ndarray:
    """Unweighted mean of the entity's in-table tag vectors; zeros if none hit."""
    hits = [table.vectors[t] for t in (tag_key(k, v) for k, v in entity.tags) if t in table.vectors]
    if not hits:
        return np.zeros(table.dim, dtype=np.float64)
    return np.mean(hits, axis=0)


# ------------------------------------------------------------------ boxes


def posenc_input(box: MinBox) -> np.ndarray:
    """Corners flattened to 8 reals, wound from the corner with minimal (y, x)."""
    corners = box.corners
    start = min(range(4), key=lambda i: (corners[i][1], corners[i][0]))
    ordered = corners[start:] + corners[:start]
    return np.array([c for corner in ordered for c in corner], dtype=np.float64)


def image_patch_boxes() -> list[MinBox]:
    """Row-major PATCH_GRID × PATCH_GRID axis-aligned patch squares covering the unit tile."""
    boxes = []
    grid = PATCH_GRID
    for row in range(grid):
        y0, y1 = row / grid, (row + 1) / grid
        for col in range(grid):
            x0, x1 = col / grid, (col + 1) / grid
            boxes.append(MinBox(corners=((x0, y0), (x1, y0), (x1, y1), (x0, y1))))
    return boxes


# ----------------------------------------------------------- token batches


@dataclass
class TokenBatch:
    """Padded batch of per-tile token sequences.

    modality: (n, max_len) int32 codes; boxes: (n, max_len, 8) float32;
    payload: (n, max_len, d) float32; valid_len: (n,) int32.  Slots at or
    beyond valid_len are PAD and all-zero.  ids are bookkeeping only and do
    not survive serialization.
    """

    modality: np.ndarray
    boxes: np.ndarray
    payload: np.ndarray
    valid_len: np.ndarray
    ids: tuple[str, ...] = ()

    def __post_init__(self):
        n, max_len = self.modality.shape
        if self.boxes.shape != (n, max_len, 8):
            raise ValueError(f"boxes shape {self.boxes.shape} does not match ({n},{max_len},8)")
        if self.payload.shape[:2] != (n, max_len):
            raise ValueError(f"payload shape {self.payload.shape} does not match batch")
        if self.valid_len.shape != (n,):
            raise ValueError("valid_len must have one entry per sample")
        if not self.ids:
            self.ids = tuple(str(i) for i in range(n))
        elif len(self.ids) != n:
            raise ValueError("ids must have one entry per sample")

    @property
    def size(self) -> int:
        return self.modality.shape[0]

    @property
    def max_len(self) -> int:
        return self.modality.shape[1]

    @property
    def dim(self) -> int:
        return self.payload.shape[2]

    def valid_mask(self) -> np.ndarray:
        return np.arange(self.max_len)[None, :] < self.valid_len[:, None]


def assemble_token_batch(
    tiles: Sequence[Tile],
    table: EmbeddingTable,
    include_image: bool,
    diagnostics: EmbedDiagnostics | None = None,
) -> TokenBatch:
    """One ENTITY token per entity, then the image-patch IMG tokens.

    IMG payloads stay zero; the slot exists so externally computed image
    features can be spliced in.  Entities without an in-table tag are
    counted in diagnostics.  Every entity must carry a min-box, which the
    processing stage guarantees.
    """
    if not tiles:
        raise ValueError("cannot assemble an empty batch")
    for t in tiles:
        if not t.entities:
            raise ValueError(f"tile {t.id.key} has no entities; filter upstream")
    patch_boxes = image_patch_boxes() if include_image else []
    patch_rows = np.array([posenc_input(pb) for pb in patch_boxes], dtype=np.float32).reshape(-1, 8)
    lens = [len(t.entities) + len(patch_rows) for t in tiles]
    n, max_len, d = len(tiles), max(lens), table.dim
    modality = np.zeros((n, max_len), dtype=np.int32)
    boxes = np.zeros((n, max_len, 8), dtype=np.float32)
    payload = np.zeros((n, max_len, d), dtype=np.float32)
    # Mean vector per distinct sequence of in-table tags, in the entity's tag
    # order, so each is the same np.mean over the same rows as a fresh call.
    means: dict[tuple[str, ...], np.ndarray] = {}
    for i, t in enumerate(tiles):
        entity_boxes, entity_means = [], []
        for e in t.entities:
            if e.minbox is None:
                raise ValueError(f"entity {e.id} in tile {t.id.key} has no min-box")
            entity_boxes.append(posenc_input(e.minbox))
            hits = tuple(tag for tag in (tag_key(k, v) for k, v in e.tags) if tag in table.vectors)
            if not hits and diagnostics is not None:
                diagnostics.entities_without_vectors += 1
            mean = means.get(hits)
            if mean is None:
                mean = means[hits] = entity_embed_mean(e, table)
            entity_means.append(mean)
        k = len(t.entities)
        modality[i, :k] = MODALITY_ENTITY
        boxes[i, :k] = entity_boxes
        payload[i, :k] = entity_means
        modality[i, k : lens[i]] = MODALITY_IMG
        boxes[i, k : lens[i]] = patch_rows
    return TokenBatch(
        modality=modality,
        boxes=boxes,
        payload=payload,
        valid_len=np.array(lens, dtype=np.int32),
        ids=tuple(t.id.key for t in tiles),
    )


def dump_token_batch(batch: TokenBatch, path: str) -> None:
    """Self-describing little-endian dump; round-trips bit-exactly.

    Each array goes to the file as it is when it is already contiguous
    little-endian float32 (boxes and payload), so the batch is not copied.
    """
    from .tef import atomic_write_bytes

    header = BATCH_MAGIC + struct.pack("<IIII", BATCH_VERSION, batch.size, batch.max_len, batch.dim)
    arrays = (batch.modality, batch.boxes, batch.payload, batch.valid_len)
    atomic_write_bytes(path, header, *(np.ascontiguousarray(a, dtype="<f4") for a in arrays))


def load_token_batch(path: str) -> TokenBatch:
    """Read a dump_token_batch file; a malformed dump raises TokenError naming the file.

    The header and the file's size are checked before the arrays are read.
    """
    with open(path, "rb") as fh:
        header = fh.read(20)
        if header[:4] != BATCH_MAGIC:
            raise TokenError(f"{path}: not a token-batch dump (bad magic)")
        if len(header) < 20:
            raise TokenError(f"{path}: truncated header, {len(header)} of 20 bytes")
        version, n, max_len, d = struct.unpack_from("<IIII", header, 4)
        if version != BATCH_VERSION:
            raise TokenError(f"{path}: unsupported version {version}")
        shapes = [(n, max_len), (n, max_len, 8), (n, max_len, d), (n,)]
        expected = 20 + 4 * sum(math.prod(shape) for shape in shapes)
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise TokenError(f"{path}: expected {expected} bytes, found {size}")
        data = fh.read(expected - 20)
    if len(data) != expected - 20:
        raise TokenError(f"{path}: expected {expected} bytes, found {20 + len(data)}")
    offset = 0
    arrays = []
    for shape in shapes:
        count = math.prod(shape)
        arrays.append(np.frombuffer(data, dtype="<f4", count=count, offset=offset).reshape(shape).copy())
        offset += 4 * count
    modality, boxes, payload, valid_len = arrays
    # Integers travel as float32, so integrality and range are checked here.
    bad_len = ~((valid_len >= 0) & (valid_len <= max_len) & (valid_len == np.floor(valid_len)))
    if bad_len.any():
        i = int(np.argmax(bad_len))
        raise TokenError(f"{path}: sample {i}: valid_len {valid_len[i]} is not an integer in [0, {max_len}]")
    # Compared code by code: np.isin warned "invalid value encountered in cast" on a corrupted dump.
    bad_code = (modality != MODALITY_PAD) & (modality != MODALITY_ENTITY) & (modality != MODALITY_IMG)
    if bad_code.any():
        i, j = np.argwhere(bad_code)[0]
        raise TokenError(
            f"{path}: sample {i}, slot {j}: modality code {modality[i, j]} is not PAD, ENTITY or IMG"
        )
    pad = np.arange(max_len)[None, :] >= valid_len[:, None]
    dirty = (modality != 0) | (boxes != 0).any(axis=2) | (payload != 0).any(axis=2)
    bad_pad = pad & dirty
    if bad_pad.any():
        i, j = np.argwhere(bad_pad)[0]
        raise TokenError(
            f"{path}: sample {i}, slot {j}: PAD slot at or beyond valid_len {int(valid_len[i])} is not all-zero"
        )
    return TokenBatch(
        modality=modality.astype(np.int32),
        boxes=boxes,
        payload=payload,
        valid_len=valid_len.astype(np.int32),
    )
