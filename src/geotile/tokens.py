"""Numeric model inputs: tag vectors, embedding pools, boxes and token batches.

Everything here is deterministic and padding-explicit.  A TokenBatch is the
unit handed to masking and loss code: per sample a run of real tokens
(modality ENTITY or IMG) followed by all-zero PAD slots.
"""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .model import Entity, MinBox, Tile

MODALITY_PAD = 0
MODALITY_ENTITY = 1
MODALITY_IMG = 2

VOCAB_MAX_SIZE = 12500
VOCAB_MIN_OCCURRENCES = 10
PATCH_GRID = 14
DROPOUT_P = 0.3
BATCH_MAGIC = b"GJTB"
BATCH_VERSION = 1


def tag_key(key: str, value: str) -> str:
    return f"{key}={value}"


@dataclass(frozen=True)
class TagVocab:
    """Ordered canonical key=value strings with a reverse index."""

    tags: tuple[str, ...]
    index: Mapping[str, int] = field(repr=False, default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.index is None:
            object.__setattr__(self, "index", {t: i for i, t in enumerate(self.tags)})
        if len(self.index) != len(self.tags):
            raise ValueError("vocabulary entries must be unique")
        if len(self.tags) > VOCAB_MAX_SIZE:
            raise ValueError(f"vocabulary exceeds {VOCAB_MAX_SIZE} entries")

    def __len__(self) -> int:
        return len(self.tags)

    def __contains__(self, tag: str) -> bool:
        return tag in self.index

    def index_of(self, tag: str) -> int | None:
        return self.index.get(tag)


def count_tags(tiles: Iterable[Tile]) -> Counter:
    counts: Counter = Counter()
    for tile in tiles:
        for e in tile.entities:
            counts.update(tag_key(k, v) for k, v in e.tags)
    return counts


def prune_vocab(
    counts: Mapping[str, int],
    min_occurrences: int = VOCAB_MIN_OCCURRENCES,
    max_size: int = VOCAB_MAX_SIZE,
) -> TagVocab:
    """Keep tags seen at least min_occurrences times, most frequent first.

    Ties sort lexicographically so two builds of the same corpus agree.
    """
    kept = [(tag, c) for tag, c in counts.items() if c >= min_occurrences]
    kept.sort(key=lambda item: (-item[1], item[0]))
    return TagVocab(tags=tuple(tag for tag, _ in kept[:max_size]))


def save_vocab(vocab: TagVocab, path: str) -> None:
    from .tef import atomic_write_bytes

    atomic_write_bytes(path, ("\n".join(vocab.tags) + "\n").encode("utf-8") if vocab.tags else b"")


def load_vocab(path: str) -> TagVocab:
    with open(path, "r", encoding="utf-8") as fh:
        tags = tuple(line.rstrip("\n") for line in fh if line.strip())
    return TagVocab(tags=tags)


def tile_tag_counts(tile: Tile, vocab: TagVocab) -> np.ndarray:
    """Per vocab tag, the number of entities in the tile carrying it."""
    out = np.zeros(len(vocab), dtype=np.int64)
    for e in tile.entities:
        for idx in {vocab.index_of(tag_key(k, v)) for k, v in e.tags}:
            if idx is not None:
                out[idx] += 1
    return out


def entity_tag_multihot(entity: Entity, vocab: TagVocab) -> np.ndarray:
    out = np.zeros(len(vocab), dtype=np.float32)
    for k, v in entity.tags:
        idx = vocab.index_of(tag_key(k, v))
        if idx is not None:
            out[idx] = 1.0
    return out


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
    """Text table: header ``d=<int>``, then ``key=value<TAB>f1 f2 ... fd``."""
    vectors: dict[str, np.ndarray] = {}
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("d="):
            raise ValueError(f"{path}:1: expected 'd=<int>' header, got {header!r}")
        dim = int(header[2:])
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            if "\t" not in line:
                raise ValueError(f"{path}:{lineno}: missing tab separator")
            tag, values = line.rstrip("\n").split("\t", 1)
            vec = np.array([float(x) for x in values.split()], dtype=np.float64)
            if vec.shape != (dim,):
                raise ValueError(f"{path}:{lineno}: expected {dim} floats, got {vec.shape[0]}")
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


def entity_embed_mean(
    entity: Entity, table: EmbeddingTable, diagnostics: EmbedDiagnostics | None = None
) -> np.ndarray:
    """Unweighted mean of the entity's in-table tag vectors; zeros if none hit."""
    hits = [table.vectors[t] for t in (tag_key(k, v) for k, v in entity.tags) if t in table.vectors]
    if not hits:
        if diagnostics is not None:
            diagnostics.entities_without_vectors += 1
        return np.zeros(table.dim, dtype=np.float64)
    return np.mean(hits, axis=0)


def tagpool_region(tile: Tile, table: EmbeddingTable) -> np.ndarray:
    """Componentwise max over entity vectors, concatenated with their mean.

    Entities with no in-table tags contribute zero vectors to both pools.
    """
    if not tile.entities:
        raise ValueError(f"tile {tile.id.key} has no entities to pool")
    stack = np.stack([entity_embed_mean(e, table) for e in tile.entities])
    return np.concatenate([stack.max(axis=0), stack.mean(axis=0)])


# ------------------------------------------------------------------ boxes


def posenc_input(box: MinBox) -> np.ndarray:
    """Corners flattened to 8 reals, wound from the corner with minimal (y, x)."""
    corners = box.corners
    start = min(range(4), key=lambda i: (corners[i][1], corners[i][0]))
    ordered = corners[start:] + corners[:start]
    return np.array([c for corner in ordered for c in corner], dtype=np.float64)


def image_patch_boxes(grid: int = PATCH_GRID, include_class: bool = False) -> list[MinBox]:
    """Row-major grid of axis-aligned patch squares covering the unit tile.

    With include_class a full-tile box is prepended, mirroring a ViT
    class-token slot; its positional box is a stand-in, not a patch.
    """
    boxes = []
    if include_class:
        boxes.append(MinBox(corners=((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))))
    for row in range(grid):
        y0, y1 = row / grid, (row + 1) / grid
        for col in range(grid):
            x0, x1 = col / grid, (col + 1) / grid
            boxes.append(MinBox(corners=((x0, y0), (x1, y0), (x1, y1), (x0, y1))))
    return boxes


def modality_dropout(n: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Per-entity (drop_tag, drop_geom) flags at p = 0.3 each, never both.

    A draw hitting both modalities is redrawn, so the effective single-drop
    probability is 0.21/0.91 per side.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    drop_tag = rng.random(n) < DROPOUT_P
    drop_geom = rng.random(n) < DROPOUT_P
    both = drop_tag & drop_geom
    while both.any():
        k = int(both.sum())
        drop_tag[both] = rng.random(k) < DROPOUT_P
        drop_geom[both] = rng.random(k) < DROPOUT_P
        both = drop_tag & drop_geom
    return drop_tag, drop_geom


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
    grid: int = PATCH_GRID,
    include_class: bool = False,
    diagnostics: EmbedDiagnostics | None = None,
) -> TokenBatch:
    """One ENTITY token per entity, then the image-patch IMG tokens.

    IMG payloads stay zero; the slot exists so externally computed image
    features can be spliced in.  Every entity must carry a min-box, which the
    processing stage guarantees.
    """
    if not tiles:
        raise ValueError("cannot assemble an empty batch")
    patch_boxes = image_patch_boxes(grid, include_class) if include_image else []
    lens = []
    for t in tiles:
        if not t.entities:
            raise ValueError(f"tile {t.id.key} has no entities; filter upstream")
        lens.append(len(t.entities) + len(patch_boxes))
    n, max_len, d = len(tiles), max(lens), table.dim
    modality = np.zeros((n, max_len), dtype=np.int32)
    boxes = np.zeros((n, max_len, 8), dtype=np.float32)
    payload = np.zeros((n, max_len, d), dtype=np.float32)
    for i, t in enumerate(tiles):
        for j, e in enumerate(t.entities):
            if e.minbox is None:
                raise ValueError(f"entity {e.id} in tile {t.id.key} has no min-box")
            modality[i, j] = MODALITY_ENTITY
            boxes[i, j] = posenc_input(e.minbox)
            payload[i, j] = entity_embed_mean(e, table, diagnostics)
        base = len(t.entities)
        for j, pb in enumerate(patch_boxes):
            modality[i, base + j] = MODALITY_IMG
            boxes[i, base + j] = posenc_input(pb)
    return TokenBatch(
        modality=modality,
        boxes=boxes,
        payload=payload,
        valid_len=np.array(lens, dtype=np.int32),
        ids=tuple(t.id.key for t in tiles),
    )


def dump_token_batch(batch: TokenBatch, path: str) -> None:
    """Self-describing little-endian dump; round-trips bit-exactly."""
    from .tef import atomic_write_bytes

    n, max_len, d = batch.size, batch.max_len, batch.dim
    parts = [BATCH_MAGIC, struct.pack("<IIII", BATCH_VERSION, n, max_len, d)]
    parts.append(batch.modality.astype("<f4").tobytes())
    parts.append(batch.boxes.astype("<f4").tobytes())
    parts.append(batch.payload.astype("<f4").tobytes())
    parts.append(batch.valid_len.astype("<f4").tobytes())
    atomic_write_bytes(path, b"".join(parts))


def load_token_batch(path: str) -> TokenBatch:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != BATCH_MAGIC:
        raise ValueError(f"{path}: not a token-batch dump (bad magic)")
    if len(blob) < 20:
        raise ValueError(f"{path}: truncated header, {len(blob)} of 20 bytes")
    version, n, max_len, d = struct.unpack_from("<IIII", blob, 4)
    if version != BATCH_VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    sizes = [n * max_len, n * max_len * 8, n * max_len * d, n]
    expected = 20 + 4 * sum(sizes)
    if len(blob) != expected:
        raise ValueError(f"{path}: expected {expected} bytes, found {len(blob)}")
    offset = 20
    arrays = []
    for count in sizes:
        arrays.append(np.frombuffer(blob, dtype="<f4", count=count, offset=offset).copy())
        offset += 4 * count
    return TokenBatch(
        modality=arrays[0].astype(np.int32).reshape(n, max_len),
        boxes=arrays[1].reshape(n, max_len, 8),
        payload=arrays[2].reshape(n, max_len, d),
        valid_len=arrays[3].astype(np.int32),
    )
