"""Vocabulary, embeddings, positional boxes and token batches."""

import re

import numpy as np
import pytest

from geotile.geo import TileId, tile_extent_m, tile_origin
from geotile.geometry import box_area
from geotile.model import Entity, Geometry, MinBox, Tile, tag_key
from geotile.tokens import (
    MODALITY_ENTITY,
    MODALITY_IMG,
    MODALITY_PAD,
    PATCH_GRID,
    VOCAB_MAX_SIZE,
    VOCAB_MIN_OCCURRENCES,
    EmbedDiagnostics,
    EmbeddingTable,
    TokenBatch,
    assemble_token_batch,
    dump_token_batch,
    entity_embed_mean,
    image_patch_boxes,
    load_embeddings,
    load_token_batch,
    posenc_input,
    prune_vocab,
    save_embeddings,
)

SQUARE = MinBox(corners=((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))


def _entity(eid, tags, box=SQUARE):
    return Entity(eid, "node", tuple(tags), Geometry.point((0.5, 0.5)), minbox=box)


def _tile(entities, x=18052):
    tid = TileId(16, x, 25957)
    return Tile(tid, tile_origin(tid), tile_extent_m(tid), tuple(entities))


def _table():
    return EmbeddingTable(dim=4, vectors={
        "building=yes": np.array([1.0, 2.0, -1.0, 0.5]),
        "highway=primary": np.array([3.0, -1.0, 0.0, 2.5]),
        "bridge=yes": np.array([-2.0, 4.0, 1.0, 0.0]),
    })


# ------------------------------------------------------------- vocabulary


def test_prune_vocab_order_and_floor():
    counts = {"a=1": 10, "b=1": 12, "c=1": 10, "d=1": 9}
    vocab = prune_vocab(counts)
    assert vocab.tags == ("b=1", "a=1", "c=1")
    assert vocab.index["a=1"] == 1
    assert "d=1" not in vocab
    assert VOCAB_MIN_OCCURRENCES == 10 and VOCAB_MAX_SIZE == 12500


def test_prune_vocab_truncates_at_max_size():
    counts = {f"t={i:05d}": VOCAB_MIN_OCCURRENCES for i in range(VOCAB_MAX_SIZE + 1)}
    vocab = prune_vocab(counts)
    assert len(vocab) == VOCAB_MAX_SIZE
    assert vocab.tags[0] == "t=00000"
    assert f"t={VOCAB_MAX_SIZE:05d}" not in vocab


# ------------------------------------------------------------- embeddings


def test_embed_mean_frozen():
    e = _entity(1, [("building", "yes"), ("highway", "primary"), ("bridge", "yes")])
    mean = entity_embed_mean(e, _table())
    assert mean.tolist() == [0.6666666666666666, 1.6666666666666667, 0.0, 1.0]


def test_embed_mean_miss_is_zero_and_diagnosed():
    bench = _entity(1, [("amenity", "bench")])
    assert entity_embed_mean(bench, _table()).tolist() == [0.0, 0.0, 0.0, 0.0]
    diag = EmbedDiagnostics()
    batch = assemble_token_batch([_tile([bench])], _table(), include_image=False, diagnostics=diag)
    assert batch.payload[0, 0].tolist() == [0.0, 0.0, 0.0, 0.0]
    assert diag.entities_without_vectors == 1


def test_embeddings_file_roundtrip(tmp_path):
    table = _table()
    path = tmp_path / "vectors.txt"
    save_embeddings(table, str(path))
    text = path.read_text()
    assert text.splitlines()[0] == "d=4"
    loaded = load_embeddings(str(path))
    assert loaded.dim == 4
    assert sorted(loaded.vectors) == sorted(table.vectors)
    for tag, vec in table.vectors.items():
        assert np.array_equal(loaded.vectors[tag], vec)


def test_embeddings_validation(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("dim 4\n")
    with pytest.raises(ValueError, match="d="):
        load_embeddings(str(bad))
    with pytest.raises(ValueError, match="shape"):
        EmbeddingTable(dim=3, vectors={"a=b": np.zeros(4)})
    with pytest.raises(ValueError, match="finite"):
        EmbeddingTable(dim=2, vectors={"a=b": np.array([1.0, np.nan])})


@pytest.mark.parametrize("text, line, reason", [
    (b"d=x\n", 1, "expected 'd=<int>' header with d >= 1, got 'd=x'"),
    (b"d=0\n", 1, "expected 'd=<int>' header with d >= 1, got 'd=0'"),
    (b"d=2\na=b\t1.0 2.0\nc=d\t1.0 zz\n", 3, "vector for 'c=d' has a value that is not a float"),
    (b"d=2\na=b\t1.0 inf\n", 2, "vector for 'a=b' is not finite"),
    (b"d=2\na=b\t1.0 2.0\nc=\xff\t1.0 2.0\n", 3, "invalid UTF-8 at byte 2"),
    (b"d=2\na=1\t1.0 2.0\na=1\t3.0 4.0\n", 3, "duplicate tag 'a=1'"),
])
def test_load_embeddings_names_path_and_line(tmp_path, text, line, reason):
    path = tmp_path / "vectors.txt"
    path.write_bytes(text)
    with pytest.raises(ValueError) as err:
        load_embeddings(str(path))
    assert str(err.value) == f"{path}:{line}: {reason}"


# ------------------------------------------------------- positional boxes


def test_posenc_unit_square_frozen():
    assert posenc_input(SQUARE).tolist() == [0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0]


def test_posenc_starts_at_min_yx_corner():
    diamond = MinBox(corners=((0.0, 0.5), (0.5, 0.0), (1.0, 0.5), (0.5, 1.0)))
    assert posenc_input(diamond).tolist() == [0.5, 0.0, 1.0, 0.5, 0.5, 1.0, 0.0, 0.5]
    # same box, rotated corner list: identical encoding
    shifted = MinBox(corners=((0.5, 1.0), (0.0, 0.5), (0.5, 0.0), (1.0, 0.5)))
    assert posenc_input(shifted).tolist() == posenc_input(diamond).tolist()


def test_patch_boxes_partition_unit_square():
    boxes = image_patch_boxes()
    assert len(boxes) == PATCH_GRID * PATCH_GRID == 196
    areas = [box_area(b) for b in boxes]
    assert all(abs(a - 1.0 / 196.0) < 1e-12 for a in areas)
    assert abs(sum(areas) - 1.0) < 1e-12
    # row-major: second box advances along x, row PATCH_GRID along y
    assert boxes[0].corners[0] == (0.0, 0.0)
    assert boxes[1].corners[0] == (1.0 / 14.0, 0.0)
    assert boxes[14].corners[0] == (0.0, 1.0 / 14.0)


# ----------------------------------------------------------- token batches


def _five_entity_tile(x=18052):
    tags = [("building", "yes"), ("highway", "primary"), ("bridge", "yes"),
            ("building", "yes"), ("amenity", "bench")]
    return _tile([_entity(i + 1, [tags[i]]) for i in range(5)], x=x)


def test_assemble_entity_then_image_tokens():
    batch = assemble_token_batch([_five_entity_tile()], _table(), include_image=True)
    assert (batch.size, batch.max_len, batch.dim) == (1, 201, 4)
    assert batch.valid_len.tolist() == [201]
    assert batch.modality[0, :5].tolist() == [MODALITY_ENTITY] * 5
    assert batch.modality[0, 5:].tolist() == [MODALITY_IMG] * 196
    assert np.all(batch.payload[0, 5:] == 0.0)
    assert batch.ids == ("16_18052_25957",)


def test_assemble_pads_ragged_tiles():
    short = _tile([_entity(1, [("building", "yes")])], x=18053)
    batch = assemble_token_batch([_five_entity_tile(), short], _table(), include_image=False)
    assert batch.valid_len.tolist() == [5, 1]
    assert batch.max_len == 5
    assert batch.modality[1, 1:].tolist() == [MODALITY_PAD] * 4
    assert np.all(batch.boxes[1, 1:] == 0.0)
    assert np.all(batch.payload[1, 1:] == 0.0)
    mask = batch.valid_mask()
    assert mask.tolist() == [[True] * 5, [True] + [False] * 4]


def test_assemble_counts_missing_vectors():
    diag = EmbedDiagnostics()
    assemble_token_batch([_five_entity_tile()], _table(), include_image=False,
                         diagnostics=diag)
    assert diag.entities_without_vectors == 1


def test_assemble_rejects_bad_input():
    with pytest.raises(ValueError, match="empty batch"):
        assemble_token_batch([], _table(), include_image=False)
    with pytest.raises(ValueError, match="no entities"):
        assemble_token_batch([_tile([])], _table(), include_image=True)
    boxless = Entity(1, "node", (("building", "yes"),), Geometry.point((0.5, 0.5)))
    with pytest.raises(ValueError, match="min-box"):
        assemble_token_batch([_tile([boxless])], _table(), include_image=False)


def _assemble_per_token(tiles, table, include_image):
    """Reference: one posenc_input and one embedding mean per token, row by row.

    Returns the batch and the number of entities without an in-table tag.
    """
    patch_boxes = image_patch_boxes() if include_image else []
    misses = 0
    lens = [len(t.entities) + len(patch_boxes) for t in tiles]
    n, max_len, d = len(tiles), max(lens), table.dim
    modality = np.zeros((n, max_len), dtype=np.int32)
    boxes = np.zeros((n, max_len, 8), dtype=np.float32)
    payload = np.zeros((n, max_len, d), dtype=np.float32)
    for i, t in enumerate(tiles):
        for j, e in enumerate(t.entities):
            modality[i, j] = MODALITY_ENTITY
            boxes[i, j] = posenc_input(e.minbox)
            payload[i, j] = entity_embed_mean(e, table)
            misses += not any(tag_key(k, v) in table.vectors for k, v in e.tags)
        base = len(t.entities)
        for j, pb in enumerate(patch_boxes):
            modality[i, base + j] = MODALITY_IMG
            boxes[i, base + j] = posenc_input(pb)
    batch = TokenBatch(modality=modality, boxes=boxes, payload=payload,
                       valid_len=np.array(lens, dtype=np.int32))
    return batch, misses


def _oracle_tiles():
    # The three vectors sum to a different float64 value in each order, so a
    # mean cached per tag set rather than per tag sequence shows in the bytes.
    table = EmbeddingTable(dim=3, vectors={
        "a=1": np.array([1e16, 0.1, -0.0]),
        "b=1": np.array([1.0, 0.7, -0.0]),
        "c=1": np.array([-1e16, 0.3, 2.0]),
        "z=1": np.array([-0.0, -0.0, -0.0]),
    })
    rng = np.random.default_rng(41)
    tag_pool = [("a", "1"), ("b", "1"), ("c", "1"), ("z", "1"), ("name", "mill"), ("shop", "bakery")]
    tiles = []
    for x in range(6):
        entities = []
        for eid in range(int(rng.integers(1, 9))):
            tags = [tag_pool[k] for k in rng.permutation(len(tag_pool))[: int(rng.integers(0, 4))]]
            c = rng.uniform(0.0, 1.0, size=(4, 2))
            box = MinBox(corners=tuple((float(px), float(py)) for px, py in c))
            entities.append(_entity(eid + 1, tags, box))
        tiles.append(_tile(entities, x=18052 + x))
    orders = [[("a", "1"), ("b", "1"), ("c", "1")], [("c", "1"), ("a", "1"), ("b", "1")],
              [("b", "1"), ("name", "mill"), ("a", "1"), ("c", "1")], [("z", "1")], [("name", "mill")]]
    tiles.append(_tile([_entity(100 + k, tags) for k, tags in enumerate(orders * 2)], x=18060))
    return tiles, table


@pytest.mark.parametrize("include_image", [False, True])
def test_assemble_matches_per_token_reference(tmp_path, include_image):
    tiles, table = _oracle_tiles()
    diag = EmbedDiagnostics()
    got = assemble_token_batch(tiles, table, include_image, diagnostics=diag)
    want, misses = _assemble_per_token(tiles, table, include_image)
    dump_token_batch(got, str(tmp_path / "got.gjtb"))
    dump_token_batch(want, str(tmp_path / "want.gjtb"))
    assert (tmp_path / "got.gjtb").read_bytes() == (tmp_path / "want.gjtb").read_bytes()
    assert diag.entities_without_vectors == misses >= 4
    # The reference's means depend on tag order, and np.mean of a lone -0.0
    # row is +0.0, so returning a single hit's vector as is would show too.
    last = want.payload[-1].view(np.uint32)
    assert not np.array_equal(last[0], last[1])
    assert (last[3] == 0).all()


def test_batch_shape_validation():
    with pytest.raises(ValueError, match="boxes"):
        TokenBatch(
            modality=np.zeros((2, 3), dtype=np.int32),
            boxes=np.zeros((2, 3, 4), dtype=np.float32),
            payload=np.zeros((2, 3, 5), dtype=np.float32),
            valid_len=np.array([3, 3], dtype=np.int32),
        )


def test_dump_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(19)
    for trial in range(20):
        n = int(rng.integers(1, 5))
        max_len = int(rng.integers(1, 12))
        d = int(rng.integers(1, 7))
        valid = rng.integers(1, max_len + 1, n).astype(np.int32)
        modality = np.zeros((n, max_len), dtype=np.int32)
        boxes = np.zeros((n, max_len, 8), dtype=np.float32)
        payload = np.zeros((n, max_len, d), dtype=np.float32)
        for i in range(n):
            modality[i, : valid[i]] = rng.integers(1, 3, valid[i])
            boxes[i, : valid[i]] = rng.normal(size=(valid[i], 8)).astype(np.float32)
            payload[i, : valid[i]] = rng.normal(size=(valid[i], d)).astype(np.float32)
        batch = TokenBatch(modality=modality, boxes=boxes, payload=payload, valid_len=valid)
        path = tmp_path / f"batch_{trial}.gjtb"
        dump_token_batch(batch, str(path))
        back = load_token_batch(str(path))
        assert back.modality.tobytes() == batch.modality.tobytes()
        assert back.boxes.tobytes() == batch.boxes.tobytes()
        assert back.payload.tobytes() == batch.payload.tobytes()
        assert back.valid_len.tobytes() == batch.valid_len.tobytes()


def test_dump_header_and_corruption(tmp_path):
    batch = assemble_token_batch([_five_entity_tile()], _table(), include_image=False)
    path = tmp_path / "batch.gjtb"
    dump_token_batch(batch, str(path))
    blob = path.read_bytes()
    assert blob[:4] == b"GJTB"
    truncated = tmp_path / "cut.gjtb"
    truncated.write_bytes(blob[:-4])
    with pytest.raises(ValueError, match="bytes"):
        load_token_batch(str(truncated))
    alien = tmp_path / "alien.gjtb"
    alien.write_bytes(b"NOPE" + blob[4:])
    with pytest.raises(ValueError, match="magic"):
        load_token_batch(str(alien))


def test_truncated_header_raises_value_error_naming_file_and_size(tmp_path):
    batch = assemble_token_batch([_five_entity_tile()], _table(), include_image=False)
    path = tmp_path / "batch.gjtb"
    dump_token_batch(batch, str(path))
    blob = path.read_bytes()
    cut = tmp_path / "cut.gjtb"
    for size in range(21):
        cut.write_bytes(blob[:size])
        with pytest.raises(ValueError) as info:
            load_token_batch(str(cut))
        message = str(info.value)
        assert message.startswith(f"{cut}: ")
        if size >= 4:
            assert re.search(rf"\b{size}\b", message[len(str(cut)):])


def _patched_dump(tmp_path, array, index, value):
    """A valid two-sample dump (max_len 6, d 4) with one float32 replaced."""
    short = _tile([_entity(1, [("building", "yes")])], x=18053)
    batch = assemble_token_batch([_five_entity_tile(), short], _table(), include_image=False)
    path = tmp_path / "bad.gjtb"
    dump_token_batch(batch, str(path))
    fields = {"modality": (batch.modality,), "boxes": (batch.modality, batch.boxes),
              "payload": (batch.modality, batch.boxes, batch.payload),
              "valid_len": (batch.modality, batch.boxes, batch.payload, batch.valid_len)}[array]
    start = 20 + 4 * sum(a.size for a in fields[:-1])
    flat = np.ravel_multi_index(index, fields[-1].shape)
    blob = bytearray(path.read_bytes())
    blob[start + 4 * flat : start + 4 * flat + 4] = np.float32(value).tobytes()
    path.write_bytes(bytes(blob))
    return path


@pytest.mark.parametrize("array,index,value,message", [
    ("valid_len", (1,), 2.5, r"sample 1: valid_len 2.5 is not an integer in \[0, 5\]"),
    ("valid_len", (0,), 6.0, r"sample 0: valid_len 6.0 is not an integer"),
    ("valid_len", (1,), -1.0, r"sample 1: valid_len -1.0 is not an integer"),
    ("valid_len", (0,), float("nan"), r"sample 0: valid_len nan"),
    ("modality", (0, 2), 1.5, r"sample 0, slot 2: modality code 1.5 is not PAD, ENTITY or IMG"),
    ("modality", (1, 0), 3.0, r"sample 1, slot 0: modality code 3.0"),
    ("modality", (1, 3), MODALITY_ENTITY, r"sample 1, slot 3: PAD slot at or beyond valid_len 1 is not all-zero"),
    ("boxes", (1, 4, 7), 0.5, r"sample 1, slot 4: PAD slot"),
    ("payload", (1, 1, 0), -2.0, r"sample 1, slot 1: PAD slot"),
], ids=["len-fraction", "len-above-max", "len-negative", "len-nan", "code-fraction", "code-unknown",
        "pad-modality", "pad-box", "pad-payload"])
def test_load_rejects_inconsistent_dump(tmp_path, array, index, value, message):
    path = _patched_dump(tmp_path, array, index, value)
    with pytest.raises(ValueError, match=message) as info:
        load_token_batch(str(path))
    assert str(info.value).startswith(f"{path}: ")


def test_load_accepts_the_dumps_it_writes(tmp_path):
    path = _patched_dump(tmp_path, "payload", (0, 0, 0), 7.0)  # a valid slot may hold anything
    assert load_token_batch(str(path)).payload[0, 0, 0] == 7.0


def test_ids_do_not_survive_serialization(tmp_path):
    batch = assemble_token_batch([_five_entity_tile()], _table(), include_image=False)
    path = tmp_path / "batch.gjtb"
    dump_token_batch(batch, str(path))
    assert load_token_batch(str(path)).ids == ("0",)
