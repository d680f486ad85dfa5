"""Vocabulary, embeddings, positional boxes and token batches."""

import re

import numpy as np
import pytest

from geotile.geo import TileId, tile_extent_m, tile_origin
from geotile.geometry import box_area
from geotile.model import Entity, Geometry, MinBox, Tile
from geotile.tokens import (
    DROPOUT_P,
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
    count_tags,
    dump_token_batch,
    entity_embed_mean,
    entity_tag_multihot,
    image_patch_boxes,
    load_embeddings,
    load_token_batch,
    load_vocab,
    modality_dropout,
    posenc_input,
    prune_vocab,
    save_embeddings,
    save_vocab,
    tag_key,
    tagpool_region,
    tile_tag_counts,
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
    assert vocab.index_of("a=1") == 1
    assert vocab.index_of("d=1") is None
    assert prune_vocab(counts, max_size=2).tags == ("b=1", "a=1")
    assert VOCAB_MIN_OCCURRENCES == 10 and VOCAB_MAX_SIZE == 12500


def test_count_tags_spans_tiles():
    tiles = [
        _tile([_entity(1, [("building", "yes")]), _entity(2, [("building", "yes")])]),
        _tile([_entity(1, [("building", "yes"), ("name", "mill")])], x=18053),
    ]
    counts = count_tags(tiles)
    assert counts[tag_key("building", "yes")] == 3
    assert counts["name=mill"] == 1


def test_vocab_file_roundtrip(tmp_path):
    vocab = prune_vocab({"b=1": 12, "a=1": 10})
    path = tmp_path / "vocab.txt"
    save_vocab(vocab, str(path))
    assert path.read_text() == "b=1\na=1\n"
    assert load_vocab(str(path)).tags == vocab.tags


def test_tile_tag_counts_dedupes_within_entity():
    vocab = prune_vocab({"building=yes": 10, "name=mill": 10})
    tile = _tile([
        _entity(1, [("building", "yes"), ("name", "mill")]),
        _entity(2, [("building", "yes")]),
        _entity(3, [("amenity", "bench")]),
    ])
    assert tile_tag_counts(tile, vocab).tolist() == [2, 1]


def test_entity_multihot():
    vocab = prune_vocab({"building=yes": 10, "name=mill": 10})
    hot = entity_tag_multihot(_entity(1, [("building", "yes")]), vocab)
    assert hot.dtype == np.float32
    assert hot.tolist() == [1.0, 0.0]


# ------------------------------------------------------------- embeddings


def test_embed_mean_frozen():
    e = _entity(1, [("building", "yes"), ("highway", "primary"), ("bridge", "yes")])
    mean = entity_embed_mean(e, _table())
    assert mean.tolist() == [0.6666666666666666, 1.6666666666666667, 0.0, 1.0]


def test_embed_mean_miss_is_zero_and_diagnosed():
    diag = EmbedDiagnostics()
    out = entity_embed_mean(_entity(1, [("amenity", "bench")]), _table(), diag)
    assert out.tolist() == [0.0, 0.0, 0.0, 0.0]
    assert diag.entities_without_vectors == 1


def test_tagpool_region_concat_and_orderfree():
    ents = [
        _entity(1, [("building", "yes")]),
        _entity(2, [("highway", "primary")]),
        _entity(3, [("amenity", "bench")]),
    ]
    pooled = tagpool_region(_tile(ents), _table())
    assert pooled.shape == (8,)
    assert pooled[:4].tolist() == [3.0, 2.0, 0.0, 2.5]
    np.testing.assert_allclose(pooled[4:], [4 / 3, 1 / 3, -1 / 3, 1.0], atol=1e-15)
    again = tagpool_region(_tile(ents[::-1]), _table())
    assert np.array_equal(pooled, again)


def test_tagpool_rejects_empty_tile():
    with pytest.raises(ValueError, match="no entities"):
        tagpool_region(_tile([]), _table())


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


def test_patch_boxes_class_slot_prepended():
    boxes = image_patch_boxes(include_class=True)
    assert len(boxes) == 197
    assert boxes[0].corners == ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))
    assert boxes[1:] == image_patch_boxes()


# --------------------------------------------------------------- dropout


def test_modality_dropout_never_both():
    drop_tag, drop_geom = modality_dropout(200000, seed=7)
    assert not (drop_tag & drop_geom).any()
    # redraw lifts each marginal to 0.21/0.91
    want = 0.21 / 0.91
    assert want == 0.23076923076923075
    assert abs(float(drop_tag.mean()) - want) < 0.005
    assert abs(float(drop_geom.mean()) - want) < 0.005
    assert DROPOUT_P == 0.3


def test_modality_dropout_deterministic():
    a = modality_dropout(1000, seed=3)
    b = modality_dropout(1000, seed=3)
    c = modality_dropout(1000, seed=4)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert not np.array_equal(a[0], c[0])


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


def test_ids_do_not_survive_serialization(tmp_path):
    batch = assemble_token_batch([_five_entity_tile()], _table(), include_image=False)
    path = tmp_path / "batch.gjtb"
    dump_token_batch(batch, str(path))
    assert load_token_batch(str(path)).ids == ("0",)
