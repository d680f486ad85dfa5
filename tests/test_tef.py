"""Tile exchange format: canonical bytes, parse errors, and store layout."""

import gzip
import hashlib
import json
import os
import zlib

import numpy as np
import pytest

from geotile import tef
from geotile.geo import TileId
from geotile.model import Entity, Geometry, MinBox, Tile, VisibilityGraph
from geotile.tef import (
    TefError,
    group_file_name,
    parse_tef_lines,
    read_group_file,
    read_store,
    read_store_index,
    tile_from_json,
    tile_group,
    tile_to_json,
    write_store,
)

RING = [(0.1, 0.1), (0.6, 0.1), (0.6, 0.6), (0.1, 0.6), (0.1, 0.1)]


def _fixture_tile():
    e1 = Entity(
        id=7, kind="node", tags=(("amenity", "bench"),), geometry=Geometry.point((0.25, 0.5))
    )
    e2 = Entity(
        id=8,
        kind="way",
        tags=(("building", "yes"), ("height", "12")),
        geometry=Geometry.polygon([RING]),
        minbox=MinBox(((0.1, 0.1), (0.6, 0.1), (0.6, 0.6), (0.1, 0.6))),
    )
    return Tile(
        id=TileId(16, 18052, 25957),
        origin=(-80.83740234375, 35.00300339527671),
        extent_m=500.87622416429247,
        entities=(e1, e2),
    )


CANONICAL = (
    '{"id":"16_18052_25957","extent_m":500.87622416429247,'
    '"origin":[-80.83740234375,35.00300339527671],"entities":['
    '{"id":7,"kind":"node","tags":[["amenity","bench"]],'
    '"geometry":{"type":"point","coords":[0.25,0.5]}},'
    '{"id":8,"kind":"way","tags":[["building","yes"],["height","12"]],'
    '"geometry":{"type":"polygon","coords":[[[0.1,0.1],[0.6,0.1],[0.6,0.6],[0.1,0.6],[0.1,0.1]]]},'
    '"minbox":[0.1,0.1,0.6,0.1,0.6,0.6,0.1,0.6]}]}'
)


def test_canonical_encoding_is_frozen():
    assert tile_to_json(_fixture_tile()) == CANONICAL


def test_write_parse_write_is_byte_identical():
    line = tile_to_json(_fixture_tile())
    assert tile_to_json(tile_from_json(line)) == line


def test_round_trip_preserves_every_field():
    tile = _fixture_tile()
    back = tile_from_json(tile_to_json(tile))
    assert back == tile


def test_visibility_graph_edges_survive_the_trip():
    hole = [(0.3, 0.3), (0.3, 0.4), (0.4, 0.4), (0.4, 0.3), (0.3, 0.3)]
    graph = VisibilityGraph(
        vertices=tuple((0, i) for i in range(4)) + tuple((1, i) for i in range(4)),
        edges=((0, 1, "bnd"), (0, 2, "vis")),
    )
    entity = Entity(
        id=3,
        kind="relation",
        tags=(("building", "yes"),),
        geometry=Geometry.multipolygon([[RING, hole]]),
        visgraph=graph,
    )
    tile = _fixture_tile().with_entities([entity])
    back = tile_from_json(tile_to_json(tile))
    assert back.entities[0].visgraph == graph


def test_float_values_survive_repr_round_trip():
    rng = np.random.default_rng(70)
    for _ in range(300):
        x = float(rng.uniform(-1e4, 1e4))
        tile = _fixture_tile()
        entity = tile.entities[0]
        moved = Entity(
            id=entity.id,
            kind=entity.kind,
            tags=entity.tags,
            geometry=Geometry.point((x, 0.5)),
        )
        back = tile_from_json(tile_to_json(tile.with_entities([moved])))
        assert back.entities[0].geometry.coords[0] == x


def test_parse_rejects_unclosed_ring():
    bad = CANONICAL.replace("[0.1,0.1],[0.6,0.1],[0.6,0.6],[0.1,0.6],[0.1,0.1]", "[0.1,0.1],[0.6,0.1],[0.6,0.6],[0.1,0.6]")
    with pytest.raises(TefError, match="closed"):
        tile_from_json(bad)


def test_parse_rejects_boolean_coordinates():
    bad = CANONICAL.replace('"coords":[0.25,0.5]', '"coords":[true,0.5]')
    with pytest.raises(TefError):
        tile_from_json(bad)


_MULTI = (
    '{"id":"16_0_0","extent_m":100.0,"origin":[0.0,0.0],"entities":['
    '{"id":1,"kind":"way","tags":[],"geometry":{"type":"multipolygon","coords":[[[[0.0,0.0],'
    '[1.0,0.0],[1.0,1.0],[0.0,0.0]]],[[[0.0,0.0],[0.5,0.0],[0.5,0.5],[0.0,0.0]]]]},'
    '"minbox":[0,0,1,0,1,1,0,1],"visgraph":{"edges":[[0,1,"bnd"],[1,2,"bnd"]]}}]}'
)


@pytest.mark.parametrize("old,new,message", [
    ("[0.5,0.5],[0.0,0.0]]]]", '[0.5,"x"],[0.0,0.0]]]]',
     "tile.entities[0].geometry.coords[1][0][2][1]: expected number, got str (line 3)"),
    ("[0.5,0.0],[0.5,0.5]", "[0.5,0.0,0.1],[0.5,0.5]",
     "tile.entities[0].geometry.coords[1][0][1]: expected [x, y] (line 3)"),
    ("[0.5,0.5],[0.0,0.0]]]]", "[0.5,0.5],[0.0,0.5]]]]",
     "tile.entities[0].geometry.coords[1][0]: ring is not closed (line 3)"),
    ('"minbox":[0,0,1,0,1,1,0,1]', '"minbox":[0,0,1,0,1,true,0,1]',
     "tile.entities[0].minbox[5]: expected number, got bool (line 3)"),
    ("[0.5,0.0],[0.5,0.5]", "[0.5,0.0],[0.5,1" + "0" * 400 + "]",
     "tile.entities[0].geometry.coords[1][0][2][1]: number out of float range (line 3)"),
    ('"minbox":[0,0,1,0,1,1,0,1]', '"minbox":[0,0,1,0,1,1,0,1' + "0" * 400 + "]",
     "tile.entities[0].minbox[7]: number out of float range (line 3)"),
    ("[0.5,0.0],[0.5,0.5]", "[0.5,0.0],[0.5,1e999]",
     "tile.entities[0].geometry.coords[1][0][2][1]: number out of float range (line 3)"),
    ("[0.5,0.0],[0.5,0.5]", "[0.5,0.0],[-1e999,0.5]",
     "tile.entities[0].geometry.coords[1][0][2][0]: number out of float range (line 3)"),
    ('"minbox":[0,0,1,0,1,1,0,1]', '"minbox":[0,0,1,0,1,1e999,0,1]',
     "tile.entities[0].minbox[5]: number out of float range (line 3)"),
    ('"extent_m":100.0', '"extent_m":1e999', "tile.extent_m: number out of float range (line 3)"),
    ('"origin":[0.0,0.0]', '"origin":[0.0,-1e999]', "tile.origin[1]: number out of float range (line 3)"),
    ("[0.5,0.0],[0.5,0.5]", "[0.5,0.0],[0.5,NaN]", "tile: non-finite number NaN (line 3)"),
    ('"minbox":[0,0,1,0,1,1,0,1]', '"minbox":[0,0,1,0,1,1,Infinity,1]', "tile: non-finite number Infinity (line 3)"),
    ('"extent_m":100.0', '"extent_m":-Infinity', "tile: non-finite number -Infinity (line 3)"),
    ('"tags":[]', '"tags":[],"note":NaN', "tile: non-finite number NaN (line 3)"),
    ('[1,2,"bnd"]', '[1,9,"bnd"]', "tile.entities[0].visgraph.edges[1]: vertex index out of range (line 3)"),
    ('[1,2,"bnd"]', '[1,2.0,"bnd"]', 'tile.entities[0].visgraph.edges[1]: expected [i, j, "bnd"|"vis"] (line 3)'),
    ('[1,2,"bnd"]', '[false,true,"bnd"]', 'tile.entities[0].visgraph.edges[1]: expected [i, j, "bnd"|"vis"] (line 3)'),
    ('[0,1,"bnd"]', '[0,true,"bnd"]', 'tile.entities[0].visgraph.edges[0]: expected [i, j, "bnd"|"vis"] (line 3)'),
    ('{"id":1,"kind"', '{"id":true,"kind"', "tile.entities[0].id: expected integer id (line 3)"),
    ('{"id":1,"kind"', '{"id":1.0,"kind"', "tile.entities[0].id: expected integer id (line 3)"),
])
def test_parse_error_names_the_field_path(old, new, message):
    assert tile_from_json(_MULTI).entities[0].minbox.corners[2] == (1.0, 1.0)
    with pytest.raises(TefError) as info:
        tile_from_json(_MULTI.replace(old, new), 3)
    assert str(info.value) == message


def test_parse_rejects_unknown_edge_label():
    line = (
        '{"id":"16_0_0","extent_m":100.0,"origin":[0.0,0.0],"entities":['
        '{"id":1,"kind":"way","tags":[],"geometry":{"type":"polygon",'
        '"coords":[[[0.0,0.0],[1.0,0.0],[1.0,1.0],[0.0,0.0]]]},'
        '"visgraph":{"edges":[[0,1,"maybe"]]}}]}'
    )
    with pytest.raises(TefError, match="visgraph"):
        tile_from_json(line)


def test_duplicate_tile_ids_rejected():
    line = tile_to_json(_fixture_tile())
    with pytest.raises(TefError, match="duplicate"):
        list(parse_tef_lines([line, line]))


def test_blank_lines_are_skipped():
    line = tile_to_json(_fixture_tile())
    tiles = list(parse_tef_lines(["", line, "   ", ""]))
    assert len(tiles) == 1


# ------------------------------------------------------------------ store


def _tile_at(x, y, n_entities=1):
    entities = tuple(
        Entity(id=i + 1, kind="node", tags=(("k", "v"),), geometry=Geometry.point((0.5, 0.5)))
        for i in range(n_entities)
    )
    return Tile(id=TileId(16, x, y), origin=(0.0, 0.0), extent_m=300.0, entities=entities)


def test_grouping_is_four_by_four():
    assert tile_group(TileId(16, 18052, 25957)) == (16, 4513, 6489)
    assert group_file_name((16, 4513, 6489)) == "16_4513_6489.tefgz"
    cells = {tile_group(TileId(16, 18052 + dx, 25956 + dy)) for dx in range(4) for dy in range(4)}
    assert cells == {(16, 4513, 6489)}


def test_store_write_read_and_index(tmp_path):
    tiles = [_tile_at(18052, 25957), _tile_at(18053, 25957), _tile_at(18056, 25957)]
    root = tmp_path / "store"
    index = write_store(tiles, str(root))
    assert index["16_18052_25957"] == "16_4513_6489.tefgz"
    assert index["16_18056_25957"] == "16_4514_6489.tefgz"
    assert read_store_index(str(root)) == index
    assert sorted(t.id.key for t in read_store(str(root))) == sorted(t.id.key for t in tiles)


def test_store_rewrite_is_byte_identical(tmp_path):
    tiles = [_tile_at(18052 + i, 25957, n_entities=1 + i % 3) for i in range(10)]
    a, b = tmp_path / "a", tmp_path / "b"
    write_store(tiles, str(a))
    write_store(list(reversed(tiles)), str(b))
    files_a = sorted(os.listdir(a))
    assert files_a == sorted(os.listdir(b))
    for name in files_a:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_store_written_over_another_keeps_only_its_own_files(tmp_path):
    root = tmp_path / "store"
    write_store([_tile_at(18052, 25957), _tile_at(18056, 25957)], str(root))
    (root / "notes.txt").write_text("not the store's")
    write_store([_tile_at(18053, 25957)], str(root))
    assert sorted(os.listdir(root)) == ["16_4513_6489.tefgz", "index.json", "notes.txt"]
    assert [t.id.key for t in read_store(str(root))] == ["16_18053_25957"]


def test_group_members_sorted_by_grid_position(tmp_path):
    tiles = [_tile_at(18055, 25957), _tile_at(18052, 25957), _tile_at(18052, 25958)]
    root = tmp_path / "store"
    write_store(tiles, str(root))
    members = read_group_file(str(root / "16_4513_6489.tefgz"), {t.id.key for t in tiles})
    keys = [(t.id.x, t.id.y) for t in members]
    assert keys == sorted(keys)


def test_empty_store_has_empty_index(tmp_path):
    root = tmp_path / "store"
    write_store([], str(root))
    assert read_store_index(str(root)) == {}
    assert read_store(str(root)) == []


def _scattered_tile(x, y, n_entities):
    """A tile of n points spread by the golden ratio, enough text for deflate levels to differ."""
    entities = tuple(
        Entity(id=i + 1, kind="node", tags=(("k", f"v{i % 5}"),),
               geometry=Geometry.point(((i * 0.6180339887) % 1, (i * 0.41421356) % 1)))
        for i in range(n_entities)
    )
    return Tile(id=TileId(16, x, y), origin=(0.0, 0.0), extent_m=300.0, entities=entities)


def _codec_store(root):
    """A fixed two-group store: the canonical tile and three scattered ones, then one small tile."""
    tiles = [_fixture_tile(), *(_scattered_tile(18053 + i, 25957, 40) for i in range(3)), _tile_at(18056, 25957)]
    write_store(tiles, str(root))
    return {name: (root / name).read_bytes() for name in ("16_4513_6489.tefgz", "16_4514_6489.tefgz")}


# SHA-256 of each group file's inflated text.  The deflate bytes are not
# pinned: another zlib build may deflate the same text differently.
STORE_TEXT_SHA256 = {
    "16_4513_6489.tefgz": "e15d14d5286e4e1fe12be8194d820b788c0f3eece12ce69c2030d2e59cd904d9",
    "16_4514_6489.tefgz": "cb2d01ca3dac9cd1824b06848abf5b76d25e01cca067a71a779d8cebc42b40fb",
}


def test_store_text_is_pinned(tmp_path):
    files = _codec_store(tmp_path)
    assert {name: hashlib.sha256(gzip.decompress(raw)).hexdigest() for name, raw in files.items()} == STORE_TEXT_SHA256


def test_gzip_members_carry_no_timestamp(tmp_path):
    for raw in _codec_store(tmp_path).values():
        # Magic, deflate, no flags (so no file name), then the 4-byte MTIME
        # field, which must be zero for reproducible stores.
        assert raw[:4] == b"\x1f\x8b\x08\x00"
        assert raw[4:8] == b"\x00\x00\x00\x00"
    with gzip.open(tmp_path / "16_4513_6489.tefgz", "rt", encoding="utf-8") as fh:
        payload = fh.read()
    assert json.loads(payload.splitlines()[0])["id"] == "16_18052_25957"


def test_group_files_are_deflated_at_the_store_level(tmp_path):
    def deflate(text, level):
        deflater = zlib.compressobj(level, zlib.DEFLATED, -15)
        return deflater.compress(text) + deflater.flush()

    files = _codec_store(tmp_path)
    for raw in files.values():
        # The body sits between the 10-byte header and the CRC32 and size.
        assert raw[10:-8] == deflate(gzip.decompress(raw), tef.STORE_GZIP_LEVEL)
    # The larger group tells the level apart from its neighbours and from gzip's 9.
    text = gzip.decompress(files["16_4513_6489.tefgz"])
    assert len({deflate(text, level) for level in (5, 6, 7, 9)}) == 4


GROUP_KEYS = {"16_18052_25957", "16_18053_25957"}  # the tiles of _group_file


def _group_file(tmp_path):
    write_store([_tile_at(18052, 25957, n_entities=3), _tile_at(18053, 25957)], str(tmp_path))
    return tmp_path / "16_4513_6489.tefgz"


def test_truncated_group_file_names_the_file(tmp_path):
    path = _group_file(tmp_path)
    raw = path.read_bytes()
    for cut in (len(raw) // 2, len(raw) - 4, 5):
        path.write_bytes(raw[:cut])
        with pytest.raises(TefError) as err:
            read_group_file(str(path), GROUP_KEYS)
        assert str(err.value).startswith(f"{path}: corrupt gzip data: ")


def test_flipped_byte_in_group_file_names_the_file(tmp_path):
    path = _group_file(tmp_path)
    raw = path.read_bytes()
    unnoticed = []
    for i in range(len(raw)):
        path.write_bytes(raw[:i] + bytes([raw[i] ^ 0x5A]) + raw[i + 1 :])
        try:
            read_group_file(str(path), GROUP_KEYS)
        except TefError as exc:
            assert str(exc).startswith(f"{path}: "), str(exc)
        else:
            unnoticed.append(i)
    # Only the gzip header's mtime, extra-flags and OS bytes go unchecked.
    assert unnoticed == [4, 5, 6, 7, 8, 9]


def test_group_file_that_is_not_utf8_names_the_file_and_line(tmp_path):
    path = _group_file(tmp_path)
    text = gzip.decompress(path.read_bytes()).replace(b'"k"', b'"\xff"', 2)
    path.write_bytes(gzip.compress(text))
    with pytest.raises(TefError) as err:
        read_group_file(str(path), GROUP_KEYS)
    at = text.index(b"\xff")
    assert str(err.value) == f"{path}: tile: invalid UTF-8 at byte {at} (line 1)"


def test_non_finite_number_in_group_file_names_the_file_and_line(tmp_path):
    path = _group_file(tmp_path)
    text = gzip.decompress(path.read_bytes())
    head, point, tail = text.rpartition(b'"coords":[0.5,0.5]')
    assert head.count(b"\n") == 1
    for token, message in (
        (b"NaN", "non-finite number NaN"),
        (b"-Infinity", "non-finite number -Infinity"),
        (b"1e999", "number out of float range"),
    ):
        path.write_bytes(gzip.compress(head + b'"coords":[0.5,' + token + b"]" + tail))
        with pytest.raises(TefError) as err:
            read_group_file(str(path), GROUP_KEYS)
        assert str(err.value).startswith(f"{path}: tile") and str(err.value).endswith(f"{message} (line 2)")


def test_tile_of_another_group_names_the_file(tmp_path):
    path = _group_file(tmp_path)
    moved = tmp_path / group_file_name((16, 4514, 6489))
    path.rename(moved)
    with pytest.raises(TefError) as err:
        read_group_file(str(moved), tef.store_groups(str(tmp_path)).get(moved.name, set()))
    assert str(err.value) == f"{moved}: holds unlisted tiles ['16_18052_25957', '16_18053_25957'] and lacks listed tiles []"


@pytest.mark.parametrize(
    "raw, message",
    [
        (b'{"tiles": {"16_1_2": ', "Expecting value: line 1 column 22 (char 21)"),
        (b"\xff", "'utf-8' codec can't decode byte 0xff in position 0"),
        (b'{"tiles": []}', 'expected {"tiles": {tile id: file name}}'),
        (b"[]", 'expected {"tiles": {tile id: file name}}'),
        (b'{"tiles": {"16_1": "16_0_0.tefgz"}}', "malformed tile id '16_1'"),
        (b'{"tiles": {"16_1_2": "../../../etc/x.tefgz"}}', "tile 16_1_2 maps to '../../../etc/x.tefgz', not '16_0_0.tefgz'"),
        (b'{"tiles": {"16_1_2": 12}}', "tile 16_1_2 maps to 12, not '16_0_0.tefgz'"),
        (b'{"tiles": {"16_5_2": "16_0_0.tefgz"}}', "tile 16_5_2 maps to '16_0_0.tefgz', not '16_1_0.tefgz'"),
    ],
    ids=["truncated", "not-utf8", "tiles-list", "not-object", "bad-key", "traversal", "number", "other-group"],
)
def test_malformed_store_index_names_it(tmp_path, raw, message):
    (tmp_path / "index.json").write_bytes(raw)
    with pytest.raises(TefError) as err:
        read_store_index(str(tmp_path))
    assert str(err.value).startswith(f"{tmp_path / 'index.json'}: {message}")
