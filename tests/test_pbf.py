"""Wire-level and element-level checks for the PBF codec.

The golden-bytes test encodes a tiny file by hand, byte by byte, so the
reader is pinned against an encoding the writer had no part in.
"""

import hashlib
import io
import struct
import zlib

import numpy as np
import pytest

from geotile import pbf
from geotile.pbf import (
    MAX_BLOB_HEADER_SIZE,
    MAX_BLOB_SIZE,
    PbfError,
    RawNode,
    RawRelation,
    RawWay,
    read_pbf,
    write_pbf,
)


# ------------------------------------------------------- manual encoding


def _uv(n):
    out = bytearray()
    while True:
        b = n & 0x7F
        n >>= 7
        if n:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


def _sv(n):
    return _uv((n << 1) ^ (n >> 63) if n < 0 else n << 1)


def _ld(fnum, payload):
    return _uv((fnum << 3) | 2) + _uv(len(payload)) + payload


def _varint_field(fnum, value):
    return _uv(fnum << 3) + _uv(value)


def _blob(blob_type, raw):
    blob = _ld(1, raw)  # Blob.raw
    header = _ld(1, blob_type.encode()) + _varint_field(3, len(blob))
    return struct.pack(">I", len(header)) + header + blob


def _header_blob():
    block = _ld(4, b"OsmSchema-V0.6") + _ld(4, b"DenseNodes")
    return _blob("OSMHeader", block)


def _golden_block():
    # String table: index 0 must be the empty string.
    strings = [b"", b"highway", b"residential", b"name", b"Elm Street"]
    st = b"".join(_ld(1, s) for s in strings)
    # Dense nodes 10, 11 at (lon, lat) microdegree-scale offsets, node 10
    # tagged highway=residential + name=Elm Street, node 11 untagged.
    ids = _sv(10) + _sv(1)
    lats = _sv(350000000) + _sv(1000)
    lons = _sv(-808000000) + _sv(2000)
    keys_vals = _uv(1) + _uv(2) + _uv(3) + _uv(4) + _uv(0) + _uv(0)
    dense = _ld(1, ids) + _ld(8, lats) + _ld(9, lons) + _ld(10, keys_vals)
    group = _ld(2, dense)
    # A way referencing both nodes.
    way = _varint_field(1, 77) + _ld(8, _sv(10) + _sv(1))
    group += _ld(3, way)
    return _ld(1, st) + _ld(2, group)


def _golden_data_blob():
    return _blob("OSMData", _golden_block())


def test_reads_hand_encoded_golden_bytes(tmp_path):
    path = tmp_path / "golden.osm.pbf"
    path.write_bytes(_header_blob() + _golden_data_blob())
    data = read_pbf(str(path))
    assert len(data.nodes) == 2
    n10, n11 = data.nodes
    assert n10.id == 10
    assert n10.tags == (("highway", "residential"), ("name", "Elm Street"))
    assert n10.lat == pytest.approx(35.0, abs=1e-9)
    assert n10.lon == pytest.approx(-80.8, abs=1e-9)
    assert n11.id == 11
    assert n11.tags == ()
    assert n11.lat == pytest.approx(35.0001, abs=1e-9)
    assert n11.lon == pytest.approx(-80.7998, abs=1e-9)
    assert len(data.ways) == 1
    assert data.ways[0].id == 77
    assert data.ways[0].refs == (10, 11)
    assert data.ways[0].coords == ((n10.lon, n10.lat), (n11.lon, n11.lat))


def _packed_copies_file(split):
    """Dense nodes 1-3 and way 77 over them, tagged; each packed field named
    in split is written as two copies, its first value and then the rest."""
    def packed(fnum, name, items):
        if name in split:
            return _ld(fnum, items[0]) + _ld(fnum, b"".join(items[1:]))
        return _ld(fnum, b"".join(items))

    strings = b"".join(_ld(1, s) for s in (b"", b"highway", b"residential", b"name", b"Elm Street"))
    dense = (
        packed(1, "id", [_sv(1), _sv(1), _sv(1)])
        + packed(8, "lat", [_sv(350000000), _sv(1000), _sv(1000)])
        + packed(9, "lon", [_sv(-808000000), _sv(2000), _sv(2000)])
    )
    way = (
        _varint_field(1, 77)
        + packed(2, "keys", [_uv(1), _uv(3)])
        + packed(3, "vals", [_uv(2), _uv(4)])
        + packed(8, "refs", [_sv(1), _sv(1), _sv(1)])
    )
    return _header_blob() + _blob("OSMData", _ld(1, strings) + _ld(2, _ld(2, dense) + _ld(3, way)))


@pytest.mark.parametrize("split", [("refs",), ("id", "lat", "lon"), ("keys", "vals")],
                         ids=["way-refs", "dense-id-lat-lon", "way-keys-vals"])
def test_packed_field_in_two_copies_reads_as_their_concatenation(tmp_path, split):
    # Protobuf parsers must join the copies of a packed repeated field.
    whole, parts = tmp_path / "whole.osm.pbf", tmp_path / "parts.osm.pbf"
    whole.write_bytes(_packed_copies_file(()))
    parts.write_bytes(_packed_copies_file(split))
    data = read_pbf(str(parts))
    assert [n.id for n in data.nodes] == [1, 2, 3]
    assert [n.lat for n in data.nodes] == pytest.approx([35.0, 35.0001, 35.0002], abs=1e-9)
    (way,) = data.ways
    assert way.refs == (1, 2, 3)
    assert way.tags == (("highway", "residential"), ("name", "Elm Street"))
    assert data == read_pbf(str(whole))


def test_negative_lat_lon_offsets_are_int64(tmp_path):
    # PrimitiveBlock.lat_offset / lon_offset are int64: a negative value is
    # the ten-byte varint of its 64-bit two's complement.
    strings = _ld(1, b"")
    dense = _ld(1, _sv(7)) + _ld(8, _sv(350000000)) + _ld(9, _sv(-808000000))
    block = (
        _ld(1, strings)
        + _ld(2, _ld(2, dense))
        + _varint_field(19, (-5) & (2**64 - 1))
        + _varint_field(20, (-1_000_000_000) & (2**64 - 1))
    )
    path = tmp_path / "offsets.osm.pbf"
    path.write_bytes(_header_blob() + _blob("OSMData", block))
    (node,) = read_pbf(str(path)).nodes
    assert node.lat == pytest.approx(35.0 - 5e-9, abs=1e-12)
    assert node.lon == pytest.approx(-81.8, abs=1e-12)
    # The same fields with a length-delimited wire type are not varints and
    # are skipped like any other mistyped field, not fed into arithmetic.
    path.write_bytes(_header_blob() + _blob("OSMData", block + _ld(17, b"x") + _ld(19, b"x") + _ld(20, b"x")))
    (node,) = read_pbf(str(path)).nodes
    assert node.lat == pytest.approx(35.0 - 5e-9, abs=1e-12)


def test_zlib_blob_variant(tmp_path):
    strings = b"".join(_ld(1, s) for s in [b"", b"building", b"yes"])
    ids = _sv(5)
    lats = _sv(100000000)
    lons = _sv(200000000)
    keys_vals = _uv(1) + _uv(2) + _uv(0)
    dense = _ld(1, ids) + _ld(8, lats) + _ld(9, lons) + _ld(10, keys_vals)
    block = _ld(1, strings) + _ld(2, _ld(2, dense))
    compressed = _ld(3, zlib.compress(block)) + _varint_field(2, len(block))
    header = _ld(1, b"OSMData") + _varint_field(3, len(compressed))
    raw = struct.pack(">I", len(header)) + header + compressed
    path = tmp_path / "z.osm.pbf"
    path.write_bytes(_header_blob() + raw)
    data = read_pbf(str(path))
    assert [n.id for n in data.nodes] == [5]
    assert data.nodes[0].tags == (("building", "yes"),)


def _zlib_blob(blob_type, compressed, raw_size=None):
    blob = _ld(3, compressed)
    if raw_size is not None:
        blob = _varint_field(2, raw_size) + blob
    header = _ld(1, blob_type.encode()) + _varint_field(3, len(blob))
    return struct.pack(">I", len(header)) + header + blob


def test_zlib_blob_sizes(tmp_path):
    block = _ld(4, b"OsmSchema-V0.6") + _ld(4, b"DenseNodes")
    path = tmp_path / "z.osm.pbf"
    for raw_size in (None, len(block)):
        path.write_bytes(_zlib_blob("OSMHeader", zlib.compress(block), raw_size))
        assert read_pbf(str(path)).nodes == []
    for raw_size, match in ((len(block) + 1, "not its raw_size"), (len(block) - 1, "inflates past"),
                            (0, "inflates past 0 bytes")):
        path.write_bytes(_zlib_blob("OSMHeader", zlib.compress(block), raw_size))
        with pytest.raises(PbfError, match=match) as err:
            read_pbf(str(path))
        assert err.value.offset > 0
    path.write_bytes(_zlib_blob("OSMHeader", zlib.compress(block)[:-5], len(block)))
    with pytest.raises(PbfError, match="truncated stream"):
        read_pbf(str(path))
    # An empty blob may declare raw_size 0.
    path.write_bytes(_zlib_blob("OSMHeader", zlib.compress(b""), 0))
    assert read_pbf(str(path)).nodes == []


def test_decompression_bomb_is_cut_at_raw_size(tmp_path, monkeypatch):
    bomb = zlib.compress(b"\0" * (8 << 20), 9)  # 8 MiB of zeros in about 8 KB
    assert len(bomb) < 16 << 10
    requested = []
    real = zlib.decompressobj

    class Spy:
        def __init__(self):
            self._inflater = real()

        def decompress(self, data, max_length=0):
            requested.append(max_length)
            return self._inflater.decompress(data, max_length)

        def __getattr__(self, name):
            return getattr(self._inflater, name)

    monkeypatch.setattr(zlib, "decompressobj", Spy)
    path = tmp_path / "bomb.osm.pbf"
    data = _header_blob() + _zlib_blob("OSMData", bomb, 100)
    path.write_bytes(data)
    with pytest.raises(PbfError, match="inflates past 100 bytes") as err:
        read_pbf(str(path))
    # The offset is the blob's first byte.
    assert err.value.offset == len(data) - len(_varint_field(2, 100) + _ld(3, bomb))
    assert requested == [101]
    # Without raw_size the cap is the format's blob limit.
    requested.clear()
    monkeypatch.setattr(pbf, "MAX_BLOB_SIZE", 1 << 20)
    path.write_bytes(_header_blob() + _zlib_blob("OSMData", bomb))
    with pytest.raises(PbfError, match=f"inflates past {1 << 20} bytes"):
        read_pbf(str(path))
    assert requested == [(1 << 20) + 1]


def test_raw_size_above_blob_limit_is_capped(tmp_path, monkeypatch):
    monkeypatch.setattr(pbf, "MAX_BLOB_SIZE", 1000)
    path = tmp_path / "big.osm.pbf"
    path.write_bytes(_zlib_blob("OSMData", zlib.compress(b"\0" * 1001), 1001))
    with pytest.raises(PbfError, match="inflates past 1000 bytes"):
        read_pbf(str(path))
    path.write_bytes(_zlib_blob("OSMData", zlib.compress(b"\0" * 1000), 1001))
    with pytest.raises(PbfError, match="inflates to 1000 bytes, not its raw_size 1001"):
        read_pbf(str(path))


def test_oversized_blob_header_and_datasize_are_rejected(tmp_path):
    path = tmp_path / "big.osm.pbf"
    header = _ld(1, b"OSMData") + _ld(9, b"x" * MAX_BLOB_HEADER_SIZE)
    path.write_bytes(struct.pack(">I", len(header)) + header)
    with pytest.raises(PbfError, match=f"blob header of {len(header)} bytes exceeds") as err:
        read_pbf(str(path))
    assert err.value.offset == 0
    header = _ld(1, b"OSMData") + _varint_field(3, MAX_BLOB_SIZE + 1)
    path.write_bytes(_header_blob() + struct.pack(">I", len(header)) + header + b"\0" * 64)
    with pytest.raises(PbfError, match=f"blob of {MAX_BLOB_SIZE + 1} bytes exceeds") as err:
        read_pbf(str(path))
    assert err.value.offset == len(_header_blob())
    # A length-delimited datasize is no datasize.
    header = _ld(1, b"OSMData") + _ld(3, b"\x05")
    path.write_bytes(struct.pack(">I", len(header)) + header)
    with pytest.raises(PbfError, match="missing type or datasize"):
        read_pbf(str(path))


# -------------------------------------------------------------- round trip


def test_writer_reader_round_trip_with_random_elements(tmp_path):
    rng = np.random.default_rng(60)
    nodes = []
    for i in range(200):
        nodes.append(
            RawNode(
                id=i + 1,
                lon=float(rng.uniform(-179, 179)),
                lat=float(rng.uniform(-84, 84)),
                tags=(("amenity", "bench"),) if i % 7 == 0 else (),
            )
        )
    ways = [
        RawWay(id=500 + k, refs=tuple(int(r) for r in rng.choice(200, size=5) + 1), tags=(("highway", "path"),))
        for k in range(30)
    ]
    relations = [
        RawRelation(
            id=900,
            members=(("way", 500, "outer"), ("way", 501, "inner")),
            tags=(("type", "multipolygon"),),
        )
    ]
    path = tmp_path / "rt.osm.pbf"
    write_pbf(str(path), nodes=nodes, ways=ways, relations=relations)
    data = read_pbf(str(path))
    assert [n.id for n in data.nodes] == [n.id for n in nodes]
    for got, sent in zip(data.nodes, nodes):
        # 100-nanodegree grid: half a step is the worst-case rounding error.
        assert got.lat == pytest.approx(sent.lat, abs=5.1e-8)
        assert got.lon == pytest.approx(sent.lon, abs=5.1e-8)
        assert got.tags == sent.tags
    assert [(w.id, w.refs, w.tags) for w in data.ways] == [
        (w.id, w.refs, w.tags) for w in ways
    ]
    assert len(data.ways[0].coords) == 5
    assert [(r.id, r.members, r.tags) for r in data.relations] == [
        (r.id, r.members, r.tags) for r in relations
    ]


# Tagged and untagged nodes out of id order, a tagged way and a relation
# with roles; "Mitte" repeats, so the string table reuses an index.
_PINNED = dict(
    nodes=[
        RawNode(3, 13.405, 52.52, (("amenity", "cafe"), ("name", "Mitte"))),
        RawNode(1, -0.1276, 51.5072),
        RawNode(2, 2.3522, -48.8566, (("amenity", "bench"),)),
    ],
    ways=[RawWay(10, (1, 2, 3, 1), (("building", "yes"), ("name", "Mitte")))],
    relations=[
        RawRelation(
            20,
            (("way", 10, "outer"), ("node", 2, "label"), ("relation", 21, "subarea")),
            (("type", "multipolygon"),),
        )
    ],
)


def test_writer_bytes_are_pinned(tmp_path):
    path = tmp_path / "pinned.osm.pbf"
    write_pbf(str(path), **_PINNED)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "c299b803e1462b67b6ac480ea4014461bfbbbd3113add9b9405e3134e1864ddc"
    )


def test_reader_reads_one_blob_at_a_time(tmp_path, monkeypatch):
    path = tmp_path / "pinned.osm.pbf"
    write_pbf(str(path), **_PINNED)
    expected = read_pbf(str(path))
    sizes = []

    class Recorder(io.BufferedReader):
        def read(self, size=-1):
            sizes.append(size)
            return super().read(size)

    monkeypatch.setattr(pbf, "open", lambda file, mode: Recorder(io.FileIO(file, mode)), raising=False)
    assert read_pbf(str(path)) == expected
    assert all(0 <= size <= MAX_BLOB_SIZE for size in sizes)
    # Length, header and blob of each of the two blobs, then the empty read at the end.
    assert len(sizes) == 7


def test_empty_file_yields_nothing(tmp_path):
    path = tmp_path / "empty.osm.pbf"
    path.write_bytes(_header_blob())
    data = read_pbf(str(path))
    assert data.nodes == [] and data.ways == [] and data.relations == []


# ------------------------------------------------------------ degradation


def test_way_with_missing_node_is_dropped_and_counted(tmp_path):
    path = tmp_path / "dangling.osm.pbf"
    write_pbf(
        str(path),
        nodes=[RawNode(id=1, lon=10.0, lat=10.0)],
        ways=[
            RawWay(id=2, refs=(1, 999), tags=(("highway", "track"),)),
            RawWay(id=3, refs=(1,), tags=(("barrier", "gate"),)),
        ],
    )
    data = read_pbf(str(path))
    assert [w.id for w in data.ways] == [3]
    assert data.dropped_ways == 1


def test_relation_members_and_empty_relations_drop(tmp_path):
    path = tmp_path / "rel.osm.pbf"
    write_pbf(
        str(path),
        nodes=[RawNode(id=1, lon=0.0, lat=0.0)],
        ways=[RawWay(id=10, refs=(1,))],
        relations=[
            RawRelation(id=20, members=(("way", 10, "outer"), ("way", 999, "inner")), tags=()),
            RawRelation(id=21, members=(("way", 998, "outer"),), tags=()),
        ],
    )
    data = read_pbf(str(path))
    assert [r.id for r in data.relations] == [20]
    assert data.relations[0].members == (("way", 10, "outer"),)
    assert data.dropped_members == 2
    assert data.dropped_relations == 1


def test_unknown_required_feature_is_rejected(tmp_path):
    block = _ld(4, b"OsmSchema-V0.6") + _ld(4, b"HistoricalInformation")
    path = tmp_path / "feat.osm.pbf"
    path.write_bytes(_blob("OSMHeader", block))
    with pytest.raises(PbfError, match="HistoricalInformation"):
        read_pbf(str(path))


def test_invalid_utf8_in_string_table_is_a_pbf_error(tmp_path):
    good = _golden_data_blob()
    bad = good.replace(b"Elm Street", b"Elm \xfftreet")
    assert bad != good and len(bad) == len(good)
    path = tmp_path / "table.osm.pbf"
    header = _header_blob()
    path.write_bytes(header + bad)
    (header_len,) = struct.unpack(">I", bad[:4])
    with pytest.raises(PbfError, match="string table entry is not valid UTF-8") as err:
        read_pbf(str(path))
    assert err.value.offset == len(header) + 4 + header_len  # the data blob
    assert err.value.block_offset == _golden_block().index(b"Elm Street")


def test_invalid_utf8_in_required_feature_is_a_pbf_error(tmp_path):
    path = tmp_path / "feature.osm.pbf"
    block = _ld(4, b"OsmSchema-V0.6") + _ld(4, b"Dense\xc3Nodes")
    blob = _blob("OSMHeader", block)
    path.write_bytes(blob)
    (header_len,) = struct.unpack(">I", blob[:4])
    with pytest.raises(PbfError, match="required feature is not valid UTF-8") as err:
        read_pbf(str(path))
    assert err.value.offset == 4 + header_len
    assert err.value.block_offset == block.index(b"Dense")


def test_invalid_utf8_in_blob_type_is_a_pbf_error(tmp_path):
    good = _header_blob()
    bad = good.replace(b"OSMHeader", b"OSM\xfeeader")
    path = tmp_path / "type.osm.pbf"
    path.write_bytes(good + bad)
    with pytest.raises(PbfError, match="blob type is not valid UTF-8") as err:
        read_pbf(str(path))
    assert err.value.offset == len(good) + 4  # the second blob's header


def test_truncated_file_reports_byte_offset(tmp_path):
    good = _header_blob() + _golden_data_blob()
    path = tmp_path / "trunc.osm.pbf"
    path.write_bytes(good[:-7])
    with pytest.raises(PbfError) as err:
        read_pbf(str(path))
    assert "byte" in str(err.value)


def test_pbf_error_names_the_file(tmp_path):
    header, data = _header_blob(), _golden_data_blob()
    path = tmp_path / "cut.osm.pbf"
    path.write_bytes((header + data)[:-7])
    (header_len,) = struct.unpack(">I", data[:4])
    with pytest.raises(PbfError) as err:
        read_pbf(str(path))
    assert err.value.offset == len(header) + 4 + header_len  # the data blob
    assert str(err.value) == f"{path}: truncated blob (at byte {err.value.offset})"


_NODE_ID, _NODE_LAT, _NODE_LON = _uv(1 << 3) + _sv(5), _uv(8 << 3) + _sv(100), _uv(9 << 3) + _sv(200)


@pytest.mark.parametrize("group,message", [
    (_ld(1, _ld(1, b"\x0a") + _NODE_LAT + _NODE_LON), "node missing id or coordinates"),
    (_ld(1, _NODE_ID + _ld(8, b"\x01") + _NODE_LON), "node missing id or coordinates"),
    (_ld(1, _NODE_ID + _NODE_LAT + _ld(9, b"\x01")), "node missing id or coordinates"),
    (_ld(3, _ld(1, b"\x07")), "way missing id"),
    (_ld(4, _ld(1, b"\x07")), "relation missing id"),
], ids=["node-id", "node-lat", "node-lon", "way-id", "relation-id"])
def test_ids_and_coordinates_are_read_only_as_varints(tmp_path, group, message):
    # A length-delimited id or coordinate is not the field: the element lacks it.
    header, data = _header_blob(), _blob("OSMData", _ld(1, _ld(1, b"")) + _ld(2, group))
    path = tmp_path / "wire.osm.pbf"
    path.write_bytes(header + data)
    (header_len,) = struct.unpack(">I", data[:4])
    with pytest.raises(PbfError, match=message) as err:
        read_pbf(str(path))
    assert str(err.value).startswith(f"{path}: ")
    assert err.value.offset == len(header) + 4 + header_len


_REFS = _sv(10) + _sv(1) + b"\x80"  # a packed varint cut short
_NODE_FIXED32 = _NODE_ID + _NODE_LAT + _NODE_LON + _uv((12 << 3) | 5) + b"\x01\x02"  # a fixed32 cut short
_RELATION = _varint_field(1, 5) + _ld(8, _uv(0)) + _ld(9, _sv(10)) + _ld(10, _uv(7))  # member type 7


def _offset_cases():
    """(block, message, block offset of the fault) for faults in a group after the golden block's."""
    way = _varint_field(1, 78) + _ld(8, _sv(10)) + _ld(8, _REFS)  # the refs in two copies
    cases = []
    for group, marker, message, past in (
        (_ld(3, way), _REFS, "truncated varint", len(_REFS)),
        (_ld(1, _NODE_FIXED32), b"\x01\x02", "truncated fixed32 field", 0),
        (_ld(4, _RELATION), _RELATION, "unknown member type 7", 0),
    ):
        block = _golden_block() + _ld(2, group)
        cases.append((block, message, block.rindex(marker) + past))
    return cases


@pytest.mark.parametrize("block,message,at", _offset_cases(),
                         ids=["way-refs", "node-fixed32", "relation"])
def test_fault_in_a_block_reports_its_offset_in_the_inflated_block(tmp_path, block, message, at):
    header, data = _header_blob(), _zlib_blob("OSMData", zlib.compress(block), len(block))
    path = tmp_path / "fault.osm.pbf"
    path.write_bytes(header + data)
    (header_len,) = struct.unpack(">I", data[:4])
    blob_start = len(header) + 4 + header_len
    with pytest.raises(PbfError) as err:
        read_pbf(str(path))
    assert (err.value.offset, err.value.block_offset) == (blob_start, at)
    assert str(err.value) == f"{path}: {message} (at byte {at} of the block in the blob at byte {blob_start})"


# ------------------------------------------------------ scalar references
#
# write_pbf and the packed-field decoders each walk a field in one loop; these
# per-value forms are the encoding and decoding they must equal.


def _reference_write(path, nodes=(), ways=(), relations=()):
    """write_pbf one value at a time: deltas, then zigzag, then a varint per value."""
    def deltas(values):
        values = list(values)
        return [v - p for v, p in zip(values, [0] + values[:-1])]

    def packed_s(fnum, values):
        return _ld(fnum, b"".join(_sv(v) for v in deltas(values)))

    def packed_u(fnum, values):
        return _ld(fnum, b"".join(_uv(v) for v in values))

    table = {"": 0}

    def sid(s):
        return table.setdefault(s, len(table))

    def head(element):
        keys = [sid(k) for k, _ in element.tags]
        vals = [sid(v) for _, v in element.tags]
        msg = _varint_field(1, element.id & (2**64 - 1))  # int64
        return msg + packed_u(2, keys) + packed_u(3, vals) if keys else msg

    nodes = sorted(nodes, key=lambda n: n.id)
    dense = b""
    if nodes:
        lats = [round(n.lat / (pbf.COORD_SCALE * pbf.DEFAULT_GRANULARITY)) for n in nodes]
        lons = [round(n.lon / (pbf.COORD_SCALE * pbf.DEFAULT_GRANULARITY)) for n in nodes]
        dense = packed_s(1, [n.id for n in nodes]) + packed_s(8, lats) + packed_s(9, lons)
        if any(n.tags for n in nodes):
            keys_vals = []
            for n in nodes:
                for k, v in n.tags:
                    keys_vals += (sid(k), sid(v))
                keys_vals.append(0)
            dense += packed_u(10, keys_vals)
    way_msgs = [head(w) + packed_s(8, w.refs) for w in ways]
    rel_msgs = [
        head(r)
        + packed_u(8, [sid(role) for _, _, role in r.members])
        + packed_s(9, [ref for _, ref, _ in r.members])
        + packed_u(10, [pbf.MEMBER_TYPES.index(t) for t, _, _ in r.members])
        for r in relations
    ]
    block = _ld(1, b"".join(_ld(1, s.encode("utf-8")) for s in table))
    for fnum, msgs in ((2, [dense] if nodes else []), (3, way_msgs), (4, rel_msgs)):
        if msgs:
            block += _ld(2, b"".join(_ld(fnum, msg) for msg in msgs))
    block += _varint_field(17, pbf.DEFAULT_GRANULARITY)
    with open(path, "wb") as fh:
        for blob_type, payload in (("OSMHeader", _ld(4, b"OsmSchema-V0.6") + _ld(4, b"DenseNodes")), ("OSMData", block)):
            blob = _varint_field(2, len(payload)) + _ld(3, zlib.compress(payload))
            header = _ld(1, blob_type.encode("utf-8")) + _varint_field(3, len(blob))
            fh.write(struct.pack(">I", len(header)) + header + blob)


def _reference_uvarint(buf, i, base):
    """One varint at buf[i], as (value, next i); the per-value decode."""
    result = shift = 0
    while True:
        if i >= len(buf):
            raise PbfError("truncated varint", base + i)
        b = buf[i]
        i += 1
        result |= (b & 0x7F) << shift
        if not b & 0x80:
            return result, i
        shift += 7
        if shift > 70:
            raise PbfError("varint too long", base + i)


def _reference_varints(copies):
    out = []
    for at, buf in copies:
        i = 0
        while i < len(buf):
            v, i = _reference_uvarint(buf, i, at)
            out.append(v)
    return out


def _random_elements(rng, n_nodes, n_strings):
    """Nodes, ways and relations with ids of either sign, coordinates all over
    the globe (so deltas of both signs and of one to five bytes), multi-byte
    ids and refs, and tags drawn from n_strings strings."""
    strings = [f"s{i}" for i in range(n_strings)]

    def tags():
        k = int(rng.integers(0, 4))
        return tuple((str(rng.choice(strings)), str(rng.choice(strings))) for _ in range(k))

    ids = list(dict.fromkeys(int(i) for i in rng.integers(-(1 << 40), 1 << 40, size=n_nodes)))
    nodes = [RawNode(i, float(rng.uniform(-180, 180)), float(rng.uniform(-85, 85)), tags()) for i in ids]
    ways = [
        RawWay(int(rng.integers(-(1 << 62), 1 << 62)), tuple(int(r) for r in rng.choice(ids + [-3, 1 << 41], size=int(rng.integers(0, 9)))), tags())
        for _ in range(25)
    ]
    relations = [
        RawRelation(
            int(rng.integers(-(1 << 62), 1 << 62)),
            tuple(
                (str(rng.choice(pbf.MEMBER_TYPES)), int(rng.integers(-(1 << 50), 1 << 50)), str(rng.choice(strings + [""])))
                for _ in range(int(rng.integers(0, 6)))
            ),
            tags(),
        )
        for _ in range(8)
    ]
    return nodes, ways, relations


@pytest.mark.parametrize("seed,n_nodes,n_strings", [
    (1, 40, 5), (2, 300, 60), (3, 120, 400), (4, 0, 3), (5, 1, 1),
], ids=["small-table", "many-nodes", "two-byte-tag-indices", "no-nodes", "one-untagged-string"])
def test_writer_bytes_equal_the_per_value_reference(tmp_path, seed, n_nodes, n_strings):
    rng = np.random.default_rng(seed)
    nodes, ways, relations = _random_elements(rng, n_nodes, n_strings)
    if n_strings > 127:
        used = {s for e in nodes + ways + relations for kv in e.tags for s in kv}
        assert len(used) > 127, "tag indices must reach two bytes"
    fast, slow = tmp_path / "fast.pbf", tmp_path / "slow.pbf"
    write_pbf(str(fast), nodes=nodes, ways=ways, relations=relations)
    _reference_write(str(slow), nodes=nodes, ways=ways, relations=relations)
    assert fast.read_bytes() == slow.read_bytes()
    # Untagged nodes only: the dense block carries no keys_vals field.
    untagged = [RawNode(n.id, n.lon, n.lat) for n in nodes]
    write_pbf(str(fast), nodes=untagged, ways=ways[:3])
    _reference_write(str(slow), nodes=untagged, ways=ways[:3])
    assert fast.read_bytes() == slow.read_bytes()


def _random_varint_bytes(rng, count, lengths=(1, 1, 1, 2, 2, 3, 5, 10, 11)):
    """count varints of one of lengths bytes with random payloads, overlong forms included."""
    out = bytearray()
    for _ in range(count):
        length = int(rng.choice(lengths))
        body = [int(b) | 0x80 for b in rng.integers(0, 256, size=length - 1)]
        out += bytes(body) + bytes([int(rng.integers(0, 128))])
    return bytes(out)


@pytest.mark.parametrize("seed", range(6))
def test_packed_decoders_equal_the_per_value_decode(seed):
    rng = np.random.default_rng(100 + seed)
    buf = _random_varint_bytes(rng, 400)
    # The field in up to four copies, cut at random varint boundaries.
    ends, i = [], 0
    while i < len(buf):
        _, i = _reference_uvarint(buf, i, 0)
        ends.append(i)
    cuts = sorted(int(c) for c in rng.choice(ends, size=min(3, len(ends)), replace=False))
    copies = [(1000 * k + 7, buf[a:b]) for k, (a, b) in enumerate(zip([0] + cuts, cuts + [len(buf)]))]
    ascii_copy = (50_000, bytes(int(b) for b in rng.integers(0, 128, size=64)))
    # Varints of at most 8 bytes (56 bits) sum to values inside int64.
    narrow = (60_000, _random_varint_bytes(rng, 400, lengths=(1, 1, 2, 3, 5, 8)))
    for field in (copies, [ascii_copy], copies + [ascii_copy], [(3, b"")], [narrow]):
        want = _reference_varints(field)
        assert pbf._varints({(8, 2): field}, 8) == want
        zigzag = [(v >> 1) ^ -(v & 1) for v in want]
        sums = [sum(zigzag[: k + 1]) for k in range(len(zigzag))]
        if all(-(2**63) <= v < 2**63 for v in sums):
            assert pbf._delta_coded({(8, 2): field}, 8, "way ref", 70) == sums
        else:
            with pytest.raises(PbfError, match="way ref is outside int64") as err:
                pbf._delta_coded({(8, 2): field}, 8, "way ref", 70)
            assert err.value.offset == 70
    assert pbf._varints({}, 8) == pbf._delta_coded({}, 8, "way ref", 0) == []


@pytest.mark.parametrize("tail", [
    b"\x80", b"\xff\xff", b"\x80" * 10, b"\x80" * 11, b"\x80" * 12 + b"\x01", b"\xff" * 20,
], ids=["cut-1", "cut-2", "cut-10", "cut-11", "too-long-12", "too-long-20"])
@pytest.mark.parametrize("head", [b"", b"\x05\x96\x01", b"\x05" * 30])
def test_bad_varints_raise_the_per_value_error_at_the_same_offset(head, tail):
    copies = [(40, b"\x01\x02"), (90, head + tail)]
    with pytest.raises(PbfError) as want:
        _reference_varints(copies)
    for decode in (pbf._varints, lambda m, fnum: pbf._delta_coded(m, fnum, "way ref", 0)):
        with pytest.raises(PbfError) as got:
            decode({(9, 2): copies}, 9)
        assert (str(got.value), got.value.offset) == (str(want.value), want.value.offset)


def test_eleven_byte_varint_ending_the_copy_is_read_like_the_per_value_decode():
    buf = b"\xff" * 10 + b"\x7f"
    assert pbf._varints({(1, 2): [(0, buf)]}, 1) == _reference_varints([(0, buf)]) == [(1 << 77) - 1]


@pytest.mark.parametrize("element_id", [-1, -(2**63), 2**63 - 1])
def test_int64_ids_of_either_sign_round_trip(tmp_path, element_id):
    path = tmp_path / "ids.osm.pbf"
    node = RawNode(element_id, 13.4, 52.5, (("amenity", "bench"),))
    way = RawWay(element_id, (element_id, element_id), (("highway", "path"),))
    relation = RawRelation(element_id, (("way", element_id, "outer"), ("node", element_id, "")), (("type", "route"),))
    write_pbf(str(path), nodes=[node], ways=[way], relations=[relation])
    data = read_pbf(str(path))
    assert [n.id for n in data.nodes] == [element_id]
    assert [(w.id, w.refs) for w in data.ways] == [(element_id, (element_id, element_id))]
    assert [(r.id, r.members) for r in data.relations] == [(element_id, relation.members)]
    slow = tmp_path / "slow.osm.pbf"
    _reference_write(str(slow), nodes=[node], ways=[way], relations=[relation])
    assert path.read_bytes() == slow.read_bytes()


def test_way_and_relation_ids_are_read_as_int64(tmp_path):
    # Protobuf writes int64 -5 as the ten-byte varint of its two's complement.
    minus_five = (-5) & (2**64 - 1)
    assert len(_uv(minus_five)) == 10
    strings = _ld(1, b"") + _ld(1, b"outer")
    dense = _ld(1, _sv(3)) + _ld(8, _sv(100)) + _ld(9, _sv(200))
    way = _varint_field(1, minus_five) + _ld(8, _sv(3))
    relation = _varint_field(1, minus_five) + _ld(8, _uv(1)) + _ld(9, _sv(-5)) + _ld(10, _uv(1))
    block = _ld(1, strings) + _ld(2, _ld(2, dense)) + _ld(2, _ld(3, way)) + _ld(2, _ld(4, relation))
    path = tmp_path / "neg.osm.pbf"
    path.write_bytes(_header_blob() + _blob("OSMData", block))
    data = read_pbf(str(path))
    assert [w.id for w in data.ways] == [-5]
    assert [(r.id, r.members) for r in data.relations] == [(-5, (("way", -5, "outer"),))]


_INT64_MAX = 2**63 - 1


@pytest.mark.parametrize("group,message", [
    # Two dense id deltas of 2**63 - 1 sum to 2**64 - 2.
    (_ld(2, _ld(1, _sv(_INT64_MAX) * 2) + _ld(8, _sv(0) * 2) + _ld(9, _sv(0) * 2)), "node id is outside int64"),
    (_ld(2, _ld(1, _sv(1) * 2) + _ld(8, _sv(_INT64_MAX) + _sv(1)) + _ld(9, _sv(0) * 2)), "node lat is outside int64"),
    (_ld(2, _ld(1, _sv(1) * 2) + _ld(8, _sv(0) * 2) + _ld(9, _sv(-(2**63)) + _sv(-1))), "node lon is outside int64"),
    (_ld(1, _varint_field(1, 2**64) + _NODE_LAT + _NODE_LON), "node id is outside int64"),
    (_ld(1, _NODE_ID + _varint_field(8, 2**65 + 1) + _NODE_LON), "node lat is outside int64"),
    (_ld(3, _varint_field(1, 7) + _ld(8, _sv(_INT64_MAX) + _sv(1))), "way ref is outside int64"),
    (_ld(4, _varint_field(1, 5) + _ld(8, _uv(0) * 2) + _ld(9, _sv(-(2**63)) + _sv(-1)) + _ld(10, _uv(1) * 2)),
     "relation member ref is outside int64"),
], ids=["dense-id", "dense-lat", "dense-lon", "node-id", "node-lat", "way-ref", "relation-ref"])
def test_decoded_values_outside_int64_are_rejected_at_their_element(tmp_path, group, message):
    block = _ld(1, _ld(1, b"")) + _ld(2, group)
    header, data = _header_blob(), _blob("OSMData", block)
    path = tmp_path / "wide.osm.pbf"
    path.write_bytes(header + data)
    (header_len,) = struct.unpack(">I", data[:4])
    blob_start = len(header) + 4 + header_len
    element_at = len(block) - len(_message_payload(group))
    with pytest.raises(PbfError) as err:
        read_pbf(str(path))
    assert (err.value.offset, err.value.block_offset) == (blob_start, element_at)
    assert str(err.value) == f"{path}: {message} (at byte {element_at} of the block in the blob at byte {blob_start})"


def _message_payload(field):
    """The payload of one length-delimited field, as _ld wrote it."""
    _, i = _reference_uvarint(field, 0, 0)
    _, i = _reference_uvarint(field, i, 0)
    return field[i:]


_STEP = pbf.COORD_SCALE * pbf.DEFAULT_GRANULARITY


@pytest.mark.parametrize("elements,message", [
    (dict(nodes=[RawNode(2**63, 0.0, 0.0)]), f"node {2**63}: id {2**63} is outside int64"),
    (dict(nodes=[RawNode(-(2**63) - 1, 0.0, 0.0)]), f"node {-(2**63) - 1}: id {-(2**63) - 1} is outside int64"),
    (dict(nodes=[RawNode(-1, 0.0, 0.0), RawNode(2**63 - 1, 0.0, 0.0)]),
     f"node {2**63 - 1}: id delta {2**63} is outside int64"),
    (dict(nodes=[RawNode(4, 0.0, 1e12)]), f"node 4: lat {round(1e12 / _STEP)} is outside int64"),
    (dict(nodes=[RawNode(4, -1e12, 0.0)]), f"node 4: lon {round(-1e12 / _STEP)} is outside int64"),
    (dict(ways=[RawWay(2**63, (1, 2))]), f"way {2**63}: id is outside int64"),
    (dict(ways=[RawWay(7, (1, 2**64))]), f"way 7: ref {2**64} is outside int64"),
    (dict(ways=[RawWay(7, (2**63 - 1, -2))]), f"way 7: ref delta {-(2**63) - 1} is outside int64"),
    (dict(relations=[RawRelation(-(2**63) - 1, (("way", 1, ""),))]), f"relation {-(2**63) - 1}: id is outside int64"),
    (dict(relations=[RawRelation(9, (("way", -(2**62), ""), ("node", 2**62, "")))]),
     f"relation 9: member ref delta {2**63} is outside int64"),
], ids=["node-id-high", "node-id-low", "node-id-delta", "lat", "lon", "way-id", "way-ref", "way-ref-delta",
        "relation-id", "relation-ref-delta"])
def test_values_outside_int64_are_refused_before_writing(tmp_path, elements, message):
    path = tmp_path / "out.osm.pbf"
    with pytest.raises(ValueError) as err:
        write_pbf(str(path), **elements)
    assert str(err.value) == message
    assert not path.exists()


def test_varint_of_a_negative_number_raises_instead_of_looping():
    with pytest.raises(ValueError):
        pbf._uv(-5)
    with pytest.raises(ValueError):
        pbf._varint_bytes([3, -(2**40)])


def test_garbage_header_length_fails_fast(tmp_path):
    path = tmp_path / "bad.osm.pbf"
    path.write_bytes(struct.pack(">I", 10_000_000) + b"\x00" * 16)
    with pytest.raises(PbfError):
        read_pbf(str(path))
