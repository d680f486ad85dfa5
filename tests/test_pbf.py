"""Wire-level and element-level checks for the PBF codec.

The golden-bytes test encodes a tiny file by hand, byte by byte, so the
reader is pinned against an encoding the writer had no part in.
"""

import struct
import zlib

import numpy as np
import pytest

from geotile.pbf import (
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


def _golden_data_blob():
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
    block = _ld(1, st) + _ld(2, group)
    return _blob("OSMData", block)


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


def test_truncated_file_reports_byte_offset(tmp_path):
    good = _header_blob() + _golden_data_blob()
    path = tmp_path / "trunc.osm.pbf"
    path.write_bytes(good[:-7])
    with pytest.raises(PbfError) as err:
        read_pbf(str(path))
    assert "byte" in str(err.value)


def test_garbage_header_length_fails_fast(tmp_path):
    path = tmp_path / "bad.osm.pbf"
    path.write_bytes(struct.pack(">I", 10_000_000) + b"\x00" * 16)
    with pytest.raises(PbfError):
        read_pbf(str(path))
