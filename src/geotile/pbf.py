"""Minimal OSM PBF reader and writer.

Implements the protobuf wire format directly for the handful of message
types the OSM container uses (BlobHeader, Blob, HeaderBlock, PrimitiveBlock
with dense nodes, ways and relations).  Reading is two-pass: raw elements
first, then node coordinates are resolved into ways; elements with
unresolvable references are dropped and counted.  Malformed input raises
PbfError carrying the byte offset of the failure.

The writer exists so tests and demos can author small fixture files; it
emits a single zlib-compressed primitive block per call.
"""

from __future__ import annotations

import logging
import struct
import zlib
from dataclasses import dataclass, field

log = logging.getLogger(__name__)

COORD_SCALE = 1e-9
DEFAULT_GRANULARITY = 100

_SUPPORTED_FEATURES = {"OsmSchema-V0.6", "DenseNodes"}

MEMBER_TYPES = ("node", "way", "relation")


class PbfError(ValueError):
    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte {offset})"
        super().__init__(message)
        self.offset = offset


@dataclass(frozen=True)
class RawNode:
    id: int
    lon: float
    lat: float
    tags: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class RawWay:
    id: int
    refs: tuple[int, ...]
    tags: tuple[tuple[str, str], ...] = ()
    coords: tuple[tuple[float, float], ...] = ()


@dataclass(frozen=True)
class RawRelation:
    id: int
    members: tuple[tuple[str, int, str], ...]  # (type, ref, role)
    tags: tuple[tuple[str, str], ...] = ()


@dataclass
class PbfData:
    nodes: list[RawNode] = field(default_factory=list)
    ways: list[RawWay] = field(default_factory=list)
    relations: list[RawRelation] = field(default_factory=list)
    dropped_ways: int = 0
    dropped_members: int = 0
    dropped_relations: int = 0


# ---------------------------------------------------------------- wire layer


def _uvarint(buf: bytes, i: int, base: int) -> tuple[int, int]:
    result = 0
    shift = 0
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


def _zigzag(n: int) -> int:
    return (n >> 1) ^ -(n & 1)


def _int64(n: int) -> int:
    """A varint read as protobuf int64: the low 64 bits in two's complement."""
    n &= (1 << 64) - 1
    return n - (1 << 64) if n >= 1 << 63 else n


def _fields(buf: bytes, base: int):
    """Iterate (field_number, wire_type, value) over one message."""
    i = 0
    n = len(buf)
    while i < n:
        key, i = _uvarint(buf, i, base)
        fnum, wt = key >> 3, key & 7
        if wt == 0:
            val, i = _uvarint(buf, i, base)
        elif wt == 2:
            ln, i = _uvarint(buf, i, base)
            if i + ln > n:
                raise PbfError("truncated length-delimited field", base + i)
            val = buf[i : i + ln]
            i += ln
        elif wt == 5:
            if i + 4 > n:
                raise PbfError("truncated fixed32 field", base + i)
            val = buf[i : i + 4]
            i += 4
        elif wt == 1:
            if i + 8 > n:
                raise PbfError("truncated fixed64 field", base + i)
            val = buf[i : i + 8]
            i += 8
        else:
            raise PbfError(f"unsupported wire type {wt}", base + i)
        yield fnum, wt, val


def _packed_uvarints(buf: bytes, base: int) -> list[int]:
    out = []
    i = 0
    while i < len(buf):
        v, i = _uvarint(buf, i, base)
        out.append(v)
    return out


def _packed_svarints(buf: bytes, base: int) -> list[int]:
    return [_zigzag(v) for v in _packed_uvarints(buf, base)]


def _delta_decode(values: list[int]) -> list[int]:
    out = []
    acc = 0
    for v in values:
        acc += v
        out.append(acc)
    return out


# ------------------------------------------------------------------- reading


def _parse_string_table(buf: bytes, base: int) -> list[str]:
    table = []
    for fnum, wt, val in _fields(buf, base):
        if fnum == 1 and wt == 2:
            table.append(val.decode("utf-8"))
    return table


def _tags_from_indices(keys, vals, table, base) -> tuple[tuple[str, str], ...]:
    if len(keys) != len(vals):
        raise PbfError("keys/vals length mismatch", base)
    try:
        return tuple((table[k], table[v]) for k, v in zip(keys, vals))
    except IndexError:
        raise PbfError("string table index out of range", base) from None


def _parse_dense(buf: bytes, base: int, table: list[str], coord, out: PbfData) -> None:
    ids: list[int] = []
    lats: list[int] = []
    lons: list[int] = []
    keys_vals: list[int] = []
    for fnum, wt, val in _fields(buf, base):
        if fnum == 1 and wt == 2:
            ids = _delta_decode(_packed_svarints(val, base))
        elif fnum == 8 and wt == 2:
            lats = _delta_decode(_packed_svarints(val, base))
        elif fnum == 9 and wt == 2:
            lons = _delta_decode(_packed_svarints(val, base))
        elif fnum == 10 and wt == 2:
            keys_vals = _packed_uvarints(val, base)
    if not (len(ids) == len(lats) == len(lons)):
        raise PbfError("dense node arrays disagree on length", base)
    tags_per_node: list[tuple[tuple[str, str], ...]] = []
    if keys_vals:
        current: list[tuple[str, str]] = []
        i = 0
        while i < len(keys_vals):
            k = keys_vals[i]
            if k == 0:
                tags_per_node.append(tuple(current))
                current = []
                i += 1
            else:
                if i + 1 >= len(keys_vals):
                    raise PbfError("dangling key in dense keys_vals", base)
                try:
                    current.append((table[k], table[keys_vals[i + 1]]))
                except IndexError:
                    raise PbfError("string table index out of range", base) from None
                i += 2
        if current:
            raise PbfError("dense keys_vals not terminated", base)
    if tags_per_node and len(tags_per_node) != len(ids):
        raise PbfError("dense keys_vals does not cover all nodes", base)
    for idx, nid in enumerate(ids):
        out.nodes.append(
            RawNode(
                id=nid,
                lon=coord(lons[idx], "lon"),
                lat=coord(lats[idx], "lat"),
                tags=tags_per_node[idx] if tags_per_node else (),
            )
        )


def _parse_node(buf: bytes, base: int, table: list[str], coord, out: PbfData) -> None:
    nid = lat = lon = None
    keys: list[int] = []
    vals: list[int] = []
    for fnum, wt, val in _fields(buf, base):
        if fnum == 1:
            nid = _zigzag(val)
        elif fnum == 2 and wt == 2:
            keys = _packed_uvarints(val, base)
        elif fnum == 3 and wt == 2:
            vals = _packed_uvarints(val, base)
        elif fnum == 8:
            lat = _zigzag(val)
        elif fnum == 9:
            lon = _zigzag(val)
    if nid is None or lat is None or lon is None:
        raise PbfError("node missing id or coordinates", base)
    out.nodes.append(
        RawNode(nid, coord(lon, "lon"), coord(lat, "lat"), _tags_from_indices(keys, vals, table, base))
    )


def _parse_way(buf: bytes, base: int, table: list[str], out: PbfData) -> None:
    wid = None
    keys: list[int] = []
    vals: list[int] = []
    refs: list[int] = []
    for fnum, wt, val in _fields(buf, base):
        if fnum == 1:
            wid = val
        elif fnum == 2 and wt == 2:
            keys = _packed_uvarints(val, base)
        elif fnum == 3 and wt == 2:
            vals = _packed_uvarints(val, base)
        elif fnum == 8 and wt == 2:
            refs = _delta_decode(_packed_svarints(val, base))
    if wid is None:
        raise PbfError("way missing id", base)
    out.ways.append(RawWay(wid, tuple(refs), _tags_from_indices(keys, vals, table, base)))


def _parse_relation(buf: bytes, base: int, table: list[str], out: PbfData) -> None:
    rid = None
    keys: list[int] = []
    vals: list[int] = []
    roles: list[int] = []
    memids: list[int] = []
    types: list[int] = []
    for fnum, wt, val in _fields(buf, base):
        if fnum == 1:
            rid = val
        elif fnum == 2 and wt == 2:
            keys = _packed_uvarints(val, base)
        elif fnum == 3 and wt == 2:
            vals = _packed_uvarints(val, base)
        elif fnum == 8 and wt == 2:
            roles = _packed_uvarints(val, base)
        elif fnum == 9 and wt == 2:
            memids = _delta_decode(_packed_svarints(val, base))
        elif fnum == 10 and wt == 2:
            types = _packed_uvarints(val, base)
    if rid is None:
        raise PbfError("relation missing id", base)
    if not (len(roles) == len(memids) == len(types)):
        raise PbfError("relation member arrays disagree on length", base)
    members = []
    for role_idx, ref, mtype in zip(roles, memids, types):
        if mtype not in (0, 1, 2):
            raise PbfError(f"unknown member type {mtype}", base)
        try:
            members.append((MEMBER_TYPES[mtype], ref, table[role_idx]))
        except IndexError:
            raise PbfError("string table index out of range", base) from None
    out.relations.append(RawRelation(rid, tuple(members), _tags_from_indices(keys, vals, table, base)))


def _parse_primitive_block(buf: bytes, base: int, out: PbfData) -> None:
    table: list[str] = []
    groups: list[bytes] = []
    granularity = DEFAULT_GRANULARITY
    lat_offset = 0
    lon_offset = 0
    for fnum, wt, val in _fields(buf, base):
        if fnum == 1 and wt == 2:
            table = _parse_string_table(val, base)
        elif fnum == 2 and wt == 2:
            groups.append(val)
        elif fnum == 17 and wt == 0:
            granularity = val
        elif fnum == 19 and wt == 0:
            lat_offset = _int64(val)
        elif fnum == 20 and wt == 0:
            lon_offset = _int64(val)

    def coord(raw: int, axis: str) -> float:
        offset = lat_offset if axis == "lat" else lon_offset
        return COORD_SCALE * (offset + granularity * raw)

    for group in groups:
        for fnum, wt, val in _fields(group, base):
            if fnum == 1 and wt == 2:
                _parse_node(val, base, table, coord, out)
            elif fnum == 2 and wt == 2:
                _parse_dense(val, base, table, coord, out)
            elif fnum == 3 and wt == 2:
                _parse_way(val, base, table, out)
            elif fnum == 4 and wt == 2:
                _parse_relation(val, base, table, out)


def _parse_header_block(buf: bytes, base: int) -> None:
    for fnum, wt, val in _fields(buf, base):
        if fnum == 4 and wt == 2:
            feature = val.decode("utf-8")
            if feature not in _SUPPORTED_FEATURES:
                raise PbfError(f"unsupported required feature {feature!r}", base)


def _decode_blob(buf: bytes, base: int) -> bytes:
    raw = None
    for fnum, wt, val in _fields(buf, base):
        if fnum == 1 and wt == 2:
            raw = val
        elif fnum == 3 and wt == 2:
            try:
                raw = zlib.decompress(val)
            except zlib.error as exc:
                raise PbfError(f"bad zlib data: {exc}", base) from None
        elif fnum in (4, 5, 6, 7) and wt == 2:
            raise PbfError("unsupported blob compression", base)
    if raw is None:
        raise PbfError("blob carries no data", base)
    return raw


def read_pbf(path: str) -> PbfData:
    """Parse an OSM PBF file and resolve way geometry.

    Ways with any unresolvable node reference are dropped (counted in
    dropped_ways); relation members pointing at unknown elements are dropped
    (dropped_members), and relations losing every member are dropped too.
    """
    out = PbfData()
    with open(path, "rb") as fh:
        data = fh.read()
    pos = 0
    saw_header = False
    while pos < len(data):
        if pos + 4 > len(data):
            raise PbfError("truncated blob header length", pos)
        (header_len,) = struct.unpack(">I", data[pos : pos + 4])
        header_start = pos + 4
        if header_start + header_len > len(data):
            raise PbfError("truncated blob header", pos)
        blob_type = None
        datasize = None
        for fnum, wt, val in _fields(data[header_start : header_start + header_len], header_start):
            if fnum == 1 and wt == 2:
                blob_type = val.decode("utf-8")
            elif fnum == 3:
                datasize = val
        if blob_type is None or datasize is None:
            raise PbfError("blob header missing type or datasize", pos)
        blob_start = header_start + header_len
        if blob_start + datasize > len(data):
            raise PbfError("truncated blob", blob_start)
        block = _decode_blob(data[blob_start : blob_start + datasize], blob_start)
        if blob_type == "OSMHeader":
            _parse_header_block(block, blob_start)
            saw_header = True
        elif blob_type == "OSMData":
            _parse_primitive_block(block, blob_start, out)
        # Unknown blob types are skipped, as the format prescribes.
        pos = blob_start + datasize
    if not saw_header and (out.nodes or out.ways or out.relations):
        log.warning("PBF file %s has no OSMHeader blob", path)
    _resolve(out)
    return out


def _resolve(out: PbfData) -> None:
    node_xy = {n.id: (n.lon, n.lat) for n in out.nodes}
    resolved_ways = []
    way_ids = set()
    for way in out.ways:
        try:
            coords = tuple(node_xy[r] for r in way.refs)
        except KeyError:
            out.dropped_ways += 1
            log.warning("way %d dropped: unresolved node reference", way.id)
            continue
        resolved_ways.append(RawWay(way.id, way.refs, way.tags, coords))
        way_ids.add(way.id)
    out.ways = resolved_ways
    resolved_rels = []
    for rel in out.relations:
        members = []
        for mtype, ref, role in rel.members:
            known = (
                (mtype == "node" and ref in node_xy)
                or (mtype == "way" and ref in way_ids)
                or mtype == "relation"  # nested relations resolved downstream
            )
            if known:
                members.append((mtype, ref, role))
            else:
                out.dropped_members += 1
        if members:
            resolved_rels.append(RawRelation(rel.id, tuple(members), rel.tags))
        else:
            out.dropped_relations += 1
            log.warning("relation %d dropped: no resolvable members", rel.id)
    out.relations = resolved_rels


# ------------------------------------------------------------------- writing


def _ev(fnum: int, value: int) -> bytes:
    return _ekey(fnum, 0) + _uv(value)


def _ekey(fnum: int, wt: int) -> bytes:
    return _uv((fnum << 3) | wt)


def _uv(n: int) -> bytes:
    out = bytearray()
    while True:
        b = n & 0x7F
        n >>= 7
        if n:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


def _sv(n: int) -> bytes:
    return _uv((n << 1) ^ (n >> 63) if n < 0 else n << 1)


def _ld(fnum: int, payload: bytes) -> bytes:
    return _ekey(fnum, 2) + _uv(len(payload)) + payload


def _packed_s(fnum: int, values) -> bytes:
    return _ld(fnum, b"".join(_sv(v) for v in values))


def _packed_u(fnum: int, values) -> bytes:
    return _ld(fnum, b"".join(_uv(v) for v in values))


def _deltas(values) -> list[int]:
    prev = 0
    out = []
    for v in values:
        out.append(v - prev)
        prev = v
    return out


class _StringTable:
    def __init__(self):
        self.strings = [""]
        self.index = {"": 0}

    def add(self, s: str) -> int:
        if s not in self.index:
            self.index[s] = len(self.strings)
            self.strings.append(s)
        return self.index[s]

    def encode(self) -> bytes:
        return b"".join(_ld(1, s.encode("utf-8")) for s in self.strings)


def write_pbf(path: str, nodes=(), ways=(), relations=()) -> None:
    """Write elements as a header blob plus one compressed data blob.

    Coordinates are quantised to the standard 100-nanodegree granularity.
    Ways carry node references only; readers resolve coordinates themselves.
    """
    table = _StringTable()

    def tag_indices(tags):
        keys = [table.add(k) for k, _ in tags]
        vals = [table.add(v) for _, v in tags]
        return keys, vals

    dense = bytearray()
    nodes = sorted(nodes, key=lambda n: n.id)
    if nodes:
        ids = [n.id for n in nodes]
        lats = [round(n.lat / (COORD_SCALE * DEFAULT_GRANULARITY)) for n in nodes]
        lons = [round(n.lon / (COORD_SCALE * DEFAULT_GRANULARITY)) for n in nodes]
        keys_vals: list[int] = []
        if any(n.tags for n in nodes):
            for n in nodes:
                for k, v in n.tags:
                    keys_vals.extend((table.add(k), table.add(v)))
                keys_vals.append(0)
        dense += _packed_s(1, _deltas(ids))
        dense += _packed_s(8, _deltas(lats))
        dense += _packed_s(9, _deltas(lons))
        if keys_vals:
            dense += _packed_u(10, keys_vals)

    way_msgs = []
    for w in ways:
        keys, vals = tag_indices(w.tags)
        msg = _ev(1, w.id)
        if keys:
            msg += _packed_u(2, keys) + _packed_u(3, vals)
        msg += _packed_s(8, _deltas(w.refs))
        way_msgs.append(msg)

    rel_msgs = []
    for r in relations:
        keys, vals = tag_indices(r.tags)
        msg = _ev(1, r.id)
        if keys:
            msg += _packed_u(2, keys) + _packed_u(3, vals)
        roles = [table.add(role) for _, _, role in r.members]
        memids = [ref for _, ref, _ in r.members]
        types = [MEMBER_TYPES.index(t) for t, _, _ in r.members]
        msg += _packed_u(8, roles)
        msg += _packed_s(9, _deltas(memids))
        msg += _packed_u(10, types)
        rel_msgs.append(msg)

    block = _ld(1, table.encode())
    if dense:
        block += _ld(2, _ld(2, bytes(dense)))
    if way_msgs:
        block += _ld(2, b"".join(_ld(3, m) for m in way_msgs))
    if rel_msgs:
        block += _ld(2, b"".join(_ld(4, m) for m in rel_msgs))
    block += _ekey(17, 0) + _uv(DEFAULT_GRANULARITY)

    header_block = _ld(4, b"OsmSchema-V0.6") + _ld(4, b"DenseNodes")

    with open(path, "wb") as fh:
        for blob_type, payload in (("OSMHeader", header_block), ("OSMData", block)):
            compressed = zlib.compress(payload)
            blob = _ev(2, len(payload)) + _ld(3, compressed)
            header = _ld(1, blob_type.encode("utf-8")) + _ev(3, len(blob))
            fh.write(struct.pack(">I", len(header)))
            fh.write(header)
            fh.write(blob)
