"""Minimal OSM PBF reader and writer.

Implements the protobuf wire format directly for the handful of message
types the OSM container uses (BlobHeader, Blob, HeaderBlock, PrimitiveBlock
with dense nodes, ways and relations).  The file is read one blob at a
time, so memory holds one blob plus the decoded elements.  Reading is
two-pass: raw elements first, then node coordinates are resolved into ways;
elements with unresolvable references are dropped and counted.  Malformed
input raises PbfError naming the file and the byte offset of the failure; a
fault inside a blob's block is named by the blob's offset in the file and
the fault's offset in the block the blob decodes to.
Header and blob sizes are held to the format's limits, and a compressed
blob is inflated no further than its declared raw_size.

Each packed field is decoded in one loop over its bytes, with no call per
value, and encoded in one loop that takes each value's delta, zigzag and
varint bytes together.  Ids are int64 as the format prescribes, so negative
ids (which editors give objects not yet uploaded) are read and written; an
id, reference or coordinate that decodes to a value int64 cannot hold raises
PbfError at its element, checked with one min and one max per field.
Elements are read into named tuples (RawNode, RawWay, RawRelation), which
cost less to build per element than frozen dataclasses.

The writer exists so tests, demos and the benchmark can author fixture
files; it emits a single zlib-compressed primitive block per call, and
refuses with ValueError, before it opens the file, an id, reference or
quantised coordinate, or a delta of one, that int64 cannot hold.
"""

from __future__ import annotations

import logging
import struct
import zlib
from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple

log = logging.getLogger(__name__)

COORD_SCALE = 1e-9
DEFAULT_GRANULARITY = 100

# The format's limits: a BlobHeader is at most 64 KiB, a Blob's data and
# its decompressed contents at most 32 MiB.
MAX_BLOB_HEADER_SIZE = 64 * 1024
MAX_BLOB_SIZE = 32 * 1024 * 1024

_SUPPORTED_FEATURES = {"OsmSchema-V0.6", "DenseNodes"}

MEMBER_TYPES = ("node", "way", "relation")


class PbfError(ValueError):
    """Malformed PBF input.  offset is the byte of the file at fault; for a
    fault inside a blob's block, offset is the blob's first byte and
    block_offset the faulty byte of the (inflated) block."""

    def __init__(self, message: str, offset: int | None = None, block_offset: int | None = None):
        self.reason = message
        if block_offset is not None:
            message = f"{message} (at byte {block_offset} of the block in the blob at byte {offset})"
        elif offset is not None:
            message = f"{message} (at byte {offset})"
        super().__init__(message)
        self.offset = offset
        self.block_offset = block_offset


class RawNode(NamedTuple):
    id: int
    lon: float
    lat: float
    tags: tuple[tuple[str, str], ...] = ()


class RawWay(NamedTuple):
    id: int
    refs: tuple[int, ...]
    tags: tuple[tuple[str, str], ...] = ()
    coords: tuple[tuple[float, float], ...] = ()


class RawRelation(NamedTuple):
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


_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


def _int64(n: int) -> int:
    """A varint read as protobuf int64: the low 64 bits in two's complement."""
    n &= (1 << 64) - 1
    return n - (1 << 64) if n >= 1 << 63 else n


def _fields(buf: bytes, base: int):
    """Iterate (field_number, wire_type, value, offset) over one message
    that starts at byte base; offset is where the value starts."""
    i = 0
    n = len(buf)
    while i < n:
        key, i = _uvarint(buf, i, base)
        fnum, wt = key >> 3, key & 7
        at = base + i
        if wt == 0:
            val, i = _uvarint(buf, i, base)
        elif wt == 2:
            ln, i = _uvarint(buf, i, base)
            if i + ln > n:
                raise PbfError("truncated length-delimited field", base + i)
            at = base + i
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
        yield fnum, wt, val, at


def _message(buf: bytes, base: int) -> dict[tuple[int, int], int | bytes | list[tuple[int, bytes]]]:
    """Each (field number, wire type) of one message that starts at byte base.

    A varint or fixed-size field keeps its last value, as protobuf
    prescribes for a field that is not repeated.  A length-delimited field
    keeps the list of all its copies as (offset, bytes): a packed repeated
    field is their concatenation, an embedded message their merge, and a
    string the last.  A field read with the wrong wire type is a different
    key, so a mistyped id or coordinate is simply absent.
    """
    m: dict = {}
    for fnum, wt, val, at in _fields(buf, base):
        if wt == 2:
            m.setdefault((fnum, 2), []).append((at, val))
        else:
            m[fnum, wt] = val
    return m


def _varints(m: dict, fnum: int) -> list[int]:
    """A packed varint field, its copies' values in turn; empty when the message lacks it.

    Each copy is walked byte by byte in one loop; a copy with no byte over
    0x7F is all one-byte varints and is taken whole.  A copy that ends inside
    a varint, or holds one longer than _uvarint allows, is walked again by
    _uvarint, which raises the same PbfError at the same offset.
    """
    out = []
    append = out.append
    for at, buf in m.get((fnum, 2), ()):
        if buf.isascii():
            out += buf
            continue
        value = shift = 0
        for b in buf:
            if b < 0x80:
                append(value | b << shift)
                value = shift = 0
            elif shift == 70:  # an 11th byte that does not end the varint
                break
            else:
                value |= (b & 0x7F) << shift
                shift += 7
        if shift:
            i = 0
            while True:  # ends in _uvarint's error at the faulty varint
                _, i = _uvarint(buf, i, at)
    return out


def _delta_coded(m: dict, fnum: int, what: str, base: int) -> list[int]:
    """A packed sint64 field of deltas (ids, coordinates, member refs), summed
    back to values; a sum that int64 cannot hold raises PbfError naming what."""
    values = list(accumulate([(v >> 1) ^ -(v & 1) for v in _varints(m, fnum)]))
    if values and not (_INT64_MIN <= min(values) and max(values) <= _INT64_MAX):
        raise PbfError(f"{what} is outside int64", base)
    return values


# ------------------------------------------------------------------- reading


def _text(val: bytes, what: str, base: int) -> str:
    try:
        return val.decode("utf-8")
    except UnicodeDecodeError:
        raise PbfError(f"{what} is not valid UTF-8", base) from None


def _string(table: list[str], i: int, base: int) -> str:
    try:
        return table[i]
    except IndexError:
        raise PbfError("string table index out of range", base) from None


def _tags(m: dict, table: list[str], base: int) -> tuple[tuple[str, str], ...]:
    """An element's tags from its packed keys (field 2) and vals (field 3)."""
    keys, vals = _varints(m, 2), _varints(m, 3)
    if len(keys) != len(vals):
        raise PbfError("keys/vals length mismatch", base)
    return tuple((_string(table, k, base), _string(table, v, base)) for k, v in zip(keys, vals))


# A node's sint64 fields, dense or plain: (field number, name).
_NODE_FIELDS = ((1, "id"), (8, "lat"), (9, "lon"))


def _dense(m: dict, table: list[str], degrees, base: int) -> list[RawNode]:
    ids, lats, lons = (_delta_coded(m, fnum, f"node {name}", base) for fnum, name in _NODE_FIELDS)
    keys_vals = _varints(m, 10)
    if not (len(ids) == len(lats) == len(lons)):
        raise PbfError("dense node arrays disagree on length", base)
    # keys_vals runs key, val, key, val, ..., 0 for each node in turn; a
    # block whose nodes are all untagged may leave it out.
    tags_per_node: list[tuple[tuple[str, str], ...]] = []
    current: list[tuple[str, str]] = []
    i = 0
    while i < len(keys_vals):
        if keys_vals[i] == 0:
            tags_per_node.append(tuple(current))
            current = []
            i += 1
        elif i + 1 >= len(keys_vals):
            raise PbfError("dangling key in dense keys_vals", base)
        else:
            current.append((_string(table, keys_vals[i], base), _string(table, keys_vals[i + 1], base)))
            i += 2
    if current:
        raise PbfError("dense keys_vals not terminated", base)
    if tags_per_node and len(tags_per_node) != len(ids):
        raise PbfError("dense keys_vals does not cover all nodes", base)
    lons, lats = degrees(lons, "lon"), degrees(lats, "lat")
    return list(map(RawNode, ids, lons, lats, tags_per_node or [()] * len(ids)))


def _node(m: dict, table: list[str], degrees, base: int) -> RawNode:
    if not {(1, 0), (8, 0), (9, 0)} <= m.keys():
        raise PbfError("node missing id or coordinates", base)
    for fnum, name in _NODE_FIELDS:
        if m[fnum, 0] >> 64:  # zigzag maps the varints below 2**64, and only those, onto int64
            raise PbfError(f"node {name} is outside int64", base)
    nid, lat, lon = ((v >> 1) ^ -(v & 1) for v in (m[1, 0], m[8, 0], m[9, 0]))  # sint64
    return RawNode(nid, *degrees([lon], "lon"), *degrees([lat], "lat"), _tags(m, table, base))


def _way(m: dict, table: list[str], base: int) -> RawWay:
    if (1, 0) not in m:
        raise PbfError("way missing id", base)
    return RawWay(_int64(m[1, 0]), tuple(_delta_coded(m, 8, "way ref", base)), _tags(m, table, base))


def _relation(m: dict, table: list[str], base: int) -> RawRelation:
    if (1, 0) not in m:
        raise PbfError("relation missing id", base)
    roles, memids, types = _varints(m, 8), _delta_coded(m, 9, "relation member ref", base), _varints(m, 10)
    if not (len(roles) == len(memids) == len(types)):
        raise PbfError("relation member arrays disagree on length", base)
    members = []
    for role, ref, mtype in zip(roles, memids, types):
        if mtype >= len(MEMBER_TYPES):
            raise PbfError(f"unknown member type {mtype}", base)
        members.append((MEMBER_TYPES[mtype], ref, _string(table, role, base)))
    return RawRelation(_int64(m[1, 0]), tuple(members), _tags(m, table, base))


def _parse_primitive_block(buf: bytes, out: PbfData) -> None:
    """Decode a PrimitiveBlock into out.  Offsets count from the block's
    first byte, as in _parse_header_block; read_pbf names the blob."""
    m = _message(buf, 0)
    table = [
        _text(val, "string table entry", at)
        for table_at, entries in m.get((1, 2), ())
        for fnum, wt, val, at in _fields(entries, table_at)
        if (fnum, wt) == (1, 2)
    ]
    granularity = m.get((17, 0), DEFAULT_GRANULARITY)
    offsets = {"lat": _int64(m.get((19, 0), 0)), "lon": _int64(m.get((20, 0), 0))}

    def degrees(raws: list[int], axis: str) -> list[float]:
        offset = offsets[axis]
        return [COORD_SCALE * (offset + granularity * raw) for raw in raws]

    for group_at, group in m.get((2, 2), ()):
        for fnum, wt, val, at in _fields(group, group_at):
            if wt != 2 or fnum not in (1, 2, 3, 4):
                continue
            element = _message(val, at)
            if fnum == 1:
                out.nodes.append(_node(element, table, degrees, at))
            elif fnum == 2:
                out.nodes.extend(_dense(element, table, degrees, at))
            elif fnum == 3:
                out.ways.append(_way(element, table, at))
            else:
                out.relations.append(_relation(element, table, at))


def _parse_header_block(buf: bytes) -> None:
    for fnum, wt, val, at in _fields(buf, 0):
        if fnum == 4 and wt == 2:
            feature = _text(val, "required feature", at)
            if feature not in _SUPPORTED_FEATURES:
                raise PbfError(f"unsupported required feature {feature!r}", at)


def _inflate(data: bytes, raw_size: int | None, base: int) -> bytes:
    """zlib-decompress at most raw_size bytes (capped at MAX_BLOB_SIZE), and exactly raw_size if given."""
    limit = MAX_BLOB_SIZE if raw_size is None else min(raw_size, MAX_BLOB_SIZE)
    inflater = zlib.decompressobj()
    try:
        # One byte over the limit tells an oversized blob from an exact one.
        raw = inflater.decompress(data, limit + 1)
    except zlib.error as exc:
        raise PbfError(f"bad zlib data: {exc}", base) from None
    if len(raw) > limit:
        raise PbfError(f"blob inflates past {limit} bytes", base)
    if not inflater.eof:
        raise PbfError("bad zlib data: incomplete or truncated stream", base)
    if raw_size is not None and len(raw) != raw_size:
        raise PbfError(f"blob inflates to {len(raw)} bytes, not its raw_size {raw_size}", base)
    return raw


def _decode_blob(buf: bytes, base: int) -> bytes:
    # raw and zlib_data are a oneof: whichever comes last wins.
    raw = compressed = raw_size = None
    for fnum, wt, val, _ in _fields(buf, base):
        if fnum == 1 and wt == 2:
            raw, compressed = val, None
        elif fnum == 2 and wt == 0:
            raw_size = val
        elif fnum == 3 and wt == 2:
            raw, compressed = None, val
        elif fnum in (4, 5, 6, 7) and wt == 2:
            raise PbfError("unsupported blob compression", base)
    if compressed is not None:
        return _inflate(compressed, raw_size, base)
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
    pos = 0
    saw_header = False
    try:
        with open(path, "rb") as fh:
            while length := fh.read(4):
                if len(length) < 4:
                    raise PbfError("truncated blob header length", pos)
                (header_len,) = struct.unpack(">I", length)
                if header_len > MAX_BLOB_HEADER_SIZE:
                    raise PbfError(f"blob header of {header_len} bytes exceeds {MAX_BLOB_HEADER_SIZE}", pos)
                header_start = pos + 4
                header = fh.read(header_len)
                if len(header) < header_len:
                    raise PbfError("truncated blob header", pos)
                m = _message(header, header_start)
                if (1, 2) not in m or (3, 0) not in m:
                    raise PbfError("blob header missing type or datasize", pos)
                blob_type, datasize = _text(m[1, 2][-1][1], "blob type", header_start), m[3, 0]
                if datasize > MAX_BLOB_SIZE:
                    raise PbfError(f"blob of {datasize} bytes exceeds {MAX_BLOB_SIZE}", pos)
                blob_start = header_start + header_len
                blob = fh.read(datasize)
                if len(blob) < datasize:
                    raise PbfError("truncated blob", blob_start)
                block = _decode_blob(blob, blob_start)
                try:
                    if blob_type == "OSMHeader":
                        _parse_header_block(block)
                        saw_header = True
                    elif blob_type == "OSMData":
                        _parse_primitive_block(block, out)
                except PbfError as exc:
                    raise PbfError(exc.reason, blob_start, exc.offset) from None
                # Unknown blob types are skipped, as the format prescribes.
                pos = blob_start + datasize
    except PbfError as exc:
        exc.args = (f"{path}: {exc}",)
        raise
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
    out.relations = resolved_rels


# ------------------------------------------------------------------- writing


def _ev(fnum: int, value: int) -> bytes:
    return _uv(fnum << 3) + _uv(value)


def _uv(n: int) -> bytes:
    """n as a varint; n must not be negative."""
    return bytes((n,)) if n < 0x80 else bytes(_varint_bytes((n,)))


def _varint_bytes(values) -> bytearray:
    """Each of values as a varint, one after another, in one pass."""
    out = bytearray()
    append = out.append
    for n in values:
        while n > 0x7F:  # false for a negative n, which append then refuses
            append(n & 0x7F | 0x80)
            n >>= 7
        append(n)
    return out


def _ld(fnum: int, payload: bytes) -> bytes:
    return _uv((fnum << 3) | 2) + _uv(len(payload)) + payload


def _packed_u(fnum: int, values: list[int]) -> bytes:
    return _ld(fnum, bytes(values) if max(values, default=0) < 0x80 else _varint_bytes(values))


def _packed_deltas(fnum: int, values: list[int], name) -> bytes:
    """values as a packed sint64 field of their deltas, each from the value
    before (the first from 0): zigzag and varint bytes in one pass.

    A value or delta that int64 cannot hold raises ValueError, naming
    values[i] by name(i), e.g. "way 7: ref".
    """
    lo, hi = min(values, default=0), max(values, default=0)
    # No delta is wider than the span of the values and 0.
    if not (_INT64_MIN <= lo and hi <= _INT64_MAX and max(hi, 0) - min(lo, 0) <= _INT64_MAX):
        prev = 0
        for i, v in enumerate(values):
            if not _INT64_MIN <= v <= _INT64_MAX:
                raise ValueError(f"{name(i)} {v} is outside int64")
            if not _INT64_MIN <= v - prev <= _INT64_MAX:
                raise ValueError(f"{name(i)} delta {v - prev} is outside int64")
            prev = v
    out = bytearray()
    append = out.append
    prev = 0
    for v in values:
        d = v - prev
        prev = v
        z = d << 1 if d >= 0 else ~(d << 1)  # zigzag: (d << 1) ^ (d >> 63)
        while z > 0x7F:
            append(z & 0x7F | 0x80)
            z >>= 7
        append(z)
    return _ld(fnum, out)


def write_pbf(path: str, nodes=(), ways=(), relations=()) -> None:
    """Write elements as a header blob plus one compressed data blob.

    Coordinates are quantised to the standard 100-nanodegree granularity.
    Ways carry node references only; readers resolve coordinates themselves.
    """
    # String table: each string's index is its insertion order, "" first.
    table = {"": 0}

    def sid(s: str) -> int:
        return table.setdefault(s, len(table))

    def head(kind: str, element) -> bytes:
        """A way's or relation's id (int64, so a negative id takes ten bytes), keys and vals."""
        if not _INT64_MIN <= element.id <= _INT64_MAX:
            raise ValueError(f"{kind} {element.id}: id is outside int64")
        keys = [sid(k) for k, _ in element.tags]
        vals = [sid(v) for _, v in element.tags]
        msg = _ev(1, element.id & ((1 << 64) - 1))
        return msg + _packed_u(2, keys) + _packed_u(3, vals) if keys else msg

    dense = b""
    nodes = sorted(nodes, key=lambda n: n.id)
    if nodes:
        step = COORD_SCALE * DEFAULT_GRANULARITY
        for fnum, field_name, values in (
            (1, "id", [n.id for n in nodes]),
            (8, "lat", [round(n.lat / step) for n in nodes]),
            (9, "lon", [round(n.lon / step) for n in nodes]),
        ):
            dense += _packed_deltas(fnum, values, lambda i: f"node {nodes[i].id}: {field_name}")
        if any(n.tags for n in nodes):
            keys_vals: list[int] = []
            for n in nodes:
                for k, v in n.tags:
                    keys_vals += (sid(k), sid(v))
                keys_vals.append(0)
            dense += _packed_u(10, keys_vals)
    way_msgs = [head("way", w) + _packed_deltas(8, w.refs, lambda i: f"way {w.id}: ref") for w in ways]
    rel_msgs = [
        head("relation", r)
        + _packed_u(8, [sid(role) for _, _, role in r.members])
        + _packed_deltas(9, [ref for _, ref, _ in r.members], lambda i: f"relation {r.id}: member ref")
        + _packed_u(10, [MEMBER_TYPES.index(t) for t, _, _ in r.members])
        for r in relations
    ]
    block = _ld(1, b"".join(_ld(1, s.encode("utf-8")) for s in table))
    for fnum, msgs in ((2, [dense] if nodes else []), (3, way_msgs), (4, rel_msgs)):
        if msgs:
            block += _ld(2, b"".join(_ld(fnum, msg) for msg in msgs))
    block += _ev(17, DEFAULT_GRANULARITY)

    header_block = _ld(4, b"OsmSchema-V0.6") + _ld(4, b"DenseNodes")

    with open(path, "wb") as fh:
        for blob_type, payload in (("OSMHeader", header_block), ("OSMData", block)):
            compressed = zlib.compress(payload)
            blob = _ev(2, len(payload)) + _ld(3, compressed)
            header = _ld(1, blob_type.encode("utf-8")) + _ev(3, len(blob))
            fh.write(struct.pack(">I", len(header)))
            fh.write(header)
            fh.write(blob)
