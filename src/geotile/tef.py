"""Tile exchange format: JSON lines, one tile per line, plus the gzip store.

The writer emits a canonical form (fixed key order, no whitespace, floats in
shortest round-trip notation) so write -> parse -> write is byte-identical.
Parsing (parse_tef_lines, over the UTF-8 byte lines of a group file)
validates the schema and reports the line number and field path of the
first violation.  The geometry schema is model's: Geometry.of checks
coordinates, and its errors are reported here at their TEF field path.

A store is a directory of ``<zoom>_<gx>_<gy>.tefgz`` files, each holding the
gzipped TEF lines of one 4x4 block of the tile grid (at most 16 tiles), plus
an ``index.json`` mapping tile ids to file names.  replace_store is the only
code that touches a store's files: it deletes the index, then every file
named like a group file, writes the group files encode_group made, and
writes the index last, so a failed write leaves a store that no reader
accepts.  Every stage reads all of its input before it calls replace_store,
so one whose input is bad changes nothing on disk.  Every reader checks that
a group file holds exactly the tiles the index lists for it, and a missing
index or group file raises TefError like a corrupt one.  Gzip members have
a zeroed mtime, so identical content produces identical bytes, and are
deflated at STORE_GZIP_LEVEL, zlib's default 6, not gzip's 9: on the
benchmark corpora 9 took 1.8 to 3.5 times as long and saved at most 1.5% of
the bytes (BENCH_gzip.json).

A group file is read whole and inflated as one gzip member of at most
MAX_GROUP_TEXT bytes; a larger, truncated or multi-member file (the writer
makes one member) raises TefError naming it.

Numbers must be finite: NaN, Infinity and literals that overflow a float are
rejected like any other schema violation.

An entity's visibility graph is stored as ``"visgraph":{"visible":rows}``,
one row per vertex as Geometry.ring_vertices numbers them.  Row i lists the
vertices j > i that i sees, ascending, as the gaps ``j1 - i, j2 - j1, ...``;
a vertex that sees no higher one has ``[]``.  The ring edges
(Geometry.ring_edges) are not stored: the geometry fixes them.  The decoder
takes a graph only on a polygon or multipolygon, with exactly one list per
vertex, every gap an int (not a bool) of at least 1, ``i + sum(row) < n``,
and no ring edge listed.  It rebuilds the edges in the order visibility
builds them: ``(min, max, "bnd")`` for each vertex's ring edge, then each
row's ``(i, j, "vis")``.  The writer refuses, naming the entity, any graph
that is not exactly that shape, so no edge is ever dropped.  Stores written
in the earlier ``{"edges": [[i, j, "bnd"|"vis"], ...]}`` form are refused at
``...visgraph``; ``geotile process`` on the raw store writes them anew.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import os
import re
import zlib
from bisect import bisect_left
from collections import defaultdict
from itertools import accumulate, chain, islice, repeat
from operator import itemgetter, sub
from typing import Iterable, Iterator, get_args

from .geo import TileId
from .model import (
    EDGE_BOUNDARY,
    EDGE_VISIBLE,
    Entity,
    Geometry,
    GeometryError,
    GeometryKind,
    MinBox,
    Tile,
    VisibilityGraph,
    coord,
    number,
)

GROUP_SPAN = 4  # tiles per group file along each axis

INDEX_NAME = "index.json"

STORE_GZIP_LEVEL = 6  # deflate level of every group file

# The most TEF text a group file may inflate to; a reader stops one byte past
# it.  The largest group of the benchmark corpora inflates to 426 KB.
MAX_GROUP_TEXT = 64 * 1024 * 1024

_KINDS = get_args(GeometryKind)

_AREAL = ("polygon", "multipolygon")
_INT = frozenset((int,))
_THREE = frozenset((3,))


class TefError(ValueError):
    pass


def _reject_constant(name: str):
    raise TefError(f"non-finite number {name}")


# Python's json reads NaN, Infinity and -Infinity, which JSON does not allow;
# parse_constant sees only those tokens, so valid lines never call it.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def tile_group(tid: TileId) -> tuple[int, int, int]:
    """Group key (zoom, x // 4, y // 4) indexing the 16-tile store block."""
    return (tid.zoom, tid.x // GROUP_SPAN, tid.y // GROUP_SPAN)


def group_file_name(group: tuple[int, int, int]) -> str:
    return f"{group[0]}_{group[1]}_{group[2]}.tefgz"


# ------------------------------------------------------- visibility graphs


def _ring_rule(geom: Geometry) -> tuple[list[tuple[int, int, str]], dict[int, int]]:
    """The boundary edges of geom's graph, (min, max, "bnd") by vertex as
    visibility builds them, and each ring's first vertex -> its last."""
    ring = geom.ring_edges()
    edges = [(k, j, EDGE_BOUNDARY) if k < j else (j, k, EDGE_BOUNDARY) for k, j in ring]
    return edges, {j: k for k, j in ring if j < k}


def _row_fault(i: int, row, n: int, closing: dict[int, int]) -> str | None:
    """What breaks the format in row i of an n-vertex graph's "visible" list, or None."""
    # type, not isinstance: true and false are ints too
    if type(row) is not list or not _INT.issuperset(map(type, row)) or (row and min(row) < 1):
        return "expected a list of integer gaps of at least 1"
    if i + sum(row) >= n:
        return "vertex index out of range"
    # Pairs ascend from i, so the ring edge i -> i + 1 can only come first,
    # and is one unless i + 1 starts the next ring.  A ring's first vertex
    # must not list its last.
    if (row and row[0] == 1 and i + 1 not in closing) or (i in closing and closing[i] in accumulate(row, initial=i)):
        return "lists a ring edge"
    return None


# ----------------------------------------------------------------- encoding


def _entity_json(e: Entity) -> dict:
    # json.dumps writes the nested tuples of tags and coords as arrays.
    obj: dict = {
        "id": e.id,
        "kind": e.kind,
        "tags": e.tags,
        "geometry": {"type": e.geometry.kind, "coords": e.geometry.coords},
    }
    if e.minbox is not None:
        obj["minbox"] = [float(v) for v in e.minbox.flat()]
    if e.visgraph is not None:
        obj["visgraph"] = {"visible": _visible_rows(e)}
    return obj


def _visible_rows(e: Entity) -> list[list[int]]:
    """The "visible" rows of e's visibility graph; TefError names the entity
    unless the decoder would rebuild exactly that graph from them."""
    graph, geom = e.visgraph, e.geometry
    if geom.kind not in _AREAL:
        raise TefError(f"entity {e.id}: a visibility graph needs a polygon or multipolygon, not a {geom.kind}")
    boundary, closing = _ring_rule(geom)
    n = len(boundary)
    vis = graph.edges[n:]
    try:
        near, far = list(map(itemgetter(0), vis)), list(map(itemgetter(1), vis))
        at = [bisect_left(near, i) for i in range(n + 1)]  # row i is far[at[i]:at[i + 1]]
        rows = []
        for i, a, b in zip(range(n), at, at[1:]):
            js = far[a:b]
            rows.append(list(map(sub, js, (i, *js))))
        # Integer gaps add back up to far exactly, so the rows need only pass the decoder's checks.
        exact = (
            graph.vertices == geom.ring_vertices()
            and graph.edges[:n] == tuple(boundary)
            and _THREE.issuperset(map(len, vis))
            and list(map(itemgetter(2), vis)).count(EDGE_VISIBLE) == len(vis)
            # near is sorted and in range exactly when it lists each row's vertex once per pair.
            and near == list(chain.from_iterable(map(repeat, range(n), map(len, rows))))
            and not any(map(_row_fault, range(n), rows, repeat(n), repeat(closing)))
        )
    except (TypeError, IndexError):  # an edge that is not an (i, j, label) of ints
        exact = False
    if not exact:
        raise TefError(
            f"entity {e.id}: visibility graph is not its geometry's ring edges, "
            "then the visible pairs (i, j, 'vis'), i < j, each once in ascending order"
        )
    return rows


def tile_to_json(tile: Tile) -> str:
    obj = {
        "id": tile.id.key,
        "extent_m": float(tile.extent_m),
        "origin": [float(tile.origin[0]), float(tile.origin[1])],
        "entities": [_entity_json(e) for e in tile.entities],
    }
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


# ----------------------------------------------------------------- decoding


def _fail(path: str, message: str, lineno: int | None) -> TefError:
    where = f" (line {lineno})" if lineno is not None else ""
    return TefError(f"{path}: {message}{where}")


def _schema(path: str, lineno, check, *args):
    """check(*args), with a GeometryError from it raised as a TefError at path plus its where."""
    try:
        return check(*args)
    except GeometryError as exc:
        raise _fail(path + exc.where, exc.message, lineno) from None


def _geometry(obj, path: str, lineno) -> Geometry:
    if not isinstance(obj, dict):
        raise _fail(path, "expected object", lineno)
    kind = obj.get("type")
    if kind not in _KINDS:
        raise _fail(path + ".type", f"unknown geometry type {kind!r}", lineno)
    return _schema(path + ".coords", lineno, Geometry.of, kind, obj.get("coords"))


def _visgraph(obj, geom: Geometry, path: str, lineno) -> VisibilityGraph:
    """The graph of geom whose visible pairs obj's gap rows list."""
    rows = obj.get("visible") if isinstance(obj, dict) else None
    if not isinstance(rows, list):
        raise _fail(path, 'expected {"visible": [[gap, ...], ...]}', lineno)
    if geom.kind not in _AREAL:
        raise _fail(path, f"a visibility graph needs a polygon or multipolygon, not a {geom.kind}", lineno)
    edges, closing = _ring_rule(geom)
    n = len(edges)
    if len(rows) != n:
        raise _fail(path, f"expected {n} rows, one per ring vertex, got {len(rows)}", lineno)
    for i, row in enumerate(rows):
        fault = _row_fault(i, row, n, closing)
        if fault:
            raise _fail(f"{path}.visible[{i}]", fault, lineno)
        edges.extend(zip(repeat(i), islice(accumulate(row, initial=i), 1, None), repeat(EDGE_VISIBLE)))
    return VisibilityGraph(vertices=geom.ring_vertices(), edges=tuple(edges))


def _entity(obj, path: str, lineno) -> Entity:
    if not isinstance(obj, dict):
        raise _fail(path, "expected object", lineno)
    if type(obj.get("id")) is not int:
        raise _fail(path + ".id", "expected integer id", lineno)
    if obj.get("kind") not in ("node", "way", "relation"):
        raise _fail(path + ".kind", f"unknown kind {obj.get('kind')!r}", lineno)
    tags_obj = obj.get("tags")
    if not isinstance(tags_obj, list):
        raise _fail(path + ".tags", "expected list of [key, value]", lineno)
    tags = []
    for i, t in enumerate(tags_obj):
        if not isinstance(t, list) or len(t) != 2 or not all(isinstance(s, str) for s in t):
            raise _fail(f"{path}.tags[{i}]", "expected [key, value] strings", lineno)
        tags.append((t[0], t[1]))
    geom = _geometry(obj.get("geometry"), path + ".geometry", lineno)
    minbox = None
    if obj.get("minbox") is not None:
        mb = obj["minbox"]
        if not isinstance(mb, list) or len(mb) != 8:
            raise _fail(path + ".minbox", "expected 8 numbers", lineno)
        v = [
            x if type(x) is float and x - x == 0.0 else _schema(f"{path}.minbox[{i}]", lineno, number, x)
            for i, x in enumerate(mb)
        ]
        minbox = MinBox(((v[0], v[1]), (v[2], v[3]), (v[4], v[5]), (v[6], v[7])))
    visgraph = None
    if obj.get("visgraph") is not None:
        visgraph = _visgraph(obj["visgraph"], geom, path + ".visgraph", lineno)
    return Entity(
        id=obj["id"], kind=obj["kind"], tags=tuple(tags), geometry=geom, minbox=minbox, visgraph=visgraph
    )


def tile_from_json(line: str, lineno: int | None = None) -> Tile:
    try:
        obj = _DECODER.decode(line)
    except json.JSONDecodeError as exc:
        raise _fail("tile", f"invalid JSON: {exc.msg}", lineno) from None
    except TefError as exc:
        raise _fail("tile", str(exc), lineno) from None
    if not isinstance(obj, dict):
        raise _fail("tile", "expected object", lineno)
    if not isinstance(obj.get("id"), str):
        raise _fail("tile.id", "expected string tile id", lineno)
    try:
        tid = TileId.parse(obj["id"])
    except ValueError as exc:
        raise _fail("tile.id", str(exc), lineno) from None
    extent = _schema("tile.extent_m", lineno, number, obj.get("extent_m"))
    origin = _schema("tile.origin", lineno, coord, obj.get("origin"))
    entities_obj = obj.get("entities")
    if not isinstance(entities_obj, list):
        raise _fail("tile.entities", "expected list", lineno)
    entities = [_entity(e, f"tile.entities[{i}]", lineno) for i, e in enumerate(entities_obj)]
    return Tile(id=tid, origin=origin, extent_m=extent, entities=tuple(entities))


def parse_tef_lines(lines: Iterable[bytes]) -> Iterator[Tile]:
    """Tiles of TEF lines given as UTF-8 bytes."""
    seen: set[str] = set()
    for lineno, raw in enumerate(lines, start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise _fail("tile", f"invalid UTF-8 at byte {exc.start}", lineno) from None
        if not line.strip():
            continue
        tile = tile_from_json(line, lineno)
        if tile.id.key in seen:
            raise TefError(f"duplicate tile id {tile.id.key} (line {lineno})")
        seen.add(tile.id.key)
        yield tile


# -------------------------------------------------------------------- store


def atomic_write_bytes(path: str, *buffers) -> None:
    """Write the buffers in order via a sibling temp file and rename, so
    crashes leave no partial file.  Each buffer is written as it is, without
    a copy: bytes, or a C-contiguous array holding its bytes in file order."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        for data in buffers:
            fh.write(data)
    os.replace(tmp, path)


def utf8_lines(fh: Iterable[bytes], path: str, error: type[ValueError]) -> Iterator[str]:
    """The lines of a binary file as text; one that is not UTF-8 raises the reader's error at ``path:line``."""
    for lineno, raw in enumerate(fh, start=1):
        try:
            yield raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise error(f"{path}:{lineno}: invalid UTF-8 at byte {exc.start}") from None


def _gzip_bytes(data: bytes) -> bytes:
    buf = io.BytesIO()
    # GzipFile, not gzip.compress: 3.11's gzip.compress writes another OS
    # byte in the header, so the store bytes would depend on Python's version.
    with gzip.GzipFile(fileobj=buf, mode="wb", compresslevel=STORE_GZIP_LEVEL, filename="", mtime=0) as gz:
        gz.write(data)
    return buf.getvalue()


def encode_group(tiles: list[Tile]) -> tuple[str, bytes, list[str]]:
    """One group's tiles (at least one) as its file name, its gzipped TEF lines in grid order, and their ids."""
    members = sorted(tiles, key=lambda t: (t.id.x, t.id.y))
    text = "".join(tile_to_json(t) + "\n" for t in members)
    return group_file_name(tile_group(members[0].id)), _gzip_bytes(text.encode("utf-8")), [t.id.key for t in members]


# The names group_file_name writes.
_GROUP_FILE = re.compile(r"\d+_\d+_\d+\.tefgz")


def replace_store(groups: Iterable[tuple[str, bytes, list[str]]], root: str) -> dict[str, str]:
    """Replace any store under root by the encoded groups; returns the tile -> file index.

    Deletes index.json, then every file named like a group file, writes each
    group file, then writes index.json with its keys sorted."""
    os.makedirs(root, exist_ok=True)
    with os.scandir(root) as entries:
        old = [e.path for e in entries if _GROUP_FILE.fullmatch(e.name) and e.is_file()]
    for path in [os.path.join(root, INDEX_NAME), *old]:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    index: dict[str, str] = {}
    for name, data, keys in groups:
        atomic_write_bytes(os.path.join(root, name), data)
        index.update(dict.fromkeys(keys, name))
    payload = json.dumps({"tiles": index}, indent=1, sort_keys=True)
    atomic_write_bytes(os.path.join(root, INDEX_NAME), payload.encode("utf-8"))
    return index


def write_store(tiles: Iterable[Tile], root: str) -> dict[str, str]:
    """Write tiles into group files under root, replacing any store there; returns the tile -> file index."""
    groups: dict[tuple[int, int, int], list[Tile]] = defaultdict(list)
    for tile in tiles:
        groups[tile_group(tile.id)].append(tile)
    return replace_store([encode_group(groups[g]) for g in sorted(groups)], root)


def read_store_index(root: str) -> dict[str, str]:
    """The tile -> group file map of a store; a missing or malformed index raises TefError naming it."""
    path = os.path.join(root, INDEX_NAME)
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError:
        raise TefError(f"{path}: no such file; {root} is not a store, or a write to it did not finish") from None
    try:
        obj = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # invalid UTF-8 or JSON
        raise TefError(f"{path}: {exc}") from None
    index = obj.get("tiles") if isinstance(obj, dict) else None
    if not isinstance(index, dict):
        raise TefError(f'{path}: expected {{"tiles": {{tile id: file name}}}}')
    for key, name in index.items():
        try:
            want = group_file_name(tile_group(TileId.parse(key)))
        except ValueError as exc:
            raise TefError(f"{path}: {exc}") from None
        if name != want:
            raise TefError(f"{path}: tile {key} maps to {name!r}, not {want!r}")
    return index


def store_groups(root: str) -> dict[str, set[str]]:
    """Each group file of a store, in name order, with the tile ids its index lists for it."""
    groups: dict[str, set[str]] = defaultdict(set)
    for key, name in read_store_index(root).items():
        groups[name].add(key)
    return dict(sorted(groups.items()))


def _gunzip(data: bytes) -> bytes:
    """The TEF text of a group file's bytes: one gzip member that inflates to at most MAX_GROUP_TEXT bytes."""
    inflater = zlib.decompressobj(wbits=31)  # gzip header and trailer, CRC-32 and size checked
    try:
        # One byte over the cap tells an oversized file from an exact one.
        text = inflater.decompress(data, MAX_GROUP_TEXT + 1)
    except zlib.error as exc:
        raise TefError(f"corrupt gzip data: {exc}") from None
    if len(text) > MAX_GROUP_TEXT:
        raise TefError(f"inflates past {MAX_GROUP_TEXT} bytes")
    if not inflater.eof:
        raise TefError("corrupt gzip data: incomplete or truncated stream")
    if inflater.unused_data:
        raise TefError(f"corrupt gzip data: {len(inflater.unused_data)} bytes after the gzip member")
    return text


def read_group_file(path: str, keys: set[str]) -> list[Tile]:
    """The tiles of one group file, exactly keys, the tile ids its index lists
    for it; a missing file, corrupt gzip data or TEF, or other tiles, raise TefError naming the file."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()  # its compressed size bounds this read
    except FileNotFoundError:
        raise TefError(f"{path}: no such file, though the index lists tiles {sorted(keys)} in it") from None
    try:
        tiles = list(parse_tef_lines(_gunzip(data).split(b"\n")))
    except TefError as exc:
        raise TefError(f"{path}: {exc}") from None
    held = {t.id.key for t in tiles}
    if held != keys:
        raise TefError(f"{path}: holds unlisted tiles {sorted(held - keys)} and lacks listed tiles {sorted(keys - held)}")
    return tiles


def read_store(root: str) -> list[Tile]:
    """All tiles in the store, ordered by group file then grid position."""
    tiles: list[Tile] = []
    for name, keys in store_groups(root).items():
        tiles.extend(read_group_file(os.path.join(root, name), keys))
    return tiles
