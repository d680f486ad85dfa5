"""Tile exchange format: JSON lines, one tile per line, plus the gzip store.

The writer emits a canonical form (fixed key order, no whitespace, floats in
shortest round-trip notation) so write -> parse -> write is byte-identical.
Parsing validates the schema and reports the line number and field path of
the first violation.  The geometry schema is model's: Geometry.of checks
coordinates, and its errors are reported here at their TEF field path.

A store is a directory of ``<zoom>_<gx>_<gy>.tefgz`` files, each holding the
gzipped TEF lines of one 4x4 block of the tile grid (at most 16 tiles), plus
an ``index.json`` mapping tile ids to file names.  Writing an index deletes
the group files beside it that it does not name.  Gzip members are written
with a zeroed mtime so identical content produces identical bytes.

Numbers must be finite: NaN, Infinity and literals that overflow a float are
rejected like any other schema violation.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import os
import re
import zlib
from collections import defaultdict
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

_KINDS = get_args(GeometryKind)


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


# ----------------------------------------------------------------- encoding


def _entity_json(e: Entity) -> dict:
    # json.dumps writes the nested tuples of tags, coords and edges as arrays.
    obj: dict = {
        "id": e.id,
        "kind": e.kind,
        "tags": e.tags,
        "geometry": {"type": e.geometry.kind, "coords": e.geometry.coords},
    }
    if e.minbox is not None:
        obj["minbox"] = [float(v) for v in e.minbox.flat()]
    if e.visgraph is not None:
        obj["visgraph"] = {"edges": e.visgraph.edges}
    return obj


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
    if not isinstance(obj, dict) or not isinstance(obj.get("edges"), list):
        raise _fail(path, "expected {\"edges\": [...]}", lineno)
    vertices: list[tuple[int, int]] = []
    for ridx, ring in enumerate(geom.rings()):
        vertices.extend((ridx, i) for i in range(len(ring) - 1))
    n = len(vertices)
    edges = []
    for i, item in enumerate(obj["edges"]):
        if (
            not isinstance(item, list)
            or len(item) != 3
            or not isinstance(item[0], int)
            or not isinstance(item[1], int)
            or item[2] not in (EDGE_BOUNDARY, EDGE_VISIBLE)
        ):
            raise _fail(f"{path}.edges[{i}]", 'expected [i, j, "bnd"|"vis"]', lineno)
        if not (0 <= item[0] < n and 0 <= item[1] < n):
            raise _fail(f"{path}.edges[{i}]", "vertex index out of range", lineno)
        edges.append((item[0], item[1], item[2]))
    return VisibilityGraph(vertices=tuple(vertices), edges=tuple(edges))


def _entity(obj, path: str, lineno) -> Entity:
    if not isinstance(obj, dict):
        raise _fail(path, "expected object", lineno)
    if not isinstance(obj.get("id"), int):
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


def parse_tef_lines(lines: Iterable[str | bytes]) -> Iterator[Tile]:
    """Tiles of TEF lines given as text or as UTF-8 bytes."""
    seen: set[str] = set()
    for lineno, line in enumerate(lines, start=1):
        if isinstance(line, bytes):
            try:
                line = line.decode("utf-8")
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


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write via a sibling temp file and rename, so crashes leave no partial file."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def utf8_lines(fh: Iterable[bytes], path: str) -> Iterator[str]:
    """The lines of a binary file as text; one that is not UTF-8 raises ValueError at ``path:line``."""
    for lineno, raw in enumerate(fh, start=1):
        try:
            yield raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: invalid UTF-8 at byte {exc.start}") from None


def _gzip_bytes(data: bytes) -> bytes:
    import io

    buf = io.BytesIO()
    with gzip.GzipFile(fileobj=buf, mode="wb", filename="", mtime=0) as gz:
        gz.write(data)
    return buf.getvalue()


def write_group(tiles: list[Tile], root: str) -> dict[str, str]:
    """Write one group's tiles (at least one) to its file under root; returns their tile -> file entries."""
    members = sorted(tiles, key=lambda t: (t.id.x, t.id.y))
    name = group_file_name(tile_group(members[0].id))
    text = "".join(tile_to_json(t) + "\n" for t in members)
    atomic_write_bytes(os.path.join(root, name), _gzip_bytes(text.encode("utf-8")))
    return {t.id.key: name for t in members}


# The names group_file_name writes.
_GROUP_FILE = re.compile(r"\d+_\d+_\d+\.tefgz")


def write_index(index: dict[str, str], root: str) -> None:
    """Delete every group file under root that index does not name, then
    write the store's index.json.  Keys are sorted, so its bytes do not
    depend on the dict's order.

    Group files are found by name, not through an earlier index, so those of
    a store whose rewrite failed before its index was written go too.  Files
    with other names stay."""
    keep = set(index.values())
    with os.scandir(root) as entries:
        stale = [e.path for e in entries if _GROUP_FILE.fullmatch(e.name) and e.name not in keep and e.is_file()]
    for path in stale:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    payload = json.dumps({"tiles": index}, indent=1, sort_keys=True)
    atomic_write_bytes(os.path.join(root, INDEX_NAME), payload.encode("utf-8"))


def write_store(tiles: Iterable[Tile], root: str) -> dict[str, str]:
    """Write tiles into group files under root, replacing any store there; returns the tile -> file index."""
    os.makedirs(root, exist_ok=True)
    groups: dict[tuple[int, int, int], list[Tile]] = defaultdict(list)
    for tile in tiles:
        groups[tile_group(tile.id)].append(tile)
    index: dict[str, str] = {}
    for group in sorted(groups):
        index.update(write_group(groups[group], root))
    write_index(index, root)
    return index


def read_store_index(root: str) -> dict[str, str]:
    """The tile -> group file map of a store; a malformed index raises TefError naming it."""
    path = os.path.join(root, INDEX_NAME)
    with open(path, "rb") as fh:
        raw = fh.read()
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


def read_group_file(path: str) -> list[Tile]:
    """The tiles of one group file; corrupt gzip data or TEF, or a tile of
    another group, raises TefError naming the file."""
    try:
        with gzip.open(path, "rb") as fh:
            tiles = list(parse_tef_lines(fh))
    except TefError as exc:
        raise TefError(f"{path}: {exc}") from None
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise TefError(f"{path}: corrupt gzip data: {exc}") from None
    for tile in tiles:
        want = group_file_name(tile_group(tile.id))
        if want != os.path.basename(path):
            raise TefError(f"{path}: tile {tile.id.key} belongs in {want}")
    return tiles


def read_store(root: str) -> list[Tile]:
    """All tiles in the store, ordered by group file then grid position."""
    index = read_store_index(root)
    tiles: list[Tile] = []
    for name in sorted(set(index.values())):
        tiles.extend(read_group_file(os.path.join(root, name)))
    return tiles
