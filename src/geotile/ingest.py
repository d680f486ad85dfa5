"""From raw map elements to clipped, grouped tiles.

Entities arrive in geographic coordinates, are assigned to every tile whose
content square their bounding box can touch, then clipped against the unit
square of each tile's normalised frame.  Polygons go through
Sutherland-Hodgman with holes clipped independently, polylines are split
into their in-tile runs (one entity per run, same id and tags), points are
kept when inside.  Degenerate leftovers are dropped and counted.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from .geo import TileId, points_to_norm, tile_extent_m, tile_fraction, tile_origin
from .model import Coord, Entity, Geometry, Tile
from .seeds import pcg_for
from .tef import tile_group

if TYPE_CHECKING:
    from .pbf import PbfData, RawWay

MIN_TILE_ENTITIES = 5
MAX_TILE_ENTITIES = 1250

# Clipped rings thinner than this (normalised area) carry no information.
DEGENERATE_AREA = 1e-12

SPLIT_NAMES = ("train", "val", "test")
CANDIDATE_MARGIN = 0.02  # tile fractions added around an entity's bounding box


# ---------------------------------------------------------------- clipping


def shoelace_area(pts: Sequence[Coord]) -> float:
    """Signed area of an open ring (positive for counter-clockwise)."""
    area = 0.0
    n = len(pts)
    for i in range(n):
        x0, y0 = pts[i]
        x1, y1 = pts[(i + 1) % n]
        area += x0 * y1 - x1 * y0
    return 0.5 * area


def clip_ring_unit(pts: Sequence[Coord]) -> list[Coord]:
    """Sutherland-Hodgman clip of an open ring against the unit square.

    Returns the open clipped ring, possibly empty.  Intersection points get
    the boundary coordinate set exactly, so repeated clipping is stable.
    """
    out = [(float(x), float(y)) for x, y in pts]
    # (axis, bound, keep_greater)
    for axis, bound, keep_greater in ((0, 0.0, True), (0, 1.0, False), (1, 0.0, True), (1, 1.0, False)):
        if not out:
            return []
        cur = out
        out = []
        for i in range(len(cur)):
            s = cur[i - 1]
            e = cur[i]
            s_in = s[axis] >= bound if keep_greater else s[axis] <= bound
            e_in = e[axis] >= bound if keep_greater else e[axis] <= bound
            if s_in != e_in:
                t = (bound - s[axis]) / (e[axis] - s[axis])
                other = s[1 - axis] + t * (e[1 - axis] - s[1 - axis])
                cross = (bound, other) if axis == 0 else (other, bound)
                out.append(cross)
            if e_in:
                out.append(e)
    deduped: list[Coord] = []
    for p in out:
        if not deduped or p != deduped[-1]:
            deduped.append(p)
    if len(deduped) > 1 and deduped[0] == deduped[-1]:
        deduped.pop()
    return deduped


def _clip_segment_unit(a: Coord, b: Coord):
    """Liang-Barsky segment clip; returns (p0, p1, t0, t1) or None."""
    ax, ay = a
    bx, by = b
    dx, dy = bx - ax, by - ay
    t0, t1 = 0.0, 1.0
    for p, q in ((-dx, ax), (dx, 1.0 - ax), (-dy, ay), (dy, 1.0 - ay)):
        if p == 0.0:
            if q < 0.0:
                return None
        else:
            r = q / p
            if p < 0.0:
                if r > t1:
                    return None
                if r > t0:
                    t0 = r
            else:
                if r < t0:
                    return None
                if r < t1:
                    t1 = r
    p0 = a if t0 == 0.0 else (ax + t0 * dx, ay + t0 * dy)
    p1 = b if t1 == 1.0 else (ax + t1 * dx, ay + t1 * dy)
    return p0, p1, t0, t1


def clip_polyline_unit(pts: Sequence[Coord]) -> list[list[Coord]]:
    """Split a polyline into its maximal runs inside the unit square."""
    runs: list[list[Coord]] = []
    cur: list[Coord] = []

    def flush() -> None:
        nonlocal cur
        if len(cur) >= 2:
            runs.append(cur)
        cur = []

    for i in range(len(pts) - 1):
        res = _clip_segment_unit(tuple(pts[i]), tuple(pts[i + 1]))
        if res is None:
            flush()
            continue
        p0, p1, t0, t1 = res
        if t0 > 0.0:
            flush()
        if not cur:
            cur = [p0]
        if p1 != cur[-1]:
            cur.append(p1)
        if t1 < 1.0:
            flush()
    flush()
    return runs


def _clamp_unit(p: Coord) -> Coord:
    return (min(max(p[0], 0.0), 1.0), min(max(p[1], 0.0), 1.0))


def _clip_polygon(rings) -> list[list[Coord]] | None:
    """Outer ring and holes clipped independently, clamped and closed; None when the outer vanishes."""
    clipped: list[list[Coord]] = []
    for ring in rings:
        r = clip_ring_unit(ring[:-1])
        if len(r) >= 3 and abs(shoelace_area(r)) > DEGENERATE_AREA:
            clipped.append([_clamp_unit(p) for p in r] + [_clamp_unit(r[0])])
        elif not clipped:
            return None
    return clipped


def clip_entity_unit(entity: Entity) -> tuple[list[Entity], int]:
    """Clip an entity already in a tile's normalised frame.

    Returns (clipped entities, degenerate piece count).  Polyline splits all
    share the source id and tags.
    """
    geom = entity.geometry
    dropped = 0
    out: list[Entity] = []
    if geom.kind == "point":
        x, y = geom.coords
        if 0.0 <= x <= 1.0 and 0.0 <= y <= 1.0:
            out.append(entity)
        else:
            dropped += 1
    elif geom.kind == "polyline":
        runs = clip_polyline_unit(geom.coords)
        if not runs:
            dropped += 1
        for run in runs:
            cleaned = [_clamp_unit(p) for p in run]
            pts = [cleaned[0]] + [p for prev, p in zip(cleaned, cleaned[1:]) if p != prev]
            if len(pts) >= 2:
                out.append(Entity(entity.id, entity.kind, entity.tags, Geometry.polyline(pts)))
            else:
                dropped += 1
    else:  # a polygon clips as a multipolygon of one, so both areal kinds share this path
        polys = []
        for poly in geom.coords if geom.kind == "multipolygon" else (geom.coords,):
            clipped = _clip_polygon(poly)
            if clipped is None:
                dropped += 1
            else:
                polys.append(clipped)
        if polys:
            coords = polys if geom.kind == "multipolygon" else polys[0]
            out.append(Entity(entity.id, entity.kind, entity.tags, Geometry.of(geom.kind, coords)))
    return out, dropped


def clip_to_tile(entity: Entity, tid: TileId) -> tuple[list[Entity], int]:
    """Project a geographic-coordinate entity into tid's frame and clip it."""
    origin = tile_origin(tid)
    extent = tile_extent_m(tid)
    geom = entity.geometry
    if geom.kind == "point":
        local = Geometry("point", points_to_norm((geom.coords,), origin, extent)[0])
    else:  # each polyline and ring in one pass
        local = geom.map(lambda pts: points_to_norm(pts, origin, extent), depth=1)
    return clip_entity_unit(Entity(entity.id, entity.kind, entity.tags, local))


# ------------------------------------------------------------- assignment


def candidate_tiles(entity: Entity, zoom: int) -> list[TileId]:
    """Tiles whose content square might intersect the entity.

    CANDIDATE_MARGIN absorbs the small mismatch between geographic tile bounds and
    the normalised content square.
    """
    pts = list(entity.geometry.iter_points())
    lons = [p[0] for p in pts]
    lats = [p[1] for p in pts]
    x0f, y0f = tile_fraction(min(lons), max(lats), zoom)
    x1f, y1f = tile_fraction(max(lons), min(lats), zoom)
    n, margin = 1 << zoom, CANDIDATE_MARGIN
    xs = range(max(0, math.floor(x0f - margin)), min(n - 1, math.floor(x1f + margin)) + 1)
    ys = range(max(0, math.floor(y0f - margin)), min(n - 1, math.floor(y1f + margin)) + 1)
    return [TileId(zoom, x, y) for x in xs for y in ys]


# ------------------------------------------------- element -> entity stage


def _way_entities(way: RawWay, tags: tuple[tuple[str, str], ...]) -> list[Entity]:
    """The way as a polygon when its refs close, else as a polyline; none under 2 points."""
    if len(way.coords) < 2:
        return []
    closed = len(way.refs) >= 4 and way.refs[0] == way.refs[-1]
    geom = Geometry.polygon([way.coords]) if closed else Geometry.polyline(way.coords)
    return [Entity(way.id, "way", tags, geom)]


def _join(chain: list, other: list) -> list | None:
    """chain and other joined where an end node of one starts the other, or None.

    Chains are lists of (node id, coord), and a node has the same coord in
    every way.  other joins at chain's tail before its head, forward before
    reversed.
    """
    back = other[::-1]
    for first, second in ((chain, other), (chain, back), (other, chain), (back, chain)):
        if first[-1][0] == second[0][0]:
            return first + second[1:]
    return None


def _stitch_rings(ways: list[RawWay]) -> list[tuple[Coord, ...]] | None:
    """Join member ways by shared endpoint node ids into closed rings.

    Each open chain takes the first other chain that joins it until it
    closes.  Returns None unless every way ends up in a closed ring of at
    least 4 points.
    """
    if any(len(w.refs) < 2 for w in ways):
        return None
    chains = [list(zip(w.refs, w.coords)) for w in ways]
    rings = [c for c in chains if c[0][0] == c[-1][0]]
    open_chains = [c for c in chains if c[0][0] != c[-1][0]]
    while open_chains:
        chain = open_chains.pop()
        k = 0
        while chain[0][0] != chain[-1][0] and k < len(open_chains):
            joined = _join(chain, open_chains[k])
            if joined is None:
                k += 1
            else:
                open_chains.pop(k)
                chain, k = joined, 0
        rings.append(chain)
    if rings and all(len(r) >= 4 and r[0][0] == r[-1][0] for r in rings):
        return [tuple(c for _, c in r) for r in rings]
    return None


def _point_in_ring(p: Coord, ring: Sequence[Coord]) -> bool:
    """Even-odd ray cast; boundary points count as inside."""
    x, y = p
    inside = False
    n = len(ring)
    for i in range(n):
        x0, y0 = ring[i]
        x1, y1 = ring[(i + 1) % n]
        if (y0 > y) != (y1 > y):
            t = (y - y0) / (y1 - y0)
            xi = x0 + t * (x1 - x0)
            if xi > x:
                inside = not inside
            elif xi == x:
                return True
    return inside


def _nest_rings(rings: list[tuple[Coord, ...]]) -> list[list[list[Coord]]]:
    """Group closed rings into polygons by containment parity."""
    opened = [list(r[:-1]) if r[0] == r[-1] else list(r) for r in rings]
    areas = [abs(shoelace_area(r)) for r in opened]
    order = sorted(range(len(opened)), key=lambda i: -areas[i])
    containers: list[list[int]] = []
    for i in order:
        inside = [
            j
            for j in order
            if j != i
            and areas[j] > areas[i]
            and _point_in_ring(opened[i][0], opened[j])
        ]
        containers.append(inside)
    polygons: list[list[list[Coord]]] = []
    outer_index: dict[int, int] = {}
    for pos, i in enumerate(order):
        depth = len(containers[pos])
        ring = opened[i]
        if depth % 2 == 0:
            # Outers counter-clockwise.
            if shoelace_area(ring) < 0:
                ring = ring[::-1]
            outer_index[i] = len(polygons)
            polygons.append([ring + [ring[0]]])
        else:
            # Holes clockwise, attached to the tightest containing outer.
            if shoelace_area(ring) > 0:
                ring = ring[::-1]
            parent = min(
                (j for j in containers[pos] if j in outer_index),
                key=lambda j: areas[j],
                default=None,
            )
            if parent is None:
                ring = ring[::-1]
                outer_index[i] = len(polygons)
                polygons.append([ring + [ring[0]]])
            else:
                polygons[outer_index[parent]].append(ring + [ring[0]])
    return polygons


def elements_to_entities(data: PbfData) -> list[Entity]:
    """Convert parsed elements into geographic-coordinate entities.

    Tagged nodes become points; ways become polygons when their reference
    list closes, polylines otherwise.  Relations are assembled into
    multipolygons when their member ways stitch into closed rings; an
    unstitchable relation instead donates its tags to those member ways that
    were withheld from the standalone pass, so every way id surfaces at most
    once.
    """
    entities: list[Entity] = []
    ways_by_id = {w.id: w for w in data.ways}
    member_way_ids = {
        ref for rel in data.relations for mtype, ref, _ in rel.members if mtype == "way"
    }
    for node in data.nodes:
        if node.tags:
            entities.append(Entity(node.id, "node", node.tags, Geometry.point((node.lon, node.lat))))
    for way in data.ways:
        if way.tags or way.id not in member_way_ids:
            entities += _way_entities(way, way.tags)
    emitted_fallback: set[int] = set()
    for rel in data.relations:
        member_ways = [ways_by_id[ref] for mtype, ref, _ in rel.members if mtype == "way" and ref in ways_by_id]
        rings = _stitch_rings(member_ways)
        if rings is not None:
            polygons = _nest_rings(rings)
            entities.append(Entity(rel.id, "relation", rel.tags, Geometry.multipolygon(polygons)))
            continue
        # Only ways withheld from the standalone pass (so untagged) surface
        # here, and once each: a way id must not appear twice in one tile.
        for way in member_ways:
            if not way.tags and way.id not in emitted_fallback:
                emitted_fallback.add(way.id)
                entities += _way_entities(way, tuple(dict(rel.tags).items()))
    return entities


# ------------------------------------------------------------ tile stage


@dataclass
class IngestStats:
    nodes_read: int = 0
    ways_read: int = 0
    relations_read: int = 0
    dropped_ways: int = 0
    dropped_members: int = 0
    dropped_relations: int = 0
    entities: int = 0
    placements: int = 0
    degenerate_dropped: int = 0
    tiles: int = 0

    def lines(self) -> list[str]:
        rows = [
            ("nodes read", self.nodes_read),
            ("ways read", self.ways_read),
            ("relations read", self.relations_read),
            ("ways dropped (unresolved refs)", self.dropped_ways),
            ("relation members dropped", self.dropped_members),
            ("relations dropped", self.dropped_relations),
            ("entities", self.entities),
            ("tile placements", self.placements),
            ("degenerate clips dropped", self.degenerate_dropped),
            ("tiles", self.tiles),
        ]
        width = max(len(name) for name, _ in rows)
        return [f"{name:<{width}}  {count}" for name, count in rows]


def ingest_elements(data: PbfData, zoom: int) -> tuple[list[Tile], IngestStats]:
    """Tile, clip and assemble a parsed element set."""
    stats = IngestStats(
        nodes_read=len(data.nodes),
        ways_read=len(data.ways) + data.dropped_ways,
        relations_read=len(data.relations) + data.dropped_relations,
        dropped_ways=data.dropped_ways,
        dropped_members=data.dropped_members,
        dropped_relations=data.dropped_relations,
    )
    entities = elements_to_entities(data)
    stats.entities = len(entities)
    by_tile: dict[TileId, list[Entity]] = defaultdict(list)
    for entity in entities:
        for tid in candidate_tiles(entity, zoom):
            clipped, dropped = clip_to_tile(entity, tid)
            stats.degenerate_dropped += dropped
            if clipped:
                by_tile[tid].extend(clipped)
                stats.placements += len(clipped)
    tiles = [
        Tile(id=tid, origin=tile_origin(tid), extent_m=tile_extent_m(tid), entities=tuple(ents))
        for tid, ents in sorted(by_tile.items())
    ]
    stats.tiles = len(tiles)
    return tiles, stats


def filter_outliers(
    tiles: Iterable[Tile],
    min_entities: int = MIN_TILE_ENTITIES,
    max_entities: int = MAX_TILE_ENTITIES,
) -> tuple[list[Tile], int]:
    """Keep tiles with an entity count inside [min_entities, max_entities]."""
    kept = []
    dropped = 0
    for tile in tiles:
        if min_entities <= len(tile.entities) <= max_entities:
            kept.append(tile)
        else:
            dropped += 1
    return kept, dropped


def group_tiles(tile_ids: Iterable[TileId]) -> dict[tuple[int, int, int], list[TileId]]:
    """Bucket tile ids into their 4x4 store blocks (at most 16 tiles each)."""
    groups: dict[tuple[int, int, int], list[TileId]] = defaultdict(list)
    for tid in tile_ids:
        groups[tile_group(tid)].append(tid)
    return {k: sorted(v) for k, v in sorted(groups.items())}


def split_groups(
    group_keys: Iterable[tuple[int, int, int]],
    ratios: Sequence[float],
    seed: int,
) -> dict[str, list[tuple[int, int, int]]]:
    """Assign whole groups to the SPLIT_NAMES splits with largest-remainder rounding.

    Groups are shuffled deterministically under the seed; quota remainders
    are broken by split order.  Tiles of one group never straddle splits.
    """
    if len(ratios) != len(SPLIT_NAMES):
        raise ValueError("one ratio per split name required")
    for name, ratio in zip(SPLIT_NAMES, ratios):
        if not 0.0 <= ratio <= 1.0:
            raise ValueError(f"{name} ratio must lie in [0, 1], got {ratio}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {sum(ratios)}")
    keys = sorted(group_keys)
    rng = pcg_for(seed, "split")
    rng.shuffle(keys)
    n = len(keys)
    quotas = [n * r for r in ratios]
    counts = [math.floor(q) for q in quotas]
    leftover = n - sum(counts)
    by_remainder = sorted(range(len(ratios)), key=lambda i: (-(quotas[i] - counts[i]), i))
    for i in by_remainder[:leftover]:
        counts[i] += 1
    out: dict[str, list[tuple[int, int, int]]] = {}
    pos = 0
    for name, count in zip(SPLIT_NAMES, counts):
        out[name] = sorted(keys[pos : pos + count])
        pos += count
    return out
