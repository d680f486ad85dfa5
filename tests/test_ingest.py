"""Clipping, relation assembly and corpus bookkeeping."""

import math

import numpy as np
import pytest

from geotile.geo import MAX_LATITUDE, METERS_PER_DEGREE, TileId, tile_bounds, tile_extent_m, tile_origin
from geotile.ingest import (
    MAX_TILE_ENTITIES,
    MIN_TILE_ENTITIES,
    candidate_tiles,
    clip_entity_unit,
    clip_polyline_unit,
    clip_ring_unit,
    clip_to_tile,
    elements_to_entities,
    filter_outliers,
    group_tiles,
    ingest_elements,
    shoelace_area,
    split_groups,
)
from geotile.model import Entity, Geometry, Tile
from geotile.pbf import PbfData, RawNode, RawRelation, RawWay
from geotile.tef import tile_group


# --------------------------------------------------------------- oracles


def _clip_halfplane(poly, inside, intersect):
    out = []
    n = len(poly)
    for i in range(n):
        a, b = poly[i], poly[(i + 1) % n]
        if inside(a):
            out.append(a)
            if not inside(b):
                out.append(intersect(a, b))
        elif inside(b):
            out.append(intersect(a, b))
    return out


def _oracle_clip_ring(poly):
    """Clip against each box edge in turn, interpolating crossings."""

    def cut(axis, bound, keep_le):
        def inside(p):
            return p[axis] <= bound if keep_le else p[axis] >= bound

        def intersect(a, b):
            t = (bound - a[axis]) / (b[axis] - a[axis])
            q = [a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])]
            q[axis] = bound
            return tuple(q)

        return inside, intersect

    poly = list(poly)
    for axis, bound, keep_le in ((0, 0.0, False), (0, 1.0, True), (1, 0.0, False), (1, 1.0, True)):
        if not poly:
            break
        poly = _clip_halfplane(poly, *cut(axis, bound, keep_le))
    return poly


def _oracle_clip_segment(a, b):
    """Parameter interval of a segment inside the unit box, or None."""
    t0, t1 = 0.0, 1.0
    for axis in (0, 1):
        d = b[axis] - a[axis]
        for bound, sign in ((0.0, -1.0), (1.0, 1.0)):
            p = sign * d
            q = sign * (bound - a[axis])
            if p == 0.0:
                if q < 0.0:
                    return None
            else:
                t = q / p
                if p < 0.0:
                    t0 = max(t0, t)
                else:
                    t1 = min(t1, t)
    if t0 > t1:
        return None

    def at(t):
        if t == 0.0:
            return a
        if t == 1.0:
            return b
        return (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))

    return at(t0), at(t1)


def _oracle_clip_polyline(pts):
    runs = []
    for a, b in zip(pts, pts[1:]):
        piece = _oracle_clip_segment(a, b)
        if piece is None:
            continue
        p, q = piece
        if runs and runs[-1][-1] == p:
            runs[-1].append(q)
        else:
            runs.append([p, q])
    return [run for run in runs if run[0] != run[-1] or len(run) > 2]


def _star_polygon(rng, centre, scale, n):
    angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, n))
    radii = rng.uniform(0.3, 1.0, n) * scale
    xs = centre[0] + radii * np.cos(angles)
    ys = centre[1] + radii * np.sin(angles)
    return list(zip(xs.tolist(), ys.tolist()))


# ---------------------------------------------------------- ring clipping


def test_shoelace_signs():
    square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    assert shoelace_area(square) == 1.0
    assert shoelace_area(square[::-1]) == -1.0
    assert shoelace_area([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]) == 0.5


def test_clip_ring_straddling_left_edge():
    ring = [(-0.5, 0.2), (0.5, 0.2), (0.5, 0.8), (-0.5, 0.8)]
    assert clip_ring_unit(ring) == [(0.0, 0.2), (0.5, 0.2), (0.5, 0.8), (0.0, 0.8)]


def test_clip_ring_covering_box_collapses_to_box():
    out = clip_ring_unit([(-2.0, -2.0), (3.0, -2.0), (3.0, 3.0), (-2.0, 3.0)])
    assert set(out) == {(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)}
    assert abs(shoelace_area(out)) == 1.0


def test_clip_ring_outside_is_empty():
    assert clip_ring_unit([(2.0, 2.0), (3.0, 2.0), (3.0, 3.0)]) == []


def test_clip_ring_matches_halfplane_oracle():
    rng = np.random.default_rng(41)
    for _ in range(200):
        centre = rng.uniform(-0.3, 1.3, 2)
        poly = _star_polygon(rng, centre, rng.uniform(0.2, 1.2), int(rng.integers(3, 9)))
        got = clip_ring_unit(poly)
        want = _oracle_clip_ring(poly)
        assert abs(shoelace_area(got) - shoelace_area(want)) < 1e-12 if got and want else got == want
        for x, y in got:
            assert -1e-12 <= x <= 1.0 + 1e-12 and -1e-12 <= y <= 1.0 + 1e-12


def test_clip_ring_area_never_grows():
    rng = np.random.default_rng(42)
    for _ in range(100):
        poly = _star_polygon(rng, rng.uniform(0.0, 1.0, 2), 0.8, 6)
        if shoelace_area(poly) < 0:
            poly = poly[::-1]
        got = clip_ring_unit(poly)
        if got:
            assert shoelace_area(got) <= min(shoelace_area(poly), 1.0) + 1e-12


# ------------------------------------------------------ polyline clipping


def test_clip_polyline_pass_through_single_run():
    runs = clip_polyline_unit([(-0.5, 0.5), (0.5, 0.5), (1.5, 0.5)])
    assert runs == [[(0.0, 0.5), (0.5, 0.5), (1.0, 0.5)]]


def test_clip_polyline_reentry_splits():
    runs = clip_polyline_unit([(0.2, 0.5), (1.5, 0.5), (1.5, 0.7), (0.2, 0.7)])
    assert runs == [[(0.2, 0.5), (1.0, 0.5)], [(1.0, 0.7), (0.2, 0.7)]]


def test_clip_polyline_inside_is_identity():
    pts = [(0.1, 0.1), (0.5, 0.2), (0.9, 0.9)]
    assert clip_polyline_unit(pts) == [pts]


def test_clip_polyline_outside_is_empty():
    assert clip_polyline_unit([(1.5, 0.5), (2.5, 0.5)]) == []


def test_clip_polyline_matches_segment_oracle():
    rng = np.random.default_rng(43)
    for _ in range(200):
        n = int(rng.integers(2, 8))
        pts = [tuple(rng.uniform(-0.6, 1.6, 2).tolist()) for _ in range(n)]
        got = clip_polyline_unit(pts)
        want = _oracle_clip_polyline(pts)
        assert len(got) == len(want)
        for grun, wrun in zip(got, want):
            assert len(grun) == len(wrun)
            for g, w in zip(grun, wrun):
                assert abs(g[0] - w[0]) < 1e-9 and abs(g[1] - w[1]) < 1e-9


# ----------------------------------------------------- entity level clips


def test_point_clip_is_inclusive():
    on_corner = Entity(1, "node", (("amenity", "bench"),), Geometry.point((1.0, 1.0)))
    kept, dropped = clip_entity_unit(on_corner)
    assert len(kept) == 1 and dropped == 0
    outside = Entity(2, "node", (), Geometry.point((1.0 + 1e-9, 0.5)))
    kept, dropped = clip_entity_unit(outside)
    assert kept == [] and dropped == 1


def test_clip_entity_polygon_with_hole():
    outer = [(0.5, 0.2), (1.5, 0.2), (1.5, 0.8), (0.5, 0.8), (0.5, 0.2)]
    hole = [(0.7, 0.4), (1.3, 0.4), (1.3, 0.6), (0.7, 0.6), (0.7, 0.4)]
    e = Entity(5, "way", (("building", "yes"),), Geometry.polygon([outer, hole]))
    kept, dropped = clip_entity_unit(e)
    assert dropped == 0 and len(kept) == 1
    rings = kept[0].geometry.coords
    assert list(rings[0]) == [(0.5, 0.2), (1.0, 0.2), (1.0, 0.8), (0.5, 0.8), (0.5, 0.2)]
    assert list(rings[1]) == [(0.7, 0.4), (1.0, 0.4), (1.0, 0.6), (0.7, 0.6), (0.7, 0.4)]
    for ring in rings:
        assert ring[0] == ring[-1]


def test_clip_entity_drops_vanished_polygon():
    e = Entity(6, "way", (), Geometry.polygon([[(2.0, 2.0), (3.0, 2.0), (3.0, 3.0), (2.0, 3.0), (2.0, 2.0)]]))
    assert clip_entity_unit(e) == ([], 1)


def test_clip_entity_polyline_split_shares_identity():
    e = Entity(8, "way", (("highway", "path"),), Geometry.polyline([(0.2, 0.5), (1.5, 0.5), (1.5, 0.7), (0.2, 0.7)]))
    kept, dropped = clip_entity_unit(e)
    assert dropped == 0 and len(kept) == 2
    assert all(c.id == 8 and c.tags == (("highway", "path"),) for c in kept)
    assert kept[0].geometry.coords == ((0.2, 0.5), (1.0, 0.5))
    assert kept[1].geometry.coords == ((1.0, 0.7), (0.2, 0.7))


def test_clip_entity_degenerate_sliver_dropped():
    flat = Entity(9, "way", (), Geometry.polygon([[(0.2, 0.5), (0.8, 0.5), (0.2, 0.5), (0.2, 0.5)]]))
    assert clip_entity_unit(flat) == ([], 1)


# --------------------------------------------------------- candidate tiles


def test_candidate_tiles_interior_point():
    e = Entity(1, "node", (("amenity", "bench"),), Geometry.point((-80.8365, 35.005)))
    assert [t.key for t in candidate_tiles(e, 16)] == ["16_18052_25957"]


def test_candidate_tiles_margin_pulls_in_neighbour():
    e = Entity(2, "node", (), Geometry.point((-80.83195, 35.005)))
    assert [t.key for t in candidate_tiles(e, 16)] == ["16_18052_25957", "16_18053_25957"]


def test_candidate_tiles_match_bbox_oracle():
    rng = np.random.default_rng(44)
    n = 1 << 16
    for _ in range(100):
        lon0 = rng.uniform(-81.0, -80.5)
        lat0 = rng.uniform(34.8, 35.2)
        pts = [(lon0 + rng.uniform(0, 0.01), lat0 + rng.uniform(0, 0.01)) for _ in range(4)]
        e = Entity(3, "way", (), Geometry.polyline(pts))
        got = {t.key for t in candidate_tiles(e, 16)}

        def frac(lon, lat):
            lat = min(max(lat, -MAX_LATITUDE), MAX_LATITUDE)
            xf = (lon + 180.0) / 360.0 * n
            yf = (1.0 - math.asinh(math.tan(math.radians(lat))) / math.pi) / 2.0 * n
            return xf, yf

        x0, y0 = frac(min(p[0] for p in pts), max(p[1] for p in pts))
        x1, y1 = frac(max(p[0] for p in pts), min(p[1] for p in pts))
        want = {
            f"16_{x}_{y}"
            for x in range(math.floor(x0 - 0.02), math.floor(x1 + 0.02) + 1)
            for y in range(math.floor(y0 - 0.02), math.floor(y1 + 0.02) + 1)
        }
        assert got == want


def _reference_clip_to_tile(entity, tid):
    """clip_to_tile with the projection written out point by point: the
    equirectangular metres about the tile's SW corner, then the division by
    the tile's extent, in that order."""
    olon, olat = tile_origin(tid)
    extent = tile_extent_m(tid)

    def project(p):
        x = (p[0] - olon) * math.cos(math.radians(olat)) * METERS_PER_DEGREE
        y = (p[1] - olat) * METERS_PER_DEGREE
        return (x / extent, y / extent)

    geom = entity.geometry
    if geom.kind == "point":
        local = Geometry("point", project(geom.coords))
    else:
        local = geom.map(lambda line: tuple(map(project, line)))
    return clip_entity_unit(Entity(entity.id, entity.kind, entity.tags, local))


def _hex_points(value):
    """Nested coords with every float as its hex, so -0.0 and 0.0 differ."""
    if isinstance(value, float):
        return value.hex()
    return tuple(_hex_points(v) for v in value)


def test_clip_to_tile_equals_the_per_point_projection_bit_for_bit():
    rng = np.random.default_rng(71)
    b = tile_bounds(TileId(16, 18052, 25957))
    corner = (b.east, b.north)  # four tiles meet here
    size = b.north - b.south

    def ring(scale, n, clockwise=False):
        centre = (corner[0] + rng.uniform(-0.3, 0.3) * size, corner[1] + rng.uniform(-0.3, 0.3) * size)
        pts = _star_polygon(rng, centre, scale * size, n)
        pts = pts[::-1] if clockwise else pts
        return pts + [pts[0]]

    entities = []
    for k in range(12):
        walk = np.cumsum(rng.normal(0.0, 0.15 * size, size=(int(rng.integers(2, 40)), 2)), axis=0)
        line = [(corner[0] + x, corner[1] + y) for x, y in walk.tolist()]
        entities.append(Entity(k, "way", (("highway", "path"),), Geometry.polyline(line)))
        outer = ring(0.8, int(rng.integers(3, 60)))
        hole = ring(0.1, 5, clockwise=True)
        entities.append(Entity(100 + k, "way", (), Geometry.polygon([outer, hole])))
        entities.append(Entity(200 + k, "relation", (), Geometry.multipolygon([[outer], [ring(0.5, 12)]])))
        p = (corner[0] + rng.uniform(-0.5, 0.5) * size, corner[1] + rng.uniform(-0.5, 0.5) * size)
        entities.append(Entity(300 + k, "node", (("amenity", "bench"),), Geometry.point(p)))
    crossings = 0
    for entity in entities:
        tiles = candidate_tiles(entity, 16)
        crossings += len(tiles) > 1
        for tid in tiles:
            got, want = clip_to_tile(entity, tid), _reference_clip_to_tile(entity, tid)
            assert got[1] == want[1]
            assert [(e.id, e.kind, e.tags, e.geometry.kind, _hex_points(e.geometry.coords)) for e in got[0]] == [
                (e.id, e.kind, e.tags, e.geometry.kind, _hex_points(e.geometry.coords)) for e in want[0]
            ]
    assert crossings >= 36  # the lines and rings cross tile edges


# ------------------------------------------------------- element assembly


def test_way_geometry_closed_versus_open():
    closed = RawWay(1, (1, 2, 3, 1), (("building", "yes"),),
                    ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0)))
    open_ = RawWay(2, (4, 5), (("highway", "path"),), ((0.0, 0.0), (1.0, 1.0)))
    ents = elements_to_entities(PbfData(nodes=[], ways=[closed, open_], relations=[]))
    kinds = {e.id: e.geometry.kind for e in ents}
    assert kinds == {1: "polygon", 2: "polyline"}


def test_untagged_node_not_emitted():
    data = PbfData(
        nodes=[RawNode(1, -80.8, 35.0, (("highway", "traffic_signals"),)), RawNode(2, -80.8, 35.0, ())],
        ways=[],
        relations=[],
    )
    ents = elements_to_entities(data)
    assert [e.id for e in ents] == [1]
    assert ents[0].geometry.kind == "point"


def test_relation_arcs_stitch_into_ring():
    w1 = RawWay(1, (10, 11, 12), (), ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0)))
    w2 = RawWay(2, (12, 13, 10), (), ((1.0, 1.0), (0.0, 1.0), (0.0, 0.0)))
    rel = RawRelation(9, (("way", 1, "outer"), ("way", 2, "outer")), (("type", "multipolygon"), ("building", "yes")))
    ents = elements_to_entities(PbfData(nodes=[], ways=[w1, w2], relations=[rel]))
    assert len(ents) == 1 and ents[0].id == 9 and ents[0].kind == "relation"
    geom = ents[0].geometry
    assert geom.kind == "multipolygon" and len(geom.coords) == 1
    ring = geom.coords[0][0]
    assert ring[0] == ring[-1] and len(ring) == 5
    assert shoelace_area(ring) == 1.0


def test_relation_stitch_reverses_backwards_arc():
    w1 = RawWay(1, (10, 11, 12), (), ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0)))
    w2 = RawWay(2, (10, 13, 12), (), ((0.0, 0.0), (0.0, 1.0), (1.0, 1.0)))
    rel = RawRelation(9, (("way", 1, ""), ("way", 2, "")), (("type", "multipolygon"),))
    ents = elements_to_entities(PbfData(nodes=[], ways=[w1, w2], relations=[rel]))
    areas = [shoelace_area(r) for poly in ents[0].geometry.coords for r in poly]
    assert areas == [1.0]


def test_relation_nesting_alternates_orientation():
    outer = RawWay(3, (1, 2, 3, 4, 1), (),
                   ((0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0), (0.0, 0.0)))
    hole = RawWay(4, (5, 6, 7, 8, 5), (),
                  ((2.0, 2.0), (8.0, 2.0), (8.0, 8.0), (2.0, 8.0), (2.0, 2.0)))
    island = RawWay(5, (9, 10, 11, 12, 9), (),
                    ((4.0, 4.0), (6.0, 4.0), (6.0, 6.0), (4.0, 6.0), (4.0, 4.0)))
    rel = RawRelation(10, (("way", 3, "outer"), ("way", 4, "inner"), ("way", 5, "outer")), (("type", "multipolygon"),))
    ents = elements_to_entities(PbfData(nodes=[], ways=[outer, hole, island], relations=[rel]))
    polys = ents[0].geometry.coords
    assert len(polys) == 2
    assert [shoelace_area(r) for r in polys[0]] == [100.0, -36.0]
    assert [shoelace_area(r) for r in polys[1]] == [4.0]


def test_unstitchable_relation_donates_tags_once():
    wa = RawWay(21, (1, 2), (("highway", "service"),), ((0.0, 0.0), (1.0, 0.0)))
    wb = RawWay(22, (3, 4), (), ((2.0, 0.0), (3.0, 0.0)))
    rel = RawRelation(30, (("way", 21, ""), ("way", 22, "")),
                      (("type", "route"), ("route", "bus"), ("highway", "primary")))
    ents = elements_to_entities(PbfData(nodes=[], ways=[wa, wb], relations=[rel]))
    by_id = {e.id: e for e in ents}
    assert sorted(by_id) == [21, 22]
    assert by_id[21].tags == (("highway", "service"),)
    assert dict(by_id[22].tags) == {"type": "route", "route": "bus", "highway": "primary"}


def test_untagged_member_consumed_by_stitch():
    w1 = RawWay(1, (10, 11, 12), (), ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0)))
    w2 = RawWay(2, (12, 13, 10), (), ((1.0, 1.0), (0.0, 1.0), (0.0, 0.0)))
    rel = RawRelation(9, (("way", 1, ""), ("way", 2, "")), (("type", "multipolygon"),))
    ents = elements_to_entities(PbfData(nodes=[], ways=[w1, w2], relations=[rel]))
    assert [e.id for e in ents] == [9]


# A hexagon, counter-clockwise; ring arcs are given as node id tuples.
_HEXAGON = {1: (0.0, 0.0), 2: (2.0, 0.0), 3: (3.0, 1.0), 4: (2.0, 2.0), 5: (0.0, 2.0), 6: (-1.0, 1.0)}


def _relation_of_arcs(arcs):
    ways = [RawWay(i + 1, refs, (), tuple(_HEXAGON[r] for r in refs)) for i, refs in enumerate(arcs)]
    rel = RawRelation(9, tuple(("way", w.id, "outer") for w in ways), (("type", "multipolygon"),))
    return elements_to_entities(PbfData(nodes=[], ways=ways, relations=[rel]))


# The last arc is taken first and the others join it; the first arc in list
# order that meets either end joins, at the tail before the head and forward
# before reversed.  Each case needs the join it is named after first.
@pytest.mark.parametrize("arcs, ring", [
    ([(3, 4, 5), (5, 6, 1), (1, 2, 3)], (1, 2, 3, 4, 5, 6, 1)),
    ([(5, 4, 3), (5, 6, 1), (1, 2, 3)], (1, 2, 3, 4, 5, 6, 1)),
    ([(5, 6, 1), (3, 4, 5), (1, 2, 3)], (5, 6, 1, 2, 3, 4, 5)),
    ([(1, 6, 5), (3, 4, 5), (1, 2, 3)], (5, 6, 1, 2, 3, 4, 5)),
    ([(5, 6), (3, 4, 5), (6, 1), (1, 2, 3)], (1, 2, 3, 4, 5, 6, 1)),
], ids=["tail-forward", "tail-reversed", "head-forward", "head-reversed", "four-arcs"])
def test_relation_arcs_join_in_a_pinned_order(arcs, ring):
    (ent,) = _relation_of_arcs(arcs)
    assert ent.geometry.coords == ((tuple(_HEXAGON[r] for r in ring),),)


def test_relation_arc_that_never_closes_falls_back_to_its_ways():
    ents = _relation_of_arcs([(1, 2, 3), (3, 4, 5), (5, 6, 1), (2, 4)])
    assert [(e.id, e.kind, e.tags, e.geometry.kind) for e in ents] == [
        (i, "way", (("type", "multipolygon"),), "polyline") for i in (1, 2, 3, 4)
    ]
    assert ents[3].geometry.coords == (_HEXAGON[2], _HEXAGON[4])


def test_tagged_member_keeps_standalone_entity():
    ring = RawWay(1, (10, 11, 12, 10), (("building", "yes"),),
                  ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0)))
    rel = RawRelation(9, (("way", 1, "outer"),), (("type", "multipolygon"), ("landuse", "retail")))
    ents = elements_to_entities(PbfData(nodes=[], ways=[ring], relations=[rel]))
    assert sorted(e.id for e in ents) == [1, 9]


# ----------------------------------------------------- tiling and corpus


def _charlotte_fixture():
    b = tile_bounds(TileId(16, 18052, 25957))
    lon = (b.west + b.east) / 2
    lat = (b.south + b.north) / 2
    nodes = [RawNode(1, lon, lat, (("highway", "traffic_signals"),)), RawNode(2, lon + 1e-4, lat, ())]
    ways = [RawWay(7, (1, 2), (("highway", "residential"),), ((lon, lat), (lon + 1e-4, lat)))]
    return PbfData(nodes=nodes, ways=ways)


def test_ingest_elements_counts():
    tiles, stats = ingest_elements(_charlotte_fixture(), 16)
    assert [t.id.key for t in tiles] == ["16_18052_25957"]
    assert stats.nodes_read == 2 and stats.ways_read == 1
    assert stats.entities == 2 and stats.placements == 2 and stats.tiles == 1
    tile = tiles[0]
    assert tile.extent_m == 500.87622416429247
    for e in tile.entities:
        for x, y in e.geometry.iter_points():
            assert 0.0 <= x <= 1.0 and 0.0 <= y <= 1.0


def test_ingest_spanning_way_lands_in_both_tiles():
    ba = tile_bounds(TileId(16, 18052, 25957))
    bb = tile_bounds(TileId(16, 18053, 25957))
    lat = (ba.south + ba.north) / 2
    way = RawWay(1, (1, 2), (("highway", "primary"),),
                 ((ba.west + 1e-4, lat), (bb.west + 1e-4, lat)))
    tiles, stats = ingest_elements(PbfData(nodes=[], ways=[way]), 16)
    assert [t.id.key for t in tiles] == ["16_18052_25957", "16_18053_25957"]
    assert stats.placements == 2
    for tile in tiles:
        assert len(tile.entities) == 1
        assert tile.entities[0].geometry.kind == "polyline"


def test_stats_lines_are_aligned():
    _, stats = ingest_elements(_charlotte_fixture(), 16)
    lines = stats.lines()
    assert any(line.startswith("nodes read") for line in lines)
    gaps = [line.rindex("  ") for line in lines]
    assert len(set(gaps)) == 1


def test_filter_outliers_bounds():
    def tile_with(n):
        ents = tuple(
            Entity(i, "node", (("amenity", "bench"),), Geometry.point((0.5, 0.5))) for i in range(n)
        )
        return Tile(TileId(16, 18052, 25957), (-80.8374, 35.003), 500.0, ents)

    tiles = [tile_with(MIN_TILE_ENTITIES - 1), tile_with(MIN_TILE_ENTITIES),
             tile_with(MAX_TILE_ENTITIES), tile_with(MAX_TILE_ENTITIES + 1)]
    kept, dropped = filter_outliers(tiles)
    assert dropped == 2
    assert [len(t.entities) for t in kept] == [MIN_TILE_ENTITIES, MAX_TILE_ENTITIES]


def test_group_tiles_buckets_by_block():
    ids = [TileId(16, 18052 + dx, 25957 + dy) for dx in range(5) for dy in range(2)]
    groups = group_tiles(ids)
    assert all(tile_group(t) == key for key, members in groups.items() for t in members)
    assert list(groups) == sorted(groups)
    assert all(members == sorted(members) for members in groups.values())
    assert sum(len(v) for v in groups.values()) == len(ids)


# ------------------------------------------------------------------ splits


def test_split_groups_frozen_assignment():
    keys = [(16, 4500 + i, 6400) for i in range(7)]
    got = split_groups(keys, (0.8, 0.1, 0.1), seed=5)
    assert got == {
        "train": [(16, 4500, 6400), (16, 4501, 6400), (16, 4503, 6400),
                  (16, 4504, 6400), (16, 4506, 6400)],
        "val": [(16, 4505, 6400)],
        "test": [(16, 4502, 6400)],
    }


def test_split_groups_input_order_free():
    keys = [(16, 4500 + i, 6400) for i in range(7)]
    base = split_groups(keys, (0.8, 0.1, 0.1), seed=5)
    assert split_groups(list(reversed(keys)), (0.8, 0.1, 0.1), seed=5) == base
    assert split_groups(keys, (0.8, 0.1, 0.1), seed=6) != base


def test_split_groups_partition_and_quota():
    rng = np.random.default_rng(45)
    for trial in range(50):
        n = int(rng.integers(1, 40))
        keys = [(16, int(x), int(y)) for x, y in rng.integers(0, 10000, (n, 2))]
        keys = list(dict.fromkeys(keys))
        ratios = rng.uniform(0.1, 1.0, 3)
        ratios = tuple((ratios / ratios.sum()).tolist())
        got = split_groups(keys, ratios, seed=trial)

        quotas = [len(keys) * r for r in ratios]
        counts = [math.floor(q) for q in quotas]
        order = sorted(range(3), key=lambda i: (-(quotas[i] - counts[i]), i))
        for i in order[: len(keys) - sum(counts)]:
            counts[i] += 1
        assert [len(got[name]) for name in ("train", "val", "test")] == counts

        merged = sorted(got["train"] + got["val"] + got["test"])
        assert merged == sorted(keys)


def test_split_groups_rejects_bad_ratios():
    with pytest.raises(ValueError, match="sum"):
        split_groups([(16, 0, 0)], (0.5, 0.2, 0.2), seed=0)
    with pytest.raises(ValueError, match="per split"):
        split_groups([(16, 0, 0)], (0.5, 0.5), seed=0)
    # Each of these sums to 1 (or is NaN), so only the per-ratio check catches it.
    for ratios, message in (
        ((1.5, -0.25, -0.25), r"train ratio must lie in \[0, 1\], got 1.5"),
        ((0.5, 1.25, -0.75), r"val ratio must lie in \[0, 1\], got 1.25"),
        ((1.0, 0.0, float("nan")), r"test ratio must lie in \[0, 1\], got nan"),
        ((float("inf"), 0.0, 0.0), r"train ratio must lie in \[0, 1\], got inf"),
    ):
        with pytest.raises(ValueError, match=message):
            split_groups([(16, 0, 0)], ratios, seed=0)
