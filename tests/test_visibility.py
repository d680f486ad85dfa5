"""Visibility graphs: the vectorised builder must match brute force
edge for edge, and both must match a scalar oracle written independently
here (its own orientation code, its own loop structure).
"""

import numpy as np
import pytest

from geotile import tef, visibility
from geotile.geo import TileId
from geotile.model import EDGE_BOUNDARY, EDGE_VISIBLE, Entity, Geometry, Tile
from geotile.visibility import (
    build_scene,
    proper_crossing,
    visibility_edges,
    visibility_edges_brute,
)


def _orient(ax, ay, bx, by, px, py):
    return (bx - ax) * (py - ay) - (by - ay) * (px - ax)


def _oracle_edges(geom):
    """All-pairs, all-edges scalar visibility check."""
    vertices, _, boundary = build_scene(geom)
    adjacent = set()
    for i, j in boundary:
        adjacent.add((min(i, j), max(i, j)))
    edges = [(min(i, j), max(i, j), EDGE_BOUNDARY) for i, j in boundary]
    n = len(vertices)
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) in adjacent:
                continue
            ax, ay = vertices[i]
            bx, by = vertices[j]
            blocked = False
            for (u, v) in boundary:
                ux, uy = vertices[u]
                vx, vy = vertices[v]
                o1 = _orient(ax, ay, bx, by, ux, uy)
                o2 = _orient(ax, ay, bx, by, vx, vy)
                if o1 * o2 >= 0:
                    continue
                o3 = _orient(ux, uy, vx, vy, ax, ay)
                o4 = _orient(ux, uy, vx, vy, bx, by)
                if o3 * o4 < 0:
                    blocked = True
                    break
            if not blocked:
                edges.append((i, j, EDGE_VISIBLE))
    return tuple(edges)


def _random_multipolygon(rng):
    """A handful of small convex-ish rings scattered over the unit square."""
    polygons = []
    for _ in range(int(rng.integers(1, 4))):
        rings = []
        for r in range(int(rng.integers(1, 3))):
            cx, cy = rng.uniform(0.15, 0.85, size=2)
            radius = rng.uniform(0.03, 0.12) if r == 0 else rng.uniform(0.01, 0.025)
            k = int(rng.integers(3, 8))
            angles = np.sort(rng.uniform(0, 2 * np.pi, size=k))
            ring = [
                (float(cx + radius * np.cos(a)), float(cy + radius * np.sin(a)))
                for a in angles
            ]
            if r > 0:
                ring.reverse()
            ring.append(ring[0])
            rings.append(ring)
        polygons.append(rings)
    return Geometry.multipolygon(polygons)


def test_square_sees_its_diagonals():
    ring = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0)]
    graph = visibility_edges(Geometry.polygon([ring]))
    assert graph.edges == (
        (0, 1, "bnd"),
        (1, 2, "bnd"),
        (2, 3, "bnd"),
        (0, 3, "bnd"),
        (0, 2, "vis"),
        (1, 3, "vis"),
    )


def test_building_with_offset_courtyard():
    # A square footprint with an off-centre rectangular courtyard.  The
    # outer diagonals cross courtyard walls, so they must not be visible,
    # while every outer corner still sees the near courtyard corners.
    outer = [(0.1, 0.1), (0.9, 0.1), (0.9, 0.9), (0.1, 0.9), (0.1, 0.1)]
    hole = [(0.45, 0.35), (0.45, 0.65), (0.75, 0.65), (0.75, 0.35), (0.45, 0.35)]
    graph = visibility_edges(Geometry.multipolygon([[outer, hole]]))
    labels = {(i, j): kind for i, j, kind in graph.edges}
    assert sum(1 for k in labels.values() if k == "bnd") == 8
    assert sum(1 for k in labels.values() if k == "vis") == 14
    for blocked in ((0, 2), (0, 6), (1, 3), (1, 5), (2, 4), (3, 7)):
        assert blocked not in labels
    assert labels[(0, 4)] == "vis"
    assert labels[(2, 6)] == "vis"
    assert graph.edges == visibility_edges_brute(Geometry.multipolygon([[outer, hole]])).edges


def test_vertex_grazing_does_not_block():
    # The segment from (0,0) to (2,2) passes exactly through the obstacle
    # corner at (1,1); touching a vertex is not a proper crossing.
    assert not proper_crossing(0.0, 0.0, 2.0, 2.0, 1.0, 1.0, 1.0, 3.0)
    assert proper_crossing(0.0, 0.0, 2.0, 2.0, 0.5, 1.5, 1.5, 0.5)


def test_optimized_equals_brute_on_random_scenes():
    rng = np.random.default_rng(90)
    for _ in range(60):
        geom = _random_multipolygon(rng)
        assert visibility_edges(geom).edges == visibility_edges_brute(geom).edges


def test_both_routes_equal_the_scalar_oracle():
    rng = np.random.default_rng(91)
    for _ in range(40):
        geom = _random_multipolygon(rng)
        expected = _oracle_edges(geom)
        assert visibility_edges_brute(geom).edges == expected
        assert visibility_edges(geom).edges == expected


def test_vertices_carry_ring_provenance():
    outer = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0)]
    hole = [(0.4, 0.4), (0.4, 0.6), (0.6, 0.6), (0.6, 0.4), (0.4, 0.4)]
    graph = visibility_edges(Geometry.multipolygon([[outer, hole]]))
    rings = [ring for ring, _ in graph.vertices]
    assert rings == [0, 0, 0, 0, 1, 1, 1, 1]
    cross = graph.cross_ring_edges()
    assert cross
    for i, j, kind in cross:
        assert kind == "vis"
        assert graph.vertices[i][0] != graph.vertices[j][0]


def test_built_graphs_read_back_from_tef_unchanged():
    # TEF stores only the visible pairs and takes the vertices and ring edges from the geometry.
    rng = np.random.default_rng(130)
    for _ in range(60):
        geom = _random_multipolygon(rng)
        entity = Entity(id=1, kind="relation", tags=(), geometry=geom, visgraph=visibility_edges(geom))
        tile = Tile(id=TileId(16, 18052, 25957), origin=(0.0, 0.0), extent_m=500.0, entities=(entity,))
        line = tef.tile_to_json(tile)
        assert '"bnd"' not in line
        back = tef.tile_from_json(line)
        assert back == tile
        assert tef.tile_to_json(back) == line


def test_ring_edges_join_each_ring_point_to_the_next():
    square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0)]
    hole = [(0.4, 0.4), (0.4, 0.6), (0.6, 0.4), (0.4, 0.4)]
    assert Geometry.polygon([square, hole]).ring_edges() == ((0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 4))
    assert Geometry.point((0.5, 0.5)).ring_edges() == ()
    # Random rings have distinct points, so each stored ring step names one vertex pair.
    rng = np.random.default_rng(131)
    for _ in range(30):
        geom = _random_multipolygon(rng)
        vertices, _, edges = build_scene(geom)
        index = {p: k for k, p in enumerate(vertices)}
        steps = {tuple(sorted((index[a], index[b]))) for ring in geom.rings() for a, b in zip(ring, ring[1:])}
        assert all(len(ring) >= 4 for ring in geom.rings())
        assert edges == list(geom.ring_edges())
        assert {(min(i, j), max(i, j)) for i, j in geom.ring_edges()} == steps
        assert len(geom.ring_edges()) == len(steps) == len(geom.ring_vertices())


def test_non_areal_geometry_is_rejected():
    with pytest.raises(ValueError):
        visibility_edges(Geometry.polyline([(0.0, 0.0), (1.0, 1.0)]))


def test_deterministic_output_order():
    rng = np.random.default_rng(92)
    geom = _random_multipolygon(rng)
    assert visibility_edges(geom).edges == visibility_edges(geom).edges
    # Edge list ordering: boundary edges first in construction order, then
    # visible pairs sorted by (i, j).
    graph = visibility_edges(geom)
    kinds = [kind for _, _, kind in graph.edges]
    first_vis = kinds.index("vis") if "vis" in kinds else len(kinds)
    assert all(k == "bnd" for k in kinds[:first_vis])
    vis_pairs = [(i, j) for i, j, k in graph.edges if k == "vis"]
    assert vis_pairs == sorted(vis_pairs)


def _wavy_ring(n, cx, cy, radius, waves, reverse=False):
    ring = [
        (
            cx + radius * (1.0 + 0.3 * np.sin(waves * t)) * np.cos(t),
            cy + radius * (1.0 + 0.3 * np.sin(waves * t)) * np.sin(t),
        )
        for t in np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    ]
    ring = [(float(px), float(py)) for px, py in ring]
    if reverse:
        ring.reverse()
    return ring + [ring[0]]


def _prefiltered_scene(scale=1.0):
    """A wavy outer ring with holes of 3 to 7 vertices, shorter than the
    ring-offset window, in a scene large enough for the ring-edge pass."""
    holes = [
        _wavy_ring(3, 0.42, 0.5, 0.05, 1, reverse=True),
        _wavy_ring(4, 0.6, 0.42, 0.04, 2, reverse=True),
        _wavy_ring(5, 0.62, 0.58, 0.04, 3, reverse=True),
        _wavy_ring(7, 0.5, 0.68, 0.05, 2, reverse=True),
    ]
    rings = [_wavy_ring(76, 0.5, 0.5, 0.35, 7), *holes]
    return Geometry.multipolygon([[[(px * scale, py * scale) for px, py in r] for r in rings]])


def test_row_blocks_and_ring_offsets_equal_brute(monkeypatch):
    # Block sizes of one row (and one full-pass pair), of a few rows that
    # split each vertex's surviving pairs, and the default; ring-edge passes
    # of no offset, one offset and the default offsets.
    geom = _prefiltered_scene()
    expected = visibility_edges_brute(geom).edges
    n = len(build_scene(geom)[0])
    assert n >= visibility.PREFILTER_MIN_VERTICES
    for block in (1, 5 * n + 3, visibility.BLOCK_ELEMENTS):
        monkeypatch.setattr(visibility, "BLOCK_ELEMENTS", block)
        for offsets in ((), (-2,), visibility.RING_OFFSETS):
            monkeypatch.setattr(visibility, "RING_OFFSETS", offsets)
            assert visibility_edges(geom).edges == expected


@pytest.mark.parametrize("scale", [1.0, 1e-160, 1e150], ids=["unit", "products-underflow", "products-overflow"])
def test_prefiltered_scene_equals_brute_and_oracle(scale):
    # At 1e-160 the orientation products underflow to zero, so nothing blocks
    # (a sign-bit test would still see crossings); at 1e150 they overflow to
    # infinities whose signs must still decide.
    geom = _prefiltered_scene(scale)
    expected = _oracle_edges(geom)
    assert visibility_edges_brute(geom).edges == expected
    with np.errstate(over="ignore"):
        assert visibility_edges(geom).edges == expected


def _comb(teeth):
    """A comb on a unit grid with a hole grazing its base: collinear base
    vertices, collinear tooth tips, and enough vertices for the ring-edge pass."""
    base = [(float(k), 0.0) for k in range(teeth + 1)]
    top = [pt for k in map(float, range(teeth, 0, -1)) for pt in ((k, 3.0), (k, 4.0), (k - 0.5, 4.0), (k - 0.5, 3.0))]
    return [base + top + [(0.0, 1.5), base[0]], [(5.5, 0.0), (6.5, 1.0), (4.5, 1.0), (5.5, 0.0)]]


@pytest.mark.parametrize(
    "polygons",
    [
        # Collinear vertices along every side of one ring.
        [[[(0.0, 0.0), (0.5, 0.0), (1.0, 0.0), (1.0, 0.5), (1.0, 1.0), (0.5, 1.0),
           (0.0, 1.0), (0.0, 0.5), (0.0, 0.0)]]],
        # A hole whose vertex lies on an outer edge (grazes it).
        [[[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0)],
          [(0.5, 0.0), (0.4, 0.3), (0.6, 0.3), (0.5, 0.0)]]],
        # Two rings sharing a coordinate: squares touching at one corner.
        [[[(0.0, 0.0), (0.5, 0.0), (0.5, 0.5), (0.0, 0.5), (0.0, 0.0)]],
         [[(0.5, 0.5), (1.0, 0.5), (1.0, 1.0), (0.5, 1.0), (0.5, 0.5)]]],
        [_comb(20)],
    ],
    ids=["collinear-ring", "hole-grazes-outer-edge", "rings-share-a-corner", "comb-with-grazing-hole"],
)
def test_degenerate_scenes_equal_brute(polygons):
    geom = Geometry.multipolygon(polygons)
    expected = visibility_edges_brute(geom).edges
    assert visibility_edges(geom).edges == expected
    assert expected == _oracle_edges(geom)
