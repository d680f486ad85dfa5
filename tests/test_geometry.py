"""Simplification, hulls and oriented boxes checked against slower oracles.

The reference implementations here are deliberately different algorithms
from the library's: recursive simplification, gift-wrapping hulls, and a
dense 0.1-degree rotation scan for boxes.
"""

import gc
import math

import numpy as np
import pytest

from geotile.geometry import (
    MIN_BOX_SCAN_STEP_DEG,
    MIN_BOX_SIDE,
    _rect_to_box,
    box_area,
    box_sides,
    convex_hull,
    douglas_peucker,
    geometry_min_box,
    min_area_box,
    point_segment_distance,
)
from geotile.model import Geometry, GeometryError


# ---------------------------------------------------------------- oracles


def _dp_recursive(points, eps):
    """Textbook recursive formulation, kept scalar on purpose."""
    if len(points) < 3:
        return list(points)
    a, b = points[0], points[-1]
    best, best_d = 0, -1.0
    for i in range(1, len(points) - 1):
        d = point_segment_distance(points[i], a, b)
        if d > best_d:
            best, best_d = i, d
    if best_d > eps:
        left = _dp_recursive(points[: best + 1], eps)
        right = _dp_recursive(points[best:], eps)
        return left[:-1] + right
    return [a, b]


def _hull_gift_wrap(points):
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    start = pts[0]
    hull = [start]
    current = start
    while True:
        candidate = None
        for p in pts:
            if p == current:
                continue
            if candidate is None:
                candidate = p
                continue
            cross = (candidate[0] - current[0]) * (p[1] - current[1]) - (
                candidate[1] - current[1]
            ) * (p[0] - current[0])
            if cross < 0 or (
                cross == 0
                and (p[0] - current[0]) ** 2 + (p[1] - current[1]) ** 2
                > (candidate[0] - current[0]) ** 2 + (candidate[1] - current[1]) ** 2
            ):
                candidate = p
        hull.append(candidate)
        current = candidate
        if candidate == start:
            break
    return hull[:-1]


def _box_scan_dense(points, step_deg=0.1):
    """Minimum rectangle area over a dense angle sweep."""
    pts = np.asarray(points, dtype=np.float64)
    best = math.inf
    for k in range(int(round(180 / step_deg))):
        phi = math.radians(k * step_deg)
        c, s = math.cos(phi), math.sin(phi)
        xs = pts[:, 0] * c + pts[:, 1] * s
        ys = -pts[:, 0] * s + pts[:, 1] * c
        area = (xs.max() - xs.min()) * (ys.max() - ys.min())
        best = min(best, area)
    return best


def reference_min_area_box(points, step_deg=10.0):
    """min_area_box's scan as a loop over rotations, for hulls of 3+ points.

    The library scans every rotation in one broadcast; this is the scalar
    form it must equal bit for bit.
    """
    hull = convex_hull(points)
    assert len(hull) >= 3
    hx = np.array([p[0] for p in hull])
    hy = np.array([p[1] for p in hull])
    best = None
    for k in range(int(round(180.0 / step_deg))):
        phi = math.radians(k * step_deg)
        c, s = math.cos(-phi), math.sin(-phi)
        rx = c * hx - s * hy
        ry = s * hx + c * hy
        x0, x1 = float(rx.min()), float(rx.max())
        y0, y1 = float(ry.min()), float(ry.max())
        area = (x1 - x0) * (y1 - y0)
        if best is None or area < best[0]:
            best = (area, x0, y0, x1, y1, phi)
    _, x0, y0, x1, y1, phi = best
    return _rect_to_box(x0, y0, x1, y1, phi)


def _bits(box):
    """Corner values as hex strings, so -0.0 and 0.0 differ."""
    return tuple(float(v).hex() for v in box.flat())


# ------------------------------------------------------- point to segment


def test_point_segment_distance_basics():
    assert point_segment_distance((0.0, 1.0), (0.0, 0.0), (2.0, 0.0)) == 1.0
    # Beyond the segment end the distance is to the endpoint, not the line.
    assert point_segment_distance((3.0, 4.0), (0.0, 0.0), (0.0, 0.0)) == 5.0
    assert point_segment_distance((5.0, 1.0), (0.0, 0.0), (2.0, 0.0)) == pytest.approx(
        math.hypot(3.0, 1.0)
    )


# ----------------------------------------------------------- simplification


def test_keeps_endpoints_and_significant_kinks():
    line = [(0.0, 0.0), (1.0, 0.001), (2.0, 0.0), (3.0, 0.5), (4.0, 0.0)]
    out = douglas_peucker(line, eps=0.01)
    assert out[0] == line[0] and out[-1] == line[-1]
    assert (3.0, 0.5) in out
    assert (1.0, 0.001) not in out


def test_two_points_pass_through():
    line = [(0.0, 0.0), (1.0, 1.0)]
    assert list(douglas_peucker(line, eps=100.0)) == line


@pytest.mark.parametrize("eps", [-0.1, float("nan")])
def test_negative_or_nan_eps_is_rejected(eps):
    # A NaN eps compared false against every distance and kept only the endpoints.
    with pytest.raises(ValueError, match=f"eps must be non-negative, got {eps}"):
        douglas_peucker([(0.0, 0.0), (0.5, 0.3), (1.0, 0.0)], eps)


def test_matches_recursive_reference():
    rng = np.random.default_rng(41)
    for _ in range(200):
        n = int(rng.integers(2, 40))
        pts = [(float(x), float(y)) for x, y in rng.uniform(0, 1, size=(n, 2))]
        eps = float(rng.uniform(0.001, 0.3))
        assert list(douglas_peucker(pts, eps)) == _dp_recursive(pts, eps)


def test_removed_points_stay_within_eps():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(5, 60))
        pts = [(float(x), float(y)) for x, y in rng.uniform(0, 1, size=(n, 2))]
        eps = float(rng.uniform(0.01, 0.2))
        kept = douglas_peucker(pts, eps)
        for p in pts:
            if p in kept:
                continue
            d = min(
                point_segment_distance(p, kept[i], kept[i + 1])
                for i in range(len(kept) - 1)
            )
            assert d <= eps


def test_simplification_is_idempotent():
    rng = np.random.default_rng(43)
    for _ in range(50):
        pts = [(float(x), float(y)) for x, y in rng.uniform(0, 1, size=(30, 2))]
        once = douglas_peucker(pts, 0.05)
        assert douglas_peucker(once, 0.05) == once


# ------------------------------------------------------------ convex hull


def test_hull_square_with_interior_points():
    pts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.5, 0.5), (0.2, 0.7)]
    assert list(convex_hull(pts)) == [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


def test_hull_is_ccw_and_starts_lexicographic_min():
    rng = np.random.default_rng(44)
    for _ in range(100):
        pts = [(float(x), float(y)) for x, y in rng.normal(0, 1, size=(25, 2))]
        hull = convex_hull(pts)
        assert hull[0] == min(hull)
        area2 = sum(
            hull[i][0] * hull[(i + 1) % len(hull)][1]
            - hull[(i + 1) % len(hull)][0] * hull[i][1]
            for i in range(len(hull))
        )
        assert area2 > 0


def test_hull_matches_gift_wrapping():
    rng = np.random.default_rng(45)
    for _ in range(100):
        n = int(rng.integers(3, 40))
        pts = [(float(x), float(y)) for x, y in rng.uniform(-2, 2, size=(n, 2))]
        ours = convex_hull(pts)
        ref = _hull_gift_wrap(pts)
        assert set(ours) == set(ref)
        assert len(ours) == len(ref)


def test_hull_degenerate_inputs():
    assert list(convex_hull([(0.5, 0.5)])) == [(0.5, 0.5)]
    assert list(convex_hull([(0.0, 0.0), (1.0, 1.0)])) == [(0.0, 0.0), (1.0, 1.0)]
    collinear = convex_hull([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (0.5, 0.5)])
    assert list(collinear) == [(0.0, 0.0), (2.0, 2.0)]


# -------------------------------------------------------------- min boxes


def test_axis_aligned_square_is_exact():
    pts = [(0.0, 0.0), (0.3, 0.0), (0.3, 0.3), (0.0, 0.3)]
    box = min_area_box(pts)
    assert box_area(box) == pytest.approx(0.09, abs=1e-12)


def test_rotated_square_scan_error_is_the_documented_ratio():
    # Unit square rotated by 45 degrees probed with 10-degree steps: the
    # nearest scan angle is 5 degrees off, inflating the area by
    # (cos 5 + sin 5)^2.
    c, s = math.cos(math.radians(45)), math.sin(math.radians(45))
    pts = [(0.0, 0.0), (c, s), (0.0, 2 * s), (-c, s)]
    box = min_area_box(pts)
    assert box_area(box) == pytest.approx(1.1736481776669303, abs=1e-6)


def test_scan_result_bounded_by_dense_sweep():
    rng = np.random.default_rng(46)
    for _ in range(200):
        n = int(rng.integers(3, 30))
        pts = [(float(x), float(y)) for x, y in rng.uniform(0.1, 0.9, size=(n, 2))]
        approx = box_area(min_area_box(pts))
        exact = _box_scan_dense(pts)
        scale = max(exact, MIN_BOX_SIDE**2)
        assert approx >= exact - 1e-12
        assert approx <= 1.2 * scale + 1e-12


def _regular_polygon(n, radius=1.0, turn=0.0):
    return [
        (radius * math.cos(turn + 2 * math.pi * i / n), radius * math.sin(turn + 2 * math.pi * i / n))
        for i in range(n)
    ]


def test_broadcast_scan_equals_the_rotation_loop_on_seeded_hulls():
    rng = np.random.default_rng(51)
    for step_deg, cases in ((10.0, 300), (7.0, 100), (MIN_BOX_SCAN_STEP_DEG, 20)):
        for _ in range(cases):
            n = int(rng.integers(3, 61))
            pts = [(float(x), float(y)) for x, y in rng.uniform(0.0, 1.0, size=(n, 2))]
            if len(convex_hull(pts)) < 3:
                continue
            want = reference_min_area_box(pts, step_deg)
            assert _bits(min_area_box(pts, step_deg=step_deg)) == _bits(want), (step_deg, pts)


def test_broadcast_scan_keeps_the_first_of_tied_rotations():
    # Symmetric shapes give equal areas at several rotations; the loop keeps
    # the first, and so must the broadcast.
    shapes = [[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]]
    shapes += [[(float(x), float(y)) for x in range(4) for y in range(4)]]
    shapes += [_regular_polygon(n) for n in range(3, 13)]
    shapes += [_regular_polygon(n, 0.2, math.radians(45)) for n in (4, 8)]
    for pts in shapes:
        for step_deg in (10.0, 5.0, MIN_BOX_SCAN_STEP_DEG):
            want = reference_min_area_box(pts, step_deg)
            assert _bits(min_area_box(pts, step_deg=step_deg)) == _bits(want), (step_deg, pts)


@pytest.mark.parametrize("scale", [1e-9, 1e-3, 1e3, 1e12])
def test_broadcast_scan_equals_the_rotation_loop_at_every_scale(scale):
    rng = np.random.default_rng(52)
    for _ in range(50):
        n = int(rng.integers(3, 20))
        pts = [(float(x), float(y)) for x, y in scale * rng.uniform(-1.0, 1.0, size=(n, 2))]
        for step_deg in (10.0, 3.0):
            want = reference_min_area_box(pts, step_deg)
            assert _bits(min_area_box(pts, step_deg=step_deg)) == _bits(want)


@pytest.mark.parametrize(
    "step_deg", [0.0, -10.0, 180.5, 400.0, math.inf, -math.inf, math.nan, 1e-300, 0.5 * MIN_BOX_SCAN_STEP_DEG]
)
def test_step_outside_its_range_is_rejected(step_deg):
    # A tiny step would ask for ~1e302 rotations: it is only ever rejected here.
    for pts in ([(0.5, 0.5)], [(0.1, 0.1), (0.4, 0.2)], [(0.1, 0.1), (0.4, 0.2), (0.3, 0.6)]):
        with pytest.raises(ValueError, match=rf"step_deg .* got {step_deg!r}"):
            min_area_box(pts, step_deg=step_deg)


def test_step_range_ends_are_accepted():
    pts = [(0.1, 0.1), (0.4, 0.2), (0.3, 0.6)]
    for step_deg in (MIN_BOX_SCAN_STEP_DEG, 180.0):
        assert _bits(min_area_box(pts, step_deg=step_deg)) == _bits(reference_min_area_box(pts, step_deg))


def test_every_side_respects_minimum():
    rng = np.random.default_rng(47)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        pts = [(float(x), float(y)) for x, y in rng.uniform(0.2, 0.8, size=(n, 2))]
        w, h = box_sides(min_area_box(pts, rng=rng))
        assert w >= MIN_BOX_SIDE - 1e-12
        assert h >= MIN_BOX_SIDE - 1e-12


def test_single_point_box_is_a_small_square():
    box = min_area_box([(0.5, 0.5)])
    w, h = box_sides(box)
    assert w == pytest.approx(MIN_BOX_SIDE)
    assert h == pytest.approx(MIN_BOX_SIDE)
    cx = sum(c[0] for c in box.corners) / 4
    cy = sum(c[1] for c in box.corners) / 4
    assert (cx, cy) == pytest.approx((0.5, 0.5))


def test_single_point_rotation_is_seeded():
    a = min_area_box([(0.5, 0.5)], rng=np.random.default_rng(7))
    b = min_area_box([(0.5, 0.5)], rng=np.random.default_rng(7))
    c = min_area_box([(0.5, 0.5)], rng=np.random.default_rng(8))
    assert a.corners == b.corners
    assert a.corners != c.corners


def test_rng_factory_is_called_only_for_a_single_point():
    calls = []

    def factory():
        calls.append(1)
        return np.random.default_rng(7)

    lazy = min_area_box([(0.5, 0.5)], rng=factory)
    assert lazy.corners == min_area_box([(0.5, 0.5)], rng=np.random.default_rng(7)).corners
    assert len(calls) == 1
    min_area_box([(0.1, 0.1), (0.4, 0.2), (0.3, 0.6)], rng=factory)
    min_area_box([(0.1, 0.1), (0.4, 0.2)], rng=factory)
    assert len(calls) == 1


def test_segment_box_aligns_with_the_segment():
    box = min_area_box([(0.0, 0.0), (1.0, 0.0)])
    w, h = box_sides(box)
    assert max(w, h) == pytest.approx(1.0)
    assert min(w, h) == pytest.approx(MIN_BOX_SIDE)


def test_collinear_points_get_a_segment_box():
    box = min_area_box([(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)])
    w, h = box_sides(box)
    assert max(w, h) == pytest.approx(math.sqrt(2.0))
    assert min(w, h) == pytest.approx(MIN_BOX_SIDE)


def test_geometry_min_box_covers_all_geometry_kinds():
    rng = np.random.default_rng(48)
    point = Geometry.point((0.25, 0.75))
    line = Geometry.polyline([(0.0, 0.0), (0.5, 0.2), (1.0, 0.1)])
    ring = [(0.1, 0.1), (0.6, 0.1), (0.6, 0.6), (0.1, 0.6), (0.1, 0.1)]
    poly = Geometry.polygon([ring])
    multi = Geometry.multipolygon([[ring]])
    for geom in (point, line, poly, multi):
        box = geometry_min_box(geom, rng=rng)
        w, h = box_sides(box)
        assert w >= MIN_BOX_SIDE - 1e-12 and h >= MIN_BOX_SIDE - 1e-12


def test_ring_closing_points_leave_the_box_unchanged():
    rng = np.random.default_rng(50)
    for _ in range(50):
        rings = []
        for _ in range(2):
            pts = [(float(x), float(y)) for x, y in rng.uniform(0, 1, size=(6, 2))]
            rings.append(pts + [pts[0]])
        geom = Geometry.multipolygon([[rings[0]], [rings[1]]])
        distinct = [p for ring in rings for p in ring[:-1]]
        assert geometry_min_box(geom) == min_area_box(distinct)


def test_geometry_map_on_every_kind_at_both_depths():
    ring = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 0.0))
    hole = ((0.2, 0.2), (0.4, 0.2), (0.4, 0.4), (0.2, 0.2))

    def shift(p):
        return (p[0] + 1.0, p[1] * 2.0)

    def shifted(line):
        return tuple(shift(p) for p in line)

    point = Geometry.point((0.5, 0.25))
    assert point.map(shift) == Geometry("point", (1.5, 0.5))
    assert point.map(shifted, depth=1) is point

    line = Geometry.polyline([(0.0, 0.0), (0.5, 0.5)])
    assert line.map(shift) == Geometry("polyline", ((1.0, 0.0), (1.5, 1.0)))
    assert line.map(len, depth=1) == Geometry("polyline", 2)

    poly = Geometry.polygon([ring, hole])
    assert poly.map(shift) == Geometry.polygon([shifted(ring), shifted(hole)])
    assert poly.map(shifted, depth=1) == poly.map(shift)
    assert poly.map(len, depth=1) == Geometry("polygon", (4, 4))

    multi = Geometry.multipolygon([[ring, hole], [hole]])
    assert multi.map(shift) == Geometry.multipolygon([[shifted(ring), shifted(hole)], [shifted(hole)]])
    assert multi.map(shifted, depth=1) == multi.map(shift)
    assert multi.map(len, depth=1) == Geometry("multipolygon", ((4, 4), (4,)))


def test_geometry_map_leaves_no_reference_cycle():
    multi = Geometry.multipolygon([[_SQUARE, _SQUARE], [_SQUARE]])
    gc.collect()
    gc.disable()
    try:
        for depth in range(1000):
            multi.map(tuple, depth=depth % 3)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0


_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0)]


@pytest.mark.parametrize("build, where, message", [
    (lambda: Geometry.point((0.5, True)), "[1]", "expected number, got bool"),
    (lambda: Geometry.point((math.nan, 0.5)), "[0]", "number out of float range"),
    (lambda: Geometry.point(np.array([0.5, 0.5])), "", "expected [x, y]"),
    (lambda: Geometry.polyline([(0.0, 0.0), (math.inf, 1.0)]), "[1][0]", "number out of float range"),
    (lambda: Geometry.polyline([(0.0, 0.0), (1.0, 1.0, 1.0)]), "[1]", "expected [x, y]"),
    (lambda: Geometry.polyline([(0.0, 0.0)]), "", "polyline needs at least 2 points"),
    (lambda: Geometry.polygon([]), "", "polygon needs at least one ring"),
    (lambda: Geometry.polygon([_SQUARE, _SQUARE[:3]]), "[1]", "ring must be a closed list of at least 4 points"),
    (lambda: Geometry.polygon([_SQUARE[:4]]), "[0]", "ring is not closed"),
    (lambda: Geometry.multipolygon([]), "", "multipolygon needs at least one polygon"),
    (lambda: Geometry.multipolygon([[_SQUARE], []]), "[1]", "polygon needs at least one ring"),
    (lambda: Geometry.multipolygon([[_SQUARE], [_SQUARE, _SQUARE[:2] + [(1.0, -math.inf)] + _SQUARE[3:]]]),
     "[1][1][2][1]", "number out of float range"),
])
def test_constructor_errors_name_the_place_below_coords(build, where, message):
    with pytest.raises(GeometryError) as err:
        build()
    assert (err.value.where, err.value.message) == (where, message)
    assert str(err.value) == f"coords{where}: {message}"


def test_constructors_store_ints_as_floats():
    line = Geometry.polyline([[0, 1], (2, 3.5)])
    assert line.coords == ((0.0, 1.0), (2.0, 3.5))
    assert all(type(v) is float for p in line.coords for v in p)


def test_box_contains_its_input_points():
    rng = np.random.default_rng(49)
    for _ in range(100):
        pts = [(float(x), float(y)) for x, y in rng.uniform(0, 1, size=(12, 2))]
        box = min_area_box(pts)
        (ax, ay), (bx, by), _, (dx, dy) = box.corners
        u = (bx - ax, by - ay)
        v = (dx - ax, dy - ay)
        lu = math.hypot(*u) ** 2
        lv = math.hypot(*v) ** 2
        for px, py in pts:
            pu = ((px - ax) * u[0] + (py - ay) * u[1]) / lu
            pv = ((px - ax) * v[0] + (py - ay) * v[1]) / lv
            assert -1e-9 <= pu <= 1 + 1e-9
            assert -1e-9 <= pv <= 1 + 1e-9
