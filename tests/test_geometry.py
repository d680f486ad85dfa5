"""Simplification, hulls and oriented boxes checked against slower oracles.

The reference implementations here are deliberately different algorithms
from the library's: recursive simplification, gift-wrapping hulls, and a
dense 0.1-degree rotation scan for boxes.
"""

import math

import numpy as np
import pytest

from geotile.geometry import (
    MIN_BOX_SIDE,
    box_area,
    box_sides,
    convex_hull,
    douglas_peucker,
    geometry_min_box,
    min_area_box,
    point_segment_distance,
)
from geotile.model import Geometry


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
