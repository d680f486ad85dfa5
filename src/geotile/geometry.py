"""Polyline simplification, convex hulls and oriented minimum-area boxes.

All functions work on normalised tile coordinates but are unit-agnostic.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .model import Coord, Geometry, MinBox

# 1.5 m at the nominal 300 m tile extent.
MIN_BOX_SIDE: float = 0.005
BOX_SCAN_STEP_DEG: float = 10.0
# The finest rotation step min_area_box accepts: 1800 rotations, the dense
# sweep the oracles use.  A finer step would allocate a row per rotation.
MIN_BOX_SCAN_STEP_DEG: float = 0.1


def point_segment_distance(p: Sequence[float], a: Sequence[float], b: Sequence[float]) -> float:
    """Euclidean distance from point p to the closed segment ab."""
    px, py = float(p[0]), float(p[1])
    ax, ay = float(a[0]), float(a[1])
    bx, by = float(b[0]), float(b[1])
    dx, dy = bx - ax, by - ay
    den = dx * dx + dy * dy
    if den == 0.0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / den
    t = min(1.0, max(0.0, t))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def douglas_peucker(points: Sequence[Coord], eps: float) -> tuple[Coord, ...]:
    """Simplify a polyline, keeping a subsequence of the input points.

    Endpoints always survive.  A point is dropped only when it lies within
    eps of the segment between the retained points around it, so every
    removed point stays within eps of the simplified polyline.

    Args:
        points: polyline vertices, at least 2.
        eps: tolerance in the same units as the coordinates; eps <= 0 keeps
            every point that deviates at all.

    Returns:
        The retained vertices in input order.
    """
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 2:
        raise ValueError("polyline needs at least 2 points")
    if not eps >= 0:
        raise ValueError(f"eps must be non-negative, got {eps}")
    arr = np.asarray(pts, dtype=float)
    keep = np.zeros(len(pts), dtype=bool)
    keep[0] = keep[-1] = True
    stack = [(0, len(pts) - 1)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo < 2:
            continue
        a, b = arr[lo], arr[hi]
        mid = arr[lo + 1 : hi]
        diff = b - a
        den = float(diff @ diff)
        if den == 0.0:
            d = np.hypot(mid[:, 0] - a[0], mid[:, 1] - a[1])
        else:
            t = np.clip((mid - a) @ diff / den, 0.0, 1.0)
            proj = a + t[:, None] * diff
            d = np.hypot(mid[:, 0] - proj[:, 0], mid[:, 1] - proj[:, 1])
        imax = int(np.argmax(d))
        if d[imax] > eps:
            keep[lo + 1 + imax] = True
            stack.append((lo, lo + 1 + imax))
            stack.append((lo + 1 + imax, hi))
    return tuple(p for p, k in zip(pts, keep) if k)


def _cross(o: Coord, a: Coord, b: Coord) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points: Sequence[Coord]) -> tuple[Coord, ...]:
    """Convex hull in counter-clockwise order (monotone chain).

    Collinear points on hull edges are dropped.  Degenerate inputs collapse:
    one distinct point gives a single vertex, collinear input gives the two
    extreme vertices.
    """
    pts = sorted({(float(x), float(y)) for x, y in points})
    if not pts:
        raise ValueError("need at least one point")
    if len(pts) == 1:
        return (pts[0],)
    lower: list[Coord] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Coord] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) == 2 and hull[0] == hull[1]:
        return (hull[0],)
    return tuple(hull)


def box_area(box: MinBox) -> float:
    w, h = box_sides(box)
    return w * h


def box_sides(box: MinBox) -> tuple[float, float]:
    c = box.corners
    return (
        math.hypot(c[1][0] - c[0][0], c[1][1] - c[0][1]),
        math.hypot(c[3][0] - c[0][0], c[3][1] - c[0][1]),
    )


def _rect_to_box(x0: float, y0: float, x1: float, y1: float, phi: float) -> MinBox:
    # Expand to the minimum side symmetrically in the rotated frame, then
    # rotate the corners back by phi.
    if x1 - x0 < MIN_BOX_SIDE:
        cx = 0.5 * (x0 + x1)
        x0, x1 = cx - 0.5 * MIN_BOX_SIDE, cx + 0.5 * MIN_BOX_SIDE
    if y1 - y0 < MIN_BOX_SIDE:
        cy = 0.5 * (y0 + y1)
        y0, y1 = cy - 0.5 * MIN_BOX_SIDE, cy + 0.5 * MIN_BOX_SIDE
    c, s = math.cos(phi), math.sin(phi)
    corners = []
    for rx, ry in ((x0, y0), (x1, y0), (x1, y1), (x0, y1)):
        corners.append((c * rx - s * ry, s * rx + c * ry))
    return MinBox(tuple(corners))


def _segment_box(a: Coord, b: Coord) -> MinBox:
    phi = math.atan2(b[1] - a[1], b[0] - a[0])
    c, s = math.cos(-phi), math.sin(-phi)
    ax, ay = c * a[0] - s * a[1], s * a[0] + c * a[1]
    bx = c * b[0] - s * b[1]
    return _rect_to_box(min(ax, bx), ay, max(ax, bx), ay, phi)


def min_area_box(
    points: Sequence[Coord],
    *,
    step_deg: float = BOX_SCAN_STEP_DEG,
    rng: np.random.Generator | Callable[[], np.random.Generator] | None = None,
) -> MinBox:
    """Approximate minimum-area oriented box over a point set.

    The convex hull is scanned at rotations 0, step_deg, ... below 180 and
    the smallest axis-aligned box among those rotations wins; with the
    default 10 degree step that is 18 candidate orientations.  Both sides are
    afterwards expanded symmetrically to at least MIN_BOX_SIDE.

    A single distinct point becomes a MIN_BOX_SIDE square rotated uniformly in
    [0, 180) degrees drawn from rng (axis-aligned when rng is None), so point
    features do not all share one orientation.  rng may also be a
    zero-argument factory, called only in that case, so callers need not
    derive a generator that other hulls never use.  Collinear inputs produce
    a rectangle aligned with their principal segment.

    Raises ValueError unless step_deg lies in [MIN_BOX_SCAN_STEP_DEG, 180].
    """
    if not MIN_BOX_SCAN_STEP_DEG <= step_deg <= 180.0:
        raise ValueError(f"step_deg must lie in [{MIN_BOX_SCAN_STEP_DEG}, 180] degrees, got {step_deg!r}")
    hull = convex_hull(points)
    if len(hull) == 1:
        if callable(rng):
            rng = rng()
        angle = 0.0 if rng is None else float(rng.uniform(0.0, math.pi))
        p = hull[0]
        c, s = math.cos(-angle), math.sin(-angle)
        rx, ry = c * p[0] - s * p[1], s * p[0] + c * p[1]
        return _rect_to_box(rx, ry, rx, ry, angle)
    if len(hull) == 2:
        return _segment_box(hull[0], hull[1])

    hx = np.array([p[0] for p in hull])
    hy = np.array([p[1] for p in hull])
    # One row per rotation.  The tables come from math.cos/math.sin because
    # np.cos need not equal libm bit for bit, and argmin keeps the first
    # smallest area, so every box equals the one a per-rotation loop finds.
    phis = [math.radians(k * step_deg) for k in range(int(round(180.0 / step_deg)))]
    c = np.array([math.cos(-phi) for phi in phis])[:, None]
    s = np.array([math.sin(-phi) for phi in phis])[:, None]
    rx = c * hx - s * hy
    ry = s * hx + c * hy
    x0, x1 = rx.min(axis=1), rx.max(axis=1)
    y0, y1 = ry.min(axis=1), ry.max(axis=1)
    k = int(np.argmin((x1 - x0) * (y1 - y0)))
    return _rect_to_box(float(x0[k]), float(y0[k]), float(x1[k]), float(y1[k]), phis[k])


def geometry_min_box(
    geom: Geometry, *, rng: np.random.Generator | Callable[[], np.random.Generator] | None = None
) -> MinBox:
    """Oriented box for any geometry kind, scanned at BOX_SCAN_STEP_DEG.

    Ring-closing repeats go to min_area_box with the other points; its convex
    hull drops repeated points, so they change nothing.
    """
    return min_area_box(list(geom.iter_points()), rng=rng)
