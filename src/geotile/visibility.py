"""Visibility graphs over the boundary vertices of areal geometry.

Vertices are the distinct ring points of a polygon or multipolygon.  Two
non-adjacent vertices see each other when the open segment between them
properly crosses no boundary edge; touching an edge at a shared endpoint or
grazing a vertex does not block visibility.  Same-ring and cross-ring pairs
both participate, and ring provenance is kept so either subset can be
selected afterwards.

``visibility_edges`` is a numpy kernel whose graph equals that of the scalar
oracle ``visibility_edges_brute`` edge for edge.
"""

from __future__ import annotations

import numpy as np

from .model import EDGE_BOUNDARY, EDGE_VISIBLE, Geometry, VisibilityGraph

Scene = tuple[list[tuple[float, float]], list[tuple[int, int]], list[tuple[int, int]]]

# Pair-edge cells per block of the vectorised test: 64 Ki float64 cells are
# 0.5 MB per temporary, so the working set stays in cache whatever the scene.
BLOCK_ELEMENTS = 1 << 16

# Edges on each side of a source vertex tested before all the others.  On
# the landuse benchmark's wavy rings (seed 1), the 32 ring edges around a
# vertex block 85% of the blocked pairs, which halves the kernel's time there.
NEAR_EDGES = 16


def build_scene(geom: Geometry) -> Scene:
    """Flatten rings into (vertices, provenance, boundary edge index pairs).

    Closing points are dropped; every ring must be explicitly closed.
    """
    if geom.kind not in ("polygon", "multipolygon"):
        raise ValueError(f"visibility needs areal geometry, got {geom.kind}")
    rings = geom.rings()
    if not rings:
        raise ValueError("geometry has no rings")
    vertices: list[tuple[float, float]] = []
    provenance: list[tuple[int, int]] = []
    edges: list[tuple[int, int]] = []
    for ridx, ring in enumerate(rings):
        if len(ring) < 4 or ring[0] != ring[-1]:
            raise ValueError(f"ring {ridx} is not closed (or has fewer than 3 distinct points)")
        pts = ring[:-1]
        base = len(vertices)
        for pos, p in enumerate(pts):
            vertices.append(p)
            provenance.append((ridx, pos))
        n = len(pts)
        for i in range(n):
            edges.append((base + i, base + (i + 1) % n))
    return vertices, provenance, edges


def proper_crossing(
    px: float, py: float, qx: float, qy: float,
    ax: float, ay: float, bx: float, by: float,
) -> bool:
    """True when open segments pq and ab cross at an interior point of both.

    Collinear overlap and endpoint contact are not proper crossings, which is
    what makes grazing contact count as visible.
    """
    o1 = (qx - px) * (ay - py) - (qy - py) * (ax - px)
    o2 = (qx - px) * (by - py) - (qy - py) * (bx - px)
    if o1 * o2 >= 0.0:
        return False
    o3 = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
    o4 = (bx - ax) * (qy - ay) - (by - ay) * (qx - ax)
    return o3 * o4 < 0.0


def _candidate_pairs(scene: Scene) -> list[tuple[int, int]]:
    vertices, _, edges = scene
    adjacent = {(min(i, j), max(i, j)) for i, j in edges}
    n = len(vertices)
    return [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in adjacent]


def _assemble(scene: Scene, visible: list[tuple[int, int]]) -> VisibilityGraph:
    vertices, provenance, edges = scene
    labelled = [(min(i, j), max(i, j), EDGE_BOUNDARY) for i, j in edges]
    labelled.extend((i, j, EDGE_VISIBLE) for i, j in visible)
    return VisibilityGraph(vertices=tuple(provenance), edges=tuple(labelled))


def visibility_edges_brute(geom: Geometry) -> VisibilityGraph:
    """Reference implementation: every pair against every boundary edge."""
    scene = build_scene(geom)
    vertices, _, edges = scene
    visible = []
    for i, j in _candidate_pairs(scene):
        px, py = vertices[i]
        qx, qy = vertices[j]
        blocked = False
        for a, b in edges:
            ax, ay = vertices[a]
            bx, by = vertices[b]
            if proper_crossing(px, py, qx, qy, ax, ay, bx, by):
                blocked = True
                break
        if not blocked:
            visible.append((i, j))
    return _assemble(scene, visible)


def visibility_edges(geom: Geometry) -> VisibilityGraph:
    """Vectorised visibility graph; identical output to the brute pass.

    ``side[k, e]`` is ``proper_crossing``'s ``o3``/``o4`` for vertex k and
    edge e.  Each source vertex i tests its candidates j > i in row blocks of
    at most ``BLOCK_ELEMENTS`` cells, forming ``o1``/``o2`` with the same
    float64 expressions in the same operand order, so every sign equals the
    scalar test's, with no epsilon.  In larger scenes the edges of i's ring
    nearest i go first, and only the pairs they leave unblocked meet the rest.
    ``side`` and the adjacency mask grow as n², like the graph itself.
    """
    scene = build_scene(geom)
    vertices, provenance, edges = scene
    n, m = len(vertices), len(edges)
    x, y = np.asarray(vertices, dtype=np.float64).T
    a, b = np.asarray(edges).T
    ax, ay, bx, by = x[a], y[a], x[b], y[b]
    side = (bx - ax) * (y[:, None] - ay) - (by - ay) * (x[:, None] - ax)
    adjacent = np.zeros((n, n), dtype=bool)
    adjacent[a, b] = adjacent[b, a] = True
    # build_scene numbers ring edges by their first vertex (edge k runs from
    # vertex k), so the edges nearest i on its ring are one slice.
    ring = np.array([r for r, _ in provenance])
    ring_lo, ring_hi = np.searchsorted(ring, ring), np.searchsorted(ring, ring, "right")
    rows = max(1, BLOCK_ELEMENTS // m)
    visible = []
    for i in range(n - 1):
        px, py = x[i], y[i]
        dax, day, dbx, dby = ax - px, ay - py, bx - px, by - py
        near = slice(max(ring_lo[i], i - NEAR_EDGES), min(ring_hi[i], i + NEAR_EDGES))
        passes = (near, slice(None)) if m > 2 * NEAR_EDGES else (slice(None),)
        candidates = i + 1 + np.flatnonzero(~adjacent[i, i + 1:])
        for k in range(0, len(candidates), rows):
            j = candidates[k:k + rows]
            for cols in passes:
                dqx, dqy = (x[j] - px)[:, None], (y[j] - py)[:, None]
                o1 = dqx * day[cols] - dqy * dax[cols]
                o2 = dqx * dby[cols] - dqy * dbx[cols]
                j = j[~((o1 * o2 < 0.0) & (side[i, cols] * side[j, cols] < 0.0)).any(axis=1)]
            visible.extend((i, q) for q in j.tolist())
    return _assemble(scene, visible)
