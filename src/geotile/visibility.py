"""Visibility graphs over the boundary vertices of areal geometry.

Vertices are the distinct ring points of a polygon or multipolygon.  Two
non-adjacent vertices see each other when the open segment between them
properly crosses no boundary edge; touching an edge at a shared endpoint or
grazing a vertex does not block visibility.  Same-ring and cross-ring pairs
both participate, and ring provenance is kept so either subset can be
selected afterwards.

``visibility_edges`` is a numpy pair-list kernel whose graph equals that of
the scalar oracle ``visibility_edges_brute`` edge for edge.
"""

from __future__ import annotations

import numpy as np

from .model import EDGE_BOUNDARY, EDGE_VISIBLE, Geometry, VisibilityGraph

Scene = tuple[list[tuple[float, float]], list[tuple[int, int]], list[tuple[int, int]]]

# Cells per pair-mask row block and per full-pass block: 128 KB a temporary.
BLOCK_ELEMENTS = 1 << 14

# Ring edges each pair meets first, as offsets along the ring from each end.
# On the landuse benchmark's 497-vertex ring (seed 1), the edges at ring
# distance 1 (+1, -2) block 74% of the blocked pairs, and those up to 8 98.4%.
RING_OFFSETS = (1, -2, 2, -3, 3, -4, 4, -5, 5, -6, 6, -7, 7, -8, 8, -9)
# Smaller scenes skip that pass, which costs them more than it saves.
PREFILTER_MIN_VERTICES = 80


def build_scene(geom: Geometry) -> Scene:
    """Flatten rings into (vertices, provenance, boundary edge index pairs).

    Closing points are dropped; every ring must be explicitly closed.
    """
    if geom.kind not in ("polygon", "multipolygon"):
        raise ValueError(f"visibility needs areal geometry, got {geom.kind}")
    rings = geom.rings()
    if not rings:
        raise ValueError("geometry has no rings")
    for ridx, ring in enumerate(rings):
        if len(ring) < 4 or ring[0] != ring[-1]:
            raise ValueError(f"ring {ridx} is not closed (or has fewer than 3 distinct points)")
    provenance = list(geom.ring_vertices())
    vertices = [rings[r][i] for r, i in provenance]
    return vertices, provenance, list(geom.ring_edges())


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

    Pairs i < j come from row blocks of the upper-triangle mask; in larger
    scenes each first meets the ring edges at ``RING_OFFSETS`` from i and j.
    The rest meet every edge through one orientation row ``o`` per pair:
    edge k runs from vertex k to b[k], so ``o1 = o[k]`` and ``o2 = o[b[k]]``.
    Each test is ``proper_crossing``'s float64 expression, p the lower index.
    """
    vertices, provenance, edges = scene = build_scene(geom)
    n = len(vertices)
    x, y = np.asarray(vertices, dtype=np.float64).T
    b = np.asarray(edges)[:, 1]
    side = (x[b] - x) * (y[:, None] - y) - (y[b] - y) * (x[:, None] - x)
    pairs = np.triu(np.ones((n, n), dtype=bool), 1)
    pairs[np.arange(n), b] = pairs[b, np.arange(n)] = False
    ring, pos = np.array(provenance).T
    near = np.arange(n) - pos + np.add.outer(RING_OFFSETS, pos) % np.bincount(ring)[ring]
    rows = max(1, BLOCK_ELEMENTS // n)
    visible = []
    for r in range(0, n, rows):
        i, j = np.nonzero(pairs[r:r + rows])
        i += r
        for col in near if n >= PREFILTER_MIN_VERTICES else ():
            for end in (0, 1):
                e = col[(i, j)[end]]
                px, py = x[i], y[i]
                dqx, dqy = x[j] - px, y[j] - py
                o1 = dqx * (y[e] - py) - dqy * (x[e] - px)
                o2 = dqx * (y[b[e]] - py) - dqy * (x[b[e]] - px)
                keep = ~((o1 * o2 < 0.0) & (side[i, e] * side[j, e] < 0.0))
                i, j = i[keep], j[keep]
        for c in range(0, len(i), rows):
            p, q = i[c:c + rows], j[c:c + rows]
            px, py = x[p][:, None], y[p][:, None]
            dqx, dqy = x[q][:, None] - px, y[q][:, None] - py
            o = dqx * (y - py) - dqy * (x - px)
            keep = ~((o * o[:, b] < 0.0) & (side[p] * side[q] < 0.0)).any(axis=1)
            visible.extend(zip(p[keep].tolist(), q[keep].tolist()))
    return _assemble(scene, visible)
