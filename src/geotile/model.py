"""Domain types shared across the pipeline.

Coordinates are stored as plain nested tuples of floats so that values
survive serialisation round trips exactly; algorithms convert to numpy
arrays at their boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Literal, Sequence

from .geo import TileId

Coord = tuple[float, float]
Ring = tuple[Coord, ...]          # closed: first == last, >= 4 stored points
Polygon = tuple[Ring, ...]        # outer ring first, then holes

GeometryKind = Literal["point", "polyline", "polygon", "multipolygon"]

EDGE_BOUNDARY = "bnd"
EDGE_VISIBLE = "vis"


def tag_key(key: str, value: str) -> str:
    """The canonical ``key=value`` string of one tag."""
    return f"{key}={value}"


def _as_coord(p: Sequence[float]) -> Coord:
    return (float(p[0]), float(p[1]))


def _as_ring(ring: Sequence[Sequence[float]]) -> Ring:
    return tuple(_as_coord(p) for p in ring)


# Nesting depth of Geometry.coords by kind: 0 is one point, 1 a point list.
_DEPTH = {"point": 0, "polyline": 1, "polygon": 2, "multipolygon": 3}


@dataclass(frozen=True)
class Geometry:
    """One of point / polyline / polygon / multipolygon.

    coords nesting by kind:
      point         (x, y)
      polyline      ((x, y), ...)            >= 2 points
      polygon       (ring, ...)              rings closed, outer first
      multipolygon  (polygon, ...)

    Every stored ring repeats its first point last.  iter_points yields that
    repeat too; geometry_min_box leaves it to the convex hull, which drops
    repeated points.
    """

    kind: GeometryKind
    coords: tuple

    @staticmethod
    def point(p: Sequence[float]) -> "Geometry":
        return Geometry("point", _as_coord(p))

    @staticmethod
    def polyline(points: Sequence[Sequence[float]]) -> "Geometry":
        pts = tuple(_as_coord(p) for p in points)
        if len(pts) < 2:
            raise ValueError("polyline needs at least 2 points")
        return Geometry("polyline", pts)

    @staticmethod
    def polygon(rings: Sequence[Sequence[Sequence[float]]]) -> "Geometry":
        return Geometry("polygon", _validated_polygon(rings))

    @staticmethod
    def multipolygon(polygons: Sequence) -> "Geometry":
        if not polygons:
            raise ValueError("multipolygon needs at least one polygon")
        return Geometry("multipolygon", tuple(_validated_polygon(p) for p in polygons))

    def map(self, fn: Callable, depth: int = 0) -> "Geometry":
        """The same kind with fn applied to every point (depth 0) or to every
        polyline and ring (depth 1); a point has no depth-1 part and is
        returned as is.  The result is not validated.
        """
        def walk(value, level):
            if level == depth:
                return fn(value)
            return tuple(walk(v, level - 1) for v in value)

        if _DEPTH[self.kind] < depth:
            return self
        return Geometry(self.kind, walk(self.coords, _DEPTH[self.kind]))

    def rings(self) -> tuple[Ring, ...]:
        """All rings regardless of polygon membership (empty for non-areal kinds)."""
        if self.kind == "polygon":
            return self.coords
        if self.kind == "multipolygon":
            return tuple(r for poly in self.coords for r in poly)
        return ()

    def iter_points(self) -> Iterator[Coord]:
        """Every stored point, ring-closing repeats included."""
        if self.kind == "point":
            yield self.coords
        elif self.kind == "polyline":
            yield from self.coords
        else:
            for ring in self.rings():
                yield from ring


def _validated_polygon(rings: Sequence) -> Polygon:
    if not rings:
        raise ValueError("polygon needs at least one ring")
    out = []
    for ring in rings:
        r = _as_ring(ring)
        if len(r) < 4 or r[0] != r[-1]:
            raise ValueError("ring must be closed with at least 4 stored points")
        out.append(r)
    return tuple(out)


@dataclass(frozen=True)
class MinBox:
    """Oriented rectangle as 4 corners in counter-clockwise winding."""

    corners: tuple[Coord, Coord, Coord, Coord]

    def flat(self) -> tuple[float, ...]:
        return tuple(v for c in self.corners for v in c)


@dataclass(frozen=True)
class VisibilityGraph:
    """Vertex provenance plus labelled edges over a multipolygon's rings.

    vertices[i] is (ring_index, position_in_ring); edges carry "bnd" for ring
    adjacency and "vis" for unobstructed non-adjacent pairs.  Cross-ring vs
    same-ring visibility can be recovered from the provenance.
    """

    vertices: tuple[tuple[int, int], ...]
    edges: tuple[tuple[int, int, str], ...]

    def cross_ring_edges(self) -> tuple[tuple[int, int, str], ...]:
        return tuple(
            (i, j, kind)
            for i, j, kind in self.edges
            if kind == EDGE_VISIBLE and self.vertices[i][0] != self.vertices[j][0]
        )


@dataclass(frozen=True)
class Entity:
    """A tagged map feature inside one tile."""

    id: int
    kind: Literal["node", "way", "relation"]
    tags: tuple[tuple[str, str], ...]
    geometry: Geometry
    minbox: MinBox | None = None
    visgraph: VisibilityGraph | None = None


@dataclass(frozen=True)
class Tile:
    """One map tile: identity, local frame parameters and its entities."""

    id: TileId
    origin: tuple[float, float]
    extent_m: float
    entities: tuple[Entity, ...] = field(default_factory=tuple)

    def with_entities(self, entities: Sequence[Entity]) -> "Tile":
        return replace(self, entities=tuple(entities))

