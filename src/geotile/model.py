"""Domain types shared across the pipeline.

Coordinates are stored as plain nested tuples of floats so that values
survive serialisation round trips exactly; algorithms convert to numpy
arrays at their boundaries.

The geometry schema lives here too.  Geometry.of checks the nesting by
kind, the minimum list lengths, closed rings and finite numbers; the four
kind constructors, the TEF decoder and process all build through it, and
its GeometryError names the place below coords that fails.  Geometry.map
applies one function to every polyline and ring, which is how ingest
projects a geometry into its tile and process simplifies it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Literal, Sequence

from .geo import TileId

Coord = tuple[float, float]
Ring = tuple[Coord, ...]          # closed: first == last, >= 4 stored points

GeometryKind = Literal["point", "polyline", "polygon", "multipolygon"]

EDGE_BOUNDARY = "bnd"
EDGE_VISIBLE = "vis"


def tag_key(key: str, value: str) -> str:
    """The canonical ``key=value`` string of one tag."""
    return f"{key}={value}"


class GeometryError(ValueError):
    """Coordinates that break the geometry schema at where, the place below coords such as ``[1][0]``."""

    def __init__(self, where: str, message: str):
        super().__init__(f"coords{where}: {message}")
        self.where = where
        self.message = message


def number(value, where: str = "") -> float:
    """value as a finite float; a bool, a non-number or an overflow raises GeometryError at where."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise GeometryError(where, f"expected number, got {type(value).__name__}")
    try:
        out = float(value)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):  # a literal such as 1e999 reads as inf
        raise GeometryError(where, "number out of float range")
    return out


def _pair(value) -> Coord | None:
    """(x, y) for a list or tuple of two finite floats, else None; builds no error path."""
    if (type(value) is tuple or type(value) is list) and len(value) == 2:
        x, y = value
        # x - x is 0.0 for a finite x and nan for inf or nan.
        if type(x) is float and type(y) is float and x - x == y - y:
            return (x, y)
    return None


def coord(value, where: str = "") -> Coord:
    """(x, y) of finite floats from a list or tuple of two numbers, else GeometryError at where."""
    pair = _pair(value)
    if pair is not None:
        return pair
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise GeometryError(where, "expected [x, y]")
    return (number(value[0], where + "[0]"), number(value[1], where + "[1]"))


_POLYGON = (1, "polygon needs at least one ring")
_RING = (4, "ring must be a closed list of at least 4 points")

# The lists of coords by kind, outermost first, as (least length, message when shorter).
_LISTS = {
    "point": (),
    "polyline": ((2, "polyline needs at least 2 points"),),
    "polygon": (_POLYGON, _RING),
    "multipolygon": ((1, "multipolygon needs at least one polygon"), _POLYGON, _RING),
}

def _checked(value, lists: tuple, where: str) -> tuple:
    """value as nested tuples of floats, each list checked against lists."""
    if not lists:
        return coord(value, where)
    least, message = lists[0]
    if not isinstance(value, (list, tuple)) or len(value) < least:
        raise GeometryError(where, message)
    if len(lists) > 1:
        out = tuple(_checked(v, lists[1:], f"{where}[{i}]") for i, v in enumerate(value))
    else:  # the path strings are built only for a list with a point that fails _pair
        out = tuple(map(_pair, value))
        if not all(out):
            out = tuple(_pair(p) or coord(p, f"{where}[{i}]") for i, p in enumerate(value))
    if lists[0] is _RING and out[0] != out[-1]:
        raise GeometryError(where, "ring is not closed")
    return out


@dataclass(frozen=True)
class Geometry:
    """One of point / polyline / polygon / multipolygon.

    coords nesting by kind, as Geometry.of checks it:
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
    def of(kind: GeometryKind, coords) -> "Geometry":
        """kind's geometry from coords checked by the schema, as nested float tuples."""
        return Geometry(kind, _checked(coords, _LISTS[kind], ""))

    @staticmethod
    def point(p: Sequence[float]) -> "Geometry":
        return Geometry.of("point", p)

    @staticmethod
    def polyline(points: Sequence[Sequence[float]]) -> "Geometry":
        return Geometry.of("polyline", points)

    @staticmethod
    def polygon(rings: Sequence[Sequence[Sequence[float]]]) -> "Geometry":
        return Geometry.of("polygon", rings)

    @staticmethod
    def multipolygon(polygons: Sequence) -> "Geometry":
        return Geometry.of("multipolygon", polygons)

    def map(self, fn: Callable) -> "Geometry":
        """The same kind with fn applied to every polyline and ring; a point
        is returned as is.  The result is not validated."""
        if self.kind == "polyline":
            return Geometry(self.kind, fn(self.coords))
        if self.kind == "polygon":
            return Geometry(self.kind, tuple(map(fn, self.coords)))
        if self.kind == "multipolygon":
            return Geometry(self.kind, tuple(tuple(map(fn, poly)) for poly in self.coords))
        return self

    def rings(self) -> tuple[Ring, ...]:
        """All rings regardless of polygon membership (empty for non-areal kinds)."""
        if self.kind == "polygon":
            return self.coords
        if self.kind == "multipolygon":
            return tuple(r for poly in self.coords for r in poly)
        return ()

    def ring_vertices(self) -> tuple[tuple[int, int], ...]:
        """(ring index, position in ring) of every ring point but each
        closing repeat, ring by ring: the vertex numbering of VisibilityGraph."""
        return tuple((r, i) for r, ring in enumerate(self.rings()) for i in range(len(ring) - 1))

    def ring_edges(self) -> tuple[tuple[int, int], ...]:
        """(k, the vertex after k on its ring) for every vertex k numbered by
        ring_vertices; the last vertex of a ring joins its first.  These are
        the boundary edges of VisibilityGraph."""
        edges: list[tuple[int, int]] = []
        for ring in self.rings():
            k, m = len(edges), len(ring) - 1
            edges.extend(zip(range(k, k + m), [*range(k + 1, k + m), k]))
        return tuple(edges)

    def iter_points(self) -> Iterator[Coord]:
        """Every stored point, ring-closing repeats included."""
        if self.kind == "point":
            yield self.coords
        elif self.kind == "polyline":
            yield from self.coords
        else:
            for ring in self.rings():
                yield from ring


@dataclass(frozen=True)
class MinBox:
    """Oriented rectangle as 4 corners in counter-clockwise winding."""

    corners: tuple[Coord, Coord, Coord, Coord]

    def flat(self) -> tuple[float, ...]:
        return tuple(v for c in self.corners for v in c)


@dataclass(frozen=True)
class VisibilityGraph:
    """Vertex provenance plus labelled edges over a multipolygon's rings.

    vertices[i] is (ring_index, position_in_ring), numbered by
    Geometry.ring_vertices; edges carry "bnd" for ring adjacency
    (Geometry.ring_edges) and "vis" for unobstructed non-adjacent pairs.
    Cross-ring vs same-ring visibility can be recovered from the provenance.
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

