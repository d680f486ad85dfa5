"""Web-Mercator tile grid math and the local metric frame used inside tiles.

Tiles are addressed with standard XYZ slippy-map indices (x east, y south,
zoom doubling per level).  All per-tile geometry is expressed in a local
equirectangular frame anchored at the tile's southwest corner and scaled to
metres, then normalised by the tile's north-south ground extent so that tile
content lives in (approximately) the unit square.
"""

from __future__ import annotations

import math
import re
from typing import Final, NamedTuple

EARTH_RADIUS_M: Final = 6378137.0
METERS_PER_DEGREE: Final = EARTH_RADIUS_M * math.pi / 180.0
# Latitude where the square Mercator world map ends.
MAX_LATITUDE: Final = math.degrees(math.atan(math.sinh(math.pi)))

DEFAULT_ZOOM: Final = 16

_TILE_ID_RE = re.compile(r"^(\d+)_(\d+)_(\d+)$")


class TileId(NamedTuple):
    zoom: int
    x: int
    y: int

    @property
    def key(self) -> str:
        return f"{self.zoom}_{self.x}_{self.y}"

    @classmethod
    def parse(cls, text: str) -> "TileId":
        m = _TILE_ID_RE.match(text)
        if m is None:
            raise ValueError(f"malformed tile id {text!r}, expected zoom_x_y")
        tid = cls(int(m.group(1)), int(m.group(2)), int(m.group(3)))
        n = 1 << tid.zoom
        if not (0 <= tid.x < n and 0 <= tid.y < n):
            raise ValueError(f"tile id {text!r} out of range for zoom {tid.zoom}")
        return tid


class Bounds(NamedTuple):
    """Geographic tile bounds in degrees."""

    west: float
    south: float
    east: float
    north: float


def _tile_lon(x: float, zoom: int) -> float:
    return x / (1 << zoom) * 360.0 - 180.0


def _tile_lat(y: float, zoom: int) -> float:
    t = math.pi * (1.0 - 2.0 * y / (1 << zoom))
    return math.degrees(math.atan(math.sinh(t)))


def tile_bounds(tid: TileId) -> Bounds:
    """Geographic bounds of a tile; y grows southward, so row y's north edge
    is at _tile_lat(y) and its south edge at _tile_lat(y + 1)."""
    return Bounds(
        west=_tile_lon(tid.x, tid.zoom),
        south=_tile_lat(tid.y + 1, tid.zoom),
        east=_tile_lon(tid.x + 1, tid.zoom),
        north=_tile_lat(tid.y, tid.zoom),
    )


def tile_origin(tid: TileId) -> tuple[float, float]:
    """Southwest corner (lon, lat) used as the local frame origin."""
    b = tile_bounds(tid)
    return (b.west, b.south)


def tile_extent_m(tid: TileId) -> float:
    """North-south ground size of the tile in metres.

    This is the normalisation constant for the tile's local frame.  East-west
    ground size differs slightly (the grid is square in Mercator metres, not
    ground metres), which is why normalised x may exceed 1 by <1% at
    mid-latitudes.
    """
    b = tile_bounds(tid)
    return (b.north - b.south) * METERS_PER_DEGREE


def tile_fraction(lon: float, lat: float, zoom: int) -> tuple[float, float]:
    """Fractional (x, y) grid position of a point, latitude clamped to the Mercator cap."""
    n = 1 << zoom
    lat = min(max(lat, -MAX_LATITUDE), MAX_LATITUDE)
    return (lon + 180.0) / 360.0 * n, (1.0 - math.asinh(math.tan(math.radians(lat))) / math.pi) / 2.0 * n


def tile_index(lon: float, lat: float, zoom: int = DEFAULT_ZOOM) -> TileId:
    """Tile containing a geographic point.

    Latitude is clamped to the Mercator cap; points exactly on the east/south
    edge of the world grid are pulled into the last row/column.
    """
    n = 1 << zoom
    x, y = tile_fraction(lon, lat, zoom)
    return TileId(zoom, min(max(math.floor(x), 0), n - 1), min(max(math.floor(y), 0), n - 1))


def points_to_norm(points, origin: tuple[float, float], extent_m: float) -> list[tuple[float, float]]:
    """Each geographic (lon, lat) of points in normalised tile coordinates, in one pass.

    Equirectangular about the origin latitude (x east, y north, metres),
    then divided by the tile extent, so (0, 0) is the SW corner.
    """
    if extent_m <= 0:
        raise ValueError(f"extent must be positive, got {extent_m}")
    olon, olat = origin
    cos_olat = math.cos(math.radians(olat))
    return [
        ((lon - olon) * cos_olat * METERS_PER_DEGREE / extent_m, (lat - olat) * METERS_PER_DEGREE / extent_m)
        for lon, lat in points
    ]


def geo_to_norm(lon: float, lat: float, origin: tuple[float, float], extent_m: float) -> tuple[float, float]:
    """One geographic point in normalised tile coordinates (points_to_norm of one)."""
    return points_to_norm(((lon, lat),), origin, extent_m)[0]
