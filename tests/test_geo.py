import math

import numpy as np
import pytest

from geotile.geo import (
    DEFAULT_ZOOM,
    MAX_LATITUDE,
    METERS_PER_DEGREE,
    TileId,
    geo_to_norm,
    points_to_norm,
    tile_bounds,
    tile_extent_m,
    tile_index,
    tile_origin,
)


def test_tile_id_key_round_trip():
    t = TileId(16, 18052, 25957)
    assert t.key == "16_18052_25957"
    assert TileId.parse("16_18052_25957") == t


def test_tile_id_parse_rejects_garbage():
    for bad in ("16_18052", "16_18052_25957_9", "a_b_c", "16_-1_0", "", "16_70000_0"):
        with pytest.raises(ValueError):
            TileId.parse(bad)


def test_charlotte_tile_bounds():
    # Reference tile in Charlotte, NC; corner values frozen from the web
    # mercator formulas evaluated by hand.
    b = tile_bounds(TileId(16, 18052, 25957))
    assert b.west == -80.83740234375
    assert b.east == -80.8319091796875
    assert b.north == 35.007502842952896
    assert b.south == 35.00300339527671


def test_bounds_nested_in_parent_tile():
    child = tile_bounds(TileId(16, 18052, 25957))
    parent = tile_bounds(TileId(15, 18052 // 2, 25957 // 2))
    assert parent.west <= child.west < child.east <= parent.east
    assert parent.south <= child.south < child.north <= parent.north


def test_tile_index_inverts_bounds_center():
    rng = np.random.default_rng(20)
    for _ in range(300):
        x = int(rng.integers(0, 2**16))
        y = int(rng.integers(0, 2**16))
        t = TileId(16, x, y)
        b = tile_bounds(t)
        lon = (b.west + b.east) / 2
        lat = (b.south + b.north) / 2
        assert tile_index(lon, lat, 16) == t


def test_tile_index_clamps_poles_and_antimeridian():
    assert tile_index(0.0, 89.9, 16).y == 0
    assert tile_index(0.0, -89.9, 16).y == 2**16 - 1
    assert tile_index(180.0, 0.0, 16).x == 2**16 - 1
    north = tile_index(0.0, MAX_LATITUDE, 16)
    assert north.y == 0


def test_y_grows_southward():
    lat_hi = tile_bounds(TileId(16, 0, 100)).north
    lat_lo = tile_bounds(TileId(16, 0, 200)).north
    assert lat_hi > lat_lo


def test_extent_is_north_south_ground_size():
    t = TileId(16, 18052, 25957)
    b = tile_bounds(t)
    assert tile_extent_m(t) == (b.north - b.south) * METERS_PER_DEGREE
    assert tile_extent_m(t) == 500.87622416429247


def test_extent_near_300m_at_equator_zoom_17():
    # The nominal tile size talked about for mid-latitude z17 tiles is
    # around 300 m; equatorial z17 tiles run a bit larger.
    t = tile_index(0.0, 0.0, 17)
    assert 250 < tile_extent_m(t) < 350


def test_points_to_norm_origin_is_zero():
    origin = (-80.8374, 35.003)
    assert points_to_norm([origin, origin], origin, 611.5) == [(0.0, 0.0), (0.0, 0.0)]


def test_points_to_norm_shrinks_east_west_with_latitude():
    dlon = 0.01
    (x_equator, _), = points_to_norm([(dlon, 0.0)], (0.0, 0.0), 1.0)
    (x_north, _), = points_to_norm([(dlon, 60.0)], (0.0, 60.0), 1.0)
    assert x_north == pytest.approx(x_equator * math.cos(math.radians(60.0)), rel=1e-12)
    assert x_equator == pytest.approx(dlon * METERS_PER_DEGREE, rel=1e-12)


def test_normalize_unit_square_corners():
    t = TileId(16, 18052, 25957)
    b = tile_bounds(t)
    origin = tile_origin(t)
    extent = tile_extent_m(t)
    # South-west corner lands at (0, 0), the north edge at y = 1 exactly.
    assert geo_to_norm(b.west, b.south, origin, extent) == (0.0, 0.0)
    x, y = geo_to_norm(b.east, b.north, origin, extent)
    assert y == pytest.approx(1.0, abs=1e-12)
    # The east edge overshoots 1 slightly because the equirectangular x
    # uses the origin latitude; the overshoot stays under one percent.
    assert 1.0 < x < 1.01


def test_normalized_coordinates_within_tolerance_band():
    rng = np.random.default_rng(77)
    for _ in range(200):
        x = int(rng.integers(0, 2**16))
        y = int(rng.integers(0, 2**16))
        t = TileId(DEFAULT_ZOOM, x, y)
        b = tile_bounds(t)
        origin = tile_origin(t)
        extent = tile_extent_m(t)
        lon = rng.uniform(b.west, b.east)
        lat = rng.uniform(b.south, b.north)
        nx, ny = geo_to_norm(lon, lat, origin, extent)
        assert -0.01 <= nx <= 1.01
        assert -0.01 <= ny <= 1.01


def test_points_to_norm_rejects_degenerate_extent():
    for extent in (0.0, -1.0):
        with pytest.raises(ValueError, match="extent must be positive"):
            points_to_norm([(1.0, 1.0)], (0.0, 0.0), extent)
        with pytest.raises(ValueError, match="extent must be positive"):
            geo_to_norm(1.0, 1.0, (0.0, 0.0), extent)
