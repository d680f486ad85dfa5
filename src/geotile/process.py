"""Per-tile enrichment: simplification, oriented boxes, visibility graphs.

Runs after ingest and before any task synthesis or tokenisation.  The stage
is idempotent: simplifying an already-simplified geometry keeps every point,
and box/graph computation depends only on the geometry and the derived seed.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial

from .geometry import douglas_peucker, geometry_min_box
from .model import Entity, Geometry, Tile
from .seeds import rng_for
from .visibility import visibility_edges

# 0.5 m at the nominal 300 m extent.
DEFAULT_EPS_M = 0.5


def simplify_geometry(geom: Geometry, eps: float) -> Geometry:
    """Douglas-Peucker every polyline and ring; rings stay closed.

    A ring that would collapse below 3 distinct points is kept unsimplified.
    """
    if geom.kind == "point" or eps <= 0.0:
        return geom
    min_len = 2 if geom.kind == "polyline" else 4

    def simplify(line):
        slim = douglas_peucker(line, eps)
        return slim if len(slim) >= min_len else line

    return Geometry.of(geom.kind, geom.map(simplify).coords)


def process_entity(entity: Entity, tile: Tile, eps_norm: float, seed: int) -> Entity:
    geom = simplify_geometry(entity.geometry, eps_norm)
    rng = partial(rng_for, seed, "minbox", tile.id.key, entity.id)
    minbox = geometry_min_box(geom, rng=rng)
    visgraph = visibility_edges(geom) if geom.kind == "multipolygon" else None
    return replace(entity, geometry=geom, minbox=minbox, visgraph=visgraph)


def process_tile(tile: Tile, eps_m: float = DEFAULT_EPS_M, seed: int = 0) -> Tile:
    """Simplify, box and graph every entity of one tile.

    eps_m is a ground tolerance in metres, converted to the tile's
    normalised units through its extent.
    """
    eps_norm = eps_m / tile.extent_m
    return tile.with_entities(
        process_entity(e, tile, eps_norm, seed) for e in tile.entities
    )
