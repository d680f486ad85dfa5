"""Seeded map extracts for the benchmark workloads, with their own ground truth.

Every corpus starts from ``tests/conftest.grid_elements`` (six entities strictly
inside each tile of a block) and adds what that grid lacks: multipolygon
relations stitched from several member ways, ways that cross tile edges or
leave the grid, ``mph`` and unparseable ``maxspeed`` values, and ways whose
node references do not resolve.

The generator keeps per-tile ground truth for the entities it places strictly
inside a tile (building, traffic-signal and bridge counts, and the largest
parseable speed), computed from what it wrote rather than through
``geotile.tasks``.  Entities that cross tile edges carry no tag any bundled
task counts, so the truth stays exact after clipping.
"""

from __future__ import annotations

import importlib.util
import json
import math
import os
import random
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from geotile import geo, pbf, tokens

ZOOM = 16
EMBED_DIM = 64


@dataclass(frozen=True)
class Traffic:
    """Shares of the defects real extracts carry.

    An extract cut at a bounding box keeps ways that cross the box but loses
    their nodes outside it, and relations lose members outside it; mappers
    write free text into maxspeed.  The ASSUMED shares are assumptions, not
    measurements of a real extract.  They are kept in every workload: each
    dropped way costs pbf one log line, which is part of the measured work.
    CLEAN has none of them; the traced run reads a CLEAN extract of the same
    corpus beside the real one, so their cost shows as the ratio.
    """

    unresolved_way: float  # share of ways, each crossing the block edge
    bad_maxspeed: float  # share of the grid's maxspeed values
    dangling_member: float  # share of relations


ASSUMED = Traffic(unresolved_way=0.02, bad_maxspeed=0.05, dangling_member=0.03)
CLEAN = Traffic(unresolved_way=0.0, bad_maxspeed=0.0, dangling_member=0.0)
BAD_MAXSPEED_VALUES = ("none", "signals", "walk", "RU:urban", "DE:zone30", "30;50")

CROSSING_TAGS = (
    (("highway", "footway"),),
    (("waterway", "stream"),),
    (("power", "line"),),
    (("highway", "service"), ("service", "alley")),
)

# Point-of-interest tags for train-feed tiles, most common first; none of them
# is counted by a bundled task.
POI_TAGS = (
    ("amenity", "restaurant"), ("shop", "convenience"), ("amenity", "bench"),
    ("amenity", "parking"), ("shop", "clothes"), ("amenity", "pharmacy"),
    ("tourism", "hotel"), ("amenity", "bank"), ("shop", "supermarket"),
    ("leisure", "playground"), ("amenity", "school"), ("shop", "hairdresser"),
    ("amenity", "fuel"), ("amenity", "post_box"), ("shop", "bicycle"),
    ("amenity", "library"), ("tourism", "museum"), ("shop", "books"),
    ("amenity", "dentist"), ("craft", "carpenter"), ("amenity", "toilets"),
    ("shop", "florist"), ("amenity", "theatre"), ("office", "company"),
    ("amenity", "kindergarten"), ("shop", "bakery"), ("amenity", "cafe"),
    ("historic", "memorial"), ("shop", "optician"), ("amenity", "atm"),
)


def _load_grid_elements():
    here = os.path.dirname(os.path.abspath(__file__))
    path = os.path.join(os.path.dirname(here), "tests", "conftest.py")
    spec = importlib.util.spec_from_file_location("geotile_tests_conftest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.grid_elements


@dataclass
class Corpus:
    nodes: list = field(default_factory=list)
    ways: list = field(default_factory=list)
    relations: list = field(default_factory=list)
    truth: dict = field(default_factory=dict)  # tile key -> {task: label or None}

    def tag_counts(self) -> Counter:
        counts: Counter = Counter()
        for element in (*self.nodes, *self.ways, *self.relations):
            counts.update(tokens.tag_key(k, v) for k, v in element.tags)
        return counts


class _Elements:
    """Element factory with three generators.

    ``rng`` follows the seed: positions, angles, vertex noise.  ``layout`` is
    the same for every seed and draws how many of each feature a tile gets,
    so the work per run does not swing with the seed.  ``defects`` follows
    the seed too and draws only the traffic defects, so a CLEAN corpus is the
    ASSUMED one without them.
    """

    def __init__(self, workload: str, seed: int, traffic: Traffic):
        self.rng = random.Random(f"{workload}:{seed}")
        self.layout = random.Random(f"{workload}-layout")
        self.defects = random.Random(f"{workload}:{seed}:defects")
        self.traffic = traffic
        self.corpus = Corpus()
        self._next = 100_000_000
        self._missing = 99_999_999  # ids counted down from here never exist

    def new_id(self) -> int:
        self._next += 1
        return self._next

    def missing_id(self) -> int:
        self._missing -= 1
        return self._missing

    def node(self, lonlat, tags=()) -> int:
        nid = self.new_id()
        self.corpus.nodes.append(pbf.RawNode(nid, lonlat[0], lonlat[1], tuple(tags)))
        return nid

    def nodes(self, points, closed=False) -> list[int]:
        """Untagged nodes for the points; closed repeats the first reference at the end."""
        refs = [self.node(p) for p in points]
        return refs + refs[:1] if closed else refs

    def way(self, refs, tags=()) -> int:
        wid = self.new_id()
        self.corpus.ways.append(pbf.RawWay(wid, tuple(refs), tuple(tags)))
        return wid

    def relation(self, members, tags) -> int:
        if self.defects.random() < self.traffic.dangling_member:
            members = list(members) + [("way", self.missing_id(), "outer")]
        rid = self.new_id()
        self.corpus.relations.append(pbf.RawRelation(rid, tuple(members), tuple(tags)))
        return rid

    def multipolygon(self, outer, holes, tags, outer_pieces: int) -> None:
        """Outer ring split into member ways (some reversed), holes closed ways."""
        refs = self.nodes(outer, closed=True)
        cuts = sorted(self.rng.sample(range(1, len(outer)), outer_pieces - 1))
        members = []
        for lo, hi in zip([0] + cuts, cuts + [len(outer)]):
            piece = refs[lo : hi + 1]
            if self.rng.random() < 0.5:
                piece = piece[::-1]
            members.append(("way", self.way(piece), "outer"))
        for hole in holes:
            members.append(("way", self.way(self.nodes(hole, closed=True)), "inner"))
        self.relation(members, (("type", "multipolygon"),) + tuple(tags))


def _tile_frame(tid: geo.TileId):
    b = geo.tile_bounds(tid)

    def at(fx, fy):
        return (b.west + fx * (b.east - b.west), b.south + fy * (b.north - b.south))

    return at


def _block_frame(x0: int, y0: int, nx: int, ny: int):
    """Block coordinates in tile units: gx east from the west edge, gy north from the south edge."""
    nw = geo.tile_bounds(geo.TileId(ZOOM, x0, y0))
    se = geo.tile_bounds(geo.TileId(ZOOM, x0 + nx - 1, y0 + ny - 1))

    def at(gx, gy):
        return (nw.west + gx / nx * (se.east - nw.west), se.south + gy / ny * (nw.north - se.south))

    return at


def _rotated_rect(cx, cy, half_w, half_h, angle, per_side=1, jitter=0.0, rng=None):
    """Counter-clockwise ring (open) of a rotated rectangle, optionally with jittered edge points."""
    corners = [(-half_w, -half_h), (half_w, -half_h), (half_w, half_h), (-half_w, half_h)]
    pts = []
    for i in range(4):
        (ax, ay), (bx, by) = corners[i], corners[(i + 1) % 4]
        for k in range(per_side):
            t = k / per_side
            x, y = ax + t * (bx - ax), ay + t * (by - ay)
            if k and jitter:
                x += rng.uniform(-jitter, jitter)
                y += rng.uniform(-jitter, jitter)
            pts.append((x, y))
    c, s = math.cos(angle), math.sin(angle)
    return [(cx + c * x - s * y, cy + s * x + c * y) for x, y in pts]


def _wavy_ring(rng, cx, cy, radius, n, waves, noise, crowd=0.0):
    """Open counter-clockwise ring of n points around (cx, cy); waves are (frequency, amplitude, phase).

    crowd in [0, 1) packs the points towards the west side: the density there
    is (1 + crowd) / (1 - crowd) times the density on the east side.
    """
    pts = []
    for i in range(n):
        t = 2 * math.pi * i / n
        theta = t + 2 * math.atan2(crowd * math.sin(t), 1 - crowd * math.cos(t)) if crowd else t
        r = radius * (1 + sum(a * math.sin(f * theta + p) for f, a, p in waves))
        r += rng.gauss(0.0, noise)
        pts.append((cx + r * math.cos(theta), cy + r * math.sin(theta)))
    return pts


def _speed_truth(value: str):
    """km/h for a maxspeed the generator wrote, None when it wrote free text."""
    if value in BAD_MAXSPEED_VALUES:
        return None
    if value.endswith(" mph"):
        return float(value[:-4]) * 1.6
    return float(value)


def _base_grid(b: _Elements, x0: int, y0: int, nx: int, ny: int) -> None:
    """conftest.grid_elements, with a share of maxspeed values replaced by free text."""
    nodes, ways = _load_grid_elements()(x0, y0, nx, ny, ZOOM)
    b.corpus.nodes.extend(nodes)
    speed_ways = [i for i, w in enumerate(ways) if any(k == "maxspeed" for k, _ in w.tags)]
    for i in b.defects.sample(speed_ways, round(b.traffic.bad_maxspeed * len(speed_ways))):
        w = ways[i]
        tags = tuple((k, b.defects.choice(BAD_MAXSPEED_VALUES) if k == "maxspeed" else v) for k, v in w.tags)
        ways[i] = pbf.RawWay(w.id, w.refs, tags)
    b.corpus.ways.extend(ways)
    # grid_elements puts a signal, a building square, a maxspeed road and a
    # car bridge strictly inside each tile, in this order per tile.
    speeds = iter(dict(w.tags)["maxspeed"] for w in ways if any(k == "maxspeed" for k, _ in w.tags))
    for dx in range(nx):
        for dy in range(ny):
            key = geo.TileId(ZOOM, x0 + dx, y0 + dy).key
            b.corpus.truth[key] = {
                "buildings": 1, "traffic_signals": 1, "bridge": 1, "car_bridge": 1,
                "max_speed": _speed_truth(next(speeds)),
            }


def _unresolved_ways(b: _Elements, x0: int, y0: int, nx: int, ny: int) -> None:
    """Ways that leave the extract: their nodes beyond the block edge are missing.

    The block is the extract's bounding box, so pbf must drop each of them.
    """
    at = _block_frame(x0, y0, nx, ny)
    rng = b.defects
    for _ in range(round(b.traffic.unresolved_way * len(b.corpus.ways))):
        gx, gy = rng.uniform(0.0, nx), rng.uniform(0.0, ny)
        # Head for the nearest block edge and walk two steps past it.
        to_edge = {(-1, 0): gx, (1, 0): nx - gx, (0, -1): gy, (0, 1): ny - gy}
        dx, dy = min(to_edge, key=to_edge.get)
        refs, outside = [], 0
        while outside < 2:
            inside = 0.0 <= gx <= nx and 0.0 <= gy <= ny
            refs.append(b.node(at(gx, gy)) if inside else b.missing_id())
            outside += not inside
            step = rng.uniform(0.1, 0.3)
            gx += step * dx + rng.gauss(0.0, 0.05)
            gy += step * dy + rng.gauss(0.0, 0.05)
        b.way(refs, rng.choice(CROSSING_TAGS))


def _crossing_ways(b: _Elements, x0: int, y0: int, nx: int, ny: int, count: int) -> None:
    """Random-walk polylines over tile edges; some start or end outside the block."""
    at = _block_frame(x0, y0, nx, ny)
    for _ in range(count):
        gx, gy = b.rng.uniform(-1.0, nx + 1.0), b.rng.uniform(-1.0, ny + 1.0)
        heading = b.rng.uniform(0, 2 * math.pi)
        pts = []
        for _ in range(b.layout.randint(6, 30)):
            pts.append(at(gx, gy))
            heading += b.rng.gauss(0.0, 0.4)
            step = b.layout.uniform(0.1, 0.4)
            gx += step * math.cos(heading)
            gy += step * math.sin(heading)
        b.way(b.nodes(pts), b.rng.choice(CROSSING_TAGS))


def _courtyard(b: _Elements, at, truth: dict) -> None:
    """Building with a courtyard in the free north-east quarter of a tile."""
    angle = b.rng.uniform(0, math.pi)
    half_w, half_h = b.rng.uniform(0.07, 0.11), b.rng.uniform(0.05, 0.10)
    outer = _rotated_rect(0.78, 0.78, half_w, half_h, angle, per_side=2, jitter=0.004, rng=b.rng)
    inner = _rotated_rect(0.78, 0.78, 0.4 * half_w, 0.4 * half_h, angle)[::-1]
    b.multipolygon([at(*p) for p in outer], [[at(*p) for p in inner]], (("building", "yes"),), 2)
    truth["buildings"] += 1


def _extras(b: _Elements, at, truth: dict) -> None:
    """0-3 small buildings in the free west strip and 0-2 signals along the south edge."""
    for fy in b.rng.sample((0.12, 0.32, 0.52, 0.72, 0.88), b.layout.randint(0, 3)):
        half = b.rng.uniform(0.015, 0.03)
        ring = _rotated_rect(0.11, fy, half, half * b.rng.uniform(1.0, 2.5), b.rng.uniform(0, math.pi))
        b.way(b.nodes([at(*p) for p in ring], closed=True), (("building", b.rng.choice(("yes", "house", "garage"))),))
        truth["buildings"] += 1
    for _ in range(b.layout.randint(0, 2)):
        tags = b.rng.choice(((("highway", "traffic_signals"),), (("crossing:signals", "yes"),)))
        b.node(at(b.rng.uniform(0.3, 0.95), b.rng.uniform(0.04, 0.12)), tags)
        truth["traffic_signals"] += 1


def urban(seed: int, traffic: Traffic = ASSUMED, nx: int = 12, ny: int = 12) -> Corpus:
    """Dense block of small tiles: courtyards, extra buildings and signals, crossing ways."""
    b = _Elements("urban", seed, traffic)
    x0, y0 = 18000 + b.rng.randrange(200), 25900 + b.rng.randrange(200)
    _base_grid(b, x0, y0, nx, ny)
    for dx in range(nx):
        for dy in range(ny):
            tid = geo.TileId(ZOOM, x0 + dx, y0 + dy)
            at = _tile_frame(tid)
            _courtyard(b, at, b.corpus.truth[tid.key])
            _extras(b, at, b.corpus.truth[tid.key])
    _crossing_ways(b, x0, y0, nx, ny, count=nx * ny // 4)
    _unresolved_ways(b, x0, y0, nx, ny)
    return b.corpus


def landuse(seed: int, traffic: Traffic = ASSUMED, nx: int = 4, ny: int = 4) -> Corpus:
    """A few tiles under a stitched forest with islands, a lake, and long rivers.

    The forest's vertices crowd towards its west side, so the tiles its edge
    crosses hold visibility scenes from under 100 to about 500 vertices.  The
    layout (wave phases, islands, lake corner, river courses) is the same for
    every seed, so the amount of clipping and visibility work is too; the
    seed moves the block and draws the vertex noise and member-way splits.
    """
    b = _Elements("landuse", seed, traffic)
    layout = b.layout
    x0, y0 = 18000 + b.rng.randrange(200), 25900 + b.rng.randrange(200)
    _base_grid(b, x0, y0, nx, ny)
    at = _block_frame(x0, y0, nx, ny)

    def ring(cx, cy, radius, n, waves, noise, crowd=0.0):
        waves = [(f, a, layout.uniform(0, 2 * math.pi)) for f, a in waves]
        return [at(*p) for p in _wavy_ring(b.rng, cx, cy, radius, n, waves, noise, crowd)]

    cx, cy, radius = nx / 2, ny / 2, 0.38 * min(nx, ny)
    forest = ring(cx, cy, radius, 1800, ((3, 0.06), (7, 0.04)), 0.004, crowd=0.7)
    islands = []
    for k in range(4):
        theta = 2 * math.pi * (k + layout.uniform(0.2, 0.8)) / 4
        d = layout.uniform(0.3, 0.55) * radius
        islands.append(ring(cx + d * math.cos(theta), cy + d * math.sin(theta),
                            layout.uniform(0.12, 0.25), layout.randint(40, 90), ((2, 0.1),), 0.003)[::-1])
    b.multipolygon(forest, islands, (("landuse", "forest"),), 6)
    lx, ly = nx - 0.9, 0.9
    lake = ring(lx, ly, 0.7, 900, ((4, 0.08),), 0.004)
    island = ring(lx, ly, 0.18, 40, ((2, 0.1),), 0.003)[::-1]
    b.multipolygon(lake, [island], (("natural", "water"), ("water", "lake")), 3)
    for r in range(3):
        base = layout.uniform(0.5, ny - 0.5)
        amp, freq, phase = layout.uniform(0.3, 0.9), layout.uniform(0.8, 2.0), layout.uniform(0, 2 * math.pi)
        n = layout.randint(250, 400)
        pts = []
        for i in range(n):
            gx = -0.5 + (nx + 1.0) * i / (n - 1)
            gy = base + amp * math.sin(freq * gx + phase) + b.rng.gauss(0.0, 0.005)
            pts.append(at(gx, gy))
        b.way(b.nodes(pts), (("waterway", "river"), ("name", f"River {r}")))
    _unresolved_ways(b, x0, y0, nx, ny)
    return b.corpus


def train_feed(seed: int, traffic: Traffic = ASSUMED, nx: int = 10, ny: int = 10) -> Corpus:
    """Tiles carrying many point features, so token sequences are long and uneven."""
    b = _Elements("train-feed", seed, traffic)
    x0, y0 = 18000 + b.rng.randrange(200), 25900 + b.rng.randrange(200)
    _base_grid(b, x0, y0, nx, ny)
    weights = [1.0 / (i + 1) for i in range(len(POI_TAGS))]
    for dx in range(nx):
        for dy in range(ny):
            at = _tile_frame(geo.TileId(ZOOM, x0 + dx, y0 + dy))
            for _ in range(b.layout.randint(2, 40)):
                tags = dict(b.rng.choices(POI_TAGS, weights, k=b.layout.randint(1, 3)))
                if b.layout.random() < 0.3:
                    tags["name"] = f"poi {b.rng.randrange(10**6)}"
                b.node(at(b.rng.uniform(0.05, 0.95), b.rng.uniform(0.05, 0.95)), tuple(tags.items()))
    _crossing_ways(b, x0, y0, nx, ny, count=nx * ny // 8)
    _unresolved_ways(b, x0, y0, nx, ny)
    return b.corpus


WORKLOADS = {"urban": urban, "landuse": landuse, "train-feed": train_feed}


def build_table(corpus: Corpus, seed: int) -> tokens.EmbeddingTable:
    """Seeded vectors for every tag the corpus uses often enough to keep."""
    vocab = tokens.prune_vocab(corpus.tag_counts())
    rng = np.random.default_rng(seed)
    return tokens.EmbeddingTable(dim=EMBED_DIM, vectors={t: rng.normal(size=EMBED_DIM) for t in vocab.tags})


def write_inputs(workload: str, seed: int, out_dir: str) -> dict:
    """Generate a workload's corpus and write extract.pbf, vectors.txt and truth.json."""
    os.makedirs(out_dir, exist_ok=True)
    corpus = WORKLOADS[workload](seed)
    paths = {name: os.path.join(out_dir, name) for name in ("extract.pbf", "vectors.txt", "truth.json")}
    pbf.write_pbf(paths["extract.pbf"], nodes=corpus.nodes, ways=corpus.ways, relations=corpus.relations)
    tokens.save_embeddings(build_table(corpus, seed), paths["vectors.txt"])
    with open(paths["truth.json"], "w", encoding="utf-8") as fh:
        json.dump(corpus.truth, fh, sort_keys=True)
    return paths


def write_clean_extract(workload: str, seed: int, path: str) -> None:
    """The workload's extract without the traffic defects (CLEAN)."""
    corpus = WORKLOADS[workload](seed, CLEAN)
    pbf.write_pbf(path, nodes=corpus.nodes, ways=corpus.ways, relations=corpus.relations)
