"""Correctness checks run after timing; each returns a list of mismatches.

Every check compares geotile's output with a reference that does not go
through the code path being timed: brute-force visibility, the dense 0.1
degree min-box sweep, the generator's own ground truth, a second write of the
same data, and a ``--jobs 1`` store.
"""

from __future__ import annotations

import filecmp
import json
import math
import os
import random

import numpy as np

from geotile import geometry, masking, tasks, tef, tokens
from geotile.model import EDGE_BOUNDARY, EDGE_VISIBLE, VisibilityGraph
from geotile.visibility import build_scene, visibility_edges

# Brute force costs about V^3 segment tests for V vertices.  The largest scene
# is always checked (about 1.5 s at 500 vertices); the others are drawn in seeded
# order while their summed V^3 stays under this budget, one 300-vertex scene.
BRUTE_BUDGET = 300**3
MINBOX_SAMPLES = 40
DENSE_STEP_DEG = 0.1
# With a 10 degree scan the worst orientation is 5 degrees off.  For a
# rectangle with sides in ratio a that costs (cos 5 + a sin 5)(a cos 5 + sin 5)/a,
# which stays under 1.2 up to a = 1.5.  Longer hulls are held to "never below
# the sweep" only.  Both comparisons need boxes whose sides were not widened
# to min_side: the sweep minimises the area before widening, so after it a
# coarser angle can come out smaller.
MINBOX_BOUND = 1.2
MINBOX_BOUND_MAX_ASPECT = 1.5


def visibility(tiles, seed: int) -> tuple[list[int], list[str]]:
    """Grid visibility against brute force on the largest scene and a seeded sample.

    Returns the vertex counts of the checked scenes and the mismatches.
    """
    scenes = [(t.id.key, e) for t in tiles for e in t.entities if e.geometry.kind == "multipolygon"]
    scenes.sort(key=lambda s: len(s[1].visgraph.vertices))
    rest = scenes[:-1]
    random.Random(f"visibility:{seed}").shuffle(rest)
    budget, checked, bad = BRUTE_BUDGET, [], []
    for key, entity in scenes[-1:] + rest:
        size = len(entity.visgraph.vertices)
        if checked and size**3 > budget:
            continue
        if checked:
            budget -= size**3
        checked.append(size)
        brute = brute_visibility(entity.geometry)
        if visibility_edges(entity.geometry) != brute:
            bad.append(f"visibility {key}/{entity.id}: grid and brute force differ")
        if entity.visgraph != brute:
            bad.append(f"visibility {key}/{entity.id}: stored graph differs from brute force")
    return checked, bad


def brute_visibility(geom) -> VisibilityGraph:
    """Every non-adjacent vertex pair against every boundary edge.

    The crossing test is ``visibility.proper_crossing``'s, written out over
    numpy arrays one vertex at a time: the same float64 operations in the same
    order, so the same signs, without going through the code being checked.
    """
    vertices, provenance, edges = build_scene(geom)
    v = np.asarray(vertices, dtype=np.float64)
    e = np.asarray(edges)
    ax, ay, bx, by = v[e[:, 0], 0], v[e[:, 0], 1], v[e[:, 1], 0], v[e[:, 1], 1]
    adjacent = {(min(i, j), max(i, j)) for i, j in edges}
    visible = []
    for i in range(len(vertices) - 1):
        px, py = v[i]
        qx, qy = v[i + 1:, 0, None], v[i + 1:, 1, None]
        o1 = (qx - px) * (ay - py) - (qy - py) * (ax - px)
        o2 = (qx - px) * (by - py) - (qy - py) * (bx - px)
        o3 = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
        o4 = (bx - ax) * (qy - ay) - (by - ay) * (qx - ax)
        blocked = ((o1 * o2 < 0.0) & (o3 * o4 < 0.0)).any(axis=1)
        visible.extend((i, j) for j in (i + 1 + np.flatnonzero(~blocked)).tolist() if (i, j) not in adjacent)
    labelled = [(min(i, j), max(i, j), EDGE_BOUNDARY) for i, j in edges]
    labelled.extend((i, j, EDGE_VISIBLE) for i, j in visible)
    return VisibilityGraph(vertices=tuple(provenance), edges=tuple(labelled))


def minbox(tiles, seed: int) -> tuple[int, list[str]]:
    """Stored min-boxes against the 0.1 degree sweep on a seeded sample of hulls."""
    candidates = []
    for t in tiles:
        for e in t.entities:
            geom = e.geometry
            if geom.kind == "point":
                continue
            pts = list(geom.coords) if geom.kind == "polyline" else [p for r in geom.rings() for p in r[:-1]]
            if len(geometry.convex_hull(pts)) >= 3:
                candidates.append((t.id.key, e, pts))
    rng = random.Random(f"minbox:{seed}")
    bad = []
    sample = rng.sample(candidates, min(MINBOX_SAMPLES, len(candidates)))
    for key, entity, pts in sample:
        exact = geometry.min_area_box(pts, step_deg=DENSE_STEP_DEG)
        approx, dense = geometry.box_area(entity.minbox), geometry.box_area(exact)
        sides, dense_sides = geometry.box_sides(entity.minbox), geometry.box_sides(exact)
        if min(sides) < geometry.MIN_BOX_SIDE - 1e-9:
            bad.append(f"minbox {key}/{entity.id}: side {min(sides)!r} below the minimum")
        if min(sides + dense_sides) <= geometry.MIN_BOX_SIDE + 1e-9:
            continue
        if approx < dense - 1e-12:
            bad.append(f"minbox {key}/{entity.id}: area {approx!r} below the dense sweep {dense!r}")
        if max(dense_sides) <= MINBOX_BOUND_MAX_ASPECT * min(dense_sides) and approx > MINBOX_BOUND * dense + 1e-12:
            bad.append(f"minbox {key}/{entity.id}: area {approx!r} above {MINBOX_BOUND} x {dense!r}")
    return len(sample), bad


def labels(tiles, tasks_dir: str, truth: dict) -> list[str]:
    """Every task's labels against the generator's per-tile ground truth.

    Tiles outside the generated block hold only crossing pieces, so their
    counts are zero; their max_speed depends on those pieces and is skipped.
    """
    zero = {"buildings": 0, "traffic_signals": 0, "bridge": 0, "car_bridge": 0}
    bad = []
    for task in tasks.BUNDLED_TASKS:
        spec = tasks.load_task(task)
        got = tasks.read_labels(os.path.join(tasks_dir, f"{spec.name}_labels.csv"))
        for t in tiles:
            want = truth.get(t.id.key, zero).get(task)
            if task == "max_speed" and t.id.key not in truth:
                continue
            if want is not None:
                want = min(max(float(want), spec.clamp_range[0]), spec.clamp_range[1])
            label = got.get(t.id.key)
            if label is None:
                dropped_zero = want == 0.0 and spec.rebalance_zero_keep is not None
                if want is not None and not dropped_zero:
                    bad.append(f"labels {task} {t.id.key}: missing, truth {want!r}")
            elif label != want:
                bad.append(f"labels {task} {t.id.key}: {label!r}, truth {want!r}")
        extra = set(got) - {t.id.key for t in tiles}
        if extra:
            bad.append(f"labels {task}: {len(extra)} tiles not in the store")
    return bad


def same_tree(a: str, b: str) -> list[str]:
    """Byte comparison of every file under two directories."""
    names_a = sorted(_files(a))
    names_b = sorted(_files(b))
    if names_a != names_b:
        return [f"{a} and {b} hold different files"]
    return [f"{a}/{n} differs from {b}/{n}" for n in names_a
            if not filecmp.cmp(os.path.join(a, n), os.path.join(b, n), shallow=False)]


def _files(root: str):
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            yield os.path.relpath(os.path.join(dirpath, name), root)


def tef_rewrite(store: str, scratch: str) -> list[str]:
    """read_store then write_store gives the same bytes."""
    tef.write_store(tef.read_store(store), scratch)
    return same_tree(store, scratch)


def gjtb_roundtrip(path: str, scratch: str) -> list[str]:
    """load_token_batch then dump_token_batch gives the same bytes."""
    tokens.dump_token_batch(tokens.load_token_batch(path), scratch)
    if not filecmp.cmp(path, scratch, shallow=False):
        return [f"{path}: load then dump changes the bytes"]
    return []


def load_truth(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def plan_violations(plan: masking.MaskPlan, cfg: masking.MaskConfig) -> list[str]:
    """Plan invariants: disjoint, inside valid_len, and enough context.

    Context may stay below ceil(min_ctx * n) only when enforce_min_context had
    to stop because moving another token would empty the last target.
    """
    need_frac = cfg.min_ctx_for(plan.strategy)
    bad = []
    for s in plan.samples:
        ctx = set(s.context)
        tokens_used = set(ctx)
        for t in s.targets:
            if ctx & set(t):
                bad.append(f"{s.key}: context and a target share tokens")
            tokens_used |= set(t)
        if any(j < 0 or j >= s.valid_len for j in tokens_used):
            bad.append(f"{s.key}: index outside valid_len {s.valid_len}")
        if len(ctx) < math.ceil(need_frac * s.valid_len):
            non_empty = [t for t in s.targets if t]
            if any(len(t) >= 2 for t in s.targets) or len(non_empty) > 1:
                bad.append(f"{s.key}: context {len(ctx)} below minimum with tokens left to move")
    return bad
