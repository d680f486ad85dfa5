"""Masking strategies, context floors and batch compaction."""

import math

import numpy as np
import pytest

from geotile.masking import (
    RANDOM_NUM_TARGETS,
    RANDOM_RATIO,
    STRATEGIES,
    MaskConfig,
    MaskPlan,
    SampleMask,
    area_mask,
    box_centres,
    build_plan,
    compact,
    context_fraction_histogram,
    enforce_min_context,
    modality_mask,
    plan_masks,
    plan_to_json_lines,
    random_mask,
    select_strategy,
)
from geotile.seeds import rng_for
from geotile.tokens import TokenBatch


def _uniform_batch(n, length, d=3, seed=0):
    rng = np.random.default_rng(seed)
    modality = np.ones((n, length), dtype=np.int32)
    boxes = rng.uniform(size=(n, length, 8)).astype(np.float32)
    payload = rng.normal(size=(n, length, d)).astype(np.float32)
    valid = np.full(n, length, dtype=np.int32)
    return TokenBatch(modality=modality, boxes=boxes, payload=payload, valid_len=valid)


# ------------------------------------------------------------ random masks


def test_random_mask_target_sizes_round_half_up():
    plan = random_mask([10], 0.45, 4, seed=0)
    assert [len(t) for t in plan.samples[0].targets] == [5, 5, 5, 5]
    lifted = random_mask([5], 0.05, 4, seed=0)
    assert [len(t) for t in lifted.samples[0].targets] == [1, 1, 1, 1]
    floor = random_mask([4], 0.05, 4, seed=0)
    assert [len(t) for t in floor.samples[0].targets] == [0, 0, 0, 0]
    assert floor.samples[0].context == (0, 1, 2, 3)


def test_random_mask_partitions_tokens():
    plan = random_mask([30] * 20, 0.45, 4, seed=5)
    for s in plan.samples:
        covered = set()
        for t in s.targets:
            assert all(0 <= i < s.valid_len for i in t)
            assert list(t) == sorted(t)
            covered.update(t)
        assert covered.isdisjoint(s.context)
        assert covered | set(s.context) == set(range(s.valid_len))


def test_random_mask_context_fraction_before_floor():
    plan = random_mask([201] * 2000, 0.45, 4, seed=99)
    mean = float(np.mean([s.context_fraction() for s in plan.samples]))
    assert abs(mean - 0.55**4) < 0.01
    assert 0.55**4 == 0.09150625000000003


def test_random_mask_keyed_by_sample_not_position():
    fwd = random_mask([20, 30], 0.45, 4, seed=7, sample_keys=["a", "b"])
    rev = random_mask([30, 20], 0.45, 4, seed=7, sample_keys=["b", "a"])
    assert fwd.samples[0] == rev.samples[1]
    assert fwd.samples[1] == rev.samples[0]
    other = random_mask([20, 30], 0.45, 4, seed=8, sample_keys=["a", "b"])
    assert other.samples[0] != fwd.samples[0]


def test_random_mask_rejects_empty_sample():
    with pytest.raises(ValueError, match="valid token"):
        random_mask([0], 0.45, 4, seed=0)


# -------------------------------------------------------------- area masks


def _grid_centres(side):
    xs, ys = np.meshgrid(np.linspace(0.1, 0.9, side), np.linspace(0.1, 0.9, side))
    return np.stack([xs.ravel(), ys.ravel()], axis=1)[None, :, :]


def test_area_mask_matches_drawn_boxes():
    centres = _grid_centres(5)
    plan = area_mask(centres, [25], 0.4, 4, (0.5, 2.0), seed=3, sample_keys=["k"])
    s = plan.samples[0]

    rng = rng_for(3, "area", "k")
    want = []
    for _ in range(4):
        aspect = rng.uniform(0.5, 2.0)
        w = min(1.0, math.sqrt(0.4 * aspect))
        h = min(1.0, math.sqrt(0.4 / aspect))
        x0 = rng.uniform(0.0, 1.0 - w)
        y0 = rng.uniform(0.0, 1.0 - h)
        want.append(tuple(
            j for j in range(25)
            if x0 < centres[0, j, 0] < x0 + w and y0 < centres[0, j, 1] < y0 + h
        ))
    assert s.targets == tuple(want)
    covered = {i for t in s.targets for i in t}
    assert set(s.context) == set(range(25)) - covered


def test_area_mask_boundary_centre_is_context():
    # One token dead on the box edge: x0 = 0 exactly when w = 1.
    centres = np.array([[[0.0, 0.5], [0.5, 0.5]]])
    plan = area_mask(centres, [2], 0.999999, 1, (1.0, 1.0), seed=0, sample_keys=["k"])
    s = plan.samples[0]
    assert 0 in s.context  # cx == x0 fails the strict test
    assert 1 in s.targets[0]


def _first_area_box(seed, key, ratio):
    rng = rng_for(seed, "area", key)
    aspect = rng.uniform(1.0, 1.0)
    w = min(1.0, math.sqrt(ratio * aspect))
    h = min(1.0, math.sqrt(ratio / aspect))
    return rng.uniform(0.0, 1.0 - w), rng.uniform(0.0, 1.0 - h), w, h


def test_area_mask_compares_float32_centres_in_float32():
    # A float32 centre equal to float32(x0) lies on the box edge, even where
    # float32(x0) > x0 in float64: the bound is rounded to the centres' dtype,
    # as a Python float is in `centres > x0`.
    for key in map(str, range(100)):
        x0, y0, w, h = _first_area_box(5, key, 0.4)
        if float(np.float32(x0)) > x0:
            break
    edge = np.float32(x0)
    cy = np.float32(y0 + h / 2)
    centres = np.array([[[edge, cy], [np.nextafter(edge, np.float32(1)), cy]]], dtype=np.float32)
    plan = area_mask(centres, [2], 0.4, 1, (1.0, 1.0), seed=5, sample_keys=[key])
    s = plan.samples[0]
    assert s.targets == ((1,),)
    assert s.context == (0,)


def test_area_mask_target_share_tracks_ratio():
    rng = np.random.default_rng(8)
    centres = rng.uniform(size=(1, 1000, 2))
    plan = area_mask(centres, [1000], 0.4, 4, (0.5, 2.0), seed=21, sample_keys=["k"])
    for t in plan.samples[0].targets:
        assert abs(len(t) / 1000 - 0.4) < 0.1


# ---------------------------------------------------------- modality masks


def test_modality_mask_keeps_one_side():
    mods = np.zeros((1, 201), dtype=np.int32)
    mods[0, :5] = 1
    mods[0, 5:] = 2
    seen = set()
    for k in range(50):
        plan = modality_mask(mods, [201], seed=11, sample_keys=[f"t{k}"])
        s = plan.samples[0]
        assert len(s.targets) == 1
        assert set(s.context) | set(s.targets[0]) == set(range(201))
        assert set(s.context).isdisjoint(s.targets[0])
        seen.add(s.context_fraction())
    assert seen == {5 / 201, 196 / 201}
    assert 5 / 201 == 0.024875621890547265
    assert 196 / 201 == 0.9751243781094527


def test_modality_mask_three_way_split():
    mods = np.array([[1, 1, 2, 2, 3, 3, 0, 0]], dtype=np.int32)
    plan = modality_mask(mods, [6], seed=2, sample_keys=["k"])
    s = plan.samples[0]
    assert len(s.targets) == 2
    groups = [set(s.context)] + [set(t) for t in s.targets]
    assert sorted(map(tuple, map(sorted, groups))) == [(0, 1), (2, 3), (4, 5)]


def test_modality_mask_unimodal_falls_back():
    mods = np.ones((2, 40), dtype=np.int32)
    plan = modality_mask(mods, [40, 40], seed=5, sample_keys=["a", "b"])
    assert plan.strategy == "modality"
    assert plan.fallbacks == 2
    for s in plan.samples:
        assert len(s.targets) == 4
        assert [len(t) for t in s.targets] == [18, 18, 18, 18]


# ------------------------------------------------------------ context floor


def test_enforce_min_context_reaches_floor():
    sample = SampleMask(key="k", valid_len=20, context=(),
                        targets=(tuple(range(10)), tuple(range(10, 20))))
    plan = MaskPlan(strategy="random", samples=[sample])
    out = enforce_min_context(plan, 0.15, seed=4)
    s = out.samples[0]
    assert len(s.context) == math.ceil(0.15 * 20) == 3
    for t in s.targets:
        assert set(t).isdisjoint(s.context)
    moved = set(s.context)
    assert set(s.targets[0]) | set(s.targets[1]) | moved == set(range(20))


def test_enforce_min_context_removes_token_everywhere():
    # token 0 sits in both targets; once moved it must leave both
    sample = SampleMask(key="k", valid_len=4, context=(),
                        targets=((0, 1, 2), (0, 3)))
    plan = MaskPlan(strategy="random", samples=[sample])
    out = enforce_min_context(plan, 0.25, seed=1)
    s = out.samples[0]
    assert len(s.context) == 1
    tok = s.context[0]
    assert all(tok not in t for t in s.targets)


def test_enforce_min_context_never_drains_last_target():
    sample = SampleMask(key="k", valid_len=2, context=(), targets=((0,), (1,)))
    plan = MaskPlan(strategy="random", samples=[sample])
    out = enforce_min_context(plan, 0.9, seed=0)
    s = out.samples[0]
    assert len(s.context) == 1  # honest shortfall, one target survives
    assert sum(1 for t in s.targets if t) == 1


def test_enforce_min_context_noop_when_satisfied():
    sample = SampleMask(key="k", valid_len=10, context=tuple(range(5)),
                        targets=((5, 6), (7, 8, 9)))
    plan = MaskPlan(strategy="area", samples=[sample])
    out = enforce_min_context(plan, 0.2, seed=3)
    assert out.samples[0] == sample


def reference_min_context(plan, min_ctx, seed):
    """enforce_min_context as a scan over every target for each moved token."""
    out = MaskPlan(strategy=plan.strategy, fallbacks=plan.fallbacks)
    for sample in plan.samples:
        need = math.ceil(min_ctx * sample.valid_len)
        if len(sample.context) >= need:
            out.samples.append(sample)
            continue
        rng = rng_for(seed, "minctx", sample.key)
        context = set(sample.context)
        targets = [list(t) for t in sample.targets]
        while len(context) < need:
            eligible = [ti for ti, t in enumerate(targets) if len(t) >= 2]
            if not eligible:
                eligible = [ti for ti, t in enumerate(targets) if t]
                if len(eligible) <= 1:
                    break
            pool = [token for ti in eligible for token in targets[ti]]
            token = pool[int(rng.integers(len(pool)))]
            context.add(token)
            for t in targets:
                if token in t:
                    t.remove(token)
        out.samples.append(SampleMask(key=sample.key, valid_len=sample.valid_len, context=tuple(sorted(context)),
                                      targets=tuple(tuple(sorted(t)) for t in targets)))
    return out


def test_enforce_min_context_equals_reference_on_hand_built_plans():
    # Unsorted, overlapping and repeating targets, and context that overlaps them.
    rng = np.random.default_rng(14)
    samples = []
    for i in range(600):
        n = int(rng.integers(1, 50))
        targets = []
        for _ in range(int(rng.integers(0, 6))):
            t = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=bool(rng.uniform() < 0.2)).tolist()
            targets.append(tuple(sorted(t) if rng.uniform() < 0.5 else t))
        context = tuple(sorted(set(rng.choice(n, size=int(rng.integers(0, n // 3 + 1))).tolist())))
        samples.append(SampleMask(key=str(i), valid_len=n, context=context, targets=tuple(targets)))
    for min_ctx in (0.1, 0.5, 0.9):
        plan = MaskPlan(strategy="random", samples=samples)
        want = plan_to_json_lines(reference_min_context(plan, min_ctx, seed=3))
        assert plan_to_json_lines(enforce_min_context(plan, min_ctx, seed=3)) == want


def test_enforce_min_context_equals_reference_on_strategy_plans():
    batch = _uniform_batch(24, 90, seed=5)
    batch.modality[:, ::3] = 2
    for name in STRATEGIES:
        cfg = MaskConfig(seed=8)
        plan = build_plan(batch, cfg, name)  # already past the floor; raise it
        for min_ctx in (0.5, 0.8):
            want = plan_to_json_lines(reference_min_context(plan, min_ctx, seed=8))
            assert plan_to_json_lines(enforce_min_context(plan, min_ctx, seed=8)) == want


# ---------------------------------------------------------------- strategy


def test_select_strategy_frequencies():
    cfg = MaskConfig()
    names = [select_strategy(cfg, i) for i in range(6000)]
    freq = {name: names.count(name) / 6000 for name in ("random", "area", "modality")}
    assert abs(freq["random"] - 0.20) < 0.025
    assert abs(freq["area"] - 0.60) < 0.025
    assert abs(freq["modality"] - 0.20) < 0.025
    assert select_strategy(cfg, 17) == select_strategy(cfg, 17)


def test_plan_masks_applies_floor():
    batch = _uniform_batch(4, 60, seed=3)
    cfg = MaskConfig(seed=9)
    for batch_index in range(6):
        strategy = select_strategy(cfg, batch_index)
        plan = plan_masks(batch, cfg, batch_index)
        assert plan.strategy == strategy
        assert len(plan.samples) == 4
        floor = cfg.min_ctx_for(strategy)
        for s in plan.samples:
            assert len(s.context) >= math.ceil(floor * s.valid_len) or plan.fallbacks
            covered = set(s.context) | {i for t in s.targets for i in t}
            assert covered <= set(range(s.valid_len))


def test_build_plan_runs_each_strategy_and_rejects_others():
    batch = _uniform_batch(4, 60, seed=3)
    cfg = MaskConfig(seed=9)
    for name in STRATEGIES:
        plan = build_plan(batch, cfg, name)
        assert plan.strategy == name
        for s in plan.samples:
            assert len(s.context) >= math.ceil(cfg.min_ctx_for(name) * s.valid_len)
    with pytest.raises(ValueError, match="unknown masking strategy 'grid'"):
        build_plan(batch, cfg, "grid")


def test_unimodal_fallback_reads_the_config_random_settings():
    batch = _uniform_batch(3, 60, seed=3)
    assert build_plan(batch, MaskConfig(seed=9), "modality").fallbacks == 3
    lens = [60] * 3
    plan = modality_mask(batch.modality, lens, 9, batch.ids)
    assert plan.fallbacks == 3
    assert plan.samples == random_mask(lens, RANDOM_RATIO, RANDOM_NUM_TARGETS, 9, batch.ids).samples
    for s in plan.samples:
        assert [len(t) for t in s.targets] == [27] * 4  # round(0.45 * 60) tokens each


def test_plan_masks_mixed_modality_floor():
    modality = np.ones((1, 201), dtype=np.int32)
    modality[0, 5:] = 2
    batch = TokenBatch(
        modality=modality,
        boxes=np.random.default_rng(0).uniform(size=(1, 201, 8)).astype(np.float32),
        payload=np.zeros((1, 201, 2), dtype=np.float32),
        valid_len=np.array([201], dtype=np.int32),
    )
    cfg = MaskConfig(seed=1)
    for batch_index in range(40):
        if select_strategy(cfg, batch_index) == "modality":
            plan = plan_masks(batch, cfg, batch_index)
            s = plan.samples[0]
            assert len(s.context) >= math.ceil(0.15 * 201)
            break
    else:
        pytest.fail("no modality batch among the first 40 draws")


# --------------------------------------------------------------- compaction


def test_compact_gathers_to_front():
    batch = _uniform_batch(3, 12, seed=6)
    plan = random_mask([12, 12, 12], 0.45, 2, seed=2, sample_keys=batch.ids)
    ctx, targets, maps = compact(batch, plan)
    assert ctx.size == 3 and len(targets) == 2
    for i, s in enumerate(plan.samples):
        assert ctx.valid_len[i] == len(s.context)
        idx = maps[i]["context"]
        assert idx.tolist() == list(s.context)
        assert np.array_equal(ctx.payload[i, : len(idx)], batch.payload[i, idx])
        assert np.array_equal(ctx.boxes[i, : len(idx)], batch.boxes[i, idx])
        assert np.all(ctx.payload[i, len(idx):] == 0.0)
        for t, tb in enumerate(targets):
            tidx = maps[i]["targets"][t]
            assert tidx.tolist() == list(s.targets[t])
            assert np.array_equal(tb.payload[i, : len(tidx)], batch.payload[i, tidx])


def test_compact_scatter_back_reconstructs():
    batch = _uniform_batch(2, 30, seed=12)
    plan = random_mask([30, 30], 0.4, 3, seed=8, sample_keys=batch.ids)
    ctx, targets, maps = compact(batch, plan)
    rebuilt = np.zeros_like(batch.payload)
    for i in range(batch.size):
        rebuilt[i, maps[i]["context"]] = ctx.payload[i, : len(maps[i]["context"])]
        for t, tb in enumerate(targets):
            tidx = maps[i]["targets"][t]
            rebuilt[i, tidx] = tb.payload[i, : len(tidx)]
    covered = batch.valid_mask()
    assert np.array_equal(rebuilt[covered], batch.payload[covered])


def test_compact_pads_missing_target_slots():
    batch = _uniform_batch(2, 10, seed=1)
    plan = MaskPlan(strategy="modality", samples=[
        SampleMask(key="0", valid_len=10, context=(0, 1), targets=((2, 3), (4, 5, 6))),
        SampleMask(key="1", valid_len=10, context=(0,), targets=((1, 2),)),
    ])
    ctx, targets, maps = compact(batch, plan)
    assert len(targets) == 2
    assert targets[1].valid_len.tolist() == [3, 0]
    assert np.all(targets[1].payload[1] == 0.0)
    assert maps[1]["targets"][1].size == 0


def test_compact_requires_full_plan():
    batch = _uniform_batch(3, 8, seed=0)
    plan = random_mask([8], 0.45, 2, seed=0)
    with pytest.raises(ValueError, match="cover"):
        compact(batch, plan)


# --------------------------------------------------------------------- I/O


def test_plan_json_lines_frozen():
    plan = MaskPlan(strategy="random", samples=[
        SampleMask(key="16_1_2", valid_len=4, context=(0, 3), targets=((1,), (2,))),
    ])
    assert plan_to_json_lines(plan) == '{"tile":"16_1_2","context":[0,3],"targets":[[1],[2]]}\n'
    assert plan_to_json_lines(MaskPlan(strategy="random")) == ""


def test_context_fraction_histogram_buckets():
    plan = MaskPlan(strategy="random", samples=[
        SampleMask(key="a", valid_len=10, context=tuple(range(2)), targets=()),
        SampleMask(key="b", valid_len=10, context=tuple(range(9)), targets=()),
    ])
    rows = context_fraction_histogram(plan)
    assert len(rows) == 10
    assert sum(count for _, _, count in rows) == 2
    assert rows[2][2] == 1 and rows[9][2] == 1
