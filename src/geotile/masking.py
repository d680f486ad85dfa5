"""Padding-aware masking plans for joint-embedding predictive training.

Three strategies (token-random, area box, modality split) produce per-sample
context/target index sets over the valid tokens of a batch.  Plans are
seeded per sample from the sample's key, so reshuffling a corpus into
different batches never changes an individual tile's plan.
"""

from __future__ import annotations

import bisect
import json
import logging
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .seeds import rng_for
from .tokens import TokenBatch

log = logging.getLogger(__name__)

STRATEGY_RANDOM = "random"
STRATEGY_AREA = "area"
STRATEGY_MODALITY = "modality"
STRATEGIES = (STRATEGY_RANDOM, STRATEGY_AREA, STRATEGY_MODALITY)
# Pretraining configuration: one batch's strategy is drawn with these weights,
# in STRATEGIES order.
STRATEGY_WEIGHTS = (0.20, 0.60, 0.20)

# Random masking, also the fallback for unimodal samples under modality masking.
RANDOM_RATIO = 0.45
RANDOM_NUM_TARGETS = 4
AREA_RATIO = 0.40
AREA_NUM_TARGETS = 4
AREA_ASPECT_RANGE = (0.5, 2.0)
# Smallest context share each strategy's plans keep (enforce_min_context).
MIN_CONTEXT = {STRATEGY_RANDOM: 0.10, STRATEGY_AREA: 0.15, STRATEGY_MODALITY: 0.15}
HISTOGRAM_BINS = 10


@dataclass(frozen=True)
class MaskConfig:
    """The plan seed; ratios, targets and weights are the module constants."""

    seed: int = 0

    def min_ctx_for(self, strategy: str) -> float:
        return MIN_CONTEXT[strategy]


@dataclass(frozen=True)
class SampleMask:
    """Context and target token indices for one sample; all < valid_len."""

    key: str
    valid_len: int
    context: tuple[int, ...]
    targets: tuple[tuple[int, ...], ...]

    def context_fraction(self) -> float:
        return len(self.context) / self.valid_len if self.valid_len else 0.0


@dataclass
class MaskPlan:
    strategy: str
    samples: list[SampleMask] = field(default_factory=list)
    fallbacks: int = 0  # unimodal samples rerouted to the random strategy


def _keys(valid_lens: Sequence[int], sample_keys: Sequence[str] | None) -> list[str]:
    if sample_keys is None:
        return [str(i) for i in range(len(valid_lens))]
    if len(sample_keys) != len(valid_lens):
        raise ValueError("sample_keys must match valid_lens")
    return list(sample_keys)


def _target_size(valid_len: int, ratio: float, num_targets: int) -> int:
    size = int(ratio * valid_len + 0.5)  # round half-up
    if size == 0 and valid_len >= num_targets + 1:
        size = 1
    return min(size, valid_len)


def _random_sample(key: str, valid_len: int, ratio: float, num_targets: int, seed: int) -> SampleMask:
    rng = rng_for(seed, "random", key)
    size = _target_size(valid_len, ratio, num_targets)
    targets = []
    covered = np.zeros(valid_len, dtype=bool)
    for _ in range(num_targets):
        drawn = rng.choice(valid_len, size=size, replace=False) if size else np.empty(0, int)
        targets.append(tuple(np.sort(drawn).tolist()))
        covered[drawn] = True
    context = tuple(np.flatnonzero(~covered).tolist())
    return SampleMask(key=key, valid_len=valid_len, context=context, targets=tuple(targets))


def random_mask(
    valid_lens: Sequence[int],
    ratio: float,
    num_targets: int,
    seed: int,
    sample_keys: Sequence[str] | None = None,
) -> MaskPlan:
    """Independent without-replacement token draws; targets may overlap."""
    plan = MaskPlan(strategy=STRATEGY_RANDOM)
    for key, n in zip(_keys(valid_lens, sample_keys), valid_lens):
        if n < 1:
            raise ValueError("every sample needs at least one valid token")
        plan.samples.append(_random_sample(key, int(n), ratio, num_targets, seed))
    return plan


def box_centres(boxes: np.ndarray) -> np.ndarray:
    """Mean of the four corners of each 8-float box row."""
    return boxes.reshape(*boxes.shape[:-1], 4, 2).mean(axis=-2)


def area_mask(
    centres: np.ndarray,
    valid_lens: Sequence[int],
    ratio: float,
    num_targets: int,
    aspect_range: tuple[float, float],
    seed: int,
    sample_keys: Sequence[str] | None = None,
) -> MaskPlan:
    """Targets are tokens whose box centre falls strictly inside a sampled box.

    Each box has area = ratio (before the ≤ 1 side clamp) and an aspect ratio
    drawn uniformly from aspect_range, positioned uniformly inside the tile.
    """
    plan = MaskPlan(strategy=STRATEGY_AREA)
    lo, hi = aspect_range
    for i, (key, n) in enumerate(zip(_keys(valid_lens, sample_keys), valid_lens)):
        n = int(n)
        rng = rng_for(seed, "area", key)
        cx, cy = centres[i, :n, 0], centres[i, :n, 1]
        bounds = []
        for _ in range(num_targets):
            aspect = rng.uniform(lo, hi)
            w = min(1.0, math.sqrt(ratio * aspect))
            h = min(1.0, math.sqrt(ratio / aspect))
            x0 = rng.uniform(0.0, 1.0 - w)
            y0 = rng.uniform(0.0, 1.0 - h)
            bounds.append((x0, x0 + w, y0, y0 + h))
        # In centres' dtype: a float32 centre is compared with a float32 bound,
        # as it is against a Python float, not widened to float64.
        b = np.array(bounds, dtype=centres.dtype).reshape(-1, 4, 1)
        inside = (cx > b[:, 0]) & (cx < b[:, 1]) & (cy > b[:, 2]) & (cy < b[:, 3])
        targets = [tuple(np.flatnonzero(row).tolist()) for row in inside]
        context = tuple(np.flatnonzero(~inside.any(axis=0)).tolist())
        plan.samples.append(SampleMask(key=key, valid_len=n, context=context, targets=tuple(targets)))
    return plan


def modality_mask(
    modalities: np.ndarray,
    valid_lens: Sequence[int],
    seed: int,
    sample_keys: Sequence[str] | None = None,
) -> MaskPlan:
    """Keep one modality as context, target the rest; unimodal falls back to random.

    The context modality is chosen uniformly per sample; each remaining
    modality becomes one target holding all of its tokens.
    """
    plan = MaskPlan(strategy=STRATEGY_MODALITY)
    for i, (key, n) in enumerate(zip(_keys(valid_lens, sample_keys), valid_lens)):
        n = int(n)
        mods = modalities[i, :n]
        present = np.unique(mods).tolist()
        if len(present) < 2:
            log.debug("sample %s is unimodal; falling back to random masking", key)
            plan.samples.append(_random_sample(key, n, RANDOM_RATIO, RANDOM_NUM_TARGETS, seed))
            plan.fallbacks += 1
            continue
        rng = rng_for(seed, "modality", key)
        ctx_mod = present[int(rng.integers(len(present)))]
        context = tuple(np.flatnonzero(mods == ctx_mod).tolist())
        targets = tuple(tuple(np.flatnonzero(mods == m).tolist()) for m in present if m != ctx_mod)
        plan.samples.append(SampleMask(key=key, valid_len=n, context=context, targets=targets))
    return plan


def enforce_min_context(plan: MaskPlan, min_ctx: float, seed: int) -> MaskPlan:
    """Move target tokens to context until it holds ceil(min_ctx · valid_len).

    Tokens move out of every target that contains them (context and targets
    stay disjoint).  Targets with ≥ 2 tokens donate first; a last non-empty
    target is never drained below one token.
    """
    out = MaskPlan(strategy=plan.strategy, fallbacks=plan.fallbacks)
    for sample in plan.samples:
        need = math.ceil(min_ctx * sample.valid_len)
        if len(sample.context) >= need:
            out.samples.append(sample)
            continue
        rng = rng_for(seed, "minctx", sample.key)
        context = set(sample.context)
        targets = [list(t) for t in sample.targets]
        # Every strategy makes sorted targets, and a sorted target drops a
        # moved token by bisection; only a hand-built unsorted one is scanned.
        ordered = [t == sorted(t) for t in targets]
        while len(context) < need:
            # The donor pool is the concatenation of eligible targets; it is
            # never materialized, the drawn index is walked instead.
            eligible = [ti for ti, t in enumerate(targets) if len(t) >= 2]
            if not eligible:
                eligible = [ti for ti, t in enumerate(targets) if t]
                if len(eligible) <= 1:
                    break  # would empty every target
            k = int(rng.integers(sum(len(targets[ti]) for ti in eligible)))
            for ti in eligible:
                if k < len(targets[ti]):
                    token = targets[ti][k]
                    break
                k -= len(targets[ti])
            context.add(token)
            for t, is_sorted in zip(targets, ordered):
                if is_sorted:
                    i = bisect.bisect_left(t, token)
                    if i < len(t) and t[i] == token:
                        del t[i]  # the first occurrence, as list.remove takes
                elif token in t:
                    t.remove(token)
        out.samples.append(
            SampleMask(
                key=sample.key,
                valid_len=sample.valid_len,
                context=tuple(sorted(context)),
                targets=tuple(tuple(sorted(t)) for t in targets),
            )
        )
    return out


def select_strategy(cfg: MaskConfig, batch_index: int) -> str:
    """Weighted strategy choice, fixed per batch so batch kernels stay uniform."""
    r = rng_for(cfg.seed, "strategy", str(batch_index)).uniform()
    acc = 0.0
    for name, w in zip(STRATEGIES, STRATEGY_WEIGHTS):
        acc += w
        if r < acc:
            return name
    return STRATEGIES[-1]


def build_plan(batch: TokenBatch, cfg: MaskConfig, strategy: str) -> MaskPlan:
    """Mask every sample of the batch with one strategy, then enforce its min context."""
    lens = [int(n) for n in batch.valid_len]
    if strategy == STRATEGY_RANDOM:
        plan = random_mask(lens, RANDOM_RATIO, RANDOM_NUM_TARGETS, cfg.seed, batch.ids)
    elif strategy == STRATEGY_AREA:
        centres = box_centres(batch.boxes)
        plan = area_mask(centres, lens, AREA_RATIO, AREA_NUM_TARGETS, AREA_ASPECT_RANGE, cfg.seed, batch.ids)
    elif strategy == STRATEGY_MODALITY:
        plan = modality_mask(batch.modality, lens, cfg.seed, batch.ids)
    else:
        raise ValueError(f"unknown masking strategy {strategy!r}")
    return enforce_min_context(plan, cfg.min_ctx_for(strategy), cfg.seed)


def plan_masks(batch: TokenBatch, cfg: MaskConfig, batch_index: int = 0) -> MaskPlan:
    """Pick a strategy for the batch, mask every sample, enforce min context."""
    return build_plan(batch, cfg, select_strategy(cfg, batch_index))


# -------------------------------------------------------------- compaction


def _gather(batch: TokenBatch, selections: list[tuple[int, ...]]) -> tuple[TokenBatch, list[np.ndarray]]:
    lens = [len(sel) for sel in selections]
    max_len = max(lens, default=0)
    n, d = batch.size, batch.dim
    modality = np.zeros((n, max_len), dtype=np.int32)
    boxes = np.zeros((n, max_len, 8), dtype=np.float32)
    payload = np.zeros((n, max_len, d), dtype=np.float32)
    maps = []
    for i, sel in enumerate(selections):
        idx = np.array(sel, dtype=np.int64)
        maps.append(idx)
        if len(idx):
            modality[i, : len(idx)] = batch.modality[i, idx]
            boxes[i, : len(idx)] = batch.boxes[i, idx]
            payload[i, : len(idx)] = batch.payload[i, idx]
    gathered = TokenBatch(
        modality=modality,
        boxes=boxes,
        payload=payload,
        valid_len=np.array(lens, dtype=np.int32),
        ids=batch.ids,
    )
    return gathered, maps


def compact(batch: TokenBatch, plan: MaskPlan) -> tuple[TokenBatch, list[TokenBatch], list[dict]]:
    """Gather context and each target to the front of fresh, tighter batches.

    Returns (context batch, one batch per target slot, per-sample index maps).
    maps[i]["context"][j] is the original position of context token j of
    sample i, so scatter-back is exact.  Samples with fewer target slots than
    the batch maximum contribute empty rows to the trailing target batches.
    """
    if len(plan.samples) != batch.size:
        raise ValueError("plan does not cover the batch")
    context_batch, ctx_maps = _gather(batch, [s.context for s in plan.samples])
    num_targets = max((len(s.targets) for s in plan.samples), default=0)
    target_batches = []
    target_maps: list[list[np.ndarray]] = [[] for _ in plan.samples]
    for t in range(num_targets):
        sels = [s.targets[t] if t < len(s.targets) else () for s in plan.samples]
        tb, maps = _gather(batch, sels)
        target_batches.append(tb)
        for i, m in enumerate(maps):
            target_maps[i].append(m)
    index_maps = [
        {"context": ctx_maps[i], "targets": target_maps[i]} for i in range(batch.size)
    ]
    return context_batch, target_batches, index_maps


# ------------------------------------------------------------------- I/O


def plan_to_json_lines(plan: MaskPlan) -> str:
    lines = []
    for s in plan.samples:
        lines.append(
            json.dumps(
                {"tile": s.key, "context": list(s.context), "targets": [list(t) for t in s.targets]},
                separators=(",", ":"),
            )
        )
    return "\n".join(lines) + "\n" if lines else ""


def context_fraction_histogram(plan: MaskPlan) -> list[tuple[float, float, int]]:
    """(low, high, count) rows over per-sample context fractions, HISTOGRAM_BINS of them."""
    edges = np.linspace(0.0, 1.0, HISTOGRAM_BINS + 1)
    fracs = [s.context_fraction() for s in plan.samples]
    counts, _ = np.histogram(fracs, bins=edges)
    return [(float(edges[i]), float(edges[i + 1]), int(counts[i])) for i in range(HISTOGRAM_BINS)]
