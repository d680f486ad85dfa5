"""Loss kernels, EMA and schedule math, and length-sorted batch re-binning.

No optimizer or network lives here; these are the numeric pieces a trainer
calls.  Every kernel is padding-aware: PAD tokens are excluded before any
arithmetic, so adding padding never moves a result even in the last bit.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields
from typing import ClassVar, Sequence

import numpy as np

from .seeds import rng_for

log = logging.getLogger(__name__)

HUBER_BETA = 2.0
# VICReg variance target and the epsilon under its square root.
VICREG_GAMMA = 1.0
VICREG_EPS = 1e-4
VICREG_BETA = 0.05  # weight of the variance and covariance terms in the total


def huber_masked(
    pred: np.ndarray,
    target: np.ndarray,
    valid: np.ndarray,
    beta: float = HUBER_BETA,
    per_token: bool = False,
) -> float:
    """Smooth-L1 over valid tokens only.

    Sum of elementwise losses divided by valid_tokens × feature_dim, or by
    valid_tokens alone with per_token.  Valid tokens are compressed out
    before any arithmetic, which is what makes padding invariance exact
    rather than merely within rounding.
    """
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    if not 0 < beta < math.inf:
        raise ValueError(f"beta must be positive and finite, got {beta}")
    # Two full-size float64 buffers, each step in the order of the textbook
    # np.where(d < beta, 0.5 * d * d / beta, d - 0.5 * beta), so every value
    # is bit-identical to it.  The linear branch (d >= beta, or NaN) is a
    # sliver of the elements, so it is written back at its flat indices.
    d = np.subtract(pred[valid], target[valid], dtype=np.float64)
    n_tokens = d.shape[0]
    if n_tokens == 0:
        log.warning("huber_masked called with zero valid tokens")
        return 0.0
    np.abs(d, out=d)
    linear = np.flatnonzero(~(d < beta))
    loss = 0.5 * d
    loss *= d
    loss /= beta
    np.put(loss, linear, np.take(d, linear) - 0.5 * beta)
    denom = n_tokens if per_token else n_tokens * pred.shape[-1]
    return float(loss.sum() / denom)


def vicreg_var_cov(tokens: np.ndarray, valid: np.ndarray) -> tuple[float, float]:
    """Variance hinge and squared off-diagonal covariance over valid tokens.

    All valid tokens across the batch form one N×d matrix; both statistics
    use the N−1 divisor.  N < 2 is an error (a single token has no variance).
    """
    z = tokens[valid].astype(np.float64)
    n = z.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 valid tokens, got {n}")
    d = z.shape[1]
    # Centred in place, once: z - z.mean(axis=0) is the array z.var(ddof=1)
    # squares and sums, so the variance below is bit-equal to it.
    z -= z.mean(axis=0)
    cov = (z.T @ z) / (n - 1)
    z *= z
    std = np.sqrt(z.sum(axis=0) / (n - 1) + VICREG_EPS)
    var_loss = float(np.maximum(0.0, VICREG_GAMMA - std).mean())
    cov_sq = cov * cov
    cov_loss = float((cov_sq.sum() - np.trace(cov_sq)) / d)
    return var_loss, cov_loss


def total_loss(huber: float, var: float, cov: float, vicreg_beta: float = VICREG_BETA) -> float:
    if not 0 <= vicreg_beta < math.inf:
        raise ValueError(f"vicreg_beta must be non-negative and finite, got {vicreg_beta}")
    return huber + vicreg_beta * (var + cov)


def ema_update(target: np.ndarray, online: np.ndarray, momentum: float) -> np.ndarray:
    """θ̄ ← m·θ̄ + (1−m)·θ, elementwise; returns a new array."""
    if target.shape != online.shape:
        raise ValueError(f"shape mismatch: {target.shape} vs {online.shape}")
    return momentum * target + (1.0 - momentum) * online


# -------------------------------------------------------------- schedules


@dataclass(frozen=True)
class ScheduleConfig:
    """Linear-warmup cosine learning rate, cosine weight decay, linear EMA momentum."""

    lr_warmup_frac: ClassVar[float] = 0.1
    total_steps: int
    lr_base: float = 1e-3
    lr_end: float = 1e-6
    weight_decay_init: float = 0.04
    weight_decay_end: float = 0.4
    momentum_init: float = 0.997
    momentum_end: float = 1.0

    def __post_init__(self):
        if self.total_steps < 1:
            raise ValueError("total_steps must be positive")
        for f in fields(self):
            if f.name != "total_steps" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.lr_end > self.lr_base:
            raise ValueError("lr_end must not exceed lr_base")


def momentum_at(step: int, cfg: ScheduleConfig) -> float:
    t = min(max(step, 0), cfg.total_steps) / cfg.total_steps
    return cfg.momentum_init + (cfg.momentum_end - cfg.momentum_init) * t


def lr_at(step: int, cfg: ScheduleConfig) -> float:
    step = min(max(step, 0), cfg.total_steps)
    warmup = round(cfg.lr_warmup_frac * cfg.total_steps)
    if warmup and step <= warmup:
        return cfg.lr_base * step / warmup
    t = (step - warmup) / (cfg.total_steps - warmup)
    return cfg.lr_end + 0.5 * (cfg.lr_base - cfg.lr_end) * (1.0 + math.cos(math.pi * t))


def wd_at(step: int, cfg: ScheduleConfig) -> float:
    t = min(max(step, 0), cfg.total_steps) / cfg.total_steps
    lo, hi = cfg.weight_decay_init, cfg.weight_decay_end
    return hi + 0.5 * (lo - hi) * (1.0 + math.cos(math.pi * t))


def schedule_table(cfg: ScheduleConfig) -> str:
    """CSV `step,lr,wd,momentum` for steps 0..total_steps inclusive."""
    lines = ["step,lr,wd,momentum"]
    for step in range(cfg.total_steps + 1):
        lines.append(f"{step},{lr_at(step, cfg)!r},{wd_at(step, cfg)!r},{momentum_at(step, cfg)!r}")
    return "\n".join(lines) + "\n"


# -------------------------------------------------------------- re-binning


def length_sorted_rebin(
    lengths: Sequence[int],
    batch_size: int,
    group_size: int,
    seed: int | None = None,
) -> tuple[list[list[int]], list[list[int]]]:
    """Sort each window of group_size·batch_size samples by length, then bin.

    Returns (batches, groups): batches hold original sample indices in
    ascending-length order; groups list the batch numbers whose gradients
    belong to one accumulation step, exactly the batches of one window.
    With a seed the incoming order is shuffled first, standing in for the
    upstream loader; without one the given order is consumed as-is.
    """
    if batch_size < 1 or group_size < 1:
        raise ValueError("batch_size and group_size must be at least 1")
    order = list(range(len(lengths)))
    if seed is not None:
        rng_for(seed, "rebin").shuffle(order)
    window = batch_size * group_size
    batches: list[list[int]] = []
    groups: list[list[int]] = []
    for start in range(0, len(order), window):
        chunk = order[start : start + window]
        chunk.sort(key=lambda i: (lengths[i], i))
        first_batch = len(batches)
        for b in range(0, len(chunk), batch_size):
            batches.append(chunk[b : b + batch_size])
        groups.append(list(range(first_batch, len(batches))))
    return batches, groups


def padded_cells(batches: Sequence[Sequence[int]], lengths: Sequence[int]) -> int:
    """Total allocated cells: Σ per batch |batch| · max length in the batch."""
    return sum(len(b) * max(lengths[i] for i in b) for b in batches if b)
