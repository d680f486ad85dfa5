"""Metrics, harmonic-mean model scoring, exact kNN, and collapse monitoring."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

KNN_DEFAULT_K = 8


def mae(preds: Sequence[float], labels: Sequence[float]) -> float:
    p, y = np.asarray(preds, dtype=np.float64), np.asarray(labels, dtype=np.float64)
    if p.shape != y.shape or p.size == 0:
        raise ValueError("predictions and labels must have equal non-zero length")
    return float(np.abs(y - p).mean())


def mse(preds: Sequence[float], labels: Sequence[float]) -> float:
    p, y = np.asarray(preds, dtype=np.float64), np.asarray(labels, dtype=np.float64)
    if p.shape != y.shape or p.size == 0:
        raise ValueError("predictions and labels must have equal non-zero length")
    return float(((y - p) ** 2).mean())


def clamp_predictions(preds: Sequence[float], clamp_range: tuple[float, float]) -> np.ndarray:
    lo, hi = clamp_range
    if not lo < hi:
        raise ValueError(f"invalid clamp range {clamp_range}")
    return np.clip(np.asarray(preds, dtype=np.float64), lo, hi)


def harmonic_mean(values: Sequence[float]) -> float:
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("harmonic mean of an empty sequence")
    if not np.all(v > 0):
        raise ValueError("harmonic mean requires strictly positive values")
    return float(v.size / np.sum(1.0 / v))


@dataclass
class ScoreBoard:
    tasks: tuple[str, ...]
    ratios: dict[str, dict[str, float]]  # model -> task -> best/model
    scores: dict[str, float]  # model -> harmonic mean over tasks


def score_models(board: Mapping[str, Mapping[str, float]]) -> ScoreBoard:
    """Harmonic mean of per-task (best MAE / model MAE) ratios.

    Every model must cover the same tasks; the per-task best is the minimum
    over all rows, so the ratio of a best performer is exactly 1.
    """
    models = sorted(board)
    if not models:
        raise ValueError("empty scoreboard")
    tasks = tuple(sorted(board[models[0]]))
    for m in models:
        if tuple(sorted(board[m])) != tasks:
            raise ValueError(f"model {m!r} does not cover the common task set")
    best = {t: min(board[m][t] for m in models) for t in tasks}
    ratios = {}
    scores = {}
    for m in models:
        row = {}
        for t in tasks:
            value = board[m][t]
            row[t] = 1.0 if value == best[t] else best[t] / value
        ratios[m] = row
        scores[m] = harmonic_mean(list(row.values()))
    return ScoreBoard(tasks=tasks, ratios=ratios, scores=scores)


def score_table(sb: ScoreBoard) -> str:
    """Plain-text scoreboard, best score first."""
    order = sorted(sb.scores, key=lambda m: (-sb.scores[m], m))
    width = max(len("model"), *(len(m) for m in order))
    header = "model".ljust(width) + "  " + "  ".join(f"{t:>12}" for t in sb.tasks) + f"  {'score':>8}"
    lines = [header, "-" * len(header)]
    for m in order:
        cells = "  ".join(f"{sb.ratios[m][t]:>12.4f}" for t in sb.tasks)
        lines.append(m.ljust(width) + "  " + cells + f"  {sb.scores[m]:>8.4f}")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------- kNN


def knn(
    query: np.ndarray,
    corpus: np.ndarray,
    k: int = KNN_DEFAULT_K,
    metric: str = "l2",
    *,
    ids: Sequence[str],
    query_id: str,
) -> list[tuple[str, float]]:
    """Exact k nearest corpus rows, named by ids; ties break by id order,
    and the row named query_id is excluded.

    metric "l2" is Euclidean distance, "cosine" is 1 − cosine similarity.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    corpus = np.asarray(corpus, dtype=np.float64)
    query = np.asarray(query, dtype=np.float64)
    if corpus.ndim != 2 or query.shape != (corpus.shape[1],):
        raise ValueError("query dimension must match corpus columns")
    if len(ids) != corpus.shape[0]:
        raise ValueError("ids must match corpus rows")
    if metric == "l2":
        dists = np.sqrt(((corpus - query) ** 2).sum(axis=1))
    elif metric == "cosine":
        qn = np.linalg.norm(query)
        cn = np.linalg.norm(corpus, axis=1)
        denom = qn * cn
        sims = np.where(denom > 0, corpus @ query / np.where(denom > 0, denom, 1.0), 0.0)
        dists = 1.0 - sims
    else:
        raise ValueError(f"unknown metric {metric!r}")
    candidates = [(float(dists[i]), ids[i]) for i in range(corpus.shape[0]) if ids[i] != query_id]
    if len(candidates) < k:
        raise ValueError(f"need at least {k} corpus rows after self-exclusion")
    candidates.sort(key=lambda item: (item[0], item[1]))
    return [(cid, dist) for dist, cid in candidates[:k]]


# ------------------------------------------------------- collapse metrics


def collapse_metrics(
    tokens: np.ndarray,
    valid: np.ndarray,
    seed: int = 0,
    max_pairs: int = 10_000,
) -> tuple[np.ndarray, float]:
    """Per-dimension std and mean pairwise cosine over valid tokens.

    Every pair is used when there are at most max_pairs of them; otherwise
    max_pairs distinct-index pairs are drawn uniformly with replacement
    across pairs, seeded.  Zero-norm pairs contribute cosine 0.
    """
    z = tokens[valid].astype(np.float64)
    n = z.shape[0]
    if n == 0:
        raise ValueError("no valid tokens")
    stds = z.std(axis=0)
    if n < 2:
        return stds, 0.0
    total = n * (n - 1) // 2
    if total <= max_pairs:
        left, right = np.triu_indices(n, k=1)
    else:
        rng = np.random.default_rng(seed)
        left = rng.integers(0, n, size=max_pairs)
        right = rng.integers(0, n, size=max_pairs)
        clash = left == right
        while clash.any():
            right[clash] = rng.integers(0, n, size=int(clash.sum()))
            clash = left == right
    dots = (z[left] * z[right]).sum(axis=1)
    norms = np.linalg.norm(z[left], axis=1) * np.linalg.norm(z[right], axis=1)
    cosines = np.where(norms > 0, dots / np.where(norms > 0, norms, 1.0), 0.0)
    return stds, float(cosines.mean())
