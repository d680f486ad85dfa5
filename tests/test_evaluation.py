"""Metrics, model scoring, exact nearest neighbours, collapse probes."""

import numpy as np
import pytest

from geotile.evaluation import (
    KNN_DEFAULT_K,
    clamp_predictions,
    collapse_metrics,
    harmonic_mean,
    knn,
    mae,
    mse,
    score_models,
    score_table,
)

# Anonymized per-task MAE rows for a nine-model comparison.
BOARD = {
    "pool-baseline": {"buildings": 7.15, "max_speed": 12.38, "signals": 1.01,
                      "bridge": 0.10, "car_bridge": 0.10},
    "model-t": {"buildings": 7.13, "max_speed": 11.5, "signals": 1.68,
                "bridge": 0.17, "car_bridge": 0.14},
    "lmae-baseline": {"buildings": 5.43, "max_speed": 16.05, "signals": 1.72,
                      "bridge": 0.17, "car_bridge": 0.16},
    "model-gt": {"buildings": 4.19, "max_speed": 13.34, "signals": 1.83,
                 "bridge": 0.21, "car_bridge": 0.20},
    "ae-baseline": {"buildings": 3.86, "max_speed": 20.63, "signals": 2.02,
                    "bridge": 0.23, "car_bridge": 0.25},
    "model-ti": {"buildings": 4.02, "max_speed": 20.73, "signals": 2.07,
                 "bridge": 0.24, "car_bridge": 0.24},
    "model-gti": {"buildings": 4.40, "max_speed": 20.76, "signals": 2.07,
                  "bridge": 0.25, "car_bridge": 0.25},
    "vit-baseline": {"buildings": 17.76, "max_speed": 18.04, "signals": 2.39,
                     "bridge": 0.27, "car_bridge": 0.24},
    "dummy": {"buildings": 31.87, "max_speed": 46.83, "signals": 3.08,
              "bridge": 0.32, "car_bridge": 0.38},
}


# ----------------------------------------------------------------- metrics


def test_mae_mse():
    assert mae([1.0, 2.0, 3.0], [2.0, 2.0, 5.0]) == 1.0
    assert mse([1.0, 2.0, 3.0], [2.0, 2.0, 5.0]) == pytest.approx(5.0 / 3.0, rel=1e-15)
    with pytest.raises(ValueError, match="equal"):
        mae([1.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="equal"):
        mse([], [])


def test_clamp_predictions():
    out = clamp_predictions([-200.0, 0.0, 64.0, 500.0], (-100.0, 200.0))
    assert out.tolist() == [-100.0, 0.0, 64.0, 200.0]
    with pytest.raises(ValueError, match="clamp"):
        clamp_predictions([1.0], (1.0, 1.0))


def test_harmonic_mean():
    assert harmonic_mean([1.0, 0.5]) == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert harmonic_mean([2.0, 2.0, 2.0]) == 2.0
    with pytest.raises(ValueError, match="positive"):
        harmonic_mean([1.0, 0.0])
    with pytest.raises(ValueError, match="empty"):
        harmonic_mean([])


# ----------------------------------------------------------------- scoring


def test_score_models_frozen_top_row():
    sb = score_models(BOARD)
    assert sb.best == {"buildings": 3.86, "max_speed": 11.5, "signals": 1.01,
                       "bridge": 0.10, "car_bridge": 0.10}
    assert sb.scores["pool-baseline"] == 0.8433333915947075
    assert sb.ratios["pool-baseline"]["bridge"] == 1.0
    assert sb.ratios["pool-baseline"]["signals"] == 1.0
    assert sb.ratios["ae-baseline"]["buildings"] == 1.0
    assert sb.ratios["model-t"]["max_speed"] == 1.0
    # every other ratio is a strict improvement factor below 1
    for m, row in sb.ratios.items():
        for t, r in row.items():
            assert 0.0 < r <= 1.0
            if BOARD[m][t] != sb.best[t]:
                assert r < 1.0


def test_score_models_scale_invariant_per_task():
    scaled = {m: {t: v * (10.0 if t == "bridge" else 1.0) for t, v in row.items()}
              for m, row in BOARD.items()}
    a = score_models(BOARD)
    b = score_models(scaled)
    for m in BOARD:
        assert b.scores[m] == pytest.approx(a.scores[m], rel=1e-12)


def test_score_models_ranking():
    sb = score_models(BOARD)
    ranked = sorted(sb.scores, key=lambda m: -sb.scores[m])
    assert ranked[0] == "pool-baseline"
    assert ranked[-1] == "dummy"


def test_score_models_rejects_mismatched_tasks():
    bad = {"a": {"t1": 1.0}, "b": {"t2": 1.0}}
    with pytest.raises(ValueError, match="task set"):
        score_models(bad)
    with pytest.raises(ValueError, match="empty"):
        score_models({})


def test_score_table_layout():
    text = score_table(score_models(BOARD))
    lines = text.splitlines()
    assert lines[0].startswith("model")
    assert lines[2].startswith("pool-baseline")
    assert lines[-1].startswith("dummy")
    assert "0.8433" in lines[2]


# -------------------------------------------------------------------- kNN


def test_knn_one_hot_grid():
    corpus = np.eye(5)
    hits = knn(np.eye(5)[0], corpus, k=2, ids=list("abcde"), query_id="a")
    assert [h[0] for h in hits] == ["b", "c"]  # all others tie at sqrt(2); ids break it
    assert hits[0][1] == pytest.approx(np.sqrt(2.0), rel=1e-15)


def test_knn_matches_bruteforce_oracle():
    rng = np.random.default_rng(9)
    for _ in range(100):
        n, d = int(rng.integers(10, 40)), int(rng.integers(2, 6))
        corpus = rng.normal(size=(n, d))
        q = rng.normal(size=d)
        k = int(rng.integers(1, 8))
        got = knn(q, corpus, k=k)
        want = sorted(
            ((float(np.sqrt(((corpus[i] - q) ** 2).sum())), str(i)) for i in range(n)),
            key=lambda item: (item[0], item[1]),
        )[:k]
        assert [(i, d_) for d_, i in want] == got


def test_knn_excludes_self_by_id():
    corpus = np.zeros((4, 3))
    corpus[1] = 1.0
    hits = knn(np.zeros(3), corpus, k=3, ids=["q", "far", "twin", "twin2"], query_id="q")
    assert [h[0] for h in hits] == ["twin", "twin2", "far"]
    assert hits[0][1] == 0.0


def test_knn_cosine_metric():
    corpus = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, 0.0]])
    hits = knn(np.array([2.0, 0.0]), corpus, k=4, metric="cosine")
    assert [h[0] for h in hits] == ["0", "1", "3", "2"]
    assert hits[0][1] == 0.0  # parallel
    assert hits[1][1] == 1.0  # orthogonal
    assert hits[2][1] == 1.0  # zero norm scores cosine 0
    assert hits[3][1] == 2.0  # antiparallel


def test_knn_validation():
    corpus = np.zeros((3, 2))
    with pytest.raises(ValueError, match="at least"):
        knn(np.zeros(2), corpus, k=3, ids=["a", "b", "c"], query_id="a")
    with pytest.raises(ValueError, match="dimension"):
        knn(np.zeros(3), corpus, k=1)
    with pytest.raises(ValueError, match="metric"):
        knn(np.zeros(2), corpus, k=1, metric="manhattan")
    assert KNN_DEFAULT_K == 8


# -------------------------------------------------------- collapse metrics


def test_collapse_metrics_identical_tokens():
    tokens = np.ones((2, 5, 3))
    valid = np.ones((2, 5), dtype=bool)
    stds, cos = collapse_metrics(tokens, valid)
    assert stds.tolist() == [0.0, 0.0, 0.0]
    assert cos == pytest.approx(1.0, abs=1e-12)


def test_collapse_metrics_std_is_population():
    tokens = np.array([[[0.0], [2.0]]])
    valid = np.ones((1, 2), dtype=bool)
    stds, _ = collapse_metrics(tokens, valid)
    assert stds.tolist() == [1.0]  # ddof 0: sqrt(mean of squared deviations)


def test_collapse_metrics_orthogonal_tokens():
    tokens = np.eye(4)[None, :, :]
    valid = np.ones((1, 4), dtype=bool)
    stds, cos = collapse_metrics(tokens, valid)
    assert cos == 0.0
    np.testing.assert_allclose(stds, np.full(4, np.sqrt(3.0) / 4.0), atol=1e-15)


def test_collapse_metrics_zero_norm_pairs():
    tokens = np.zeros((1, 3, 2))
    tokens[0, 0] = [1.0, 0.0]
    valid = np.ones((1, 3), dtype=bool)
    _, cos = collapse_metrics(tokens, valid)
    assert cos == 0.0  # all pairs involve a zero vector


def test_collapse_metrics_sampling_path():
    rng = np.random.default_rng(11)
    tokens = rng.normal(size=(1, 300, 4))
    valid = np.ones((1, 300), dtype=bool)
    # 300 tokens -> 44850 pairs > max_pairs: sampled, seeded, reproducible
    full_std, full_cos = collapse_metrics(tokens, valid, seed=1)
    again_std, again_cos = collapse_metrics(tokens, valid, seed=1)
    other_std, other_cos = collapse_metrics(tokens, valid, seed=2)
    assert np.array_equal(full_std, again_std) and full_cos == again_cos
    assert np.array_equal(full_std, other_std)  # stds ignore sampling
    assert full_cos != other_cos
    exact = collapse_metrics(tokens, valid, max_pairs=10**9)[1]
    assert abs(full_cos - exact) < 0.02


def test_collapse_metrics_single_token():
    tokens = np.ones((1, 1, 2))
    valid = np.ones((1, 1), dtype=bool)
    stds, cos = collapse_metrics(tokens, valid)
    assert stds.tolist() == [0.0, 0.0] and cos == 0.0
    with pytest.raises(ValueError, match="valid"):
        collapse_metrics(tokens, np.zeros((1, 1), dtype=bool))
