"""Loss kernels, schedules and length-aware re-binning."""

import math

import numpy as np
import pytest

from geotile.seeds import rng_for
from geotile.training import (
    ScheduleConfig,
    ema_update,
    huber_masked,
    length_sorted_rebin,
    lr_at,
    momentum_at,
    padded_cells,
    schedule_table,
    total_loss,
    vicreg_var_cov,
    wd_at,
)


# ------------------------------------------------------------- huber loss


def test_huber_scalar_fixture():
    pred = np.array([[[1.0]]])
    target = np.array([[[0.5]]])
    valid = np.ones((1, 1), dtype=bool)
    # |d| = 0.5 < beta = 2: 0.5 * 0.25 / 2
    assert huber_masked(pred, target, valid, beta=2.0) == 0.0625


def test_huber_branches():
    pred = np.array([[[0.0], [10.0]]])
    target = np.array([[[1.0], [0.0]]])
    valid = np.ones((1, 2), dtype=bool)
    # quadratic branch: 0.5/2 = 0.25; linear branch: 10 - 1 = 9
    assert huber_masked(pred, target, valid, beta=2.0) == (0.25 + 9.0) / 2


def test_huber_per_token_denominator():
    rng = np.random.default_rng(0)
    pred = rng.normal(size=(2, 3, 4))
    target = rng.normal(size=(2, 3, 4))
    valid = np.ones((2, 3), dtype=bool)
    assert huber_masked(pred, target, valid, per_token=True) == pytest.approx(
        huber_masked(pred, target, valid) * 4, rel=1e-15
    )


def test_huber_small_beta_approaches_mae():
    rng = np.random.default_rng(1)
    pred = rng.normal(size=(1, 50, 1))
    target = rng.normal(size=(1, 50, 1))
    valid = np.ones((1, 50), dtype=bool)
    mae = float(np.abs(pred - target).mean())
    assert huber_masked(pred, target, valid, beta=1e-12) == pytest.approx(mae, abs=1e-9)


def test_huber_padding_invariance_exact():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n, t, d = (int(x) for x in rng.integers(1, 6, 3))
        pred = rng.normal(size=(n, t, d))
        target = rng.normal(size=(n, t, d))
        valid = rng.uniform(size=(n, t)) < 0.7
        valid[:, 0] = True
        base = huber_masked(pred, target, valid)

        pad = int(rng.integers(1, 5))
        pred_p = np.concatenate([pred, rng.normal(size=(n, pad, d))], axis=1)
        target_p = np.concatenate([target, rng.normal(size=(n, pad, d))], axis=1)
        valid_p = np.concatenate([valid, np.zeros((n, pad), dtype=bool)], axis=1)
        assert huber_masked(pred_p, target_p, valid_p) == base


def test_huber_no_valid_tokens_is_zero(caplog):
    valid = np.zeros((1, 2), dtype=bool)
    with caplog.at_level("WARNING", logger="geotile.training"):
        for dtype in (np.float32, np.float64):
            pred = np.ones((1, 2, 3), dtype=dtype)
            for per_token in (False, True):
                got = huber_masked(pred, pred * 2, valid, per_token=per_token)
                assert got == reference_huber(pred, pred * 2, valid, per_token=per_token) == 0.0
    assert any("zero valid" in r.message for r in caplog.records)


def test_huber_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        huber_masked(np.zeros((1, 2, 3)), np.zeros((1, 2, 4)), np.ones((1, 2), dtype=bool))


@pytest.mark.parametrize("beta", [0.0, -1.0, float("nan"), float("inf")])
def test_huber_beta_must_be_positive_and_finite(beta):
    # beta 0 divided by zero, -1 gave 1.5 for a unit error, and NaN gave NaN.
    pred = np.ones((1, 1, 1))
    with pytest.raises(ValueError, match=f"beta must be positive and finite, got {beta}"):
        huber_masked(pred, pred * 2, np.ones((1, 1), dtype=bool), beta=beta)


# ------------------------------------------- kernels against textbook forms
# huber_masked and vicreg_var_cov work in place to spare full-size temporaries;
# these are the plain expressions they replaced, and the kernels must equal
# them bit for bit.


def reference_huber(pred, target, valid, beta=2.0, per_token=False):
    z_pred = pred[valid]
    z_target = target[valid]
    n_tokens = z_pred.shape[0]
    if n_tokens == 0:
        return 0.0
    d = np.abs(z_pred.astype(np.float64) - z_target.astype(np.float64))
    loss = np.where(d < beta, 0.5 * d * d / beta, d - 0.5 * beta)
    denom = n_tokens if per_token else n_tokens * pred.shape[-1]
    return float(loss.sum() / denom)


def reference_vicreg(tokens, valid):
    z = tokens[valid].astype(np.float64)
    n, d = z.shape
    std = np.sqrt(z.var(axis=0, ddof=1) + 1e-4)
    var_loss = float(np.maximum(0.0, 1.0 - std).mean())
    centered = z - z.mean(axis=0)
    cov = (centered.T @ centered) / (n - 1)
    cov_sq = cov * cov
    return var_loss, float((cov_sq.sum() - np.trace(cov_sq)) / d)


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def _random_case(rng, dtype):
    n, t, d = int(rng.integers(1, 9)), int(rng.integers(1, 60)), int(rng.integers(1, 70))
    scale = 10.0 ** rng.uniform(-3, 2)
    pred = (rng.normal(size=(n, t, d)) * scale).astype(dtype)
    target = (rng.normal(size=(n, t, d)) * scale).astype(dtype)
    valid = rng.uniform(size=(n, t)) < rng.uniform(0.2, 1.0)
    return pred, target, valid, scale


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_kernels_equal_reference_on_seeded_shapes(dtype):
    rng = np.random.default_rng(11)
    for _ in range(150):
        pred, target, valid, scale = _random_case(rng, dtype)
        for beta in (2.0, 0.5, scale, 1e-12):
            for per_token in (False, True):
                assert huber_masked(pred, target, valid, beta, per_token) == reference_huber(
                    pred, target, valid, beta, per_token)
        if valid.sum() >= 2:
            assert vicreg_var_cov(pred, valid) == reference_vicreg(pred, valid)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("per_token", [False, True])
def test_huber_equals_reference_at_and_around_beta(dtype, per_token):
    beta = 2.0
    below = np.nextafter(dtype(beta), dtype(0))
    above = np.nextafter(dtype(beta), dtype(4))
    diffs = np.array([0.0, 1e-3, 1.0, below, beta, above, 3.0, 1e3], dtype=dtype)
    pred = np.stack([diffs, -diffs])[..., None].repeat(3, axis=-1)
    target = np.zeros_like(pred)
    valid = np.ones(pred.shape[:2], dtype=bool)
    got = huber_masked(pred, target, valid, beta, per_token)
    assert got == reference_huber(pred, target, valid, beta, per_token)
    # all-linear: every |d| but the zeros is at or above a tiny beta
    assert huber_masked(pred, target, valid, 1e-12, per_token) == reference_huber(
        pred, target, valid, 1e-12, per_token)


@pytest.mark.parametrize("per_token", [False, True])
def test_huber_equals_reference_at_float64_extremes(per_token):
    # 0.5 * d * d / beta rounds differently from d * d * 0.5 only where a
    # product leaves the normal range: d * d subnormal, or past the largest
    # double while still under a huge beta.
    rng = np.random.default_rng(13)
    tiny = rng.uniform(1e-162, 1e-154, size=(3, 7, 5))
    huge = rng.uniform(1e153, 1.8e154, size=(3, 7, 5))
    valid = np.ones((3, 7), dtype=bool)
    for diffs, beta in ((tiny, 2.0), (huge, 1e300)):
        zeros = np.zeros_like(diffs)
        assert huber_masked(diffs, zeros, valid, beta, per_token) == reference_huber(
            diffs, zeros, valid, beta, per_token)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("per_token", [False, True])
def test_huber_equals_reference_on_inf_and_nan(dtype, per_token):
    rng = np.random.default_rng(12)
    valid = np.ones((2, 5), dtype=bool)
    valid[1, 3:] = False
    for special in (np.inf, -np.inf, np.nan):
        for where in ((0, 1, 2), (1, 4, 0)):  # a valid cell, and a padding cell
            pred = rng.normal(size=(2, 5, 4)).astype(dtype)
            target = rng.normal(size=(2, 5, 4)).astype(dtype)
            pred[where] = special
            got = huber_masked(pred, target, valid, per_token=per_token)
            assert _same(got, reference_huber(pred, target, valid, per_token=per_token))
    pred[0, 0, 0], target[0, 0, 0] = np.inf, np.inf
    with np.errstate(invalid="ignore"):  # inf - inf is NaN
        assert math.isnan(huber_masked(pred, target, valid, per_token=per_token))


# ----------------------------------------------------------------- vicreg


def test_vicreg_collapse_fixture():
    tokens = np.ones((4, 8, 16))
    valid = np.ones((4, 8), dtype=bool)
    var, cov = vicreg_var_cov(tokens, valid)
    # identical tokens: std = sqrt(eps) = 0.01, hinge = 0.99; covariance 0
    assert var == pytest.approx(0.99, abs=1e-12)
    assert cov == 0.0


def test_vicreg_matches_double_loop_oracle():
    rng = np.random.default_rng(3)
    tokens = rng.normal(size=(4, 16, 16))
    valid = rng.uniform(size=(4, 16)) < 0.8
    valid[0, :2] = True
    var, cov = vicreg_var_cov(tokens, valid)

    z = tokens[valid]
    n, d = z.shape
    mean = z.sum(axis=0) / n
    want_var = 0.0
    for j in range(d):
        s = sum((z[i, j] - mean[j]) ** 2 for i in range(n)) / (n - 1)
        want_var += max(0.0, 1.0 - math.sqrt(s + 1e-4))
    want_var /= d
    want_cov = 0.0
    for a in range(d):
        for b in range(d):
            if a == b:
                continue
            c = sum((z[i, a] - mean[a]) * (z[i, b] - mean[b]) for i in range(n)) / (n - 1)
            want_cov += c * c
    want_cov /= d
    assert var == pytest.approx(want_var, abs=1e-6)
    assert cov == pytest.approx(want_cov, abs=1e-6)


def test_vicreg_spread_data_has_low_loss():
    rng = np.random.default_rng(4)
    tokens = rng.normal(size=(8, 32, 8))
    valid = np.ones((8, 32), dtype=bool)
    var, cov = vicreg_var_cov(tokens, valid)
    assert var < 0.05
    assert cov < 0.05


def test_vicreg_needs_two_tokens():
    tokens = np.zeros((1, 4, 8))
    valid = np.zeros((1, 4), dtype=bool)
    valid[0, 0] = True
    with pytest.raises(ValueError, match="2 valid"):
        vicreg_var_cov(tokens, valid)


def test_total_loss_weighting():
    assert total_loss(1.0, 0.5, 0.25) == 1.0 + 0.05 * 0.75
    assert total_loss(1.0, 0.5, 0.25, vicreg_beta=0.0) == 1.0


def test_ema_update():
    target = np.array([1.0, 2.0])
    online = np.array([3.0, 6.0])
    out = ema_update(target, online, momentum=0.9)
    np.testing.assert_allclose(out, [1.2, 2.4], atol=1e-15)
    assert ema_update(target, online, momentum=1.0).tolist() == [1.0, 2.0]
    assert ema_update(target, online, momentum=0.0).tolist() == [3.0, 6.0]
    with pytest.raises(ValueError, match="shape"):
        ema_update(np.zeros(2), np.zeros(3), 0.9)


# -------------------------------------------------------------- schedules


def test_lr_schedule_knots():
    cfg = ScheduleConfig(total_steps=1000)
    assert lr_at(0, cfg) == 0.0
    assert lr_at(100, cfg) == 0.001  # warmup = round(0.1 * 1000)
    assert lr_at(1000, cfg) == pytest.approx(1e-6, abs=1e-18)
    assert lr_at(50, cfg) == pytest.approx(0.0005, abs=1e-18)
    # cosine midpoint between warmup and the end
    assert lr_at(550, cfg) == pytest.approx((0.001 + 1e-6) / 2, abs=1e-12)


def test_lr_monotone_after_warmup():
    cfg = ScheduleConfig(total_steps=400)
    warmup = round(0.1 * 400)
    values = [lr_at(s, cfg) for s in range(401)]
    assert all(a <= b for a, b in zip(values[:warmup], values[1 : warmup + 1]))
    assert all(a >= b for a, b in zip(values[warmup:], values[warmup + 1 :]))
    assert lr_at(-5, cfg) == values[0]
    assert lr_at(10_000, cfg) == values[-1]


def test_momentum_linear_endpoints():
    cfg = ScheduleConfig(total_steps=1000)
    assert momentum_at(0, cfg) == 0.997
    assert momentum_at(1000, cfg) == 1.0
    assert momentum_at(500, cfg) == pytest.approx(0.9985, abs=1e-15)


def test_weight_decay_cosine_endpoints():
    cfg = ScheduleConfig(total_steps=1000)
    assert wd_at(0, cfg) == pytest.approx(0.04, abs=1e-9)
    assert wd_at(1000, cfg) == pytest.approx(0.4, abs=1e-9)
    mid = wd_at(500, cfg)
    assert mid == pytest.approx(0.22, abs=1e-9)


def test_weight_decay_cosine_is_slow_then_fast():
    cfg = ScheduleConfig(total_steps=1000)
    early = wd_at(100, cfg) - wd_at(0, cfg)
    middle = wd_at(550, cfg) - wd_at(450, cfg)
    assert early < middle


def test_schedule_table_format():
    cfg = ScheduleConfig(total_steps=10)
    text = schedule_table(cfg)
    lines = text.splitlines()
    assert lines[0] == "step,lr,wd,momentum"
    assert len(lines) == 12
    step, lr, wd, mom = lines[1].split(",")
    assert (step, lr) == ("0", "0.0")
    assert float(wd) == wd_at(0, cfg) and float(mom) == 0.997
    last = lines[-1].split(",")
    assert last[0] == "10" and float(last[3]) == 1.0


def test_schedule_config_validation():
    with pytest.raises(ValueError, match="total_steps"):
        ScheduleConfig(total_steps=0)
    with pytest.raises(ValueError, match="lr_end"):
        ScheduleConfig(total_steps=10, lr_base=1e-6, lr_end=1e-3)
    # The warmup fraction is fixed, and weight decay is always cosine.
    assert ScheduleConfig(total_steps=10).lr_warmup_frac == 0.1
    with pytest.raises(TypeError, match="lr_warmup_frac"):
        ScheduleConfig(total_steps=10, lr_warmup_frac=0.2)
    with pytest.raises(TypeError, match="weight_decay_shape"):
        ScheduleConfig(total_steps=10, weight_decay_shape="linear")


# -------------------------------------------------------------- re-binning


def test_rebin_toy_window():
    lengths = [1, 2, 3, 4, 5, 6, 7, 8]
    batches, groups = length_sorted_rebin(lengths, batch_size=2, group_size=4)
    assert batches == [[0, 1], [2, 3], [4, 5], [6, 7]]
    assert groups == [[0, 1, 2, 3]]
    assert padded_cells(batches, lengths) == 2 * 2 + 4 * 2 + 6 * 2 + 8 * 2


def test_rebin_sorts_within_window():
    lengths = [8, 1, 6, 3, 2, 7, 4, 5]
    batches, groups = length_sorted_rebin(lengths, batch_size=2, group_size=4)
    assert [sorted(lengths[i] for i in b) for b in batches] == [[1, 2], [3, 4], [5, 6], [7, 8]]
    assert groups == [[0, 1, 2, 3]]
    assert padded_cells(batches, lengths) == 40


def test_rebin_beats_arrival_order():
    rng = np.random.default_rng(5)
    lengths = [int(x) for x in rng.integers(1, 200, 256)]
    sorted_batches, _ = length_sorted_rebin(lengths, 8, 4)
    naive = [list(range(s, min(s + 8, 256))) for s in range(0, 256, 8)]
    assert padded_cells(sorted_batches, lengths) <= padded_cells(naive, lengths)


def test_rebin_partial_tail_window():
    lengths = [5, 1, 4, 2, 3]
    batches, groups = length_sorted_rebin(lengths, batch_size=2, group_size=2)
    # first window [5,1,4,2] sorts to 1,2,4,5; the tail keeps its own window
    assert batches == [[1, 3], [2, 0], [4]]
    assert groups == [[0, 1], [2]]


def test_rebin_seeded_shuffle_preserves_multiset():
    rng = np.random.default_rng(6)
    lengths = [int(x) for x in rng.integers(1, 50, 100)]
    batches, groups = length_sorted_rebin(lengths, 4, 2, seed=13)
    flat = sorted(i for b in batches for i in b)
    assert flat == list(range(100))
    assert sorted(b for g in groups for b in g) == list(range(len(batches)))
    again, _ = length_sorted_rebin(lengths, 4, 2, seed=13)
    assert again == batches
    different, _ = length_sorted_rebin(lengths, 4, 2, seed=14)
    assert different != batches
    unshuffled, _ = length_sorted_rebin(lengths, 4, 2)
    assert unshuffled != batches


def test_rebin_ties_break_by_index():
    lengths = [3, 3, 3, 3]
    batches, _ = length_sorted_rebin(lengths, 2, 2)
    assert batches == [[0, 1], [2, 3]]


def test_rebin_validation():
    with pytest.raises(ValueError, match="at least 1"):
        length_sorted_rebin([1, 2], 0, 1)
