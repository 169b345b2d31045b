import math

import numpy as np
import pytest

from soupadapter.errors import DegenerateVector, ShapeMismatch
from soupadapter.numerics import (OptimState, adamw_step,
                                  cross_entropy_label_smoothing_batch,
                                  finite_difference_check, gelu, gelu_grad,
                                  normalize_rows, softmax)
from soupadapter.rng import stream


# ------------------------------------------------------------------- gelu

def test_gelu_fixed_points():
    assert gelu(0.0) == 0.0
    assert abs(gelu(10.0) - 10.0) < 1e-9
    # 0.5 * (1 + erf(1/sqrt(2))) evaluated with the math.erf oracle
    assert gelu(1.0) == pytest.approx(0.8413447460685429, abs=1e-12)
    assert gelu(1.0) == pytest.approx(
        0.5 * (1 + math.erf(1 / math.sqrt(2))), abs=1e-15)


def test_gelu_monotone_from_minus_three_quarters():
    xs = np.linspace(-0.75, 6.0, 2000)
    ys = gelu(xs)
    assert np.all(np.diff(ys) >= 0)


def test_gelu_grad_matches_finite_differences():
    xs = stream(0, "gelu").normal_array(50) * 2
    h = 1e-6
    fd = (gelu(xs + h) - gelu(xs - h)) / (2 * h)
    assert np.allclose(gelu_grad(xs), fd, atol=1e-8)


# --------------------------------------------------------------- normalize

def test_normalize_rows_345():
    out = normalize_rows(np.array([[3.0, 4.0]]))
    assert np.allclose(out, [[0.6, 0.8]], atol=1e-15)


def test_normalize_rows_unit_row_unchanged():
    row = np.array([1.0, 0.0, 0.0])
    assert np.allclose(normalize_rows(row), row, atol=1e-15)


def test_normalize_rows_zero_raises():
    with pytest.raises(DegenerateVector):
        normalize_rows(np.array([[0.0, 0.0]]))


def test_normalize_rows_idempotent():
    m = stream(1, "norm").normal_array(60).reshape(10, 6) * 3
    once = normalize_rows(m)
    twice = normalize_rows(once)
    assert np.max(np.abs(once - twice)) < 1e-12


# ----------------------------------------------------------------- softmax

def test_softmax_uniform_for_constant_logits():
    for c in (-50.0, 0.0, 3.7, 400.0):
        assert np.allclose(softmax(np.full(3, c)), 1 / 3, atol=1e-12)


def test_softmax_shift_invariance():
    z = stream(2, "soft").normal_array(8)
    for c in (-100.0, 0.5, 250.0):
        assert np.max(np.abs(softmax(z + c) - softmax(z))) < 1e-12


def test_softmax_closed_form():
    # e^0 / (e^0 + 3) = 1/4
    assert np.allclose(softmax(np.array([0.0, math.log(3.0)])),
                       [0.25, 0.75], atol=1e-12)


def test_softmax_sums_to_one():
    z = stream(3, "soft").normal_array(11) * 40
    assert abs(softmax(z).sum() - 1.0) < 1e-10
    assert np.all(softmax(z) > 0)


# ----------------------------------------------------------- cross entropy

def ce_one(logits, target, eps):
    """Loss and gradient of one sample, through a one-row batch."""
    losses, grads = cross_entropy_label_smoothing_batch(
        np.asarray(logits)[np.newaxis, :], np.array([target]), eps)
    return float(losses[0]), grads[0]


def test_ce_uniform_prediction_gives_log2():
    for eps in (0.0, 0.1, 0.5):
        loss, _ = ce_one(np.zeros(2), 0, eps)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)


def test_ce_confident_correct_is_near_zero():
    loss, _ = ce_one(np.array([100.0, 0.0]), 0, 0.0)
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_ce_smoothed_value_from_direct_formula():
    # hand evaluation of -sum q_i log softmax_i for m=3, logits (1,0,0),
    # target 0, eps=0.1 (frozen from the two-sum oracle)
    loss, _ = ce_one(np.array([1.0, 0.0, 0.0]), 0, 0.1)
    assert loss == pytest.approx(0.6181113805987176, abs=1e-12)


def test_ce_gradient_is_softmax_minus_q():
    z = stream(4, "ce").normal_array(5)
    loss, grad = ce_one(z, 2, 0.1)
    q = np.full(5, 0.1 / 5)
    q[2] += 0.9
    assert np.allclose(grad, softmax(z) - q, atol=1e-14)
    assert abs(grad.sum()) < 1e-12


def test_ce_gradient_matches_finite_differences():
    rng = stream(5, "ce")
    for trial in range(5):
        z = rng.normal_array(10) * 2

        def loss_fn(params):
            loss, grad = ce_one(params["z"], 3, 0.1)
            return loss, {"z": grad}

        err = finite_difference_check(loss_fn, {"z": z.copy()}, seed=trial)
        assert err < 1e-6


def test_ce_batch_matches_single():
    # each row of a batch against -q . log softmax and softmax - q for
    # that row alone
    rng = stream(6, "ce")
    logits = rng.normal_array(12).reshape(3, 4)
    targets = np.array([0, 3, 1])
    losses, grads = cross_entropy_label_smoothing_batch(logits, targets, 0.1)
    for i in range(3):
        q = np.full(4, 0.1 / 4)
        q[targets[i]] += 0.9
        p = softmax(logits[i])
        assert losses[i] == pytest.approx(-float(q @ np.log(p)), abs=1e-14)
        assert np.allclose(grads[i], p - q, atol=1e-14)
        loss_i, grad_i = ce_one(logits[i], targets[i], 0.1)
        assert losses[i] == pytest.approx(loss_i, abs=1e-14)
        assert np.allclose(grads[i], grad_i, atol=1e-14)


def test_ce_validates_inputs():
    with pytest.raises(ValueError):
        ce_one(np.zeros(3), 0, 1.0)
    with pytest.raises(ValueError):
        ce_one(np.zeros(3), 3, 0.1)


@pytest.mark.parametrize("targets", [[0, -1], [0, 3]])
def test_ce_batch_rejects_targets_outside_the_classes(targets):
    with pytest.raises(ValueError, match="target class out of range"):
        cross_entropy_label_smoothing_batch(np.zeros((2, 3)),
                                            np.array(targets), 0.1)


@pytest.mark.parametrize("eps", [-0.1, 1.0, 1.5, float("nan")])
def test_ce_batch_rejects_smoothing_outside_0_1(eps):
    with pytest.raises(ValueError, match="label smoothing"):
        cross_entropy_label_smoothing_batch(np.zeros((2, 3)),
                                            np.array([0, 1]), eps)


# ------------------------------------------------------------------- adamw

def test_adamw_zero_grad_zero_decay_is_identity():
    params = {"w": np.array([1.0, -2.0, 0.5])}
    before = params["w"].copy()
    state = OptimState.init(params, lr=0.1, weight_decay=0.0)
    adamw_step(params, {"w": np.zeros(3)}, state)
    adamw_step(params, {"w": np.zeros(3)}, state)
    assert np.array_equal(params["w"], before)


def test_adamw_single_step_hand_value():
    # w=1, g=1, lr=0.1, wd=0: bias-corrected m-hat = 1, v-hat = 1,
    # so w <- 1 - 0.1 * 1/(1 + 1e-8)
    params = {"w": np.array([1.0])}
    state = OptimState.init(params, lr=0.1, weight_decay=0.0)
    adamw_step(params, {"w": np.array([1.0])}, state)
    assert params["w"][0] == pytest.approx(0.900000001, abs=1e-15)
    assert state.step == 1


def test_adamw_decoupled_decay_applies_before_update():
    params = {"w": np.array([2.0])}
    state = OptimState.init(params, lr=0.1, weight_decay=0.5)
    adamw_step(params, {"w": np.array([0.0])}, state)
    # zero gradient: only the decay factor (1 - lr*wd) acts
    assert params["w"][0] == pytest.approx(2.0 * (1 - 0.1 * 0.5), abs=1e-15)


def test_adamw_converges_on_quadratic():
    target = stream(7, "adamw").normal_array(5)
    params = {"w": np.zeros(5)}
    state = OptimState.init(params, lr=0.05, weight_decay=0.0)
    for _ in range(500):
        grads = {"w": 2.0 * (params["w"] - target)}
        adamw_step(params, grads, state)
    assert np.linalg.norm(params["w"] - target) < 1e-3


def test_adamw_shape_mismatch():
    params = {"w": np.zeros(3)}
    state = OptimState.init(params, lr=0.1, weight_decay=0.0)
    with pytest.raises(ShapeMismatch):
        adamw_step(params, {"w": np.zeros(4)}, state)
    with pytest.raises(ShapeMismatch):
        adamw_step(params, {"v": np.zeros(3)}, state)


def test_optim_state_validates_betas():
    with pytest.raises(ValueError):
        OptimState.init({"w": np.zeros(1)}, lr=0.1, weight_decay=0.0, beta1=1.0)


# ---------------------------------------------------------- gradient check

def test_fd_check_linear_loss_is_exact():
    c = np.array([0.3, -1.2, 2.0])

    def loss_fn(params):
        return float(params["w"] @ c), {"w": c.copy()}

    err = finite_difference_check(loss_fn, {"w": np.array([1.0, 2.0, 3.0])})
    assert err < 1e-8


def test_fd_check_constant_loss():
    def loss_fn(params):
        return 5.0, {"w": np.zeros(4)}

    err = finite_difference_check(loss_fn, {"w": np.ones(4)})
    assert err < 1e-8


def test_fd_check_flags_wrong_gradient():
    c = np.array([1.0, 1.0])

    def loss_fn(params):
        return float(params["w"] @ c), {"w": 2.0 * c}

    err = finite_difference_check(loss_fn, {"w": np.zeros(2)})
    assert err > 0.4


def test_fd_check_samples_large_parameter_sets():
    big = stream(8, "fd").normal_array(400).reshape(20, 20)

    def loss_fn(params):
        return float(np.sum(params["w"] ** 2)), {"w": 2.0 * params["w"]}

    err = finite_difference_check(loss_fn, {"w": big}, sample_size=50)
    assert err < 1e-6
