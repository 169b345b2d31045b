import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (adamw_step_whole, cross_entropy_two_exp,
                     finite_difference_check, softmax)
from soupadapter import numerics
from soupadapter.dataio import BLOCK_ROWS
from soupadapter.errors import DegenerateVector, ShapeMismatch
from soupadapter.numerics import (OptimState, adamw_step,
                                  cross_entropy_label_smoothing_batch, erf,
                                  gelu, gelu_grad, normal_cdf, normalize_rows,
                                  row_norms, row_spans, single_blas_thread)
from soupadapter.rng import stream
from test_fileio import FUZZ


# -------------------------------------------------------------------- erf

def _same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    nan = np.isnan(want)
    return got.shape == want.shape and bool(np.all(np.isnan(got) == nan)) \
        and np.array_equal(got[~nan].view(np.uint64),
                           want[~nan].view(np.uint64))


def test_erf_gelu_and_gelu_grad_match_scipy_bit_for_bit():
    special = pytest.importorskip("scipy.special")  # the oracle only
    rng = stream(8, "erf")
    sweep = np.concatenate([rng.random_array(200_000) * 80.0 - 40.0,
                            rng.random_array(100_000) * 3.0 - 1.5])
    sub = np.finfo(np.float64).smallest_subnormal
    edges = np.array([0.0, -0.0, 1.0, -1.0, np.nextafter(1.0, 2.0),
                      -np.nextafter(1.0, 2.0), 8.0, -8.0,
                      np.nextafter(8.0, 0.0), sub, -sub, 3e-310, -3e-310,
                      np.inf, -np.inf, 1e300, -1e300, np.nan])
    xs = np.concatenate([edges, sweep])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _same_bits(erf(xs), special.erf(xs))
        for x in edges:  # scalar inputs
            assert _same_bits(erf(x), special.erf(x))
        assert _same_bits(erf(xs.reshape(-1, 6)),
                          special.erf(xs).reshape(-1, 6))
        cdf = 0.5 * (1.0 + special.erf(sweep / math.sqrt(2.0)))
        want_gelu = 0.5 * sweep * (1.0 + special.erf(sweep / math.sqrt(2.0)))
        want_grad = cdf + sweep * np.exp(-0.5 * sweep * sweep) \
            * (1.0 / math.sqrt(2.0 * math.pi))
        assert _same_bits(gelu(sweep), want_gelu)
        assert _same_bits(gelu_grad(sweep), want_grad)
        shared = normal_cdf(sweep)  # adapter_backward's one erf
        assert _same_bits(gelu(sweep, shared), want_gelu)
        assert _same_bits(gelu_grad(sweep, shared), want_grad)


# ------------------------------------------------------------ chunking

def _whole_array_formulas(x):
    """erf, normal_cdf and gelu unchunked, with scipy's erf over the whole
    array."""
    special = pytest.importorskip("scipy.special")
    cdf = 0.5 * (1.0 + special.erf(x / math.sqrt(2.0)))
    with np.errstate(invalid="ignore"):  # -inf * 0
        return special.erf(x), cdf, x * cdf


_EDGES = [0.0, -0.0, 1.0, -1.5, 1.4142135623730951, 1.4142135623730954,
          3.0, -11.3, 8.0 * math.sqrt(2.0), 40.0, np.nan, np.inf, -np.inf]


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(values=st.lists(st.one_of(st.floats(-12.0, 12.0),
                                 st.sampled_from(_EDGES)),
                       min_size=1, max_size=120),
       chunk=st.integers(1, 50), alias=st.booleans())
def test_chunked_cdf_and_gelu_equal_the_whole_array_formulas(values, chunk,
                                                              alias):
    x = np.array(values)
    want_erf, want_cdf, want_gelu = _whole_array_formulas(x)
    saved = numerics.CHUNK_VALUES
    numerics.CHUNK_VALUES = chunk  # many chunk boundaries in a short array
    try:
        assert _same_bits(erf(x), want_erf)
        with np.errstate(invalid="ignore"):
            assert _same_bits(normal_cdf(x), want_cdf)
            got = x.copy()
            got = gelu(got, out=got) if alias else gelu(got)
            assert _same_bits(got, want_gelu)
    finally:
        numerics.CHUNK_VALUES = saved


@pytest.mark.parametrize("extra", [-1, 0, 1, numerics.CHUNK_VALUES + 3])
def test_gelu_across_the_real_chunk_size(extra):
    n = numerics.CHUNK_VALUES + extra
    x = stream(5, "chunk").normal_array(n) * 3.0  # plenty beyond sqrt(2)
    x[::977] = np.nan
    _, want_cdf, want_gelu = _whole_array_formulas(x)
    assert _same_bits(normal_cdf(x), want_cdf)
    assert _same_bits(gelu(x.reshape(1, n)), want_gelu.reshape(1, n))
    assert _same_bits(gelu(x, out=x), want_gelu)


def test_gelu_in_place_holds_a_fixed_number_of_chunks(traced_peak):
    chunk = numerics.CHUNK_VALUES
    peaks = []
    for chunks in (2, 8):
        # about 30% of each chunk takes erf's libm branch, which holds its
        # values as a list of Python floats
        x = np.tile(np.linspace(-2.5, 2.5, chunk), chunks)
        peaks.append(traced_peak(lambda: gelu(x, out=x)))
    assert peaks[1] <= peaks[0] + 64 * 1024
    assert peaks[1] < 10 * 8 * chunk


def test_erf_libm_branch_holds_a_bounded_list(traced_peak):
    chunk = numerics.CHUNK_VALUES
    x = np.linspace(-7.5, -1.5, chunk)  # every value takes the libm branch
    x[::2] *= -1.0
    assert traced_peak(lambda: erf(x)) < 10 * 8 * chunk  # was about 14


def test_out_must_be_a_contiguous_float64_array_of_the_shape():
    x = np.zeros((4, 6))
    for out in (np.zeros((6, 4)), np.zeros((4, 6), np.float32),
                np.zeros((4, 12))[:, ::2]):
        with pytest.raises(ShapeMismatch):
            gelu(x, out=out)


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


# -------------------------------------------------------------- row spans

@pytest.mark.parametrize("width", [1, 100, 2000, numerics.PRODUCT_VALUES,
                                   3 * numerics.PRODUCT_VALUES])
def test_row_spans_cover_the_rows_and_add_no_one_row_span(width):
    step = max(2, numerics.PRODUCT_VALUES // width)
    for rows in {*range(0, 12), step - 1, step, step + 1, 2 * step + 1,
                 BLOCK_ROWS, BLOCK_ROWS + 1}:
        spans = row_spans(rows, width)
        assert [lo for lo, _ in spans] == list(range(0, rows, step))[
            :len(spans)]
        assert all(hi == lo for (_, hi), (lo, _) in zip(spans, spans[1:]))
        assert spans[-1][1] == rows if rows else spans == []
        sizes = [hi - lo for lo, hi in spans]
        assert all(size == step for size in sizes[:-1])
        # the last span is the rest, with a lone last row folded in
        assert sizes[-1:] in ([], [1]) if rows <= 1 \
            else 2 <= sizes[-1] <= step + 1


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


def test_normalize_rows_in_place_keeps_the_bits_and_the_check():
    m = stream(2, "norm").normal_array(60).reshape(10, 6) * 3
    want = normalize_rows(m)
    assert normalize_rows(m, out=m) is m
    assert np.array_equal(m.view(np.uint64), want.view(np.uint64))
    m[4] = 0.0
    with pytest.raises(DegenerateVector, match="row 4 has norm below 1e-12"):
        normalize_rows(m, out=m)


def test_normalize_rows_squares_one_chunk_of_rows_at_a_time(working_peak):
    d = 64
    rows = 8 * numerics.CHUNK_VALUES // d + 3  # eight chunks and a tail
    m = stream(4, "norm").normal_array(rows * d).reshape(rows, d)
    want = m / np.sqrt(np.sum(m ** 2, axis=-1))[:, np.newaxis]
    assert np.array_equal(normalize_rows(m).view(np.uint64),
                          want.view(np.uint64))
    # in place it holds the norms and one chunk of squares, not m ** 2
    assert working_peak(lambda: normalize_rows(m, out=m)) \
        < 2 * 8 * numerics.CHUNK_VALUES


@pytest.mark.parametrize("big", [1.4e154, 1e308, math.inf, math.nan])
def test_normalize_rows_refuses_a_norm_that_is_not_finite(big):
    # from about 1.3e154 on, an entry's square overflows float64: the row
    # is refused, not divided by an infinite norm into zeros or NaNs
    m = stream(3, "norm").normal_array(24).reshape(4, 6)
    m[1, 0] = 1e153  # squares to 1e306: finite, so normalized as before
    want = m / np.sqrt(np.sum(m * m, axis=-1))[:, np.newaxis]
    assert np.array_equal(normalize_rows(m).view(np.uint64),
                          want.view(np.uint64))
    m[2, 3] = m[3, 0] = big
    with pytest.raises(DegenerateVector,
                       match=r"^row 2 has norm (inf|nan), not finite"):
        normalize_rows(m, out=m)
    with pytest.raises(DegenerateVector, match=r"^row 0 has norm"):
        normalize_rows(m[2])


@FUZZ
@given(dtype=st.sampled_from([np.float32, np.float64]),
       shape=st.lists(st.integers(1, 9), min_size=1, max_size=3),
       strided=st.booleans(), scale=st.sampled_from([1e-3, 1.0, 1e20]),
       with_out=st.booleans(), chunk=st.integers(1, 40),
       seed=st.integers(0, 2 ** 32))
def test_row_norms_and_normalize_rows_equal_the_whole_array_formula(
        monkeypatch, dtype, shape, strided, scale, with_out, chunk, seed):
    monkeypatch.setattr(numerics, "CHUNK_VALUES", chunk)
    draw = stream(seed, "rows").normal_array
    if strided:  # view 0's rows of an (N, V, D) block, as evalkit reads
        n, d = shape[0], shape[-1]
        x = (draw(n * 3 * d) * scale).reshape(n, 3, d).astype(dtype)[:, 0, :]
    else:
        x = (draw(math.prod(shape)) * scale).reshape(shape).astype(dtype)
    want = np.sqrt(np.sum(x.astype(np.float64) ** 2, axis=-1))
    assert _same_bits(row_norms(x), want)
    out = np.empty(x.shape) if with_out else None
    got = normalize_rows(x, out=out)
    assert out is None or got is out
    assert _same_bits(got, x.astype(np.float64) / want[..., np.newaxis])


@pytest.mark.parametrize("views", [1, 3])
def test_normalize_rows_reads_float32_rows_without_a_float64_copy(
        working_peak, views):
    rows, d = 4096, 64  # 1 MiB of float32, eight chunks of float64
    block = stream(5, "rows").normal_array(rows * views * d) \
        .reshape(rows, views, d).astype(np.float32)
    x = block[:, 0, :]
    want = x.astype(np.float64)
    want /= np.sqrt(np.sum(want ** 2, axis=-1))[:, np.newaxis]
    assert _same_bits(normalize_rows(x), want)
    # beside its result it holds the norms, one chunk of squares and the
    # divide's cast buffer, not a float64 copy of x
    assert working_peak(lambda: normalize_rows(x)) < 8 * x.size
    out = np.empty(x.shape)
    assert working_peak(lambda: normalize_rows(x, out=out)) < 8 * x.size


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


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(batch=st.integers(1, 40), classes=st.integers(1, 120),
       scale=st.sampled_from([0.0, 1e-3, 1.0, 30.0, 1e3]),
       offset=st.sampled_from([0.0, -700.0, 1e3]),
       eps=st.sampled_from([0.0, 0.1, 0.5]), seed=st.integers(0, 2**16))
def test_ce_equals_the_two_exp_reference_bit_for_bit(batch, classes, scale,
                                                      offset, eps, seed):
    rng = stream(seed, "ce.bits")
    logits = offset + scale * rng.normal_array(batch * classes).reshape(
        batch, classes)
    targets = np.array([rng.randbelow(classes) for _ in range(batch)])
    losses, grads = cross_entropy_label_smoothing_batch(logits, targets, eps)
    want_losses, want_grads = cross_entropy_two_exp(logits, targets, eps)
    assert _same_bits(losses, want_losses)
    assert _same_bits(grads, want_grads)


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


# 1 - 0.9 ** t rounds to 1.0 from t = 356 on, and the steps from 348 take
# bias corrections within a few ulps of it
@pytest.mark.parametrize("size", [1, numerics.CHUNK_VALUES - 1,
                                  numerics.CHUNK_VALUES,
                                  numerics.CHUNK_VALUES + 1,
                                  2 * numerics.CHUNK_VALUES + 3])
@pytest.mark.parametrize("weight_decay", [0.0, 5e-2])
@pytest.mark.parametrize("first_step", [0, 347, 354, 400])
def test_adamw_chunks_are_bit_equal_to_the_whole_array_step(
        size, weight_decay, first_step):
    rng = stream(size, "adamw chunks", first_step)
    params = {"w": rng.normal_array(size).reshape(-1, 1),
              "b": rng.normal_array(3)}
    state = OptimState.init(params, lr=2e-3, weight_decay=weight_decay)
    for k in params:
        state.m[k][...] = rng.normal_array(params[k].size) \
            .reshape(params[k].shape) * 1e-2
        state.v[k][...] = rng.random_array(params[k].size) \
            .reshape(params[k].shape) * 1e-4
    state.step = first_step
    whole = {k: p.copy() for k, p in params.items()}
    m = {k: a.copy() for k, a in state.m.items()}
    v = {k: a.copy() for k, a in state.v.items()}
    for t in range(first_step + 1, first_step + 4):
        grads = {k: rng.normal_array(p.size).reshape(p.shape)
                 for k, p in params.items()}
        adamw_step(params, grads, state)
        adamw_step_whole(whole, grads, m, v, t, 2e-3, weight_decay)
        for k in params:
            assert np.array_equal(params[k], whole[k]), (k, t)
            assert np.array_equal(state.m[k], m[k]), (k, t)
            assert np.array_equal(state.v[k], v[k]), (k, t)
    assert state.step == first_step + 3


def test_adamw_step_allocates_under_two_chunks(working_peak):
    params = {"w": stream(2, "adamw memory").normal_array(1 << 18)}
    grads = {"w": stream(3, "adamw memory").normal_array(1 << 18)}
    state = OptimState.init(params, lr=1e-3, weight_decay=1e-2)
    adamw_step(params, grads, state)  # the step's allocations are its own
    assert working_peak(lambda: adamw_step(params, grads, state)) \
        < 2 * 8 * numerics.CHUNK_VALUES


def test_adamw_refuses_a_parameter_it_cannot_update_in_place():
    params = {"w": np.zeros((4, 3)).T}
    state = OptimState.init(params, lr=0.1, weight_decay=0.0)
    with pytest.raises(ShapeMismatch, match="C-contiguous"):
        adamw_step(params, {"w": np.ones((3, 4))}, state)


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


# ------------------------------------------------------------ BLAS threads

@pytest.mark.skipif(numerics._openblas_threads() is None,
                    reason="numpy's OpenBLAS was not found: nothing to cap")
def test_single_blas_thread_caps_and_restores_even_on_error():
    get_threads, set_threads = numerics._openblas_threads()
    before = get_threads()
    set_threads(3)
    try:
        with single_blas_thread():
            assert get_threads() == 1
            with single_blas_thread():  # nested: the outer count survives
                assert get_threads() == 1
            assert get_threads() == 1
        assert get_threads() == 3
        with pytest.raises(KeyError):
            with single_blas_thread():
                raise KeyError("boom")
        assert get_threads() == 3
    finally:
        set_threads(before)


def test_single_blas_thread_does_nothing_without_openblas(monkeypatch):
    monkeypatch.setattr(numerics, "_openblas_threads", lambda: None)
    with single_blas_thread():
        assert np.array_equal(np.eye(3) @ np.ones(3), np.ones(3))
