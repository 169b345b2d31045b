"""Dense small-matrix math shared by the rest of the package.

Everything here runs in 64-bit floats; 32-bit only appears at file
boundaries. The GELU is the exact erf form, not the tanh approximation,
so that ensemble merging does not inherit an approximation constant.

``erf`` is a numpy port of the double-precision kernel of Cephes
``ndtr.c``, the one ``scipy.special.erf`` runs, and matches it bit for bit
(tests/test_numerics.py checks that against scipy). For |x| <= 1 it is the
odd rational x T(x^2) / U(x^2), vectorized. For 1 < |x| < 8 it is
1 - exp(-x^2) P(|x|) / Q(|x|) with the sign of x, where exp comes from libm
(``math.exp``) element by element: numpy's SIMD exp differs from libm's in
the last bit for some arguments, and that branch is rare (hidden
pre-activations rarely leave |x| <= sqrt(2)). From |x| >= 8 on, where Cephes
switches to a second rational and later to exactly 1, erfc(|x|) < 1e-28
so 1 - erfc rounds to 1 either way, and erf returns +-1. NaN passes through.

``erf``, ``normal_cdf`` and ``gelu`` run over flat chunks of CHUNK_VALUES
values (256 KiB of float64), so each temporary of the polynomial pass is
one chunk, whatever the input's size; an input that small is one chunk.
The operations are elementwise, so the bits do not depend on the
chunking. A loop over rows takes ``chunk_rows(width)`` rows, one chunk, at
a time; so does ``row_norms``, the package's one norm of a matrix's rows.
``gelu`` and ``normalize_rows`` take an ``out=`` that may be the input.

``row_spans`` cuts a block of rows into the sub-blocks that a wide matrix
product (KNN similarities, hidden layers, forward passes) runs over:
PRODUCT_VALUES outputs at a time, so the product's buffer does not grow
with its width, and ``span_buffer`` holds any span's outputs, so a loop
over spans fills one array. A span has one row only where the block has
one: numpy sends a one-row ``matmul`` to another BLAS kernel, whose bits
can differ from the batched product's.

A vector with norm below DEGENERATE_NORM has no direction, wherever the
package normalizes. AdamW runs with the fixed beta1 = 0.9, beta2 = 0.999 and
epsilon = 1e-8; only the learning rate and weight decay vary.

``single_blas_thread`` caps the OpenBLAS that numpy loaded at one thread
for a block of code, through ctypes; cli.main runs every subcommand in
it. The products of a training step are too small for a second BLAS
thread to save any wall time, and it doubles their CPU time; synth's
class blocks, soup's verify and eval's sets get more cores from forked
one-thread workers instead (see workers). With one thread everywhere,
no byte a stage writes depends on OPENBLAS_NUM_THREADS, though the last
bits of a product whose output width is not a multiple of 8 depend on
the thread split. The cap leaves running the helper threads OpenBLAS
started when it loaded; only OPENBLAS_NUM_THREADS=1 set before numpy
loads starts none (see __main__).
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateVector, ShapeMismatch

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

DEGENERATE_NORM = 1e-12
CHUNK_VALUES = 1 << 15
# Outputs of one row_spans sub-block (2 MiB of float64): 163 query rows
# against a 1600-row KNN bank. Spans of 128 rows or more scored such a
# bank as fast as whole 1024-row blocks; 64-81 rows took 30-45% longer and
# 20 rows 80% longer.
PRODUCT_VALUES = 8 * CHUNK_VALUES
# Values of erf's libm branch turned into Python floats at a time. A list
# costs about 32 bytes a value, four times the float64, so this many (about
# 32 KiB) stay an eighth of a CHUNK_VALUES chunk.
LIBM_VALUES = 1 << 10
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8

# Cephes ndtr.c: erf(x) = x T(x^2) / U(x^2) on |x| <= 1 ...
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1,
          2.23200534594684319226E3, 7.00332514112805075473E3,
          5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2,
          4.59432382970980127987E3, 2.26290000613890934246E4,
          4.92673942608635921086E4)  # monic: the leading 1 is implicit
# ... and erfc(a) = exp(-a^2) P(a) / Q(a) on 1 < a < 8
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1,
           7.46321056442269912687E0, 4.86371970985681366614E1,
           1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3,
           5.57535335369399327526E2)
_ERFC_Q = (1.32281951154744992508E1, 8.67072140885989742329E1,
           3.54937778887819891062E2, 9.75708501743205489753E2,
           1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)  # monic
_ERF_SATURATES = 8.0


def _polevl(x: np.ndarray, coef) -> np.ndarray:
    """Horner's rule in Cephes' operation order, in place after one alloc."""
    p = x * coef[0]
    for c in coef[1:-1]:
        p += c
        p *= x
    p += coef[-1]
    return p


def _p1evl(x: np.ndarray, coef) -> np.ndarray:
    """_polevl with an implicit leading coefficient of 1."""
    p = x + coef[0]
    for c in coef[1:]:
        p *= x
        p += c
    return p


def _erf_small(x: np.ndarray) -> np.ndarray:
    """erf(x) = x T(x^2) / U(x^2) for |x| <= 1."""
    z = x * x
    y = _polevl(z, _ERF_T)
    y *= x
    y /= _p1evl(z, _ERF_U)
    return y


def _erfc_mid(a: np.ndarray) -> np.ndarray:
    """erfc(a) = exp(-a^2) P(a) / Q(a) for 1 < a < 8, exp from libm,
    LIBM_VALUES values at a time."""
    y = np.empty_like(a)
    for start in range(0, a.size, LIBM_VALUES):
        part = a[start:start + LIBM_VALUES].tolist()
        y[start:start + len(part)] = [math.exp(-(t * t)) for t in part]
    y *= _polevl(a, _ERFC_P)
    y /= _p1evl(a, _ERFC_Q)
    return y


def _erf_chunk(x: np.ndarray) -> np.ndarray:
    """erf of one flat float64 chunk, as a new array."""
    big = np.abs(x) > 1.0  # False for NaN, which the rational passes on
    if not big.any():
        return _erf_small(x)
    out = _erf_small(np.where(big, 0.0, x))  # no inf in the rational
    a = np.abs(x[big])
    tail = np.ones_like(a)  # 1 - erfc(a) rounds to 1 from a = 8 on
    mid = a < _ERF_SATURATES
    tail[mid] -= _erfc_mid(a[mid])
    out[big] = np.copysign(tail, x[big])
    return out


def _cdf_chunk(x: np.ndarray) -> np.ndarray:
    y = _erf_chunk(x / _SQRT2)
    y += 1.0
    y *= 0.5
    return y


def _gelu_chunk(x: np.ndarray) -> np.ndarray:
    y = _cdf_chunk(x)
    y *= x
    return y


def _chunked(chunk_fn, x, out=None) -> np.ndarray:
    """out = chunk_fn(x) over flat chunks of CHUNK_VALUES values, so the
    temporaries of chunk_fn stay O(CHUNK_VALUES) whatever x's size. out,
    if given, is a C-contiguous float64 array of x's shape and may be x."""
    x = np.asarray(x, dtype=np.float64)
    if out is None:
        out = np.empty(x.shape)
    elif out.shape != x.shape or out.dtype != np.float64 \
            or not out.flags.c_contiguous:
        raise ShapeMismatch("out must be a C-contiguous float64 array of "
                            "the input's shape")
    flat_x, flat_out = x.reshape(-1), out.reshape(-1)
    for start in range(0, flat_x.size, CHUNK_VALUES):
        stop = start + CHUNK_VALUES
        flat_out[start:stop] = chunk_fn(flat_x[start:stop])
    return out


def erf(x):
    """The error function, bit-equal to scipy.special.erf on float64."""
    return _chunked(_erf_chunk, x)


def normal_cdf(x):
    """Standard normal CDF: 0.5 * (1 + erf(x / sqrt(2)))."""
    return _chunked(_cdf_chunk, x)


def gelu(x, cdf=None, out=None):
    """Exact GELU: x * Phi(x). Pass ``cdf = normal_cdf(x)`` to reuse an
    erf already computed (the halving is exact, so either way the bits
    equal 0.5 * x * (1 + erf(x / sqrt(2)))). Without ``cdf``, ``out``, a
    C-contiguous float64 array of x's shape, receives the result and may
    be x itself."""
    if cdf is not None:
        return np.asarray(x, dtype=np.float64) * cdf
    return _chunked(_gelu_chunk, x, out)


def gelu_grad(x, cdf=None):
    """Derivative of the exact GELU: Phi(x) + x * phi(x); ``cdf`` as in
    gelu."""
    x = np.asarray(x, dtype=np.float64)
    cdf = normal_cdf(x) if cdf is None else cdf
    return cdf + x * np.exp(-0.5 * x * x) * _INV_SQRT_2PI


def _span_step(width: int) -> int:
    return max(2, PRODUCT_VALUES // max(1, width))


def row_spans(rows: int, width: int) -> list[tuple[int, int]]:
    """(lo, hi) sub-blocks that cover range(rows) in order, each of about
    PRODUCT_VALUES // width rows and at least 2, for a product whose
    output rows are ``width`` wide. A last span of one row joins the span
    before it, so a span has one row only when ``rows`` is 1."""
    step = _span_step(width)
    starts = list(range(0, rows, step))
    if len(starts) > 1 and rows - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, [*starts[1:], rows]))


def span_buffer(rows: int, width: int) -> np.ndarray:
    """A flat float64 array that holds the outputs of every span that
    row_spans(n, width) gives for n up to ``rows``, for one product to
    reuse over the spans: a fresh array a span would come from the system
    and go back to it each time, and fault its pages in again."""
    return np.empty(min(rows, _span_step(width) + 1) * width)


def chunk_rows(width: int) -> int:
    """Rows of ``width`` values in one chunk, at least 1: a row loop's step."""
    return max(1, CHUNK_VALUES // max(1, width))


def row_norms(m: np.ndarray) -> np.ndarray:
    """np.sqrt(np.sum(m.astype(np.float64) ** 2, axis=-1)) bit for bit,
    squared chunk_rows rows at a time into one float64 work array, so m
    is not copied and a call allocates one chunk, not two a chunk."""
    m = np.asarray(m)
    rows = m.reshape(-1, m.shape[-1])
    norms = np.empty(len(rows))
    step = chunk_rows(rows.shape[1])
    work = np.empty((min(step, len(rows)), rows.shape[1]))
    for lo in range(0, len(rows), step):
        chunk = rows[lo:lo + step]
        squares = np.square(chunk, out=work[:len(chunk)], dtype=np.float64)
        np.sqrt(np.sum(squares, axis=-1), out=norms[lo:lo + step])
    return norms.reshape(m.shape[:-1])


def check_norms(norms: np.ndarray, first_row: int = 0):
    """Raise DegenerateVector if any row norm falls below DEGENERATE_NORM,
    or is not finite: a NaN, or a squared sum that overflows float64 (an
    entry from about 1.3e154 on), which would otherwise give a zero or
    NaN row. The message numbers the flattened norms from ``first_row``,
    so rows taken from a larger block can be named by their place in it.
    """
    flat = norms.reshape(-1)
    if np.any(flat < DEGENERATE_NORM):
        raise DegenerateVector(f"row {first_row + int(np.argmin(flat))} "
                               f"has norm below {DEGENERATE_NORM:g}")
    bad = np.flatnonzero(~np.isfinite(flat))
    if bad.size:
        raise DegenerateVector(f"row {first_row + int(bad[0])} has norm "
                               f"{flat[bad[0]]}, not finite in float64")


def normalize_rows(m: np.ndarray, out=None, first_row: int = 0) -> np.ndarray:
    """Scale each row to unit Euclidean norm; ``out``, if given, receives
    the rows and may be m itself. The norms are row_norms', refused as
    check_norms refuses them, with m's rows numbered from ``first_row``.
    A float32 m is divided as it is, with no float64 copy of it.
    """
    m = np.asarray(m)
    with np.errstate(over="ignore"):  # reported below
        norms = row_norms(m)
    check_norms(norms, first_row)
    return np.divide(m, norms[..., np.newaxis], out=out)


def cross_entropy_label_smoothing_batch(logits: np.ndarray, targets: np.ndarray,
                                        eps: float):
    """Per-row label-smoothed cross entropy and its gradient w.r.t. the logits.

    loss_b = -sum_i q_bi * log softmax(logits_b)_i with q_target =
    1 - eps + eps/m and q_other = eps/m; the gradient is
    softmax(logits_b) - q_b. eps must lie in [0, 1) and every target in
    [0, m). Returns per-sample losses (B,) and gradients (B, m).
    """
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.int64)
    m = logits.shape[-1]
    if not 0 <= eps < 1:
        raise ValueError("label smoothing must be in [0, 1)")
    if np.any((targets < 0) | (targets >= m)):
        raise ValueError("target class out of range")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=-1, keepdims=True)
    q = np.full((targets.size, m), eps / m)
    q[np.arange(targets.size), targets] += 1.0 - eps
    shifted -= np.log(total)  # log softmax
    losses = -np.sum(q * shifted, axis=-1)
    e /= total  # softmax
    e -= q
    return losses, e


# --------------------------------------------------------------------- AdamW

@dataclass
class OptimState:
    """AdamW accumulators for a dict of named parameter arrays, and the two
    work arrays of CHUNK_VALUES values at most that adamw_step computes in.

    The state is owned by exactly one training run; adamw_step mutates the
    parameter arrays and the accumulators in place.
    """

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    lr: float
    weight_decay: float
    work: tuple[np.ndarray, np.ndarray]
    step: int = 0

    @classmethod
    def init(cls, params: dict[str, np.ndarray], lr: float,
             weight_decay: float) -> "OptimState":
        m = {k: np.zeros_like(p, dtype=np.float64) for k, p in params.items()}
        v = {k: np.zeros_like(p, dtype=np.float64) for k, p in params.items()}
        size = min(CHUNK_VALUES, max((p.size for p in params.values()),
                                     default=0))
        return cls(m=m, v=v, lr=lr, weight_decay=weight_decay,
                   work=(np.empty(size), np.empty(size)))


def adamw_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
               state: OptimState):
    """One AdamW update with decoupled weight decay and bias correction.

    Parameters are first scaled by (1 - lr * weight_decay), then moved by
    the bias-corrected Adam step lr * (m / bc1) / (sqrt(v / bc2) + eps)
    with the fixed ADAM_BETA1, ADAM_BETA2 and ADAM_EPSILON. Parameters and
    accumulators are updated in place, CHUNK_VALUES values at a time in
    the state's work arrays, so a step allocates nothing of their size;
    every value takes the operations of the whole-array expression, in
    its order.
    """
    if set(params) != set(grads):
        raise ShapeMismatch(f"parameter/gradient keys differ: "
                            f"{sorted(params)} vs {sorted(grads)}")
    for k, p in params.items():
        if p.shape != grads[k].shape or p.shape != state.m[k].shape:
            raise ShapeMismatch(f"shape mismatch for '{k}'")
        if not p.flags.c_contiguous:
            raise ShapeMismatch(f"'{k}' is not C-contiguous, so it cannot "
                                f"be updated in place chunk by chunk")
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    decay = 1.0 - state.lr * state.weight_decay
    work1, work2 = state.work
    for k, p in params.items():
        flat_p, flat_g = p.reshape(-1), grads[k].reshape(-1)
        flat_m, flat_v = state.m[k].reshape(-1), state.v[k].reshape(-1)
        for lo in range(0, p.size, CHUNK_VALUES):
            hi = lo + CHUNK_VALUES
            pc, g = flat_p[lo:hi], flat_g[lo:hi]
            m, v = flat_m[lo:hi], flat_v[lo:hi]
            a, b = work1[:pc.size], work2[:pc.size]
            if state.weight_decay != 0.0:
                pc *= decay
            m *= ADAM_BETA1
            m += np.multiply(g, 1.0 - ADAM_BETA1, out=a)
            v *= ADAM_BETA2
            np.multiply(g, 1.0 - ADAM_BETA2, out=a)
            v += np.multiply(a, g, out=a)
            np.divide(m, bc1, out=a)
            a *= state.lr
            np.divide(v, bc2, out=b)
            np.sqrt(b, out=b)
            b += ADAM_EPSILON
            pc -= np.divide(a, b, out=a)
    return params, state


# ------------------------------------------------------------- BLAS threads

@functools.cache
def _openblas_threads():
    """(get, set) thread-count functions of the OpenBLAS that numpy loaded,
    or None where none is found.

    Looks in the directories a numpy wheel keeps its libraries in
    (numpy.libs beside the package, or numpy/.dylibs); opening a library
    that is already loaded returns the loaded one. The symbols carry the
    wheel's prefix and suffix, for example scipy_openblas_get_num_threads64_.
    """
    package = Path(np.__file__).parent
    for path in sorted([*package.parent.glob("numpy.libs/*openblas*"),
                        *package.glob(".dylibs/*openblas*")]):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", "_64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    return get, put
    return None


@contextlib.contextmanager
def single_blas_thread():
    """Run the block with OpenBLAS on one thread, then restore the count.

    The count is process-wide, so every thread's products inside the
    block run on the calling thread alone; enter it from one thread at a
    time. Where numpy's OpenBLAS is not found, this does nothing.
    """
    found = _openblas_threads()
    if found is None:
        yield
        return
    get, put = found
    previous = get()
    put(1)
    try:
        yield
    finally:
        put(previous)
