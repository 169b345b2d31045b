"""Dense small-matrix math shared by the rest of the package.

Everything here runs in 64-bit floats; 32-bit only appears at file
boundaries. The GELU is the exact erf form, not the tanh approximation,
so that ensemble merging does not inherit an approximation constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .errors import DegenerateVector, ShapeMismatch
from .rng import Stream, derive_seed

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

DEGENERATE_NORM = 1e-12


def gelu(x):
    """Exact GELU: 0.5 * x * (1 + erf(x / sqrt(2)))."""
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * x * (1.0 + erf(x / _SQRT2))


def gelu_grad(x):
    """Derivative of the exact GELU: Phi(x) + x * phi(x)."""
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * (1.0 + erf(x / _SQRT2)) + x * np.exp(-0.5 * x * x) * _INV_SQRT_2PI


def row_norms(m: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(np.asarray(m, dtype=np.float64) ** 2, axis=-1))


def normalize_rows(m: np.ndarray) -> np.ndarray:
    """Scale each row to unit Euclidean norm.

    Raises DegenerateVector if any row norm falls below 1e-12.
    """
    m = np.asarray(m, dtype=np.float64)
    norms = row_norms(m)
    if np.any(norms < DEGENERATE_NORM):
        bad = int(np.argmin(norms)) if m.ndim > 1 else 0
        raise DegenerateVector(f"row {bad} has norm below {DEGENERATE_NORM:g}")
    return m / norms[..., np.newaxis]


def softmax(z: np.ndarray) -> np.ndarray:
    """Stable softmax along the last axis (max subtraction)."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def smoothed_targets(num_classes: int, targets: np.ndarray, eps: float) -> np.ndarray:
    """Label-smoothed target distribution(s): 1-eps+eps/m on the target class."""
    targets = np.atleast_1d(np.asarray(targets, dtype=np.int64))
    q = np.full((targets.size, num_classes), eps / num_classes, dtype=np.float64)
    q[np.arange(targets.size), targets] += 1.0 - eps
    return q


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
    q = smoothed_targets(m, targets, eps)
    losses = -np.sum(q * log_softmax(logits), axis=-1)
    grads = softmax(logits) - q
    return losses, grads


# --------------------------------------------------------------------- AdamW

@dataclass
class OptimState:
    """AdamW accumulators for a dict of named parameter arrays.

    The state is owned by exactly one training run; adamw_step mutates the
    parameter arrays and the accumulators in place.
    """

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    lr: float
    weight_decay: float
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ValueError("betas must lie strictly between 0 and 1")
        if self.step < 0:
            raise ValueError("step must be nonnegative")

    @classmethod
    def init(cls, params: dict[str, np.ndarray], lr: float, weight_decay: float,
             **kwargs) -> "OptimState":
        m = {k: np.zeros_like(p, dtype=np.float64) for k, p in params.items()}
        v = {k: np.zeros_like(p, dtype=np.float64) for k, p in params.items()}
        return cls(m=m, v=v, lr=lr, weight_decay=weight_decay, **kwargs)


def adamw_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
               state: OptimState):
    """One AdamW update with decoupled weight decay and bias correction.

    Parameters are first scaled by (1 - lr * weight_decay), then moved by
    the bias-corrected Adam step. Arrays are updated in place.
    """
    if set(params) != set(grads):
        raise ShapeMismatch(f"parameter/gradient keys differ: "
                            f"{sorted(params)} vs {sorted(grads)}")
    for k, p in params.items():
        if p.shape != grads[k].shape or p.shape != state.m[k].shape:
            raise ShapeMismatch(f"shape mismatch for '{k}'")
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for k, p in params.items():
        g = grads[k]
        if state.weight_decay != 0.0:
            p *= 1.0 - state.lr * state.weight_decay
        state.m[k] *= state.beta1
        state.m[k] += (1.0 - state.beta1) * g
        state.v[k] *= state.beta2
        state.v[k] += (1.0 - state.beta2) * g * g
        p -= state.lr * (state.m[k] / bc1) / (np.sqrt(state.v[k] / bc2)
                                              + state.epsilon)
    return params, state


# ------------------------------------------------------------ gradient check

def finite_difference_check(loss_and_grad, params: dict[str, np.ndarray], *,
                            step: float = 1e-5, sample_size: int = 50,
                            seed: int = 0, floor: float = 1e-6) -> float:
    """Worst relative error between analytic gradients and central differences.

    ``loss_and_grad(params)`` must return ``(loss, grads)`` with grads shaped
    like params. Checks a deterministic random subset of at least
    ``sample_size`` coordinates (all of them if there are fewer); the
    relative error is |fd - g| / max(|fd|, |g|, floor). The floor keeps
    coordinates whose true gradient sits below the finite-difference noise
    level (cancellation is ~eps * |loss| / step) from dominating the report.
    """
    _, grads = loss_and_grad(params)
    coords = [(k, i) for k in sorted(params) for i in range(params[k].size)]
    if len(coords) > sample_size:
        rng = Stream(derive_seed(seed, "fdcheck"))
        chosen_idx = set()
        while len(chosen_idx) < sample_size:
            chosen_idx.add(rng.randbelow(len(coords)))
        coords = [coords[i] for i in sorted(chosen_idx)]
    worst = 0.0
    for key, i in coords:
        flat = params[key].reshape(-1)
        orig = flat[i]
        flat[i] = orig + step
        loss_plus, _ = loss_and_grad(params)
        flat[i] = orig - step
        loss_minus, _ = loss_and_grad(params)
        flat[i] = orig
        fd = (loss_plus - loss_minus) / (2.0 * step)
        an = grads[key].reshape(-1)[i]
        worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), floor))
    return worst
