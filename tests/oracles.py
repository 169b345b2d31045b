"""Reference implementations that tests compare the package against.

None of these runs in the package: each is either the plain form of
something the package computes another way (the two-exp cross entropy,
the per-sample few-shot walk, KNN votes with one product per row block,
verify's worst deviation with one product for all its probes, AdamW as
one whole-array expression per parameter, synthetic sets drawn class
after class from one stream per set), or a measuring tool of the tests
(finite differences, softmax, top-1 accuracy of a logit matrix). The
input builders at the end make the seeded unit rows and adapter weights
that many tests take.
"""

import math

import numpy as np

from soupadapter.adapter import AdapterParams, adapter_forward
from soupadapter.dataio import BLOCK_ROWS, FewShotSelection, _rotate_toward
from soupadapter.errors import InsufficientShots
from soupadapter.numerics import (ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON,
                                  normalize_rows)
from soupadapter.rng import Stream, derive_seed, stream
from soupadapter.soup import soup_forward


def softmax(z: np.ndarray) -> np.ndarray:
    """Stable softmax along the last axis (max subtraction)."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def smoothed_targets(num_classes: int, targets: np.ndarray,
                     eps: float) -> np.ndarray:
    """Label-smoothed target distribution(s): 1-eps+eps/m on the target
    class, eps/m elsewhere."""
    targets = np.atleast_1d(np.asarray(targets, dtype=np.int64))
    q = np.full((targets.size, num_classes), eps / num_classes,
                dtype=np.float64)
    q[np.arange(targets.size), targets] += 1.0 - eps
    return q


def cross_entropy_two_exp(logits: np.ndarray, targets: np.ndarray,
                          eps: float):
    """Per-row label-smoothed cross entropy and its gradient, with
    log_softmax and softmax each taking their own exp."""
    logits = np.asarray(logits, dtype=np.float64)
    q = smoothed_targets(logits.shape[-1], targets, eps)
    losses = -np.sum(q * log_softmax(logits), axis=-1)
    return losses, softmax(logits) - q


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy; argmax ties resolve to the lowest class index."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2 or logits.shape[0] != labels.shape[0]:
        raise ValueError(
            f"{logits.shape[0] if logits.ndim == 2 else logits.ndim} logit "
            f"rows vs {labels.shape[0]} labels")
    if labels.size == 0:
        raise ValueError("cannot score an empty batch")
    return float(np.mean(np.argmax(logits, axis=1) == labels))


def sample_few_shot_loop(emb, split, n_shot: int,
                         seed: int) -> FewShotSelection:
    """dataio.sample_few_shot as a walk over the split, one sample at a
    time into per-class lists."""
    split = np.asarray(list(split), dtype=np.int64)
    per_class: list[list[int]] = [[] for _ in range(emb.n_classes)]
    for idx in split:
        per_class[int(emb.labels[idx])].append(int(idx))
    selection: list[list[int]] = []
    for c, candidates in enumerate(per_class):
        if len(candidates) < n_shot:
            raise InsufficientShots(c, len(candidates))
        candidates = sorted(candidates)
        perm = stream(seed, "fewshot", c).permutation(len(candidates))
        selection.append(sorted(candidates[int(i)] for i in perm[:n_shot]))
    return FewShotSelection(n_shot=n_shot, seed=seed, indices=selection)


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


# ------------------------------------- one product per row block, or for all

def knn_votes_by_block(bank, labels, xs, cfg, num_classes):
    """KNN votes with each dataio.BLOCK_ROWS block of queries taking its
    similarities from one matrix product: per row, one stable argsort and
    one math.exp per neighbor, added in rank order."""
    k = min(cfg.k, bank.shape[0])
    out = np.zeros((xs.shape[0], num_classes))
    for start in range(0, xs.shape[0], BLOCK_ROWS):
        sims = xs[start:start + BLOCK_ROWS] @ bank.T
        for b, row in enumerate(sims):
            for j in np.argsort(-row, kind="stable")[:k]:
                out[start + b, labels[j]] += math.exp(row[j] / cfg.temperature)
    return out


def worst_deviation_in_one_pass(soup, merged, trials, seed):
    """verify_equivalence's worst deviation and its probe index, with all
    the probes drawn by one Stream.unit_vectors and scored by one forward
    pass of each side."""
    probes = stream(seed, "equiv").unit_vectors(trials, soup.dim)
    deviation = np.abs(adapter_forward(merged, probes)
                       - soup_forward(soup, probes)).max(axis=1)
    i = int(np.argmax(deviation))
    return float(deviation[i]), i


# --------------------------------------------------- whole-array AdamW step

def adamw_step_whole(params, grads, m, v, step, lr, weight_decay):
    """numerics.adamw_step as one whole-array expression per parameter,
    with its temporaries of the parameter's size; params, m and v are
    updated in place. step is the step being taken (1 for the first)."""
    bc1 = 1.0 - ADAM_BETA1 ** step
    bc2 = 1.0 - ADAM_BETA2 ** step
    for k, p in params.items():
        g = grads[k]
        if weight_decay != 0.0:
            p *= 1.0 - lr * weight_decay
        m[k] *= ADAM_BETA1
        m[k] += (1.0 - ADAM_BETA1) * g
        v[k] *= ADAM_BETA2
        v[k] += (1.0 - ADAM_BETA2) * g * g
        p -= lr * (m[k] / bc1) / (np.sqrt(v[k] / bc2) + ADAM_EPSILON)


def synthetic_features_in_sequence(n_classes, dim, per_class, shift_angle,
                                   noise, seed) -> list[np.ndarray]:
    """The float32 features of the train, id and ood sets, each set's
    classes drawn one after another from the set's one stream, with no
    stream moved past a class it did not draw."""
    mean_rng = stream(seed, "synth.means")
    means = [mean_rng.unit_vector(dim) for _ in range(n_classes)]
    shift_rng = stream(seed, "synth.shift")
    shifted = [_rotate_toward(m, shift_rng, shift_angle) for m in means]
    sets = []
    for name, centers in (("train", means), ("id", means),
                          ("ood", shifted)):
        rng = stream(seed, f"synth.{name}")
        blocks = []
        for mean in centers:
            if noise == 0.0:
                blocks.append(np.tile(mean, (per_class, 1)))
            else:
                g = rng.normal_array(per_class * dim).reshape(per_class, dim)
                blocks.append(normalize_rows(mean + noise * g))
        sets.append(np.concatenate(blocks).astype(np.float32))
    return sets


# ------------------------------------------------------------ input builders

def unit_rows(seed, n, d, tag="rows"):
    """n seeded rows of dimension d from the stream (seed, tag), each
    scaled to unit norm."""
    rows = stream(seed, tag).normal_array(n * d).reshape(n, d)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def random_params(seed, d, h, scale=0.4):
    """Adapter weights of input dimension d and hidden width h from the
    stream (seed, "params"): weights scaled by ``scale``, biases by 0.1."""
    rng = stream(seed, "params")
    return AdapterParams(
        W1=rng.normal_array(h * d).reshape(h, d) * scale,
        b1=rng.normal_array(h) * 0.1,
        W2=rng.normal_array(d * h).reshape(d, h) * scale,
        b2=rng.normal_array(d) * 0.1)
