"""Residual MLP adapters: forward, blending, hand-derived gradients, training.

An adapter maps a frozen unit embedding x to a = W2 @ gelu(W1 @ x + b1) + b2
with hidden width H = floor(D / red). At inference the adapted feature is
f = normalize(x + r * a) for a residual ratio r in [0, 1]; r = 0 reproduces
the frozen embedding exactly. Training fits the adapter against a frozen
classifier head with label-smoothed cross entropy and AdamW; all gradients
here are hand-derived, including the Jacobian of the final normalization.
A component trains wholly on the thread that calls train_component, so
callers may train several at once, one per thread.

Checkpoint format (binary, little-endian): magic b"SADA", version u32=1,
D u32, H u32, scale-used float64, then W1 (H x D), b1 (H), W2 (D x H),
b2 (D) as float32, then a u32 length-prefixed UTF-8 JSON trailer holding
the hyperparameters and training record.
"""

from __future__ import annotations

import json
import math
import struct
import time
from dataclasses import asdict, dataclass

import numpy as np

from .dataio import (EmbeddingSet, FewShotSelection, atomic_write,
                     json_object, read_bytes, unpack_header)
from .errors import (CorruptLength, DegenerateVector, NumericalError,
                     RedTooLarge, ShapeMismatch, prefixed)
from .heads import ClassifierHead, check_compatible
from .numerics import (DEGENERATE_NORM, OptimState, adamw_step, chunk_rows,
                       check_norms, cross_entropy_label_smoothing_batch, gelu,
                       gelu_grad, normal_cdf, normalize_rows, row_norms)
from .rng import below, stream, uniform

CHECKPOINT_MAGIC = b"SADA"
CHECKPOINT_VERSION = 1

RED_MIN, RED_MAX = 2, 10
LR_GRID = (2e-3, 1e-3, 5e-4)
WEIGHT_DECAY_GRID = (1e-3, 1e-2, 5e-2)
AUG_STRENGTH_GRID = (0.25, 0.5, 0.75, 1.0)
LABEL_SMOOTHING = 0.1
FEATURE_NOISE_SCALE = 0.02  # sigma = 0.02 * aug_strength for single-view sets

# the mask_strategy a component's checkpoint records, and train's --mask
MASK = "mask"
NO_MASK = "no-mask"

_HEADER = struct.Struct("<4s3Id")


# -------------------------------------------------------------------- types

@dataclass
class AdapterParams:
    """The four weight arrays of one adapter. All float64 in memory."""

    W1: np.ndarray  # (H, D)
    b1: np.ndarray  # (H,)
    W2: np.ndarray  # (D, H)
    b2: np.ndarray  # (D,)

    def __post_init__(self):
        self.W1 = np.ascontiguousarray(self.W1, dtype=np.float64)
        self.b1 = np.ascontiguousarray(self.b1, dtype=np.float64)
        self.W2 = np.ascontiguousarray(self.W2, dtype=np.float64)
        self.b2 = np.ascontiguousarray(self.b2, dtype=np.float64)
        h, d = self.W1.shape
        if h < 1:
            raise ShapeMismatch("hidden width must be >= 1")
        if self.b1.shape != (h,) or self.W2.shape != (d, h) \
                or self.b2.shape != (d,):
            raise ShapeMismatch("adapter arrays have inconsistent shapes")
        for arr in (self.W1, self.b1, self.W2, self.b2):
            if not np.all(np.isfinite(arr)):
                raise ShapeMismatch("adapter parameters must be finite")

    @property
    def dim(self) -> int:
        return self.W1.shape[1]

    @property
    def hidden(self) -> int:
        return self.W1.shape[0]

    def as_dict(self) -> dict[str, np.ndarray]:
        """Live references, suitable for in-place optimizer updates."""
        return {"W1": self.W1, "b1": self.b1, "W2": self.W2, "b2": self.b2}


@dataclass
class HyperConfig:
    """Per-component hyperparameters, normally drawn by sample_hyperconfig
    and pinned field by field with dataclasses.replace, which re-runs the
    check that red and batch_size are at least 1."""

    red: int
    lr: float
    weight_decay: float
    aug_strength: float
    seed: int
    epochs: int
    batch_size: int = 32
    train_r: float = 1.0

    def __post_init__(self):
        for name in ("red", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, "
                                 f"got {getattr(self, name)}")


@dataclass
class TrainRecord:
    """What one training run did; masked says whether a leave-one-out
    table trained it. wall_time is informational and is never serialized,
    so repeated runs stay byte-identical on disk."""

    config: HyperConfig
    masked: bool
    final_loss: float | None
    loss_trace: list[float]
    wall_time: float = 0.0


# ------------------------------------------------------------ forward passes

def adapter_forward(params: AdapterParams, x: np.ndarray) -> np.ndarray:
    """a = W2 @ gelu(W1 @ x + b1) + b2 for one unit vector or rows of them.

    The output is intentionally not normalized; normalization happens in
    blend after the residual sum.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != params.dim:
        raise ShapeMismatch(f"input dim {x.shape[-1]} != adapter dim {params.dim}")
    out = hidden_layer(params.W1, params.b1, x) @ params.W2.T
    out += params.b2
    return out


def hidden_layer(w1: np.ndarray, b1: np.ndarray, x: np.ndarray,
                 out=None) -> np.ndarray:
    """gelu(x @ w1.T + b1), built in ``out``, a C-contiguous float64
    (rows, H) array, or else in the product's own array."""
    hidden = np.matmul(x, w1.T, out=out)
    hidden += b1
    return gelu(hidden, out=hidden)


def blend(x: np.ndarray, a: np.ndarray, r: float) -> np.ndarray:
    """f = normalize(x + r * a); returns x bit-exactly when r or a is zero."""
    x = np.asarray(x, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    if x.shape != a.shape:
        raise ShapeMismatch("x and a must have the same shape")
    if r == 0.0 or not np.any(a):
        return x.copy()
    return normalize_rows(x + r * a)


# ---------------------------------------------------------- loss + gradients

def adapter_backward(params: AdapterParams, x: np.ndarray,
                     head: ClassifierHead, target, eps: float, r: float,
                     masked_rows: np.ndarray | None = None, out=None):
    """Label-smoothed CE of the blended head logits and its exact gradients.

    x is one unit vector or rows of them, target an int or one class per
    row. masked_rows, if given, replace each row's target-class head row
    (a leave-one-out prototype) in its target logit. Differentiates
    through the head logits, the normalization f = u / |u| (Jacobian
    (I - f f^T) / |u|) and the two-layer MLP; the head itself is frozen.
    Returns (sum of per-sample losses, gradients of the batch-mean loss).
    The gradients are written into ``out``, if given: a dict of
    C-contiguous float64 arrays shaped like params.as_dict(), which is
    then returned, so a training loop can reuse one set for every step.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != params.dim:
        raise ShapeMismatch(f"expected a vector or rows of dim {params.dim}")
    xs = np.atleast_2d(x)
    n_batch = xs.shape[0]
    targets = np.asarray(target, dtype=np.int64).reshape(-1)
    if targets.shape != (n_batch,):
        raise ShapeMismatch(f"expected {n_batch} targets, got {targets.size}")
    head_w, escale = head.weights, math.exp(head.scale)
    z = xs @ params.W1.T + params.b1
    cdf = normal_cdf(z)  # one erf for gelu and gelu_grad
    hidden = gelu(z, cdf)
    f = xs
    if r != 0.0:
        u = xs + r * (hidden @ params.W2.T + params.b2)
        norms = row_norms(u)
        if np.any(norms < DEGENERATE_NORM):
            raise DegenerateVector("residual sum collapsed to zero")
        f = u / norms[:, np.newaxis]
    logits = escale * (f @ head_w.T)
    b = np.arange(n_batch)
    if masked_rows is not None:
        masked_rows = np.atleast_2d(masked_rows)
        logits[b, targets] = escale * np.einsum("bd,bd->b", f, masked_rows)
    losses, dlogits = cross_entropy_label_smoothing_batch(logits, targets, eps)
    if out is None:
        out = {k: np.empty_like(v) for k, v in params.as_dict().items()}
    if r == 0.0:
        for grad in out.values():
            grad.fill(0.0)
        return float(losses.sum()), out
    g = dlogits / n_batch  # gradient of the batch-mean loss
    df = escale * (g @ head_w)
    if masked_rows is not None:
        df += escale * g[b, targets, np.newaxis] \
            * (masked_rows - head_w[targets])
    du = (df - f * np.sum(f * df, axis=1, keepdims=True)) / norms[:, np.newaxis]
    da = r * du
    dz = gelu_grad(z, cdf) * (da @ params.W2)
    np.matmul(dz.T, xs, out=out["W1"])
    dz.sum(axis=0, out=out["b1"])
    np.matmul(da.T, hidden, out=out["W2"])
    da.sum(axis=0, out=out["b2"])
    return float(losses.sum()), out


# ------------------------------------------------------------ configuration

def sample_hyperconfig(base_seed: int, component_index: int, *, dim: int,
                       epochs: int) -> HyperConfig:
    """Draw one component's hyperparameters from the documented grids.

    red, lr, weight decay, augmentation strength and seed are drawn, in
    that order, from the stream (base_seed, "hyper", component_index);
    ``epochs`` has no grid and is passed in. ``red`` is drawn from
    RED_MIN..min(RED_MAX, dim), so from dim >= RED_MIN on every drawn
    adapter has a hidden unit. Pin a field with dataclasses.replace: the
    other fields keep their drawn values.
    """
    rng = stream(base_seed, "hyper", component_index)
    red_max = max(RED_MIN, min(RED_MAX, dim))
    return HyperConfig(red=RED_MIN + rng.randbelow(red_max - RED_MIN + 1),
                       lr=rng.choice(LR_GRID),
                       weight_decay=rng.choice(WEIGHT_DECAY_GRID),
                       aug_strength=rng.choice(AUG_STRENGTH_GRID),
                       seed=rng.next_u64(), epochs=epochs)


def init_adapter(dim: int, red: int, seed: int) -> AdapterParams:
    """Uniform fan-in initialization with H = floor(D / red), zero biases."""
    hidden = dim // red
    if hidden < 1:
        raise RedTooLarge(f"floor({dim} / {red}) < 1; adapter needs a hidden unit")
    rng = stream(seed, "init")
    bound1 = 1.0 / math.sqrt(dim)
    bound2 = 1.0 / math.sqrt(hidden)
    w1 = (rng.random_array(hidden * dim) * 2.0 - 1.0) * bound1
    w2 = (rng.random_array(dim * hidden) * 2.0 - 1.0) * bound2
    return AdapterParams(W1=w1.reshape(hidden, dim), b1=np.zeros(hidden),
                         W2=w2.reshape(dim, hidden), b2=np.zeros(dim))


# ------------------------------------------------------------------ training

def _view_picks(n: int, views: int, aug_strength: float, rng) -> np.ndarray:
    """The view each of an epoch's n shuffled samples trains on.

    Each sample takes a random non-canonical view with probability
    0.5 * aug_strength and the clean view 0 otherwise: per sample, one
    uniform double and, if it picks, 1 + a draw below views - 1, walked in
    bulk.
    """
    draw = rng.walk(2 * n).__next__  # under 2 per sample
    threshold = 0.5 * aug_strength
    return np.array([1 + below(draw, views - 1)
                     if uniform(draw()) < threshold else 0
                     for _ in range(n)], dtype=np.int64)


def train_component(emb: EmbeddingSet, selection: FewShotSelection,
                    head: ClassifierHead, cfg: HyperConfig,
                    masked_table: np.ndarray | None = None):
    """Train one adapter component against a frozen head.

    heads.check_compatible refuses a head of another class count or dim
    before any step. The training rows are the set's samples at
    selection.flat(), each with its label in emb as target. masked_table,
    if given, holds one row per training row, as
    heads.leave_one_out_prototypes returns it for the prompts of
    heads.selection_prototypes: each row then scores its own class
    against the prototype that leaves it out. Embeddings, head and table
    are only read, so components may share them across threads; a
    component runs wholly on the thread that calls this. Returns
    (AdapterParams, TrainRecord).

    Each epoch shuffles the rows with the stream (seed, "shuffle",
    epoch). Multi-view sets then pick views from (seed, "aug", epoch);
    single-view sets add Gaussian noise with sigma = 0.02 * aug_strength
    from that stream, values i D .. (i + 1) D - 1 of its normal_array
    (n_train D) for the epoch's row i, and re-normalize.

    Beside its inputs, a component holds one float64 norm per training
    row and view, taken once (numerics.row_norms), each parameter four
    times (itself, its gradient and its two AdamW moments, all allocated
    once, with AdamW's two work arrays of one chunk), and one span of the
    epoch's features: numerics.chunk_rows(batch_size D) whole batches,
    gathered from the float32 set and divided by their norms (the bits of
    unit_features), then noised and normalized, just before their steps.
    No float64 copy of the selection is made.
    """
    check_compatible(head, [("training", emb)])
    started = time.perf_counter()
    rows = np.asarray(selection.flat(), dtype=np.int64)
    n_train, dim = rows.size, emb.dim
    if masked_table is not None and masked_table.shape != (n_train, dim):
        raise ShapeMismatch(f"masked table has shape {masked_table.shape}, "
                            f"expected {(n_train, dim)}")
    labels = emb.labels[rows]
    # every view's norm, taken as unit_features takes it, so a span's
    # float32 rows divided by theirs are unit_features' float64 rows
    norms = np.empty((n_train, emb.views))
    step = chunk_rows(emb.views * dim)
    for lo in range(0, n_train, step):
        norms[lo:lo + step] = row_norms(emb.features[rows[lo:lo + step]])
    for v in range(emb.views):
        with prefixed(f"component seed {cfg.seed}: training view {v}"):
            check_norms(norms[:, v])
    span = cfg.batch_size * chunk_rows(cfg.batch_size * dim)

    params = init_adapter(dim, cfg.red, cfg.seed)
    param_dict = params.as_dict()
    grads = {k: np.empty_like(p) for k, p in param_dict.items()}
    state = OptimState.init(param_dict, lr=cfg.lr,
                            weight_decay=cfg.weight_decay)
    trace: list[float] = []
    sigma = FEATURE_NOISE_SCALE * cfg.aug_strength
    noisy = emb.views == 1 and sigma != 0.0
    # diverging steps overflow on the way; the finiteness checks below,
    # not numpy warnings, report it
    with np.errstate(all="ignore"):
        for epoch in range(cfg.epochs):
            order = stream(cfg.seed, "shuffle", epoch).permutation(n_train)
            aug = stream(cfg.seed, "aug", epoch)
            picks = _view_picks(n_train, emb.views, cfg.aug_strength, aug) \
                if emb.views > 1 else np.zeros(n_train, dtype=np.int64)
            loss_sum = 0.0
            for lo in range(0, n_train, span):
                hi = min(lo + span, n_train)
                idx, views = order[lo:hi], picks[lo:hi]
                x_span = np.divide(emb.features[rows[idx], views],
                                   norms[idx, views][:, np.newaxis])
                if noisy:
                    noise = aug.normal_span(n_train * dim, lo * dim, hi * dim)
                    noise *= sigma
                    x_span += noise.reshape(x_span.shape)
                    with prefixed(f"component seed {cfg.seed}: noisy "
                                  f"features at epoch {epoch}"):
                        normalize_rows(x_span, out=x_span, first_row=lo)
                for start in range(lo, hi, cfg.batch_size):
                    stop = min(start + cfg.batch_size, hi)
                    step = start // cfg.batch_size
                    batch = order[start:stop]
                    batch_loss, _ = adapter_backward(
                        params, x_span[start - lo:stop - lo], head,
                        labels[batch], LABEL_SMOOTHING, cfg.train_r,
                        None if masked_table is None else masked_table[batch],
                        out=grads)
                    if not math.isfinite(batch_loss):
                        raise NumericalError(
                            f"component seed {cfg.seed}: loss is "
                            f"{batch_loss} at epoch {epoch} step {step}")
                    adamw_step(param_dict, grads, state)
                    loss_sum += batch_loss
            trace.append(loss_sum / n_train)
    for name, arr in param_dict.items():
        if not finite_in_float32(arr):
            raise NumericalError(
                f"component seed {cfg.seed}: {name} is not finite in float32 "
                f"after epoch {epoch} step {step}")

    record = TrainRecord(config=cfg, masked=masked_table is not None,
                         final_loss=trace[-1] if trace else None,
                         loss_trace=trace,
                         wall_time=time.perf_counter() - started)
    return params, record


# --------------------------------------------------------------- checkpoints

def finite_in_float32(arr: np.ndarray) -> bool:
    """Whether arr is finite once cast to the float32 a checkpoint stores;
    a NaN, or a value that overflows to inf, is not."""
    with np.errstate(over="ignore"):
        return bool(np.isfinite(arr.astype(np.float32)).all())


def component_meta(record: TrainRecord) -> dict:
    """The trailer of a trained component's checkpoint: its
    hyperparameters, with mask_strategy saying whether a leave-one-out
    table trained it, and its losses."""
    return {"kind": "component",
            "hyper": {**asdict(record.config),
                      "mask_strategy": MASK if record.masked else NO_MASK},
            "record": {"final_loss": record.final_loss,
                       "loss_trace": list(record.loss_trace)}}


def checkpoint_bytes(params: AdapterParams, scale: float,
                     meta: dict) -> bytearray:
    """A checkpoint file's bytes; meta lands in the JSON trailer (sorted keys).

    The weights are cast to float32 straight into the one bytearray
    returned, with no copy of them beside it. Refuses (NumericalError)
    weights that are not finite in float32, which parse_checkpoint would
    refuse, so no unreadable checkpoint is made.
    """
    arrays = params.as_dict()
    for name, arr in arrays.items():
        if not finite_in_float32(arr):
            raise NumericalError(f"checkpoint weights {name} are not finite "
                                 f"in float32")
    trailer = json.dumps(meta, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    off = _HEADER.size + 4 * sum(arr.size for arr in arrays.values())
    blob = bytearray(off + 4 + len(trailer))
    _HEADER.pack_into(blob, 0, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                      params.dim, params.hidden, float(scale))
    struct.pack_into("<I", blob, off, len(trailer))
    blob[off + 4:] = trailer
    off = _HEADER.size
    for arr in arrays.values():  # W1, b1, W2, b2
        np.frombuffer(blob, dtype="<f4", count=arr.size,
                      offset=off)[:] = arr.reshape(-1)
        off += 4 * arr.size
    return blob


def parse_checkpoint(blob: bytes):
    """Parse a checkpoint's bytes; returns (AdapterParams, scale, meta dict)."""
    dim, hidden, scale = unpack_header(blob, _HEADER, CHECKPOINT_MAGIC,
                                       CHECKPOINT_VERSION, "checkpoint")
    counts = (hidden * dim, hidden, dim * hidden, dim)
    body = 4 * sum(counts)
    if len(blob) < _HEADER.size + body + 4:
        raise CorruptLength("checkpoint truncated before trailer")
    off = _HEADER.size
    arrays = []
    for count in counts:
        arrays.append(np.frombuffer(blob, dtype="<f4", count=count,
                                    offset=off).astype(np.float64))
        off += 4 * count
    (trailer_len,) = struct.unpack_from("<I", blob, off)
    off += 4
    if len(blob) != off + trailer_len:
        raise CorruptLength(f"expected {off + trailer_len} bytes, "
                            f"found {len(blob)}")
    meta = json_object(blob[off:], "checkpoint trailer")
    params = AdapterParams(W1=arrays[0].reshape(hidden, dim), b1=arrays[1],
                           W2=arrays[2].reshape(dim, hidden), b2=arrays[3])
    return params, scale, meta


def save_checkpoint(path, params: AdapterParams, scale: float, meta: dict):
    """Write checkpoint_bytes to path atomically."""
    atomic_write(path, (checkpoint_bytes(params, scale, meta),), "checkpoint")


def load_checkpoint(path):
    """Read a checkpoint file; returns (AdapterParams, scale, meta dict).
    A format error starts with the file's path."""
    blob = read_bytes(path, "checkpoint")
    with prefixed(path):
        return parse_checkpoint(blob)
