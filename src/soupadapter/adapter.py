"""Residual MLP adapters: forward, blending, hand-derived gradients, training.

An adapter maps a frozen unit embedding x to a = W2 @ gelu(W1 @ x + b1) + b2
with hidden width H = floor(D / red). At inference the adapted feature is
f = normalize(x + r * a) for a residual ratio r in [0, 1]; r = 0 reproduces
the frozen embedding exactly. Training fits the adapter against a frozen
classifier head with label-smoothed cross entropy and AdamW; all gradients
here are hand-derived, including the Jacobian of the final normalization.

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

from .dataio import (EmbeddingSet, FewShotSelection, atomic_write, read_bytes,
                     unpack_header)
from .errors import (CorruptLength, DegenerateVector, NumericalError,
                     RedTooLarge, ShapeMismatch)
from .heads import ClassifierHead
from .numerics import (OptimState, adamw_step,
                       cross_entropy_label_smoothing_batch, gelu, gelu_grad,
                       normalize_rows, row_norms)
from .rng import stream

CHECKPOINT_MAGIC = b"SADA"
CHECKPOINT_VERSION = 1

RED_MIN, RED_MAX = 2, 10
LR_GRID = (2e-3, 1e-3, 5e-4)
WEIGHT_DECAY_GRID = (1e-3, 1e-2, 5e-2)
AUG_STRENGTH_GRID = (0.25, 0.5, 0.75, 1.0)
LABEL_SMOOTHING = 0.1
FEATURE_NOISE_SCALE = 0.02  # sigma = 0.02 * aug_strength for single-view sets
FLOAT32_MAX = float(np.finfo(np.float32).max)  # checkpoints store float32

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

    @property
    def param_count(self) -> int:
        return self.W1.size + self.b1.size + self.W2.size + self.b2.size

    def as_dict(self) -> dict[str, np.ndarray]:
        """Live references, suitable for in-place optimizer updates."""
        return {"W1": self.W1, "b1": self.b1, "W2": self.W2, "b2": self.b2}

    def copy(self) -> "AdapterParams":
        return AdapterParams(self.W1.copy(), self.b1.copy(),
                             self.W2.copy(), self.b2.copy())


@dataclass
class HyperConfig:
    """Per-component hyperparameters, normally drawn by sample_hyperconfig."""

    red: int
    lr: float
    weight_decay: float
    aug_strength: float
    seed: int
    epochs: int
    batch_size: int = 32
    train_r: float = 1.0
    mask_strategy: str = NO_MASK  # recorded; train_component's table masks

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class TrainRecord:
    """What one training run did. wall_time is informational and is never
    serialized, so repeated runs stay byte-identical on disk."""

    config: HyperConfig
    final_loss: float | None
    loss_trace: list[float]
    wall_time: float = 0.0

    def to_dict(self) -> dict:
        return {"final_loss": self.final_loss,
                "loss_trace": list(self.loss_trace)}


# ------------------------------------------------------------ forward passes

def adapter_forward(params: AdapterParams, x: np.ndarray) -> np.ndarray:
    """a = W2 @ gelu(W1 @ x + b1) + b2 for one unit vector or rows of them.

    The output is intentionally not normalized; normalization happens in
    blend after the residual sum.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != params.dim:
        raise ShapeMismatch(f"input dim {x.shape[-1]} != adapter dim {params.dim}")
    hidden = gelu(x @ params.W1.T + params.b1)
    return hidden @ params.W2.T + params.b2


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
                     masked_rows: np.ndarray | None = None):
    """Label-smoothed CE of the blended head logits and its exact gradients.

    x is one unit vector or rows of them, target an int or one class per
    row. masked_rows, if given, replace each row's target-class head row
    (a leave-one-out prototype) in its target logit. Differentiates
    through the head logits, the normalization f = u / |u| (Jacobian
    (I - f f^T) / |u|) and the two-layer MLP; the head itself is frozen.
    Returns (sum of per-sample losses, gradients of the batch-mean loss).
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
    hidden = gelu(z)
    f = xs
    if r != 0.0:
        u = xs + r * (hidden @ params.W2.T + params.b2)
        norms = row_norms(u)
        if np.any(norms < 1e-12):
            raise DegenerateVector("residual sum collapsed to zero")
        f = u / norms[:, np.newaxis]
    logits = escale * (f @ head_w.T)
    b = np.arange(n_batch)
    if masked_rows is not None:
        masked_rows = np.atleast_2d(masked_rows)
        logits[b, targets] = escale * np.einsum("bd,bd->b", f, masked_rows)
    losses, dlogits = cross_entropy_label_smoothing_batch(logits, targets, eps)
    if r == 0.0:
        return float(losses.sum()), {k: np.zeros_like(v)
                                     for k, v in params.as_dict().items()}
    g = dlogits / n_batch  # gradient of the batch-mean loss
    df = escale * (g @ head_w)
    if masked_rows is not None:
        df += escale * g[b, targets, np.newaxis] \
            * (masked_rows - head_w[targets])
    du = (df - f * np.sum(f * df, axis=1, keepdims=True)) / norms[:, np.newaxis]
    da = r * du
    dz = gelu_grad(z) * (da @ params.W2)
    grads = {"W1": dz.T @ xs, "b1": dz.sum(axis=0),
             "W2": da.T @ hidden, "b2": da.sum(axis=0)}
    return float(losses.sum()), grads


# ------------------------------------------------------------ configuration

def sample_hyperconfig(base_seed: int, component_index: int,
                       overrides: dict | None = None, *,
                       dim: int) -> HyperConfig:
    """Draw one component's hyperparameters from the documented grids.

    All fields are drawn (in a fixed order: red, lr, weight decay,
    augmentation strength, seed) from the stream
    (base_seed, "hyper", component_index); overrides then pin individual
    fields, so pinning one field never changes the others. ``red`` is
    drawn from RED_MIN..min(RED_MAX, dim), so from dim >= RED_MIN on every
    drawn adapter has a hidden unit. ``epochs`` has no grid and must be
    supplied via overrides.
    """
    overrides = dict(overrides or {})
    rng = stream(base_seed, "hyper", component_index)
    red_max = max(RED_MIN, min(RED_MAX, dim))
    drawn = {
        "red": RED_MIN + rng.randbelow(red_max - RED_MIN + 1),
        "lr": rng.choice(LR_GRID),
        "weight_decay": rng.choice(WEIGHT_DECAY_GRID),
        "aug_strength": rng.choice(AUG_STRENGTH_GRID),
        "seed": rng.next_u64(),
    }
    if "epochs" not in overrides:
        raise ValueError("epochs is a required override (no grid exists for it)")
    unknown = set(overrides) - set(HyperConfig.__dataclass_fields__)
    if unknown:
        raise ValueError(f"unknown hyperparameter overrides: {sorted(unknown)}")
    drawn.update(overrides)
    return HyperConfig(**drawn)


def mask_strategy_for_shots(n_shot: int) -> str:
    """Shot-dependent default: mask from 8 shots up, no-mask below."""
    return MASK if n_shot >= 8 else NO_MASK


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

def _augmented_epoch(sel_views: np.ndarray, order: np.ndarray,
                     aug_strength: float, rng) -> np.ndarray:
    """Training features for one epoch, in shuffled order.

    Multi-view sets draw a random non-canonical view with probability
    0.5 * aug_strength (the clean view otherwise); single-view sets add
    isotropic Gaussian noise with sigma = 0.02 * aug_strength and
    re-normalize.
    """
    n, v, d = sel_views.shape
    if v > 1:
        rows = np.empty((order.size, d))
        for i, j in enumerate(order):
            pick = 0
            if rng.random() < 0.5 * aug_strength:
                pick = 1 + rng.randbelow(v - 1)
            rows[i] = sel_views[j, pick]
        return rows
    clean = sel_views[order, 0, :]
    sigma = FEATURE_NOISE_SCALE * aug_strength
    if sigma == 0.0:
        return clean.copy()
    noise = rng.normal_array(order.size * d).reshape(order.size, d)
    return normalize_rows(clean + sigma * noise)


def train_component(emb: EmbeddingSet, selection: FewShotSelection,
                    head: ClassifierHead, cfg: HyperConfig,
                    masked_table: np.ndarray | None = None):
    """Train one adapter component against a frozen head.

    masked_table, if given, is the (C, n_shot, D) stack of
    heads.leave_one_out_prototypes over the selection's prompts: each
    sample then scores its own class against the row that leaves it
    out. Embeddings, head and table are only read, so components may
    share them across threads. Returns (AdapterParams, TrainRecord).
    """
    started = time.perf_counter()
    if head.dim != emb.dim:
        raise ShapeMismatch("head dimension does not match the embeddings")
    expect = (head.n_classes, selection.n_shot, emb.dim)
    if masked_table is not None and masked_table.shape != expect:
        raise ShapeMismatch(f"masked table has shape {masked_table.shape}, "
                            f"expected {expect}")
    flat = selection.flat()
    sel_idx = np.asarray([t[0] for t in flat], dtype=np.int64)
    classes = np.asarray([t[1] for t in flat], dtype=np.int64)
    slots = np.asarray([t[2] for t in flat], dtype=np.int64)
    n_train = sel_idx.size

    # all views of the selected samples, re-normalized in 64-bit
    sel_views = normalize_rows(
        emb.features[sel_idx].astype(np.float64).reshape(-1, emb.dim)
    ).reshape(n_train, emb.views, emb.dim)

    params = init_adapter(emb.dim, cfg.red, cfg.seed)
    param_dict = params.as_dict()
    state = OptimState.init(param_dict, lr=cfg.lr,
                            weight_decay=cfg.weight_decay)
    trace: list[float] = []
    # diverging steps overflow on the way; the finiteness checks below,
    # not numpy warnings, report it
    with np.errstate(all="ignore"):
        for epoch in range(cfg.epochs):
            order = stream(cfg.seed, "shuffle", epoch).permutation(n_train)
            aug_rng = stream(cfg.seed, "aug", epoch)
            x_epoch = _augmented_epoch(sel_views, order, cfg.aug_strength,
                                       aug_rng)
            targets = classes[order]
            epoch_slots = slots[order]
            loss_sum = 0.0
            for step, start in enumerate(range(0, n_train, cfg.batch_size)):
                stop = min(start + cfg.batch_size, n_train)
                masked_rows = None
                if masked_table is not None:
                    masked_rows = masked_table[targets[start:stop],
                                               epoch_slots[start:stop]]
                batch_loss, grads = adapter_backward(
                    params, x_epoch[start:stop], head,
                    targets[start:stop], LABEL_SMOOTHING, cfg.train_r,
                    masked_rows)
                if not math.isfinite(batch_loss):
                    raise NumericalError(
                        f"component seed {cfg.seed}: loss is {batch_loss} "
                        f"at epoch {epoch} step {step}")
                adamw_step(param_dict, grads, state)
                loss_sum += batch_loss
            trace.append(loss_sum / n_train)
    for name, arr in param_dict.items():
        # a NaN fails this comparison too
        if not np.all(np.abs(arr) <= FLOAT32_MAX):
            raise NumericalError(
                f"component seed {cfg.seed}: {name} is not finite in float32 "
                f"after epoch {epoch} step {step}")

    record = TrainRecord(config=cfg,
                         final_loss=trace[-1] if trace else None,
                         loss_trace=trace,
                         wall_time=time.perf_counter() - started)
    return params, record


# --------------------------------------------------------------- checkpoints

def checkpoint_bytes(params: AdapterParams, scale: float, meta: dict) -> bytes:
    """A checkpoint file's bytes; meta lands in the JSON trailer (sorted keys)."""
    trailer = json.dumps(meta, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    return b"".join((
        _HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, params.dim,
                     params.hidden, float(scale)),
        *(arr.astype("<f4").tobytes()
          for arr in (params.W1, params.b1, params.W2, params.b2)),
        struct.pack("<I", len(trailer)), trailer))


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
    try:
        meta = json.loads(blob[off:].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptLength(f"checkpoint trailer is not valid JSON: {exc}") \
            from exc
    if not isinstance(meta, dict):
        raise CorruptLength("checkpoint trailer is not a JSON object")
    params = AdapterParams(W1=arrays[0].reshape(hidden, dim), b1=arrays[1],
                           W2=arrays[2].reshape(dim, hidden), b2=arrays[3])
    return params, scale, meta


def save_checkpoint(path, params: AdapterParams, scale: float, meta: dict):
    """Write checkpoint_bytes to path atomically."""
    atomic_write(path, checkpoint_bytes(params, scale, meta), "checkpoint")


def load_checkpoint(path):
    """Read a checkpoint file; returns (AdapterParams, scale, meta dict)."""
    return parse_checkpoint(read_bytes(path, "checkpoint"))
