"""Classifier heads: class prototypes, imported weight files, KNN voting.

A head is a C x D matrix of unit-norm class rows plus a logit scale;
logits for a unit feature f are exp(scale) * (W @ f), so the temperature
is 1 / exp(scale) and the argmax never depends on it. Default scale is
ln(100), the conventional operating point for cosine-similarity heads.

Head file format (binary, little-endian): magic b"SHED", version u32=1,
C u32, D u32, scale float64, rows C x D float32 (unit-norm within 1e-4).
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .dataio import (EmbeddingSet, FewShotSelection, atomic_write, read_bytes,
                     unpack_header)
from .errors import (CorruptLength, DegenerateVector, EmptyBank, EmptyClass,
                     NormViolation)
from .numerics import DEGENERATE_NORM, normalize_rows

HEAD_MAGIC = b"SHED"
HEAD_VERSION = 1
DEFAULT_SCALE = math.log(100.0)
NORM_TOLERANCE = 1e-4

ORIGIN_PROTOTYPE = "prototype"
ORIGIN_IMPORTED = "imported"

_HEADER = struct.Struct("<4s3Id")

# Query rows scored per matrix product, here and in evalkit: memory for
# similarities and logits stays O(EVAL_BLOCK_ROWS x (bank or C)).
EVAL_BLOCK_ROWS = 1024


@dataclass
class ClassifierHead:
    weights: np.ndarray  # (C, D) float64, unit-norm rows
    scale: float = DEFAULT_SCALE
    origin: str = ORIGIN_PROTOTYPE

    def __post_init__(self):
        self.weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        if not np.isfinite(self.scale):
            raise ValueError("scale must be finite")

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.weights.shape[1]


@dataclass
class KnnConfig:
    k: int = 10
    temperature: float = 0.1

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")


# ---------------------------------------------------------------- prototypes

def _prototype_row(prompts: np.ndarray, skip: int = -1) -> np.ndarray:
    """Normalized sum of prompt rows in ascending index order."""
    total = np.zeros(prompts.shape[1], dtype=np.float64)
    for j in range(prompts.shape[0]):
        if j != skip:
            total += prompts[j]
    norm = float(np.linalg.norm(total))
    if norm < DEGENERATE_NORM:
        raise DegenerateVector("class prompt embeddings sum to (near) zero")
    return total / norm


def build_prototypes(prompts, scale: float = DEFAULT_SCALE) -> ClassifierHead:
    """Head whose class rows are normalized sums of per-class prompt vectors.

    ``prompts`` is one array (or list) of D-dim embeddings per class.
    """
    rows = []
    for c, cls_prompts in enumerate(prompts):
        cls_prompts = np.asarray(cls_prompts, dtype=np.float64)
        if cls_prompts.size == 0:
            raise EmptyClass(f"class {c} has no prompt embeddings")
        rows.append(_prototype_row(np.atleast_2d(cls_prompts)))
    return ClassifierHead(weights=np.stack(rows), scale=scale,
                          origin=ORIGIN_PROTOTYPE)


def leave_one_out_prototypes(prompts) -> list[np.ndarray]:
    """Every class's prototype rows with one prompt left out of its sum.

    Row [c][s] is class c's normalized prompt sum without prompt s, summed
    in ascending order like build_prototypes. A single-prompt class keeps
    its unmasked row with a warning, since leaving its only prompt out
    would erase the class entirely.
    """
    table = []
    for c, cls_prompts in enumerate(prompts):
        cls_prompts = np.atleast_2d(np.asarray(cls_prompts, dtype=np.float64))
        if cls_prompts.size == 0:
            raise EmptyClass(f"class {c} has no prompt embeddings")
        n = cls_prompts.shape[0]
        if n == 1:
            warnings.warn(f"class {c} has a single prompt; keeping it unmasked",
                          RuntimeWarning, stacklevel=2)
        table.append(np.stack([_prototype_row(cls_prompts,
                                              skip=s if n > 1 else -1)
                               for s in range(n)]))
    return table


def selection_prototypes(emb: EmbeddingSet, selection: FewShotSelection,
                         scale: float = DEFAULT_SCALE):
    """The prototype head of a few-shot selection, and its prompts.

    Each class's prompts are its selected clean (view 0) unit embeddings
    in slot order. Returns (ClassifierHead, prompts).
    """
    prompts = [emb.unit_features(0, indices=cls) for cls in selection.indices]
    return build_prototypes(prompts, scale=scale), prompts


# -------------------------------------------------------------------- logits

def head_logits(head: ClassifierHead, f: np.ndarray) -> np.ndarray:
    """exp(scale) * (W @ f) for a unit feature f, or rows of features."""
    f = np.asarray(f, dtype=np.float64)
    return math.exp(head.scale) * (f @ head.weights.T)


def knn_logits(bank_features: np.ndarray, bank_labels: np.ndarray,
               x: np.ndarray, cfg: KnnConfig,
               num_classes: int | None = None) -> np.ndarray:
    """Temperature-weighted votes of the k nearest bank entries.

    Neighbors are ranked by cosine similarity (features are unit vectors, so
    the dot product), ties broken toward the lower bank index; each neighbor
    adds exp(similarity / T) to its class logit. k is clamped to the bank
    size. Accumulation runs in rank order.
    """
    x = np.asarray(x, dtype=np.float64)
    return knn_logits_batch(bank_features, bank_labels, x[np.newaxis, :],
                            cfg, num_classes)[0]


def _nearest(sims: np.ndarray, k: int) -> np.ndarray:
    """Per row, the indices of the k largest entries ordered by (-sim, index).

    argpartition picks an arbitrary subset among entries tied with the k-th
    largest, so rows with such a tie at the cut take the stable full sort.
    """
    cut = sims.shape[1] - k
    top = np.sort(np.argpartition(sims, cut, axis=1)[:, cut:], axis=1)
    top_sims = np.take_along_axis(sims, top, axis=1)
    top = np.take_along_axis(
        top, np.argsort(-top_sims, axis=1, kind="stable"), axis=1)
    kth = np.take_along_axis(sims, top[:, -1:], axis=1)
    for b in np.flatnonzero(np.count_nonzero(sims >= kth, axis=1) > k):
        top[b] = np.argsort(-sims[b], kind="stable")[:k]
    return top


def knn_logits_batch(bank_features: np.ndarray, bank_labels: np.ndarray,
                     xs: np.ndarray, cfg: KnnConfig,
                     num_classes: int | None = None) -> np.ndarray:
    """knn_logits for every row of xs, EVAL_BLOCK_ROWS query rows at a time.

    Neighbors come out in the order of a stable per-row argsort, and each
    weight is math.exp of one selected similarity, so the votes equal a
    row-by-row scan of the same similarities bit for bit.
    """
    bank_features = np.asarray(bank_features, dtype=np.float64)
    bank_labels = np.asarray(bank_labels, dtype=np.int64)
    if bank_features.shape[0] == 0:
        raise EmptyBank("KNN bank is empty")
    if num_classes is None:
        num_classes = int(bank_labels.max()) + 1
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    k = min(cfg.k, bank_features.shape[0])
    out = np.zeros((xs.shape[0], num_classes), dtype=np.float64)
    for start in range(0, xs.shape[0], EVAL_BLOCK_ROWS):
        sims = xs[start:start + EVAL_BLOCK_ROWS] @ bank_features.T
        top = _nearest(sims, k)
        scaled = np.take_along_axis(sims, top, axis=1) / cfg.temperature
        weights = np.fromiter(map(math.exp, scaled.ravel().tolist()),
                              dtype=np.float64, count=scaled.size)
        weights = weights.reshape(scaled.shape)
        block = out[start:start + EVAL_BLOCK_ROWS]
        rows = np.arange(block.shape[0])
        for rank in range(k):
            block[rows, bank_labels[top[:, rank]]] += weights[:, rank]
    return out


# ----------------------------------------------------------------- head file

def export_head(head: ClassifierHead, path):
    atomic_write(path, _HEADER.pack(HEAD_MAGIC, HEAD_VERSION, head.n_classes,
                                    head.dim, float(head.scale))
                 + head.weights.astype("<f4").tobytes(), "head file")


def import_head(path) -> ClassifierHead:
    """Read a head file; rows are re-normalized in 64-bit on the way in."""
    blob = read_bytes(path, "head file")
    c, d, scale = unpack_header(blob, _HEADER, HEAD_MAGIC, HEAD_VERSION,
                                "head file")
    expect = _HEADER.size + 4 * c * d
    if len(blob) != expect:
        raise CorruptLength(f"expected {expect} bytes, found {len(blob)}")
    rows = np.frombuffer(blob, dtype="<f4", offset=_HEADER.size) \
        .reshape(c, d).astype(np.float64)
    norms = np.linalg.norm(rows, axis=1)
    bad = np.argwhere(~(np.abs(norms - 1.0) <= NORM_TOLERANCE))  # or NaN
    if bad.size:
        i = int(bad[0][0])
        raise NormViolation(f"head row {i} has norm {norms[i]:.6f}, "
                            f"expected 1 within {NORM_TOLERANCE:g}")
    return ClassifierHead(weights=normalize_rows(rows), scale=scale,
                          origin=ORIGIN_IMPORTED)
