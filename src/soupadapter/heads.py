"""Classifier heads: class prototypes, imported weight files, KNN voting.

A head is a C x D matrix of unit-norm class rows plus a logit scale;
logits for a unit feature f are exp(scale) * (W @ f), so the temperature
is 1 / exp(scale) and the argmax never depends on it. Prototype heads use
DEFAULT_SCALE = ln(100), the conventional operating point for
cosine-similarity heads; an imported head brings its own scale.

Head file format (binary, little-endian): magic b"SHED", version u32=1,
C u32, D u32, scale float64, rows C x D float32 (unit-norm within 1e-4).
export_head and import_head apply the same dataio.check_unit_norms to the
float32 rows, so a head that export_head writes always imports.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from . import dataio
from .dataio import (EmbeddingSet, FewShotSelection, atomic_write,
                     check_unit_norms, read_bytes, unpack_header)
from .errors import (ClassSetMismatch, CorruptLength, DegenerateVector,
                     EmptyBank, EmptyClass, NumericalError, prefixed)
from .numerics import (DEGENERATE_NORM, chunk_rows, normalize_rows,
                       row_spans)

HEAD_MAGIC = b"SHED"
HEAD_VERSION = 1
DEFAULT_SCALE = math.log(100.0)

_HEADER = struct.Struct("<4s3Id")

# The smallest temperature accepted for KNN votes exp(similarity / T). The
# similarity of unit vectors is at most 1 in exact arithmetic, but a float64
# dot product of a unit row with itself can round a few ulps above 1, and at
# 1 / ln(float64 max) that already overflows. One unit of headroom in the
# exponent keeps every vote finite for similarities up to 1 + 1 / 708.8.
KNN_T_MIN = 1.0 / (math.log(np.finfo(np.float64).max) - 1.0)


@dataclass
class ClassifierHead:
    weights: np.ndarray  # (C, D) float64, unit-norm rows
    scale: float = DEFAULT_SCALE

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


def check_compatible(head: ClassifierHead, sets):
    """Refuse (ClassSetMismatch) any (name, set) whose class count or dim
    differs from the head's. A set that carries a path, such as an open
    dataio.ContainerReader, is named by that path."""
    for name, emb in sets:
        if (emb.n_classes, emb.dim) != (head.n_classes, head.dim):
            raise ClassSetMismatch(
                f"set '{getattr(emb, 'path', name)}' has {emb.n_classes} "
                f"classes and dim {emb.dim}, head has {head.n_classes} and "
                f"{head.dim}")


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


def build_prototypes(prompts) -> ClassifierHead:
    """Head whose class rows are normalized sums of per-class prompt vectors.

    ``prompts`` is one array (or list) of D-dim embeddings per class.
    """
    rows = []
    for c, cls_prompts in enumerate(prompts):
        cls_prompts = np.asarray(cls_prompts, dtype=np.float64)
        if cls_prompts.size == 0:
            raise EmptyClass(f"class {c} has no prompt embeddings")
        rows.append(_prototype_row(np.atleast_2d(cls_prompts)))
    return ClassifierHead(weights=np.stack(rows))


def leave_one_out_prototypes(prompts) -> np.ndarray:
    """One prototype row per prompt, with that prompt left out of its sum.

    The rows follow the prompts in class-major order: class c's block
    starts at the total prompt count of the classes before it, and its
    row s is class c's normalized prompt sum without prompt s, summed in
    ascending order like build_prototypes. For selection_prototypes'
    prompts that is selection.flat() order, the masked_table
    adapter.train_component takes. A single-prompt class keeps its
    unmasked row with a warning, since leaving its only prompt out would
    erase the class entirely. Returns a float64 (total prompts, D) array,
    filled row by row.
    """
    classes = []
    for c, cls_prompts in enumerate(prompts):
        cls_prompts = np.atleast_2d(np.asarray(cls_prompts, dtype=np.float64))
        if cls_prompts.size == 0:
            raise EmptyClass(f"class {c} has no prompt embeddings")
        if cls_prompts.shape[0] == 1:
            warnings.warn(f"class {c} has a single prompt; keeping it unmasked",
                          RuntimeWarning, stacklevel=2)
        classes.append(cls_prompts)
    table = np.empty((sum(map(len, classes)), classes[0].shape[1]))
    row = 0
    for cls_prompts in classes:
        n = cls_prompts.shape[0]
        for s in range(n):
            table[row] = _prototype_row(cls_prompts, skip=s if n > 1 else -1)
            row += 1
    return table


def selection_prototypes(emb: EmbeddingSet, selection: FewShotSelection):
    """The prototype head of a few-shot selection, and its prompts.

    Each class's prompts are its selected clean (view 0) unit embeddings
    in selection order, so in class-major order they follow
    selection.flat(), as do the rows of leave_one_out_prototypes(prompts).
    Returns (ClassifierHead, prompts).
    """
    prompts = [emb.unit_features(0, indices=cls) for cls in selection.indices]
    return build_prototypes(prompts), prompts


# -------------------------------------------------------------------- logits

def head_logits(head: ClassifierHead, f: np.ndarray) -> np.ndarray:
    """exp(scale) * (W @ f) for a unit feature f, or rows of features."""
    f = np.asarray(f, dtype=np.float64)
    return math.exp(head.scale) * (f @ head.weights.T)


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
    """Temperature-weighted votes of the k nearest bank entries, one row
    of class logits per row of xs (a single vector is one row).

    Neighbors are ranked by cosine similarity (features are unit vectors,
    so the dot product), ties broken toward the lower bank index; each
    neighbor adds exp(similarity / T) to its class logit, in rank order.
    k is clamped to the bank size. The rows are taken dataio.BLOCK_ROWS
    at a time, and each block's similarities are one product per
    numerics.row_spans span, about numerics.PRODUCT_VALUES values, so
    memory for them stays O(PRODUCT_VALUES) whatever the bank size; a
    span has one row only where the block has one. Each span's neighbors
    are selected over sub-blocks of numerics.chunk_rows(bank size) rows.
    Neighbors come out in the order of a stable per-row argsort, and each
    weight is math.exp of one selected similarity, so the votes equal a
    row-by-row scan of the same similarities bit for bit. A weight that
    overflows float64 raises NumericalError.
    """
    bank_features = np.asarray(bank_features, dtype=np.float64)
    bank_labels = np.asarray(bank_labels, dtype=np.int64)
    if bank_features.shape[0] == 0:
        raise EmptyBank("KNN bank is empty")
    if num_classes is None:
        num_classes = int(bank_labels.max()) + 1
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    k = min(cfg.k, bank_features.shape[0])
    bank = bank_features.shape[0]
    sub = chunk_rows(bank)
    out = np.zeros((xs.shape[0], num_classes), dtype=np.float64)
    rows = dataio.BLOCK_ROWS
    for start in range(0, xs.shape[0], rows):
        block = xs[start:start + rows]
        for lo, hi in row_spans(len(block), bank):
            sims = block[lo:hi] @ bank_features.T
            top = np.concatenate([_nearest(sims[a:a + sub], k)
                                  for a in range(0, hi - lo, sub)])
            scaled = np.take_along_axis(sims, top, axis=1) / cfg.temperature
            del sims  # before the votes' Python floats are made
            try:
                weights = np.fromiter(map(math.exp, scaled.ravel().tolist()),
                                      dtype=np.float64, count=scaled.size)
            except OverflowError:
                raise NumericalError(
                    f"KNN weight exp(similarity / T) overflows at "
                    f"temperature {cfg.temperature:g}") from None
            weights = weights.reshape(scaled.shape)
            votes = out[start + lo:start + hi]
            at = np.arange(hi - lo)
            for rank in range(k):
                votes[at, bank_labels[top[:, rank]]] += weights[:, rank]
    return out


# ----------------------------------------------------------------- head file

def export_head(head: ClassifierHead, path):
    """Write a head file atomically; refuses (NormViolation), before
    anything is written, rows whose float32 values import_head would
    refuse."""
    with np.errstate(over="ignore"):  # an overflow to inf fails the check
        rows = head.weights.astype("<f4")
    check_unit_norms(rows, "head row {}")
    atomic_write(path, (_HEADER.pack(HEAD_MAGIC, HEAD_VERSION, head.n_classes,
                                     head.dim, float(head.scale)), rows),
                 "head file")


def import_head(path) -> ClassifierHead:
    """Read a head file; rows are re-normalized in 64-bit on the way in.
    A format error starts with the file's path."""
    blob = read_bytes(path, "head file")
    with prefixed(path):
        c, d, scale = unpack_header(blob, _HEADER, HEAD_MAGIC, HEAD_VERSION,
                                    "head file")
        expect = _HEADER.size + 4 * c * d
        if len(blob) != expect:
            raise CorruptLength(f"expected {expect} bytes, found {len(blob)}")
        rows = np.frombuffer(blob, dtype="<f4", offset=_HEADER.size) \
            .reshape(c, d)
        check_unit_norms(rows, "head row {}")
    return ClassifierHead(weights=normalize_rows(rows), scale=scale)
