"""Accuracy sweeps over the residual ratio and robustness reporting.

A report is a flat list of (model, split, r, accuracy) rows plus optional
baseline accuracies per split (bare head, KNN).

Scoring is algebra rather than re-blending. The adapted feature
normalize(x + r a) differs from x + r a by a positive per-row factor, which
cannot move an argmax, so the decision at ratio r is argmax(P + r Q) with
P = exp(s) X W^T the bare-head logits and Q = exp(s) A W^T. Folding the head
into the adapter's output layer once (W W2 and W b2) gives
Q = exp(s) (gelu(X W1^T + b1) (W W2)^T + W b2), so A is never formed. Each
set is scored in one pass over blocks of EVAL_BLOCK_ROWS rows: every block
computes X and P once, counts the bare-head hits from P, and then adds up
every model's hits at every r. Memory is bounded by the block, not by the
set; the r = 0 row is the bare-head count itself and so reproduces its
decisions exactly.

CSV layout: header "model,split,r,accuracy", one row per cell, '.' decimal
separator, '\n' line endings. JSON mirrors the report fields and includes
the baselines.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .adapter import AdapterParams
from .dataio import EmbeddingSet, atomic_write, json_bytes, read_bytes
from .errors import (ClassSetMismatch, CorruptLength, IoFailure,
                     LengthMismatch, ShapeMismatch)
from .heads import (EVAL_BLOCK_ROWS, ClassifierHead, KnnConfig, head_logits,
                    knn_logits_batch)
from .numerics import gelu
from .soup import Soup

DEFAULT_GRID = tuple(round(0.1 * i, 12) for i in range(11))


@dataclass
class SweepRow:
    model: str
    split: str
    r: float
    accuracy: float


@dataclass
class EvalReport:
    rows: list[SweepRow] = field(default_factory=list)
    baselines: dict[str, dict[str, float]] = field(default_factory=dict)

    def extend(self, other: "EvalReport"):
        self.rows.extend(other.rows)
        for split, entries in other.baselines.items():
            self.baselines.setdefault(split, {}).update(entries)

    def accuracies(self, model: str, split: str) -> dict[float, float]:
        return {row.r: row.accuracy for row in self.rows
                if row.model == model and row.split == split}


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy; argmax ties resolve to the lowest class index."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2 or logits.shape[0] != labels.shape[0]:
        raise LengthMismatch(
            f"{logits.shape[0] if logits.ndim == 2 else logits.ndim} logit "
            f"rows vs {labels.shape[0]} labels")
    if labels.size == 0:
        raise LengthMismatch("cannot score an empty batch")
    return float(np.mean(np.argmax(logits, axis=1) == labels))


# ------------------------------------------------------------ one-pass sweep

def _blocks(emb: EmbeddingSet, split=None):
    """(unit clean-view features, labels) of the set, EVAL_BLOCK_ROWS at a
    time; ``split`` restricts it to those sample indices."""
    rows = np.arange(emb.n) if split is None \
        else np.asarray(split, dtype=np.int64)
    if rows.size == 0:
        raise LengthMismatch("cannot score an empty batch")
    for start in range(0, rows.size, EVAL_BLOCK_ROWS):
        idx = rows[start:start + EVAL_BLOCK_ROWS]
        yield emb.unit_features(view=0, indices=idx), emb.labels[idx]


def _fold(model, head: ClassifierHead) -> list[tuple]:
    """(W1, b1, W W2, W b2) per component: the head folded into the output
    layer, so residual logits need no D-wide adapter output."""
    if isinstance(model, Soup):
        components = model.components
    elif isinstance(model, AdapterParams):
        components = [model]
    else:
        raise TypeError(f"cannot evaluate a {type(model).__name__}")
    if components[0].dim != head.dim:
        raise ShapeMismatch(f"adapter dim {components[0].dim} != head dim "
                            f"{head.dim}")
    return [(c.W1, c.b1, head.weights @ c.W2, head.weights @ c.b2)
            for c in components]


def _residual_logits(folded: list[tuple], feats: np.ndarray,
                     scale: float) -> np.ndarray:
    """Q = exp(scale) A W^T, averaged over the components in order."""
    total = None
    for w1, b1, ww2, wb2 in folded:
        q = gelu(feats @ w1.T + b1) @ ww2.T + wb2
        total = q if total is None else total + q
    return math.exp(scale) * (total / len(folded))


def _sweep_set(folded_models, head: ClassifierHead, emb: EmbeddingSet,
               grid, split=None) -> tuple[float, list[dict[float, float]]]:
    """Bare-head accuracy and, per folded model, {r: accuracy} on one set."""
    grid = [float(r) for r in grid]
    n = 0
    bare = 0
    hits = np.zeros((len(folded_models), len(grid)), dtype=np.int64)
    for feats, labels in _blocks(emb, split):
        n += labels.size
        p = head_logits(head, feats)
        bare_block = int(np.count_nonzero(np.argmax(p, axis=1) == labels))
        bare += bare_block
        for m, folded in enumerate(folded_models):
            q = _residual_logits(folded, feats, head.scale)
            for i, r in enumerate(grid):
                hits[m, i] += bare_block if r == 0.0 else np.count_nonzero(
                    np.argmax(p + r * q, axis=1) == labels)
    return bare / n, [dict(zip(grid, (int(h) / n for h in row)))
                      for row in hits]


def ratio_sweep(model, head: ClassifierHead, emb: EmbeddingSet,
                grid=DEFAULT_GRID, split=None) -> dict[float, float]:
    """Accuracy of normalize(x + r model(x)) under the head, for each r.

    ``split`` restricts evaluation to those sample indices; evaluation
    always uses the clean view.
    """
    return _sweep_set([_fold(model, head)], head, emb, grid, split)[1][0]


def head_accuracy(head: ClassifierHead, emb: EmbeddingSet, split=None) -> float:
    return _sweep_set([], head, emb, (), split)[0]


def knn_accuracy(bank_features: np.ndarray, bank_labels: np.ndarray,
                 cfg: KnnConfig, emb: EmbeddingSet, num_classes: int,
                 split=None) -> float:
    n = hits = 0
    for feats, labels in _blocks(emb, split):
        logits = knn_logits_batch(bank_features, bank_labels, feats, cfg,
                                  num_classes)
        n += labels.size
        hits += int(np.count_nonzero(np.argmax(logits, axis=1) == labels))
    return hits / n


def check_compatible(head: ClassifierHead, sets):
    """Refuse (ClassSetMismatch) any (name, set) whose class count or dim
    differs from the head's."""
    for name, emb in sets:
        if emb.n_classes != head.n_classes:
            raise ClassSetMismatch(
                f"set '{name}' has {emb.n_classes} classes, head has "
                f"{head.n_classes}")
        if emb.dim != head.dim:
            raise ClassSetMismatch(
                f"set '{name}' has dim {emb.dim}, head has {head.dim}")


def robustness_report(models, head: ClassifierHead, id_set: EmbeddingSet,
                      ood_sets: dict[str, EmbeddingSet],
                      grid=DEFAULT_GRID) -> EvalReport:
    """(ID, OOD) accuracy per model per residual ratio.

    ``models`` is a list of (name, adapter-or-soup) pairs, all scored in one
    pass per set. The "ood" rows hold the unweighted mean accuracy over the
    shifted sets at each r; the bare-head accuracies land in the baselines
    under "head".
    """
    check_compatible(head, [("id", id_set), *ood_sets.items()])
    folded = [_fold(model, head) for _, model in models]
    id_bare, id_accs = _sweep_set(folded, head, id_set, grid)
    ood = [_sweep_set(folded, head, emb, grid) for emb in ood_sets.values()]
    report = EvalReport()
    for m, (name, _) in enumerate(models):
        for r in grid:
            r = float(r)
            report.rows.append(SweepRow(name, "id", r, id_accs[m][r]))
            if ood:
                mean_ood = float(np.mean([accs[m][r] for _, accs in ood]))
                report.rows.append(SweepRow(name, "ood", r, mean_ood))
    report.baselines["id"] = {"head": id_bare}
    if ood:
        report.baselines["ood"] = {"head": float(np.mean(
            [bare for bare, _ in ood]))}
    return report


def component_average_report(components, head: ClassifierHead,
                             sets: dict[str, EmbeddingSet],
                             grid=DEFAULT_GRID) -> EvalReport:
    """Every component evaluated independently, plus mean/min/max rows.

    Rows are named component_<j>, component_mean, component_min and
    component_max; the mean row is the exact arithmetic mean of the
    per-component rows. All components are scored in one pass per set.
    """
    if not components:
        raise ValueError("need at least one component")
    folded = [_fold(comp, head) for comp in components]
    report = EvalReport()
    for split, emb in sets.items():
        _, per_comp = _sweep_set(folded, head, emb, grid)
        for j, accs in enumerate(per_comp):
            for r in grid:
                report.rows.append(SweepRow(f"component_{j}", split,
                                            float(r), accs[float(r)]))
        for r in grid:
            values = [accs[float(r)] for accs in per_comp]
            report.rows.append(SweepRow("component_mean", split, float(r),
                                        float(np.mean(values))))
            report.rows.append(SweepRow("component_min", split, float(r),
                                        float(min(values))))
            report.rows.append(SweepRow("component_max", split, float(r),
                                        float(max(values))))
    return report


# ----------------------------------------------------------------- report IO

def write_report(report: EvalReport, path, format: str):
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["model", "split", "r", "accuracy"])
        for row in report.rows:
            writer.writerow([row.model, row.split,
                             repr(row.r), repr(row.accuracy)])
        data = buf.getvalue().encode("utf-8")
    elif format == "json":
        data = json_bytes({"rows": [{"model": row.model, "split": row.split,
                                     "r": row.r, "accuracy": row.accuracy}
                                    for row in report.rows],
                           "baselines": report.baselines})
    else:
        raise ValueError(f"unknown report format {format!r}")
    atomic_write(path, data, "report")


def read_report(path, format: str) -> EvalReport:
    """Read a report written by write_report. A row or document that does
    not parse is CorruptLength naming the file."""
    if format not in ("csv", "json"):
        raise ValueError(f"unknown report format {format!r}")
    blob = read_bytes(path, "report")
    try:
        text = blob.decode("utf-8")
        if format == "csv":
            reader = csv.reader(io.StringIO(text, newline=""))
            header = next(reader, None)
            if header != ["model", "split", "r", "accuracy"]:
                raise IoFailure(f"unexpected CSV header: {header}")
            return EvalReport(rows=[SweepRow(m, s, float(r), float(a))
                                    for m, s, r, a in reader])
        doc = json.loads(text)
        rows = [SweepRow(d["model"], d["split"], float(d["r"]),
                         float(d["accuracy"])) for d in doc["rows"]]
        return EvalReport(rows=rows, baselines={
            split: dict(entries)
            for split, entries in doc.get("baselines", {}).items()})
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise CorruptLength(f"malformed report {path}: {exc!r}") from exc
