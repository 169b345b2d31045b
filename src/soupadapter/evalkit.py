"""Accuracy sweeps over the residual ratio and robustness reporting.

A report is a flat list of (model, split, r, accuracy) rows plus optional
baseline accuracies per split (bare head, KNN).

Scoring is algebra rather than re-blending. The adapted feature
normalize(x + r a) differs from x + r a by a positive per-row factor, which
cannot move an argmax, so the decision at ratio r is argmax(P + r Q) with
P = exp(s) X W^T the bare-head logits and Q = exp(s) A W^T. Folding the head
into the adapter's output layer once (W W2 and W b2) gives
Q = exp(s) (gelu(X W1^T + b1) (W W2)^T + W b2), so A is never formed. A
merged W1 stacks the components' rows, so one hidden layer serves the soup
(every column) and component j (its slice). Each set is scored in one pass
over blocks of EVAL_BLOCK_ROWS rows: every block computes X, P and the
hidden layer once, then counts each model's hits at every r in turn.
Memory is bounded by the block, not by the set; the r = 0 row is the
bare-head count itself and so reproduces its decisions exactly.

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

from .dataio import EmbeddingSet, atomic_write, json_bytes, read_bytes
from .errors import (ClassSetMismatch, CorruptLength, IoFailure,
                     LengthMismatch, ShapeMismatch, SoupMismatch)
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


def _fold(components, head: ClassifierHead):
    """The components' stacked first layer (W1, b1) and, per component,
    (its hidden columns, W W2, W b2): the head folded into the output
    layer, so residual logits need no D-wide adapter output."""
    if components[0].dim != head.dim:
        raise ShapeMismatch(f"adapter dim {components[0].dim} != head dim "
                            f"{head.dim}")
    ends = np.cumsum([c.hidden for c in components]).tolist()
    layer = (np.vstack([c.W1 for c in components]),
             np.concatenate([c.b1 for c in components]))
    return layer, [(slice(end - c.hidden, end), head.weights @ c.W2,
                    head.weights @ c.b2)
                   for c, end in zip(components, ends)]


def _residual_logits(outputs: list[tuple], hidden: np.ndarray,
                     scale: float) -> np.ndarray:
    """Q = exp(scale) A W^T, averaged over the folded outputs in order."""
    total = None
    for cols, ww2, wb2 in outputs:
        q = hidden[:, cols] @ ww2.T + wb2
        total = q if total is None else total + q
    return math.exp(scale) * (total / len(outputs))


def _sweep_set(layer, models, head: ClassifierHead, emb: EmbeddingSet,
               grid, split=None) -> tuple[float, list[dict[float, float]]]:
    """Bare-head accuracy and, per model (a list of _fold outputs whose Q
    is averaged), {r: accuracy} on one set; ``layer`` is the (W1, b1)
    whose hidden layer every model reads its columns from."""
    grid = [float(r) for r in grid]
    n = 0
    bare = 0
    hits = np.zeros((len(models), len(grid)), dtype=np.int64)
    for feats, labels in _blocks(emb, split):
        n += labels.size
        p = head_logits(head, feats)
        bare_block = int(np.count_nonzero(np.argmax(p, axis=1) == labels))
        bare += bare_block
        hidden = gelu(feats @ layer[0].T + layer[1]) if models else None
        for m, outputs in enumerate(models):
            q = _residual_logits(outputs, hidden, head.scale)
            for i, r in enumerate(grid):
                hits[m, i] += bare_block if r == 0.0 else np.count_nonzero(
                    np.argmax(p + r * q, axis=1) == labels)
        del hidden  # before the next block's gelu temporaries
    return bare / n, [dict(zip(grid, (int(h) / n for h in row)))
                      for row in hits]


def ratio_sweep(model, head: ClassifierHead, emb: EmbeddingSet,
                grid=DEFAULT_GRID, split=None) -> dict[float, float]:
    """Accuracy of normalize(x + r model(x)) under the head, for each r.

    ``model`` is an adapter or a Soup (whose outputs are averaged).
    ``split`` restricts evaluation to those sample indices; evaluation
    always uses the clean view.
    """
    layer, outputs = _fold(
        model.components if isinstance(model, Soup) else [model], head)
    return _sweep_set(layer, [outputs], head, emb, grid, split)[1][0]


def head_accuracy(head: ClassifierHead, emb: EmbeddingSet, split=None) -> float:
    return _sweep_set(None, [], head, emb, (), split)[0]


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


def robustness_report(adapter, components, head: ClassifierHead,
                      id_set: EmbeddingSet, ood_sets: dict[str, EmbeddingSet],
                      grid=DEFAULT_GRID) -> EvalReport:
    """Accuracy per model, split and residual ratio, one pass per set.

    ``adapter`` (merged, or None) gives the "soup" rows; ``components``
    (possibly empty) give component_<j> rows and their component_mean,
    _min and _max. Each model gets "id", one split per OOD stem and "ood",
    the unweighted mean over the stems. With both, the adapter's W1 and b1
    must be the row-stack of the components' (SoupMismatch otherwise).
    The bare-head accuracies land in the baselines under "head".
    """
    if adapter is None and not components:
        raise ValueError("need an adapter or at least one component")
    if {"id", "ood"} & set(ood_sets):
        raise ValueError("an OOD set may not be named 'id' or 'ood'")
    check_compatible(head, [("id", id_set), *ood_sets.items()])
    names, models = [], []
    if adapter is not None:
        layer, outputs = _fold([adapter], head)
        names, models = ["soup"], [outputs]
    if components:
        stacked, outputs = _fold(components, head)
        if adapter is not None and not all(
                np.array_equal(a, b) for a, b in zip(layer, stacked)):
            raise SoupMismatch("W1/b1 are not the components' row-stack")
        layer = stacked  # the adapter's, bit for bit, if there is one
        names += [f"component_{j}" for j in range(len(components))]
        models += [[out] for out in outputs]

    grid = [float(r) for r in grid]
    scored = {split: _sweep_set(layer, models, head, emb, grid)
              for split, emb in {"id": id_set, **ood_sets}.items()}
    table = {name: {split: accs[m] for split, (_, accs) in scored.items()}
             for m, name in enumerate(names)}
    report = EvalReport(baselines={"id": {"head": scored["id"][0]}})
    if ood_sets:
        report.baselines["ood"] = {"head": float(np.mean(
            [scored[s][0] for s in ood_sets]))}
        for per_split in table.values():
            per_split["ood"] = {r: float(np.mean([per_split[s][r]
                                                  for s in ood_sets]))
                                for r in grid}
    if components:
        per_comp = [table[f"component_{j}"] for j in range(len(components))]
        for name, reduce in (("mean", np.mean), ("min", min), ("max", max)):
            table[f"component_{name}"] = {
                split: {r: float(reduce([c[split][r] for c in per_comp]))
                        for r in grid} for split in per_comp[0]}
    report.rows = [
        SweepRow(name, split, r, accs[r]) for name, per_split in table.items()
        for split, accs in per_split.items() for r in grid]
    return report


def component_average_report(components, head, id_set, ood_sets,
                             grid=DEFAULT_GRID) -> EvalReport:
    """robustness_report of the components alone. Kept as a name because
    the benchmark's tracer (perfbench/tracer.py TARGETS) times it."""
    return robustness_report(None, components, head, id_set, ood_sets, grid)


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
