"""Accuracy sweeps over the residual ratio and robustness reporting.

robustness_report is the only report builder: a flat list of (model, split,
r, accuracy) rows plus baseline accuracies (bare head, KNN) per split.
ratio_sweep and head_accuracy are views of it.

Scoring is algebra rather than re-blending. The adapted feature
normalize(x + r a) differs from x + r a by a positive per-row factor, which
cannot move an argmax, so the decision at ratio r is argmax(P + r Q) with
P = exp(s) X W^T the bare-head logits and Q = exp(s) A W^T. Folding the head
into the adapter's output layer once (W W2 and W b2) gives
Q = exp(s) (gelu(X W1^T + b1) (W W2)^T + W b2), so A is never formed. A
merged W1 stacks the components' rows, so one hidden layer serves the soup
(every column) and component j (its slice). Each set is scored in one pass
over blocks of dataio.BLOCK_ROWS rows: every block computes X and P once,
then runs over its numerics.row_spans, each span computing the hidden
layer once and then counting each model's hits at every r in turn. A set
is an EmbeddingSet or an open dataio.ContainerReader, whose blocks are
read from the file (and norm-checked) as they are scored. So memory is
bounded by one block of X and P plus about numerics.PRODUCT_VALUES values
of hidden layer and residual logits, whatever the set's size or the
merged width; the r = 0 row is the bare-head count itself and so
reproduces its decisions exactly. The float64 adapter and components are
read only to fold them, and the folded layers only by the sweeps: KNN
votes are counted per set after the sweeps, with both gone, and that pass
reads the bank and then each set's blocks again.

CSV layout: header "model,split,r,accuracy", one row per cell, '.' decimal
separator, '\n' line endings. JSON mirrors the report fields and includes
the baselines.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from . import dataio
from .adapter import hidden_layer
from .dataio import EmbeddingSet, atomic_write, json_bytes, read_bytes
from .errors import CorruptLength, ShapeMismatch, SoupMismatch, prefixed
from .heads import (ClassifierHead, KnnConfig, check_compatible, head_logits,
                    knn_logits_batch)
from .numerics import normalize_rows, row_spans, span_buffer
from .soup import Soup, reparameterize

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


# ------------------------------------------------------------ one-pass sweep

def _blocks(source):
    """(start, unit clean-view features, labels), dataio.BLOCK_ROWS rows
    at a time, of an EmbeddingSet or an open dataio.ContainerReader. The
    features are built in one buffer that the next block overwrites."""
    rows = dataio.BLOCK_ROWS
    buf = np.empty((min(rows, source.n), source.dim))
    for start, block in source.blocks(rows):
        yield (start, normalize_rows(block[:, 0, :], out=buf[:len(block)]),
               source.labels[start:start + len(block)])


def _fold(components, head: ClassifierHead):
    """Per component, (its hidden columns in the components' row-stacked
    first layer, W W2, W b2): the head folded into the output layer, so
    residual logits need no D-wide adapter output."""
    for c in components:
        if c.dim != head.dim:
            raise ShapeMismatch(f"adapter dim {c.dim} != head dim {head.dim}")
    ends = np.cumsum([c.hidden for c in components]).tolist()
    return [(slice(end - c.hidden, end), head.weights @ c.W2,
             head.weights @ c.b2) for c, end in zip(components, ends)]


def _residual_logits(output: tuple, hidden: np.ndarray,
                     scale: float) -> np.ndarray:
    """Q = exp(scale) A W^T of one folded output of _fold."""
    cols, ww2, wb2 = output
    return math.exp(scale) * (hidden[:, cols] @ ww2.T + wb2)


def _sweep_set(layer, models, head: ClassifierHead, emb,
               grid) -> tuple[int, int, np.ndarray]:
    """Row count, bare-head hits and, per model (one folded output of
    _fold), its hits at each r of the grid on one set; ``layer`` is the
    (W1, b1) whose hidden layer every model reads its columns from. Each
    block's bare-head logits are one product; its hidden layer and
    residual logits run over the block's numerics.row_spans, so they hold
    about numerics.PRODUCT_VALUES values whatever the merged width. Every
    span builds its hidden layer in one buffer, so a set allocates it
    once, not once a span."""
    n = bare = 0
    hits = np.zeros((len(models), len(grid)), dtype=np.int64)
    zero = [r == 0.0 for r in grid]
    if models:
        width = max(layer[0].shape[0], head.n_classes)
        buf = span_buffer(min(emb.n, dataio.BLOCK_ROWS), width)
    for _, feats, labels in _blocks(emb):
        n += labels.size
        p = head_logits(head, feats)
        bare_block = int(np.count_nonzero(np.argmax(p, axis=1) == labels))
        bare += bare_block
        hits[:, zero] += bare_block  # the r = 0 cells are the bare head's
        if not models:
            continue
        for lo, hi in row_spans(len(feats), width):
            hidden = hidden_layer(*layer, feats[lo:hi], out=buf[
                :(hi - lo) * layer[0].shape[0]].reshape(hi - lo, -1))
            for m, output in enumerate(models):
                q = _residual_logits(output, hidden, head.scale)
                for i, r in enumerate(grid):
                    if not zero[i]:
                        hits[m, i] += np.count_nonzero(np.argmax(
                            p[lo:hi] + r * q, axis=1) == labels[lo:hi])
    return n, bare, hits


def _cells(grid, hits, n: int) -> dict[float, float]:
    """{r: accuracy} from integer hit counts out of n rows."""
    return {float(r): int(h) / n for r, h in zip(grid, hits)}


def _fold_models(adapter, components, head: ClassifierHead):
    """Model names, the first layer (W1, b1) and, per model, its folded
    output of _fold. The first layer is the adapter's own where there is
    an adapter, else the components' row-stack; nothing else of the
    float64 adapter or components is kept."""
    names, models, layer = [], [], None
    if adapter is not None:
        names, models = ["soup"], _fold([adapter], head)
        layer = (adapter.W1, adapter.b1)
    if components:
        outputs = _fold(components, head)
        if adapter is None:
            layer = (np.vstack([c.W1 for c in components]),
                     np.concatenate([c.b1 for c in components]))
        elif adapter.hidden != outputs[-1][0].stop or not all(
                np.array_equal(adapter.W1[cols], c.W1)
                and np.array_equal(adapter.b1[cols], c.b1)
                for (cols, _, _), c in zip(outputs, components)):
            raise SoupMismatch("W1/b1 are not the components' row-stack")
        names += [f"component_{j}" for j in range(len(components))]
        models += outputs
    return names, layer, models


def ratio_sweep(model, head: ClassifierHead, emb: EmbeddingSet,
                grid=DEFAULT_GRID) -> dict[float, float]:
    """Accuracy of normalize(x + r model(x)) under the head, for each r:
    the "soup" id row of robustness_report. A Soup is scored as its merged
    adapter, the way eval scores it."""
    adapter = reparameterize(model) if isinstance(model, Soup) else model
    return robustness_report(adapter, [], head, emb, {},
                             grid).accuracies("soup", "id")


def head_accuracy(head: ClassifierHead, emb: EmbeddingSet) -> float:
    """The bare head's accuracy: robustness_report's "id" baseline."""
    return robustness_report(None, [], head, emb, {}, ()).baselines["id"][
        "head"]


def knn_accuracy(bank_features: np.ndarray, bank_labels: np.ndarray,
                 cfg: KnnConfig, emb, num_classes: int) -> float:
    """Top-1 accuracy of KNN voting over the bank on the set's clean view."""
    n = hits = 0
    for _, feats, labels in _blocks(emb):
        logits = knn_logits_batch(bank_features, bank_labels, feats, cfg,
                                  num_classes)
        n += labels.size
        hits += int(np.count_nonzero(np.argmax(logits, axis=1) == labels))
    return hits / n


def robustness_report(adapter, components, head: ClassifierHead,
                      id_set, ood_sets: dict, grid=DEFAULT_GRID,
                      knn=None) -> EvalReport:
    """Accuracy per model, split and residual ratio, one pass per set.

    Every set, the KNN bank included, is an EmbeddingSet or an open
    dataio.ContainerReader; a reader's blocks are read as they are scored,
    so a bad vector in one raises NormViolation mid-report.

    ``adapter`` (merged, or None) gives the "soup" rows; ``components``
    (possibly empty) give component_<j> rows and their component_mean,
    _min and _max; with neither, only the baselines. With both, the
    adapter's W1 and b1 must be the row-stack of the components'
    (SoupMismatch otherwise). Each model gets "id", one split per OOD stem
    and "ood", the unweighted mean over the stems. A component_mean cell
    of a set is the components' summed hits over K n, so at r = 0 it is
    the bare head's accuracy bit for bit. The "id" and "ood" baselines
    hold the bare head under "head" and, if ``knn`` is a (bank, KnnConfig),
    KNN voting under "knn", scored per set with knn_accuracy after the
    model sweeps. The adapter and components are read only to fold them
    and to check the row-stack, so a caller that does not keep them, as
    eval does not, has their float64 weights freed before any set is
    scored (from CPython 3.11 on, whose calls move their arguments into
    the called frame).
    """
    if {"id", "ood"} & set(ood_sets):
        raise ValueError("an OOD set may not be named 'id' or 'ood'")
    sets = {"id": id_set, **ood_sets}
    check_compatible(head, [*sets.items(),
                            *([("knn bank", knn[0])] if knn else [])])
    grid = [float(r) for r in grid]
    names, layer, models = _fold_models(adapter, components, head)
    k = len(components)
    del adapter, components  # their folded layers are all the sweeps read
    scored = {split: _sweep_set(layer, models, head, emb, grid)
              for split, emb in sets.items()}
    del layer, models  # before the KNN pass
    table = {name: {split: _cells(grid, hits[m], n)
                    for split, (n, _, hits) in scored.items()}
             for m, name in enumerate(names)}
    if k:
        table["component_mean"] = {
            split: _cells(grid, hits[-k:].sum(axis=0), k * n)
            for split, (n, _, hits) in scored.items()}
    baselines = {split: {"head": b / n} for split, (n, b, _) in scored.items()}
    if knn is not None:
        bank, cfg = knn
        bank_feats = np.empty((bank.n, bank.dim))
        for start, feats, _ in _blocks(bank):
            bank_feats[start:start + len(feats)] = feats
        for split, emb in sets.items():
            baselines[split]["knn"] = knn_accuracy(
                bank_feats, bank.labels, cfg, emb, head.n_classes)
    if ood_sets:  # baselines and every model share one {split: {key: acc}}
        for per_split in (baselines, *table.values()):
            per_split["ood"] = {
                key: float(np.mean([per_split[s][key] for s in ood_sets]))
                for key in per_split["id"]}
    if k:
        per_comp = [table[f"component_{j}"] for j in range(k)]
        for name, reduce in (("min", min), ("max", max)):
            table[f"component_{name}"] = {
                split: {r: float(reduce([c[split][r] for c in per_comp]))
                        for r in grid} for split in per_comp[0]}
    rows = [SweepRow(name, split, r, accs[r])
            for name, per_split in table.items()
            for split, accs in per_split.items() for r in grid]
    return EvalReport(rows=rows, baselines={
        split: baselines[split] for split in ("id", "ood")
        if split in baselines})


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
    atomic_write(path, (data,), "report")


def read_report(path, format: str) -> EvalReport:
    """Read write_report's file; a format error starts with its path."""
    if format not in ("csv", "json"):
        raise ValueError(f"unknown report format {format!r}")
    blob = read_bytes(path, "report")
    with prefixed(path):
        try:
            if format == "csv":
                reader = csv.reader(io.StringIO(blob.decode(), newline=""))
                header = next(reader, None)
                if header != ["model", "split", "r", "accuracy"]:
                    raise CorruptLength(f"unexpected CSV header: {header}")
                return EvalReport(rows=[SweepRow(m, s, float(r), float(a))
                                        for m, s, r, a in reader])
            doc = dataio.json_object(blob, "report")
            rows = [SweepRow(d["model"], d["split"], float(d["r"]),
                             float(d["accuracy"])) for d in doc["rows"]]
            return EvalReport(rows=rows, baselines={
                split: dict(entries)
                for split, entries in doc.get("baselines", {}).items()})
        except (KeyError, ValueError, TypeError, AttributeError,
                OverflowError, csv.Error) as exc:
            raise CorruptLength(f"malformed report: {exc!r}") from exc
