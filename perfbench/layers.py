"""Per-layer metrics from the traced run's spans.

Every metric is derived from the span files that perfbench/tracer.py
writes, one per stage. A layer's self time is its span's duration minus
the part of that interval its child spans cover; for a stage, that
remainder is the time the spans leave unaccounted.
"""

from __future__ import annotations

import math
from collections import defaultdict

STAGES = ("synth", "train", "soup", "eval")

# name -> unit, in the order they are reported
PER_LAYER = {"cli.import_s": "s"}
for _stage in STAGES:
    PER_LAYER.update({f"cli.{_stage}.wall_s": "s", f"cli.{_stage}.cpu_s": "s",
                      f"cli.{_stage}.rss_mb": "MB",
                      f"cli.{_stage}.unaccounted_s": "s"})
PER_LAYER.update({
    "adapter.train_component.calls": "count",
    "adapter.train_component.s": "s",
    "adapter.train_component.self_s": "s",
    "adapter.steps": "count",
    "adapter.train.gflop": "GFLOP",
    "adapter.train.gflop_per_s": "GFLOP/s",
    "adapter.adapter_forward.calls": "count",
    "adapter.adapter_forward.rows": "count",
    "adapter.adapter_forward.s": "s",
    "adapter.blend.calls": "count",
    "adapter.blend.s": "s",
    "adapter.save_checkpoint.calls": "count",
    "adapter.save_checkpoint.s": "s",
    "adapter.save_checkpoint.bytes": "bytes",
    "adapter.load_checkpoint.calls": "count",
    "adapter.load_checkpoint.s": "s",
    "adapter.load_checkpoint.bytes": "bytes",
    "numerics.adamw_step.calls": "count",
    "numerics.adamw_step.s": "s",
    "numerics.adamw_step.p50_us": "us",
    "numerics.adamw_step.p99_us": "us",
    "numerics.adamw_step.bytes": "bytes",
    "numerics.cross_entropy_label_smoothing_batch.calls": "count",
    "numerics.cross_entropy_label_smoothing_batch.s": "s",
    "numerics.normalize_rows.calls": "count",
    "numerics.normalize_rows.s": "s",
    "numerics.gelu.s": "s",
    "numerics.gelu_grad.s": "s",
    "rng.Stream.permutation.calls": "count",
    "rng.Stream.permutation.s": "s",
    "rng.Stream.normal_array.calls": "count",
    "rng.Stream.normal_array.s": "s",
    "rng.Stream.unit_vectors.calls": "count",
    "rng.Stream.unit_vectors.s": "s",
    "heads.head_logits.calls": "count",
    "heads.head_logits.rows": "count",
    "heads.head_logits.s": "s",
    "heads.knn_logits_batch.calls": "count",
    "heads.knn_logits_batch.queries": "count",
    "heads.knn_logits_batch.s": "s",
    "heads.build_prototypes.calls": "count",
    "heads.build_prototypes.s": "s",
    "heads.import_head.s": "s",
    "heads.export_head.s": "s",
    "soup.reparameterize.s": "s",
    "soup.soup_forward.calls": "count",
    "soup.soup_forward.s": "s",
    "soup.verify_equivalence.s": "s",
    "soup.verify_equivalence.probes": "count",
    "soup.verify.worst_dev": "abs",
    "soup.merged_hidden": "count",
    "evalkit.ratio_sweep.calls": "count",
    "evalkit.ratio_sweep.s": "s",
    "evalkit.ratio_sweep.p50_ms": "ms",
    "evalkit.robustness_report.s": "s",
    "evalkit.component_average_report.s": "s",
    "evalkit.knn_accuracy.s": "s",
    "evalkit.write_report.s": "s",
    "evalkit.write_report.bytes": "bytes",
    "dataio.read_container.calls": "count",
    "dataio.read_container.s": "s",
    "dataio.read_container.bytes": "bytes",
    "dataio.write_container.calls": "count",
    "dataio.write_container.s": "s",
    "dataio.write_container.bytes": "bytes",
    "dataio.sample_few_shot.s": "s",
    "dataio.generate_synthetic.s": "s",
    "trace.overhead_s": "s",
})

# metric suffixes that sum the span attribute of the same name
_ATTR_SUMS = {"rows", "queries", "bytes", "probes"}


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span[3] is not None:
            children[span[3]].append((span[1], span[2]))
    return [(s[2] - s[1]) - covered(
        (max(a, s[1]), min(b, s[2])) for a, b in children[i] if b > s[1])
        for i, s in enumerate(spans)]


def aggregate(stage_docs: dict, import_s: float, overhead_s: float) -> dict:
    """Every PER_LAYER metric from the per-stage span files."""
    by_name = defaultdict(list)     # name -> [(duration, self, attrs, start, end)]
    out = {"cli.import_s": import_s, "trace.overhead_s": overhead_s}
    for stage in STAGES:
        doc = stage_docs[stage]
        spans = doc["spans"]
        selfs = self_times(spans)
        for span, own in zip(spans, selfs):
            by_name[span[0]].append((span[2] - span[1], own, span[5] or {},
                                     span[1], span[2]))
        root = next(i for i, s in enumerate(spans) if s[0] == f"cli.{stage}")
        out[f"cli.{stage}.wall_s"] = doc["wall_s"]
        out[f"cli.{stage}.cpu_s"] = doc["cpu_s"]
        out[f"cli.{stage}.rss_mb"] = doc["rss_mb"]
        out[f"cli.{stage}.unaccounted_s"] = selfs[root]

    def attr_values(name, key):
        return [attrs[key] for _, _, attrs, _, _ in by_name[name] if key in attrs]

    for metric in PER_LAYER:
        if metric in out:
            continue
        name, _, field = metric.rpartition(".")
        rows = by_name.get(name, [])
        if field == "calls":
            out[metric] = len(rows)
        elif field == "s":
            out[metric] = sum(r[0] for r in rows)
        elif field == "self_s":
            out[metric] = sum(r[1] for r in rows)
        elif field in ("p50_us", "p99_us", "p50_ms"):
            q = float(field[1:3])
            factor = 1e6 if field.endswith("us") else 1e3
            out[metric] = percentile([r[0] for r in rows], q) * factor \
                if rows else 0.0
        elif field in _ATTR_SUMS:
            out[metric] = sum(attr_values(name, field))

    out["adapter.steps"] = out["numerics.adamw_step.calls"]
    train = by_name["adapter.train_component"]
    gflop = sum(attr_values("adapter.train_component", "gflop"))
    busy = covered((r[3], r[4]) for r in train)
    out["adapter.train.gflop"] = gflop
    out["adapter.train.gflop_per_s"] = gflop / busy if busy else 0.0
    out["soup.verify.worst_dev"] = max(
        attr_values("soup.verify_equivalence", "worst_dev"), default=0.0)
    out["soup.merged_hidden"] = max(
        attr_values("soup.reparameterize", "hidden"), default=0)
    missing = set(PER_LAYER) - set(out)
    if missing:
        raise KeyError(f"per-layer metrics not derived: {sorted(missing)}")
    return {name: out[name] for name in PER_LAYER}
