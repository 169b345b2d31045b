"""Traced run of one pipeline stage, in this process.

Installs timing wrappers around each soupadapter module's public
functions, runs the stage through ``soupadapter.cli.main(argv)`` (or the
benchmark's own input writer), keeps every span in memory and writes them
to a JSON file when the stage ends:

    python3 perfbench/tracer.py --spans OUT.json --stage train -- train ...

A span is [name, start, end, parent, thread, attrs]. Parents follow a
per-thread stack; a span opened on a thread with no open span (a training
worker thread, say) gets the stage's root span as its parent. The file also
holds the stage's in-process wall and CPU time and the process's peak RSS.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import resource
import sys
import threading
import time


class Recorder:
    """In-memory span store shared by every thread of the process."""

    def __init__(self):
        self.spans: list[list] = []
        self.root: int | None = None
        self._lock = threading.Lock()
        self._local = threading.local()

    def open(self, name: str) -> int:
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else self.root
        span = [name, time.perf_counter(), None, parent,
                threading.get_ident(), None]
        with self._lock:
            sid = len(self.spans)
            self.spans.append(span)
        stack.append(sid)
        return sid

    def close(self, sid: int, attrs: dict | None = None) -> None:
        self.spans[sid][2] = time.perf_counter()
        self.spans[sid][5] = attrs
        self._local.stack.pop()


def _rows(x) -> int:
    shape = getattr(x, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _train_gflop(args, kwargs, result):
    """Matmul FLOPs of one component's training, from the shapes alone.

    Per sample and epoch: forward x W1^T, h W2^T, f head^T and backward
    g head, da W2, dz^T x, da^T h, i.e. 10 D H + 4 D C multiply-adds x 2.
    """
    emb, selection, _, cfg = args[:4]
    d, c = emb.dim, emb.n_classes
    h = d // cfg.red
    rows = len(selection.flat()) * cfg.epochs
    return {"gflop": rows * (10 * d * h + 4 * d * c) / 1e9}


def _adamw_bytes(args, kwargs, result):
    # read p, g, m, v and write p, m, v: 7 float64 passes per element
    return {"bytes": 56 * sum(p.size for p in args[0].values())}


# (module, attribute, what to record from (args, kwargs, result))
TARGETS = (
    ("adapter", "train_component", _train_gflop),
    ("adapter", "adapter_forward", lambda a, k, r: {"rows": _rows(a[1])}),
    ("adapter", "blend", None),
    ("adapter", "save_checkpoint", lambda a, k, r: {"bytes": _size(a[0])}),
    ("adapter", "load_checkpoint", lambda a, k, r: {"bytes": _size(a[0])}),
    ("numerics", "adamw_step", _adamw_bytes),
    ("numerics", "cross_entropy_label_smoothing_batch", None),
    ("numerics", "normalize_rows", None),
    ("numerics", "gelu", None),
    ("numerics", "gelu_grad", None),
    ("rng", "Stream.permutation", None),
    ("rng", "Stream.normal_array", None),
    ("rng", "Stream.unit_vectors", None),
    ("heads", "head_logits", lambda a, k, r: {"rows": _rows(a[1])}),
    ("heads", "knn_logits_batch", lambda a, k, r: {"queries": _rows(a[2])}),
    ("heads", "build_prototypes", None),
    ("heads", "import_head", None),
    ("heads", "export_head", None),
    ("soup", "reparameterize", lambda a, k, r: {"hidden": r.hidden}),
    ("soup", "soup_forward", None),
    ("soup", "verify_equivalence",
     lambda a, k, r: {"probes": a[1], "worst_dev": r}),
    ("evalkit", "ratio_sweep", None),
    ("evalkit", "robustness_report", None),
    ("evalkit", "component_average_report", None),
    ("evalkit", "knn_accuracy", None),
    ("evalkit", "write_report", lambda a, k, r: {"bytes": _size(a[1])}),
    ("dataio", "read_container", lambda a, k, r: {"bytes": _size(a[0])}),
    ("dataio", "write_container", lambda a, k, r: {"bytes": _size(a[1])}),
    ("dataio", "sample_few_shot", None),
    ("dataio", "generate_synthetic", None),
)


def _wrap(rec: Recorder, name: str, fn, measure):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec.close(sid)
            raise
        rec.close(sid, measure(args, kwargs, result) if measure else None)
        return result
    return traced


def install(rec: Recorder) -> None:
    """Wrap every target and rebind each module-level name that refers to it.

    Modules that did ``from .heads import head_logits`` look the function
    up in their own namespace, so the wrapper has to replace it there too.
    """
    importlib.import_module("soupadapter.cli")
    modules = [m for n, m in sys.modules.items()
               if n == "soupadapter" or n.startswith("soupadapter.")]
    for mod, attr, measure in TARGETS:
        owner = importlib.import_module(f"soupadapter.{mod}")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        traced = _wrap(rec, f"{mod}.{attr}", original, measure)
        setattr(owner, leaf, traced)
        if path:  # a method: the class attribute is the only lookup
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)


def run_stage(stage: str, entry: str, argv: list[str]) -> tuple[int, dict]:
    rec = Recorder()
    install(rec)
    if entry == "writer":
        import workloads
        target = workloads.main
    else:
        target = importlib.import_module("soupadapter.cli").main
    cpu0 = time.process_time()
    rec.root = rec.open(f"cli.{stage}")
    try:
        code = target(argv)
    finally:
        rec.close(rec.root)
    cpu = time.process_time() - cpu0
    root = rec.spans[rec.root]
    return code, {
        "stage": stage, "exit_code": code, "wall_s": root[2] - root[1],
        "cpu_s": cpu,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "spans": rec.spans,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/tracer.py")
    parser.add_argument("--spans", required=True, help="output JSON file")
    parser.add_argument("--stage", required=True)
    parser.add_argument("--entry", choices=["cli", "writer"], default="cli")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    stage_argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    code, doc = run_stage(args.stage, args.entry, stage_argv)
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
