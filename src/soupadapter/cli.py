"""Command-line pipeline: inspect, synthesize, train, merge, evaluate.

Exit codes: 0 success, 1 usage error, 2 data-format error, 3 numerical or
equivalence failure. All flags are long-form and every subcommand is
deterministic given its flags and --seed, so reruns produce byte-identical
outputs.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import os
import sys
from pathlib import Path

import numpy as np

from . import adapter as adapter_mod
from . import dataio, evalkit, heads, soup as soup_mod
from .errors import (ClassSetMismatch, DataError, IoFailure, NumericalError,
                     SoupAdapterError)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; we reserve that
        raise UsageError(message)


def _number(kind, low: float, inclusive: bool, high: float | None = None):
    """argparse type: a finite ``kind`` above ``low`` (or equal, if
    ``inclusive``) and at most ``high``, so a bad value is a usage error,
    not a traceback."""
    bound = f">= {low:g}" if inclusive else f"> {low:g}"
    if high is not None:
        bound += f" and <= {high:g}"

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected {'an integer' if kind is int else 'a number'}, "
                f"got {text!r}")
        if not np.isfinite(value) or value < low \
                or (value == low and not inclusive) \
                or (high is not None and value > high):
            raise argparse.ArgumentTypeError(f"must be finite and {bound}, "
                                             f"got {text!r}")
        return value
    return parse


def _mask_strategy(text: str) -> str:
    if text not in (adapter_mod.MASK, adapter_mod.NO_MASK):
        raise argparse.ArgumentTypeError(
            f"must be {adapter_mod.MASK!r} or {adapter_mod.NO_MASK!r}, "
            f"got {text!r}")
    return text


_OVERRIDE_TYPES = {
    "red": _number(int, 1, True), "lr": _number(float, 0.0, False),
    "weight_decay": _number(float, 0.0, True),
    "aug_strength": _number(float, 0.0, True), "seed": int,
    "epochs": _number(int, 1, True), "batch_size": _number(int, 1, True),
    "train_r": _number(float, 0.0, True, high=1.0),
    "mask_strategy": _mask_strategy,
}


def parse_grid(text: str) -> list[float]:
    """Parse "start:end:step" into an ascending grid within [0, 1]."""
    try:
        start_s, end_s, step_s = text.split(":")
        start, end, step = float(start_s), float(end_s), float(step_s)
    except ValueError:
        raise UsageError(f"grid must look like start:end:step, got {text!r}")
    if not (np.isfinite(start) and np.isfinite(end) and np.isfinite(step)):
        raise UsageError("grid bounds must be finite")
    if start == end:
        grid = [round(start, 12)]
    else:
        if step <= 0 or end < start:
            raise UsageError("grid needs end >= start and a positive step")
        count = int(np.floor((end - start) / step + 1e-9)) + 1
        grid = [round(start + i * step, 12) for i in range(count)]
    if grid[0] < 0.0 or grid[-1] > 1.0:
        raise UsageError("grid values must stay within [0, 1]")
    return grid


def _parse_overrides(pairs) -> dict:
    overrides = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise UsageError(f"override must look like key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        if key not in _OVERRIDE_TYPES:
            raise UsageError(f"unknown override key {key!r}")
        try:
            overrides[key] = _OVERRIDE_TYPES[key](value)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise UsageError(f"bad override {pair!r}: {exc}")
    return overrides


def _out_dir(path) -> Path:
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create output directory: {exc}") from exc
    return out


def _load_with_manifest(path):
    emb = dataio.read_container(path)
    manifest_path = dataio.manifest_path_for(path)
    manifest = None
    if os.path.exists(manifest_path):
        manifest = dataio.read_manifest(manifest_path)
        manifest.validate_against(emb)
    return emb, manifest


# ------------------------------------------------------------------ commands

def cmd_info(args) -> int:
    emb, manifest = _load_with_manifest(args.embeddings)
    print(f"dim: {emb.dim}")
    print(f"samples: {emb.n}")
    print(f"views: {emb.views}")
    print(f"classes: {emb.n_classes}")
    print("norm-check: ok")
    if manifest is not None:
        print(f"dataset: {manifest.dataset}")
        print(f"model: {manifest.model}")
        print(f"splits: {', '.join(sorted(manifest.splits))}")
    return 0


def cmd_synth(args) -> int:
    out = _out_dir(args.out)
    train, id_test, ood_test = dataio.generate_synthetic(
        args.classes, args.dim, args.per_class, args.shift_angle,
        args.noise, args.seed)
    classes = [f"class_{c:03d}" for c in range(args.classes)]
    for name, emb, split in (("train", train, "train"),
                             ("id_test", id_test, "test"),
                             ("ood_test", ood_test, "shift:rotation")):
        path = out / f"{name}.sadp"
        dataio.write_container(emb, path)
        manifest = dataio.Manifest(
            dataset=f"synthetic-{name}", classes=classes,
            splits={split: list(range(emb.n))}, model="synthetic")
        dataio.write_manifest(manifest, dataio.manifest_path_for(path))
        print(f"wrote {path} ({emb.n} samples)")
    return 0


def cmd_train(args) -> int:
    overrides = _parse_overrides(args.override)
    fresh = not os.path.exists(args.out)
    out = _out_dir(args.out)
    try:
        _train_into(out, args, overrides)
    except BaseException:
        if fresh:  # leave no empty run directory behind
            with contextlib.suppress(OSError):  # not empty: keep it
                out.rmdir()
        raise
    return 0


def _train_into(out: Path, args, overrides: dict):
    emb, manifest = _load_with_manifest(args.embeddings)
    if manifest is None:
        raise DataError(f"no manifest found next to {args.embeddings}")
    if args.split not in manifest.splits:
        raise DataError(f"split {args.split!r} not in manifest "
                        f"(have {sorted(manifest.splits)})")
    selection = dataio.sample_few_shot(emb, manifest.splits[args.split],
                                       args.shots, args.seed)

    if args.head:
        head = heads.import_head(args.head)
        head_mode = adapter_mod.IMPORTED_HEAD
    else:
        head = None
        head_mode = adapter_mod.PROTOTYPE_HEAD

    overrides["epochs"] = args.epochs
    if "mask_strategy" not in overrides:
        overrides["mask_strategy"] = (
            adapter_mod.mask_strategy_for_shots(args.shots)
            if args.mask == "auto" else args.mask)
    if head_mode == adapter_mod.IMPORTED_HEAD:
        overrides["mask_strategy"] = adapter_mod.NO_MASK

    configs = [adapter_mod.sample_hyperconfig(args.seed, j, overrides)
               for j in range(args.k)]

    def run(j):
        try:
            return adapter_mod.train_component(emb, selection, head_mode,
                                               configs[j], head=head)
        except Exception as exc:  # collected so every failure gets listed
            return exc

    jobs = args.jobs or args.k
    if jobs > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run, range(args.k)))
    else:
        results = [run(j) for j in range(args.k)]
    failures = [(j, r) for j, r in enumerate(results) if isinstance(r, Exception)]
    if failures:
        for j, exc in failures:
            print(f"component {j} failed: {exc}", file=sys.stderr)
        raise failures[0][1]

    # export the frozen head and the selected bank so evaluation can reuse them
    if head is None:
        head, _ = heads.selection_prototypes(emb, selection)
        heads.export_head(head, out / "head.shed")
        print(f"wrote {out / 'head.shed'}")
    sel_idx = np.asarray([t[0] for t in selection.flat()], dtype=np.int64)
    bank = dataio.EmbeddingSet(features=emb.features[sel_idx][:, :1, :],
                               labels=emb.labels[sel_idx],
                               n_classes=emb.n_classes)
    dataio.write_container(bank, out / "fewshot.sadp")
    print(f"wrote {out / 'fewshot.sadp'} ({bank.n} samples)")

    for j, (params, record) in enumerate(results):
        ckpt = out / f"component_{j}.sada"
        meta = {"kind": "component", "hyper": configs[j].to_dict(),
                "record": record.to_dict()}
        adapter_mod.save_checkpoint(ckpt, params, head.scale, meta)
        dataio.atomic_write(out / f"component_{j}.json", dataio.json_bytes(
            {"hyper": configs[j].to_dict(), "record": record.to_dict()}),
            "sidecar")
        loss = record.final_loss
        print(f"wrote {ckpt} (H={params.hidden}, "
              f"final loss {loss if loss is None else f'{loss:.4f}'})")


def cmd_soup(args) -> int:
    ensemble, scales, checksums = soup_mod.load_soup(args.components)
    if len(set(scales)) > 1:
        print(f"warning: components carry different logit scales {scales}; "
              f"using {scales[0]}", file=sys.stderr)
    merged = soup_mod.reparameterize(ensemble)
    meta = {"kind": "merged", "k": ensemble.k, "source_sha256": checksums}

    # verify the bytes about to be written (the 32-bit round-trip path)
    blob = adapter_mod.checkpoint_bytes(merged, scales[0], meta)
    reloaded, _, _ = adapter_mod.parse_checkpoint(blob)
    worst = soup_mod.verify_equivalence(ensemble, args.trials,
                                        args.tolerance, merged=reloaded)
    dataio.atomic_write(args.out, blob, "checkpoint")
    print(f"wrote {args.out} (K={ensemble.k}, H={merged.hidden}, "
          f"worst deviation {worst:.3e} over {args.trials} probes)")
    return 0


def cmd_eval(args) -> int:
    grid = parse_grid(args.grid)
    head = heads.import_head(args.head)
    id_set, _ = _load_with_manifest(args.embeddings)
    ood_sets = {}
    for path in args.ood or []:
        stem = Path(path).stem
        if stem in ood_sets:
            raise UsageError(f"two --ood files share the stem {stem!r}; "
                             f"report rows could not tell them apart")
        ood_sets[stem], _ = _load_with_manifest(path)

    models = []
    if args.adapter:  # a merged adapter is a soup of one
        models.append(("soup",
                       soup_mod.load_soup([args.adapter])[0].components[0]))
    components = (soup_mod.load_soup(args.components)[0].components
                  if args.components else [])
    if not models and not components:
        raise UsageError("need --adapter and/or --components to evaluate")
    bank = None
    if args.knn_bank:
        bank, _ = _load_with_manifest(args.knn_bank)
        if (bank.n_classes, bank.dim) != (head.n_classes, head.dim):
            raise ClassSetMismatch(
                f"KNN bank {args.knn_bank} has {bank.n_classes} classes and "
                f"dim {bank.dim}; head has {head.n_classes} and {head.dim}")

    report = evalkit.EvalReport()
    if models:
        report.extend(evalkit.robustness_report(models, head, id_set,
                                                ood_sets, grid))
    if components:
        sets = {"id": id_set, **ood_sets}
        report.extend(evalkit.component_average_report(components, head,
                                                       sets, grid))
    if bank is not None:
        cfg = heads.KnnConfig(k=args.knn_k, temperature=args.knn_t)
        bank_feats = bank.unit_features(0)
        report.baselines.setdefault("id", {})["knn"] = evalkit.knn_accuracy(
            bank_feats, bank.labels, cfg, id_set, head.n_classes)
        if ood_sets:
            report.baselines.setdefault("ood", {})["knn"] = float(np.mean(
                [evalkit.knn_accuracy(bank_feats, bank.labels, cfg, emb,
                                      head.n_classes)
                 for emb in ood_sets.values()]))

    evalkit.write_report(report, str(args.out) + ".csv", "csv")
    evalkit.write_report(report, str(args.out) + ".json", "json")
    print(f"wrote {args.out}.csv and {args.out}.json "
          f"({len(report.rows)} rows)")
    return 0


# -------------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="soupadapter",
                     description="Adapter-ensemble training and evaluation "
                                 "over frozen embeddings")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="inspect an embedding container")
    p.add_argument("--embeddings", required=True)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("synth", help="write a synthetic benchmark")
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--per-class", type=int, default=100)
    p.add_argument("--shift-angle", type=float, default=0.3)
    p.add_argument("--noise", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train K adapter components")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--split", default="train")
    p.add_argument("--head", default=None,
                   help="imported head file; omit to build prototypes")
    p.add_argument("--shots", type=_number(int, 1, True), required=True)
    p.add_argument("--k", type=_number(int, 1, True), default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=_number(int, 1, True), required=True)
    p.add_argument("--mask", choices=["auto", "mask", "no-mask"],
                   default="auto")
    p.add_argument("--override", action="append", metavar="KEY=VALUE")
    p.add_argument("--jobs", type=_number(int, 1, True), default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("soup", help="merge components into one adapter")
    p.add_argument("--components", nargs="+", required=True)
    p.add_argument("--trials", type=_number(int, 1, True), default=1000)
    p.add_argument("--tolerance", type=_number(float, 0.0, True),
                   default=1e-4)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_soup)

    p = sub.add_parser("eval", help="residual-ratio sweeps and robustness")
    p.add_argument("--embeddings", required=True, help="in-distribution set")
    p.add_argument("--ood", nargs="*", default=None)
    p.add_argument("--head", required=True)
    p.add_argument("--adapter", default=None)
    p.add_argument("--components", nargs="*", default=None)
    p.add_argument("--grid", default="0:1:0.1")
    p.add_argument("--knn-bank", default=None)
    p.add_argument("--knn-k", type=_number(int, 1, True), default=10)
    p.add_argument("--knn-t", type=_number(float, 0.0, False), default=0.1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except SoupAdapterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())
