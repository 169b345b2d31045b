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
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import adapter as adapter_mod
from . import dataio, evalkit, heads, soup as soup_mod
from .errors import (ClassSetMismatch, DataError, IoFailure, NumericalError,
                     SoupAdapterError, SoupMismatch)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; we reserve that
        raise UsageError(message)


def _number(kind, low: float = -math.inf, inclusive: bool = True,
            high: float = math.inf):
    """argparse type: a finite ``kind`` above ``low`` (or equal, if
    ``inclusive``) and at most ``high``, so a bad value is a usage error,
    not a traceback."""
    need = ["finite"]
    if low > -math.inf:
        need.append(f"{'>=' if inclusive else '>'} {low:g}")
    if high < math.inf:
        need.append(f"<= {high:g}")

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected {'an integer' if kind is int else 'a number'}, "
                f"got {text!r}")
        # an int is always finite, and np.isfinite cannot take a huge one
        if (kind is float and not math.isfinite(value)) or value < low \
                or (value == low and not inclusive) or value > high:
            raise argparse.ArgumentTypeError(
                f"must be {' and '.join(need)}, got {text!r}")
        return value
    return parse


_OVERRIDE_TYPES = {
    "red": _number(int, 1, True), "lr": _number(float, 0.0, False),
    "weight_decay": _number(float, 0.0, True),
    "aug_strength": _number(float, 0.0, True), "seed": int,
    "batch_size": _number(int, 1, True),
    "train_r": _number(float, 0.0, True, high=1.0),
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
    """Describe a container, head file or checkpoint, told apart by magic."""
    path = args.embeddings
    magic = dataio.read_bytes(path, "file")[:4]
    if magic == heads.HEAD_MAGIC:
        head = heads.import_head(path)
        fields = {"format": "head", "classes": head.n_classes,
                  "dim": head.dim, "scale": head.scale}
    elif magic == adapter_mod.CHECKPOINT_MAGIC:
        params, scale, meta = adapter_mod.load_checkpoint(path)
        fields = {"format": "checkpoint", "dim": params.dim,
                  "hidden": params.hidden, "scale": scale}
        for key, value in sorted(meta.items()):  # lists are left out
            nested = value.items() if isinstance(value, dict) \
                else [(None, value)]
            fields.update((f"{key}.{sub}" if sub else key, v)
                          for sub, v in sorted(nested)
                          if not isinstance(v, list))
    else:
        emb, manifest = _load_with_manifest(path)
        fields = {"dim": emb.dim, "samples": emb.n, "views": emb.views,
                  "classes": emb.n_classes, "norm-check": "ok"}
        if manifest is not None:
            fields.update(dataset=manifest.dataset, model=manifest.model,
                          splits=", ".join(sorted(manifest.splits)))
    for key, value in fields.items():
        print(f"{key}: {value}")
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

    # one frozen head (and leave-one-out table) for every component
    masked_table = None
    if args.head:
        head = heads.import_head(args.head)
        evalkit.check_compatible(head, [(args.embeddings, emb)])
        mask = adapter_mod.NO_MASK  # only prototype heads have prompts
    else:
        head, prompts = heads.selection_prototypes(emb, selection)
        mask = (adapter_mod.mask_strategy_for_shots(args.shots)
                if args.mask == "auto" else args.mask)
        if mask == adapter_mod.MASK and args.shots == 1:
            print("warning: mask strategy with a single shot falls back to "
                  "unmasked prototypes", file=sys.stderr)
        elif mask == adapter_mod.MASK:
            masked_table = np.stack(heads.leave_one_out_prototypes(prompts))

    overrides.update(epochs=args.epochs, mask_strategy=mask)
    configs = [adapter_mod.sample_hyperconfig(args.seed, j, overrides,
                                              dim=emb.dim)
               for j in range(args.k)]

    def run(j):
        try:
            return adapter_mod.train_component(emb, selection, head,
                                               configs[j], masked_table)
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
    if not args.head:
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
        if stem in ("id", "ood", *ood_sets):
            raise UsageError(f"--ood stem {stem!r} repeats a report split; "
                             f"rows could not tell them apart")
        ood_sets[stem], _ = _load_with_manifest(path)

    adapter = (soup_mod.load_soup([args.adapter])[0].components[0]
               if args.adapter else None)
    components = (soup_mod.load_soup(args.components)[0].components
                  if args.components else [])
    if adapter is None and not components:
        raise UsageError("need --adapter and/or --components to evaluate")
    bank = None
    if args.knn_bank:
        bank, _ = _load_with_manifest(args.knn_bank)
        if (bank.n_classes, bank.dim) != (head.n_classes, head.dim):
            raise ClassSetMismatch(
                f"KNN bank {args.knn_bank} has {bank.n_classes} classes and "
                f"dim {bank.dim}; head has {head.n_classes} and {head.dim}")

    try:
        report = evalkit.robustness_report(adapter, components, head, id_set,
                                           ood_sets, grid)
    except SoupMismatch as exc:
        exc.args = (f"{args.adapter} is not the soup of --components: {exc}",)
        raise
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

    p = sub.add_parser("info", help="inspect a container, head or checkpoint")
    p.add_argument("--embeddings", required=True)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("synth", help="write a synthetic benchmark")
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=_number(int, 2, True), default=10)
    p.add_argument("--dim", type=_number(int, 2, True), default=32)
    p.add_argument("--per-class", type=_number(int, 1, True), default=100)
    p.add_argument("--shift-angle", type=_number(float), default=0.3)
    p.add_argument("--noise", type=_number(float, 0.0, True), default=0.3)
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
