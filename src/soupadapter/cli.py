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
import dataclasses
import math
import os
import sys
from pathlib import Path

from . import adapter as adapter_mod
from . import dataio, evalkit, heads, numerics, soup as soup_mod, workers
from .errors import (DataError, IoFailure, NumericalError, SoupAdapterError,
                     SoupMismatch, prefixed)


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

MAX_GRID_POINTS = 1001
# --mask auto leaves each sample out of its class prototype from this many
# shots per class up
AUTO_MASK_SHOTS = 8
# synth writes three sets of at most this many float32 values (classes x
# per-class x dim) each: a 512 MiB file, about 40 times paper512's. It
# holds class blocks, not sets, so this bounds file size, not memory.
MAX_SYNTH_VALUES = 1 << 27


def parse_grid(text: str) -> list[float]:
    """Parse "start:end:step" into a strictly ascending grid of at most
    MAX_GRID_POINTS points within [0, 1], each rounded to 12 decimals."""
    try:
        start_s, end_s, step_s = text.split(":")
        start, end, step = float(start_s), float(end_s), float(step_s)
    except ValueError:
        raise UsageError(f"grid must look like start:end:step, got {text!r}")
    if not all(map(math.isfinite, (start, end, step))):
        raise UsageError("grid bounds must be finite")
    if start == end:
        grid = [start]
    else:
        if step <= 0 or end < start:
            raise UsageError("grid needs end >= start and a positive step")
        span = (end - start) / step + 1e-9  # inf when step is tiny
        if not span < MAX_GRID_POINTS:
            raise UsageError(f"grid {text!r} has more than "
                             f"{MAX_GRID_POINTS} points")
        count = math.floor(span) + 1
        grid = [start + i * step for i in range(count)]
    grid = [round(r, 12) + 0.0 for r in grid]  # + 0.0: no -0.0
    if grid[0] < 0.0 or grid[-1] > 1.0:
        raise UsageError("grid values must stay within [0, 1]")
    if any(a >= b for a, b in zip(grid, grid[1:])):
        raise UsageError(f"grid {text!r} repeats points after rounding to "
                         f"12 decimals")
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


@contextlib.contextmanager
def _out_dir(path):
    """The output directory, created for the block; a failed block
    removes it again if this created it and it is still empty."""
    out = Path(path)
    fresh = not out.exists()
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create output directory: {exc}") from exc
    try:
        yield out
    except BaseException:
        if fresh:  # leave no empty output directory behind
            with contextlib.suppress(OSError):  # not empty: keep it
                out.rmdir()
        raise


def _distinct_components(paths) -> list:
    """--components paths, refusing (usage error) any that names a file
    given before, which would weight that component twice."""
    seen = set()
    for path in paths:
        key = os.path.realpath(path)
        if key in seen:
            raise UsageError(f"--components names {path!r} more than once; "
                             f"give each file once")
        seen.add(key)
    return paths


@contextlib.contextmanager
def _open_with_manifest(path):
    """An open dataio.ContainerReader of path and its manifest, or None if
    it has none, checked against each other; the reader closes on exit."""
    with dataio.ContainerReader(path) as reader:
        manifest_path = dataio.manifest_path_for(path)
        manifest = None
        if os.path.exists(manifest_path):
            manifest = dataio.read_manifest(manifest_path)
            with prefixed(manifest_path):
                manifest.validate_against(reader)
        yield reader, manifest


# ------------------------------------------------------------------ commands

def cmd_info(args) -> int:
    """Describe a container, head file or checkpoint, told apart by magic."""
    path = args.embeddings
    magic = dataio.read_bytes(path, "file", 4)
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
        with _open_with_manifest(path) as (emb, manifest):
            for _ in emb.blocks(dataio.BLOCK_ROWS):  # the norm check
                pass
        fields = {"dim": emb.dim, "samples": emb.n, "views": emb.views,
                  "classes": emb.n_classes, "norm-check": "ok"}
        if manifest is not None:
            fields.update(dataset=manifest.dataset, model=manifest.model,
                          splits=", ".join(sorted(manifest.splits)))
    for key, value in fields.items():
        print(_one_line(f"{key}: {value}"))
    return 0


def _one_line(text: str) -> str:
    """text with each unprintable character (a newline, a carriage
    return, an escape, a lone surrogate) written as its Python escape, so
    that a string from a file cannot start an output line of its own."""
    return "".join(c if c.isprintable()
                   else c.encode("unicode_escape").decode("ascii")
                   for c in text)


def cmd_synth(args) -> int:
    values = args.classes * args.per_class * args.dim
    if values > MAX_SYNTH_VALUES:
        raise UsageError(f"--classes x --per-class x --dim is {values} values "
                         f"per set; at most {MAX_SYNTH_VALUES} are allowed")
    # (file stem, manifest split) of each set, in dataio.SYNTH_SETS' order
    sets = (("train", "train"), ("id_test", "test"),
            ("ood_test", "shift:rotation"))
    with _out_dir(args.out) as out:
        paths = [out / f"{name}.sadp" for name, _ in sets]
        dataio.write_synthetic(paths, args.classes, args.dim, args.per_class,
                               args.shift_angle, args.noise, args.seed)
        n = args.classes * args.per_class
        classes = [f"class_{c:03d}" for c in range(args.classes)]
        for (name, split), path in zip(sets, paths):
            manifest = dataio.Manifest(
                dataset=f"synthetic-{name}", classes=classes,
                splits={split: list(range(n))}, model="synthetic")
            dataio.write_manifest(manifest, dataio.manifest_path_for(path))
            print(f"wrote {path} ({n} samples)")
    return 0


def cmd_train(args) -> int:
    overrides = _parse_overrides(args.override)
    if args.head and args.mask == adapter_mod.MASK:
        raise UsageError("--mask mask needs prototype prompts; an imported "
                         "--head has none (use auto or no-mask)")
    with _out_dir(args.out) as out:
        _train_into(out, args, overrides)
    return 0


def _read_selection(args):
    """The few-shot selection of --split and a set of just its samples, in
    the selection's flat order, with the selection renumbered to match.
    The container is read once, and every sample's norm is checked,
    selected or not."""
    with _open_with_manifest(args.embeddings) as (source, manifest):
        if manifest is None:
            raise DataError(f"no manifest found next to {args.embeddings}")
        if args.split not in manifest.splits:
            raise DataError(f"split {args.split!r} not in manifest "
                            f"(have {sorted(manifest.splits)})")
        selection = dataio.sample_few_shot(source, manifest.splits[args.split],
                                           args.shots, args.seed)
        emb = source.read(selection.flat())
    return emb, selection.compacted()


def _train_into(out: Path, args, overrides: dict):
    emb, selection = _read_selection(args)

    # one frozen head (and leave-one-out table) for every component
    masked_table = None
    if args.head:
        head = heads.import_head(args.head)
        heads.check_compatible(head, [(args.embeddings, emb)])
    else:  # only prototype heads have prompts to leave out
        head, prompts = heads.selection_prototypes(emb, selection)
        mask = args.mask == adapter_mod.MASK or (
            args.mask == "auto" and args.shots >= AUTO_MASK_SHOTS)
        if mask and args.shots == 1:
            print("warning: mask strategy with a single shot falls back to "
                  "unmasked prototypes", file=sys.stderr)
        elif mask:
            masked_table = heads.leave_one_out_prototypes(prompts)
        del prompts  # only the head and the table are read from here on

    configs = [dataclasses.replace(adapter_mod.sample_hyperconfig(
        args.seed, j, dim=emb.dim, epochs=args.epochs), **overrides)
        for j in range(args.k)]

    def run(j):
        """Component j as the checkpoint bytes it is written as (float32,
        half its float64 weights), its hidden width and its record."""
        try:
            params, record = adapter_mod.train_component(
                emb, selection, head, configs[j], masked_table)
            return (adapter_mod.checkpoint_bytes(
                params, head.scale, adapter_mod.component_meta(record)),
                params.hidden, record)
        except Exception as exc:  # collected so every failure gets listed
            return exc

    # more threads than components or usable cores only contend (8 on 2
    # cores trained paper512 about 3 times slower than 1)
    jobs = min(args.jobs or args.k, args.k, workers.usable_cores())
    # in process at 1 job: a worker's malloc arena adds 14 MB on paper512
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
    bank = dataio.EmbeddingSet(features=emb.features[:, :1, :],
                               labels=emb.labels, n_classes=emb.n_classes)
    dataio.write_container(bank, out / "fewshot.sadp")
    print(f"wrote {out / 'fewshot.sadp'} ({bank.n} samples)")

    for j, (blob, hidden, record) in enumerate(results):
        ckpt = out / f"component_{j}.sada"
        dataio.atomic_write(ckpt, (blob,), "checkpoint")
        loss = record.final_loss
        print(f"wrote {ckpt} (H={hidden}, "
              f"final loss {loss if loss is None else f'{loss:.4f}'}, "
              f"trained in {record.wall_time:.2f}s)")


def cmd_soup(args) -> int:
    ensemble, scales, checksums = soup_mod.load_soup(
        _distinct_components(args.components), digests=True)
    if len(set(scales)) > 1:
        print(f"warning: components carry different logit scales {scales}; "
              f"using {scales[0]}", file=sys.stderr)
    meta = {"kind": "merged", "k": ensemble.k, "source_sha256": checksums}

    # verify the bytes to be written (the 32-bit round-trip path), holding
    # neither them nor the float64 merged adapter meanwhile: the reloaded
    # adapter serializes back to them exactly, and their digest says so
    blob = adapter_mod.checkpoint_bytes(soup_mod.reparameterize(ensemble),
                                        scales[0], meta)
    reloaded, _, _ = adapter_mod.parse_checkpoint(blob)
    verified = dataio.sha256_hex(blob)
    del blob
    worst = soup_mod.verify_equivalence(ensemble, args.trials,
                                        args.tolerance, merged=reloaded)
    blob = adapter_mod.checkpoint_bytes(reloaded, scales[0], meta)
    if dataio.sha256_hex(blob) != verified:
        raise NumericalError(f"{args.out} not written: the merged adapter "
                             f"no longer serializes to the bytes verified")
    dataio.atomic_write(args.out, (blob,), "checkpoint")
    print(f"wrote {args.out} (K={ensemble.k}, H={reloaded.hidden}, "
          f"worst deviation {worst:.3e} over {args.trials} probes)")
    return 0


def cmd_eval(args) -> int:
    grid = parse_grid(args.grid)
    component_paths = _distinct_components(args.components or [])
    if not args.adapter and not component_paths:
        raise UsageError("need --adapter and/or --components to evaluate")
    stems = [Path(path).stem for path in args.ood or []]
    for i, stem in enumerate(stems):
        if stem in ("id", "ood", *stems[:i]):
            raise UsageError(f"--ood stem {stem!r} repeats a report "
                             f"split; rows could not tell them apart")
    head = heads.import_head(args.head)
    # every set stays open and is read block by block while it is scored
    with contextlib.ExitStack() as files:
        id_set, _ = files.enter_context(_open_with_manifest(args.embeddings))
        ood_sets = {stem: files.enter_context(_open_with_manifest(path))[0]
                    for stem, path in zip(stems, args.ood or [])}
        knn = None
        if args.knn_bank:
            bank, _ = files.enter_context(_open_with_manifest(args.knn_bank))
            heads.check_compatible(head, [(args.knn_bank, bank)])
            knn = (bank, heads.KnnConfig(k=args.knn_k,
                                         temperature=args.knn_t))

        try:
            # passed in, not kept: robustness_report frees the float64
            # adapter and components once they are folded
            report = evalkit.robustness_report(
                adapter_mod.load_checkpoint(args.adapter)[0]
                if args.adapter else None,
                soup_mod.load_soup(component_paths)[0].components
                if component_paths else [],
                head, id_set, ood_sets, grid, knn)
        except SoupMismatch as exc:
            exc.args = (f"{args.adapter} is not the soup of --components: "
                        f"{exc}",)
            raise
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
    p.add_argument("--mask", choices=["auto", adapter_mod.MASK,
                                      adapter_mod.NO_MASK], default="auto")
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
    p.add_argument("--knn-k", type=_number(int, 1, True),
                   default=heads.KnnConfig.k,
                   help="neighbors that vote; a k above the bank size uses "
                        "the whole bank")
    p.add_argument("--knn-t", type=_number(float, heads.KNN_T_MIN, True),
                   default=heads.KnnConfig.temperature,
                   help="vote temperature; at least 1 / (ln(float64 max) "
                        "- 1), about 0.00141, so that exp(similarity / T) "
                        "stays finite even where a similarity rounds a "
                        "little above 1")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; its exit code. BLAS runs on one thread (see
    numerics.single_blas_thread) whatever the caller's count, so the
    bytes written do not depend on it."""
    try:
        args = build_parser().parse_args(argv)
        with numerics.single_blas_thread():
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
    # a string from a file may not encode (a lone surrogate is valid JSON)
    sys.stdout.reconfigure(errors="backslashreplace")
    sys.exit(main())
