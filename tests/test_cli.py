import concurrent.futures
import contextlib
import io
import itertools
import json
import math
import os
import re
import resource
import struct
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from soupadapter import (adapter, cli, dataio, evalkit, heads, numerics,
                         soup as soup_mod, workers)
from soupadapter.adapter import adapter_forward, load_checkpoint
from soupadapter.cli import UsageError, main, parse_grid
from soupadapter.dataio import read_container, sample_few_shot
from soupadapter.errors import NormViolation
from soupadapter.rng import stream


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    assert run("synth", "--out", out, "--per-class", "40", "--seed", "7") == 0
    return out


@pytest.fixture(scope="module")
def train_dir(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("run")
    code = run("train", "--embeddings", data_dir / "train.sadp",
               "--shots", "8", "--k", "3", "--epochs", "5",
               "--seed", "3", "--out", out)
    assert code == 0
    return out


# ---------------------------------------------------------------------- grid

def test_parse_grid():
    assert parse_grid("0:1:0.1") == [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6,
                                     0.7, 0.8, 0.9, 1.0]
    assert parse_grid("0:0:1") == [0.0]
    assert parse_grid("0.5:0.5:0.25") == [0.5]
    with pytest.raises(Exception):
        parse_grid("0:2:0.5")
    with pytest.raises(Exception):
        parse_grid("nope")


# subnormals, infinities, NaN and steps near the rounding grain, next to
# plain draws and draws within [0, 1]
_GRID_PART = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 0.5, 0.1, 1e-3, 1e-9, 1e-12, 1e-13,
                     1e-320, 5e-324, 1e308, math.inf, -math.inf, math.nan]),
    st.floats(0.0, 1.0), st.floats(1e-4, 1.0), st.floats())


# spans of 1-1000 steps, with steps down to below the rounding grain
_GRID_SPAN = st.tuples(st.floats(0.0, 1.0), st.integers(1, 1000),
                       st.floats(1e-16, 1e-2)).map(
    lambda t: (t[0], t[0] + t[1] * t[2], t[2]))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.one_of(st.tuples(_GRID_PART, _GRID_PART, _GRID_PART), _GRID_SPAN))
def test_parse_grid_gives_a_bounded_ascending_grid_or_a_usage_error(parts):
    try:
        grid = parse_grid(":".join(map(repr, parts)))
    except UsageError:
        return
    assert 1 <= len(grid) <= 1001
    assert all(0.0 <= r <= 1.0 for r in grid)
    assert all(a < b for a, b in zip(grid, grid[1:]))


def test_eval_grid_default_is_the_default_grid():
    args = cli.build_parser().parse_args(
        ["eval", "--embeddings", "id.sadp", "--head", "head.shed",
         "--out", "report"])
    assert parse_grid(args.grid) == list(evalkit.DEFAULT_GRID)


# ---------------------------------------------------------------- info/synth

def test_synth_writes_valid_containers(data_dir):
    for name in ("train", "id_test", "ood_test"):
        emb = read_container(data_dir / f"{name}.sadp")
        assert emb.n == 400 and emb.n_classes == 10 and emb.dim == 32
        assert (data_dir / f"{name}.sadp.json").exists()


@pytest.mark.parametrize("flag,value", [
    ("--classes", "1"),
    ("--classes", "0"),
    ("--classes", "-1" + "0" * 30),
    ("--dim", "1"),
    ("--per-class", "0"),
    ("--shift-angle", "inf"),
    ("--shift-angle", "nan"),
    ("--noise", "-1"),
    ("--noise", "nan"),
    ("--noise", "inf"),
])
def test_synth_bad_values_are_usage_errors(tmp_path, capsys, flag, value):
    assert run("synth", "--out", tmp_path / "data", "--per-class", "4",
               f"{flag}={value}") == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and flag in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_synth_noise_that_overflows_the_norm_exits_3(tmp_path):
    # noise 1e308 overflows each row's squared sum: a numerical failure,
    # not zero rows for the writer to refuse as a data error
    done = python_process("-m", "soupadapter", "synth", "--out",
                          tmp_path / "data", "--classes", "3", "--dim", "8",
                          "--per-class", "4", "--noise", "1e308")
    assert done.returncode == 3
    assert done.stderr == ("numerical failure: synthetic train set, "
                           "class 0: row 0 has norm inf, not finite in "
                           "float64\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("shape", [
    ("100000", "100000", "100000"),  # once killed by the kernel, no message
    ("2", "2", str(2**25 + 1)),  # one set 4 values over the bound
])
def test_synth_refuses_sets_above_the_size_bound(tmp_path, capsys,
                                                 monkeypatch, shape):
    def never(*args):
        raise AssertionError("drew a set above the bound")

    monkeypatch.setattr(cli.dataio, "synthetic_classes", never)
    classes, dim, per_class = shape
    assert run("synth", "--out", tmp_path / "data", "--classes", classes,
               "--dim", dim, "--per-class", per_class) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and str(cli.MAX_SYNTH_VALUES) in err
    assert list(tmp_path.iterdir()) == []


def test_synth_size_bound_admits_a_set_of_exactly_the_bound(tmp_path,
                                                            monkeypatch):
    # the generator is stubbed, so no block of that set is ever drawn
    class Reached(Exception):
        pass

    def stub(classes, dim, per_class, *args):
        raise Reached(classes * dim * per_class)

    monkeypatch.setattr(cli.dataio, "synthetic_classes", stub)
    with pytest.raises(Reached) as got:
        run("synth", "--out", tmp_path / "data", "--classes", "2",
            "--dim", "2", "--per-class", str(2**25))
    assert got.value.args == (cli.MAX_SYNTH_VALUES,) == (2**27,)
    assert list(tmp_path.iterdir()) == []


def test_synth_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("synth", "--out", a, "--per-class", "10", "--seed", "5") == 0
    assert run("synth", "--out", b, "--per-class", "10", "--seed", "5") == 0
    for name in ("train.sadp", "id_test.sadp", "ood_test.sadp",
                 "train.sadp.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


_SYNTH_SHAPES = {
    "small32": ["--classes", "10", "--dim", "32", "--per-class", "100"],
    "odd": ["--classes", "7", "--dim", "3", "--per-class", "5"],
    "noise0": ["--classes", "5", "--dim", "8", "--per-class", "6",
               "--noise", "0"],
    "shift0": ["--classes", "5", "--dim", "8", "--per-class", "6",
               "--shift-angle", "0"],
}


def _synth_outputs(out, argv, capsys) -> dict:
    """{file name: bytes} of a synth run into out, and its stdout."""
    assert run("synth", "--out", out, *argv) == 0
    files = {path.name: path.read_bytes() for path in out.iterdir()}
    files["stdout"] = capsys.readouterr().out.replace(str(out), "OUT")
    return files


@pytest.mark.parametrize("seed", ["3", "7", "11"])
@pytest.mark.parametrize("shape", sorted(_SYNTH_SHAPES))
def test_forked_synth_writes_the_one_process_and_in_memory_bytes(
        tmp_path, capsys, monkeypatch, forking, shape, seed):
    argv = [*_SYNTH_SHAPES[shape], "--seed", seed]
    forked = _synth_outputs(tmp_path / "forked", argv, capsys)
    assert len(forking) == 1 and len(forked) == 7
    monkeypatch.setattr(workers, "_one_thread", lambda: False)
    assert _synth_outputs(tmp_path / "one", argv, capsys) == forked
    args = cli.build_parser().parse_args(["synth", "--out", "-", *argv])
    sets = dataio.generate_synthetic(args.classes, args.dim, args.per_class,
                                     args.shift_angle, args.noise, args.seed)
    for name, emb in zip(("train", "id_test", "ood_test"), sets):
        dataio.write_container(emb, tmp_path / name)
        assert (tmp_path / name).read_bytes() == forked[f"{name}.sadp"]


def test_synth_dealt_to_more_processes_than_cores_writes_the_same_bytes(
        tmp_path, capsys, monkeypatch, forking):
    # 6 processes on this host's cores write 30 blocks into 3 shared files
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(6)),
                        raising=False)
    argv = ["--classes", "10", "--dim", "16", "--per-class", "9",
            "--seed", "2"]
    forked = _synth_outputs(tmp_path / "forked", argv, capsys)
    assert len(forking) == 5
    for name, emb in zip(("train", "id_test", "ood_test"),
                         dataio.generate_synthetic(10, 16, 9, 0.3, 0.3, 2)):
        dataio.write_container(emb, tmp_path / name)
        assert (tmp_path / name).read_bytes() == forked[f"{name}.sadp"]


def _doubled_blocks(monkeypatch, *items):
    """synth draws the class blocks at (set, class) items doubled: rows of
    norm 2, which the container writer refuses."""
    synthetic_classes = dataio.synthetic_classes

    def classes(*args):
        draw = synthetic_classes(*args)

        def doubled(name, c):
            block = draw(name, c)
            return 2 * block if (name, c) in items else block
        return doubled
    monkeypatch.setattr(dataio, "synthetic_classes", classes)


@pytest.mark.parametrize("existing", [False, True])
def test_forked_synth_names_the_failure_one_process_meets_first(
        tmp_path, capsys, monkeypatch, forking, existing):
    # of 12 items, share 1 (a child) draws item 7, class 3 of id, and
    # share 0 (this process) item 8, class 0 of ood; each fails
    _doubled_blocks(monkeypatch, ("id", 3), ("ood", 0))
    argv = ["synth", "--classes", "4", "--dim", "3", "--per-class", "2",
            "--seed", "5"]
    outs = [tmp_path / "forked", tmp_path / "one"]
    for out in outs if existing else []:
        out.mkdir()
    assert run(*argv, "--out", outs[0]) == 2
    forked = capsys.readouterr()
    assert len(forking) == 1
    monkeypatch.setattr(workers, "_one_thread", lambda: False)
    assert run(*argv, "--out", outs[1]) == 2
    assert capsys.readouterr() == forked
    assert forked.out == ""
    assert forked.err == ("data error: sample 6 view 0 has norm 2.000000, "
                          "expected 1 within 0.0001\n")
    # no container, no temp file, and no directory synth made
    assert sorted(tmp_path.rglob("*")) == (outs if existing else [])


def test_info_reports_shape(data_dir, capsys):
    assert run("info", "--embeddings", data_dir / "train.sadp") == 0
    out = capsys.readouterr().out
    assert "dim: 32" in out
    assert "classes: 10" in out
    assert "views: 1" in out
    assert "norm-check: ok" in out
    assert "splits: train" in out


def test_info_multiview_container(tmp_path, capsys):
    from soupadapter.dataio import EmbeddingSet, write_container
    rows = stream(1, "mv").normal_array(6 * 4 * 5).reshape(24, 5)
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    emb = EmbeddingSet(features=rows.astype(np.float32).reshape(6, 4, 5),
                       labels=np.array([0, 0, 1, 1, 2, 2]), n_classes=3)
    write_container(emb, tmp_path / "mv.sadp")
    assert run("info", "--embeddings", tmp_path / "mv.sadp") == 0
    assert "views: 4" in capsys.readouterr().out


def test_info_truncated_file_exits_2(data_dir, tmp_path, capsys):
    blob = (data_dir / "train.sadp").read_bytes()
    bad = tmp_path / "trunc.sadp"
    bad.write_bytes(blob[:-7])
    assert run("info", "--embeddings", bad) == 2
    assert "expected" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["head.shed", "component_0.sada"])
def test_info_truncated_head_or_checkpoint_names_it(train_dir, tmp_path,
                                                    capsys, name):
    bad = tmp_path / name
    bad.write_bytes((train_dir / name).read_bytes()[:30])
    assert run("info", "--embeddings", bad) == 2
    assert capsys.readouterr().err.startswith(f"data error: {bad}: ")


def copy_with_bad_row(src: Path, dst: Path, sample: int) -> str:
    """Copy the container src and its manifest to dst with sample's clean
    view halved; returns the message read_container refuses dst with."""
    feats = read_container(src).features.copy()
    feats[sample, 0] *= 0.5
    body = feats.astype("<f4").tobytes()  # the features end the file
    dst.parent.mkdir(parents=True, exist_ok=True)
    dst.write_bytes(src.read_bytes()[:-len(body)] + body)
    manifest = Path(f"{src}.json")
    if manifest.exists():  # a KNN bank has none
        Path(f"{dst}.json").write_bytes(manifest.read_bytes())
    with pytest.raises(NormViolation) as caught:
        read_container(dst)
    return str(caught.value)


def test_info_checks_the_norms_of_every_block(data_dir, tmp_path, capsys,
                                               monkeypatch):
    bad = tmp_path / "bad.sadp"
    message = copy_with_bad_row(data_dir / "train.sadp", bad, 399)
    monkeypatch.setattr(dataio, "BLOCK_ROWS", 64)  # the last of 7 blocks
    assert run("info", "--embeddings", bad) == 2
    captured = capsys.readouterr()
    assert captured.err == f"data error: {message}\n"
    assert message.startswith(f"{bad}: sample 399 view 0 ")
    assert captured.out == ""


def test_info_reads_only_the_magic_to_tell_formats_apart(
        data_dir, train_dir, monkeypatch):
    sizes = []
    read_bytes = dataio.read_bytes

    def recording(path, what, size=-1):
        sizes.append(size)
        return read_bytes(path, what, size)

    monkeypatch.setattr(dataio, "read_bytes", recording)
    assert run("info", "--embeddings", data_dir / "train.sadp") == 0
    assert sizes == [4, -1]  # the magic, then the manifest
    del sizes[:]
    assert run("info", "--embeddings", train_dir / "head.shed") == 0
    assert sizes[0] == 4


def test_info_bad_magic_exits_2(data_dir, tmp_path):
    blob = (data_dir / "train.sadp").read_bytes()
    bad = tmp_path / "magic.sadp"
    bad.write_bytes(b"WHAT" + blob[4:])
    assert run("info", "--embeddings", bad) == 2


def test_info_reads_heads_and_checkpoints_by_magic(tmp_path, train_dir,
                                                   capsys):
    assert run("info", "--embeddings", train_dir / "head.shed") == 0
    assert capsys.readouterr().out.splitlines()[:3] == [
        "format: head", "classes: 10", "dim: 32"]
    comp = train_dir / "component_0.sada"
    params, _, meta = load_checkpoint(comp)
    assert run("info", "--embeddings", comp) == 0
    out = capsys.readouterr().out
    assert f"hidden: {params.hidden}" in out and "kind: component" in out
    assert f"hyper.red: {meta['hyper']['red']}" in out
    assert f"record.final_loss: {meta['record']['final_loss']}" in out
    assert "loss_trace" not in out
    merged = tmp_path / "merged.sada"
    assert run("soup", "--components", comp, train_dir / "component_1.sada",
               "--out", merged) == 0
    capsys.readouterr()
    assert run("info", "--embeddings", merged) == 0
    out = capsys.readouterr().out
    assert "kind: merged" in out and "k: 2" in out


def test_missing_flag_exits_1(capsys):
    assert run("info") == 1
    assert "usage error" in capsys.readouterr().err


# --------------------------------------------------------------------- train

def test_train_writes_expected_files(train_dir):
    for j in range(3):
        _, _, meta = load_checkpoint(train_dir / f"component_{j}.sada")
        assert meta["kind"] == "component"
        assert set(meta) == {"kind", "hyper", "record"}
        assert not (train_dir / f"component_{j}.json").exists()  # no sidecar
    assert (train_dir / "head.shed").exists()
    assert (train_dir / "fewshot.sadp").exists()
    bank = read_container(train_dir / "fewshot.sadp")
    assert bank.n == 8 * 10


def test_train_prints_each_component_wall_time(tmp_path, data_dir, capsys):
    assert run("train", "--embeddings", data_dir / "train.sadp",
               "--shots", "2", "--k", "2", "--epochs", "1",
               "--out", tmp_path) == 0
    out = capsys.readouterr().out
    for j in range(2):
        assert re.search(rf"wrote \S*component_{j}\.sada \(H=\d+, final loss "
                         rf"\S+, trained in \d+\.\d\ds\)", out), out


def python_process(*argv, timeout=120, environ=os.environ, **options):
    """A fresh interpreter on this checkout's package, as a user runs it,
    so everything it prints, warnings included, is captured; ``environ``
    is its environment but for PYTHONPATH, and ``options`` go to
    subprocess.run."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=timeout,
                          **options)


def test_cli_import_leaves_scipy_unloaded():
    done = python_process(
        "-c", "import sys, soupadapter.cli; print(sorted(m for m in "
        "sys.modules if m.split('.')[0] == 'scipy'))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_train_is_byte_deterministic(tmp_path, data_dir):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("train", "--embeddings", data_dir / "train.sadp",
                   "--shots", "4", "--k", "2", "--epochs", "3",
                   "--seed", "9", "--jobs", "1" if out is a else "2",
                   "--out", out) == 0
    for name in ("component_0.sada", "component_1.sada", "head.shed",
                 "fewshot.sadp"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.skipif(numerics._openblas_threads() is None,
                    reason="numpy's OpenBLAS was not found: nothing to cap")
@pytest.mark.parametrize("stage", [
    pytest.param(("train", "1"), id="1"), pytest.param(("train", "2"), id="2"),
    pytest.param(("soup",), id="soup"), pytest.param(("eval",), id="eval")])
def test_train_runs_blas_on_one_thread_and_restores_the_count(
        tmp_path, data_dir, train_dir, monkeypatch, stage):
    # train's components, soup's verify and eval's sweeps (in process
    # here) run on one BLAS thread
    get_threads, set_threads = numerics._openblas_threads()
    seen = []
    owner, name = {"train": (adapter, "train_component"),
                   "soup": (soup_mod, "verify_equivalence"),
                   "eval": (evalkit, "_sweep_set")}[stage[0]]
    work = getattr(owner, name)

    def recording(*args, **kwargs):
        seen.append(get_threads())
        return work(*args, **kwargs)

    monkeypatch.setattr(owner, name, recording)
    monkeypatch.setattr(workers, "_one_thread", lambda: False)
    comps = [train_dir / f"component_{j}.sada" for j in range(3)]
    argv = {"train": ["train", "--embeddings", data_dir / "train.sadp",
                      "--shots", "2", "--k", "2", "--epochs", "1",
                      "--jobs", stage[-1], "--out", tmp_path],
            "soup": ["soup", "--components", *comps,
                     "--out", tmp_path / "m.sada"],
            "eval": ["eval", "--embeddings", data_dir / "id_test.sadp",
                     "--ood", data_dir / "ood_test.sadp",
                     "--head", train_dir / "head.shed",
                     "--components", *comps, "--out", tmp_path / "r"]}
    before = get_threads()
    set_threads(3)  # a count the cap must give back, whatever the host
    try:
        assert run(*argv[stage[0]]) == 0
        assert seen == {"train": [1, 1], "soup": [1],
                        "eval": [1, 1]}[stage[0]]
        assert get_threads() == 3
    finally:
        set_threads(before)


def test_importing_the_package_loads_no_numpy():
    # so __main__ can pin BLAS before numpy loads
    done = python_process(
        "-c", "import soupadapter, sys; print('numpy' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_soup_and_eval_bytes_do_not_depend_on_the_blas_thread_count(
        tmp_path, data_dir, train_dir):
    comps = [train_dir / f"component_{j}.sada" for j in range(3)]
    seen = {}
    for threads in (None, "1", "2"):
        environ = {k: v for k, v in os.environ.items()
                   if k != "OPENBLAS_NUM_THREADS"}
        if threads:
            environ["OPENBLAS_NUM_THREADS"] = threads
        out = tmp_path / str(threads)
        out.mkdir()
        soup = python_process("-m", "soupadapter", "soup", "--components",
                              *comps, "--out", out / "m.sada",
                              environ=environ)
        assert soup.returncode == 0, soup.stderr
        done = python_process(
            "-m", "soupadapter", "eval", "--embeddings",
            data_dir / "id_test.sadp", "--ood", data_dir / "ood_test.sadp",
            "--head", train_dir / "head.shed", "--adapter", out / "m.sada",
            "--components", *comps, "--knn-bank", train_dir / "fewshot.sadp",
            "--out", out / "r", environ=environ)
        assert done.returncode == 0, done.stderr
        seen[threads] = (
            re.search(r"worst deviation (\S+) over", soup.stdout).group(1),
            *((out / name).read_bytes()
              for name in ("m.sada", "r.csv", "r.json")))
    assert seen[None] == seen["1"] == seen["2"]


# ------------------------------------------------------------ eval workers

def eval_sets(tmp_path, data_dir, train_dir, ood, bank, out="r"):
    """eval's argv over the ID set, ``ood`` and the KNN ``bank``, with
    the soup of the three trained components."""
    comps = [train_dir / f"component_{j}.sada" for j in range(3)]
    merged = tmp_path / "m.sada"
    if not merged.exists():
        assert run("soup", "--components", *comps, "--out", merged) == 0
    return ["eval", "--embeddings", data_dir / "id_test.sadp",
            "--ood", *ood, "--head", train_dir / "head.shed",
            "--adapter", merged, "--components", *comps,
            "--knn-bank", bank, "--out", tmp_path / out]


def test_eval_in_forked_workers_writes_the_in_process_report(
        tmp_path, data_dir, train_dir, forking, monkeypatch):
    ood = [data_dir / "ood_test.sadp", tmp_path / "second.sadp"]
    (tmp_path / "second.sadp").write_bytes(ood[0].read_bytes())
    argv = eval_sets(tmp_path, data_dir, train_dir, ood,
                     train_dir / "fewshot.sadp", "forked")
    soup_children = len(forking)
    assert run(*argv) == 0
    # 3 sets on 2 cores: the ID set and the second OOD set in process,
    # the first in a child
    assert len(forking) == soup_children + 1
    monkeypatch.setattr(workers, "_one_thread", lambda: False)
    assert run(*eval_sets(tmp_path, data_dir, train_dir, ood,
                          train_dir / "fewshot.sadp", "alone")) == 0
    for suffix in (".csv", ".json"):
        assert (tmp_path / f"forked{suffix}").read_bytes() \
            == (tmp_path / f"alone{suffix}").read_bytes()


@pytest.mark.parametrize("bad_bank", [False, True])
def test_a_bad_vector_in_a_workers_set_exits_2_with_one_line(
        tmp_path, data_dir, train_dir, forking, monkeypatch, capsys,
        bad_bank):
    # the OOD set goes to the child; its last block holds the bad vector.
    # A bad bank too, which the parent reads after its own sweep, still
    # loses to it: one process sweeps every set before it reads the bank
    bad = tmp_path / "ood_bad.sadp"
    message = copy_with_bad_row(data_dir / "ood_test.sadp", bad, 399)
    bank = train_dir / "fewshot.sadp"
    if bad_bank:
        bank = tmp_path / "bank.sadp"
        copy_with_bad_row(train_dir / "fewshot.sadp", bank, 0)
    monkeypatch.setattr(dataio, "BLOCK_ROWS", 64)  # the last of 7 blocks
    argv = eval_sets(tmp_path, data_dir, train_dir, [bad], bank)
    soup_children = len(forking)
    capsys.readouterr()
    assert run(*argv) == 2
    assert len(forking) == soup_children + 1
    assert capsys.readouterr().err == f"data error: {message}\n"
    assert message.startswith(f"{bad}: sample 399 view 0 ")
    assert not list(tmp_path.glob("r.*"))
    monkeypatch.setattr(workers, "_one_thread", lambda: False)
    assert run(*argv) == 2
    assert capsys.readouterr().err == f"data error: {message}\n"


@pytest.mark.parametrize("failure", ["dies", "cannot fork"])
def test_a_worker_that_dies_or_cannot_start_exits_2_with_one_line(
        tmp_path, data_dir, train_dir, forking, monkeypatch, capsys,
        failure):
    # eval's 6 items on 3 cores: each child exits at once, as one killed
    # for memory would, or the second fork fails (EAGAIN) and the first
    # child is killed; every child is reaped (the fixture checks)
    ood = [data_dir / "ood_test.sadp", tmp_path / "second.sadp"]
    (tmp_path / "second.sadp").write_bytes(ood[0].read_bytes())
    argv = eval_sets(tmp_path, data_dir, train_dir, ood,
                     train_dir / "fewshot.sadp")
    soup_children = len(forking)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    if failure == "dies":
        parent, deal = os.getpid(), workers.deal

        def dying(count, run):
            def dies_in_a_child(share):
                if os.getpid() != parent:
                    os._exit(9)
                yield from run(share)
            return deal(count, dies_in_a_child)
        monkeypatch.setattr(workers, "deal", dying)
        message = r"worker process \d+ ended without a reply " \
            r"\(exit status 9\)"
    else:
        fork = os.fork

        def second_fails():
            if len(forking) > soup_children:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return fork()
        monkeypatch.setattr(os, "fork", second_fails)
        message = r"cannot start a worker process: \[Errno 11\] " \
            r"Resource temporarily unavailable"
    capsys.readouterr()
    assert run(*argv) == 2
    assert re.fullmatch(f"error: {message}\n", capsys.readouterr().err)
    assert len(forking) == soup_children + (2 if failure == "dies" else 1)
    assert not list(tmp_path.glob("r.*"))


# the component pool is the one executor train makes: K = 3 on 2 cores
# gives one of width 2, and one core trains in process, with none; an
# explicit --jobs above both is held to the same width, and the pool
# starts at most K = 3 threads whatever its width
@pytest.mark.parametrize("cores,widths", [(2, [2]), (1, [])])
def test_train_default_jobs_is_the_usable_cores_at_most_k(
        tmp_path, data_dir, monkeypatch, cores, widths):
    made = []
    executor = concurrent.futures.ThreadPoolExecutor

    class Recording(executor):
        def __init__(self, max_workers):
            made.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cores)), raising=False)
    for jobs in ([], ["--jobs", "64"]):
        made.clear()
        assert run("train", "--embeddings", data_dir / "train.sadp",
                   "--shots", "2", "--k", "3", "--epochs", "1", *jobs,
                   "--out", tmp_path / str(len(jobs))) == 0
        assert made == widths


def test_training_threads_leave_the_bytes_alone(tmp_path, data_dir,
                                                monkeypatch):
    # 4 training threads switching every 10 us: the bytes must match those
    # of one thread; 4 usable cores let --jobs 4 start all 4
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)),
                        raising=False)
    runs = {}
    for jobs in ("1", "4"):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            assert run("train", "--embeddings", data_dir / "train.sadp",
                       "--shots", "4", "--k", "4", "--epochs", "3",
                       "--jobs", jobs, "--out", tmp_path / jobs) == 0
        finally:
            sys.setswitchinterval(interval)
        runs[jobs] = [(tmp_path / jobs / f"component_{j}.sada").read_bytes()
                      for j in range(4)]
    assert runs["1"] == runs["4"]


def test_failed_train_joins_every_thread(tmp_path, data_dir):
    before = threading.active_count()
    assert run("train", "--embeddings", data_dir / "train.sadp",
               "--shots", "4", "--k", "2", "--epochs", "3", "--jobs", "2",
               "--override", "lr=1e300", "--out", tmp_path / "run") == 3
    assert threading.active_count() == before


def test_train_on_the_selected_rows_writes_the_whole_set_bytes(tmp_path,
                                                              data_dir):
    # train keeps only the selected rows; training on the whole set with
    # the original selection must give the same files
    assert run("train", "--embeddings", data_dir / "train.sadp",
               "--shots", "8", "--k", "2", "--epochs", "2", "--seed", "5",
               "--jobs", "1", "--out", tmp_path) == 0
    emb = read_container(data_dir / "train.sadp")
    selection = sample_few_shot(emb, range(emb.n), 8, seed=5)
    head, prompts = heads.selection_prototypes(emb, selection)
    table = heads.leave_one_out_prototypes(prompts)
    for j in range(2):
        cfg = adapter.sample_hyperconfig(5, j, dim=emb.dim, epochs=2)
        params, record = adapter.train_component(emb, selection, head, cfg,
                                                 table)
        assert (tmp_path / f"component_{j}.sada").read_bytes() == \
            adapter.checkpoint_bytes(params, head.scale,
                                     adapter.component_meta(record))
    rows = selection.flat()
    bank = read_container(tmp_path / "fewshot.sadp")
    assert bank.features.tobytes() == emb.features[rows].tobytes()
    assert bank.labels.tolist() == emb.labels[rows].tolist()
    heads.export_head(head, tmp_path / "want.shed")
    assert (tmp_path / "head.shed").read_bytes() == \
        (tmp_path / "want.shed").read_bytes()


def test_train_refuses_a_bad_row_it_does_not_select(tmp_path, data_dir,
                                                    capsys):
    emb = read_container(data_dir / "train.sadp")
    chosen = set(sample_few_shot(emb, range(emb.n), 2, seed=0).flat())
    sample = max(set(range(emb.n)) - chosen)
    bad = tmp_path / "data" / "train.sadp"
    message = copy_with_bad_row(data_dir / "train.sadp", bad, sample)
    assert run("train", "--embeddings", bad, "--shots", "2", "--k", "1",
               "--epochs", "1", "--seed", "0",
               "--out", tmp_path / "run") == 2
    assert capsys.readouterr().err == f"data error: {message}\n"
    assert message.startswith(f"{bad}: sample {sample} view 0 ")
    assert not (tmp_path / "run").exists()


def test_train_refuses_a_split_that_repeats_a_sample(tmp_path, data_dir,
                                                     capsys):
    # with sample 0 fifty times, class 0 could be selected as [0, 0], and
    # no leave-one-out table hides a sample from its own copy
    data = tmp_path / "data"
    data.mkdir()
    src = data_dir / "train.sadp"
    (data / "train.sadp").write_bytes(src.read_bytes())
    doc = json.loads(Path(f"{src}.json").read_text())
    doc["splits"]["train"] = [0] * 50 + doc["splits"]["train"][1:]
    manifest = Path(f"{data / 'train.sadp'}.json")
    manifest.write_text(json.dumps(doc))
    assert run("train", "--embeddings", data / "train.sadp", "--shots", "2",
               "--k", "1", "--epochs", "1", "--out", tmp_path / "run") == 2
    assert capsys.readouterr().err == (
        f"data error: {manifest}: split 'train' lists a sample more than "
        f"once\n")
    assert not (tmp_path / "run").exists()


def test_train_override_is_recorded(tmp_path, data_dir):
    out = tmp_path / "o"
    assert run("train", "--embeddings", data_dir / "train.sadp",
               "--shots", "4", "--k", "2", "--epochs", "2",
               "--override", "lr=1e-3", "--out", out) == 0
    for j in range(2):
        _, _, doc = load_checkpoint(out / f"component_{j}.sada")
        assert doc["hyper"]["lr"] == 1e-3
        assert doc["hyper"]["epochs"] == 2
        assert doc["hyper"]["mask_strategy"] == "no-mask"  # 4-shot auto
        assert "wall_time" not in doc["record"]


# one valid value per --override key, off every grid the key is drawn from
PINS = {"red": "11", "lr": "3e-4", "weight_decay": "0.02",
        "aug_strength": "0.3", "seed": "5", "batch_size": "16",
        "train_r": "0.5"}


def train_hyper(data_dir, out, *extra):
    """Each component's trailer hyperparameters of a small train run."""
    assert run("train", "--embeddings", data_dir / "train.sadp",
               "--shots", "4", "--k", "2", "--epochs", "1", "--seed", "3",
               "--out", out, *extra) == 0
    return [load_checkpoint(out / f"component_{j}.sada")[2]["hyper"]
            for j in range(2)]


@pytest.fixture(scope="module")
def unpinned_hyper(tmp_path_factory, data_dir):
    return train_hyper(data_dir, tmp_path_factory.mktemp("unpinned") / "o")


@pytest.mark.parametrize("key", sorted(cli._OVERRIDE_TYPES))
def test_train_each_override_pins_only_its_field(tmp_path, data_dir,
                                                 unpinned_hyper, key):
    pinned = train_hyper(data_dir, tmp_path / "o",
                         "--override", f"{key}={PINS[key]}")
    for base, hyper in zip(unpinned_hyper, pinned):
        assert hyper[key] == cli._OVERRIDE_TYPES[key](PINS[key]) != base[key]
        assert {**hyper, key: None} == {**base, key: None}


def test_train_bad_override_exits_1(tmp_path, data_dir):
    assert run("train", "--embeddings", data_dir / "train.sadp",
               "--shots", "4", "--epochs", "1", "--out", tmp_path / "x",
               "--override", "banana=3") == 1


def test_train_missing_split_exits_2(tmp_path, data_dir):
    assert run("train", "--embeddings", data_dir / "train.sadp",
               "--split", "nope", "--shots", "4", "--epochs", "1",
               "--out", tmp_path / "x") == 2


def test_train_insufficient_shots_exits_2(tmp_path, data_dir):
    assert run("train", "--embeddings", data_dir / "train.sadp",
               "--shots", "100", "--epochs", "1",
               "--out", tmp_path / "x") == 2


def test_train_default_k_is_eight(tmp_path, data_dir):
    out = tmp_path / "k8"
    assert run("train", "--embeddings", data_dir / "train.sadp",
               "--shots", "2", "--epochs", "2", "--out", out) == 0
    assert all((out / f"component_{j}.sada").exists() for j in range(8))
    assert not (out / "component_8.sada").exists()


def test_train_with_imported_head(tmp_path, data_dir, train_dir):
    out = tmp_path / "imp"
    assert run("train", "--embeddings", data_dir / "train.sadp",
               "--head", train_dir / "head.shed", "--shots", "4",
               "--k", "1", "--epochs", "2", "--out", out) == 0
    assert (out / "component_0.sada").exists()
    assert not (out / "head.shed").exists()  # head came from a file


def test_train_imported_head_with_mask_exits_1(tmp_path, data_dir,
                                               train_dir, capsys):
    argv = ["train", "--embeddings", data_dir / "train.sadp",
            "--head", train_dir / "head.shed", "--shots", "4", "--k", "1",
            "--epochs", "1"]
    assert run(*argv, "--mask", "mask", "--out", tmp_path / "m") == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "--mask" in err
    assert "Traceback" not in err
    assert not (tmp_path / "m").exists()
    for mask in ("auto", "no-mask"):  # an imported head trains unmasked
        assert run(*argv, "--mask", mask, "--out", tmp_path / mask) == 0
        _, _, meta = load_checkpoint(tmp_path / mask / "component_0.sada")
        assert meta["hyper"]["mask_strategy"] == "no-mask"


def test_train_head_with_other_class_count_exits_2(tmp_path, data_dir,
                                                   capsys):
    assert run("synth", "--out", tmp_path / "five", "--classes", "5",
               "--per-class", "4", "--seed", "2") == 0
    assert run("train", "--embeddings", tmp_path / "five" / "train.sadp",
               "--shots", "2", "--k", "1", "--epochs", "1",
               "--out", tmp_path / "five-run") == 0
    capsys.readouterr()
    out = tmp_path / "run"
    assert run("train", "--embeddings", data_dir / "train.sadp",
               "--head", tmp_path / "five-run" / "head.shed", "--shots", "2",
               "--k", "2", "--epochs", "1", "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "head has 5" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_train_builds_the_head_and_table_once(tmp_path, data_dir,
                                              monkeypatch):
    from soupadapter import heads
    calls = {"build_prototypes": 0, "leave_one_out_prototypes": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(heads, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(heads, name, counted)
    out = tmp_path / "run"
    assert run("train", "--embeddings", data_dir / "train.sadp",
               "--shots", "4", "--k", "3", "--epochs", "1", "--mask", "mask",
               "--out", out) == 0
    assert calls == {"build_prototypes": 1, "leave_one_out_prototypes": 1}
    assert all(load_checkpoint(out / f"component_{j}.sada")[2]
               ["hyper"]["mask_strategy"] == "mask" for j in range(3))


def test_train_mask_auto_masks_from_eight_shots(tmp_path, data_dir):
    for shots, strategy in (("7", "no-mask"), ("8", "mask")):
        out = tmp_path / shots
        assert run("train", "--embeddings", data_dir / "train.sadp",
                   "--shots", shots, "--k", "1", "--epochs", "1",
                   "--mask", "auto", "--out", out) == 0
        _, _, meta = load_checkpoint(out / "component_0.sada")
        assert meta["hyper"]["mask_strategy"] == strategy


def test_train_mask_at_one_shot_warns_and_trains_unmasked(tmp_path,
                                                          data_dir, capsys):
    argv = ["train", "--embeddings", data_dir / "train.sadp", "--shots", "1",
            "--k", "1", "--epochs", "2"]
    assert run(*argv, "--mask", "mask", "--out", tmp_path / "m") == 0
    err = capsys.readouterr().err
    assert err.startswith("warning: mask strategy with a single shot")
    assert len(err.splitlines()) == 1  # no source path or line
    assert run(*argv, "--mask", "no-mask", "--out", tmp_path / "n") == 0
    # no table trained it, so its checkpoint is the unmasked one, byte
    # for byte, its recorded mask_strategy included
    masked = (tmp_path / "m" / "component_0.sada").read_bytes()
    assert masked == (tmp_path / "n" / "component_0.sada").read_bytes()
    _, _, meta = load_checkpoint(tmp_path / "m" / "component_0.sada")
    assert meta["hyper"]["mask_strategy"] == "no-mask"


def test_train_on_two_dim_embeddings(tmp_path, capsys):
    data, out = tmp_path / "d2", tmp_path / "run"
    assert run("synth", "--out", data, "--classes", "2", "--dim", "2",
               "--per-class", "4") == 0
    argv = ["train", "--embeddings", data / "train.sadp", "--shots", "2",
            "--k", "2", "--epochs", "1"]
    assert run(*argv, "--out", out) == 0
    for j in range(2):  # red is drawn from 2..min(10, D)
        params, _, meta = load_checkpoint(out / f"component_{j}.sada")
        assert meta["hyper"]["red"] == 2 and params.hidden == 1
    capsys.readouterr()
    assert run(*argv, "--override", "red=3", "--out", tmp_path / "bad") == 2
    assert "floor(2 / 3) < 1" in capsys.readouterr().err


# ---------------------------------------------------------------------- soup

def test_soup_merges_and_verifies(tmp_path, train_dir):
    merged_path = tmp_path / "merged.sada"
    comps = [train_dir / f"component_{j}.sada" for j in range(3)]
    assert run("soup", "--components", *comps, "--out", merged_path) == 0
    merged, scale, meta = load_checkpoint(merged_path)
    parts = [load_checkpoint(p)[0] for p in comps]
    assert merged.hidden == sum(p.hidden for p in parts)
    assert meta["kind"] == "merged" and meta["k"] == 3
    assert len(meta["source_sha256"]) == 3


def test_soup_single_component_is_forward_equivalent(tmp_path, train_dir):
    merged_path = tmp_path / "one.sada"
    comp_path = train_dir / "component_0.sada"
    assert run("soup", "--components", comp_path, "--out", merged_path) == 0
    comp, _, _ = load_checkpoint(comp_path)
    merged, _, _ = load_checkpoint(merged_path)
    xs = stream(3, "x").normal_array(20 * 32).reshape(20, 32)
    xs /= np.linalg.norm(xs, axis=1, keepdims=True)
    assert np.max(np.abs(adapter_forward(comp, xs)
                         - adapter_forward(merged, xs))) < 1e-6


def test_soup_mixed_dims_exits_2(tmp_path, train_dir):
    from soupadapter.adapter import init_adapter, save_checkpoint
    other = tmp_path / "other.sada"
    save_checkpoint(other, init_adapter(16, 2, seed=0), 1.0, {})
    assert run("soup", "--components", train_dir / "component_0.sada", other,
               "--out", tmp_path / "m.sada") == 2
    assert not (tmp_path / "m.sada").exists()


def test_soup_zero_tolerance_exits_3_without_writing(tmp_path, train_dir):
    merged_path = tmp_path / "never.sada"
    comps = [train_dir / f"component_{j}.sada" for j in range(2)]
    assert run("soup", "--components", *comps, "--tolerance", "0",
               "--out", merged_path) == 3
    assert not merged_path.exists()
    assert not merged_path.with_suffix(".sada.tmp").exists()


# ---------------------------------------------------------------------- eval

def test_eval_full_report(tmp_path, data_dir, train_dir):
    merged_path = tmp_path / "merged.sada"
    comps = [train_dir / f"component_{j}.sada" for j in range(3)]
    assert run("soup", "--components", *comps, "--out", merged_path) == 0
    out = tmp_path / "report"
    assert run("eval", "--embeddings", data_dir / "id_test.sadp",
               "--ood", data_dir / "ood_test.sadp",
               "--head", train_dir / "head.shed",
               "--adapter", merged_path, "--components", *comps,
               "--knn-bank", train_dir / "fewshot.sadp",
               "--grid", "0:1:0.1", "--out", out) == 0
    doc = json.loads((out.parent / "report.json").read_text())
    models = ["soup", "component_0", "component_1", "component_2",
              "component_mean", "component_min", "component_max"]
    # every model: id, the OOD stem and the OOD mean, 11 ratios each
    assert [(row["model"], row["split"]) for row in doc["rows"]] == [
        (m, s) for m in models for s in ("id", "ood_test", "ood")
        for _ in range(11)]
    assert "knn" in doc["baselines"]["id"]
    assert set(doc["baselines"]["id"]) == {"head", "knn"}
    csv_lines = (out.parent / "report.csv").read_text().strip().split("\n")
    assert len(csv_lines) == 1 + 7 * 3 * 11


def test_eval_single_point_grid(tmp_path, data_dir, train_dir):
    out = tmp_path / "r0"
    assert run("eval", "--embeddings", data_dir / "id_test.sadp",
               "--head", train_dir / "head.shed",
               "--components", train_dir / "component_0.sada",
               "--grid", "0:0:1", "--out", out) == 0
    doc = json.loads((out.parent / "r0.json").read_text())
    assert all(row["r"] == 0.0 for row in doc["rows"])


@pytest.mark.parametrize("grid", ["-0:-0:1", "-0:0:1", "-1e-13:0:1"])
def test_a_grid_point_that_rounds_to_zero_is_reported_as_zero(
        tmp_path, data_dir, train_dir, grid):
    def reports(grid, stem):
        out = tmp_path / stem
        assert run("eval", "--embeddings", data_dir / "id_test.sadp",
                   "--head", train_dir / "head.shed",
                   "--components", train_dir / "component_0.sada",
                   f"--grid={grid}", "--out", out) == 0
        return [(tmp_path / f"{stem}.{ext}").read_bytes()
                for ext in ("csv", "json")]

    assert reports(grid, "signed") == reports("0:0:1", "zero")
    assert [math.copysign(1.0, r) for r in parse_grid(grid)] == [1.0]


def test_eval_without_models_exits_1(tmp_path, data_dir, train_dir):
    assert run("eval", "--embeddings", data_dir / "id_test.sadp",
               "--head", train_dir / "head.shed",
               "--out", tmp_path / "x") == 1


@pytest.mark.parametrize("model,ood", [
    (None, []),
    ("--adapter", ["id.sadp"]),
    ("--components", ["a/ood.sadp"]),
    ("--components", ["a/t.sadp", "b/t.sadp"]),
], ids=["no-model", "ood-stem-id", "ood-stem-ood", "repeated-ood-stem"])
def test_eval_usage_errors_come_before_any_file_is_read(tmp_path, capsys,
                                                        model, ood):
    missing = tmp_path / "missing"  # no file below it exists
    argv = ["eval", "--embeddings", missing / "id_test.sadp",
            "--head", missing / "head.shed", "--out", tmp_path / "x"]
    if model:
        argv += [model, missing / "m.sada"]
    if ood:
        argv += ["--ood", *(missing / name for name in ood)]
    assert run(*argv) == 1
    assert capsys.readouterr().err.startswith("usage error:")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("grid", [
    "1:0:-1",
    "0:1:1e-320",     # the point count overflows to inf
    "0:1:1e-9",       # a billion points
    "0:1e-12:1e-13",  # 11 points, 2 distinct after rounding
])
def test_eval_bad_grid_exits_1(tmp_path, data_dir, train_dir, capsys, grid):
    assert run("eval", "--embeddings", data_dir / "id_test.sadp",
               "--head", train_dir / "head.shed",
               "--components", train_dir / "component_0.sada",
               "--grid", grid, "--out", tmp_path / "x") == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "Traceback" not in err
    assert not (tmp_path / "x.csv").exists()


def test_eval_corrupt_head_exits_2(tmp_path, data_dir, train_dir):
    bad = tmp_path / "bad.shed"
    bad.write_bytes(b"XXXX" + (train_dir / "head.shed").read_bytes()[4:])
    assert run("eval", "--embeddings", data_dir / "id_test.sadp",
               "--head", bad,
               "--components", train_dir / "component_0.sada",
               "--out", tmp_path / "x") == 2


@pytest.mark.parametrize("flag", ["--embeddings", "--ood", "--head",
                                  "--adapter", "--components", "--knn-bank"])
def test_eval_truncated_file_exits_2_naming_it(tmp_path, data_dir, train_dir,
                                               capsys, flag):
    comps = [train_dir / f"component_{j}.sada" for j in range(3)]
    merged = tmp_path / "merged.sada"
    assert run("soup", "--components", *comps, "--out", merged) == 0
    files = {"--embeddings": data_dir / "id_test.sadp",
             "--ood": data_dir / "ood_test.sadp",
             "--head": train_dir / "head.shed", "--adapter": merged,
             "--components": comps[0],
             "--knn-bank": train_dir / "fewshot.sadp"}
    bad = tmp_path / f"short{files[flag].suffix}"
    bad.write_bytes(files[flag].read_bytes()[:30])
    files[flag] = bad
    capsys.readouterr()
    assert run("eval", *(a for f, path in files.items() for a in (f, path)),
               "--out", tmp_path / "report") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {bad}: "), err
    assert len(err.splitlines()) == 1
    assert not list(tmp_path.glob("report*"))


def test_eval_knn_bank_class_mismatch_exits_2_before_scoring(
        tmp_path, data_dir, train_dir, capsys, monkeypatch):
    from soupadapter import evalkit
    assert run("synth", "--out", tmp_path / "wide", "--classes", "20",
               "--per-class", "4", "--seed", "1") == 0

    def never(*args, **kwargs):
        raise AssertionError("scored before the bank was checked")
    monkeypatch.setattr(evalkit, "robustness_report", never)
    assert run("eval", "--embeddings", data_dir / "id_test.sadp",
               "--head", train_dir / "head.shed",
               "--components", train_dir / "component_0.sada",
               "--knn-bank", tmp_path / "wide" / "train.sadp",
               "--out", tmp_path / "x") == 2
    err = capsys.readouterr().err
    assert "data error" in err and "20 classes" in err
    assert not (tmp_path / "x.csv").exists()


def test_eval_ood_set_of_other_classes_exits_2_naming_it(
        tmp_path, data_dir, train_dir, capsys):
    assert run("synth", "--out", tmp_path / "four", "--classes", "4",
               "--per-class", "4", "--seed", "1") == 0
    other = tmp_path / "four" / "train.sadp"
    capsys.readouterr()
    assert run("eval", "--embeddings", data_dir / "id_test.sadp",
               "--ood", data_dir / "ood_test.sadp", other,
               "--head", train_dir / "head.shed",
               "--components", train_dir / "component_0.sada",
               "--out", tmp_path / "report") == 2
    assert capsys.readouterr().err == (
        f"data error: set '{other}' has 4 classes and dim 32, head has 10 "
        f"and 32\n")
    assert not list(tmp_path.glob("report*"))


def test_eval_bad_row_in_the_last_block_of_the_last_ood_set_exits_2(
        tmp_path, data_dir, train_dir, capsys, monkeypatch):
    bad = tmp_path / "shifted.sadp"
    message = copy_with_bad_row(data_dir / "ood_test.sadp", bad, 399)
    monkeypatch.setattr(dataio, "BLOCK_ROWS", 64)  # the last of 7
    assert run("eval", "--embeddings", data_dir / "id_test.sadp",
               "--ood", data_dir / "ood_test.sadp", bad,
               "--head", train_dir / "head.shed",
               "--components", *sorted(train_dir.glob("component_*.sada")),
               "--knn-bank", train_dir / "fewshot.sadp",
               "--out", tmp_path / "report") == 2
    assert capsys.readouterr().err == f"data error: {message}\n"
    assert message.startswith(f"{bad}: sample 399 view 0 ")
    assert not list(tmp_path.glob("report*"))


def test_eval_duplicate_ood_stems_exit_1(tmp_path, data_dir, train_dir,
                                         capsys):
    other = tmp_path / "copy"
    other.mkdir()
    for name in ("ood_test.sadp", "ood_test.sadp.json"):
        (other / name).write_bytes((data_dir / name).read_bytes())
    assert run("eval", "--embeddings", data_dir / "id_test.sadp",
               "--ood", data_dir / "ood_test.sadp", other / "ood_test.sadp",
               "--head", train_dir / "head.shed",
               "--components", train_dir / "component_0.sada",
               "--out", tmp_path / "x") == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "'ood_test'" in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("case", ["subset", "reordered"])
def test_eval_adapter_not_the_soup_of_components_exits_2(
        tmp_path, data_dir, train_dir, capsys, case):
    comps = [train_dir / f"component_{j}.sada" for j in range(3)]
    merged = tmp_path / "merged.sada"
    soup_of = comps[:2] if case == "subset" else comps[::-1]
    assert run("soup", "--components", *soup_of, "--out", merged) == 0
    capsys.readouterr()
    assert run("eval", "--embeddings", data_dir / "id_test.sadp",
               "--head", train_dir / "head.shed", "--adapter", merged,
               "--components", *comps, "--out", tmp_path / "report") == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(merged) in err
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["merged.sada"]


@pytest.mark.parametrize("stem", ["id", "ood"])
def test_eval_ood_stem_naming_a_split_exits_1(tmp_path, data_dir, train_dir,
                                              capsys, stem):
    for suffix in (".sadp", ".sadp.json"):
        (tmp_path / f"{stem}{suffix}").write_bytes(
            (data_dir / f"ood_test{suffix}").read_bytes())
    assert run("eval", "--embeddings", data_dir / "id_test.sadp",
               "--ood", tmp_path / f"{stem}.sadp",
               "--head", train_dir / "head.shed",
               "--components", train_dir / "component_0.sada",
               "--out", tmp_path / "x") == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and f"'{stem}'" in err
    assert not (tmp_path / "x.csv").exists()


def _eval_argv(data_dir, train_dir, out, *extra, comps=None):
    comps = comps or [train_dir / f"component_{j}.sada" for j in range(3)]
    return ["eval", "--embeddings", data_dir / "id_test.sadp",
            "--head", train_dir / "head.shed", "--components", *comps,
            "--knn-bank", train_dir / "fewshot.sadp", *extra, "--out", out]


def test_eval_scores_at_the_smallest_accepted_knn_temperature(
        tmp_path, data_dir, train_dir, capsys):
    smallest = heads.KNN_T_MIN
    below = math.nextafter(smallest, 0.0)
    assert run(*_eval_argv(data_dir, train_dir, tmp_path / "r",
                           "--knn-t", repr(smallest))) == 0
    doc = json.loads((tmp_path / "r.json").read_text())
    assert 0.0 < doc["baselines"]["id"]["knn"] <= 1.0
    assert run(*_eval_argv(data_dir, train_dir, tmp_path / "s",
                           "--knn-t", repr(below))) == 1
    assert "--knn-t" in capsys.readouterr().err


def test_eval_knn_k_above_the_bank_equals_the_whole_bank(tmp_path, data_dir,
                                                         train_dir):
    rows = read_container(train_dir / "fewshot.sadp").n
    for name, k in (("all", rows), ("huge", 100000)):
        assert run(*_eval_argv(data_dir, train_dir, tmp_path / name,
                               "--knn-k", k)) == 0
    for ext in ("csv", "json"):
        assert (tmp_path / f"all.{ext}").read_bytes() \
            == (tmp_path / f"huge.{ext}").read_bytes()


@pytest.mark.parametrize("command", ["soup", "eval"])
def test_repeated_component_path_is_a_usage_error(tmp_path, data_dir,
                                                  train_dir, capsys, command):
    comp = train_dir / "component_1.sada"
    again = train_dir / "." / "component_1.sada"  # the same file
    comps = [train_dir / "component_0.sada", comp, again]
    argv = (["soup", "--components", *comps, "--out", tmp_path / "m.sada"]
            if command == "soup" else
            _eval_argv(data_dir, train_dir, tmp_path / "r", comps=comps))
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and str(again) in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command,flag,value", [
    ("eval", "--knn-k", "0"),
    ("eval", "--knn-k", "-3"),
    ("eval", "--knn-k", "2.5"),
    ("eval", "--knn-t", "0"),
    ("eval", "--knn-t", "-0.1"),
    ("eval", "--knn-t", "nan"),
    ("eval", "--knn-t", "inf"),
    ("eval", "--knn-t", "1e-3"),  # exp(1 / T) overflows float64
    ("eval", "--knn-t", "1e-5"),
    ("soup", "--trials", "0"),
    ("soup", "--trials", "-1" + "0" * 30),  # beyond int64
    ("soup", "--tolerance", "-1e-4"),
    ("soup", "--tolerance", "nan"),
    ("soup", "--tolerance", "inf"),
])
def test_bad_numeric_flags_are_usage_errors(tmp_path, data_dir, train_dir,
                                            capsys, command, flag, value):
    comp = train_dir / "component_0.sada"
    if command == "eval":
        argv = ["eval", "--embeddings", data_dir / "id_test.sadp",
                "--head", train_dir / "head.shed", "--components", comp,
                "--knn-bank", train_dir / "fewshot.sadp"]
    else:
        argv = ["soup", "--components", comp]
    assert run(*argv, f"{flag}={value}", "--out", tmp_path / "x") == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and flag in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


# ------------------------------------------------------- exit-code contract

def test_soup_missing_component_exits_2_naming_it(tmp_path, capsys):
    missing = tmp_path / "nonexistent.sada"
    assert run("soup", "--components", missing,
               "--out", tmp_path / "x.sada") == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(missing) in err
    assert list(tmp_path.iterdir()) == []


def test_soup_failing_verification_leaves_existing_out_untouched(
        tmp_path, train_dir):
    out = tmp_path / "merged.sada"
    out.write_bytes(b"an earlier merge")
    comps = [train_dir / f"component_{j}.sada" for j in range(2)]
    assert run("soup", "--components", *comps, "--tolerance", "0",
               "--out", out) == 3
    assert out.read_bytes() == b"an earlier merge"
    assert list(tmp_path.iterdir()) == [out]


def test_soup_writes_only_the_bytes_it_verified(tmp_path, train_dir):
    # soup serializes the merged adapter once, verifies the adapter
    # parsed from those bytes, and writes exactly them
    out = tmp_path / "merged.sada"
    serialized, parsed = [], []
    serialize, parse = adapter.checkpoint_bytes, adapter.parse_checkpoint
    comps = [train_dir / f"component_{j}.sada" for j in range(3)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(adapter, "checkpoint_bytes",
                      lambda *args: serialized.append(1) or serialize(*args))
        patch.setattr(adapter, "parse_checkpoint",
                      lambda blob: parsed.append(bytes(blob)) or parse(blob))
        code = run("soup", "--components", *comps, "--trials", "50",
                   "--out", out)
    assert code == 0
    assert len(serialized) == len(parsed) == 1
    assert out.read_bytes() == parsed[0]
    assert list(tmp_path.iterdir()) == [out]


@pytest.mark.parametrize("stage", ["train", "soup", "eval"])
def test_only_soup_loads_openssl(tmp_path, data_dir, train_dir, stage):
    # hashlib loads OpenSSL's _hashlib (about 3.6 MB); only soup digests
    comps = [train_dir / f"component_{j}.sada" for j in range(3)]
    argv = {"train": ["train", "--embeddings", data_dir / "train.sadp",
                      "--shots", "2", "--k", "2", "--epochs", "1",
                      "--out", tmp_path / "run"],
            "soup": ["soup", "--components", *comps,
                     "--out", tmp_path / "merged.sada"],
            "eval": ["eval", "--embeddings", data_dir / "id_test.sadp",
                     "--head", train_dir / "head.shed",
                     "--components", *comps,
                     "--knn-bank", train_dir / "fewshot.sadp",
                     "--out", tmp_path / "report"]}[stage]
    done = python_process(
        "-c", "import sys; from soupadapter.cli import main; "
        "code = main(sys.argv[1:]); print('_hashlib' in sys.modules); "
        "sys.exit(code)", *argv)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == str(stage == "soup")


DEEP_JSON = "[" * 100_000 + "]" * 100_000
# manifests that parse nowhere: past the parser's depth limit, and a split
# index past Python's 4300-digit limit on int conversion
CRAFTED_MANIFESTS = {
    "nested-100000": '{"dataset": "d", "splits": ' + DEEP_JSON + "}",
    "index-5000-digits": '{"dataset": "d", "classes": [], "splits": '
                         '{"train": [' + "1" * 5000 + "]}}",
}


@pytest.mark.parametrize("case", ["missing-classes", "not-utf8",
                                  *CRAFTED_MANIFESTS])
def test_bad_manifest_exits_2(tmp_path, data_dir, capsys, case):
    container = tmp_path / "train.sadp"
    container.write_bytes((data_dir / "train.sadp").read_bytes())
    manifest = tmp_path / "train.sadp.json"
    if case == "missing-classes":
        doc = json.loads((data_dir / "train.sadp.json").read_text())
        del doc["classes"]
        manifest.write_text(json.dumps(doc))
    elif case == "not-utf8":
        manifest.write_bytes(b'{"dataset": "\xff"}')
    else:
        manifest.write_text(CRAFTED_MANIFESTS[case])
    assert run("info", "--embeddings", container) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {manifest}: manifest")
    assert err.count("\n") == 1


@pytest.mark.parametrize("case", sorted(CRAFTED_MANIFESTS))
def test_train_on_a_crafted_manifest_exits_2_naming_it(tmp_path, data_dir,
                                                       capsys, case):
    container = tmp_path / "train.sadp"
    container.write_bytes((data_dir / "train.sadp").read_bytes())
    (tmp_path / "train.sadp.json").write_text(CRAFTED_MANIFESTS[case])
    assert run("train", "--embeddings", container, "--shots", "2",
               "--k", "1", "--epochs", "1", "--out", tmp_path / "run") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {container}.json: manifest is not "
                          f"UTF-8 JSON: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "run").exists()


def with_trailer(path, trailer: str) -> bytes:
    """The checkpoint at path with ``trailer`` as its JSON trailer."""
    params, scale, _ = load_checkpoint(path)
    blob = adapter.checkpoint_bytes(params, scale, {})
    return blob[:-6] + struct.pack("<I", len(trailer)) + trailer.encode()


@pytest.mark.parametrize("command", ["info", "soup", "eval"])
def test_checkpoint_with_a_deep_trailer_exits_2_naming_it(
        tmp_path, data_dir, train_dir, capsys, command):
    bad = tmp_path / "deep.sada"
    bad.write_bytes(with_trailer(train_dir / "component_0.sada",
                                 '{"kind": ' + DEEP_JSON + "}"))
    argv = {"info": ["info", "--embeddings", bad],
            "soup": ["soup", "--components", bad,
                     "--out", tmp_path / "m.sada"],
            "eval": _eval_argv(data_dir, train_dir, tmp_path / "r",
                               comps=[bad])}[command]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {bad}: checkpoint trailer is not "
                          f"UTF-8 JSON: ")
    assert err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["deep.sada"]


def capped_process(*argv):
    """python_process with its address space capped at 1 GiB and a 30 s
    timeout, so a read that never ends fails instead of filling memory,
    and a read that blocks fails instead of hanging the suite."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    return python_process(*argv, timeout=30, preexec_fn=cap)


@pytest.mark.parametrize("case", ["info-fifo", "train-fifo",
                                  "manifest-fifo", "head-dev-zero"])
def test_a_fifo_or_device_input_exits_2_naming_it(tmp_path, data_dir,
                                                  case):
    # a FIFO with no writer blocks a plain open, and /dev/zero never ends
    fifo = tmp_path / "fifo.sadp"
    os.mkfifo(fifo)
    train = ["-m", "soupadapter", "train", "--shots", "2", "--k", "1",
             "--epochs", "1", "--out", tmp_path / "run"]
    if case == "info-fifo":
        argv, named = ["-m", "soupadapter", "info", "--embeddings", fifo], fifo
    elif case == "train-fifo":
        argv, named = [*train, "--embeddings", fifo], fifo
    elif case == "manifest-fifo":
        container = tmp_path / "train.sadp"
        container.write_bytes((data_dir / "train.sadp").read_bytes())
        named = tmp_path / "train.sadp.json"
        os.mkfifo(named)
        argv = ["-m", "soupadapter", "info", "--embeddings", container]
    else:
        named = "/dev/zero"
        argv = [*train, "--embeddings", data_dir / "train.sadp",
                "--head", named]
    done = capped_process(*argv)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("data error: cannot read ")
    assert f"{named} is not a regular file" in done.stderr
    assert done.stderr.count("\n") == 1
    assert not (tmp_path / "run").exists()


FORGED = "x\nnorm-check: forged"


@pytest.mark.parametrize("where", ["manifest", "trailer"])
def test_info_prints_one_line_per_field(tmp_path, data_dir, train_dir,
                                        capsys, where):
    if where == "manifest":
        path = tmp_path / "train.sadp"
        path.write_bytes((data_dir / "train.sadp").read_bytes())
        doc = json.loads((data_dir / "train.sadp.json").read_text())
        (tmp_path / "train.sadp.json").write_text(json.dumps(
            {**doc, "dataset": FORGED, "model": "m\r\x1b[2K\u2028",
             "splits": {"a\nb": []}}))
        want = ["dim", "samples", "views", "classes", "norm-check",
                "dataset", "model", "splits"]
    else:
        path = tmp_path / "c.sada"
        params, scale, _ = load_checkpoint(train_dir / "component_0.sada")
        adapter.save_checkpoint(path, params, scale, {
            "kind": FORGED, "a\nb": {"c\rd": "\x1b[2K"}})
        want = ["format", "dim", "hidden", "scale", "a\\nb.c\\rd",
                "kind"]
    assert run("info", "--embeddings", path) == 0
    out = capsys.readouterr().out
    assert [line.split(": ")[0] for line in out.splitlines()] == want
    assert out.count("\n") == len(want)
    key = "dataset" if where == "manifest" else "kind"
    assert f"{key}: x\\nnorm-check: forged\n" in out
    if where == "manifest":
        assert "model: m\\r\\x1b[2K\\u2028\n" in out
        assert "splits: a\\nb\n" in out
    else:
        assert "a\\nb.c\\rd: \\x1b[2K\n" in out


@pytest.mark.parametrize("where", ["manifest", "trailer"])
def test_info_escapes_a_file_string_stdout_cannot_encode(
        tmp_path, data_dir, train_dir, monkeypatch, where):
    """A lone surrogate is valid JSON; a UTF-8 stdout cannot encode it."""
    monkeypatch.setenv("PYTHONIOENCODING", "utf-8")
    if where == "manifest":
        path = tmp_path / "train.sadp"
        path.write_bytes((data_dir / "train.sadp").read_bytes())
        doc = json.loads((data_dir / "train.sadp.json").read_text())
        (tmp_path / "train.sadp.json").write_text(
            json.dumps({**doc, "dataset": "\ud800"}))
    else:
        path = tmp_path / "c.sada"
        params, scale, _ = load_checkpoint(train_dir / "component_0.sada")
        adapter.save_checkpoint(path, params, scale, {"kind": "\ud800"})
    done = python_process("-m", "soupadapter", "info", "--embeddings", path)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    key = "dataset" if where == "manifest" else "kind"
    assert f"{key}: \\ud800\n" in done.stdout


def test_eval_head_with_nan_scale_exits_2(tmp_path, data_dir, train_dir,
                                          capsys):
    bad = tmp_path / "nan.shed"
    blob = bytearray((train_dir / "head.shed").read_bytes())
    blob[16:24] = struct.pack("<d", float("nan"))
    bad.write_bytes(bytes(blob))
    assert run("eval", "--embeddings", data_dir / "id_test.sadp",
               "--head", bad, "--components", train_dir / "component_0.sada",
               "--out", tmp_path / "x") == 2
    assert "scale" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_soup_component_with_inf_scale_exits_2(tmp_path, train_dir, capsys):
    bad = tmp_path / "inf.sada"
    blob = bytearray((train_dir / "component_0.sada").read_bytes())
    blob[16:24] = struct.pack("<d", float("inf"))
    bad.write_bytes(bytes(blob))
    assert run("soup", "--components", train_dir / "component_1.sada", bad,
               "--out", tmp_path / "m.sada") == 2
    assert "scale" in capsys.readouterr().err
    assert not (tmp_path / "m.sada").exists()


@pytest.mark.parametrize("flag,value", [
    ("--k", "0"),
    ("--shots", "0"),
    ("--epochs", "-1"),
    ("--jobs", "0"),
    ("--override", "batch_size=0"),
    ("--override", "red=0"),
    ("--override", "lr=0"),
    ("--override", "lr=nan"),
    ("--override", "lr=inf"),
    ("--override", "weight_decay=-0.01"),
    ("--override", "aug_strength=-1"),
    ("--override", "train_r=1.5"),
    ("--override", "train_r=-0.1"),
    ("--override", "mask_strategy=zzz"),
    ("--override", "mask_strategy=mask"),  # --mask is the only mask knob
    ("--override", "epochs=2"),  # --epochs is the only epochs knob
])
def test_train_bad_values_are_usage_errors(tmp_path, data_dir, capsys, flag,
                                           value):
    argv = {"--shots": "4", "--k": "1", "--epochs": "1", flag: value}
    assert run("train", "--embeddings", data_dir / "train.sadp",
               *[a for kv in argv.items() for a in kv],
               "--out", tmp_path / "run") == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("lr", ["1e300", "1e30"])
def test_train_going_non_finite_exits_3_without_writing(tmp_path, data_dir,
                                                        capsys, lr):
    # 1e300 turns a batch loss into NaN; 1e30 keeps every loss finite but
    # leaves weights that float32 checkpoints cannot hold
    out = tmp_path / "run"
    assert run("train", "--embeddings", data_dir / "train.sadp",
               "--shots", "4", "--k", "1", "--epochs", "2",
               "--override", f"lr={lr}", "--out", out) == 3
    err = capsys.readouterr().err
    assert "numerical failure: component seed" in err
    assert "epoch" in err and "step" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "train"])
def test_unwritable_out_exits_2(tmp_path, data_dir, capsys, monkeypatch,
                                command):
    def never(*args, **kwargs):
        raise AssertionError("trained before creating --out")

    monkeypatch.setattr(adapter, "train_component", never)
    blocker = tmp_path / "a-file"
    blocker.write_bytes(b"")
    argv = ["synth", "--per-class", "4"] if command == "synth" else [
        "train", "--embeddings", data_dir / "train.sadp", "--shots", "2",
        "--k", "1", "--epochs", "1"]
    assert run(*argv, "--out", blocker / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "output directory" in err


@pytest.mark.parametrize("flag", ["soup", "eval --components",
                                  "eval --adapter"])
def test_corrupt_checkpoint_is_named(tmp_path, data_dir, train_dir, capsys,
                                     flag):
    comps = []
    for j in range(3):
        comp = tmp_path / f"component_{j}.sada"
        comp.write_bytes((train_dir / f"component_{j}.sada").read_bytes())
        comps.append(comp)
    comps[1].write_bytes(b"XXXX" + comps[1].read_bytes()[4:])
    if flag == "soup":
        argv = ["soup", "--components", *comps, "--out", tmp_path / "m.sada"]
    else:
        models = ["--components", *comps] if flag == "eval --components" \
            else ["--adapter", comps[1]]
        argv = ["eval", "--embeddings", data_dir / "id_test.sadp",
                "--head", train_dir / "head.shed", *models,
                "--out", tmp_path / "report"]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "component_1.sada" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        [c.name for c in comps]


def test_train_noise_that_overflows_the_norm_exits_3(tmp_path, data_dir):
    # sigma = 0.02 * 1e308 overflows each noisy row's squared sum: the
    # message names the noisy features, not the residual sum they zero
    out = tmp_path / "run"
    done = python_process("-m", "soupadapter", "train", "--embeddings",
                          data_dir / "train.sadp", "--shots", "2", "--k", "2",
                          "--epochs", "1", "--jobs", "1",
                          "--override", "aug_strength=1e308", "--out", out)
    assert done.returncode == 3
    first, second, last = done.stderr.splitlines()  # no other line
    assert re.fullmatch(r"component 0 failed: component seed \d+: noisy "
                        r"features at epoch 0: row 0 has norm inf, not "
                        r"finite in float64", first), done.stderr
    assert second.startswith("component 1 failed: component seed ")
    assert last == "numerical failure: " + first.split(" failed: ", 1)[1]
    assert not out.exists()


def test_failed_train_keeps_an_existing_out(tmp_path, data_dir):
    out = tmp_path / "run"
    out.mkdir()
    assert run("train", "--embeddings", data_dir / "train.sadp",
               "--shots", "4", "--k", "1", "--epochs", "2",
               "--override", "lr=1e300", "--out", out) == 3
    assert out.is_dir() and list(out.iterdir()) == []


# ------------------------------------------------- fuzzed numeric arguments

# zero, negative, non-finite, huge, subnormal, empty, not a number, hex, and
# an integer beyond int64
_HUGE = "1" * 21
_EDGES = ("0", "-1", "nan", "inf", "1e308", "1e-320", "", "abc", "0x10", _HUGE)
# counts of work that would accept the 21-digit integer and run for ever
_WORK = {"--k", "--epochs", "--trials"}

# per subcommand, small valid values of each numeric flag; an accepted run
# stays small: at most 3 components of 2 epochs, 2000 probes, and
# synthetic sets of at most 96 values unless the size bound refuses them.
# info's one flag is a path in the fixture directory.
_FLAGS = {
    "synth": {"--classes": ("2", "3"), "--dim": ("2", "8"),
              "--per-class": ("1", "4"), "--shift-angle": ("0.3",),
              "--noise": ("0.3",), "--seed": ("5",)},
    "train": {"--shots": ("1", "2", "4"), "--k": ("1", "3"), "--seed": ("3",),
              "--epochs": ("1", "2"), "--jobs": ("1", "2", "64")},
    "soup": {"--trials": ("1", "2000"), "--tolerance": ("1e-4",)},
    "eval": {"--knn-k": ("1", "5"), "--knn-t": ("0.1",),
             "--grid": ("0:1:0.5",)},
    "info": {"--embeddings": ("train.sadp", "run/head.shed",
                              "run/component_0.sada")},
}

_MASKS = ["auto", "mask", "no-mask"]
_OVERRIDE = st.builds(
    "--override={}={}".format,
    st.sampled_from(sorted(cli._OVERRIDE_TYPES) + ["epochs"]),
    st.sampled_from(("2", "1e-3", "0.5") + _EDGES))


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A 3-class dim-8 synthetic set, a K = 2 run trained on it, and a
    counter that names each fuzzed run's output in out/."""
    root = tmp_path_factory.mktemp("tiny")
    assert run("synth", "--out", root, "--classes", "3", "--dim", "8",
               "--per-class", "6", "--seed", "1") == 0
    assert run("train", "--embeddings", root / "train.sadp", "--shots", "4",
               "--k", "2", "--epochs", "1", "--out", root / "run") == 0
    (root / "out").mkdir()
    return root, itertools.count()


@pytest.mark.parametrize("command", sorted(_FLAGS))
@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_fuzzed_numeric_arguments_keep_the_exit_code_contract(tiny, command,
                                                              data):
    # every flag takes a small valid value, and up to two an edge value
    root, runs = tiny
    valid = _FLAGS[command]
    flags = {flag: data.draw(st.sampled_from(values))
             for flag, values in valid.items()}
    for flag in data.draw(st.lists(st.sampled_from(sorted(valid)),
                                   max_size=2, unique=True)):
        flags[flag] = data.draw(st.sampled_from(
            [v for v in _EDGES if v != _HUGE or flag not in _WORK]))
    if command == "info":
        flags["--embeddings"] = root / flags["--embeddings"]
    argv = [command, *(f"{flag}={value}" for flag, value in flags.items())]
    comps = [root / "run" / f"component_{j}.sada" for j in range(2)]
    if command == "train":
        argv += ["--embeddings", root / "train.sadp",
                 "--mask", data.draw(st.sampled_from(_MASKS)),
                 *data.draw(st.lists(_OVERRIDE, max_size=2))]
    elif command == "soup":
        argv += ["--components", *comps]
    elif command == "eval":
        argv += ["--embeddings", root / "id_test.sadp",
                 "--ood", root / "ood_test.sadp",
                 "--head", root / "run" / "head.shed",
                 "--components", *comps,
                 "--knn-bank", root / "run" / "fewshot.sadp"]
    if command != "info":
        argv += ["--out", root / "out" / str(next(runs))]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(*argv)
    assert code in (0, 1, 2, 3) and "Traceback" not in err.getvalue()


# -------------------------------------------------------------------- memory

def test_train_and_eval_memory_does_not_grow_with_the_set(tmp_path,
                                                          traced_peak):
    # train keeps only the rows it selects and eval one block of each set,
    # so 6 more blocks of samples cost less than one block of features;
    # labels, the manifest's split and sampling still grow with the set
    d, c = 256, 4
    block = dataio.BLOCK_ROWS * d * 4
    peaks = {"train": [], "eval": []}
    for blocks in (2, 8):
        n = blocks * dataio.BLOCK_ROWS
        rows = stream(blocks, "memory").normal_array(n * d).reshape(n, d)
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        data = tmp_path / str(blocks)
        data.mkdir()
        dataio.write_container(dataio.EmbeddingSet(
            features=rows.astype(np.float32)[:, np.newaxis, :],
            labels=np.arange(n) % c, n_classes=c), data / "set.sadp")
        dataio.write_manifest(dataio.Manifest(
            dataset="memory", classes=[f"c{k}" for k in range(c)],
            splits={"train": list(range(n))}),
            dataio.manifest_path_for(data / "set.sadp"))
        del rows
        codes = []
        stages = {
            "train": ["train", "--embeddings", data / "set.sadp",
                      "--shots", "2", "--k", "1", "--epochs", "1",
                      "--out", data / "run"],
            "eval": ["eval", "--embeddings", data / "set.sadp",
                     "--head", data / "run" / "head.shed",
                     "--components", data / "run" / "component_0.sada",
                     "--knn-bank", data / "run" / "fewshot.sadp",
                     "--out", data / "report"]}
        for stage, argv in stages.items():
            peaks[stage].append(traced_peak(lambda: codes.append(run(*argv))))
        assert codes == [0, 0]
    for stage, (two, eight) in peaks.items():
        assert eight < two + block, (stage, two, eight)
