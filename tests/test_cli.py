import json
import struct

import numpy as np
import pytest

from soupadapter import adapter
from soupadapter.adapter import adapter_forward, load_checkpoint
from soupadapter.cli import main, parse_grid
from soupadapter.dataio import read_container
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


def test_synth_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("synth", "--out", a, "--per-class", "10", "--seed", "5") == 0
    assert run("synth", "--out", b, "--per-class", "10", "--seed", "5") == 0
    for name in ("train.sadp", "id_test.sadp", "ood_test.sadp",
                 "train.sadp.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


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


def test_train_mask_at_one_shot_warns_and_trains_unmasked(tmp_path,
                                                          data_dir, capsys):
    argv = ["train", "--embeddings", data_dir / "train.sadp", "--shots", "1",
            "--k", "1", "--epochs", "2"]
    assert run(*argv, "--mask", "mask", "--out", tmp_path / "m") == 0
    err = capsys.readouterr().err
    assert err.startswith("warning: mask strategy with a single shot")
    assert len(err.splitlines()) == 1  # no source path or line
    assert run(*argv, "--mask", "no-mask", "--out", tmp_path / "n") == 0
    masked, _, meta = load_checkpoint(tmp_path / "m" / "component_0.sada")
    plain, _, _ = load_checkpoint(tmp_path / "n" / "component_0.sada")
    assert meta["hyper"]["mask_strategy"] == "mask"
    assert all(np.array_equal(masked.as_dict()[k], plain.as_dict()[k])
               for k in ("W1", "b1", "W2", "b2"))


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


def test_eval_without_models_exits_1(tmp_path, data_dir, train_dir):
    assert run("eval", "--embeddings", data_dir / "id_test.sadp",
               "--head", train_dir / "head.shed",
               "--out", tmp_path / "x") == 1


def test_eval_bad_grid_exits_1(tmp_path, data_dir, train_dir):
    assert run("eval", "--embeddings", data_dir / "id_test.sadp",
               "--head", train_dir / "head.shed",
               "--components", train_dir / "component_0.sada",
               "--grid", "1:0:-1", "--out", tmp_path / "x") == 1


def test_eval_corrupt_head_exits_2(tmp_path, data_dir, train_dir):
    bad = tmp_path / "bad.shed"
    bad.write_bytes(b"XXXX" + (train_dir / "head.shed").read_bytes()[4:])
    assert run("eval", "--embeddings", data_dir / "id_test.sadp",
               "--head", bad,
               "--components", train_dir / "component_0.sada",
               "--out", tmp_path / "x") == 2


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


@pytest.mark.parametrize("command,flag,value", [
    ("eval", "--knn-k", "0"),
    ("eval", "--knn-k", "-3"),
    ("eval", "--knn-k", "2.5"),
    ("eval", "--knn-t", "0"),
    ("eval", "--knn-t", "-0.1"),
    ("eval", "--knn-t", "nan"),
    ("eval", "--knn-t", "inf"),
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


@pytest.mark.parametrize("case", ["missing-classes", "not-utf8"])
def test_bad_manifest_exits_2(tmp_path, data_dir, capsys, case):
    container = tmp_path / "train.sadp"
    container.write_bytes((data_dir / "train.sadp").read_bytes())
    manifest = tmp_path / "train.sadp.json"
    if case == "missing-classes":
        doc = json.loads((data_dir / "train.sadp.json").read_text())
        del doc["classes"]
        manifest.write_text(json.dumps(doc))
    else:
        manifest.write_bytes(b'{"dataset": "\xff"}')
    assert run("info", "--embeddings", container) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "manifest" in err


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


def test_failed_train_keeps_an_existing_out(tmp_path, data_dir):
    out = tmp_path / "run"
    out.mkdir()
    assert run("train", "--embeddings", data_dir / "train.sadp",
               "--shots", "4", "--k", "1", "--epochs", "2",
               "--override", "lr=1e300", "--out", out) == 3
    assert out.is_dir() and list(out.iterdir()) == []
