"""The package API that perfbench/ uses must keep working.

The tracer names the functions it times in TARGETS and reads the
embeddings, the selection and the config out of train_component's
positional arguments; a rename or a reordering there would only surface
when the benchmark runs with --trace 1, so it is checked here. Likewise
the multiview-shifts workload writes its inputs through the package's
writers (perfbench/workloads.py write_multiview), which is run here once.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from soupadapter import adapter
from soupadapter.dataio import (generate_synthetic, read_container,
                                read_manifest, sample_few_shot)
from soupadapter.heads import import_head, selection_prototypes

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str):
    """A perfbench script as a module; loading it defines names only."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    return load("tracer")  # installs nothing until run_stage


def test_every_traced_target_resolves(tracer):
    assert tracer.TARGETS
    for mod, attr, _ in tracer.TARGETS:
        owner = importlib.import_module(f"soupadapter.{mod}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{mod}.{attr}"


def test_train_component_arguments_match_the_flop_count(tracer):
    params = list(inspect.signature(adapter.train_component).parameters
                  .values())
    assert [(p.name, p.annotation) for p in params[:4]] == [
        ("emb", "EmbeddingSet"), ("selection", "FewShotSelection"),
        ("head", "ClassifierHead"), ("cfg", "HyperConfig")]

    train, _, _ = generate_synthetic(3, 8, 4, 0.0, 0.2, seed=1)
    sel = sample_few_shot(train, range(train.n), 2, seed=1)
    head, _ = selection_prototypes(train, sel)
    cfg = adapter.HyperConfig(red=2, lr=1e-3, weight_decay=1e-3,
                              aug_strength=0.5, seed=1, epochs=3)
    got = tracer._train_gflop((train, sel, head, cfg), {}, None)
    # 6 samples x 3 epochs x (10 D H + 4 D C) multiply-adds, D=8 H=4 C=3
    assert got == {"gflop": 6 * 3 * (10 * 8 * 4 + 4 * 8 * 3) / 1e9}


def test_multiview_writer_inputs_read_back(tmp_path):
    workloads = load("workloads")
    cfg = workloads.MULTIVIEW
    workloads.write_multiview(tmp_path, seed=3)
    head = import_head(tmp_path / "head.shed")
    assert (head.n_classes, head.dim) == (cfg["classes"], cfg["dim"])
    stems = ["train", "id_test", *workloads.WORKLOADS["multiview-shifts"].ood]
    for stem in stems:
        emb = read_container(tmp_path / f"{stem}.sadp")
        manifest = read_manifest(tmp_path / f"{stem}.sadp.json")
        manifest.validate_against(emb)
        assert (emb.n, emb.dim, emb.n_classes) == (
            cfg["classes"] * cfg["per_class"], cfg["dim"], cfg["classes"])
        assert emb.views == (cfg["views"] if stem == "train" else 1)
