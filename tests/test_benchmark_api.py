"""The package API that perfbench/tracer.py wraps must keep resolving.

The tracer names the functions it times in TARGETS and reads the
embeddings, the selection and the config out of train_component's
positional arguments; a rename or a reordering there would only surface
when the benchmark runs with --trace 1, so it is checked here.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from soupadapter import adapter
from soupadapter.dataio import generate_synthetic, sample_few_shot
from soupadapter.heads import selection_prototypes

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines names only; installs nothing
    return module


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
