import numpy as np
import pytest

from soupadapter.adapter import (AdapterParams, adapter_forward, blend,
                                 sample_hyperconfig, train_component)
from soupadapter.dataio import EmbeddingSet, generate_synthetic, sample_few_shot
from soupadapter.errors import (ClassSetMismatch, CorruptLength,
                                LengthMismatch, SoupMismatch)
from soupadapter.evalkit import (DEFAULT_GRID, EVAL_BLOCK_ROWS, EvalReport,
                                 SweepRow, _fold, _residual_logits, accuracy,
                                 component_average_report, head_accuracy,
                                 knn_accuracy, ratio_sweep, read_report,
                                 robustness_report, write_report)
from soupadapter.heads import (ClassifierHead, KnnConfig, build_prototypes,
                               head_logits, leave_one_out_prototypes,
                               selection_prototypes)
from soupadapter.numerics import gelu, row_norms
from soupadapter.rng import stream
from soupadapter.soup import Soup, reparameterize, soup_forward


def unit_rows(seed, n, d):
    rows = stream(seed, "rows").normal_array(n * d).reshape(n, d)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def random_params(seed, d, h, scale=0.4):
    rng = stream(seed, "params")
    return AdapterParams(
        W1=rng.normal_array(h * d).reshape(h, d) * scale,
        b1=rng.normal_array(h) * 0.1,
        W2=rng.normal_array(d * h).reshape(d, h) * scale,
        b2=rng.normal_array(d) * 0.1)


@pytest.fixture(scope="module")
def bench():
    train, id_test, ood_test = generate_synthetic(10, 32, 40, 0.3, 0.3, seed=11)
    sel = sample_few_shot(train, range(train.n), 8, seed=11)
    clean = train.unit_features(0)
    head = build_prototypes([clean[sel.indices[c]] for c in range(10)])
    return train, id_test, ood_test, sel, head


# ------------------------------------------------------------------ accuracy

def test_accuracy_examples():
    logits = np.eye(4)
    assert accuracy(logits, np.arange(4)) == 1.0
    assert accuracy(logits, (np.arange(4) + 1) % 4) == 0.0
    assert accuracy(logits, np.array([0, 1, 2, 0])) == 0.75


def test_accuracy_tie_breaks_to_lowest_class():
    logits = np.array([[1.0, 1.0, 1.0]])
    assert accuracy(logits, np.array([0])) == 1.0
    assert accuracy(logits, np.array([1])) == 0.0


def test_accuracy_invariant_under_positive_rescaling():
    logits = stream(1, "acc").normal_array(60).reshape(12, 5)
    labels = np.array([stream(2, "l").randbelow(5) for _ in range(12)])
    for c in (1e-6, 3.0, 1e8):
        assert accuracy(c * logits, labels) == accuracy(logits, labels)


def test_accuracy_length_mismatch():
    with pytest.raises(LengthMismatch):
        accuracy(np.zeros((3, 2)), np.zeros(4, int))
    with pytest.raises(LengthMismatch):
        accuracy(np.zeros((0, 2)), np.zeros(0, int))


# --------------------------------------------------------------- ratio sweep

def test_sweep_r_zero_equals_bare_head_exactly(bench):
    _, id_test, _, _, head = bench
    model = random_params(3, 32, 5)
    sweep = ratio_sweep(model, head, id_test, grid=[0.0])
    assert sweep[0.0] == head_accuracy(head, id_test)
    # per-sample decisions are identical, not merely equally accurate
    feats = id_test.unit_features(0)
    bare = np.argmax(head_logits(head, feats), axis=1)
    outputs = adapter_forward(model, feats)
    from soupadapter.adapter import blend
    blended = blend(feats, outputs, 0.0)
    assert np.array_equal(blended, feats)
    assert np.array_equal(np.argmax(head_logits(head, blended), axis=1), bare)


def test_sweep_zero_adapter_is_constant_across_r(bench):
    _, id_test, _, _, head = bench
    zero = AdapterParams(W1=np.zeros((4, 32)), b1=np.zeros(4),
                         W2=np.zeros((32, 4)), b2=np.zeros(32))
    sweep = ratio_sweep(zero, head, id_test, grid=DEFAULT_GRID)
    assert len(set(sweep.values())) == 1


def test_sweep_uses_requested_split(bench):
    _, id_test, _, _, head = bench
    model = random_params(4, 32, 3)
    full = ratio_sweep(model, head, id_test, grid=[0.0])
    half = ratio_sweep(model, head, id_test, grid=[0.0],
                       split=list(range(id_test.n // 2)))
    assert 0 <= half[0.0] <= 1
    assert full[0.0] != half[0.0] or id_test.n < 4


def test_trained_soup_beats_its_r_zero_point():
    # seeded setup verified to clear the bar before freezing (margin 0.8pp
    # over 1000 test samples; every seed in 0..4 also clears it)
    train, id_test, _ = generate_synthetic(10, 32, 100, 0.3, 0.3, seed=1)
    sel = sample_few_shot(train, range(train.n), 16, seed=1)
    head, prompts = selection_prototypes(train, sel)
    table = np.stack(leave_one_out_prototypes(prompts))
    comps = []
    for j in range(8):
        cfg = sample_hyperconfig(1, j, {"epochs": 50, "mask_strategy": "mask"},
                                 dim=train.dim)
        params, _ = train_component(train, sel, head, cfg, table)
        comps.append(params)
    sweep = ratio_sweep(Soup(comps), head, id_test, grid=DEFAULT_GRID)
    assert max(sweep.values()) > sweep[0.0]


def test_reparameterized_soup_decisions_match_componentwise(bench):
    _, id_test, _, _, head = bench
    soup = Soup([random_params(10 + j, 32, 3 + j) for j in range(3)])
    feats = id_test.unit_features(0)
    from soupadapter.adapter import blend
    merged_out = adapter_forward(reparameterize(soup), feats)
    soup_out = soup_forward(soup, feats)
    for r in (0.3, 1.0):
        a = np.argmax(head_logits(head, blend(feats, merged_out, r)), axis=1)
        b = np.argmax(head_logits(head, blend(feats, soup_out, r)), axis=1)
        assert np.array_equal(a, b)


# ------------------------------------------- one-pass scorer vs re-blending

def reference_sweep(model, head, emb, grid, split=None):
    """Blend the adapter output in and re-score the head at every r."""
    feats = emb.unit_features(view=0, indices=split)
    labels = emb.labels if split is None \
        else emb.labels[np.asarray(split, dtype=np.int64)]
    outputs = soup_forward(model, feats) if isinstance(model, Soup) \
        else adapter_forward(model, feats)
    return {float(r): accuracy(head_logits(
                head, feats if r == 0.0 else blend(feats, outputs, r)), labels)
            for r in grid}


@pytest.fixture(scope="module")
def block_bench():
    """A set one row longer than an evaluation block, with a fitted head
    and models whose sweeps actually move with r."""
    train, id_test, _ = generate_synthetic(10, 32, 103, 0.3, 0.3, seed=12)
    assert id_test.n > EVAL_BLOCK_ROWS
    sel = sample_few_shot(train, range(train.n), 8, seed=12)
    clean = train.unit_features(0)
    head = build_prototypes([clean[sel.indices[c]] for c in range(10)])
    models = [random_params(40, 32, 6, scale=0.2),
              Soup([random_params(41 + j, 32, 3 + j, scale=0.2)
                    for j in range(3)])]
    return id_test, head, models


@pytest.mark.parametrize("n", [1, EVAL_BLOCK_ROWS - 1, EVAL_BLOCK_ROWS,
                               EVAL_BLOCK_ROWS + 1])
def test_one_pass_sweep_matches_reblending_at_block_boundaries(block_bench, n):
    id_test, head, models = block_bench
    whole = EmbeddingSet(features=id_test.features[:n],
                         labels=id_test.labels[:n], n_classes=10)
    # a split in scrambled order, drawn from the whole set
    split = [int(i) for i in stream(n, "split").permutation(id_test.n)[:n]]
    for model in models:
        want = reference_sweep(model, head, whole, DEFAULT_GRID)
        assert ratio_sweep(model, head, whole, DEFAULT_GRID) == want
        want = reference_sweep(model, head, id_test, DEFAULT_GRID, split)
        assert ratio_sweep(model, head, id_test, DEFAULT_GRID, split) == want
    assert head_accuracy(head, id_test, split) == accuracy(
        head_logits(head, id_test.unit_features(0, split)),
        id_test.labels[split])
    if n > 1:  # the sweeps above must not all be flat
        assert len(set(want.values())) > 1


def test_reports_match_reblending_per_model(block_bench):
    id_test, head, models = block_bench
    shifted = EmbeddingSet(features=id_test.features[::-1][:700],
                           labels=id_test.labels[::-1][:700], n_classes=10)
    sets = {"id": id_test, "x": shifted, "y": id_test}
    comps = models[1].components
    merged = reparameterize(models[1])
    report = robustness_report(merged, comps, head, id_test,
                               {"x": shifted, "y": id_test})
    want = {name: {split: reference_sweep(model, head, emb, DEFAULT_GRID)
                   for split, emb in sets.items()}
            for name, model in [("soup", merged),
                                *((f"component_{j}", c)
                                  for j, c in enumerate(comps))]}
    for per_split in want.values():
        per_split["ood"] = {r: float(np.mean([per_split["x"][r],
                                              per_split["y"][r]]))
                            for r in DEFAULT_GRID}
    per_comp = [want[f"component_{j}"] for j in range(len(comps))]
    for name, reduce in (("mean", np.mean), ("min", min), ("max", max)):
        want[f"component_{name}"] = {
            split: {r: float(reduce([c[split][r] for c in per_comp]))
                    for r in DEFAULT_GRID} for split in per_comp[0]}
    assert [(row.model, row.split) for row in report.rows] == [
        (name, split) for name, per_split in want.items()
        for split in per_split for _ in DEFAULT_GRID]
    for name, per_split in want.items():
        for split, accs in per_split.items():
            assert report.accuracies(name, split) == accs, (name, split)

    # every model's r = 0 row is the bare head's accuracy on that split
    bare = {split: head_accuracy(head, emb) for split, emb in sets.items()}
    bare["ood"] = report.baselines["ood"]["head"]
    assert report.baselines["id"]["head"] == bare["id"]
    assert bare["ood"] == float(np.mean([bare["x"], bare["y"]]))
    for name in want:
        for split, acc in bare.items():
            got = report.accuracies(name, split)[0.0]
            if name == "component_mean":  # a float mean of K equal values
                assert abs(got - acc) <= 1e-15
            else:
                assert got == acc, (name, split)


def test_report_refuses_an_adapter_that_is_not_the_soup(block_bench):
    id_test, head, models = block_bench
    comps = models[1].components
    for adapter in (models[0], reparameterize(Soup(comps[::-1]))):
        with pytest.raises(SoupMismatch):
            robustness_report(adapter, comps, head, id_test, {})


def test_residual_logits_are_unnormalized_blended_logits(block_bench):
    id_test, head, models = block_bench
    feats = id_test.unit_features(0)
    p = head_logits(head, feats)
    for model in models:
        outputs = soup_forward(model, feats) if isinstance(model, Soup) \
            else adapter_forward(model, feats)
        comps = model.components if isinstance(model, Soup) else [model]
        layer, folded = _fold(comps, head)
        q = _residual_logits(folded, gelu(feats @ layer[0].T + layer[1]),
                             head.scale)
        for r in DEFAULT_GRID[1:]:
            want = head_logits(head, blend(feats, outputs, r))
            got = (p + r * q) / row_norms(feats + r * outputs)[:, None]
            bound = 1e-9 * np.max(np.abs(want), axis=1, keepdims=True)
            assert np.all(np.abs(got - want) <= bound)


def test_empty_split_is_rejected(bench):
    _, id_test, _, _, head = bench
    with pytest.raises(LengthMismatch):
        ratio_sweep(random_params(3, 32, 5), head, id_test, split=[])


# ---------------------------------------------------------------- robustness

def test_ood_equal_to_id_duplicates_the_column(bench):
    _, id_test, _, _, head = bench
    model = random_params(5, 32, 4)
    report = robustness_report(model, [], head, id_test,
                               {"same": id_test}, grid=[0.0, 0.5])
    id_rows = report.accuracies("soup", "id")
    assert report.accuracies("soup", "same") == id_rows
    assert report.accuracies("soup", "ood") == id_rows


def test_single_point_grid_gives_one_curve_point(bench):
    _, id_test, ood_test, _, head = bench
    model = random_params(6, 32, 4)
    report = robustness_report(model, [], head, id_test,
                               {"shift": ood_test}, grid=[0.4])
    assert [row.split for row in report.rows] == ["id", "shift", "ood"]


def test_shifted_set_hurts_prototype_head_at_r_zero(bench):
    _, id_test, ood_test, _, head = bench
    # verified on the seeded benchmark before freezing
    assert head_accuracy(head, ood_test) <= head_accuracy(head, id_test)


def test_robustness_baselines_present(bench):
    _, id_test, ood_test, _, head = bench
    report = robustness_report(random_params(7, 32, 4), [], head,
                               id_test, {"shift": ood_test}, grid=[0.0])
    assert report.baselines["id"] == {"head": head_accuracy(head, id_test)}
    assert report.baselines["ood"] == {"head": head_accuracy(head, ood_test)}


def test_class_set_mismatch(bench):
    _, id_test, _, _, head = bench
    other = generate_synthetic(4, 32, 10, 0.0, 0.2, seed=9)[1]
    with pytest.raises(ClassSetMismatch):
        robustness_report(random_params(8, 32, 4), [], head, id_test,
                          {"bad": other}, grid=[0.0])


def test_knn_accuracy_runs(bench):
    train, id_test, _, sel, head = bench
    flat = [i for cls in sel.indices for i in cls]
    bank = train.unit_features(0, indices=flat)
    labels = train.labels[np.asarray(flat)]
    acc = knn_accuracy(bank, labels, KnnConfig(), id_test, 10)
    assert 0.1 < acc <= 1.0


# ---------------------------------------------------------------- components

def test_component_average_single_component(bench):
    _, id_test, _, _, head = bench
    comp = random_params(9, 32, 4)
    report = component_average_report([comp], head, id_test, {},
                                      grid=[0.0, 1.0])
    for r in (0.0, 1.0):
        vals = {report.accuracies(m, "id")[r]
                for m in ("component_0", "component_mean", "component_min",
                          "component_max")}
        assert len(vals) == 1


def test_component_average_identical_components_zero_spread(bench):
    _, id_test, _, _, head = bench
    comp = random_params(10, 32, 4)
    report = component_average_report([comp, comp, comp], head,
                                      id_test, {}, grid=[0.5])
    assert report.accuracies("component_min", "id")[0.5] \
        == report.accuracies("component_max", "id")[0.5]


def test_component_mean_is_exact_arithmetic_mean(bench):
    _, id_test, _, _, head = bench
    comps = [random_params(20 + j, 32, 3) for j in range(4)]
    report = component_average_report(comps, head, id_test, {},
                                      grid=[0.0, 0.7])
    for r in (0.0, 0.7):
        per = [report.accuracies(f"component_{j}", "id")[r] for j in range(4)]
        mean = report.accuracies("component_mean", "id")[r]
        assert abs(mean - float(np.mean(per))) < 1e-12
        assert report.accuracies("component_min", "id")[r] == min(per)
        assert report.accuracies("component_max", "id")[r] == max(per)


# ----------------------------------------------------------------- report IO

def test_csv_round_trip_and_shape(tmp_path):
    rows = [SweepRow("m1", "id", r, 0.5 + 0.01 * i)
            for i, r in enumerate((0.0, 0.1, 0.2))]
    rows += [SweepRow("m1", "ood", r, 0.4) for r in (0.0, 0.1, 0.2)]
    rows += [SweepRow("m2", "id", r, 0.6) for r in (0.0, 0.1, 0.2)]
    rows += [SweepRow("m2", "ood", r, 0.3) for r in (0.0, 0.1, 0.2)]
    report = EvalReport(rows=rows)
    path = tmp_path / "r.csv"
    write_report(report, path, "csv")
    text = path.read_text()
    lines = text.split("\n")
    assert lines[0] == "model,split,r,accuracy"
    assert len([ln for ln in lines if ln]) == 2 * 2 * 3 + 1
    assert "\r" not in text
    assert read_report(path, "csv").rows == report.rows


def test_empty_grid_yields_header_only_csv(tmp_path):
    path = tmp_path / "r.csv"
    write_report(EvalReport(), path, "csv")
    assert path.read_text() == "model,split,r,accuracy\n"


def test_json_round_trip(tmp_path):
    report = EvalReport(
        rows=[SweepRow("soup", "id", 0.30000000000000004, 0.8123456789)],
        baselines={"id": {"prototype": 0.7, "knn": 0.6}})
    path = tmp_path / "r.json"
    write_report(report, path, "json")
    assert read_report(path, "json") == report


@pytest.mark.parametrize("format,text", [
    ("json", '{"rows": [{"model": "soup", "split": "id", "r": 0.0}]}'),
    ("json", '{"rows": [{"model": "soup", "split": "id", "r": "half", '
             '"accuracy": 0.5}]}'),
    ("csv", "model,split,r,accuracy\nsoup,id,0.0\n"),
], ids=["json-missing-key", "json-non-numeric-r", "csv-three-fields"])
def test_malformed_report_is_corrupt_length(tmp_path, format, text):
    path = tmp_path / f"r.{format}"
    path.write_text(text)
    with pytest.raises(CorruptLength, match="r\\." + format):
        read_report(path, format)


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_report(EvalReport(), tmp_path / "x", "yaml")
