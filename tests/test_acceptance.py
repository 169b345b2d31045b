"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single "ACCEPTANCE <n> PASS" line on success (visible
with pytest -s or -rA); a failure shows up as the test failing.
"""

import json
import math

import numpy as np
import pytest

from oracles import finite_difference_check
from soupadapter.adapter import (adapter_backward,
                                 adapter_forward, blend, init_adapter,
                                 load_checkpoint, sample_hyperconfig,
                                 save_checkpoint, train_component,
                                 AdapterParams, LR_GRID, WEIGHT_DECAY_GRID,
                                 AUG_STRENGTH_GRID)
from soupadapter.cli import main
from soupadapter.dataio import (generate_synthetic, read_container,
                                sample_few_shot, write_container)
from soupadapter.evalkit import (DEFAULT_GRID, head_accuracy, ratio_sweep)
from soupadapter.heads import (ClassifierHead, KnnConfig, build_prototypes,
                               export_head, head_logits, import_head,
                               knn_logits_batch, leave_one_out_prototypes,
                               selection_prototypes)
from soupadapter.rng import Stream, stream, uniform
from soupadapter.soup import Soup, reparameterize, soup_forward, verify_equivalence

GRID = [float(r) for r in DEFAULT_GRID]


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


def test_criterion_1_reparameterization_equivalence(tmp_path):
    rng = Stream(424242)
    worst64 = 0.0
    worst32 = 0.0
    for trial in range(50):
        k = rng.choice([1, 2, 4, 8])
        d = rng.choice([16, 64, 512])
        comps = []
        for j in range(k):
            red = 2 + rng.randbelow(9)  # the documented red grid [2, 10]
            p = init_adapter(d, red, seed=rng.next_u64())
            # give the random adapters nonzero biases and varied magnitudes
            q = random_params(trial * 100 + j, d, p.hidden)
            comps.append(q)
        soup = Soup(components=comps)
        worst64 = max(worst64,
                      verify_equivalence(soup, 1000, 1e-10, seed=trial))
        # 32-bit checkpoint round-trip of components and the merged adapter
        paths = []
        for j, comp in enumerate(comps):
            path = tmp_path / f"t{trial}_c{j}.sada"
            save_checkpoint(path, comp, 1.0, {})
            paths.append(path)
        loaded = Soup(components=[load_checkpoint(p)[0] for p in paths])
        mpath = tmp_path / f"t{trial}_m.sada"
        save_checkpoint(mpath, reparameterize(loaded), 1.0, {})
        merged32 = load_checkpoint(mpath)[0]
        worst32 = max(worst32, verify_equivalence(loaded, 1000, 1e-4,
                                                  merged=merged32, seed=trial))
        for p in paths + [mpath]:
            p.unlink()
    assert worst64 <= 1e-10
    assert worst32 <= 1e-4
    print(f"ACCEPTANCE 1 PASS: equivalence over 50 soups "
          f"(64-bit worst {worst64:.2e} <= 1e-10, "
          f"32-bit round-trip worst {worst32:.2e} <= 1e-4)")


def test_criterion_2_ratio_zero_matches_bare_head_exactly():
    train, id_test, _ = generate_synthetic(10, 32, 60, 0.3, 0.3, seed=11)
    sel = sample_few_shot(train, range(train.n), 8, seed=11)
    clean = train.unit_features(0)
    head = build_prototypes([clean[sel.indices[c]] for c in range(10)])
    feats = id_test.unit_features(0)
    bare_logits = head_logits(head, feats)
    bare_pred = np.argmax(bare_logits, axis=1)
    for model in (random_params(1, 32, 5),
                  Soup([random_params(2, 32, 3), random_params(3, 32, 7)])):
        outputs = soup_forward(model, feats) if isinstance(model, Soup) \
            else adapter_forward(model, feats)
        blended = blend(feats, outputs, 0.0)
        assert np.array_equal(blended, feats)  # bit-exact, not approximate
        pred = np.argmax(head_logits(head, blended), axis=1)
        assert np.array_equal(pred, bare_pred)
        sweep = ratio_sweep(model, head, id_test, grid=[0.0])
        assert sweep[0.0] == head_accuracy(head, id_test)
    print("ACCEPTANCE 2 PASS: r=0 sweep reproduces bare-head decisions "
          "exactly on every test vector")


def test_criterion_3_gradient_correctness():
    rng = Stream(777)
    worst = 0.0
    for trial in range(20):
        d = 4 + rng.randbelow(13)       # D <= 16
        h = 1 + rng.randbelow(4)        # H <= 4
        c = 2 + rng.randbelow(5)
        params = random_params(trial, d, h)
        x = unit_rows(trial + 300, 1, d)[0]
        head = ClassifierHead(weights=unit_rows(trial + 600, c, d), scale=1.5)
        # exercises the Eq-style blend Jacobian
        r = 0.2 + 0.8 * uniform(rng.next_u64())
        target = rng.randbelow(c)

        def loss_fn(pd, x=x, head=head, target=target, r=r):
            return adapter_backward(AdapterParams(**pd), x, head,
                                    target=target, eps=0.1, r=r)

        err = finite_difference_check(loss_fn, params.as_dict(),
                                      sample_size=60, seed=trial)
        worst = max(worst, err)
        assert err <= 1e-4
    print(f"ACCEPTANCE 3 PASS: 20 gradient checks incl. normalization "
          f"Jacobian, worst relative error {worst:.2e} <= 1e-4")


def test_criterion_4_knn_matches_brute_force_for_all_k():
    assert KnnConfig().k == 10 and KnnConfig().temperature == 0.1
    rng = Stream(31337)
    t = 0.1
    checked = 0
    for bank_id in range(100):
        size = 1 + rng.randbelow(100)
        bank = unit_rows(bank_id + 1000, size, 8)
        labels = np.array([rng.randbelow(5) for _ in range(size)])
        x = unit_rows(bank_id + 2000, 1, 8)[0]
        sims = bank @ x
        for k in range(1, size + 1):
            got = knn_logits_batch(bank, labels, x[None],
                                   KnnConfig(k=k, temperature=t),
                                   num_classes=5)[0]
            ranked = sorted(range(size), key=lambda j: (-sims[j], j))[:k]
            want = np.zeros(5)
            for j in ranked:
                want[labels[j]] += math.exp(sims[j] / t)
            assert np.max(np.abs(got - want)) <= 1e-12
            checked += 1
    print(f"ACCEPTANCE 4 PASS: KNN equals the exhaustive-sort oracle for "
          f"all k on 100 banks ({checked} (bank, k) pairs, tol 1e-12)")


def test_criterion_5_masked_prototypes_leave_one_out():
    rng = Stream(909)
    for trial in range(20):
        c = 2 + rng.randbelow(5)
        d = 4 + rng.randbelow(13)
        prompts = [unit_rows(trial * 31 + i, 2 + rng.randbelow(6), d)
                   for i in range(c)]
        cls = rng.randbelow(c)
        j = rng.randbelow(prompts[cls].shape[0])
        table = leave_one_out_prototypes(prompts)
        # class c's block of rows starts after the prompts of classes < c
        starts = np.cumsum([0] + [p.shape[0] for p in prompts])
        remaining = [p.copy() for p in prompts]
        remaining[cls] = np.delete(remaining[cls], j, axis=0)
        oracle = build_prototypes(remaining)
        assert np.max(np.abs(table[starts[cls] + j] - oracle.weights[cls])) \
            <= 1e-12
        for other in range(c):
            # every row of every class leaves out one prompt of that class
            # and reads no other class
            for s in range(prompts[other].shape[0]):
                alone = build_prototypes(
                    [np.delete(prompts[other], s, axis=0)])
                assert np.max(np.abs(table[starts[other] + s]
                                     - alone.weights[0])) <= 1e-12
    print("ACCEPTANCE 5 PASS: masked prototypes equal the leave-one-out "
          "construction within 1e-12 on 20 random instances")


def test_criterion_6_training_determinism_and_load_order(tmp_path):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--per-class", "30",
                 "--seed", "4"]) == 0
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["train", "--embeddings", str(data / "train.sadp"),
                     "--shots", "8", "--k", "4", "--epochs", "5",
                     "--seed", "12", "--out", str(out)]) == 0
        outs.append(out)
    for j in range(4):
        a = (outs[0] / f"component_{j}.sada").read_bytes()
        b = (outs[1] / f"component_{j}.sada").read_bytes()
        assert a == b
    paths = [outs[0] / f"component_{j}.sada" for j in range(4)]
    fwd = Soup(components=[load_checkpoint(p)[0] for p in paths])
    rev = Soup(components=[load_checkpoint(p)[0] for p in reversed(paths)])
    xs = unit_rows(5, 200, 32)
    dev = np.max(np.abs(adapter_forward(reparameterize(fwd), xs)
                        - adapter_forward(reparameterize(rev), xs)))
    assert dev <= 1e-10
    print(f"ACCEPTANCE 6 PASS: repeated cmd_train byte-identical; permuted "
          f"load order deviates {dev:.2e} <= 1e-10")


def test_criterion_7_synthetic_soup_benefit():
    seeds = [0, 1, 2, 3, 4]
    soup_id = np.zeros(len(GRID))
    comp_id = np.zeros(len(GRID))
    soup_ood_at_best = 0.0
    comp_ood_at_best = 0.0
    for seed in seeds:
        train, id_test, ood_test = generate_synthetic(10, 32, 100, 0.3, 0.3,
                                                      seed=seed)
        sel = sample_few_shot(train, range(train.n), 16, seed=seed)
        head, prompts = selection_prototypes(train, sel)
        table = leave_one_out_prototypes(prompts)
        comps = []
        for j in range(8):
            cfg = sample_hyperconfig(seed, j, dim=train.dim, epochs=50)
            params, _ = train_component(train, sel, head, cfg, table)
            comps.append(params)
        soup = Soup(components=comps)
        s_id = ratio_sweep(soup, head, id_test, GRID)
        s_ood = ratio_sweep(soup, head, ood_test, GRID)
        c_id = [ratio_sweep(c, head, id_test, GRID) for c in comps]
        c_ood = [ratio_sweep(c, head, ood_test, GRID) for c in comps]
        soup_id += [s_id[r] for r in GRID]
        comp_id += np.mean([[ci[r] for r in GRID] for ci in c_id], axis=0)
        best_r = GRID[int(np.argmax([s_id[r] for r in GRID]))]
        soup_ood_at_best += s_ood[best_r]
        comp_ood_at_best += float(np.mean(
            [c_ood[j][GRID[int(np.argmax([c_id[j][r] for r in GRID]))]]
             for j in range(8)]))
    n = len(seeds)
    soup_id /= n
    comp_id /= n
    soup_ood_at_best /= n
    comp_ood_at_best /= n
    for i, r in enumerate(GRID):
        assert soup_id[i] >= comp_id[i] - 0.005, \
            f"soup below mean component at r={r}: {soup_id[i]} vs {comp_id[i]}"
    assert soup_ood_at_best >= comp_ood_at_best - 0.005
    print(f"ACCEPTANCE 7 PASS: soup ID >= mean component - 0.5pp at every r "
          f"(margin at r=1: {(soup_id[-1] - comp_id[-1]) * 100:.2f}pp); "
          f"OOD at best-ID r {soup_ood_at_best:.4f} >= "
          f"{comp_ood_at_best:.4f} - 0.5pp, averaged over 5 seeds")


def test_criterion_8_hyperparameter_sampler_conformance():
    reds, lrs, wds, ss = [], [], [], []
    for j in range(10000):
        cfg = sample_hyperconfig(2024, j, dim=32, epochs=1)
        reds.append(cfg.red)
        lrs.append(cfg.lr)
        wds.append(cfg.weight_decay)
        ss.append(cfg.aug_strength)
    assert set(reds) == set(range(2, 11))
    assert set(lrs) == set(LR_GRID)
    assert set(wds) == set(WEIGHT_DECAY_GRID)
    assert set(ss) == set(AUG_STRENGTH_GRID)
    for values, grid in ((reds, range(2, 11)), (lrs, LR_GRID),
                         (wds, WEIGHT_DECAY_GRID), (ss, AUG_STRENGTH_GRID)):
        expected = 10000 / len(grid)
        for g in grid:
            count = sum(1 for v in values if v == g)
            assert abs(count - expected) <= 0.2 * expected, \
                f"bin {g}: {count} vs uniform {expected}"
    print("ACCEPTANCE 8 PASS: 10000 draws cover exactly the documented "
          "grids, every bin within 20% of uniform")


def test_criterion_9_format_fidelity(tmp_path):
    # container round-trip, byte-exact
    train, _, _ = generate_synthetic(5, 12, 8, 0.1, 0.2, seed=6)
    c1, c2 = tmp_path / "a.sadp", tmp_path / "b.sadp"
    write_container(train, c1)
    write_container(read_container(c1), c2)
    assert c1.read_bytes() == c2.read_bytes()
    # head round-trip, byte-exact
    head = ClassifierHead(weights=unit_rows(7, 5, 12), scale=2.5)
    h1, h2 = tmp_path / "a.shed", tmp_path / "b.shed"
    export_head(head, h1)
    export_head(import_head(h1), h2)
    assert h1.read_bytes() == h2.read_bytes()
    # checkpoint round-trip, byte-exact
    params = random_params(8, 12, 3)
    k1, k2 = tmp_path / "a.sada", tmp_path / "b.sada"
    meta = {"kind": "component", "hyper": {"red": 4, "lr": 1e-3}}
    save_checkpoint(k1, params, 4.6, meta)
    p, s, m = load_checkpoint(k1)
    save_checkpoint(k2, p, s, m)
    assert k1.read_bytes() == k2.read_bytes()
    # corrupted magic and corrupted length map to exit code 2
    bad_magic = tmp_path / "magic.sadp"
    bad_magic.write_bytes(b"EVIL" + c1.read_bytes()[4:])
    assert main(["info", "--embeddings", str(bad_magic)]) == 2
    truncated = tmp_path / "short.sadp"
    truncated.write_bytes(c1.read_bytes()[:-9])
    assert main(["info", "--embeddings", str(truncated)]) == 2
    assert main(["info", "--embeddings", str(c1)]) == 0
    print("ACCEPTANCE 9 PASS: container/head/checkpoint round-trips are "
          "byte-exact; corrupted magic/length exit with code 2")
