import math
import struct

import numpy as np
import pytest

from oracles import knn_votes_by_block, unit_rows
from soupadapter import heads, numerics
from soupadapter.errors import (BadMagic, DegenerateVector, EmptyBank,
                                EmptyClass, NormViolation, NumericalError)
from soupadapter.dataio import BLOCK_ROWS, generate_synthetic, sample_few_shot
from soupadapter.heads import (DEFAULT_SCALE, KNN_T_MIN, ClassifierHead,
                               KnnConfig, build_prototypes, export_head,
                               head_logits, import_head, knn_logits_batch,
                               leave_one_out_prototypes, selection_prototypes)
from soupadapter.numerics import normalize_rows
from soupadapter.rng import stream


# ---------------------------------------------------------------- prototypes

def test_single_prompt_rows_equal_the_prompts():
    prompts = [unit_rows(1, 1, 5), unit_rows(2, 1, 5)]
    head = build_prototypes(prompts)
    assert np.allclose(head.weights[0], prompts[0][0], atol=1e-12)
    assert np.allclose(head.weights[1], prompts[1][0], atol=1e-12)
    assert head.scale == DEFAULT_SCALE


def test_symmetric_prompts_average():
    head = build_prototypes([np.array([[1.0, 0.0], [0.0, 1.0]])])
    s = 1 / math.sqrt(2)
    assert np.allclose(head.weights[0], [s, s], atol=1e-15)


def test_cancelling_prompts_are_degenerate():
    with pytest.raises(DegenerateVector):
        build_prototypes([np.array([[1.0, 0.0], [-1.0, 0.0]])])


def test_empty_class():
    for builder in (build_prototypes, leave_one_out_prototypes):
        with pytest.raises(EmptyClass):
            builder([np.zeros((0, 4)), unit_rows(3, 2, 4)])


def test_prototype_order_within_class_is_stable():
    prompts = unit_rows(4, 6, 8)
    a = build_prototypes([prompts]).weights[0]
    b = build_prototypes([prompts[::-1]]).weights[0]
    assert np.max(np.abs(a - b)) < 1e-12


def test_all_constructor_rows_are_unit_norm():
    prompts = [unit_rows(5, 3, 7), unit_rows(6, 4, 7), unit_rows(7, 1, 7)]
    head = build_prototypes(prompts)
    assert np.allclose(np.linalg.norm(head.weights, axis=1), 1.0, atol=1e-10)


# -------------------------------------------------------------------- masked

def test_masking_one_of_two_identical_prompts_keeps_the_row():
    p = unit_rows(8, 1, 4)[0]
    head = build_prototypes([np.stack([p, p]), unit_rows(9, 2, 4)])
    table = leave_one_out_prototypes([np.stack([p, p]), unit_rows(9, 2, 4)])
    assert np.allclose(table[1], head.weights[0], atol=1e-15)


def test_masked_equals_leave_one_out_construction():
    prompts = [unit_rows(10, 4, 6), unit_rows(11, 5, 6), unit_rows(12, 3, 6)]
    table = leave_one_out_prototypes(prompts)
    assert table.shape == (12, 6) and table.dtype == np.float64
    starts = [0, 4, 9]  # each class's block follows the classes before it
    for c, j in [(0, 2), (1, 0), (2, 1)]:
        remaining = [p.copy() for p in prompts]
        remaining[c] = np.delete(remaining[c], j, axis=0)
        oracle = build_prototypes(remaining)
        assert np.array_equal(table[starts[c] + j], oracle.weights[c])


def test_masking_never_touches_other_classes():
    prompts = [unit_rows(13, 4, 6), unit_rows(14, 4, 6), unit_rows(15, 4, 6)]
    base = build_prototypes(prompts)
    table = leave_one_out_prototypes(prompts)
    changed = [p.copy() for p in prompts]
    changed[1] = unit_rows(99, 4, 6)
    moved = leave_one_out_prototypes(changed)
    assert np.array_equal(moved[:4], table[:4])  # class 0's block
    assert np.array_equal(moved[8:], table[8:])  # class 2's block
    assert not np.array_equal(table[4 + 3], base.weights[1])


def test_single_prompt_class_falls_back_with_warning():
    prompts = [unit_rows(16, 1, 4), unit_rows(17, 2, 4)]
    base = build_prototypes(prompts)
    with pytest.warns(RuntimeWarning):
        table = leave_one_out_prototypes(prompts)
    assert np.array_equal(table[:1], base.weights[:1])


def test_table_rows_follow_the_selection_flat_order():
    train = generate_synthetic(4, 8, 12, 0.0, 0.3, seed=5)[0]
    selection = sample_few_shot(train, range(train.n), 3, seed=5)
    _, prompts = selection_prototypes(train, selection)
    table = leave_one_out_prototypes(prompts)
    clean = train.unit_features(0)
    rows = selection.flat()
    assert table.shape == (len(rows), train.dim)
    # row i leaves sample rows[i] out of its own class's selected samples
    for row, sample in zip(table, rows):
        rest = [i for i in selection.indices[train.labels[sample]]
                if i != sample]
        oracle = build_prototypes([clean[rest]]).weights[0]
        assert np.max(np.abs(row - oracle)) <= 1e-12


# -------------------------------------------------------------------- logits

def test_logit_of_own_row_is_one_and_maximal():
    w = unit_rows(18, 4, 9)
    head = ClassifierHead(weights=w, scale=0.0)
    logits = head_logits(head, w[2])
    assert logits[2] == pytest.approx(1.0, abs=1e-12)
    assert np.argmax(logits) == 2


def test_scale_never_changes_the_argmax():
    w = unit_rows(19, 6, 9)
    f = unit_rows(20, 1, 9)[0]
    picks = {int(np.argmax(head_logits(ClassifierHead(w, scale=s), f)))
             for s in (-3.0, 0.0, 2.5, DEFAULT_SCALE, 10.0)}
    assert len(picks) == 1


def test_head_logits_matches_dot_product_oracle():
    w = unit_rows(21, 5, 7)
    f = unit_rows(22, 1, 7)[0]
    head = ClassifierHead(weights=w, scale=1.3)
    oracle = [math.exp(1.3) * sum(w[i][k] * f[k] for k in range(7))
              for i in range(5)]
    assert np.allclose(head_logits(head, f), oracle, atol=1e-12)


def test_head_logits_batched_rows():
    w = unit_rows(23, 3, 5)
    fs = unit_rows(24, 4, 5)
    head = ClassifierHead(weights=w)
    batch = head_logits(head, fs)
    assert batch.shape == (4, 3)
    for i in range(4):
        assert np.allclose(batch[i], head_logits(head, fs[i]), atol=1e-15)


# ----------------------------------------------------------------------- knn

def brute_force_knn(bank, labels, x, k, t, n_classes):
    sims = bank @ x
    ranked = sorted(range(len(bank)), key=lambda j: (-sims[j], j))[:k]
    logits = np.zeros(n_classes)
    for j in ranked:
        logits[labels[j]] += math.exp(sims[j] / t)
    return logits


def test_k1_votes_only_the_nearest_class():
    bank = unit_rows(25, 6, 4)
    labels = np.array([0, 1, 2, 0, 1, 2])
    x = unit_rows(26, 1, 4)[0]
    logits = knn_logits_batch(bank, labels, x[None], KnnConfig(k=1))[0]
    assert np.count_nonzero(logits) == 1
    nearest = int(np.argmax(bank @ x))
    assert logits[labels[nearest]] > 0


def test_three_point_bank_matches_exhaustive_oracle():
    bank = unit_rows(27, 3, 5)
    labels = np.array([1, 0, 1])
    x = unit_rows(28, 1, 5)[0]
    got = knn_logits_batch(bank, labels, x[None],
                           KnnConfig(k=3, temperature=0.1))[0]
    want = brute_force_knn(bank, labels, x, 3, 0.1, 2)
    assert np.allclose(got, want, atol=1e-12)


def test_duplicate_of_query_wins_with_exp_one_over_t():
    x = unit_rows(29, 1, 4)[0]
    bank = np.vstack([unit_rows(30, 3, 4), x])
    labels = np.array([0, 0, 0, 2])
    logits = knn_logits_batch(bank, labels, x[None],
                              KnnConfig(k=1, temperature=0.1))[0]
    assert logits[2] == pytest.approx(math.exp(1 / 0.1), rel=1e-12)
    assert logits[0] == 0.0


def test_knn_defaults_and_clamping():
    cfg = KnnConfig()
    assert cfg.k == 10 and cfg.temperature == 0.1
    bank = unit_rows(31, 4, 3)
    labels = np.array([0, 1, 1, 0])
    # k larger than the bank clamps to the bank size
    got = knn_logits_batch(bank, labels, unit_rows(32, 1, 3), cfg)[0]
    want = brute_force_knn(bank, labels, unit_rows(32, 1, 3)[0], 4, 0.1, 2)
    assert np.allclose(got, want, atol=1e-12)


def test_knn_tie_break_prefers_lower_index():
    v = unit_rows(33, 1, 4)[0]
    bank = np.vstack([v, v, v])
    labels = np.array([2, 0, 1])
    logits = knn_logits_batch(bank, labels, v[None],
                              KnnConfig(k=1, temperature=0.5))[0]
    assert np.argmax(logits) == 2


def test_empty_bank():
    with pytest.raises(EmptyBank):
        knn_logits_batch(np.zeros((0, 3)), np.zeros(0, int),
                         np.array([[1.0, 0, 0]]), KnnConfig())


def test_knn_matches_oracle_on_small_random_banks():
    rng = stream(34, "knn")
    for trial in range(10):
        size = 1 + rng.randbelow(20)
        bank = unit_rows(100 + trial, size, 6)
        labels = np.array([rng.randbelow(4) for _ in range(size)])
        x = unit_rows(200 + trial, 1, 6)[0]
        for k in range(1, size + 1):
            got = knn_logits_batch(bank, labels, x[None],
                                   KnnConfig(k=k, temperature=0.1),
                                   num_classes=4)[0]
            want = brute_force_knn(bank, labels, x, k, 0.1, 4)
            assert np.allclose(got, want, atol=1e-12)


def test_knn_batch_agrees_with_scalar():
    bank = unit_rows(35, 15, 5)
    labels = np.array([i % 3 for i in range(15)])
    xs = unit_rows(36, 4, 5)
    batch = knn_logits_batch(bank, labels, xs, KnnConfig(k=5), num_classes=3)
    for i in range(4):
        single = knn_logits_batch(bank, labels, xs[i:i + 1], KnnConfig(k=5),
                                  num_classes=3)[0]
        assert np.allclose(batch[i], single, atol=1e-15)


def scalar_loop_knn(bank, labels, xs, cfg, num_classes):
    """One stable argsort and one math.exp per neighbor, row by row."""
    sims = xs @ bank.T
    k = min(cfg.k, bank.shape[0])
    out = np.zeros((xs.shape[0], num_classes))
    for b in range(xs.shape[0]):
        for j in np.argsort(-sims[b], kind="stable")[:k]:
            out[b, labels[j]] += math.exp(sims[b, j] / cfg.temperature)
    return out


def duplicated_bank():
    """Each axis vector five times in scrambled order, then six generic rows.

    Dot products with an axis vector are exact, so copies tie bit for bit;
    labels cycle, so which copy is picked changes the vote.
    """
    axes = np.eye(6)[[int(i) % 6 for i in stream(38, "o").permutation(30)]]
    bank = np.vstack([axes, unit_rows(38, 6, 6)])
    labels = np.arange(36) % 4
    xs = np.vstack([unit_rows(40, 40, 6), np.eye(6)])
    return bank, labels, xs


@pytest.mark.parametrize("k", [1, 2, 3, 5, 7, 35, 36, 37])
def test_knn_batch_bit_equal_to_scalar_loop_on_duplicated_bank(k):
    bank, labels, xs = duplicated_bank()
    cfg = KnnConfig(k=k, temperature=0.1)
    want = scalar_loop_knn(bank, labels, xs, cfg, 4)
    assert np.array_equal(knn_logits_batch(bank, labels, xs, cfg, 4), want)
    for i in (0, 40, 43):
        assert np.array_equal(
            knn_logits_batch(bank, labels, xs[i:i + 1], cfg, 4),
            scalar_loop_knn(bank, labels, xs[i:i + 1], cfg, 4))


@pytest.mark.parametrize("sub_block_rows", [1, 3])
def test_knn_batch_selects_over_sub_blocks_bit_for_bit(monkeypatch,
                                                       sub_block_rows):
    bank, labels, xs = duplicated_bank()
    # neighbors selected over sub-blocks of this many query rows
    monkeypatch.setattr(numerics, "CHUNK_VALUES",
                        sub_block_rows * bank.shape[0])
    for k in (1, 3, 7, 36, 37):
        cfg = KnnConfig(k=k, temperature=0.1)
        assert np.array_equal(knn_logits_batch(bank, labels, xs, cfg, 4),
                              scalar_loop_knn(bank, labels, xs, cfg, 4))


def test_knn_batch_across_a_block_boundary():
    bank, labels, _ = duplicated_bank()
    xs = unit_rows(41, BLOCK_ROWS + 1, 6)
    cfg = KnnConfig(k=5, temperature=0.1)
    got = knn_logits_batch(bank, labels, xs, cfg, 4)
    want = scalar_loop_knn(bank, labels, xs, cfg, 4)
    # the one-row tail block may take BLAS's matrix-vector kernel, whose
    # dot products can round one ulp apart from the matrix product's
    assert np.allclose(got, want, rtol=1e-12, atol=0)
    assert np.array_equal(got[:BLOCK_ROWS], want[:BLOCK_ROWS])


SPAN = 40  # query rows of one span in the tests below


@pytest.mark.parametrize("rows", [SPAN + 1, 2 * SPAN + 1, BLOCK_ROWS + 1])
def test_knn_spans_keep_the_block_products_bits(monkeypatch, rows):
    # each count leaves a lone last row, in the block's last span or, at
    # BLOCK_ROWS + 1, as a block of its own: a one-row product takes
    # BLAS's matrix-vector kernel, whose dot products can round apart from
    # a matrix product's, so only the one-row block may score a row alone
    bank = unit_rows(47, 96, 64)
    labels = np.arange(96) % 8
    xs = unit_rows(48, rows, 64)
    cfg = KnnConfig(k=10, temperature=0.1)
    monkeypatch.setattr(numerics, "PRODUCT_VALUES", SPAN * bank.shape[0])
    assert np.array_equal(knn_logits_batch(bank, labels, xs, cfg, 8),
                          knn_votes_by_block(bank, labels, xs, cfg, 8))


def test_knn_memory_does_not_grow_with_the_bank(working_peak):
    xs = unit_rows(49, 256, 16)
    cfg = KnnConfig(k=10)
    extra = []  # beyond the bank and the returned logits
    for n in (2000, 16000):
        bank = unit_rows(50, n, 16)
        labels = np.arange(n) % 5
        extra.append(working_peak(lambda: knn_logits_batch(
            bank, labels, xs, cfg, 5)))
    assert extra[1] <= extra[0] + 64 * 1024, extra
    # one span of similarities and one selection chunk, with room to spare
    assert max(extra) < 8 * (numerics.PRODUCT_VALUES
                             + 4 * numerics.CHUNK_VALUES), extra


def test_knn_weight_overflow_is_a_numerical_error():
    x = unit_rows(42, 1, 4)[0]
    bank = np.vstack([unit_rows(43, 3, 4), x])
    labels = np.array([0, 1, 0, 1])
    at_one = 1.0 / math.log(np.finfo(np.float64).max)  # exp(1 / T) = max
    for t in (math.nextafter(at_one, 0.0), 1e-3, 1e-5):
        with pytest.raises(NumericalError, match="overflows at temperature"):
            knn_logits_batch(bank, labels, x[None],
                             KnnConfig(k=2, temperature=t))


def test_knn_scores_a_bank_row_at_the_smallest_temperature():
    bank = normalize_rows(stream(46, "rows").normal_array(400 * 64)
                          .reshape(400, 64))
    labels = np.arange(400) % 3
    # a row's similarity to itself as the one-query product computes it
    self_sims = [(bank[i:i + 1] @ bank.T)[0, i] for i in range(400)]
    i = int(np.argmax(self_sims))
    assert self_sims[i] > 1.0  # rounds above 1, which overflows at at_one
    at_one = 1.0 / math.log(np.finfo(np.float64).max)
    with pytest.raises(NumericalError):
        knn_logits_batch(bank, labels, bank[i:i + 1],
                         KnnConfig(k=1, temperature=at_one))
    got = knn_logits_batch(bank, labels, bank[i:i + 1],
                           KnnConfig(k=1, temperature=KNN_T_MIN))[0]
    assert np.isfinite(got).all() and int(np.argmax(got)) == labels[i]


def test_knn_batch_memory_does_not_grow_with_the_query_count(traced_peak):
    bank = unit_rows(44, 300, 16)
    labels = np.arange(300) % 5
    cfg = KnnConfig(k=10)
    extra = []  # peak beyond the returned (queries, classes) logits
    for blocks in (2, 8):
        xs = unit_rows(45, blocks * BLOCK_ROWS, 16)
        extra.append(traced_peak(lambda: knn_logits_batch(
            bank, labels, xs, cfg, 5)) - xs.shape[0] * 5 * 8)
    assert extra[1] <= extra[0] + 64 * 1024


# ----------------------------------------------------------------- head file

def test_export_import_round_trip(tmp_path):
    head = ClassifierHead(weights=unit_rows(37, 4, 6), scale=2.2)
    path = tmp_path / "h.shed"
    export_head(head, path)
    back = import_head(path)
    assert back.scale == 2.2
    assert np.max(np.abs(back.weights - head.weights)) < 1e-7
    assert np.allclose(np.linalg.norm(back.weights, axis=1), 1.0, atol=1e-12)


def test_import_zero_row_is_norm_violation(tmp_path):
    w = unit_rows(38, 3, 4)
    w[1] = 0.0
    path = tmp_path / "h.shed"
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4s3Id", b"SHED", 1, 3, 4, 0.0))
        fh.write(w.astype("<f4").tobytes())
    with pytest.raises(NormViolation, match="row 1"):
        import_head(path)


def test_import_bad_magic(tmp_path):
    path = tmp_path / "h.shed"
    path.write_bytes(b"XXXX" + b"\x00" * 40)
    with pytest.raises(BadMagic):
        import_head(path)


def test_imported_head_reproduces_upstream_logit_fixture(tmp_path):
    # fixture written by hand with struct, independent of export_head
    rows = [[0.6, 0.8, 0.0], [0.0, 0.0, 1.0]]
    scale = 1.5
    path = tmp_path / "upstream.shed"
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4s3Id", b"SHED", 1, 2, 3, scale))
        for row in rows:
            fh.write(struct.pack("<3f", *row))
    f = [3 / 5, 0.0, 4 / 5]
    expected = [math.exp(scale) * (0.6 * f[0] + 0.8 * f[1] + 0.0 * f[2]),
                math.exp(scale) * (0.0 * f[0] + 0.0 * f[1] + 1.0 * f[2])]
    head = import_head(path)
    got = head_logits(head, np.array(f))
    assert np.allclose(got, expected, atol=1e-4)
