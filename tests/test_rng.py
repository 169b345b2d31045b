import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from soupadapter import rng as rng_mod
from soupadapter.rng import (_PAIR_BLOCK, MASK64, Stream, below, derive_seed,
                             fnv1a64, mix64, stream, uniform)
from test_fileio import FUZZ


def test_scalar_and_vector_draws_agree():
    a = Stream(12345)
    b = Stream(12345)
    scalars = [a.next_u64() for _ in range(17)]
    vector = b.next_u64_array(17)
    assert scalars == [int(x) for x in vector]


def test_mixed_consumption_continues_the_same_sequence():
    a = Stream(7)
    b = Stream(7)
    got = [a.next_u64() for _ in range(3)] + [int(x) for x in a.next_u64_array(5)]
    want = [int(x) for x in b.next_u64_array(8)]
    assert got == want


def test_same_seed_same_sequence_different_seed_differs():
    assert [Stream(9).next_u64() for _ in range(4)] \
        == [Stream(9).next_u64() for _ in range(4)]
    assert Stream(9).next_u64() != Stream(10).next_u64()


def test_derive_seed_separates_tags_and_indices():
    seeds = {derive_seed(0, "a"), derive_seed(0, "b"),
             derive_seed(0, "a", 1), derive_seed(1, "a"),
             derive_seed(0, "ab"), derive_seed(0, "a", 2)}
    assert len(seeds) == 6
    assert derive_seed(42, "hyper", 3) == derive_seed(42, "hyper", 3)


def test_mix64_and_fnv_are_stable():
    # pinned so any cross-platform drift is caught immediately
    assert mix64(0) == 0
    assert mix64(1) == 6238072747940578789
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"fewshot") == fnv1a64(b"fewshot")
    assert fnv1a64(b"fewshot") != fnv1a64(b"hyper")


def test_random_unit_interval():
    rng = stream(3, "t")
    xs = rng.random_array(5000)
    assert xs.min() >= 0.0 and xs.max() < 1.0
    assert abs(xs.mean() - 0.5) < 0.02
    rng2 = stream(3, "t")
    assert [uniform(rng2.next_u64()) for _ in range(5)] == list(xs[:5])


def test_randbelow_bounds_and_coverage():
    rng = stream(0, "rb")
    draws = [rng.randbelow(7) for _ in range(2000)]
    assert set(draws) == set(range(7))
    counts = np.bincount(draws, minlength=7)
    assert counts.min() > 2000 / 7 * 0.7
    with pytest.raises(ValueError):
        rng.randbelow(0)


def test_permutation_is_a_permutation_and_deterministic():
    p1 = stream(5, "perm").permutation(40)
    p2 = stream(5, "perm").permutation(40)
    assert np.array_equal(p1, p2)
    assert sorted(p1.tolist()) == list(range(40))


def test_normal_moments():
    xs = stream(1, "gauss").normal_array(20000)
    assert abs(xs.mean()) < 0.03
    assert abs(xs.std() - 1.0) < 0.03
    # odd request length works too
    assert stream(1, "gauss").normal_array(7).shape == (7,)


def test_unit_vectors():
    vs = stream(2, "unit").unit_vectors(10, 6)
    assert np.allclose(np.linalg.norm(vs, axis=1), 1.0, atol=1e-12)


def test_unit_vectors_redraw_a_degenerate_row():
    class ZeroSecondRow(Stream):
        def normal_array(self, n):
            g = super().normal_array(n)
            if n > 3:  # the (4, 3) block, not the redraw
                g[3:6] = 0.0
            return g

    vs = ZeroSecondRow(5).unit_vectors(4, 3)
    assert np.allclose(np.linalg.norm(vs, axis=1), 1.0, atol=1e-12)
    plain = Stream(5).unit_vectors(4, 3)
    assert np.array_equal(vs[[0, 2, 3]], plain[[0, 2, 3]])


# ------------------------------------------- bulk draws against scalar code
# The references are the scalar implementations the bulk draws replaced:
# each must give the same values and leave the counter where they left it.

def scalar_randbelow(rng, n):
    mask = (1 << (n - 1).bit_length()) - 1 if n > 1 else 0
    while True:
        r = rng.next_u64() & mask
        if r < n:
            return r


def scalar_permutation(rng, n):
    a = list(range(n))
    for i in range(n - 1, 0, -1):
        j = scalar_randbelow(rng, i + 1)
        a[i], a[j] = a[j], a[i]
    return np.asarray(a, dtype=np.int64)


def whole_normal_array(rng, n):
    m = (n + 1) // 2
    u = rng.next_u64_array(2 * m)
    u1 = ((u[:m] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0 ** -53
    u2 = (u[m:] >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    rad = np.sqrt(-2.0 * np.log(u1))
    ang = 2.0 * math.pi * u2
    out = np.empty(2 * m, dtype=np.float64)
    out[0::2] = rad * np.cos(ang)
    out[1::2] = rad * np.sin(ang)
    return out[:n]


def scalar_view_picks(rng, n, v, aug_strength):
    picks = []
    for _ in range(n):
        pick = 0
        if (rng.next_u64() >> 11) * 2.0 ** -53 < 0.5 * aug_strength:
            pick = 1 + scalar_randbelow(rng, v - 1)
        picks.append(pick)
    return picks


def bulk_view_picks(rng, n, v, aug_strength):
    # the walk _augmented_epoch makes, picks only
    draw = rng.walk(2 * n).__next__
    return [1 + below(draw, v - 1) if uniform(draw()) < 0.5 * aug_strength
            else 0 for _ in range(n)]


_SEEDS = st.integers(0, MASK64)
_SIZES = st.one_of(st.sampled_from([0, 1, 2, 3]), st.integers(0, 2000))
_BULK = settings(max_examples=60, derandomize=True, deadline=None)


@_BULK
@given(_SEEDS, _SIZES)
def test_permutation_matches_scalar_fisher_yates(seed, n):
    bulk, scalar = Stream(seed), Stream(seed)
    assert np.array_equal(bulk.permutation(n), scalar_permutation(scalar, n))
    assert bulk._count == scalar._count


@_BULK
@given(_SEEDS, _SIZES)
def test_normal_array_matches_the_whole_array_pass(seed, n):
    bulk, whole = Stream(seed), Stream(seed)
    assert np.array_equal(bulk.normal_array(n), whole_normal_array(whole, n))
    assert bulk._count == whole._count


def test_normal_array_blocks_do_not_change_the_values():
    n = 2 * (2 * _PAIR_BLOCK) + 3  # two whole blocks and a short one
    bulk, whole = Stream(11), Stream(11)
    assert np.array_equal(bulk.normal_array(n), whole_normal_array(whole, n))
    assert bulk._count == whole._count


@_BULK
@given(_SEEDS, st.integers(0, 40), st.sampled_from([1, 2, 3, 7, 511, 1023]),
       st.integers(1, 25))
@example(seed=5, rows=40, d=1023, span_rows=9)  # 9207..18414 holds 2^14
def test_normal_spans_of_rows_tile_normal_array(seed, rows, d, span_rows):
    # rows lo .. hi of an (rows, d) draw are values lo d .. hi d: with d odd,
    # span ends fall inside pairs, and 40 rows of 1023 cross _PAIR_BLOCK
    n = rows * d
    spans = Stream(seed)
    tiles = [spans.normal_span(n, lo * d, min(lo + span_rows, rows) * d)
             for lo in range(0, rows, span_rows)]
    whole = Stream(seed).normal_array(n)
    assert np.array_equal(np.concatenate([np.empty(0), *tiles]), whole)
    assert spans._count == 0


_BLOCK_EDGES = [2 * _PAIR_BLOCK + e for e in (-3, -2, -1, 0, 1, 2)]


@_BULK
@given(_SEEDS, st.data())
def test_normal_span_is_that_slice_of_normal_array(seed, data):
    n = data.draw(st.one_of(_SIZES, st.integers(2 * _PAIR_BLOCK,
                                                 5 * _PAIR_BLOCK + 1)))
    ends = st.one_of(st.integers(0, n),
                     st.sampled_from([e for e in _BLOCK_EDGES if e <= n]
                                     or [0]))
    lo, hi = sorted((data.draw(ends), data.draw(ends)))
    drawn = Stream(seed)
    drawn.next_u64()  # the span starts at the counter, wherever it stands
    span = drawn.normal_span(n, lo, hi)
    assert drawn._count == 1
    whole = Stream(seed)
    whole.next_u64()
    assert np.array_equal(span, whole.normal_array(n)[lo:hi])


def test_normal_span_refuses_a_span_outside_the_draw():
    for lo, hi in ((-1, 2), (3, 2), (0, 6)):
        with pytest.raises(ValueError, match="span"):
            Stream(1).normal_span(5, lo, hi)


@_BULK
@given(_SEEDS, _SIZES, st.sampled_from([2, 3, 4]),
       st.sampled_from([0.0, 0.25, 0.5, 1.0]))
def test_view_picks_match_the_scalar_loop(seed, n, v, aug_strength):
    # v = 2 draws randbelow(1), whose mask is 0
    bulk, scalar = Stream(seed), Stream(seed)
    assert bulk_view_picks(bulk, n, v, aug_strength) \
        == scalar_view_picks(scalar, n, v, aug_strength)
    assert bulk._count == scalar._count


def test_walks_past_their_block_without_a_gap(monkeypatch):
    monkeypatch.setattr(rng_mod, "_WALK_BLOCK", 5)
    walked, scalar = Stream(4), Stream(4)
    draw = walked.walk(100).__next__
    assert [draw() for _ in range(12)] == [scalar.next_u64()
                                          for _ in range(12)]
    assert walked._count == scalar._count == 12
    for n, v in ((37, 4), (64, 3), (9, 2)):
        bulk, scalar = Stream(n), Stream(n)
        assert np.array_equal(bulk.permutation(n),
                              scalar_permutation(scalar, n))
        assert bulk_view_picks(bulk, n, v, 1.0) \
            == scalar_view_picks(scalar, n, v, 1.0)
        assert bulk._count == scalar._count


def test_an_untaken_walk_draws_nothing():
    s = Stream(8)
    s.walk(10)
    assert s._count == 0 and s.next_u64() == Stream(8).next_u64()


@FUZZ
@given(_SEEDS, st.integers(0, 40), st.integers(1, 7), st.data())
def test_unit_vector_spans_are_unit_vectors(seed, count, dim, data):
    # the raised thresholds (0.5, and sqrt(dim) near the norms' median)
    # make rows degenerate, so redraws, in row order after the block's
    # draw, are part of most cases
    threshold = data.draw(st.sampled_from([1e-12, 0.5, math.sqrt(dim)]))
    cuts = data.draw(st.lists(st.integers(1, max(1, count - 1)),
                              unique=True)) if count > 1 else []
    ends = sorted(set(cuts)) + [count]
    spans = list(zip([0, *ends[:-1]], ends))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rng_mod, "DEGENERATE_NORM", threshold)
        spanned, whole = Stream(seed), Stream(seed)
        tiles = list(spanned.unit_vector_spans(count, dim, spans))
        want = whole.unit_vectors(count, dim)
    assert [lo for lo, _ in tiles] == [lo for lo, _ in spans]
    assert np.array_equal(np.vstack([np.empty((0, dim)),
                                     *(rows for _, rows in tiles)]), want)
    assert spanned._count == whole._count


@_BULK
@given(_SEEDS, st.integers(0, 3 * _PAIR_BLOCK), st.integers(0, 2000))
def test_advance_is_k_next_u64_calls(seed, k, n):
    # the outputs and normals drawn after the move are the scalar walk's
    moved, walked = Stream(seed), Stream(seed)
    moved.advance(k)
    for _ in range(k):
        walked.next_u64()
    assert moved._count == walked._count == k
    assert moved.next_u64() == walked.next_u64()
    assert np.array_equal(moved.normal_array(n), walked.normal_array(n))
    assert moved._count == walked._count


def test_advance_past_a_normal_draw_lands_on_the_next_one():
    # advance(2 ceil(n / 2)) skips what normal_array(n) takes, odd n too
    for n in (5, 6):
        drawn, skipped = Stream(3), Stream(3)
        drawn.normal_array(n)
        skipped.advance(2 * ((n + 1) // 2))
        assert np.array_equal(drawn.normal_array(7), skipped.normal_array(7))


def test_advance_refuses_a_negative_count():
    with pytest.raises(ValueError):
        Stream(1).advance(-1)
