import numpy as np
import pytest

from soupadapter.rng import Stream, derive_seed, fnv1a64, mix64, stream


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
    assert [rng2.random() for _ in range(5)] == list(xs[:5])


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
