import numpy as np
import pytest

from soupadapter.adapter import (AdapterParams, adapter_forward, blend,
                                 init_adapter, save_checkpoint)
from soupadapter.errors import DimensionMismatch, EquivalenceViolation
from soupadapter.rng import Stream, stream
from soupadapter.soup import (Soup, load_soup, reparameterize, soup_forward,
                              verify_equivalence)


def random_params(seed, d, h, scale=0.4):
    rng = stream(seed, "params")
    return AdapterParams(
        W1=rng.normal_array(h * d).reshape(h, d) * scale,
        b1=rng.normal_array(h) * 0.1,
        W2=rng.normal_array(d * h).reshape(d, h) * scale,
        b2=rng.normal_array(d) * 0.1)


def random_soup(seed, k, d):
    rng = Stream(seed)
    comps = [random_params(seed * 100 + j, d, 1 + rng.randbelow(max(1, d // 2)))
             for j in range(k)]
    return Soup(components=comps)


def unit_inputs(seed, n, d):
    rows = stream(seed, "x").normal_array(n * d).reshape(n, d)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


# ------------------------------------------------------------------- forward

def test_single_component_soup_equals_the_component():
    p = random_params(1, 8, 3)
    x = unit_inputs(2, 1, 8)[0]
    assert np.allclose(soup_forward(Soup([p]), x), adapter_forward(p, x),
                       atol=1e-15)


def test_opposite_components_cancel():
    p = random_params(3, 6, 2)
    neg = AdapterParams(W1=p.W1, b1=p.b1, W2=-p.W2, b2=-p.b2)
    x = unit_inputs(4, 1, 6)[0]
    assert np.array_equal(soup_forward(Soup([p, neg]), x), np.zeros(6))


def test_soup_forward_matches_mean_of_forwards_oracle():
    s = random_soup(5, 3, 8)
    x = unit_inputs(6, 1, 8)[0]
    oracle = sum(adapter_forward(c, x) for c in s.components) / 3
    assert np.max(np.abs(soup_forward(s, x) - oracle)) < 1e-12


def test_soup_forward_permutation_invariant():
    s = random_soup(7, 5, 10)
    xs = unit_inputs(8, 20, 10)
    shuffled = Soup(components=[s.components[i] for i in (3, 0, 4, 1, 2)])
    assert np.max(np.abs(soup_forward(s, xs) - soup_forward(shuffled, xs))) \
        < 1e-12


def test_residual_scaling_commutes_with_averaging():
    # r * mean(a_j) and mean(r * a_j) are the same operation
    s = random_soup(9, 4, 6)
    x = unit_inputs(10, 1, 6)[0]
    r = 0.7
    mean_then_scale = r * soup_forward(s, x)
    scale_then_mean = sum(r * adapter_forward(c, x) for c in s.components) / s.k
    assert np.max(np.abs(mean_then_scale - scale_then_mean)) < 1e-15
    f1 = blend(x, soup_forward(s, x), r)
    assert np.allclose(np.linalg.norm(f1), 1.0, atol=1e-12)


def test_mixed_dim_components_rejected():
    with pytest.raises(DimensionMismatch):
        Soup(components=[random_params(11, 6, 2), random_params(12, 8, 2)])


# ----------------------------------------------------------- reparameterize

def test_single_component_reparameterizes_to_itself():
    p = random_params(13, 7, 3)
    merged = reparameterize(Soup([p]))
    assert np.array_equal(merged.W1, p.W1)
    assert np.array_equal(merged.b1, p.b1)
    assert np.array_equal(merged.W2, p.W2)
    assert np.array_equal(merged.b2, p.b2)


def test_hidden_widths_add_up():
    s = Soup(components=[random_params(14, 8, 3), random_params(15, 8, 5)])
    assert reparameterize(s).hidden == 8


def test_merged_param_count_formula():
    s = random_soup(16, 4, 12)
    merged = reparameterize(s)
    d = s.dim
    want = sum(c.hidden * d + c.hidden + d * c.hidden for c in s.components) + d
    assert merged.param_count == want


def test_equivalence_on_random_soups():
    for seed, k, d in [(17, 8, 64), (18, 2, 16), (19, 4, 32)]:
        s = random_soup(seed, k, d)
        merged = reparameterize(s)
        xs = unit_inputs(seed + 50, 1000, d)
        dev = np.max(np.abs(adapter_forward(merged, xs) - soup_forward(s, xs)))
        assert dev <= 1e-10


def test_permuted_load_order_equivalent_outputs():
    s = random_soup(20, 6, 16)
    perm = Soup(components=[s.components[i] for i in (5, 2, 0, 3, 1, 4)])
    xs = unit_inputs(21, 200, 16)
    a = adapter_forward(reparameterize(s), xs)
    b = adapter_forward(reparameterize(perm), xs)
    assert np.max(np.abs(a - b)) <= 1e-10


# --------------------------------------------------------------------- verify

def test_verify_equivalence_returns_small_deviation():
    s = random_soup(22, 4, 24)
    dev = verify_equivalence(s, trials=200, tolerance=1e-10)
    assert 0 <= dev <= 1e-10


def test_verify_equivalence_detects_corruption():
    s = random_soup(23, 3, 12)
    merged = reparameterize(s)
    merged.W2[0, 0] += 0.05
    with pytest.raises(EquivalenceViolation) as info:
        verify_equivalence(s, trials=100, tolerance=1e-10, merged=merged)
    assert info.value.worst > 1e-10
    assert 0 <= info.value.input_index < 100


def test_verify_equivalence_after_32bit_round_trip(tmp_path):
    s = random_soup(24, 4, 32)
    paths = []
    for j, comp in enumerate(s.components):
        path = tmp_path / f"c{j}.sada"
        save_checkpoint(path, comp, 1.0, {})
        paths.append(path)
    loaded = load_soup(paths)[0]
    merged_path = tmp_path / "m.sada"
    save_checkpoint(merged_path, reparameterize(loaded), 1.0, {})
    merged = load_soup([merged_path])[0].components[0]
    dev = verify_equivalence(loaded, trials=500, tolerance=1e-4, merged=merged)
    assert dev <= 1e-4


def test_verify_equivalence_validates_trials():
    with pytest.raises(ValueError):
        verify_equivalence(random_soup(25, 2, 8), trials=0, tolerance=1e-4)


# ----------------------------------------------------------------- from files

def test_load_soup_loads_in_order(tmp_path):
    paths = []
    for j in range(8):
        p = init_adapter(16, 2 + j, seed=j)
        path = tmp_path / f"c{j}.sada"
        save_checkpoint(path, p, 1.0, {})
        paths.append(path)
    s = load_soup(paths)[0]
    assert s.k == 8
    assert [c.hidden for c in s.components] == [16 // (2 + j) for j in range(8)]


def test_load_soup_mixed_dims_name_the_file(tmp_path):
    a = tmp_path / "a.sada"
    b = tmp_path / "bad.sada"
    save_checkpoint(a, random_params(26, 8, 2), 1.0, {})
    save_checkpoint(b, random_params(27, 12, 2), 1.0, {})
    with pytest.raises(DimensionMismatch, match="bad.sada"):
        load_soup([a, b])
