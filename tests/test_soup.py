import hashlib

import numpy as np
import pytest

from oracles import worst_deviation_by_block
from soupadapter import numerics
from soupadapter.adapter import (AdapterParams, adapter_forward, blend,
                                 init_adapter, save_checkpoint)
from soupadapter.dataio import BLOCK_ROWS
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
    assert sum(a.size for a in merged.as_dict().values()) == want


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


def probe_deviations(soup, merged, sizes):
    """Per-probe deviations over blocks of the given sizes, drawn one after
    another from the stream verify_equivalence uses."""
    rng = stream(0, "equiv")
    blocks = [rng.unit_vectors(n, soup.dim) for n in sizes]
    probes = np.vstack(blocks)
    return np.abs(adapter_forward(merged, probes)
                  - soup_forward(soup, probes)).max(axis=1)


def test_verify_equivalence_up_to_one_block_keeps_its_probes():
    s = random_soup(26, 3, 16)
    merged = reparameterize(s)
    want = probe_deviations(s, merged, [1000]).max()
    assert verify_equivalence(s, 1000, 1e-4, merged=merged) == want


def test_verify_equivalence_refuses_a_nan_deviation():
    # finite float64 weights whose two outputs overflow to +inf and -inf:
    # their mean, and so the deviation, is NaN on every probe with a
    # positive coordinate sum
    comps = [AdapterParams(W1=np.full((1, 4), 1e200), b1=np.zeros(1),
                           W2=np.full((4, 1), sign * 1e200), b2=np.zeros(4))
             for sign in (1.0, -1.0)]
    probes = stream(0, "equiv").unit_vectors(100, 4)
    first = int(np.argmax(probes.sum(axis=1) > 0))
    with np.errstate(all="ignore"), \
            pytest.raises(EquivalenceViolation) as info:
        verify_equivalence(Soup(comps), trials=100, tolerance=1e-10)
    assert np.isnan(info.value.worst)
    assert info.value.input_index == first


def test_verify_equivalence_draws_its_probes_in_blocks(monkeypatch):
    s = random_soup(27, 3, 12)
    merged = reparameterize(s)
    merged.W2[0, 0] += 0.05
    deviation = probe_deviations(s, merged, [1024, 1024, 952])
    draws = []
    draw = Stream.unit_vector_spans

    def recording(self, count, dim, spans):
        draws.append((count, list(spans)))
        return draw(self, count, dim, spans)

    monkeypatch.setattr(Stream, "unit_vector_spans", recording)
    with pytest.raises(EquivalenceViolation) as info:
        verify_equivalence(s, trials=3000, tolerance=1e-10, merged=merged)
    # each block's spans tile it in order
    assert [count for count, _ in draws] == [1024, 1024, 952]
    for count, spans in draws:
        assert [lo for lo, _ in spans] == [0] + [hi for _, hi in spans[:-1]]
        assert spans[-1][1] == count
    assert info.value.worst == deviation.max()
    assert info.value.input_index == int(np.argmax(deviation)) >= 1024
    assert verify_equivalence(s, 3000, 1.0, merged=merged) == deviation.max()


def test_verify_equivalence_memory_does_not_grow_with_the_trials(
        traced_peak):
    s = random_soup(28, 3, 32)
    merged = reparameterize(s)
    peaks = []
    for blocks in (2, 8):
        peaks.append(traced_peak(lambda: verify_equivalence(
            s, blocks * 1024, 1e-4, merged=merged)))
    assert peaks[1] <= peaks[0] + 64 * 1024


SPAN = 40  # probes of one span in the test below


# each seed puts the worst probe on the lone last row that its trial count
# leaves in the block's last span; see
# test_heads.py::test_knn_spans_keep_the_block_products_bits
@pytest.mark.parametrize("trials, seed", [(SPAN + 1, 27), (2 * SPAN + 1, 5),
                                          (BLOCK_ROWS + 1, 0)])
def test_verify_spans_keep_the_block_products_bits(monkeypatch, trials,
                                                   seed):
    s = Soup([random_params(60 + j, 64, 32) for j in range(3)])
    exact = reparameterize(s)
    # rounded to float32, as soup verifies it, so the deviations are well
    # above the products' own rounding
    merged = AdapterParams(*(a.astype(np.float32) for a in (
        exact.W1, exact.b1, exact.W2, exact.b2)))
    monkeypatch.setattr(numerics, "PRODUCT_VALUES", SPAN * 96)  # 3 x 32
    worst, where = worst_deviation_by_block(s, merged, trials, seed)
    if trials < BLOCK_ROWS:
        assert where == trials - 1
    assert verify_equivalence(s, trials, 1.0, merged=merged,
                              seed=seed) == worst
    with pytest.raises(EquivalenceViolation) as info:
        verify_equivalence(s, trials, 0.0, merged=merged, seed=seed)
    assert (info.value.worst, info.value.input_index) == (worst, where)


def test_verify_equivalence_memory_does_not_grow_with_the_merged_width(
        working_peak):
    d = 256
    extra = []
    for k in (3, 12):
        s = Soup([random_params(90 + j, d, 128) for j in range(k)])
        merged = reparameterize(s)
        extra.append(working_peak(lambda: verify_equivalence(
            s, BLOCK_ROWS, 1e-4, merged=merged)))
    assert extra[1] <= extra[0] + 64 * 1024, extra
    # one block of probes and a few spans of forward passes
    assert max(extra) < 8 * (BLOCK_ROWS * d + 4 * numerics.PRODUCT_VALUES), \
        extra


def test_verify_equivalence_holds_one_span_of_probes(working_peak):
    # D = 1024 is wider than the merged hidden layer, so a span is 256 of
    # a block's 1024 probes; beside them verify holds a few forward spans
    d = 1024
    s = Soup([random_params(95 + j, d, 32) for j in range(3)])
    merged = reparameterize(s)
    span_rows = numerics.PRODUCT_VALUES // d
    extra = working_peak(lambda: verify_equivalence(
        s, 2 * BLOCK_ROWS, 1e-4, merged=merged))
    assert extra < 8 * (span_rows * d + 4 * numerics.PRODUCT_VALUES), extra


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


def test_load_soup_digests_only_when_asked(tmp_path):
    paths = []
    for j in range(2):
        path = tmp_path / f"c{j}.sada"
        save_checkpoint(path, random_params(30 + j, 8, 2), 1.0, {})
        paths.append(path)
    assert load_soup(paths)[2] == []
    assert load_soup(paths, digests=True)[2] == [
        hashlib.sha256(p.read_bytes()).hexdigest() for p in paths]
