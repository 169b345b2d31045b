import os
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import sample_few_shot_loop, synthetic_features_in_sequence
from soupadapter import dataio, numerics, workers
from soupadapter.dataio import (ContainerReader, ContainerWriter, EmbeddingSet,
                                FewShotSelection, Manifest,
                                check_unit_norms, generate_synthetic,
                                manifest_path_for, read_container,
                                read_manifest, sample_few_shot,
                                write_container, write_manifest)
from soupadapter.errors import (BadMagic, CorruptLength, DataError,
                                InsufficientShots, IoFailure, NormViolation,
                                VersionUnsupported)
from soupadapter.heads import build_prototypes, head_logits
from soupadapter.rng import stream


def random_set(seed=0, n=12, v=1, d=6, c=3) -> EmbeddingSet:
    rng = stream(seed, "testset")
    feats = rng.normal_array(n * v * d).reshape(n * v, d)
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    labels = np.array([rng.randbelow(c) for _ in range(n)])
    return EmbeddingSet(features=feats.astype(np.float32).reshape(n, v, d),
                        labels=labels, n_classes=c)


# ----------------------------------------------------------------- container

def test_round_trip_is_bit_exact(tmp_path):
    emb = random_set(v=3, c=5, n=20)
    path = tmp_path / "x.sadp"
    write_container(emb, path)
    back = read_container(path)
    assert back.features.tobytes() == emb.features.tobytes()
    assert np.array_equal(back.labels, emb.labels)
    assert back.n_classes == emb.n_classes
    # writing what was read reproduces the file byte for byte
    path2 = tmp_path / "y.sadp"
    write_container(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_wrong_magic(tmp_path):
    emb = random_set()
    path = tmp_path / "x.sadp"
    write_container(emb, path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(BadMagic):
        read_container(path)


def test_unsupported_version(tmp_path):
    emb = random_set()
    path = tmp_path / "x.sadp"
    write_container(emb, path)
    blob = bytearray(path.read_bytes())
    blob[4:8] = struct.pack("<I", 9)
    path.write_bytes(bytes(blob))
    with pytest.raises(VersionUnsupported):
        read_container(path)


def test_truncated_and_padded_files(tmp_path):
    emb = random_set()
    path = tmp_path / "x.sadp"
    write_container(emb, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(CorruptLength):
        read_container(path)
    path.write_bytes(blob + b"\x00\x00")
    with pytest.raises(CorruptLength):
        read_container(path)
    path.write_bytes(blob[:10])
    with pytest.raises(CorruptLength):
        read_container(path)


def test_label_out_of_range(tmp_path):
    emb = random_set(c=3)
    path = tmp_path / "x.sadp"
    write_container(emb, path)
    blob = bytearray(path.read_bytes())
    blob[24:28] = struct.pack("<I", 7)  # first label, past C=3
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptLength):
        read_container(path)


def test_norm_violation_names_the_sample(tmp_path):
    emb = random_set(n=8)
    path = tmp_path / "x.sadp"
    write_container(emb, path)
    feats = emb.features.copy()
    feats[3, 0] *= 0.5
    body = feats.astype("<f4").tobytes()  # the features end the file
    path.write_bytes(path.read_bytes()[:-len(body)] + body)
    with pytest.raises(NormViolation, match="sample 3"):
        read_container(path)


@pytest.mark.parametrize("value", [np.nan, 0.5])
def test_write_refuses_what_read_refuses(tmp_path, value):
    emb = random_set(n=8)
    emb.features[5, 0] *= value  # NaN features or a short row
    with pytest.raises(NormViolation, match="sample 5"):
        write_container(emb, tmp_path / "x.sadp")
    assert list(tmp_path.iterdir()) == []


def _whole_array_norm_message(rows, where):
    """The unchunked check's message for the first bad vector, or None."""
    norms = np.linalg.norm(np.asarray(rows, dtype=np.float64), axis=-1)
    bad = np.argwhere(~(np.abs(norms - 1.0) <= dataio.NORM_TOLERANCE))
    if not bad.size:
        return None
    at = tuple(bad[0])
    return (f"{where.format(*at)} has norm {norms[at]:.6f}, expected 1 "
            f"within {dataio.NORM_TOLERANCE:g}")


@pytest.mark.parametrize("first_bad", [5, 6, 7, 11, 12])
def test_chunked_norm_check_names_the_first_bad_vector(monkeypatch,
                                                       first_bad):
    # 6 vectors of D = 4 per chunk: flat vectors 5 | 6 and 11 | 12 straddle
    # chunk boundaries
    monkeypatch.setattr(numerics, "CHUNK_VALUES", 24)
    feats = random_set(n=10, v=2, d=4).features
    flat = feats.reshape(-1, 4)
    flat[first_bad] *= 1.01
    flat[first_bad + 3] = np.nan  # a later bad vector is not the one named
    want = _whole_array_norm_message(feats, "sample {} view {}")
    with pytest.raises(NormViolation) as caught:
        check_unit_norms(feats, "sample {} view {}")
    assert str(caught.value) == want
    assert f"sample {first_bad // 2} view {first_bad % 2} " in want


def test_container_read_and_write_hold_the_file_and_a_few_chunks(
        tmp_path, traced_peak):
    emb = random_set(n=2048, v=2, d=64)  # 1 MiB of features, 4 chunks
    path = tmp_path / "x.sadp"
    chunk_bytes = 8 * numerics.CHUNK_VALUES
    assert traced_peak(lambda: write_container(emb, path)) \
        < 3 * chunk_bytes < emb.features.nbytes
    size = path.stat().st_size
    assert traced_peak(lambda: read_container(path)) < size + 3 * chunk_bytes


def _whole_file_read(path) -> EmbeddingSet:
    """The whole-file reader the streamed one replaced, kept as the
    reference for which files are refused and with which message: every
    format error starts with the file's path."""
    blob = dataio.read_bytes(path, "container")
    try:
        d, n, v, c = dataio.unpack_header(blob, dataio._HEADER,
                                          dataio.CONTAINER_MAGIC,
                                          dataio.CONTAINER_VERSION,
                                          "container")
        expect = dataio._HEADER.size + 4 * n + 4 * n * v * d
        if len(blob) != expect:
            raise CorruptLength(f"expected {expect} bytes, "
                                f"found {len(blob)}")
        off = dataio._HEADER.size
        labels = np.frombuffer(blob, dtype="<u4", count=n,
                               offset=off).astype(np.int64)
        feats = np.frombuffer(blob, dtype="<f4", count=n * v * d,
                              offset=off + 4 * n)
        if labels.max(initial=0) >= c:
            raise CorruptLength("label value out of range for class count")
        emb = EmbeddingSet(features=feats.reshape(n, v, d), labels=labels,
                           n_classes=c)
        check_unit_norms(emb.features, "sample {} view {}")
    except DataError as exc:
        raise type(exc)(f"{path}: {exc}") from None
    return emb


def _outcome(read):
    """(exception class, message) of read(), or its (features, labels)."""
    try:
        emb = read()
    except DataError as exc:
        return type(exc), str(exc)
    return emb.features.tobytes(), emb.labels.tolist()


_MUTATIONS = ["truncate", "pad", "count", "label", "first", "middle",
              "last", "boundary"]


@st.composite
def _container_case(draw, kind):
    """(container bytes, block rows, indices to gather): a valid
    container, or one with a mutation of the given kind: truncated,
    padded, a wrong sample count, an out-of-range label, or a bad vector
    in the first, a middle or the last block, or on both sides of a block
    boundary."""
    rows = draw(st.integers(1, 4))
    blocks = draw(st.integers({"middle": 3, "boundary": 2}.get(kind, 1), 5))
    n = draw(st.integers((blocks - 1) * rows + 1, blocks * rows))
    v, d, c = draw(st.integers(1, 3)), draw(st.integers(1, 4)), 3
    emb = random_set(seed=draw(st.integers(0, 3)), n=n, v=v, d=d, c=c)
    blob = (dataio._HEADER.pack(dataio.CONTAINER_MAGIC,
                                dataio.CONTAINER_VERSION, d, n, v, c)
            + emb.labels.astype("<u4").tobytes()
            + emb.features.astype("<f4").tobytes())
    out = bytearray(blob)
    if kind == "truncate":
        out = out[:draw(st.integers(0, len(blob) - 1))]
    elif kind == "pad":
        out += bytes(draw(st.integers(1, 9)))
    elif kind == "count":
        struct.pack_into("<I", out, 12, draw(st.integers(1, 2 * n + 1)
                                             .filter(lambda m: m != n)))
    elif kind == "label":
        struct.pack_into("<I", out, dataio._HEADER.size
                         + 4 * draw(st.integers(0, n - 1)),
                         draw(st.integers(c, 2**32 - 1)))
    elif kind != "valid":
        if kind == "boundary":
            edge = rows * draw(st.integers(1, blocks - 1))
            bad = [edge - 1, edge]
        else:
            block = {"first": 0, "last": blocks - 1}.get(kind)
            if block is None:
                block = draw(st.integers(1, blocks - 2))
            bad = [draw(st.integers(block * rows,
                                    min(n, (block + 1) * rows) - 1))]
        feats = emb.features.copy()
        for i in bad:
            feats[i, draw(st.integers(0, v - 1))] *= draw(
                st.sampled_from([0.5, 1.01, np.nan, np.inf, 0.0]))
        out[len(blob) - feats.nbytes:] = feats.astype("<f4").tobytes()
    indices = draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    return bytes(out), rows, indices


@pytest.mark.parametrize("kind", ["valid", *_MUTATIONS])
@settings(derandomize=True, database=None, max_examples=40,
          deadline=None)
@given(data=st.data())
def test_streamed_reader_refuses_what_the_whole_file_rule_refuses(
        tmp_path_factory, kind, data):
    blob, rows, indices = data.draw(_container_case(kind))
    path = tmp_path_factory.mktemp("case") / "x.sadp"
    path.write_bytes(blob)
    want = _outcome(lambda: _whole_file_read(path))
    assert isinstance(want[0], type) == (kind != "valid")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataio, "BLOCK_ROWS", rows)
        assert _outcome(lambda: read_container(path)) == want
        got = _outcome(lambda: read_container(path, indices))
    if kind != "valid":
        assert got == want  # rows not asked for are still checked
    elif indices:
        whole = _whole_file_read(path)
        assert got == (whole.features[indices].tobytes(),
                       whole.labels[indices].tolist())


def test_reader_blocks_share_one_buffer_and_name_the_set_row(tmp_path):
    emb = random_set(n=7, v=2, d=3)
    path = tmp_path / "x.sadp"
    write_container(emb, path)
    with ContainerReader(path) as reader:
        assert (reader.n, reader.views, reader.dim, reader.n_classes) \
            == (7, 2, 3, 3)
        seen = [(start, block.copy(), block.ctypes.data)
                for start, block in reader.blocks(3)]
    assert [start for start, _, _ in seen] == [0, 3, 6]
    assert len({address for _, _, address in seen}) == 1
    assert np.concatenate([b for _, b, _ in seen]).tobytes() \
        == emb.features.tobytes()
    feats = emb.features.copy()
    feats[5, 1] *= 2.0
    body = feats.astype("<f4").tobytes()
    path.write_bytes(path.read_bytes()[:-len(body)] + body)
    with ContainerReader(path) as reader, pytest.raises(
            NormViolation,
            match=f"^{re.escape(str(path))}: sample 5 view 1 has norm"):
        for _ in reader.blocks(3):
            pass


def test_interleaved_passes_over_one_reader_each_see_every_block(tmp_path):
    emb = random_set(n=9, v=2, d=3)
    path = tmp_path / "x.sadp"
    write_container(emb, path)
    with ContainerReader(path) as reader:
        first, second = reader.blocks(2), reader.blocks(2)
        seen = {id(first): [], id(second): []}
        for _ in range(5):
            for blocks in (first, second):
                start, block = next(blocks)
                seen[id(blocks)].append((start, block.tobytes()))
    expected = [(start, emb.features[start:start + 2].tobytes())
                for start in range(0, 9, 2)]
    assert seen[id(first)] == seen[id(second)] == expected


def test_a_forked_child_and_its_parent_read_one_reader_in_turn(tmp_path):
    # the two processes share the open file; each reads a block, then
    # hands the turn to the other, so every read falls between two of
    # the other's; a block (8.8 kB) outgrows a buffered file's buffer
    n = 12
    emb = random_set(n=n, v=2, d=1100)
    path = tmp_path / "x.sadp"
    write_container(emb, path)
    expected = [emb.features[i:i + 1].tobytes() for i in range(n)]
    to_child, to_parent = os.pipe(), os.pipe()
    with ContainerReader(path) as reader:
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                os.close(to_child[1])
                os.close(to_parent[0])
                blocks = reader.blocks(1)
                same = True
                for i in range(n):
                    os.read(to_child[0], 1)
                    start, block = next(blocks)
                    same &= (start, block.tobytes()) == (i, expected[i])
                    os.write(to_parent[1], b".")
                status = 0 if same else 3
            finally:
                os._exit(status)
        os.close(to_child[0])  # so a read sees the end if the other dies
        os.close(to_parent[1])
        try:
            blocks = reader.blocks(1)
            seen = []
            for i in range(n):
                start, block = next(blocks)
                seen.append((start, block.tobytes()))
                os.write(to_child[1], b".")
                assert os.read(to_parent[0], 1) == b"."
        finally:
            os.close(to_child[1])
            os.close(to_parent[0])
            _, status = os.waitpid(pid, 0)
    assert seen == list(enumerate(expected))
    assert os.waitstatus_to_exitcode(status) == 0


def test_container_writer_takes_blocks_in_any_order_from_forked_processes(
        tmp_path, forking):
    emb = random_set(n=9, v=2, d=5)
    write_container(emb, tmp_path / "whole.sadp")
    path = tmp_path / "blocks.sadp"
    with ContainerWriter(path, emb.labels, 2, 5, 3) as writer:
        def share(items):  # share 1 (a child) writes first, last block first
            for start in reversed(items):
                writer.write(2 * start, emb.features[2 * start:2 * start + 2])
        workers.deal(5, share)
        assert not path.exists()  # until the commit
        writer.commit()
    assert len(forking) == 1
    assert path.read_bytes() == (tmp_path / "whole.sadp").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocks.sadp",
                                                          "whole.sadp"]


def test_container_writer_names_a_bad_vector_by_its_place_in_the_set(
        tmp_path):
    emb = random_set(n=6, v=2, d=4)
    emb.features[4, 1] *= 2
    with pytest.raises(NormViolation, match="^sample 4 view 1 has norm 2"):
        with ContainerWriter(tmp_path / "x.sadp", emb.labels, 2, 4,
                             3) as writer:
            writer.write(0, emb.features[:3])
            writer.write(3, emb.features[3:])
    assert list(tmp_path.iterdir()) == []  # no temp file, no container


@pytest.mark.parametrize("start,rows,dim", [(-1, 2, 4), (5, 2, 4),
                                            (0, 2, 3)])
def test_container_writer_refuses_a_block_that_does_not_fit(tmp_path, start,
                                                            rows, dim):
    block = np.zeros((rows, 1, dim), dtype=np.float32)
    block[:, 0, 0] = 1.0
    with ContainerWriter(tmp_path / "x.sadp", np.zeros(6), 1, 4, 1) as writer:
        with pytest.raises(ValueError, match="does not fit"):
            writer.write(start, block)
    assert list(tmp_path.iterdir()) == []


def test_missing_file_is_io_failure(tmp_path):
    with pytest.raises(IoFailure):
        read_container(tmp_path / "absent.sadp")


def test_unit_features_are_renormalized():
    emb = random_set(v=2)
    feats = emb.unit_features(view=1)
    assert feats.dtype == np.float64
    assert np.allclose(np.linalg.norm(feats, axis=1), 1.0, atol=1e-12)


def test_embedding_set_validation():
    with pytest.raises(CorruptLength):
        EmbeddingSet(features=np.zeros((2, 1, 3), np.float32),
                     labels=np.array([0, 5]), n_classes=3)
    with pytest.raises(CorruptLength):
        EmbeddingSet(features=np.zeros((0, 1, 3), np.float32),
                     labels=np.zeros(0, int), n_classes=3)


# ------------------------------------------------------------------ manifest

def test_manifest_round_trip(tmp_path):
    manifest = Manifest(dataset="demo", classes=["a", "b", "c"],
                        splits={"train": [0, 1, 2], "shift:sketch": [3]},
                        model="vit-b32")
    path = tmp_path / "m.json"
    write_manifest(manifest, path)
    assert read_manifest(path) == manifest


def test_manifest_validate_against():
    emb = random_set(n=5, c=3)
    good = Manifest(dataset="d", classes=["x", "y", "z"],
                    splits={"train": [0, 4]})
    good.validate_against(emb)
    with pytest.raises(CorruptLength):
        Manifest(dataset="d", classes=["x"], splits={}).validate_against(emb)
    with pytest.raises(CorruptLength):
        Manifest(dataset="d", classes=["x", "y", "z"],
                 splits={"train": [5]}).validate_against(emb)
    with pytest.raises(CorruptLength, match="^split 'train' lists a sample "
                                            "more than once$"):
        Manifest(dataset="d", classes=["x", "y", "z"],
                 splits={"test": [0, 1], "train": [4, 0, 4]}) \
            .validate_against(emb)


def test_manifest_path_for():
    assert manifest_path_for("data/train.sadp") == "data/train.sadp.json"


# ------------------------------------------------------------------ few-shot

def labeled_set(labels, d=4, seed=1):
    labels = np.asarray(labels)
    rng = stream(seed, "labset")
    feats = rng.normal_array(labels.size * d).reshape(labels.size, d)
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    return EmbeddingSet(features=feats.astype(np.float32)[:, None, :],
                        labels=labels, n_classes=int(labels.max()) + 1)


def test_full_class_selection_is_the_sorted_class():
    emb = labeled_set([0, 1, 0, 1, 0, 1])
    sel = sample_few_shot(emb, range(6), 3, seed=9)
    assert sel.indices[0] == [0, 2, 4]
    assert sel.indices[1] == [1, 3, 5]


def test_selection_is_deterministic_and_seed_sensitive():
    emb = labeled_set([0] * 10 + [1] * 10)
    a = sample_few_shot(emb, range(20), 4, seed=5)
    b = sample_few_shot(emb, range(20), 4, seed=5)
    c = sample_few_shot(emb, range(20), 4, seed=6)
    assert a == b
    assert a.indices != c.indices
    for cls, chosen in enumerate(a.indices):
        assert len(chosen) == 4
        assert chosen == sorted(chosen)
        assert all(emb.labels[i] == cls for i in chosen)


def test_insufficient_shots():
    emb = labeled_set([0, 0, 0, 1, 1, 1, 1])
    with pytest.raises(InsufficientShots) as info:
        sample_few_shot(emb, range(7), 4, seed=0)
    assert info.value.class_index == 0
    assert info.value.available == 3


def test_selection_ignores_other_classes_storage_order():
    emb = labeled_set([0] * 6 + [1] * 6, seed=2)
    split_a = list(range(12))
    split_b = list(range(6)) + [11, 9, 7, 6, 10, 8]  # class 1 listed differently
    a = sample_few_shot(emb, split_a, 3, seed=4)
    b = sample_few_shot(emb, split_b, 3, seed=4)
    assert a.indices[0] == b.indices[0]
    assert a.indices[1] == b.indices[1]  # candidates are sorted before drawing


def test_selection_flat_order():
    emb = labeled_set([0, 0, 1, 1])
    sel = sample_few_shot(emb, range(4), 2, seed=0)
    assert sel.flat() == [0, 1, 2, 3]
    sel = FewShotSelection(n_shot=2, seed=0, indices=[[5, 9], [2, 7]])
    assert sel.flat() == [5, 9, 2, 7]  # class-major, not ascending
    assert sel.compacted().indices == [[0, 1], [2, 3]]


def _selection_outcome(sample):
    """The selection sample() returns, with its indices' types, or the
    class index and count of the InsufficientShots it raises."""
    try:
        sel = sample()
    except InsufficientShots as exc:
        return "short", exc.class_index, exc.available
    return sel, [[type(i) for i in cls] for cls in sel.indices]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(data=st.data())
def test_array_sampler_selects_what_the_per_sample_walk_selects(data):
    c = data.draw(st.integers(1, 6))
    labels = data.draw(st.lists(st.integers(0, c - 1), min_size=1,
                                max_size=60))
    n = len(labels)
    emb = EmbeddingSet(features=np.ones((n, 1, 1), np.float32),
                       labels=labels, n_classes=c)
    split = data.draw(st.lists(st.integers(0, n - 1), max_size=3 * n))
    if data.draw(st.booleans()):
        split = np.asarray(split, dtype=np.int64)
    n_shot = data.draw(st.integers(0, 5))
    seed = data.draw(st.integers(0, 2**32 - 1))
    want = _selection_outcome(
        lambda: sample_few_shot_loop(emb, split, n_shot, seed))
    assert _selection_outcome(
        lambda: sample_few_shot(emb, split, n_shot, seed)) == want


# ----------------------------------------------------------------- synthetic

def test_synthetic_deterministic():
    a = generate_synthetic(4, 8, 5, 0.2, 0.3, seed=21)
    b = generate_synthetic(4, 8, 5, 0.2, 0.3, seed=21)
    for x, y in zip(a, b):
        assert x.features.tobytes() == y.features.tobytes()
        assert np.array_equal(x.labels, y.labels)


@pytest.mark.parametrize("seed", [3, 7, 11])
@pytest.mark.parametrize("shape", [
    (10, 32, 20, 0.3, 0.3),   # small32's classes and dim
    (7, 3, 5, 0.3, 0.3),      # an odd per-class x dim: 15 normals a class
    (5, 8, 6, 0.3, 0.0),      # no noise: no draws
    (5, 8, 6, 0.0, 0.3),      # no shift
])
def test_synthetic_blocks_are_the_sets_drawn_in_sequence(shape, seed):
    # each class moves its set's stream past the classes before it
    sets = generate_synthetic(*shape, seed=seed)
    want = synthetic_features_in_sequence(*shape, seed=seed)
    for emb, features in zip(sets, want):
        assert emb.features[:, 0].tobytes() == features.tobytes()


def test_synthetic_zero_noise_samples_equal_class_mean():
    train, id_test, _ = generate_synthetic(3, 6, 4, 0.0, 0.0, seed=2)
    for c in range(3):
        rows = train.features[train.labels == c, 0, :]
        assert np.all(rows == rows[0])
    # id-test shares the class means with train when noise is zero
    assert np.array_equal(np.unique(train.features, axis=0),
                          np.unique(id_test.features, axis=0))


def test_synthetic_zero_shift_means_match():
    _, id_test, ood_test = generate_synthetic(3, 6, 4, 0.0, 0.0, seed=3)
    assert id_test.features.tobytes() == ood_test.features.tobytes()


def test_synthetic_shift_moves_means_by_the_requested_angle():
    _, id_test, ood_test = generate_synthetic(3, 6, 1, 0.4, 0.0, seed=4)
    for c in range(3):
        m = id_test.unit_features(0)[c]
        m2 = ood_test.unit_features(0)[c]
        assert np.dot(m, m2) == pytest.approx(np.cos(0.4), abs=1e-6)


def test_synthetic_prototype_accuracy_beats_chance():
    train, id_test, _ = generate_synthetic(10, 32, 30, 0.0, 0.3, seed=5)
    clean = train.unit_features(0)
    head = build_prototypes([clean[train.labels == c] for c in range(10)])
    logits = head_logits(head, id_test.unit_features(0))
    acc = float(np.mean(np.argmax(logits, axis=1) == id_test.labels))
    assert acc > 1.0 / 10.0


def test_synthetic_peaks_at_its_sets_and_one_class_block(traced_peak):
    classes, dim, per_class = 4, 64, 512
    class_block = per_class * dim * 8  # float64, as synthetic_classes draws
    sets = 3 * classes * per_class * dim * 4
    # the class block, its norm temporary and the means
    assert traced_peak(lambda: generate_synthetic(
        classes, dim, per_class, 0.3, 0.2, seed=1)) < sets + 3 * class_block


@pytest.mark.parametrize("classes", [2, 16])
def test_written_synthetic_sets_hold_one_class_block_at_a_time(
        tmp_path, working_peak, monkeypatch, classes):
    # in one process, whatever the class count: the float64 block drawn
    # and its float32 copy written, beside the class means (2 C D
    # doubles, 16 KiB at 16 classes) and the call's own Python objects
    monkeypatch.setattr(workers, "_one_thread", lambda: False)
    dim, per_class = 64, 2048
    block = per_class * dim * 8
    paths = [tmp_path / f"{name}.sadp" for name in "abc"]
    assert working_peak(lambda: dataio.write_synthetic(
        paths, classes, dim, per_class, 0.3, 0.2, seed=1)) \
        < block + block // 2 + 64 * 1024
    assert [read_container(path).n for path in paths] \
        == [classes * per_class] * 3


def test_synthetic_rejects_tiny_problems():
    with pytest.raises(ValueError):
        generate_synthetic(1, 8, 4, 0.0, 0.1, seed=0)
    with pytest.raises(ValueError):
        generate_synthetic(3, 1, 4, 0.0, 0.1, seed=0)
