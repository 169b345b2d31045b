"""The shared file boundary: mutated files and interrupted writes.

Every reader must either load a mutated binary file or JSON document or
raise a DataError subclass, whose message starts with the file's path;
every writer must leave the previous file intact when a write fails.
"""

import errno
import json
import math
import os
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from soupadapter import adapter, dataio, heads
from soupadapter.adapter import AdapterParams, load_checkpoint, save_checkpoint
from soupadapter.dataio import (EmbeddingSet, Manifest, read_container,
                                write_container, write_manifest)
from soupadapter.errors import (DataError, IoFailure, NormViolation,
                                NumericalError)
from soupadapter.evalkit import EvalReport, SweepRow, read_report, write_report
from soupadapter.heads import ClassifierHead, export_head, import_head
from soupadapter.rng import stream

# bounded and reproducible, so the suite's run time stays flat
FUZZ = settings(max_examples=60, deadline=None, derandomize=True,
                database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def unit_rows(seed, n, d):
    rows = stream(seed, "fileio").normal_array(n * d).reshape(n, d)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def small_set() -> EmbeddingSet:
    return EmbeddingSet(
        features=unit_rows(0, 6 * 2, 5).astype(np.float32).reshape(6, 2, 5),
        labels=np.array([0, 1, 2, 0, 1, 2]), n_classes=3)


def small_head() -> ClassifierHead:
    return ClassifierHead(weights=unit_rows(1, 3, 5), scale=1.5)


def small_params() -> AdapterParams:
    rng = stream(0, "fileio.params")
    return AdapterParams(W1=rng.normal_array(10).reshape(2, 5),
                         b1=rng.normal_array(2),
                         W2=rng.normal_array(10).reshape(5, 2),
                         b2=rng.normal_array(5))


# name: (header layout after magic and version, writer, reader)
FORMATS = {
    "sadp": ("<IIII", lambda p: write_container(small_set(), p),
             read_container),
    "shed": ("<IId", lambda p: export_head(small_head(), p), import_head),
    "sada": ("<IId", lambda p: save_checkpoint(p, small_params(), 1.5,
                                               {"kind": "test"}),
             load_checkpoint),
}


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """The bytes of one valid file per format."""
    out = tmp_path_factory.mktemp("valid")
    blobs = {}
    for name, (_, write, _) in FORMATS.items():
        write(out / f"x.{name}")
        blobs[name] = (out / f"x.{name}").read_bytes()
    return blobs


def load_or_data_error(tmp_path, name, blob):
    path = tmp_path / f"mutant.{name}"
    path.write_bytes(blob)
    try:
        FORMATS[name][2](path)
    except DataError:
        pass


@pytest.mark.parametrize("name", sorted(FORMATS))
@FUZZ
@given(data=st.data())
def test_truncated_files_load_or_raise_data_error(tmp_path, valid, name,
                                                  data):
    blob = valid[name]
    cut = data.draw(st.integers(0, len(blob) - 1))
    load_or_data_error(tmp_path, name, blob[:cut])


@pytest.mark.parametrize("name", sorted(FORMATS))
@FUZZ
@given(data=st.data())
def test_bit_flipped_files_load_or_raise_data_error(tmp_path, valid, name,
                                                    data):
    blob = bytearray(valid[name])
    for bit in data.draw(st.lists(st.integers(0, 8 * len(blob) - 1),
                                  min_size=1, max_size=8)):
        blob[bit // 8] ^= 1 << (bit % 8)
    load_or_data_error(tmp_path, name, bytes(blob))


_U32 = st.one_of(st.integers(0, 8), st.integers(0, 2**32 - 1))
_F64 = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf]),
                st.floats(allow_nan=True, allow_infinity=True))


@pytest.mark.parametrize("name", sorted(FORMATS))
@FUZZ
@given(data=st.data())
def test_fuzzed_headers_load_or_raise_data_error(tmp_path, valid, name,
                                                 data):
    layout = struct.Struct(FORMATS[name][0])
    blob = valid[name]
    # each field keeps its value or takes a fuzzed one, so later checks
    # are reached too
    fields = [data.draw(st.one_of(st.just(value),
                                  _U32 if code == "I" else _F64))
              for code, value in zip(layout.format[1:],
                                     layout.unpack_from(blob, 8))]
    load_or_data_error(tmp_path, name, blob[:8] + layout.pack(*fields)
                       + blob[8 + layout.size:])


# ------------------------------------------------------------ JSON documents

SLOT = "<a drawn value>"


def with_trailer(trailer: bytes) -> bytes:
    """A valid checkpoint's bytes with ``trailer`` as its JSON trailer."""
    blob = adapter.checkpoint_bytes(small_params(), 1.5, {})
    return blob[:-6] + struct.pack("<I", len(trailer)) + trailer


# name: (documents holding SLOT once, the first valid with SLOT = 2;
#        the file's bytes from a document's; its reader)
JSON_DOCS = {
    "manifest": (
        [{"dataset": "d", "classes": ["a", "b", "c"], "model": "m",
          "splits": {"train": [0, 1, SLOT]}},
         {"dataset": SLOT, "classes": ["a", "b", "c"], "splits": {}},
         {"dataset": "d", "classes": ["a", "b", "c"], "splits": {},
          "x": SLOT}],
        lambda doc: doc,
        lambda p: dataio.read_manifest(p).validate_against(small_set())),
    "trailer": (
        [{"kind": "t", "record": {"loss_trace": [0.5, SLOT]}},
         {"kind": SLOT}, {"hyper": {"red": SLOT, "lr": 0.1}}],
        with_trailer, load_checkpoint),
    "report": (
        [{"rows": [{"model": "soup", "split": "id", "r": 0.5,
                    "accuracy": SLOT}], "baselines": {"id": {"knn": 0.5}}},
         {"rows": [], "baselines": {"id": {"knn": SLOT}}},
         {"rows": [{"model": "soup", "split": "id", "r": SLOT,
                    "accuracy": 0.5}]}],
        lambda doc: doc, lambda p: read_report(p, "json")),
}


def json_text(name: str, at: int, value: str) -> bytes:
    """Document ``at`` of ``name`` with the raw JSON ``value`` in its
    slot, spliced as text so that no encoder limits its depth."""
    return json.dumps(JSON_DOCS[name][0][at]).replace(
        json.dumps(SLOT), value).encode("utf-8")


def load_json_or_data_error(tmp_path, name, doc):
    _, wrap, read = JSON_DOCS[name]
    path = tmp_path / f"mutant.{name}"
    path.write_bytes(wrap(doc))
    try:
        read(path)
    except DataError:
        pass


# nestings around the parser's depth limit and far past it, and integers
# either side of Python's 4300-digit limit on int conversion
_DEEP = st.builds(
    lambda depth, brackets: (brackets[0] * depth + brackets[1]
                             + brackets[2] * depth),
    st.one_of(st.integers(1, 1500), st.integers(1, 100_000)),
    st.sampled_from([("[", "", "]"), ('{"a":', "0", "}")]))
_LONG = st.builds(lambda sign, digits: sign + "7" * digits,
                  st.sampled_from(["", "-"]),
                  st.one_of(st.integers(1, 5000), st.integers(1, 10_000)))


@pytest.mark.parametrize("name", sorted(JSON_DOCS))
def test_json_documents_load_unmutated(tmp_path, name):
    _, wrap, read = JSON_DOCS[name]
    path = tmp_path / f"valid.{name}"
    path.write_bytes(wrap(json_text(name, 0, "2")))
    read(path)


@pytest.mark.parametrize("name", sorted(JSON_DOCS))
@FUZZ
@given(data=st.data())
def test_truncated_json_documents_load_or_raise_data_error(tmp_path, name,
                                                           data):
    doc = json_text(name, 0, "2")
    load_json_or_data_error(tmp_path, name,
                            doc[:data.draw(st.integers(0, len(doc) - 1))])


@pytest.mark.parametrize("name", sorted(JSON_DOCS))
@FUZZ
@given(data=st.data())
def test_bit_flipped_json_documents_load_or_raise_data_error(tmp_path, name,
                                                             data):
    doc = bytearray(json_text(name, 0, "2"))
    for bit in data.draw(st.lists(st.integers(0, 8 * len(doc) - 1),
                                  min_size=1, max_size=8)):
        doc[bit // 8] ^= 1 << (bit % 8)
    load_json_or_data_error(tmp_path, name, bytes(doc))


@pytest.mark.parametrize("name", sorted(JSON_DOCS))
@FUZZ
@given(at=st.integers(0, 2), value=st.one_of(_DEEP, _LONG))
def test_deep_or_long_json_values_load_or_raise_data_error(tmp_path, name,
                                                           at, value):
    load_json_or_data_error(tmp_path, name, json_text(name, at, value))


# ------------------------------------------------------------ error messages

@pytest.mark.parametrize("read", [
    read_container, import_head, load_checkpoint, dataio.read_manifest,
    lambda p: read_report(p, "json"), lambda p: read_report(p, "csv"),
], ids=["container", "head", "checkpoint", "manifest", "report-json",
        "report-csv"])
def test_format_errors_start_with_the_path(tmp_path, read):
    path = tmp_path / "malformed"
    path.write_bytes(b"\x00 is no file of any format, and far too short")
    with pytest.raises(DataError) as error:
        read(path)
    assert str(error.value).startswith(f"{path}: ")


@pytest.mark.parametrize("name", ["sadp", "shed"])
def test_nan_vector_is_a_norm_violation(tmp_path, valid, name):
    blob = bytearray(valid[name])
    blob[-4:] = struct.pack("<f", float("nan"))
    path = tmp_path / f"nan.{name}"
    path.write_bytes(bytes(blob))
    with pytest.raises(NormViolation):
        FORMATS[name][2](path)


# ------------------------------------------- writers refuse what readers do

def _f32_near(target):
    """float32 values within 4 ulps of target, as Python floats."""
    x = np.float32(target)
    return st.integers(-4, 4).map(lambda k: float(x + k * np.spacing(x)))


# row scales either side of the unit-norm tolerance, NaN rows and others
_ROW_SCALE = st.one_of(_f32_near(1 + 1e-4), _f32_near(1 - 1e-4),
                       st.just(1.0), st.just(math.nan),
                       st.floats(0.5, 1.5))
_F32_MAX = float(np.finfo(np.float32).max)
_F32_TIE = _F32_MAX + 2.0**103  # halfway to 2^128: the cast rounds to inf
# finite float64 weights around the float32 maximum, either sign
_WEIGHT = st.one_of(
    st.sampled_from([_F32_MAX, _F32_TIE, float(np.nextafter(_F32_TIE, 0.0)),
                     float(np.nextafter(_F32_TIE, math.inf)), 1e39]),
    st.floats(3.0e38, 3.5e38), st.floats(-3.5e38, -3.0e38),
    st.floats(-1e40, 1e40))


def _writer_agrees_with_reader(tmp_path, write, read, module, check,
                               unchecked):
    """write refuses exactly when read refuses the bytes the same write
    makes with ``module.check`` replaced by ``unchecked``; a refused write
    leaves no file."""
    checked, raw = tmp_path / "checked", tmp_path / "raw"
    checked.unlink(missing_ok=True)
    try:
        write(checked)
        wrote = True
    except (NormViolation, NumericalError):
        wrote = False
        assert not checked.exists()
    with pytest.MonkeyPatch.context() as patch, np.errstate(over="ignore"):
        patch.setattr(module, check, unchecked)
        write(raw)
    try:
        read(raw)
        readable = True
    except DataError:
        readable = False
    assert wrote == readable
    if wrote:
        assert checked.read_bytes() == raw.read_bytes()


@FUZZ
@given(at=st.integers(0, 11), scale=_ROW_SCALE)
def test_container_writer_refuses_what_the_reader_refuses(tmp_path, at,
                                                          scale):
    emb = small_set()
    emb.features.reshape(12, 5)[at] *= np.float32(scale)
    _writer_agrees_with_reader(tmp_path, lambda p: write_container(emb, p),
                               read_container, dataio, "check_unit_norms",
                               lambda rows, where, first=0: None)


@FUZZ
@given(at=st.integers(0, 2), scale=_ROW_SCALE)
def test_head_writer_refuses_what_the_reader_refuses(tmp_path, at, scale):
    head = small_head()
    head.weights[at] *= scale
    _writer_agrees_with_reader(tmp_path, lambda p: export_head(head, p),
                               import_head, heads, "check_unit_norms",
                               lambda rows, where: None)


@FUZZ
@given(name=st.sampled_from(["W1", "b1", "W2", "b2"]), at=st.integers(0, 9),
       value=_WEIGHT)
def test_checkpoint_writer_refuses_what_the_reader_refuses(tmp_path, name,
                                                           at, value):
    params = small_params()
    arr = params.as_dict()[name].reshape(-1)
    arr[at % arr.size] = value
    _writer_agrees_with_reader(
        tmp_path, lambda p: save_checkpoint(p, params, 1.5, {"kind": "t"}),
        load_checkpoint, adapter, "finite_in_float32", lambda arr: True)


_JSON_VALUE = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(),
              st.floats(allow_nan=False, allow_infinity=False), st.text()),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=12)


@FUZZ
@given(dims=st.tuples(st.integers(1, 6), st.integers(1, 4)), data=st.data(),
       scale=st.floats(allow_nan=False, allow_infinity=False),
       meta=st.dictionaries(st.text(), _JSON_VALUE, max_size=5))
def test_checkpoint_bytes_are_what_they_parse_back_to(dims, data, scale,
                                                      meta):
    # float32-exact weights round-trip through float64 unchanged, so a
    # parsed checkpoint serializes to its own bytes; soup writes a merged
    # adapter's bytes that way once they are verified
    d, h = dims
    f32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
    params = AdapterParams(*(
        np.array(data.draw(st.lists(f32, min_size=math.prod(shape),
                                    max_size=math.prod(shape))),
                 dtype=np.float32).reshape(shape)
        for shape in ((h, d), (h,), (d, h), (d,))))
    blob = adapter.checkpoint_bytes(params, scale, meta)
    assert adapter.checkpoint_bytes(*adapter.parse_checkpoint(blob)) == blob


@pytest.mark.parametrize("write,error,message", [
    # each wrote a file that its reader then refused
    (lambda p: export_head(ClassifierHead([[2.0, 0.0], [0.0, 1.0]]), p),
     NormViolation, "head row 0 has norm 2.000000, expected 1 within 0.0001"),
    (lambda p: export_head(ClassifierHead([[1.0, 0.0], [math.nan, 1.0]]), p),
     NormViolation, "head row 1 has norm nan"),
    (lambda p: save_checkpoint(p, AdapterParams(
        W1=[[1e39, 0.0]], b1=[0.0], W2=[[0.0], [0.0]], b2=[0.0, 0.0]),
        1.5, {}), NumericalError, "W1 are not finite in float32"),
])
def test_writers_refuse_before_any_file_exists(tmp_path, write, error,
                                               message):
    with pytest.raises(error, match=re.escape(message)):
        write(tmp_path / "out")  # RuntimeWarnings are errors in this suite
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------- writers

class _DiskFull:
    """A file that takes half of what is written, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def _disk_full_pwrite(pwrite):
    """os.pwrite as a full disk does it: half of what it is given, then
    an error (ContainerWriter writes at offsets, not through open)."""
    def write(fd, data, offset):
        pwrite(fd, data[:len(data) // 2], offset)
        raise OSError(errno.ENOSPC, "No space left on device")
    return write


WRITERS = {
    **{name: write for name, (_, write, _) in FORMATS.items()},
    "manifest": lambda p: write_manifest(Manifest("d", ["a"], {}), p),
    "report": lambda p: write_report(
        EvalReport(rows=[SweepRow("soup", "id", 0.0, 0.5)]), p, "json"),
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_failed_write_keeps_the_old_file_and_no_temp(tmp_path, monkeypatch,
                                                     name):
    path = tmp_path / f"artifact.{name}"
    path.write_bytes(b"previous contents")
    real_open = open
    monkeypatch.setattr(dataio, "open",
                        lambda p, mode: _DiskFull(real_open(p, mode)),
                        raising=False)
    monkeypatch.setattr(dataio.os, "pwrite", _disk_full_pwrite(os.pwrite))
    with pytest.raises(IoFailure, match="No space left"):
        WRITERS[name](path)
    assert path.read_bytes() == b"previous contents"
    assert list(tmp_path.iterdir()) == [path]


def test_write_into_missing_directory_is_io_failure(tmp_path):
    with pytest.raises(IoFailure):
        write_container(small_set(), tmp_path / "missing" / "x.sadp")
    assert list(tmp_path.iterdir()) == []
