"""Embedding containers, manifests, few-shot sampling, synthetic benchmarks.

Container format (binary, little-endian):

    magic    4 bytes  b"SADP"
    version  u32      1
    D        u32      feature dimension
    N        u32      sample count
    V        u32      views per sample (view 0 is the clean view)
    C        u32      class count
    labels   N x u32
    features N x V x D float32, row-major (sample, then view, then dim)

Every view vector must be unit-norm within 1e-4 (32-bit storage slack);
features are re-normalized in 64-bit when read back for computation.
check_unit_norms is that rule for containers and head files, applied by
their writers and readers alike to numerics.row_norms. A manifest is a
UTF-8 JSON file beside the container with keys "dataset", "classes",
"splits" and "model".

ContainerReader is the one parser of the container format. Opening one
checks the header, the file length and the labels; its features are then
read a block of samples at a time, and each block's norms are checked as
it arrives. read_container gathers every sample, or the ones it is given,
from those blocks (numerics.chunk_rows) into the returned array.
ContainerWriter is the one writer of the format, its mirror: it writes
the header and the labels, then each norm-checked block of samples at
its own offset, in any order and from forked processes. write_container
is its one-block case, and write_synthetic deals the synthetic sets'
class blocks to forked workers through it.

Every other artifact is read by read_bytes and written by atomic_write.
AtomicFile, the one temp-file writer under both writers and soup's
merged adapter, replaces the artifact only on commit, so a reader never
sees a half-written file. A read's OSError becomes IoFailure in _reading
alone, a write's in _writing.
Both readers open through _open_file, which refuses anything but a
regular file before a read could block or run on without end.
json_object alone parses the JSON documents: manifest, checkpoint
trailer and report. Each reader's format error starts with the file's
path.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import stat
import struct
import threading
from dataclasses import dataclass, field

import numpy as np

from . import workers
from .errors import (BadMagic, CorruptLength, InsufficientShots, IoFailure,
                     NonFiniteValue, NormViolation, VersionUnsupported,
                     prefixed)
from .numerics import chunk_rows, normalize_rows, row_norms
from .rng import stream

CONTAINER_MAGIC = b"SADP"
CONTAINER_VERSION = 1
NORM_TOLERANCE = 1e-4

# Samples per block wherever a set is streamed: the container reader's
# blocks here (ContainerReader.read takes numerics.chunk_rows(V D) samples
# where that is fewer), the query blocks that heads and evalkit score and
# the probe blocks of soup.verify_equivalence. Each reads it when it runs,
# so eval reads and scores the same rows at once.
BLOCK_ROWS = 1024

_HEADER = struct.Struct("<4s5I")


@dataclass
class EmbeddingSet:
    """Unit-norm feature vectors with class labels and optional extra views.

    ``features`` is kept in float32 exactly as stored on disk so container
    round-trips are bit-exact; use :meth:`unit_features` for computation.
    """

    features: np.ndarray  # (N, V, D) float32
    labels: np.ndarray    # (N,) integer class indices
    n_classes: int

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=np.float32)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if self.features.ndim != 3:
            raise CorruptLength("features must have shape (N, V, D)")
        n, v, d = self.features.shape
        if min(n, v, d, self.n_classes) < 1:
            raise CorruptLength("N, V, D and C must all be positive")
        if self.labels.shape != (n,):
            raise CorruptLength("labels length must equal the sample count")
        if self.labels.min() < 0 or self.labels.max() >= self.n_classes:
            raise CorruptLength("labels must lie in [0, C)")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def views(self) -> int:
        return self.features.shape[1]

    @property
    def dim(self) -> int:
        return self.features.shape[2]

    def blocks(self, rows: int):
        """(start, features[start:start + rows]) over the set, the blocks
        ContainerReader.blocks reads from a file."""
        for start in range(0, self.n, rows):
            yield start, self.features[start:start + rows]

    def unit_features(self, view: int = 0, indices=None) -> np.ndarray:
        """Float64 features of one view, of the samples at ``indices`` or
        of all, re-normalized to exact unit norm by numerics.normalize_rows
        from the float32 rows, so beside the result only the float32
        rows at ``indices`` are gathered."""
        feats = self.features[:, view, :]
        if indices is not None:
            feats = feats[np.asarray(indices, dtype=np.int64)]
        return normalize_rows(feats)


@dataclass
class Manifest:
    """Names for a container: dataset, classes, splits, source model tag."""

    dataset: str
    classes: list[str]
    splits: dict[str, list[int]] = field(default_factory=dict)
    model: str = ""

    def validate_against(self, emb: EmbeddingSet):
        if len(self.classes) != emb.n_classes:
            raise CorruptLength(
                f"manifest lists {len(self.classes)} classes, "
                f"container has {emb.n_classes}")
        for name, idx in self.splits.items():
            if idx and (min(idx) < 0 or max(idx) >= emb.n):
                raise CorruptLength(f"split '{name}' has out-of-range indices")
            if len(set(idx)) != len(idx):
                raise CorruptLength(f"split '{name}' lists a sample more "
                                    f"than once")


@dataclass
class FewShotSelection:
    """Per-class sample indices chosen for training, n_shot per class."""

    n_shot: int
    seed: int
    indices: list[list[int]]  # per class, ascending

    def flat(self) -> list[int]:
        """The selected set indices in class-major order: the training
        rows, and the rows of heads.leave_one_out_prototypes over the
        classes' prompts."""
        return [idx for cls in self.indices for idx in cls]

    def compacted(self) -> "FewShotSelection":
        """This selection over a set holding only its samples, in flat()
        order, as ``read_container(path, flat())`` returns them; its own
        flat() is then 0, 1, 2, ..."""
        position = itertools.count()
        return FewShotSelection(self.n_shot, self.seed, [
            [next(position) for _ in cls] for cls in self.indices])


# ------------------------------------------------------------ file boundary

def check_unit_norms(rows: np.ndarray, where: str, first: int = 0):
    """Raise NormViolation unless every vector along the last axis has norm
    1 within NORM_TOLERANCE; ``where`` formats the first bad vector's index,
    counting rows[0] along the first axis as ``first`` (a block's offset in
    its set). The norms are numerics.row_norms', in float64."""
    rows = np.asarray(rows)
    norms = row_norms(rows).reshape(-1)
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= NORM_TOLERANCE))
    if bad.size:
        at, *rest = np.unravel_index(bad[0], rows.shape[:-1])
        raise NormViolation(f"{where.format(first + at, *rest)} has "
                            f"norm {norms[bad[0]]:.6f}, expected 1 "
                            f"within {NORM_TOLERANCE:g}")


@contextlib.contextmanager
def _reading(what: str):
    """An OSError of the block becomes IoFailure: cannot read ``what``."""
    try:
        yield
    except OSError as exc:
        raise IoFailure(f"cannot read {what}: {exc}") from exc


def _open_file(path, what: str):
    """The regular file at path, open for binary reads. Anything else (a
    FIFO, a device, a directory) is IoFailure: a read of a FIFO waits for
    a writer, and one of /dev/zero never ends. The open does not block,
    so a FIFO is refused before any writer comes."""
    with _reading(what):
        fd = os.open(path, os.O_RDONLY | getattr(os, "O_NONBLOCK", 0))
        try:
            if not stat.S_ISREG(os.fstat(fd).st_mode):
                raise IoFailure(f"cannot read {what}: {path} is not a "
                                f"regular file")
            return os.fdopen(fd, "rb")
        except BaseException:
            os.close(fd)
            raise


def read_bytes(path, what: str, size: int = -1) -> bytes:
    """The whole file at path, or its first ``size`` bytes."""
    with _open_file(path, what) as fh, _reading(what):
        return fh.read(size)


def sha256_hex(blob) -> str:
    """The sha256 of blob, in hex. hashlib loads OpenSSL (about 3.6 MB),
    so it is imported here, when a digest is taken, and only soup takes
    one."""
    import hashlib
    return hashlib.sha256(blob).hexdigest()


def json_object(blob: bytes, what: str) -> dict:
    """The JSON object that blob holds as UTF-8; all else is CorruptLength:
    bad UTF-8 or JSON, an integer past Python's digit limit (ValueErrors),
    nesting past the recursion limit, or a top level that is no object."""
    try:
        doc = json.loads(blob.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise CorruptLength(f"{what} is not UTF-8 JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CorruptLength(f"{what} is not a JSON object")
    return doc


@contextlib.contextmanager
def _writing(what: str, path):
    """An OSError of the block becomes IoFailure: cannot write what path."""
    try:
        yield
    except OSError as exc:
        raise IoFailure(f"cannot write {what} {path}: {exc}") from exc


class AtomicFile:
    """The file at path, filled at explicit offsets and put in place whole.

    Its temp file beside path is unique to this process and thread, with
    the usual umask mode and no fsync. ``write_at`` uses os.pwrite, so
    writes may come in any order, and from forked processes. ``commit``
    replaces path with it; closing without a commit removes it. Use it as
    a context manager. An OSError is IoFailure: cannot write what path.
    """

    def __init__(self, path, what: str):
        self.path, self.what = path, what
        self._tmp = f"{path}.{os.getpid()}-{threading.get_ident()}.tmp"
        with _writing(what, path):
            self._fd = os.open(self._tmp,
                               os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)

    def write_at(self, data, offset: int) -> int:
        """All of the C-contiguous bytes-like data, at ``offset``; the
        offset after it."""
        view = memoryview(data).cast("B")
        with _writing(self.what, self.path):
            while view:  # a pwrite may write less than it is given
                done = os.pwrite(self._fd, view, offset)
                view, offset = view[done:], offset + done
        return offset

    def commit(self):
        """Close the temp file and put it in place of path."""
        fd, self._fd = self._fd, None
        with _writing(self.what, self.path):
            os.close(fd)
            os.replace(self._tmp, self.path)

    def close(self):
        """Close the temp file, if open, and remove it unless committed."""
        if self._fd is not None:
            fd, self._fd = self._fd, None
            os.close(fd)
        with contextlib.suppress(OSError):  # already gone after a commit
            os.unlink(self._tmp)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def atomic_write(path, parts, what: str):
    """Replace the file at path with the bytes-like parts written in order,
    through an AtomicFile, or leave it as it was."""
    with AtomicFile(path, what) as out:
        offset = 0
        for part in parts:
            offset = out.write_at(part, offset)
        out.commit()


def unpack_header(blob: bytes, header: struct.Struct, magic: bytes,
                  version: int, what: str) -> list:
    """The fields after magic and version of a binary header, checked.

    Every integer field of the three formats' headers is a dimension and
    must be positive; every float field is a logit scale and must be finite.
    """
    if len(blob) < header.size:
        raise CorruptLength(f"{what} too short for header ({len(blob)} bytes)")
    found, found_version, *fields = header.unpack_from(blob)
    if found != magic:
        raise BadMagic(f"expected {magic!r}, found {found!r}")
    if found_version != version:
        raise VersionUnsupported(f"{what} version {found_version} "
                                 f"not supported")
    if any(isinstance(f, int) and f < 1 for f in fields):
        raise CorruptLength(f"{what} header dimensions must be positive")
    if any(isinstance(f, float) and not math.isfinite(f) for f in fields):
        raise NonFiniteValue(f"{what} header holds a non-finite scale")
    return fields


def json_bytes(doc) -> bytes:
    """Indented, key-sorted JSON with a final newline, as UTF-8."""
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


# ----------------------------------------------------------------- container

class ContainerWriter(AtomicFile):
    """A container file written a block of samples at a time, atomically.

    An AtomicFile that opens with the header and the labels (each in
    [0, n_classes)) written. ``write`` then checks a block's norms as
    ContainerReader.blocks checks them, and puts it at its own offset, so
    blocks may arrive in any order, and from forked processes. Commit
    once every block is in.
    """

    def __init__(self, path, labels, views: int, dim: int, n_classes: int):
        super().__init__(path, "container")
        self._shape = (len(labels), views, dim)
        self._first = _HEADER.size + 4 * len(labels)
        try:
            self.write_at(_HEADER.pack(CONTAINER_MAGIC, CONTAINER_VERSION,
                                       dim, len(labels), views, n_classes), 0)
            self.write_at(np.asarray(labels).astype("<u4", copy=False),
                          _HEADER.size)
        except BaseException:
            self.close()
            raise

    def write(self, start: int, block):
        """Samples start, start + 1, ... of the file: the (rows, V, D)
        block as float32, whose first vector that is not unit-norm raises
        NormViolation naming its sample (counted from start) and view."""
        n, v, d = self._shape
        block = np.ascontiguousarray(block, dtype="<f4")
        if block.shape[1:] != (v, d) or not 0 <= start <= n - len(block):
            raise ValueError(f"a block of shape {block.shape} at sample "
                             f"{start} does not fit {self._shape}")
        check_unit_norms(block, "sample {} view {}", start)
        self.write_at(block, self._first + 4 * start * v * d)


def write_container(emb: EmbeddingSet, path):
    """Write emb atomically, as ContainerWriter's one block; refuses
    (NormViolation) what read_container would refuse, so no unreadable
    container is ever written."""
    with ContainerWriter(path, emb.labels, emb.views, emb.dim,
                         emb.n_classes) as writer:
        writer.write(0, emb.features)
        writer.commit()


class ContainerReader:
    """An open container file whose features are read in blocks of samples.

    Opening reads and checks the header, the file length and the labels.
    ``blocks`` then reads the features in file order with os.preadv at
    explicit offsets, and checks each block's norms as it arrives: the
    first vector that is not unit-norm raises NormViolation naming its
    sample and view.
    Like an EmbeddingSet it has n, views, dim, n_classes, labels and
    blocks, so sampling and scoring take either. Use it as a context
    manager, or close it.
    """

    def __init__(self, path):
        self.path = path
        self._fh = _open_file(path, "container")
        try:
            with prefixed(path):
                self._read_head()
        except BaseException:
            self._fh.close()
            raise

    def _read_head(self):
        with _reading("container"):
            head = os.pread(self._fh.fileno(), _HEADER.size, 0)
            size = os.fstat(self._fh.fileno()).st_size
        d, n, v, c = unpack_header(head, _HEADER, CONTAINER_MAGIC,
                                   CONTAINER_VERSION, "container")
        expect = _HEADER.size + 4 * n + 4 * n * v * d
        if size != expect:
            raise CorruptLength(f"expected {expect} bytes, found {size}")
        labels = self._read_into(np.empty(n, dtype="<u4"), _HEADER.size)
        if labels.max(initial=0) >= c:
            raise CorruptLength("label value out of range for class count")
        self.n, self.views, self.dim, self.n_classes = n, v, d, c
        self.labels = labels.astype(np.int64)

    def _read_into(self, arr: np.ndarray, offset: int) -> np.ndarray:
        """Fill the C-contiguous arr with the file's arr.nbytes bytes from
        ``offset`` on, read at that offset: no file position is used, so
        passes in threads or forked processes do not move one another's."""
        view = memoryview(arr).cast("B")
        got = 0
        with _reading("container"):
            while got < len(view):
                step = os.preadv(self._fh.fileno(), [view[got:]],
                                 offset + got)
                if step == 0:
                    break
                got += step
        if got != arr.nbytes:  # the file shrank after its length was checked
            raise CorruptLength(f"container ended {arr.nbytes - got} "
                                f"bytes early")
        return arr

    def blocks(self, rows: int):
        """Yield (start, features of samples start, start + 1, ...) over
        the file, ``rows`` samples at a time, as norm-checked (rows, V, D)
        float32 blocks read into one buffer that the next block
        overwrites. Each block is read at its own offset, so passes over
        one reader may interleave, and may run in forked processes."""
        n, v, d = self.n, self.views, self.dim
        buf = np.empty((min(rows, n), v, d), dtype="<f4")
        first = _HEADER.size + 4 * n
        for start in range(0, n, rows):
            with prefixed(self.path):
                block = self._read_into(buf[:n - start],
                                        first + 4 * start * v * d)
                check_unit_norms(block, "sample {} view {}", start)
            yield start, block

    def read(self, indices=None) -> EmbeddingSet:
        """Every sample, or the samples at ``indices`` in that order,
        gathered in one pass that checks every sample's norm, kept or not,
        over blocks of min(BLOCK_ROWS, numerics.chunk_rows(V D)) samples."""
        idx = np.arange(self.n) if indices is None \
            else np.asarray(indices, dtype=np.int64).reshape(-1)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n):
            raise IndexError(f"sample indices must lie in [0, {self.n})")
        order = np.argsort(idx, kind="stable")
        wanted = idx[order]
        feats = np.empty((idx.size, self.views, self.dim), dtype="<f4")
        rows = min(BLOCK_ROWS, chunk_rows(self.views * self.dim))
        for start, block in self.blocks(rows):
            lo, hi = np.searchsorted(wanted, (start, start + len(block)))
            feats[order[lo:hi]] = block[wanted[lo:hi] - start]
        return EmbeddingSet(features=feats, labels=self.labels[idx],
                            n_classes=self.n_classes)

    def close(self):
        self._fh.close()

    def __enter__(self) -> "ContainerReader":
        return self

    def __exit__(self, *exc_info):
        self.close()


def read_container(path, indices=None) -> EmbeddingSet:
    """The container at path, or its samples at ``indices`` in that
    order; every sample's norm is checked either way."""
    with ContainerReader(path) as reader:
        return reader.read(indices)


# ------------------------------------------------------------------ manifest

def manifest_path_for(container_path) -> str:
    return str(container_path) + ".json"


def write_manifest(manifest: Manifest, path):
    atomic_write(path, (json_bytes({
        "dataset": manifest.dataset, "classes": manifest.classes,
        "splits": manifest.splits, "model": manifest.model}),), "manifest")


def _is_list_of(value, kind) -> bool:
    return isinstance(value, list) and all(
        isinstance(v, kind) and not isinstance(v, bool) for v in value)


def read_manifest(path) -> Manifest:
    blob = read_bytes(path, "manifest")
    with prefixed(path):
        doc = json_object(blob, "manifest")
        if not (isinstance(doc.get("dataset"), str)
                and _is_list_of(doc.get("classes"), str)
                and isinstance(doc.get("splits"), dict)
                and all(_is_list_of(i, int) for i in doc["splits"].values())
                and isinstance(doc.get("model", ""), str)):
            raise CorruptLength(
                "manifest needs a string 'dataset', a list of strings "
                "'classes', an object of index lists 'splits' and an "
                "optional string 'model'")
    return Manifest(dataset=doc["dataset"], classes=doc["classes"],
                    splits=doc["splits"], model=doc.get("model", ""))


# ------------------------------------------------------------------ sampling

def sample_few_shot(emb: EmbeddingSet, split, n_shot: int,
                    seed: int) -> FewShotSelection:
    """Pick n_shot samples per class from the split, without replacement.

    Each class draws from its own stream (seed, "fewshot", class), so the
    result is unaffected by how other classes' samples are stored. The
    chosen indices are returned in ascending order.
    """
    split = np.asarray(list(split), dtype=np.int64)
    labels = emb.labels[split]
    order = np.lexsort((split, labels))  # by class, then ascending index
    ordered = split[order]
    cuts = np.searchsorted(labels[order], np.arange(emb.n_classes + 1))
    selection: list[list[int]] = []
    for c in range(emb.n_classes):
        candidates = ordered[cuts[c]:cuts[c + 1]]
        if candidates.size < n_shot:
            raise InsufficientShots(c, candidates.size)
        perm = stream(seed, "fewshot", c).permutation(candidates.size)
        selection.append(np.sort(candidates[perm[:n_shot]]).tolist())
    return FewShotSelection(n_shot=n_shot, seed=seed, indices=selection)


# ----------------------------------------------------------------- synthetic

def _rotate_toward(mean: np.ndarray, rng, angle: float) -> np.ndarray:
    """Rotate a unit vector by exactly `angle` toward a seeded direction."""
    d = mean.shape[0]
    while True:
        g = rng.unit_vector(d)
        w = g - np.dot(g, mean) * mean
        norm = float(np.linalg.norm(w))
        if norm > 1e-6:
            break
    w /= norm
    return math.cos(angle) * mean + math.sin(angle) * w


SYNTH_SETS = ("train", "id", "ood")


def synthetic_classes(n_classes: int, dim: int, per_class: int,
                      shift_angle: float, noise: float, seed: int):
    """draw(name, c): class c's (per_class, dim) float64 block of the
    set ``name`` of SYNTH_SETS in the seeded spherical-mixture benchmark.

    Class means are uniform on the sphere, drawn here; the "ood" set
    rotates every class mean by shift_angle toward a seeded direction
    (labels unchanged), so shift_angle=0 makes the id and ood sets share
    the same distribution. A block is the unit-normalized mean + noise
    times standard normals: class c of a set takes its normals from the
    set's stream (seed, "synth.<name>") moved past the 2 ceil(per_class
    dim / 2) outputs each earlier class takes (none at noise 0), so a
    block does not depend on which other blocks were drawn, or where.
    """
    if dim < 2 or n_classes < 2:
        raise ValueError("need dim >= 2 and n_classes >= 2")
    mean_rng = stream(seed, "synth.means")
    means = np.stack([mean_rng.unit_vector(dim) for _ in range(n_classes)])
    shift_rng = stream(seed, "synth.shift")
    centers = {"train": means, "id": means, "ood": np.stack([
        _rotate_toward(mean, shift_rng, shift_angle) for mean in means])}
    values = per_class * dim

    def draw(name: str, c: int) -> np.ndarray:
        mean = centers[name][c]
        if noise == 0.0:
            return np.tile(mean, (per_class, 1))
        rng = stream(seed, f"synth.{name}")
        rng.advance(c * 2 * ((values + 1) // 2))
        with prefixed(f"synthetic {name} set, class {c}"):
            pts = rng.normal_array(values).reshape(per_class, dim)
            with np.errstate(over="ignore"):  # normalize_rows refuses it
                pts *= noise  # mean + noise * g, built in g's own array
            pts += mean
            return normalize_rows(pts, out=pts)
    return draw


def generate_synthetic(n_classes: int, dim: int, per_class: int,
                       shift_angle: float, noise: float, seed: int):
    """Seeded spherical-mixture benchmark: (train, id-test, ood-test).

    The in-memory form of synthetic_classes' blocks (see there): each set
    holds its classes' blocks in class order, as float32, and
    write_synthetic writes the same bytes.
    """
    draw = synthetic_classes(n_classes, dim, per_class, shift_angle, noise,
                             seed)

    def build(name: str) -> EmbeddingSet:
        feats = np.empty((n_classes * per_class, 1, dim), dtype=np.float32)
        for c in range(n_classes):  # one float64 class block at a time
            feats[c * per_class:(c + 1) * per_class, 0] = draw(name, c)
        labels = np.repeat(np.arange(n_classes, dtype=np.int64), per_class)
        return EmbeddingSet(features=feats, labels=labels,
                            n_classes=n_classes)

    return tuple(build(name) for name in SYNTH_SETS)


def write_synthetic(paths, n_classes: int, dim: int, per_class: int,
                    shift_angle: float, noise: float, seed: int):
    """Write generate_synthetic's three sets as containers at the three
    paths, one class block at a time, without holding a set.

    The 3 C (set, class) items, in generate_synthetic's order, are dealt
    to workers.deal's shares: min(3 C, usable cores) processes in a
    one-thread process (the CLI's), else one. Each share draws its items
    with synthetic_classes and writes each through its set's
    ContainerWriter at the block's own offset, so no byte depends on the
    split, and the error raised is the one workers' failure rule names.
    The paths are replaced only once every block of every set is in, and
    no temp file outlives the call.
    """
    draw = synthetic_classes(n_classes, dim, per_class, shift_angle, noise,
                             seed)
    labels = np.repeat(np.arange(n_classes, dtype="<u4"), per_class)
    with contextlib.ExitStack() as files:
        writers = [files.enter_context(ContainerWriter(
            path, labels, 1, dim, n_classes)) for path in paths]
        del labels

        def blocks(items):
            for item in items:
                s, c = divmod(item, n_classes)
                writers[s].write(c * per_class,
                                 draw(SYNTH_SETS[s], c)[:, np.newaxis])
                yield

        workers.deal(len(SYNTH_SETS) * n_classes, blocks)
        for writer in writers:
            writer.commit()
