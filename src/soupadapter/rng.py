"""Deterministic, platform-independent random streams.

Every random draw in the package comes from a counter-based 64-bit mixing
generator: output ``i`` of a stream with seed ``s`` is
``mix64(s + (i + 1) * GOLDEN)`` where ``mix64`` is the SplitMix64 finalizer.
Independent streams are derived from a base seed, a short purpose tag, and
an integer index via :func:`derive_seed`, so adding a consumer never shifts
the draws of an existing one. All arithmetic is mod 2**64, which behaves
identically on every platform.
"""

from __future__ import annotations

import math

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

_TWO_PI = 2.0 * math.pi
_INV_2_53 = 2.0 ** -53


def mix64(z: int) -> int:
    """SplitMix64 finalizer: a bijective avalanche mix on 64-bit integers."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & MASK64
    return z ^ (z >> 31)


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit hash, used to fold purpose tags into seeds."""
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & MASK64
    return h


def derive_seed(base_seed: int, tag: str, index: int = 0) -> int:
    """Seed for the stream (base_seed, tag, index).

    Computed as ``mix64(mix64(base_seed ^ fnv1a64(tag)) ^ index * GOLDEN)``
    so distinct tags and indices land in unrelated parts of the state space.
    """
    s = mix64((base_seed & MASK64) ^ fnv1a64(tag.encode("utf-8")))
    return mix64(s ^ ((index * GOLDEN) & MASK64))


def _mix64_np(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_A)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_B)
    return z ^ (z >> np.uint64(31))


class Stream:
    """One deterministic random stream.

    The state is just a counter; output ``i`` is ``mix64(seed + (i+1)*GOLDEN)``.
    Scalar and vectorized draws advance the same counter, so a fixed call
    sequence yields a fixed draw sequence regardless of batching.
    """

    def __init__(self, seed: int):
        self._seed = seed & MASK64
        self._count = 0

    def next_u64(self) -> int:
        self._count += 1
        return mix64((self._seed + self._count * GOLDEN) & MASK64)

    def next_u64_array(self, n: int) -> np.ndarray:
        idx = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        return _mix64_np(np.uint64(self._seed) + idx * np.uint64(GOLDEN))

    # ------------------------------------------------------------- doubles

    def random(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * _INV_2_53

    def random_array(self, n: int) -> np.ndarray:
        return (self.next_u64_array(n) >> np.uint64(11)).astype(np.float64) * _INV_2_53

    # ------------------------------------------------------------- integers

    def randbelow(self, n: int) -> int:
        """Unbiased uniform integer in [0, n) via masked rejection."""
        if n <= 0:
            raise ValueError("randbelow needs n >= 1")
        mask = (1 << (n - 1).bit_length()) - 1 if n > 1 else 0
        while True:
            r = self.next_u64() & mask
            if r < n:
                return r

    def choice(self, seq):
        return seq[self.randbelow(len(seq))]

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n)."""
        a = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self.randbelow(i + 1)
            a[i], a[j] = a[j], a[i]
        return np.asarray(a, dtype=np.int64)

    # ------------------------------------------------------------- gaussians

    def normal_array(self, n: int) -> np.ndarray:
        """Standard normals via the trigonometric Box-Muller transform."""
        m = (n + 1) // 2
        u = self.next_u64_array(2 * m)
        # u1 in (0, 1] so log() is finite; u2 in [0, 1)
        u1 = ((u[:m] >> np.uint64(11)).astype(np.float64) + 1.0) * _INV_2_53
        u2 = (u[m:] >> np.uint64(11)).astype(np.float64) * _INV_2_53
        rad = np.sqrt(-2.0 * np.log(u1))
        ang = _TWO_PI * u2
        out = np.empty(2 * m, dtype=np.float64)
        out[0::2] = rad * np.cos(ang)
        out[1::2] = rad * np.sin(ang)
        return out[:n]

    def unit_vector(self, dim: int) -> np.ndarray:
        """Uniform point on the unit sphere in R^dim."""
        while True:
            g = self.normal_array(dim)
            norm = float(np.linalg.norm(g))
            if norm > 1e-12:
                return g / norm

    def unit_vectors(self, count: int, dim: int) -> np.ndarray:
        """``count`` uniform points on the unit sphere, as rows.

        All rows come from one normal_array draw; a row whose norm is
        degenerate is redrawn with unit_vector after the block.
        """
        g = self.normal_array(count * dim).reshape(count, dim)
        norms = np.linalg.norm(g, axis=1)
        for i in np.flatnonzero(norms <= 1e-12):
            g[i], norms[i] = self.unit_vector(dim), 1.0
        return g / norms[:, np.newaxis]


def stream(base_seed: int, tag: str, index: int = 0) -> Stream:
    """Convenience constructor for the stream (base_seed, tag, index)."""
    return Stream(derive_seed(base_seed, tag, index))
