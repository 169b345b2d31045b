"""Deterministic random streams.

Every random draw in the package comes from a counter-based 64-bit mixing
generator: output ``i`` of a stream with seed ``s`` is
``mix64(s + (i + 1) * GOLDEN)`` where ``mix64`` is the SplitMix64 finalizer.
Independent streams are derived from a base seed, a short purpose tag, and
an integer index via :func:`derive_seed`, so adding a consumer never shifts
the draws of an existing one. All arithmetic is mod 2**64, so the integer
outputs are identical on every platform. The float draws built from them
are not promised to be: ``normal_span`` takes numpy's ``log``, ``cos`` and
``sin``, whose last bit may depend on the CPU and the numpy build.

Bulk draws compute the outputs they need as one numpy block and walk it as
Python ints (``Stream.walk``), so a draw with a data-dependent number of
outputs, such as rejection sampling, still costs no Python-level mixing.
They advance the counter by exactly the outputs they use, so every stream
ends where the scalar draws (``next_u64``, ``randbelow``) would leave it.
The span draws (``normal_span``, ``unit_vector_spans``) read parts of
the next bulk draw at their place in it and leave the counter alone, so
processes that share a stream can each draw their own spans, in any
order, and together hold the one draw.
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import DEGENERATE_NORM, normalize_rows

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

_TWO_PI = 2.0 * math.pi
_INV_2_53 = 2.0 ** -53

_WALK_BLOCK = 1 << 12   # most outputs one Stream.walk refill computes
_PAIR_BLOCK = 1 << 13   # Box-Muller pairs normal_span makes at a time


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
    """mix64 on a uint64 array, in place; returns the array."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX_A)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX_B)
    z ^= z >> np.uint64(31)
    return z


def uniform(u: int) -> float:
    """The double in [0, 1) made of the top 53 bits of the output u."""
    return (u >> 11) * _INV_2_53


def below(draw, n: int) -> int:
    """Unbiased uniform integer in [0, n) from the 64-bit outputs of
    ``draw()``, by masked rejection: mask to the bit length of n - 1 and
    draw again while the result is n or more (n = 1 takes one draw)."""
    mask = (1 << (n - 1).bit_length()) - 1
    while True:
        r = draw() & mask
        if r < n:
            return r


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

    def _outputs(self, start: int, n: int) -> np.ndarray:
        """Outputs start + 1 .. start + n; the counter does not move."""
        z = np.arange(start + 1, start + n + 1, dtype=np.uint64)
        z *= np.uint64(GOLDEN)
        z += np.uint64(self._seed)
        return _mix64_np(z)

    def advance(self, k: int):
        """Move the counter past the next k outputs, as k next_u64 calls
        would, without computing them."""
        if k < 0:
            raise ValueError("advance needs k >= 0")
        self._count += k

    def next_u64_array(self, n: int) -> np.ndarray:
        out = self._outputs(self._count, n)
        self._count += n
        return out

    def walk(self, block: int):
        """The stream's next outputs as Python ints, for ``next()``.

        They are computed in numpy ``block`` at a time (at most
        _WALK_BLOCK), and each output taken advances the counter by one,
        so after k outputs the stream stands where k next_u64 calls would
        leave it. Draw nothing else from the stream while a walk is in
        use: its block was computed from the counter of its last refill.
        """
        block = max(1, min(block, _WALK_BLOCK))
        while True:
            for value in self._outputs(self._count, block).tolist():
                self._count += 1
                yield value

    # ------------------------------------------------------------- doubles

    def random_array(self, n: int) -> np.ndarray:
        return (self.next_u64_array(n) >> np.uint64(11)).astype(np.float64) * _INV_2_53

    # ------------------------------------------------------------- integers

    def randbelow(self, n: int) -> int:
        """Unbiased uniform integer in [0, n) via masked rejection."""
        if n <= 0:
            raise ValueError("randbelow needs n >= 1")
        return below(self.next_u64, n)

    def choice(self, seq):
        return seq[self.randbelow(len(seq))]

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n): for i = n-1 .. 1, swap
        a[i] with a[randbelow(i + 1)], the draws walked in bulk."""
        a = list(range(n))
        draw = self.walk(n + n // 2).__next__  # ~1.39 n outputs on average
        for i in range(n - 1, 0, -1):
            j = below(draw, i + 1)
            a[i], a[j] = a[j], a[i]
        return np.asarray(a, dtype=np.int64)

    # ------------------------------------------------------------- gaussians

    def normal_array(self, n: int) -> np.ndarray:
        """n standard normals; normal_span(n, 0, n), and the counter moves
        past the 2 ceil(n / 2) outputs they take."""
        out = self.normal_span(n, 0, n)
        self._count += 2 * ((n + 1) // 2)
        return out

    def normal_span(self, n: int, lo: int, hi: int) -> np.ndarray:
        """Values lo .. hi - 1 of the n standard normals that
        normal_array(n) would return next; the counter does not move.

        Trigonometric Box-Muller: of the 2m = 2 ceil(n / 2) outputs
        normal_array(n) takes, pair i takes its radius from output i and
        its angle from output m + i, and gives values 2i and 2i + 1. The
        pairs that cover the span are made _PAIR_BLOCK at a time in
        place, with the same operations as one whole-array pass, so the
        values depend neither on the blocking nor on the span.
        """
        if not 0 <= lo <= hi <= n:
            raise ValueError(f"span {lo}..{hi} is not within 0..{n}")
        m = (n + 1) // 2
        first, last = lo // 2, (hi + 1) // 2
        out = np.empty(2 * (last - first), dtype=np.float64)
        for p in range(first, last, _PAIR_BLOCK):
            q = min(p + _PAIR_BLOCK, last)
            # u1 in (0, 1] so log() is finite; u2 in [0, 1)
            rad = (self._outputs(self._count + p, q - p)
                   >> np.uint64(11)).astype(np.float64)
            rad += 1.0
            rad *= _INV_2_53
            np.log(rad, out=rad)
            rad *= -2.0
            np.sqrt(rad, out=rad)
            ang = (self._outputs(self._count + m + p, q - p)
                   >> np.uint64(11)).astype(np.float64)
            ang *= _INV_2_53
            ang *= _TWO_PI
            lo_out, hi_out = 2 * (p - first), 2 * (q - first)
            np.multiply(rad, np.cos(ang), out=out[lo_out:hi_out:2])
            np.multiply(rad, np.sin(ang, out=ang),
                        out=out[lo_out + 1:hi_out:2])
        return out[lo - 2 * first:hi - 2 * first]

    def unit_vector(self, dim: int) -> np.ndarray:
        """Uniform point on the unit sphere in R^dim."""
        while True:
            g = self.normal_array(dim)
            norm = float(np.linalg.norm(g))
            if norm >= DEGENERATE_NORM:
                return g / norm

    def unit_vectors(self, count: int, dim: int) -> np.ndarray:
        """``count`` uniform points on the unit sphere, as rows: one
        normal_array draw, each row divided by its norm in place by
        normalize_rows, which refuses a degenerate row (DegenerateVector).
        """
        g = self.normal_array(count * dim).reshape(count, dim)
        return normalize_rows(g, out=g)

    def unit_vector_spans(self, count: int, dim: int, spans):
        """(lo, rows lo .. hi - 1 of unit_vectors(count, dim)) for each
        (lo, hi) of ``spans``, in any order; the counter does not move.

        Each span takes its values with normal_span and divides them by
        their norms with normalize_rows, so a span's rows are bit for bit
        unit_vectors' and a degenerate row is refused, numbered among all
        ``count`` rows. Only one span of the rows is held at a time, and a
        process can draw the spans it needs and no others.
        """
        n = count * dim
        for lo, hi in spans:
            g = self.normal_span(n, lo * dim, hi * dim).reshape(hi - lo, dim)
            yield lo, normalize_rows(g, out=g, first_row=lo)


def stream(base_seed: int, tag: str, index: int = 0) -> Stream:
    """Convenience constructor for the stream (base_seed, tag, index)."""
    return Stream(derive_seed(base_seed, tag, index))
