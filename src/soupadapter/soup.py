"""Output-averaged adapter ensembles and their exact single-adapter form.

K independently trained adapters are combined by averaging their outputs:
a = (1/K) * sum_j A_j(x). Because each A_j is a two-layer MLP over the
same input, the ensemble is also exactly one adapter whose hidden layer is
the concatenation of the component hidden layers: stack the W1^j and b1^j
vertically, place the W2^j side by side scaled by 1/K, and average the
b2^j. The hidden width of the merged adapter is the sum of the component
widths, and its forward pass reproduces the ensemble output to floating-
point accuracy, which verify_equivalence checks on random probes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dataio
from .adapter import AdapterParams, adapter_forward, parse_checkpoint
from .dataio import read_bytes, sha256_hex
from .errors import (DimensionMismatch, EquivalenceViolation, ShapeMismatch,
                     prefixed)
from .numerics import row_spans
from .rng import stream


@dataclass
class Soup:
    """An ordered list of adapter components sharing one input dimension."""

    components: list[AdapterParams]

    def __post_init__(self):
        if not self.components:
            raise ShapeMismatch("a soup needs at least one component")
        d = self.components[0].dim
        for j, comp in enumerate(self.components):
            if comp.dim != d:
                raise DimensionMismatch(
                    f"component {j} has dim {comp.dim}, expected {d}")

    @property
    def k(self) -> int:
        return len(self.components)

    @property
    def dim(self) -> int:
        return self.components[0].dim


def soup_forward(soup: Soup, x: np.ndarray) -> np.ndarray:
    """Arithmetic mean of the component outputs, summed in component order."""
    total = adapter_forward(soup.components[0], x)
    for comp in soup.components[1:]:
        total += adapter_forward(comp, x)
    total /= soup.k
    return total


def reparameterize(soup: Soup) -> AdapterParams:
    """Merge the ensemble into one adapter by hidden-layer concatenation.

    W1 and b1 stack vertically; W2 concatenates horizontally with a 1/K
    factor; b2 is the mean of the component b2 (the only dimensionally
    consistent way to fold the K output biases into one). The merged
    hidden width is the sum of the component widths.
    """
    k = soup.k
    w1 = np.vstack([c.W1 for c in soup.components])
    b1 = np.concatenate([c.b1 for c in soup.components])
    w2 = np.hstack([c.W2 for c in soup.components])
    w2 /= k
    b2 = np.zeros(soup.dim)
    for c in soup.components:
        b2 += c.b2
    b2 /= k
    return AdapterParams(W1=w1, b1=b1, W2=w2, b2=b2)


def verify_equivalence(soup: Soup, trials: int, tolerance: float,
                       merged: AdapterParams | None = None,
                       seed: int = 0) -> float:
    """Compare ensemble and merged forward passes on seeded random probes.

    Returns the worst absolute deviation over `trials` random unit inputs;
    raises EquivalenceViolation, with the probe's index among all trials,
    if it exceeds the tolerance. The probes are the rows of
    Stream.unit_vectors blocks of dataio.BLOCK_ROWS, one block after
    another from the same stream. Each block is drawn and scored over its
    numerics.row_spans for the wider of the merged hidden layer and D, so
    memory is one span of probes plus about numerics.PRODUCT_VALUES
    values per forward pass, whatever `trials` or the merged width, and a
    probe is scored alone only where its block has one row. Passing a
    pre-built (for example, serialized and reloaded) merged adapter
    checks that artifact instead of a freshly merged one.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if merged is None:
        merged = reparameterize(soup)
    if merged.dim != soup.dim:
        raise DimensionMismatch("merged adapter dimension differs from soup")
    rng = stream(seed, "equiv")
    worst, worst_idx = -math.inf, 0  # as one argmax over every probe
    width = max(merged.hidden, soup.dim)
    for start in range(0, trials, dataio.BLOCK_ROWS):
        count = min(dataio.BLOCK_ROWS, trials - start)
        for lo, probes in rng.unit_vector_spans(count, soup.dim,
                                                row_spans(count, width)):
            deviation = np.abs(adapter_forward(merged, probes)
                               - soup_forward(soup, probes)).max(axis=1)
            i = int(np.argmax(deviation))
            if not (math.isnan(worst) or deviation[i] <= worst):
                worst, worst_idx = float(deviation[i]), start + lo + i
    if not worst <= tolerance:  # a NaN deviation fails too
        raise EquivalenceViolation(worst, worst_idx)
    return worst


def load_soup(paths, digests: bool = False
              ) -> tuple[Soup, list[float], list[str]]:
    """Read each checkpoint once, in the given order.

    Returns the soup, each component's logit scale and, if ``digests``,
    the sha256 of the bytes each component was parsed from (else an empty
    list). Order only affects float summation. A file that does not parse
    is named in the error.
    """
    components, scales, checksums = [], [], []
    for path in paths:
        blob = read_bytes(path, "checkpoint")
        with prefixed(path):
            params, scale, _ = parse_checkpoint(blob)
        if components and params.dim != components[0].dim:
            raise DimensionMismatch(
                f"{path}: dim {params.dim} does not match first component "
                f"dim {components[0].dim}")
        components.append(params)
        scales.append(scale)
        if digests:
            checksums.append(sha256_hex(blob))
    return Soup(components=components), scales, checksums
