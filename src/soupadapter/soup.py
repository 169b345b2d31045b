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

import hashlib
from dataclasses import dataclass

import numpy as np

from .adapter import AdapterParams, adapter_forward, parse_checkpoint
from .dataio import read_bytes
from .errors import (DataError, DimensionMismatch, EquivalenceViolation,
                     ShapeMismatch)
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
        total = total + adapter_forward(comp, x)
    return total / soup.k


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
    w2 = np.hstack([c.W2 for c in soup.components]) / k
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
    raises EquivalenceViolation if it exceeds the tolerance. Passing a
    pre-built (for example, serialized and reloaded) merged adapter checks
    that artifact instead of a freshly merged one.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if merged is None:
        merged = reparameterize(soup)
    if merged.dim != soup.dim:
        raise DimensionMismatch("merged adapter dimension differs from soup")
    rng = stream(seed, "equiv")
    probes = rng.unit_vectors(trials, soup.dim)
    deviation = np.abs(adapter_forward(merged, probes)
                       - soup_forward(soup, probes)).max(axis=1)
    worst_idx = int(np.argmax(deviation))
    worst = float(deviation[worst_idx])
    if worst > tolerance:
        raise EquivalenceViolation(worst, worst_idx)
    return worst


def load_soup(paths) -> tuple[Soup, list[float], list[str]]:
    """Read each checkpoint once, in the given order.

    Returns the soup, each component's logit scale and the sha256 of the
    bytes each component was parsed from. Order only affects float
    summation. A file that does not parse is named in the error.
    """
    components, scales, digests = [], [], []
    for path in paths:
        blob = read_bytes(path, "checkpoint")
        try:
            params, scale, _ = parse_checkpoint(blob)
        except DataError as exc:
            exc.args = (f"{path}: {exc}",)
            raise
        if components and params.dim != components[0].dim:
            raise DimensionMismatch(
                f"{path}: dim {params.dim} does not match first component "
                f"dim {components[0].dim}")
        components.append(params)
        scales.append(scale)
        digests.append(hashlib.sha256(blob).hexdigest())
    return Soup(components=components), scales, digests
