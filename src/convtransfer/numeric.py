"""Dense float64 matrix helpers and the seeded random stream.

All arithmetic is delegated to numpy. This module pins down the matrix
input check (shape, finiteness) and the single reproducible RNG used
everywhere else, so that datasets, initializations and training runs are
bit-identical given a seed.
"""

from __future__ import annotations

import math

import numpy as np


# the most 8-byte draws one array can hold: past it, numpy raises ValueError
# ("array is too big", "Maximum allowed dimension exceeded"), not MemoryError
MAX_DRAWS = np.iinfo(np.intp).max // 8


def _drawable(shape):
    """shape, checked to fit the largest array numpy can address."""
    dims = tuple(map(int, shape if np.iterable(shape) else (shape,)))
    if math.prod(dims) > MAX_DRAWS:
        raise MemoryError(f"cannot allocate an array of shape {dims}: "
                          f"it exceeds the largest possible size")
    return shape


class Rng:
    """Deterministic random stream backed by numpy's PCG64.

    The same 64-bit seed yields the same draw sequence on every platform.
    One instance per thread; the state is advanced by every draw.
    """

    def __init__(self, seed: int):
        if not (0 <= int(seed) < 2**64):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self, lo: float, hi: float, shape) -> np.ndarray:
        if not lo < hi:
            raise ValueError(f"uniform bounds require lo < hi, got lo={lo}, hi={hi}")
        return self._gen.uniform(lo, hi, size=_drawable(shape))

    def normal(self, shape) -> np.ndarray:
        return self._gen.standard_normal(size=_drawable(shape))

    def integers(self, lo: int, hi: int, shape=None):
        # draws in [lo, hi)
        return self._gen.integers(lo, hi, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    """Validate and return a 2-D float64 array with finite entries."""
    m = np.asarray(x, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"{name} must have positive dimensions, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m

