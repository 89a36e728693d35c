"""Dense float64 matrix helpers and the seeded random stream.

All arithmetic is delegated to numpy. This module pins down the matrix
input check (shape, finiteness) and the single reproducible RNG used
everywhere else, so that datasets, initializations and training runs are
bit-identical given a seed.
"""

from __future__ import annotations

import math
import os

import numpy as np

SEED_BOUND = 2**64  # seeds are 64-bit unsigned integers

# the most 8-byte draws one array can hold: past it, numpy raises ValueError
# ("array is too big", "Maximum allowed dimension exceeded"), not MemoryError
MAX_DRAWS = np.iinfo(np.intp).max // 8


def _drawable(shape, in_memory: bool = False):
    """shape, checked to fit the largest array numpy can address; with
    in_memory, its 8-byte entries must also fit the machine's physical memory."""
    dims = tuple(map(int, shape if np.iterable(shape) else (shape,)))
    if math.prod(dims) > MAX_DRAWS:
        raise MemoryError(f"cannot allocate an array of shape {dims}: "
                          f"it exceeds the largest possible size")
    if in_memory:
        need, have = 8 * math.prod(dims), os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        if need > have:
            raise MemoryError(f"cannot allocate {need} bytes for draws of shape {dims}: "
                              f"it exceeds the machine's physical memory of {have} bytes")
    return shape


class Rng:
    """Deterministic random stream backed by numpy's PCG64.

    The same 64-bit seed yields the same draw sequence on every platform.
    One instance per thread; the state is advanced by every draw.
    """

    def __init__(self, seed: int):
        if not (0 <= int(seed) < SEED_BOUND):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self, lo: float, hi: float, shape) -> np.ndarray:
        if not lo < hi:
            raise ValueError(f"uniform bounds require lo < hi, got lo={lo}, hi={hi}")
        return self._gen.uniform(lo, hi, size=_drawable(shape))

    def normal(self, shape) -> np.ndarray:
        return self._gen.standard_normal(size=_drawable(shape))

    def integers(self, lo: int, hi: int):
        # one draw in [lo, hi)
        return self._gen.integers(lo, hi)

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

