"""Single-stage convolutional encoder: conv + ReLU + max-over-positions pooling.

Each encoder maps a d x L instance matrix (columns are instance feature
vectors) to a fixed-size vector of length m, one entry per filter. The
forward pass keeps its pre-activations and padded inputs (a trace). The
backward pass derives the pooling argmax from them and backpropagates the
sub-gradient exactly through it and the ReLU kink; a forward-only caller
never computes the argmax.

The kernels run on a batch of n points at once: the ragged matrices are
right-padded with zero columns to one width (pad_columns), and positions
past a point's own last window are masked. conv_forward and conv_backward
are the single-point case.

Conventions, fixed for determinism:
  - pooling ties break toward the lowest position index,
  - the ReLU sub-gradient at exactly 0 is 0,
  - inputs narrower than the filter window are right-padded with zero columns,
  - the filter and bias gradients of a batch are summed point after point,
    in batch order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numeric import as_matrix


@dataclass
class ConvBlock:
    """Filter bank (m, d, w) and per-filter bias (m,)."""

    filters: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        self.filters = np.asarray(self.filters, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.filters.ndim != 3:
            raise ValueError(f"filters must be 3-D (m, d, w), got shape {self.filters.shape}")
        m, d, w = self.filters.shape
        if m < 1 or d < 1 or w < 1:
            raise ValueError(f"filter bank dimensions must be positive, got {self.filters.shape}")
        if self.bias.shape != (m,):
            raise ValueError(f"bias must have shape ({m},), got {self.bias.shape}")

    @property
    def m(self) -> int:
        return self.filters.shape[0]

    @property
    def d(self) -> int:
        return self.filters.shape[1]

    @property
    def w(self) -> int:
        return self.filters.shape[2]


@dataclass
class BatchTrace:
    """State captured by conv_forward_batch, consumed by conv_backward_batch;
    conv_forward's trace is the one of a one-point batch.

    Points run along the last axis, as in pad_columns."""

    pre: np.ndarray      # (m, P, n) pre-activations; -inf past each point's last window
    x_padded: np.ndarray  # (d, P + w - 1, n) zero-padded inputs
    output: np.ndarray   # (n, m) pooled ReLU activations, one row per point

    @property
    def argmax(self) -> np.ndarray:
        """(m, n) pooled position per filter and point, computed from pre on
        each read: the first maximum of the ReLU activations. A masked position
        (activation 0) never comes before a valid one, so it never wins."""
        return np.maximum(self.pre, 0.0).argmax(axis=1)


def pad_columns(xs: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Stack n matrices of d x L_i into one (d, max L_i, n) array, point i in
    [:, :, i] and right-padded with zero columns; returns it with the L_i.

    Points run along the last axis so that one window offset of every point
    is one contiguous (P, n) slab."""
    n = len(xs)
    lengths = np.fromiter((x.shape[1] for x in xs), dtype=np.intp, count=n)
    cols = np.concatenate(xs, axis=1)
    # column k of cols is column k - starts[i] of the point i it came from
    pages = np.repeat(np.arange(n), lengths)
    starts = np.cumsum(lengths) - lengths
    out = np.zeros((cols.shape[0], int(lengths.max()), n))
    out[:, np.arange(cols.shape[1]) - starts[pages], pages] = cols
    return out, lengths


def conv_forward_batch(block: ConvBlock, x: np.ndarray, lengths: np.ndarray) -> BatchTrace:
    """conv_forward on n points at once: x is (d, L, n) as from pad_columns,
    lengths the points' own column counts. Returns the trace, whose output
    holds the (n, m) activations.

    Every output, pre-activation and argmax equals conv_forward's on the
    point alone, bit for bit.
    """
    d, L, n = x.shape
    if d != block.d:
        raise ValueError(f"conv input has {d} rows but block expects {block.d}")
    w = block.w
    if L < w:
        x = np.concatenate([x, np.zeros((d, w - L, n))], axis=1)
    P = x.shape[1] - w + 1
    # accumulate products in (row, column) order, bias last, so the result is
    # bit-identical to the naive sequential definition of the convolution
    pre = block.filters[:, 0, 0, None, None] * x[None, 0, :P]
    term = np.empty_like(pre)
    for r, c in list(np.ndindex(d, w))[1:]:
        np.multiply(block.filters[:, r, c, None, None], x[None, r, c:c + P], out=term)
        pre += term
    pre += block.bias[:, None, None]
    # a point of L columns has max(L, w) - w + 1 windows; the rest read padding.
    # Assigned, never added: -inf + inf would make an overflowed window NaN
    n_windows = np.maximum(lengths, w) - w + 1
    np.putmask(pre, np.greater_equal(np.arange(P)[:, None], n_windows,
                                     out=np.empty(pre.shape, bool)), -np.inf)
    act = np.maximum(pre, 0.0, out=term)
    return BatchTrace(pre=pre, x_padded=x, output=act.max(axis=1).T)


def conv_backward_batch(block: ConvBlock, trace: BatchTrace,
                        upstream: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of sum_i (upstream[i] . output[i]) w.r.t. filters and bias,
    for an (n, m) upstream of the trace's first n points.

    Each point's contribution u * window is added point after point in
    batch order, so the sums equal adding conv_backward's per-point results
    one at a time. Returns (dfilters (m, d, w), dbias (m,)).
    """
    n = len(upstream)
    # a filter whose pooled pre-activation is <= 0 (output 0) passes no gradient
    u = np.where(trace.output[:n] > 0.0, upstream, 0.0)
    # windows[:, j, i] is point i's (d, w) window at filter j's pooled position
    cols = trace.argmax[:, :n, None] + np.arange(block.w)               # (m, n, w)
    windows = trace.x_padded[:, cols, np.arange(n)[:, None]]            # (d, m, n, w)
    # add.accumulate sums strictly in point order, starting from zero
    dfilters = 0.0 + np.add.accumulate(u.T[None, :, :, None] * windows, axis=2)[:, :, -1]
    dbias = 0.0 + np.add.accumulate(u, axis=0)[-1]
    return dfilters.transpose(1, 0, 2), dbias


def conv_forward(block: ConvBlock, x) -> tuple[np.ndarray, BatchTrace]:
    """Slide each filter over the columns of x; ReLU; max over positions.

    Returns the length-m pooled vector (entries >= 0) and the trace of x as
    a one-point batch.
    """
    x = as_matrix(x, "conv input")
    trace = conv_forward_batch(block, x[:, :, None], np.array([x.shape[1]]))
    return trace.output[0], trace


def conv_backward(block: ConvBlock, trace: BatchTrace, upstream):
    """Gradients of (upstream . output) w.r.t. filters and bias, for the
    trace of conv_forward.

    Gradient routes only through each filter's pooled position; a filter whose
    pooled pre-activation is <= 0 contributes nothing (ReLU sub-gradient 0).
    Returns (dfilters (m,d,w), dbias (m,)).
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (block.m,):
        raise ValueError(
            f"upstream must have length {block.m}, got shape {upstream.shape}"
        )
    return conv_backward_batch(block, trace, upstream[None])
