"""Single-stage convolutional encoder: conv + ReLU + max-over-positions pooling.

Each encoder maps a d x L instance matrix (columns are instance feature
vectors) to a fixed-size vector of length m, one entry per filter. The
forward pass records enough state (a ForwardTrace) to backpropagate the
sub-gradient exactly through the pooling argmax and the ReLU kink.

Conventions, fixed for determinism:
  - pooling ties break toward the lowest position index,
  - the ReLU sub-gradient at exactly 0 is 0,
  - inputs narrower than the filter window are right-padded with zero columns.
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
class ForwardTrace:
    """State captured by conv_forward, consumed by conv_backward."""

    pre: np.ndarray      # (m, P) pre-activation map
    argmax: np.ndarray   # (m,) pooled position per filter, lowest index on ties
    x_padded: np.ndarray  # input after zero-padding, (d, max(L, w))
    n_cols: int          # original L before padding
    output: np.ndarray   # (m,) pooled ReLU activations


def conv_forward(block: ConvBlock, x) -> tuple[np.ndarray, ForwardTrace]:
    """Slide each filter over the columns of x; ReLU; max over positions.

    Returns the length-m pooled vector (entries >= 0) and the trace.
    """
    x = as_matrix(x, "conv input")
    if x.shape[0] != block.d:
        raise ValueError(
            f"conv input has {x.shape[0]} rows but block expects {block.d}"
        )
    w = block.w
    if x.shape[1] < w:
        pad = np.zeros((block.d, w - x.shape[1]))
        xp = np.concatenate([x, pad], axis=1)
    else:
        xp = x
    # accumulate products in (row, column) order, bias last, so the result is
    # bit-identical to the naive sequential definition of the convolution
    P = xp.shape[1] - w + 1
    windows = np.empty((block.d, w, P))
    for c in range(w):
        windows[:, c, :] = xp[:, c:c + P]
    # terms[:, r * w + c, :] is the (row r, offset c) contribution
    terms = block.filters.reshape(block.m, -1, 1) * windows.reshape(1, -1, P)
    # add.accumulate sums strictly left to right, one term after the other
    pre = np.add.accumulate(terms, axis=1)[:, -1] + block.bias[:, None]
    act = np.maximum(pre, 0.0)
    argmax = act.argmax(axis=1)  # argmax returns the first maximum
    out = act[np.arange(block.m), argmax]
    trace = ForwardTrace(pre=pre, argmax=argmax, x_padded=xp, n_cols=x.shape[1], output=out)
    return out, trace


def conv_backward(block: ConvBlock, trace: ForwardTrace, upstream):
    """Gradients of (upstream . output) w.r.t. filters, bias, and input.

    Gradient routes only through each filter's pooled position; a filter whose
    pooled pre-activation is <= 0 contributes nothing (ReLU sub-gradient 0).
    Returns (dfilters (m,d,w), dbias (m,), dx (d, L_original)).
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (block.m,):
        raise ValueError(
            f"upstream must have length {block.m}, got shape {upstream.shape}"
        )
    w = block.w
    dfilters = np.zeros_like(block.filters)
    dbias = np.zeros_like(block.bias)
    dxp = np.zeros_like(trace.x_padded)
    for j in range(block.m):
        p = int(trace.argmax[j])
        if trace.pre[j, p] <= 0.0:
            continue
        u = upstream[j]
        if u == 0.0:
            continue
        window = trace.x_padded[:, p:p + w]
        dfilters[j] += u * window
        dbias[j] += u
        dxp[:, p:p + w] += u * block.filters[j]
    return dfilters, dbias, dxp[:, : trace.n_cols]
