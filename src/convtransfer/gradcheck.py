"""Finite-difference validation of the analytic sub-gradient.

The objective is piecewise smooth: away from ReLU kinks and pooling argmax
ties, central finite differences must agree with the analytic gradient.
`random_smooth_instance` samples (parameters, data) until every
pre-activation clears the kink margins, so the comparison happens at a
smooth point.
"""

from __future__ import annotations

import numpy as np

from .dataset import DataPoint, MultiDomainDataset, build_neighbor_graph
from .model import Dims, ModelParams, init_params
from .numeric import Rng
from .objective import Batch, Forward, TrainConfig, forward, pack, stacked_totals, value_and_grad

KINK_MARGIN = 1e-3
DEFAULT_EPS = 1e-5
DEFAULT_TOLERANCE = 1e-4
REL_ERROR_FLOOR = 1e-8

# Fixed shape of a sampled instance: point lengths drawn from [L_MIN, L_MAX],
# A_DIM attributes, Y_DIM classes, filter window W, parameters uniform in
# [-INIT_SCALE, INIT_SCALE]; at most MAX_TRIES draws per seed.
L_MIN, L_MAX, A_DIM, Y_DIM, W = 3, 6, 5, 2, 2
INIT_SCALE = 0.5
MAX_TRIES = 500


def is_smooth(params: ModelParams, ds: MultiDomainDataset) -> bool:
    """True when no pooled pre-activation sits within KINK_MARGIN of the ReLU
    kink or of an argmax tie, for any point and any branch."""
    for trace in forward(params, pack(params, ds, None)).traces:
        # (m, P, n); positions past a point's last window hold -inf, so
        # a point with one window never fails the tie test
        top = trace.pre.max(axis=1)
        if np.any(np.abs(top) <= KINK_MARGIN):
            return False
        if trace.pre.shape[1] > 1:
            second = np.partition(trace.pre, -2, axis=1)[:, -2]
            if np.any((top > 0) & (top - second <= KINK_MARGIN)):
                return False
    return True


def random_smooth_instance(seed: int, n_domains: int = 3, points_per_domain: int = 4,
                           d: int = 6, m: int = 4, knn_k: int = 1):
    """Sample a labeled multi-domain instance plus parameters at a smooth point.

    Returns (params, dataset, neighbor_graph, config). Deterministic per seed.
    """
    base = Rng(seed)
    for _ in range(MAX_TRIES):
        sub_seed = int(base.integers(0, 2**63))
        rng = Rng(sub_seed)
        domains = []
        for t in range(n_domains):
            points = []
            for i in range(points_per_domain):
                length = int(rng.integers(L_MIN, L_MAX + 1))
                x = rng.normal((d, length))
                a = (rng.uniform(0.0, 1.0, (A_DIM,)) < 0.5).astype(np.float64)
                y = np.zeros(Y_DIM)
                y[int(rng.integers(0, Y_DIM))] = 1.0
                points.append(DataPoint(x=x, a=a, y=y))
            domains.append(points)
        ds = MultiDomainDataset(d=d, a_dim=A_DIM, y_dim=Y_DIM, domains=domains)
        dims = Dims(d=d, a_dim=A_DIM, y_dim=Y_DIM, m0=m, ma=m, mt=(m,) * n_domains, w=W)
        params = init_params(dims, rng, scale=INIT_SCALE)
        if is_smooth(params, ds):
            graph = build_neighbor_graph(ds.target, knn_k)
            cfg = TrainConfig(c1=0.7, c2=0.9, c3=1.1, m0=m, mt=m, ma=m, w=W, seed=sub_seed)
            return params, ds, graph, cfg
    raise RuntimeError(f"no smooth instance found in {MAX_TRIES} tries for seed {seed}")


def finite_diff_block(params, batch: Batch, base: Forward, cfg, block: str,
                      arr: np.ndarray, eps: float) -> np.ndarray:
    """Central finite differences of the weighted total w.r.t. one tensor of
    `block`, on a packed dataset (objective.pack) whose Forward at params is
    `base`. The 2 * arr.size perturbed copies of the tensor (each entry moved
    by +eps, then each by -eps) run as one stacked pass (stacked_totals), in
    which an encoder tensor's copy runs only the one filter it moves."""
    n = arr.size
    values = np.repeat(arr[None], 2 * n, axis=0)
    moved = values.reshape(2, n, n)  # [sign, copy, entry]
    moved[:, range(n), range(n)] += [[eps], [-eps]]
    totals = stacked_totals(params, batch, base, cfg, block, arr, values)
    return ((totals[:n] - totals[n:]) / (2.0 * eps)).reshape(arr.shape)


def relative_error(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise |a-b| / max(|a|,|b|); coordinates where both magnitudes
    are below REL_ERROR_FLOOR count as exact, and a non-finite entry in
    either array scores inf."""
    finite = np.isfinite(a) & np.isfinite(b)
    denom = np.maximum(np.abs(a), np.abs(b))
    err = np.where(finite, 0.0, np.inf)
    mask = finite & (denom >= REL_ERROR_FLOOR)
    err[mask] = np.abs(a[mask] - b[mask]) / denom[mask]
    return err


# a non-finite difference scores inf in relative_error: numpy's warnings would only repeat it
@np.errstate(all="ignore")
def gradient_check(params, ds, graph, cfg, eps: float = DEFAULT_EPS) -> dict[str, float]:
    """Max relative error between analytic and finite-difference gradients,
    per parameter block."""
    batch = pack(params, ds, graph)
    base = forward(params, batch)
    blocks = params.blocks()
    g = value_and_grad(params, batch, base, cfg, blocks, value=False)[1]
    # laid out as params.flat, as g is
    fd = np.concatenate([finite_diff_block(params, batch, base, cfg, block, arr, eps).ravel()
                         for block, _, arr in params.named_tensors()])
    return {block: float(relative_error(g[sl], fd[sl]).max()) for block, sl in blocks.items()}
