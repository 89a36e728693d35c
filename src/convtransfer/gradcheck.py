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
from .model import Dims, ModelParams, init_params, represent
from .numeric import Rng
from .objective import TrainConfig, gradient, objective

KINK_MARGIN = 1e-3
DEFAULT_EPS = 1e-5
DEFAULT_TOLERANCE = 1e-4


def is_smooth(params: ModelParams, ds: MultiDomainDataset, margin: float = KINK_MARGIN) -> bool:
    """True when no pooled pre-activation sits within `margin` of the ReLU
    kink or of an argmax tie, for any point and any branch."""
    for t, dom in enumerate(ds.domains):
        for p in dom:
            for trace in represent(params, p.x, t)[1]:
                for row in trace.pre:
                    top = np.max(row)
                    if abs(top) <= margin:
                        return False
                    if top > 0 and row.size > 1:
                        second = np.partition(row, -2)[-2]
                        if top - second <= margin:
                            return False
    return True


def random_smooth_instance(seed: int, n_domains: int = 3, points_per_domain: int = 4,
                           d: int = 6, l_min: int = 3, l_max: int = 6,
                           a_dim: int = 5, y_dim: int = 2,
                           m: int = 4, w: int = 2, knn_k: int = 1,
                           init_scale: float = 0.5, max_tries: int = 500):
    """Sample a labeled multi-domain instance plus parameters at a smooth point.

    Returns (params, dataset, neighbor_graph, config). Deterministic per seed.
    """
    base = Rng(seed)
    for _ in range(max_tries):
        sub_seed = int(base.integers(0, 2**63))
        rng = Rng(sub_seed)
        domains = []
        for t in range(n_domains):
            points = []
            for i in range(points_per_domain):
                length = int(rng.integers(l_min, l_max + 1))
                x = rng.normal((d, length))
                a = (rng.uniform(0.0, 1.0, (a_dim,)) < 0.5).astype(np.float64)
                y = np.zeros(y_dim)
                y[int(rng.integers(0, y_dim))] = 1.0
                points.append(DataPoint(x=x, a=a, y=y))
            domains.append(points)
        ds = MultiDomainDataset(d=d, a_dim=a_dim, y_dim=y_dim, domains=domains)
        dims = Dims(d=d, a_dim=a_dim, y_dim=y_dim, m0=m, ma=m, mt=(m,) * n_domains, w=w)
        params = init_params(dims, rng, scale=init_scale)
        if is_smooth(params, ds):
            graph = build_neighbor_graph(ds.target, knn_k)
            cfg = TrainConfig(c1=0.7, c2=0.9, c3=1.1, m0=m, mt=m, ma=m, w=w, seed=sub_seed)
            return params, ds, graph, cfg
    raise RuntimeError(f"no smooth instance found in {max_tries} tries for seed {seed}")


def finite_diff_block(params, ds, graph, cfg, arr: np.ndarray, eps: float) -> np.ndarray:
    """Central finite differences of the weighted total w.r.t. one tensor."""
    fd = np.zeros_like(arr)
    flat = arr.ravel()
    fd_flat = fd.ravel()
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + eps
        hi = objective(params, ds, graph, cfg).total
        flat[k] = orig - eps
        lo = objective(params, ds, graph, cfg).total
        flat[k] = orig
        fd_flat[k] = (hi - lo) / (2.0 * eps)
    return fd


def relative_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-8) -> np.ndarray:
    """Elementwise |a-b| / max(|a|,|b|); coordinates where both magnitudes
    are below `floor` count as exact."""
    denom = np.maximum(np.abs(a), np.abs(b))
    err = np.zeros_like(denom)
    mask = denom >= floor
    err[mask] = np.abs(a - b)[mask] / denom[mask]
    return err


def gradient_check(params, ds, graph, cfg, eps: float = DEFAULT_EPS,
                   corrupt_block: str | None = None) -> dict[str, float]:
    """Max relative error between analytic and finite-difference gradients,
    per parameter block.

    `corrupt_block` flips the sign of one analytic block before comparing;
    it exists only so tests can prove the check catches wrong gradients.
    """
    gs = gradient(params, ds, graph, cfg)
    errs: dict[str, float] = {}
    for (block, _, arr), (_, _, grad) in zip(params.named_tensors(), gs.named_tensors()):
        analytic = -grad if block == corrupt_block else grad
        fd = finite_diff_block(params, ds, graph, cfg, arr, eps)
        err = float(np.max(relative_error(analytic, fd))) if arr.size else 0.0
        errs[block] = max(errs.get(block, 0.0), err)
    return errs
