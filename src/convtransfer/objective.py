"""Joint objective, exact sub-gradient, and the descent loop.

The training objective has five terms:
  1. squared-error classification loss over all auxiliary-domain points,
  2. the same loss over the labeled target-domain points,
  3. attribute-map regularizer: || f_a(X) - theta.T a ||^2 over every point,
     weighted by c1,
  4. pairwise matching of per-domain mean vectors of the shared branch,
     weighted by c2,
  5. neighbor smoothness of the concatenated target representation over a
     fixed 0/1 adjacency, weighted by c3.

The objective sees every point of the dataset it is given, labels
included, so callers pass dataset.training_view(ds); a target that still
holds test points or labeled train-unlabeled points is rejected.

Sub-gradients are exact (ReLU sub-gradient 0 at 0, pooling ties to the
lowest index) and accumulated in (domain, point) order so runs reproduce
bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import ROLE_TEST, DataError, DataPoint, MultiDomainDataset, NeighborGraph, training_view
from .model import Dims, ModelParams, classify, init_params, predict, represent, zero_params
from .numeric import Rng


class DivergenceError(RuntimeError):
    """Objective became non-finite during training."""

    def __init__(self, iteration: int):
        super().__init__(f"objective diverged (non-finite) at iteration {iteration}")
        self.iteration = iteration


@dataclass
class TrainConfig:
    c1: float = 1.0
    c2: float = 1.0
    c3: float = 1.0
    tau: float = 1e-3
    max_iters: int = 100
    update_mode: str = "joint"  # or "block-cyclic"
    knn_k: int = 5
    m0: int = 4
    mt: int = 4
    ma: int = 4
    w: int = 2
    init_range: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for name in ("c1", "c2", "c3", "tau", "knn_k"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")
        for name in ("max_iters", "m0", "mt", "ma", "w"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.init_range <= 0:
            raise ValueError(f"init_range must be positive, got {self.init_range}")
        if self.update_mode not in ("joint", "block-cyclic"):
            raise ValueError(f"update_mode must be 'joint' or 'block-cyclic', got {self.update_mode!r}")


@dataclass
class ObjectiveBreakdown:
    """Unweighted term values plus the weighted total."""

    aux_cls: float
    tgt_cls: float
    attr_map: float
    dom_match: float
    neighbor: float
    total: float


def _check_compat(params: ModelParams, ds: MultiDomainDataset) -> None:
    model = (params.n_domains, params.dims.d, params.dims.a_dim, params.dims.y_dim)
    data = (ds.n_domains, ds.d, ds.a_dim, ds.y_dim)
    if model != data:
        raise DataError("model dims (T={}, d={}, A={}, Y={}) do not match dataset "
                        "(T={}, d={}, A={}, Y={})".format(*model, *data))


def _forward_all(params: ModelParams, ds: MultiDomainDataset, graph: NeighborGraph | None):
    """Check the inputs, then represent every point: reps[t][i] = (Representation, traces)."""
    _check_compat(params, ds)
    if training_view(ds) is not ds:
        raise ValueError("the target domain holds test points or labeled train-unlabeled "
                         "points, which the trainer must not see; pass training_view(ds)")
    if graph is not None and graph.n != len(ds.target):
        raise ValueError(
            f"neighbor graph covers {graph.n} points but the target domain has {len(ds.target)}"
        )
    return [[represent(params, p.x, t) for p in dom] for t, dom in enumerate(ds.domains)]


def _cls_values(params, ds, reps):
    aux = 0.0
    tgt = 0.0
    T = ds.n_domains
    for t, dom in enumerate(ds.domains):
        for i, p in enumerate(dom):
            if p.y is None:
                continue
            e = classify(params, reps[t][i][0]) - p.y
            v = float(e @ e)
            if t == T - 1:
                tgt += v
            else:
                aux += v
    return aux, tgt


def _attr_value(params, ds, reps):
    s = 0.0
    for t, dom in enumerate(ds.domains):
        for i, p in enumerate(dom):
            g = reps[t][i][0].ra - params.theta.T @ p.a
            s += float(g @ g)
    return s


def _dom_means(ds, reps):
    means = []
    for t, dom in enumerate(ds.domains):
        if not dom:
            raise ValueError(f"domain {t} is empty; mean matching undefined")
        means.append(np.mean([reps[t][i][0].r0 for i in range(len(dom))], axis=0))
    return means


def _dom_value(ds, reps):
    means = _dom_means(ds, reps)
    s = 0.0
    for t in range(len(means)):
        for t2 in range(t + 1, len(means)):
            diff = means[t] - means[t2]
            s += float(diff @ diff)
    return s


def _nb_value(ds, reps, graph: NeighborGraph | None):
    if graph is None:
        return 0.0
    fvecs = [rep.concat() for rep, _ in reps[-1]]
    s = 0.0
    for a, adj in enumerate(graph.neighbors):
        for b in adj:  # adjacency is symmetric: this covers both orders
            diff = fvecs[a] - fvecs[b]
            s += float(diff @ diff)
    return s


def neighbor_loss(params: ModelParams, ds: MultiDomainDataset, graph: NeighborGraph) -> float:
    """Sum over ordered neighbor pairs of squared distance between the
    concatenated target representations."""
    return _nb_value(ds, _forward_all(params, ds, graph), graph)


def objective(params: ModelParams, ds: MultiDomainDataset,
              graph: NeighborGraph | None, cfg: TrainConfig) -> ObjectiveBreakdown:
    """All five terms (unweighted) plus the weighted total, in one forward pass.

    Every labeled point counts; `graph` has one node per target point.
    """
    reps = _forward_all(params, ds, graph)
    aux, tgt = _cls_values(params, ds, reps)
    attr = _attr_value(params, ds, reps)
    dom = _dom_value(ds, reps) if ds.n_domains > 1 else 0.0
    nb = _nb_value(ds, reps, graph)
    total = aux + tgt + cfg.c1 * attr + cfg.c2 * dom + cfg.c3 * nb
    return ObjectiveBreakdown(aux_cls=aux, tgt_cls=tgt, attr_map=attr,
                              dom_match=dom, neighbor=nb, total=total)


def gradient(params: ModelParams, ds: MultiDomainDataset,
             graph: NeighborGraph | None, cfg: TrainConfig) -> ModelParams:
    """Exact sub-gradient of the weighted total w.r.t. every parameter, as a
    ModelParams of the same dims. Accumulation runs in (domain index, point
    index) order."""
    from .convnet import conv_backward

    reps = _forward_all(params, ds, graph)
    gs = zero_params(params.dims)
    T = ds.n_domains

    # upstream gradients on each point's three branch outputs
    ups = [[{"r0": np.zeros(params.dims.m0),
             "rt": np.zeros(params.dims.mt[t]),
             "ra": np.zeros(params.dims.ma)} for _ in dom]
           for t, dom in enumerate(ds.domains)]

    # classification terms
    for t, dom in enumerate(ds.domains):
        for i, p in enumerate(dom):
            if p.y is None:
                continue
            rep = reps[t][i][0]
            gsc = 2.0 * (classify(params, rep) - p.y)
            gs.u0 += np.outer(rep.r0, gsc)
            gs.u_dom[t] += np.outer(rep.rt, gsc)
            gs.ua += np.outer(rep.ra, gsc)
            up = ups[t][i]
            up["r0"] += params.u0 @ gsc
            up["rt"] += params.u_dom[t] @ gsc
            up["ra"] += params.ua @ gsc

    # attribute-map term (weight c1)
    if cfg.c1 != 0.0:
        for t, dom in enumerate(ds.domains):
            for i, p in enumerate(dom):
                g = reps[t][i][0].ra - params.theta.T @ p.a
                ups[t][i]["ra"] += 2.0 * cfg.c1 * g
                gs.theta += -2.0 * cfg.c1 * np.outer(p.a, g)

    # domain mean-matching term (weight c2)
    if cfg.c2 != 0.0 and T > 1:
        means = _dom_means(ds, reps)
        for t, dom in enumerate(ds.domains):
            delta = 2.0 * sum((means[t] - means[t2]) for t2 in range(T) if t2 != t)
            coef = cfg.c2 / len(dom)
            for i in range(len(dom)):
                ups[t][i]["r0"] += coef * delta

    # neighbor smoothness term (weight c3), target branch only
    if cfg.c3 != 0.0 and graph is not None:
        fvecs = [rep.concat() for rep, _ in reps[T - 1]]
        m0, mt = params.dims.m0, params.dims.mt[T - 1]
        for a, adj in enumerate(graph.neighbors):
            if not adj:
                continue
            df = 4.0 * cfg.c3 * sum((fvecs[a] - fvecs[b]) for b in adj)
            up = ups[T - 1][a]
            up["r0"] += df[:m0]
            up["rt"] += df[m0:m0 + mt]
            up["ra"] += df[m0 + mt:]

    # backward through the encoders, fixed (domain, point) order
    for t, dom in enumerate(ds.domains):
        for i in range(len(dom)):
            _, (tr0, trt, tra) = reps[t][i]
            up = ups[t][i]
            for block, grad, trace, upstream in ((params.f_0, gs.f_0, tr0, up["r0"]),
                                                 (params.f_dom[t], gs.f_dom[t], trt, up["rt"]),
                                                 (params.f_a, gs.f_a, tra, up["ra"])):
                if np.any(upstream):
                    df, db, _ = conv_backward(block, trace, upstream)
                    grad.filters += df
                    grad.bias += db
    return gs


def evaluate(params: ModelParams, points: list[DataPoint], t: int) -> float:
    """Fraction of points whose predicted class matches the label's argmax."""
    if not points:
        raise DataError("cannot evaluate on an empty point collection")
    correct = 0
    for p in points:
        if p.y is None:
            raise DataError("evaluation requires labeled points")
        rep, _ = represent(params, p.x, t)
        if predict(classify(params, rep)) == int(np.argmax(p.y)):
            correct += 1
    return correct / len(points)


@dataclass
class TrajectoryRow:
    iteration: int
    breakdown: ObjectiveBreakdown
    accuracy: float  # target-test accuracy; NaN when there are no test points


EARLY_STOP_REL_TOL = 1e-6

CSV_HEADER = "iter,aux_cls,tgt_cls,attr_map,dom_match,neighbor,total,target_test_accuracy"


def write_trajectory_csv(rows: list[TrajectoryRow], path: str) -> None:
    with open(path, "w") as f:
        f.write(CSV_HEADER + "\n")
        for r in rows:
            b = r.breakdown
            vals = [b.aux_cls, b.tgt_cls, b.attr_map, b.dom_match, b.neighbor, b.total, r.accuracy]
            f.write(str(r.iteration) + "," + ",".join(repr(v) for v in vals) + "\n")


def train(ds: MultiDomainDataset, graph: NeighborGraph | None,
          cfg: TrainConfig) -> tuple[ModelParams, list[TrajectoryRow]]:
    """Run the fixed-step sub-gradient loop on training_view(ds).

    `graph` has one node per point of ds.target_train_points(). `joint` mode takes one full-gradient step per iteration; `block-cyclic`
    sweeps the parameter blocks in their fixed order, recomputing the
    gradient before each block step. The trajectory records the breakdown
    after every iteration (row 0 is the initial state) and stops early once
    the relative change of the total drops below 1e-6.
    """
    T = ds.n_domains
    view = training_view(ds)
    if not any(p.y is not None for p in view.target):
        raise DataError("training requires at least one labeled target point")

    dims = Dims(d=ds.d, a_dim=ds.a_dim, y_dim=ds.y_dim,
                m0=cfg.m0, ma=cfg.ma, mt=(cfg.mt,) * T, w=cfg.w)
    params = init_params(dims, Rng(cfg.seed), cfg.init_range)
    test_points = [p for p in ds.target if p.role == ROLE_TEST]
    # joint mode steps every block at once; block-cyclic steps one block per
    # gradient, in named_tensors() order
    sweep = [None] if cfg.update_mode == "joint" else \
        list(dict.fromkeys(block for block, _, _ in params.named_tensors()))

    def test_acc():
        return evaluate(params, test_points, T - 1) if test_points else math.nan

    bd = objective(params, view, graph, cfg)
    if not math.isfinite(bd.total):
        raise DivergenceError(0)
    rows = [TrajectoryRow(0, bd, test_acc())]
    prev_total = bd.total

    for it in range(1, cfg.max_iters + 1):
        for step_block in sweep:
            gs = gradient(params, view, graph, cfg)
            for (block, _, arr), (_, _, grad) in zip(params.named_tensors(), gs.named_tensors()):
                if step_block in (None, block):
                    arr -= cfg.tau * grad
        bd = objective(params, view, graph, cfg)
        if not math.isfinite(bd.total):
            raise DivergenceError(it)
        rows.append(TrajectoryRow(it, bd, test_acc()))
        if abs(bd.total - prev_total) <= EARLY_STOP_REL_TOL * max(abs(prev_total), 1e-300):
            break
        prev_total = bd.total
    return params, rows
