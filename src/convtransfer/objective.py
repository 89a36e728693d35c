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

Every entry point packs its points once (pack, Batch); value_and_grad then
runs the batched encoders once per call and serves the objective, the
sub-gradient and, in train, the trajectory row from that one forward pass.
Sub-gradients are exact (ReLU sub-gradient 0 at 0, pooling ties to the
lowest index) and accumulated in (domain, point) order so runs reproduce
bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convnet import BatchTrace, conv_backward_batch, conv_forward_batch, pad_columns
from .dataset import ROLE_TEST, DataError, DataPoint, MultiDomainDataset, NeighborGraph, training_view
from .model import Dims, ModelParams, head_scores, init_params, zero_params
# not called here: represent stays importable from this module, whose
# namespace perfbench's tracer self-check wraps and calls it through
from .model import represent  # noqa: F401
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


@dataclass
class Batch:
    """Points packed once for the batched encoders.

    The points form segments of consecutive rows, each from one domain:
    f_0 and f_a run once over all rows, each f_t once over its segment.
    `edges` lists the neighbor graph's ordered pairs as row offsets into
    the last segment.
    """

    x: np.ndarray          # (d, L, n) zero-padded inputs (convnet.pad_columns)
    lengths: np.ndarray    # (n,) each point's own column count
    a: np.ndarray          # (n, A) attribute vectors
    y: np.ndarray          # (n, Y) labels; zero rows for unlabeled points
    labeled: np.ndarray    # (n,) bool
    segments: list[tuple[int, slice]]  # (domain index, rows)
    edges: tuple[np.ndarray, np.ndarray] | None = None


def _batch(segments: list[tuple[int, list[DataPoint]]], y_dim: int,
           graph: NeighborGraph | None = None) -> Batch:
    points = [p for _, pts in segments for p in pts]
    x, lengths = pad_columns([p.x for p in points])
    labeled = np.array([p.y is not None for p in points])
    y = np.stack([np.zeros(y_dim) if p.y is None else p.y for p in points])
    bounds = np.cumsum([0] + [len(pts) for _, pts in segments])
    edges = None
    if graph is not None:
        edges = (np.array([i for i, adj in enumerate(graph.neighbors) for _ in adj], dtype=np.intp),
                 np.array([j for adj in graph.neighbors for j in adj], dtype=np.intp))
    return Batch(x=x, lengths=lengths, a=np.stack([p.a for p in points]), y=y, labeled=labeled,
                 segments=[(t, slice(bounds[k], bounds[k + 1])) for k, (t, _) in enumerate(segments)],
                 edges=edges)


def pack(params: ModelParams, ds: MultiDomainDataset, graph: NeighborGraph | None) -> Batch:
    """Check the inputs and pack every point of ds, one segment per domain;
    `graph` has one node per target point."""
    _check_compat(params, ds)
    if training_view(ds) is not ds:
        raise ValueError("the target domain holds test points or labeled train-unlabeled "
                         "points, which the trainer must not see; pass training_view(ds)")
    if graph is not None and graph.n != len(ds.target):
        raise ValueError(
            f"neighbor graph covers {graph.n} points but the target domain has {len(ds.target)}"
        )
    for t, dom in enumerate(ds.domains):
        if not dom:
            raise DataError(f"domain {t} is empty; mean matching undefined")
    return _batch(list(enumerate(ds.domains)), ds.y_dim, graph)


@dataclass
class Forward:
    """Branch outputs, traces and head scores of every point of a Batch."""

    r0: np.ndarray              # (n, m0)
    ra: np.ndarray              # (n, ma)
    rt: list[np.ndarray]        # per segment, (rows, m_t)
    traces: list[BatchTrace]    # f_0, f_a, then f_t per segment
    scores: np.ndarray          # (n, Y)


def forward(params: ModelParams, b: Batch) -> Forward:
    """Run the encoders over a Batch: f_0 and f_a once over all points, each
    f_t once over its segment; then the heads."""
    r0, tr0 = conv_forward_batch(params.f_0, b.x, b.lengths)
    ra, tra = conv_forward_batch(params.f_a, b.x, b.lengths)
    rt, traces = [], [tr0, tra]
    scores = np.empty((len(r0), params.dims.y_dim))
    for t, rows in b.segments:
        out, tr = conv_forward_batch(params.f_dom[t], b.x[:, :, rows], b.lengths[rows])
        rt.append(out)
        traces.append(tr)
        scores[rows] = head_scores(params, r0[rows], out, ra[rows], t)
    return Forward(r0=r0, ra=ra, rt=rt, traces=traces, scores=scores)


def value_and_grad(params: ModelParams, b: Batch, cfg: TrainConfig,
                   with_grad: bool = True) -> tuple[ObjectiveBreakdown, ModelParams | None]:
    """The objective breakdown of a packed dataset (see pack) and, unless
    with_grad is False, its exact sub-gradient, both from one forward pass.

    Per-point upstream gradients add their terms in a fixed order
    (classification, attribute map, domain matching, neighbors), and the
    encoder gradients sum over points in (domain, point) order.
    """
    f = forward(params, b)
    T = params.n_domains
    tgt = b.segments[-1][1]
    err = np.where(b.labeled[:, None], f.scores - b.y, 0.0)
    sq = np.einsum("ij,ij->i", err, err)
    aux, tgt_cls = float(sq[:tgt.start].sum()), float(sq[tgt].sum())
    g_attr = f.ra - b.a @ params.theta
    attr = float(np.einsum("ij,ij->", g_attr, g_attr))
    means = [f.r0[rows].mean(axis=0) for _, rows in b.segments]
    dom = sum((float((means[t] - means[t2]) @ (means[t] - means[t2]))
               for t in range(T) for t2 in range(t + 1, T)), 0.0)
    nb = 0.0
    if b.edges is not None:
        src, dst = b.edges
        feats = np.concatenate([f.r0[tgt], f.rt[-1], f.ra[tgt]], axis=1)
        diff = feats[src] - feats[dst]  # adjacency is symmetric: both orders
        nb = float(np.einsum("ij,ij->", diff, diff))
    total = aux + tgt_cls + cfg.c1 * attr + cfg.c2 * dom + cfg.c3 * nb
    bd = ObjectiveBreakdown(aux_cls=aux, tgt_cls=tgt_cls, attr_map=attr,
                            dom_match=dom, neighbor=nb, total=total)
    if not with_grad:
        return bd, None

    gs = zero_params(params.dims)
    # classification terms; unlabeled rows of gsc are zero
    gsc = 2.0 * err
    gs.u0 += f.r0.T @ gsc
    gs.ua += f.ra.T @ gsc
    up0 = gsc @ params.u0.T
    upa = gsc @ params.ua.T
    upt = []
    for (t, rows), rt in zip(b.segments, f.rt):
        gs.u_dom[t] += rt.T @ gsc[rows]
        upt.append(gsc[rows] @ params.u_dom[t].T)

    # attribute-map term (weight c1)
    if cfg.c1 != 0.0:
        upa += 2.0 * cfg.c1 * g_attr
        gs.theta += -2.0 * cfg.c1 * (b.a.T @ g_attr)

    # domain mean-matching term (weight c2)
    if cfg.c2 != 0.0 and T > 1:
        for t, (_, rows) in enumerate(b.segments):
            delta = 2.0 * sum((means[t] - means[t2]) for t2 in range(T) if t2 != t)
            up0[rows] += cfg.c2 / (rows.stop - rows.start) * delta

    # neighbor smoothness term (weight c3), target branch only
    if cfg.c3 != 0.0 and b.edges is not None:
        dfeat = np.zeros_like(feats)
        np.add.at(dfeat, src, diff)
        dfeat *= 4.0 * cfg.c3
        m0, mt = params.dims.m0, params.dims.mt[T - 1]
        up0[tgt] += dfeat[:, :m0]
        upt[-1] += dfeat[:, m0:m0 + mt]
        upa[tgt] += dfeat[:, m0 + mt:]

    # backward through the encoders
    encoders = [(params.f_0, gs.f_0, up0), (params.f_a, gs.f_a, upa)]
    encoders += [(params.f_dom[t], gs.f_dom[t], up) for (t, _), up in zip(b.segments, upt)]
    for (block, grad, upstream), trace in zip(encoders, f.traces):
        df, db = conv_backward_batch(block, trace, upstream)
        grad.filters += df
        grad.bias += db
    return bd, gs


def objective(params: ModelParams, ds: MultiDomainDataset,
              graph: NeighborGraph | None, cfg: TrainConfig) -> ObjectiveBreakdown:
    """All five terms (unweighted) plus the weighted total, in one forward pass.

    Every labeled point counts; `graph` has one node per target point.
    """
    return value_and_grad(params, pack(params, ds, graph), cfg, with_grad=False)[0]


def gradient(params: ModelParams, ds: MultiDomainDataset,
             graph: NeighborGraph | None, cfg: TrainConfig) -> ModelParams:
    """Exact sub-gradient of the weighted total w.r.t. every parameter, as a
    ModelParams of the same dims."""
    return value_and_grad(params, pack(params, ds, graph), cfg)[1]


def neighbor_loss(params: ModelParams, ds: MultiDomainDataset, graph: NeighborGraph) -> float:
    """Sum over ordered neighbor pairs of squared distance between the
    concatenated target representations."""
    return objective(params, ds, graph, TrainConfig()).neighbor


def _accuracy(params: ModelParams, b: Batch) -> float:
    correct = np.count_nonzero(forward(params, b).scores.argmax(axis=1) == b.y.argmax(axis=1))
    return int(correct) / len(b.y)


def _eval_batch(params: ModelParams, points: list[DataPoint], t: int) -> Batch:
    if not points:
        raise DataError("cannot evaluate on an empty point collection")
    if any(p.y is None for p in points):
        raise DataError("evaluation requires labeled points")
    if not 0 <= t < params.n_domains:
        raise ValueError(f"domain index {t} out of range [0, {params.n_domains})")
    return _batch([(t, points)], params.dims.y_dim)


def evaluate(params: ModelParams, points: list[DataPoint], t: int) -> float:
    """Fraction of points whose predicted class matches the label's argmax;
    predictions break score ties toward the lowest class index."""
    return _accuracy(params, _eval_batch(params, points, t))


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

    `graph` has one node per point of ds.target_train_points(). `joint` mode
    takes one full-gradient step per iteration; `block-cyclic` sweeps the
    parameter blocks in their fixed order, recomputing the gradient before
    each block step. The trajectory records the breakdown after every
    iteration (row 0 is the initial state) and stops early once the relative
    change of the total drops below 1e-6. Each row's breakdown comes from
    the forward pass that also yields the next iteration's first gradient.
    """
    T = ds.n_domains
    view = training_view(ds)
    if not any(p.y is not None for p in view.target):
        raise DataError("training requires at least one labeled target point")

    dims = Dims(d=ds.d, a_dim=ds.a_dim, y_dim=ds.y_dim,
                m0=cfg.m0, ma=cfg.ma, mt=(cfg.mt,) * T, w=cfg.w)
    params = init_params(dims, Rng(cfg.seed), cfg.init_range)
    batch = pack(params, view, graph)
    test_points = [p for p in ds.target if p.role == ROLE_TEST]
    test_batch = _eval_batch(params, test_points, T - 1) if test_points else None
    # joint mode steps every block at once; block-cyclic steps one block per
    # gradient, in named_tensors() order
    sweep = [None] if cfg.update_mode == "joint" else \
        list(dict.fromkeys(block for block, _, _ in params.named_tensors()))

    def test_acc():
        return _accuracy(params, test_batch) if test_batch else math.nan

    bd, gs = value_and_grad(params, batch, cfg)
    if not math.isfinite(bd.total):
        raise DivergenceError(0)
    rows = [TrajectoryRow(0, bd, test_acc())]
    prev_total = bd.total

    for it in range(1, cfg.max_iters + 1):
        for k, step_block in enumerate(sweep):
            if k:
                gs = value_and_grad(params, batch, cfg)[1]
            for (block, _, arr), (_, _, grad) in zip(params.named_tensors(), gs.named_tensors()):
                if step_block in (None, block):
                    arr -= cfg.tau * grad
        bd, gs = value_and_grad(params, batch, cfg, with_grad=it < cfg.max_iters)
        if not math.isfinite(bd.total):
            raise DivergenceError(it)
        rows.append(TrajectoryRow(it, bd, test_acc()))
        if abs(bd.total - prev_total) <= EARLY_STOP_REL_TOL * max(abs(prev_total), 1e-300):
            break
        prev_total = bd.total
    return params, rows
