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

The objective sees the auxiliary points and the target points the trainer
may see (MultiDomainDataset.target_train_points): pack drops target test
points and hides the labels of train-unlabeled points itself.

Every entry point packs its points once (pack, Batch); forward runs the
batched encoders, and value_and_grad serves the objective, the sub-gradient
and, in train, the trajectory row from that one forward pass. After a change
to one parameter block, forward re-runs only the encoder that block drives,
so block-cyclic steps and finite differences reuse the other encoders'
outputs.
Sub-gradients are exact (ReLU sub-gradient 0 at 0, pooling ties to the
lowest index) and accumulated in (domain, point) order so runs reproduce
bit-for-bit.
"""

from __future__ import annotations

import math
from collections.abc import Collection
from dataclasses import astuple, dataclass, fields

import numpy as np

from .convnet import BatchTrace, ConvBlock, conv_backward_batch, conv_forward_batch, pad_columns
from .dataset import ROLE_TEST, DataError, DataPoint, MultiDomainDataset, NeighborGraph
from .model import Dims, ModelParams, head_scores, init_params
# not called here: represent stays importable from this module, whose
# namespace perfbench's tracer self-check wraps and calls it through
from .model import represent  # noqa: F401
from .numeric import Rng


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
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be nonnegative and finite, got {getattr(self, name)}")
        for name in ("max_iters", "m0", "mt", "ma", "w"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        # the initial draw spans [-init_range, init_range], a width that must be finite
        if not 0 < 2 * self.init_range < math.inf:
            raise ValueError(f"init_range must be positive with a finite 2 * init_range, "
                             f"got {self.init_range}")
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


class DivergenceError(RuntimeError):
    """Objective became non-finite during training; the message names the
    iteration, the step size and the first non-finite breakdown field."""

    def __init__(self, iteration: int, tau: float, bd: ObjectiveBreakdown):
        term = next(f.name for f in fields(bd) if not math.isfinite(getattr(bd, f.name)))
        super().__init__(f"objective diverged at iteration {iteration} with tau {tau!r}: "
                         f"{term} is {getattr(bd, term)}")
        self.iteration = iteration


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
    segments: list[tuple[int, slice]]  # (domain index, rows)
    edges: tuple[np.ndarray, np.ndarray] | None = None


def _batch(segments: list[tuple[int, list[DataPoint]]], y_dim: int,
           graph: NeighborGraph | None = None) -> Batch:
    points = [p for _, pts in segments for p in pts]
    n = len(points)
    x, lengths = pad_columns([p.x for p in points])
    no_label = np.zeros(y_dim)
    y = np.concatenate([no_label if p.y is None else p.y for p in points]).reshape(n, y_dim)
    a = np.concatenate([p.a for p in points]).reshape(n, -1)
    bounds = np.cumsum([0] + [len(pts) for _, pts in segments])
    return Batch(x=x, lengths=lengths, a=a, y=y,
                 segments=[(t, slice(bounds[k], bounds[k + 1])) for k, (t, _) in enumerate(segments)],
                 edges=None if graph is None else np.nonzero(graph.matrix()))


def pack(params: ModelParams, ds: MultiDomainDataset, graph: NeighborGraph | None) -> Batch:
    """Check the inputs and pack every auxiliary point and ds.target_train_points(),
    one segment per domain; `graph` has one node per packed target point."""
    _check_compat(params, ds)
    seen = ds.target_train_points()
    if graph is not None and graph.n != len(seen):
        raise ValueError(f"neighbor graph covers {graph.n} points but the trainer sees "
                         f"{len(seen)} target points")
    segments = [*enumerate(ds.domains[:-1]), (ds.n_domains - 1, seen)]
    for t, pts in segments:
        if not pts:
            raise DataError(f"domain {t} is empty; mean matching undefined")
    return _batch(segments, ds.y_dim, graph)


@dataclass
class Forward:
    """Encoder traces and head scores of every point of a Batch, one trace per
    branch in _branches order; a trace's output holds its (rows, m) outputs."""

    traces: list[BatchTrace]    # per branch
    scores: np.ndarray          # (n, Y)


def _branches(params: ModelParams, b: Batch) -> list[tuple[str, ConvBlock, np.ndarray, slice]]:
    """Each branch run over a Batch as (suffix, encoder, head, rows), in
    named_tensors() order: "0" (f_0, u_0) over every row, "t" (f_t, u_t, t from
    1) over each domain segment, "a" (f_a, u_a) over every row. Prefixing the
    suffix with "f_" or "u_" gives the encoder's or the head's block name."""
    every = slice(None)
    return [("0", params.f_0, params.u0, every),
            *((str(t + 1), params.f_dom[t], params.u_dom[t], rows) for t, rows in b.segments),
            ("a", params.f_a, params.ua, every)]


def forward(params: ModelParams, b: Batch, prev: Forward | None = None,
            changed: Collection[str] = ()) -> Forward:
    """Run the encoders over a Batch, f_0 and f_a once over all points and
    each f_t once over its segment; then the heads.

    `prev` is a Forward of the same Batch under parameters that differ from
    params only in the blocks named in `changed` (named_tensors() block
    names). Then only the encoders of those blocks run again (none for a head
    block), and the head scores are recomputed; the result equals a fresh
    forward bit for bit, and prev is left as it was.
    """
    traces = [conv_forward_batch(enc, b.x[:, :, rows], b.lengths[rows])
              if prev is None or "f_" + s in changed else prev.traces[k]
              for k, (s, enc, _, rows) in enumerate(_branches(params, b))]
    r0, *rt, ra = (tr.output for tr in traces)
    scores = np.empty((len(r0), params.dims.y_dim))
    for (t, rows), out in zip(b.segments, rt):
        scores[rows] = head_scores(params, r0[rows], out, ra[rows], t)
    return Forward(traces=traces, scores=scores)


def value_and_grad(params: ModelParams, b: Batch, f: Forward, cfg: TrainConfig,
                   grad: Collection[str]) -> tuple[ObjectiveBreakdown, dict[str, tuple[np.ndarray, ...]]]:
    """The objective breakdown of a packed dataset (see pack) from its
    Forward f under params, and the exact sub-gradient of the blocks named in
    `grad` (params.blocks() for all, () for none), laid out as params.blocks().
    Only their encoders run backward; heads and theta need no upstream term.

    Per-point upstream gradients add their terms in a fixed order
    (classification, attribute map, domain matching, neighbors), and the
    encoder gradients sum over points in (domain, point) order.
    """
    T = params.n_domains
    tgt = b.segments[-1][1]
    r0, *rt, ra = (tr.output for tr in f.traces)
    err = np.where(b.y.any(axis=1, keepdims=True), f.scores - b.y, 0.0)
    sq = np.einsum("ij,ij->i", err, err)
    aux, tgt_cls = float(sq[:tgt.start].sum()), float(sq[tgt].sum())
    g_attr = ra - b.a @ params.theta
    attr = float(np.einsum("ij,ij->", g_attr, g_attr))
    means = [r0[rows].mean(axis=0) for _, rows in b.segments]
    dom = sum((float((means[t] - means[t2]) @ (means[t] - means[t2]))
               for t in range(T) for t2 in range(t + 1, T)), 0.0)
    nb = 0.0
    if b.edges is not None:
        src, dst = b.edges
        feats = np.concatenate([r0[tgt], rt[-1], ra[tgt]], axis=1)
        diff = feats[src] - feats[dst]  # adjacency is symmetric: both orders
        nb = float(np.einsum("ij,ij->", diff, diff))
    total = aux + tgt_cls + cfg.c1 * attr + cfg.c2 * dom + cfg.c3 * nb
    bd = ObjectiveBreakdown(aux_cls=aux, tgt_cls=tgt_cls, attr_map=attr,
                            dom_match=dom, neighbor=nb, total=total)
    if not grad:
        return bd, {}

    # head and theta blocks; "0.0 +" starts each sum from +0.0, as conv_backward_batch does
    branches = _branches(params, b)
    gsc = 2.0 * err  # classification terms; unlabeled rows are zero
    gs = {"u_" + s: (0.0 + tr.output.T @ gsc[rows],)
          for (s, _, _, rows), tr in zip(branches, f.traces) if "u_" + s in grad}
    if "theta" in grad:  # theta enters the attribute-map term (weight c1) only
        gs["theta"] = (np.zeros_like(params.theta) if cfg.c1 == 0.0
                       else 0.0 + -2.0 * cfg.c1 * (b.a.T @ g_attr),)
    if not any(block.startswith("f_") for block in grad):
        return bd, {block: gs[block] for block in grad}

    ups = [gsc[rows] @ head.T for _, _, head, rows in branches]
    up0, upa = ups[0], ups[-1]

    # attribute-map term (weight c1)
    if cfg.c1 != 0.0:
        upa += 2.0 * cfg.c1 * g_attr

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
        ups[-2] += dfeat[:, m0:m0 + mt]
        upa[tgt] += dfeat[:, m0 + mt:]

    # backward through the encoders of the asked-for blocks
    for (s, enc, _, _), trace, up in zip(branches, f.traces, ups):
        if "f_" + s in grad:
            gs["f_" + s] = conv_backward_batch(enc, trace, up)
    return bd, {block: gs[block] for block in grad}


def objective(params: ModelParams, ds: MultiDomainDataset,
              graph: NeighborGraph | None, cfg: TrainConfig) -> ObjectiveBreakdown:
    """All five terms (unweighted) plus the weighted total, in one forward pass.

    Every labeled point the trainer sees counts; `graph` has one node per
    point of ds.target_train_points().
    """
    b = pack(params, ds, graph)
    return value_and_grad(params, b, forward(params, b), cfg, ())[0]


def gradient(params: ModelParams, ds: MultiDomainDataset, graph: NeighborGraph | None,
             cfg: TrainConfig) -> dict[str, tuple[np.ndarray, ...]]:
    """Exact sub-gradient of the weighted total, laid out as params.blocks()."""
    b = pack(params, ds, graph)
    return value_and_grad(params, b, forward(params, b), cfg, params.blocks())[1]


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

CSV_HEADER = ",".join(["iter", *(f.name for f in fields(ObjectiveBreakdown)),
                       "target_test_accuracy"])


def write_trajectory_csv(rows: list[TrajectoryRow], path: str) -> None:
    with open(path, "w") as f:
        f.write(CSV_HEADER + "\n")
        for r in rows:
            vals = [*astuple(r.breakdown), r.accuracy]
            f.write(str(r.iteration) + "," + ",".join(repr(v) for v in vals) + "\n")


# a non-finite total ends training in DivergenceError, so numpy's overflow and
# invalid-value warnings on the way there would only repeat it
@np.errstate(all="ignore")
def train(ds: MultiDomainDataset, graph: NeighborGraph | None,
          cfg: TrainConfig) -> tuple[ModelParams, list[TrajectoryRow]]:
    """Run the fixed-step sub-gradient loop on the points the trainer sees.

    `graph` has one node per point of ds.target_train_points(). `joint` mode
    takes one full-gradient step per iteration; `block-cyclic` sweeps the
    parameter blocks in their fixed order, computing that block's gradient
    before each block step and re-running only the encoder it drives after.
    The trajectory records the breakdown after every iteration (row 0 is the
    initial state) and stops early once the relative change of the total
    drops below 1e-6. Each row's breakdown comes from the forward pass that
    also yields the next iteration's first gradient.
    """
    T = ds.n_domains
    if not any(p.y is not None for p in ds.target_train_points()):
        raise DataError("training requires at least one labeled target point")

    dims = Dims(d=ds.d, a_dim=ds.a_dim, y_dim=ds.y_dim,
                m0=cfg.m0, ma=cfg.ma, mt=(cfg.mt,) * T, w=cfg.w)
    params = init_params(dims, Rng(cfg.seed), cfg.init_range)
    batch = pack(params, ds, graph)
    test_points = ds.target_points(ROLE_TEST)
    test_batch = _eval_batch(params, test_points, T - 1) if test_points else None
    # joint mode steps every block at once; block-cyclic steps one block per
    # gradient, in named_tensors() order
    blocks = params.blocks()
    sweep = [blocks] if cfg.update_mode == "joint" else [(block,) for block in blocks]

    def test_acc():
        return _accuracy(params, test_batch) if test_batch else math.nan

    f = forward(params, batch)
    rows: list[TrajectoryRow] = []
    for it in range(cfg.max_iters + 1):
        for k, step in enumerate(sweep if it else ()):  # row 0 is the initial state
            if k:
                gs = value_and_grad(params, batch, f, cfg, step)[1]
            for block in step:
                for arr, grad in zip(blocks[block], gs[block]):
                    arr -= cfg.tau * grad
            f = forward(params, batch, f, step)
        bd, gs = value_and_grad(params, batch, f, cfg, sweep[0] if it < cfg.max_iters else ())
        if not math.isfinite(bd.total):
            raise DivergenceError(it, cfg.tau, bd)
        rows.append(TrajectoryRow(it, bd, test_acc()))
        if it:  # row 0 has no predecessor to compare with
            prev = rows[-2].breakdown.total
            if abs(bd.total - prev) <= EARLY_STOP_REL_TOL * max(abs(prev), 1e-300):
                break
    return params, rows
