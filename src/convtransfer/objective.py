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
may see (MultiDomainDataset.target_train_points): pack hides the labels of
train-unlabeled points itself, and packs the target test points (labeled,
by dataset._point_rules) after the last segment, where no loss reads them.

Every entry point packs its points once (pack, Batch); forward runs the
batched encoders, and value_and_grad serves the objective, the sub-gradient
and, in train, the trajectory row and its test accuracy from that one
forward pass. After a change to one parameter block, forward re-runs only
the encoder that block drives, and stacked_totals, for finite differences,
only the filters each perturbed copy moves; the rest is reused.
Sub-gradients are exact (ReLU sub-gradient 0 at 0, pooling ties to the
lowest index) and accumulated in (domain, point) order so runs reproduce
bit-for-bit.
"""

from __future__ import annotations

import math
from collections.abc import Collection
from dataclasses import astuple, dataclass, fields
from itertools import combinations

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
    max_iters: int = 200
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
    iteration, the step size (none at iteration 0, the initial state before
    any step) and the first non-finite breakdown field."""

    def __init__(self, iteration: int, tau: float, bd: ObjectiveBreakdown):
        term = next(f.name for f in fields(bd) if not math.isfinite(getattr(bd, f.name)))
        where = (f"diverged at iteration {iteration} with tau {tau!r}" if iteration
                 else "is non-finite at iteration 0 (the initial state, before any step)")
        super().__init__(f"objective {where}: {term} is {getattr(bd, term)}")
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

    The points form segments of consecutive rows, each from one domain, and
    then rows that no loss term reads (pack's target test points).
    `edges` lists the neighbor graph's ordered pairs as row offsets into
    the last segment; both arrays are empty without a graph.
    """

    x: np.ndarray          # (d, L, n) zero-padded inputs (convnet.pad_columns)
    lengths: np.ndarray    # (n,) each point's own column count
    y: np.ndarray          # (n, Y) labels; zero rows for unlabeled points
    segments: list[tuple[int, slice]]  # (domain index, rows)
    edges: tuple[np.ndarray, np.ndarray]
    # (rows up to the last segment's end, A) attribute vectors; only pack's
    # batches, whose loss terms read them, carry them
    a: np.ndarray | None = None


def _batch(segments: list[tuple[int, list[DataPoint]]], y_dim: int,
           graph: NeighborGraph | None = None, after: Collection[DataPoint] = ()) -> Batch:
    points = [p for _, pts in segments for p in pts] + list(after)
    n = len(points)
    x, lengths = pad_columns([p.x for p in points])
    no_label = np.zeros(y_dim)
    y = np.concatenate([no_label if p.y is None else p.y for p in points]).reshape(n, y_dim)
    bounds = np.cumsum([0] + [len(pts) for _, pts in segments])
    return Batch(x=x, lengths=lengths, y=y,
                 segments=[(t, slice(bounds[k], bounds[k + 1])) for k, (t, _) in enumerate(segments)],
                 edges=(np.empty(0, np.intp),) * 2 if graph is None else np.nonzero(graph.matrix()))


def pack(params: ModelParams, ds: MultiDomainDataset, graph: NeighborGraph | None) -> Batch:
    """Check the inputs and pack every auxiliary point and ds.target_train_points(),
    one segment per domain, then the target test points; `graph` has a node per last-segment row."""
    _check_compat(params, ds)
    seen = ds.target_train_points()
    if graph is not None and graph.n != len(seen):
        raise ValueError(f"neighbor graph covers {graph.n} points but the trainer sees "
                         f"{len(seen)} target points")
    segments = [*enumerate(ds.domains[:-1]), (ds.n_domains - 1, seen)]
    for t, pts in segments:
        if not pts:
            raise DataError(f"domain {t} is empty; mean matching undefined")
    b = _batch(segments, ds.y_dim, graph, ds.target_points(ROLE_TEST))
    b.a = np.concatenate([p.a for _, pts in segments for p in pts]).reshape(-1, ds.a_dim)
    return b


@dataclass
class Forward:
    """Encoder traces and head scores of every point of a Batch, one trace per
    branch in _branches order; a trace's output holds its (rows, m) outputs."""

    traces: list[BatchTrace]    # per branch
    scores: np.ndarray          # (n, Y)


def _branches(params: ModelParams, b: Batch) -> list[tuple[str, ConvBlock, np.ndarray, slice]]:
    """Each branch run over a Batch as (suffix, encoder, head, rows), in
    named_tensors() order: "0" (f_0, u_0) over every row, "t" (f_t, u_t, t from
    1) over each domain segment, the last one on to the last row, "a" (f_a, u_a)
    over every row; "f_" or "u_" + suffix names the encoder's or the head's block."""
    every = slice(None)
    *front, (t, last) = b.segments
    return [("0", params.f_0, params.u0, every),
            *((str(i + 1), params.f_dom[i], params.u_dom[i], rows) for i, rows in front),
            (str(t + 1), params.f_dom[t], params.u_dom[t], slice(last.start, None)),
            ("a", params.f_a, params.ua, every)]


def forward(params: ModelParams, b: Batch, prev: Forward | None = None,
            changed: Collection[str] = ()) -> Forward:
    """Run the encoders over a Batch (see _branches for their rows); then
    the heads, over every row.

    `prev` is a Forward of the same Batch under parameters that differ from
    params only in the blocks named in `changed` (named_tensors() block
    names). Then only the encoders of those blocks run again (none for a head
    block), and the head scores are recomputed; the result equals a fresh
    forward bit for bit, and prev is left as it was.
    """
    branches = _branches(params, b)
    traces = [conv_forward_batch(enc, b.x[:, :, rows], b.lengths[rows])
              if prev is None or "f_" + s in changed else prev.traces[k]
              for k, (s, enc, _, rows) in enumerate(branches)]
    return Forward(traces=traces, scores=_scores(branches, [tr.output for tr in traces]))


def _scores(branches, outs, lead: tuple[int, ...] = ()) -> np.ndarray:
    """Head scores of every row from the branch outputs `outs` and the heads
    of `branches` (_branches order), each segment's rows through its own
    domain's heads. Outputs or heads may carry a leading axis of stacked
    copies, whose shape `lead` the scores then carry too."""
    (_, _, u0, _), *mid, (_, _, ua, _) = branches
    r0, *rt, ra = outs
    scores = np.empty((*lead, r0.shape[-2], u0.shape[-1]))
    for (_, _, ut, rows), out in zip(mid, rt):
        scores[..., rows, :] = head_scores((r0[..., rows, :], out, ra[..., rows, :]), (u0, ut, ua))
    return scores


def _residuals(b: Batch, outs, scores, theta, err=True, attr=True, means=True, nb=True):
    """What the loss terms square and sum, from the branch outputs `outs`
    (_branches order) and head scores of a Batch under the attribute map
    theta, on the rows the terms read (up to the last segment's end):
    (outs cut to those rows, the classification error, the attribute residual
    f_a(X) - theta.T a, f_0's mean over each segment, the neighbor differences
    of the concatenated target representation). A residual whose flag is off
    is None. Any of outs, scores and theta may carry a leading axis of stacked
    copies; what is computed from them then carries it too.
    """
    tgt = b.segments[-1][1]
    r0, *rt, ra = outs
    r0, ra = r0[..., :tgt.stop, :], ra[..., :tgt.stop, :]
    rt[-1] = rt[-1][..., :tgt.stop - tgt.start, :]
    y = b.y[:tgt.stop]
    e = g_attr = mu = diff = None
    if err:
        e = np.where(y.any(axis=1, keepdims=True), scores[..., :tgt.stop, :] - y, 0.0)
    if attr:
        g_attr = ra - b.a @ theta
    if means:
        # np.mean's own sum and division, without its call overhead
        mu = [r0[..., rows, :].sum(axis=-2) / (rows.stop - rows.start) for _, rows in b.segments]
    if nb:
        parts = [r0[..., tgt, :], rt[-1], ra[..., tgt, :]]
        lead = max(r0.shape[:-2], rt[-1].shape[:-2], ra.shape[:-2], key=len)
        if lead:
            parts = [np.broadcast_to(p, (*lead, *p.shape[-2:])) for p in parts]
        feats = np.concatenate(parts, axis=-1)
        # adjacency is symmetric: both orders. np.take, unlike indexing with
        # [..., src, :], leaves each copy's gathered rows C-contiguous, as the
        # one-copy gather does, so their sum of squares adds in the same order
        src, dst = b.edges
        diff = np.take(feats, src, axis=-2) - np.take(feats, dst, axis=-2)
    return [r0, *rt, ra], e, g_attr, mu, diff


def _sum_squares(x, ndim: int):
    """Sum of the squared entries of an ndim-D array x, or of each ndim-D copy
    along leading axes of x, in one call, each copy's sum bit for bit its own:
    einsum's order depends only on a copy's strides, and a (1, n) @ (n, 1)
    matmul makes per copy the BLAS dot call that a vector's x @ x makes."""
    if ndim == 1:
        return (x[..., None, :] @ x[..., :, None])[..., 0, 0]
    return np.einsum("...ij,...ij->...", x, x)


def _breakdown(b: Batch, cfg: TrainConfig, err, g_attr, means, diff) -> ObjectiveBreakdown:
    """The five terms and the weighted total from _residuals' residuals: floats,
    or (K,) arrays when the residuals carry a leading axis of K copies."""
    tgt = b.segments[-1][1]
    sq = np.einsum("...ij,...ij->...i", err, err)
    aux, tgt_cls = sq[..., :tgt.start].sum(axis=-1), sq[..., tgt].sum(axis=-1)
    attr = _sum_squares(g_attr, 2)
    dom = sum((_sum_squares(means[t] - means[t2], 1)
               for t, t2 in combinations(range(len(means)), 2)), 0.0)
    nb = _sum_squares(diff, 2)
    total = aux + tgt_cls + cfg.c1 * attr + cfg.c2 * dom + cfg.c3 * nb
    if not isinstance(total, np.ndarray):  # one copy: plain floats
        aux, tgt_cls, attr, dom, nb, total = map(float, (aux, tgt_cls, attr, dom, nb, total))
    return ObjectiveBreakdown(aux_cls=aux, tgt_cls=tgt_cls, attr_map=attr,
                              dom_match=dom, neighbor=nb, total=total)


def value_and_grad(params: ModelParams, b: Batch, f: Forward, cfg: TrainConfig,
                   grad: Collection[str], value: bool = True,
                   ) -> tuple[ObjectiveBreakdown | None, np.ndarray]:
    """The objective breakdown of a packed dataset (see pack) from its
    Forward f under params, and the exact sub-gradient of the blocks named in
    `grad` (params.blocks() for all, () for none), laid out as params.flat, +0.0
    outside them. Only their encoders run backward; heads and theta need no upstream term.
    With value=False the breakdown is None, and only what the asked-for blocks
    read is computed; the gradient is the same bit for bit. A name in `grad`
    that is not a block raises ValueError.

    Each asked-for encoder's per-point upstream gradient is built in one
    place, its terms in a fixed order (classification, attribute map, domain
    matching, neighbors), and the encoder gradients sum over points in
    (domain, point) order; a zero weight, one domain or no edges adds zeros.
    """
    T = params.n_domains
    tgt = b.segments[-1][1]
    asked, sl = set(grad), params.blocks()
    if not asked <= sl.keys():
        raise ValueError("no parameter block named "
                         + ", ".join(repr(n) for n in grad if n not in sl))
    # besides the breakdown, every block but theta reads the classification
    # error, theta and f_a the attribute residual, f_0 the domain means, and
    # f_0, f_T and f_a the neighbor differences
    outs, *res = _residuals(b, [tr.output for tr in f.traces], f.scores, params.theta,
                            err=value or asked - {"theta"},
                            attr=value or asked & {"theta", "f_a"},
                            means=value or "f_0" in asked,
                            nb=value or asked & {"f_0", f"f_{T}", "f_a"})
    bd = _breakdown(b, cfg, *res) if value else None
    err, g_attr, means, diff = res

    # classification terms; unlabeled rows are zero. Each head and theta sum is
    # added into the zeros, so it starts from +0.0, as conv_backward_batch does
    gsc = 2.0 * err if asked - {"theta"} else None
    gs = np.zeros(params.flat.size)
    if "theta" in asked:  # theta enters the attribute-map term (weight c1) only
        gs[sl["theta"]] += (-2.0 * cfg.c1 * (b.a.T @ g_attr)).ravel()
    # the columns of f_0, f_T and f_a in the neighbor differences ([f_0; f_T; f_a])
    m0, mt = params.dims.m0, params.dims.mt[T - 1]
    nb_cols = {"0": slice(None, m0), str(T): slice(m0, m0 + mt), "a": slice(m0 + mt, None)}
    nt = tgt.stop - tgt.start
    for (s, enc, head, rows), out, trace in zip(_branches(params, b), outs, f.traces):
        if "u_" + s in asked:
            gs[sl["u_" + s]] += (out.T @ gsc[rows]).ravel()
        if "f_" + s not in asked:
            continue
        # the encoder's per-point upstream: classification, then the terms below
        up = gsc[rows] @ head.T
        if s == "a":  # attribute-map term (weight c1)
            up += 2.0 * cfg.c1 * g_attr
        if s == "0":  # domain mean-matching term (weight c2)
            for t, (_, seg) in enumerate(b.segments):
                delta = 2.0 * sum((means[t] - means[t2]) for t2 in range(T) if t2 != t)
                up[seg] += cfg.c2 / (seg.stop - seg.start) * delta
        # neighbor smoothness term (weight c3) on the target rows, the last nt of
        # up; np.add.at adds each column on its own, in edge order
        if s in nb_cols:
            dfeat = np.zeros((nt, up.shape[1]))
            np.add.at(dfeat, b.edges[0], diff[:, nb_cols[s]])
            up[-nt:] += 4.0 * cfg.c3 * dfeat
        gs[sl["f_" + s]] = np.concatenate(conv_backward_batch(enc, trace, up), axis=None)
    return bd, gs


def stacked_totals(params: ModelParams, b: Batch, base: Forward, cfg: TrainConfig,
                   block: str, arr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The weighted totals of a packed dataset with the tensor `arr` of
    `block` replaced by each of the K arrays in `values`, from base, its
    Forward at params: a (K,) array, bit for bit the totals of K fresh
    forwards. The K copies run at once along a leading axis: an encoder
    tensor's in one conv_forward_batch call over a bank of the (copy, filter)
    pairs whose bytes differ from arr's (none if none do), every other filter
    output copied from base; a head's or theta's through stacked products."""
    K = len(values)
    branches = _branches(params, b)
    outs = [tr.output for tr in base.traces]
    for k, (s, enc, _, rows) in enumerate(branches):
        if block == "f_" + s:
            # compared as bytes: != would take -0.0 for 0.0
            moved = np.nonzero((values.view(np.uint64) != arr.view(np.uint64))
                               .reshape(K, enc.m, -1).any(axis=2))
            # (K, m, n) viewed as (K, n, m): each copy keeps one encoder's (n, m) strides
            stack = np.repeat(outs[k].T[None], K, axis=0)
            if len(moved[0]):
                bank = ConvBlock(*(values[moved] if t is arr else t[moved[1]]
                                   for t in (enc.filters, enc.bias)))
                stack[moved] = conv_forward_batch(bank, b.x[:, :, rows], b.lengths[rows]).output.T
            outs[k] = stack.transpose(0, 2, 1)
        elif block == "u_" + s:
            branches[k] = (s, enc, values, rows)
    scores = base.scores if block == "theta" else _scores(branches, outs, (K,))
    theta = values if block == "theta" else params.theta
    return _breakdown(b, cfg, *_residuals(b, outs, scores, theta)[1:]).total


def objective(params: ModelParams, ds: MultiDomainDataset,
              graph: NeighborGraph | None, cfg: TrainConfig) -> ObjectiveBreakdown:
    """All five terms (unweighted) plus the weighted total, in one forward pass.

    Every labeled point the trainer sees counts; `graph` has one node per
    point of ds.target_train_points().
    """
    b = pack(params, ds, graph)
    return value_and_grad(params, b, forward(params, b), cfg, ())[0]


def gradient(params: ModelParams, ds: MultiDomainDataset, graph: NeighborGraph | None,
             cfg: TrainConfig) -> np.ndarray:
    """Exact sub-gradient of the weighted total, laid out as params.flat."""
    b = pack(params, ds, graph)
    return value_and_grad(params, b, forward(params, b), cfg, params.blocks(), value=False)[1]


def neighbor_loss(params: ModelParams, ds: MultiDomainDataset, graph: NeighborGraph) -> float:
    """Sum over ordered neighbor pairs of squared distance between the
    concatenated target representations."""
    return objective(params, ds, graph, TrainConfig()).neighbor


def _accuracy(scores: np.ndarray, y: np.ndarray) -> float:
    """Fraction of rows whose top score is the label's class (NaN for no rows)."""
    correct = np.count_nonzero(scores.argmax(axis=1) == y.argmax(axis=1))
    return int(correct) / len(y) if len(y) else math.nan


@np.errstate(all="ignore")  # non-finite scores raise DataError, which warnings would only repeat
def evaluate(params: ModelParams, points: list[DataPoint], t: int) -> float:
    """Fraction of points whose predicted class matches the label's argmax;
    predictions break score ties toward the lowest class index."""
    if not points:
        raise DataError("cannot evaluate on an empty point collection")
    if any(p.y is None for p in points):
        raise DataError("evaluation requires labeled points")
    if not 0 <= t < params.n_domains:
        raise ValueError(f"domain index {t} out of range [0, {params.n_domains})")
    b = _batch([(t, points)], params.dims.y_dim)
    scores = forward(params, b).scores
    if not np.isfinite(scores).all():
        raise DataError(f"domain {t}: the model's scores are not finite")
    return _accuracy(scores, b.y)


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


def _iterate(params: ModelParams, b: Batch, f: Forward, gs: np.ndarray, sweep: list[tuple],
             cfg: TrainConfig, tau: float) -> tuple[Forward, ObjectiveBreakdown, np.ndarray]:
    """One iteration: each step of `sweep` (a tuple of block names) moves params.flat by -tau
    times the gradient of its blocks (for the first step gs, which came with f, the Forward of
    params) and re-runs only their encoders. Returns the new Forward, its breakdown and sweep[0]'s
    gradient, the next call's f and gs; the f and gs given are left as they were."""
    for k, step in enumerate(sweep):
        if k:
            gs = value_and_grad(params, b, f, cfg, step, value=False)[1]
        # gs is +0.0 outside the step's blocks and tau is finite and >= 0: x - +0.0 is x, -0.0 too
        params.flat -= tau * gs
        f = forward(params, b, f, step)
    bd, gs = value_and_grad(params, b, f, cfg, sweep[0])
    return f, bd, gs


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
    drops below 1e-6. Each row's breakdown and test accuracy come from the
    forward pass that also yields the next iteration's first gradient.
    """
    T = ds.n_domains
    if not any(p.y is not None for p in ds.target_train_points()):
        raise DataError("training requires at least one labeled target point")

    dims = Dims(d=ds.d, a_dim=ds.a_dim, y_dim=ds.y_dim,
                m0=cfg.m0, ma=cfg.ma, mt=(cfg.mt,) * T, w=cfg.w)
    params = init_params(dims, Rng(cfg.seed), cfg.init_range)
    batch = pack(params, ds, graph)
    test = slice(batch.segments[-1][1].stop, None)  # the target test rows
    # joint mode steps every block at once; block-cyclic one block per gradient, in flat's order
    blocks = tuple(params.blocks())
    sweep = [blocks] if cfg.update_mode == "joint" else [(block,) for block in blocks]

    f = forward(params, batch)
    bd, gs = value_and_grad(params, batch, f, cfg, sweep[0])
    if not math.isfinite(bd.total):
        raise DivergenceError(0, cfg.tau, bd)
    rows = [TrajectoryRow(0, bd, _accuracy(f.scores[test], batch.y[test]))]
    for it in range(1, cfg.max_iters + 1):
        f, bd, gs = _iterate(params, batch, f, gs, sweep, cfg, cfg.tau)
        if not math.isfinite(bd.total):
            raise DivergenceError(it, cfg.tau, bd)
        rows.append(TrajectoryRow(it, bd, _accuracy(f.scores[test], batch.y[test])))
        prev = rows[-2].breakdown.total
        if abs(bd.total - prev) <= EARLY_STOP_REL_TOL * max(abs(prev), 1e-300):
            break
    return params, rows
