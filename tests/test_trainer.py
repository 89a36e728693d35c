"""Tests for the sub-gradient training loop and trajectory reporting."""

import math
import warnings
from dataclasses import astuple, fields, replace

import numpy as np
import pytest

from convtransfer.dataset import (
    ROLE_TEST,
    SynthSpec,
    build_neighbor_graph,
    generate_synthetic,
    split_target,
)
from convtransfer.model import Dims, init_params
from convtransfer.numeric import Rng
from convtransfer.objective import (
    CSV_HEADER,
    DivergenceError,
    ObjectiveBreakdown,
    TrainConfig,
    _iterate,
    evaluate,
    forward,
    gradient,
    objective,
    pack,
    train,
    value_and_grad,
    write_trajectory_csv,
)


def small_instance(seed, n_domains=2, points=8, noise=0.5):
    spec = SynthSpec(domains=n_domains, points_per_domain=points,
                     feature_dim=4, attr_dim=5, classes=2, l_min=3, l_max=5, noise=noise)
    ds = generate_synthetic(spec, seed=seed)
    split_target(ds, seed=seed)
    graph = build_neighbor_graph(ds.target_train_points(), 1)
    return ds, graph


class TestTrainLoop:
    def test_zero_step_trajectory_is_flat_and_stops_early(self):
        ds, graph = small_instance(0)
        cfg = TrainConfig(tau=0.0, max_iters=50, seed=0)
        _, rows = train(ds, graph, cfg)
        # one step changes nothing, so the early-stop fires immediately
        assert len(rows) == 2
        assert rows[0].breakdown.total == rows[1].breakdown.total

    def test_small_step_decreases_total(self):
        for seed in range(5):
            ds, graph = small_instance(seed)
            cfg = TrainConfig(tau=1e-5, max_iters=1, seed=seed)
            _, rows = train(ds, graph, cfg)
            assert rows[1].breakdown.total < rows[0].breakdown.total

    def test_row_zero_is_initial_state(self):
        ds, graph = small_instance(3)
        cfg = TrainConfig(tau=1e-4, max_iters=5, seed=3)
        _, rows = train(ds, graph, cfg)
        assert rows[0].iteration == 0
        assert [r.iteration for r in rows] == list(range(len(rows)))

    def test_block_cyclic_also_descends(self):
        ds, graph = small_instance(1)
        cfg = TrainConfig(tau=1e-5, max_iters=3, seed=1,
                          update_mode="block-cyclic")
        _, rows = train(ds, graph, cfg)
        totals = [r.breakdown.total for r in rows]
        assert totals[-1] < totals[0]
        # the sweep's first step moves f_0 alone, and every other entry keeps its
        # bytes, a -0.0 too: a gradient of -0.0 there would make it +0.0
        params, b, sweep, f, gs = _initial_state(ds, graph, cfg)
        params.flat[params.blocks()["u_a"].start] = -0.0
        before = params.flat.copy()
        _iterate(params, b, f, gs, sweep[:1], cfg, cfg.tau)
        rest = slice(params.blocks()["f_0"].stop, None)
        assert params.flat[rest].tobytes() == before[rest].tobytes()
        assert math.copysign(1.0, params.flat[params.blocks()["u_a"].start]) == -1.0

    def test_modes_differ_after_one_iteration(self):
        # block-cyclic recomputes the gradient between blocks, so it does
        # not retrace the joint path
        ds, graph = small_instance(2)
        out = {}
        for mode in ("joint", "block-cyclic"):
            cfg = TrainConfig(tau=1e-3, max_iters=1, seed=2, update_mode=mode)
            _, rows = train(ds, graph, cfg)
            out[mode] = rows[1].breakdown.total
        assert out["joint"] != out["block-cyclic"]

    @pytest.mark.parametrize("mode", ["joint", "block-cyclic"])
    def test_last_row_is_the_objective_at_the_returned_parameters(self, mode):
        # each row comes from the forward pass that also feeds the next step
        ds, graph = small_instance(5)
        cfg = TrainConfig(tau=1e-4, max_iters=3, seed=5, update_mode=mode)
        params, rows = train(ds, graph, cfg)
        assert len(rows) == 4
        assert rows[-1].breakdown == objective(params, ds, graph, cfg)

    def test_divergence_raises_with_iteration(self):
        ds, graph = small_instance(0)
        cfg = TrainConfig(tau=1e3, max_iters=50, seed=0)
        # train itself keeps numpy's floating-point warnings in
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as exc:
                train(ds, graph, cfg)
        assert exc.value.iteration >= 1
        msg = str(exc.value)
        assert f"iteration {exc.value.iteration} " in msg and "tau 1000.0" in msg
        assert any(f"{f.name} is " in msg for f in fields(ObjectiveBreakdown))

    def test_divergence_at_the_initial_state_is_iteration_0(self):
        # finite inputs near 1e200 overflow the initial objective
        ds, _ = small_instance(0)
        for dom in ds.domains:
            for p in dom:
                p.x *= 1e200
        with pytest.raises(DivergenceError) as exc:
            train(ds, None, TrainConfig(tau=1e-4, max_iters=5, seed=0))
        assert exc.value.iteration == 0
        msg = str(exc.value)
        assert "iteration 0 " in msg and "tau" not in msg

    def test_divergence_names_the_first_non_finite_term(self):
        bd = ObjectiveBreakdown(aux_cls=1.0, tgt_cls=math.nan, attr_map=2.0,
                                dom_match=math.inf, neighbor=3.0, total=math.nan)
        err = DivergenceError(7, 0.5, bd)
        assert err.iteration == 7
        assert str(err) == "objective diverged at iteration 7 with tau 0.5: tgt_cls is nan"

    def test_requires_a_labeled_target_point(self):
        ds, graph = small_instance(0)
        for p in ds.target:
            p.role = ROLE_TEST
        with pytest.raises(ValueError):
            train(ds, graph, TrainConfig(tau=1e-4, max_iters=1, seed=0))


def reference_training(ds, graph, cfg):
    """Descent that recomputes the full forward and the full gradient before
    every step: one step of every block per joint iteration, one step per
    block in a block-cyclic sweep. Returns the parameters and, per iteration,
    the breakdown and the target test accuracy."""
    T = ds.n_domains
    dims = Dims(d=ds.d, a_dim=ds.a_dim, y_dim=ds.y_dim, m0=cfg.m0, ma=cfg.ma,
                mt=(cfg.mt,) * T, w=cfg.w)
    params = init_params(dims, Rng(cfg.seed), cfg.init_range)

    def row():
        return objective(params, ds, graph, cfg), evaluate(params, ds.target_points(ROLE_TEST),
                                                             T - 1)

    blocks = params.blocks()

    def step(names):
        gs = gradient(params, ds, graph, cfg)
        for block in names:
            params.flat[blocks[block]] -= cfg.tau * gs[blocks[block]]

    rows = [row()]
    for _ in range(cfg.max_iters):
        if cfg.update_mode == "joint":
            step(blocks)
        else:
            for block in blocks:
                step([block])
        rows.append(row())
    return params, rows


@pytest.mark.parametrize("mode", ["joint", "block-cyclic"])
@pytest.mark.parametrize("n_domains", [1, 2])
def test_training_matches_full_recompute_reference(n_domains, mode):
    # every row's accuracy too, which reads the training forward's test rows:
    # the step size is large enough that the accuracy moves between rows
    ds, graph = small_instance(7, n_domains=n_domains)
    cfg = TrainConfig(tau=1e-2, max_iters=3, seed=7, update_mode=mode)
    params, rows = train(ds, graph, cfg)
    want_params, want_rows = reference_training(ds, graph, cfg)
    assert len({acc for _, acc in want_rows}) > 1
    assert ([(key, arr.tobytes()) for _, key, arr in params.named_tensors()]
            == [(key, arr.tobytes()) for _, key, arr in want_params.named_tensors()])
    assert len(rows) == len(want_rows) == cfg.max_iters + 1
    for r, (bd, acc) in zip(rows, want_rows):
        assert repr((astuple(r.breakdown), r.accuracy)) == repr((astuple(bd), acc)), r.iteration


def _initial_state(ds, graph, cfg):
    """What train holds before its first iteration: the initial parameters,
    the packed batch, the sweep, and the Forward with sweep[0]'s gradient."""
    T = ds.n_domains
    dims = Dims(d=ds.d, a_dim=ds.a_dim, y_dim=ds.y_dim, m0=cfg.m0, ma=cfg.ma,
                mt=(cfg.mt,) * T, w=cfg.w)
    params = init_params(dims, Rng(cfg.seed), cfg.init_range)
    b = pack(params, ds, graph)
    blocks = tuple(params.blocks())
    sweep = [blocks] if cfg.update_mode == "joint" else [(block,) for block in blocks]
    f = forward(params, b)
    return params, b, sweep, f, value_and_grad(params, b, f, cfg, sweep[0])[1]


def _bytes(params=None, f=None, gs=None):
    """The bytes of every parameter tensor, Forward array and gradient array given."""
    out = [] if params is None else [(key, arr.tobytes()) for _, key, arr in params.named_tensors()]
    if f is not None:
        out += [a.tobytes() for tr in f.traces for a in astuple(tr)] + [f.scores.tobytes()]
    if gs is not None:
        out.append(gs.tobytes())
    return out


@pytest.mark.parametrize("mode", ["joint", "block-cyclic"])
def test_an_iteration_retried_from_a_snapshot_repeats_bit_for_bit(mode):
    # a step rule that rejects a step restores the parameters and calls
    # _iterate again with the f and gs it was given before
    ds, graph = small_instance(7)
    cfg = TrainConfig(tau=1e-2, max_iters=1, seed=7, update_mode=mode)
    params, b, sweep, f, gs = _initial_state(ds, graph, cfg)
    snapshot = params.flat.copy()
    given = _bytes(f=f, gs=gs)

    def retry(tau):
        params.flat[...] = snapshot
        new_f, bd, new_gs = _iterate(params, b, f, gs, sweep, cfg, tau)
        assert _bytes(f=f, gs=gs) == given
        # the gradient returned is sweep[0]'s at the new parameters
        full, want = gradient(params, ds, graph, cfg), np.zeros(params.flat.size)
        for block in sweep[0]:
            want[params.blocks()[block]] = full[params.blocks()[block]]
        assert _bytes(gs=new_gs) == _bytes(gs=want)
        return _bytes(params), new_f.scores.tobytes(), repr(astuple(bd))

    half = retry(cfg.tau / 2)
    assert retry(cfg.tau / 2) == half
    whole = retry(cfg.tau)
    assert whole[0] != half[0]
    for tau, got in ((cfg.tau, whole), (cfg.tau / 2, half)):
        want_params, want_rows = train(ds, graph, replace(cfg, tau=tau))
        assert got[0] == _bytes(want_params), tau
        assert got[2] == repr(astuple(want_rows[1].breakdown)), tau


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        ds, graph = small_instance(4)
        cfg = TrainConfig(tau=1e-4, max_iters=10, seed=4)
        p1, r1 = train(ds, graph, cfg)
        p2, r2 = train(ds, graph, cfg)
        assert np.array_equal(p1.theta, p2.theta)
        assert np.array_equal(p1.f_0.filters, p2.f_0.filters)
        assert [r.breakdown.total for r in r1] == [r.breakdown.total for r in r2]
        assert [r.accuracy for r in r1] == [r.accuracy for r in r2]

    def test_different_seeds_differ(self):
        ds, graph = small_instance(6)
        totals = set()
        for seed in range(3):
            cfg = TrainConfig(tau=1e-4, max_iters=3, seed=seed)
            _, rows = train(ds, graph, cfg)
            totals.add(rows[0].breakdown.total)
        assert len(totals) == 3


class TestEvaluateAndView:
    def test_evaluate_bounds_and_errors(self):
        ds, graph = small_instance(0)
        cfg = TrainConfig(tau=1e-4, max_iters=2, seed=0)
        params, rows = train(ds, graph, cfg)
        test_points = [p for p in ds.target if p.role == ROLE_TEST]
        acc = evaluate(params, test_points, ds.n_domains - 1)
        assert 0.0 <= acc <= 1.0
        assert rows[-1].accuracy == acc
        with pytest.raises(ValueError):
            evaluate(params, [], 0)

    def test_zero_heads_score_every_point_as_class_0(self):
        # every score ties at zero, and ties break toward the lowest class
        ds, _ = small_instance(0)
        dims = Dims(d=ds.d, a_dim=ds.a_dim, y_dim=ds.y_dim, m0=4, ma=4,
                    mt=(4,) * ds.n_domains, w=2)
        params = init_params(dims, Rng(0))
        for _, _, arr in params.named_tensors():
            arr[...] = 0.0
        points = ds.domains[0]
        assert evaluate(params, [p for p in points if p.y[0] == 1.0], 0) == 1.0
        assert evaluate(params, [p for p in points if p.y[1] == 1.0], 0) == 0.0

    def test_training_view_hides_test_and_unlabeled(self):
        ds, _ = small_instance(1)
        view = ds.target_train_points()
        n_test = sum(1 for p in ds.target if p.role == ROLE_TEST)
        assert len(view) == len(ds.target) - n_test
        assert all(p.role != ROLE_TEST for p in view)
        labeled = [p for p in view if p.y is not None]
        assert 0 < len(labeled) < len(ds.target)

    def test_training_view_identity_without_roles(self):
        spec = SynthSpec(domains=2, points_per_domain=6, feature_dim=4, attr_dim=5,
                         classes=2, l_min=3, l_max=4)
        ds = generate_synthetic(spec, seed=7)
        view = ds.target_train_points()
        assert len(view) == len(ds.target)
        assert all(p is q for p, q in zip(view, ds.target))


class TestTrajectoryCsv:
    def test_csv_round_trips_exactly(self, tmp_path):
        ds, graph = small_instance(2)
        cfg = TrainConfig(tau=1e-4, max_iters=4, seed=2)
        _, rows = train(ds, graph, cfg)
        path = tmp_path / "curve.csv"
        write_trajectory_csv(rows, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == len(rows) + 1
        for line, row in zip(lines[1:], rows):
            cells = line.split(",")
            assert int(cells[0]) == row.iteration
            assert float(cells[6]) == row.breakdown.total
            assert float(cells[7]) == row.accuracy

    def test_accuracy_nan_without_test_points(self, tmp_path):
        spec = SynthSpec(domains=2, points_per_domain=6, feature_dim=4, attr_dim=5,
                         classes=2, l_min=3, l_max=4)
        ds = generate_synthetic(spec, seed=3)  # no roles assigned
        _, rows = train(ds, None, TrainConfig(tau=1e-5, max_iters=1,
                                              seed=3, c3=0.0))
        assert math.isnan(rows[0].accuracy)
        path = tmp_path / "curve.csv"
        write_trajectory_csv(rows, str(path))
        assert "nan" in path.read_text().splitlines()[1]
