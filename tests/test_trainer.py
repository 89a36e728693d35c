"""Tests for the sub-gradient training loop and trajectory reporting."""

import math

import numpy as np
import pytest

from convtransfer.dataset import (
    ROLE_TEST,
    SynthSpec,
    build_neighbor_graph,
    generate_synthetic,
    split_target,
    training_view,
)
from convtransfer.objective import (
    CSV_HEADER,
    DivergenceError,
    TrainConfig,
    evaluate,
    train,
    write_trajectory_csv,
)


def small_instance(seed, n_domains=2, points=8, noise=0.5):
    spec = SynthSpec(n_domains=n_domains, points_per_domain=points,
                     d=4, a_dim=5, y_dim=2, l_min=3, l_max=5, noise=noise)
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

    def test_divergence_raises_with_iteration(self):
        ds, graph = small_instance(0)
        cfg = TrainConfig(tau=1e3, max_iters=50, seed=0)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as exc:
            train(ds, graph, cfg)
        assert exc.value.iteration >= 1

    def test_requires_a_labeled_target_point(self):
        ds, graph = small_instance(0)
        for p in ds.target:
            p.role = ROLE_TEST
        with pytest.raises(ValueError):
            train(ds, graph, TrainConfig(tau=1e-4, max_iters=1, seed=0))


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

    def test_training_view_hides_test_and_unlabeled(self):
        ds, _ = small_instance(1)
        view = training_view(ds)
        n_test = sum(1 for p in ds.target if p.role == ROLE_TEST)
        assert len(view.target) == len(ds.target) - n_test
        assert all(p.role != ROLE_TEST for p in view.target)
        labeled = [p for p in view.target if p.y is not None]
        assert 0 < len(labeled) < len(ds.target)

    def test_training_view_identity_without_roles(self):
        spec = SynthSpec(n_domains=2, points_per_domain=6, d=4, a_dim=5,
                         y_dim=2, l_min=3, l_max=4)
        ds = generate_synthetic(spec, seed=7)
        assert training_view(ds) is ds


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
        spec = SynthSpec(n_domains=2, points_per_domain=6, d=4, a_dim=5,
                         y_dim=2, l_min=3, l_max=4)
        ds = generate_synthetic(spec, seed=3)  # no roles assigned
        _, rows = train(ds, None, TrainConfig(tau=1e-5, max_iters=1,
                                              seed=3, c3=0.0))
        assert math.isnan(rows[0].accuracy)
        path = tmp_path / "curve.csv"
        write_trajectory_csv(rows, str(path))
        assert "nan" in path.read_text().splitlines()[1]
