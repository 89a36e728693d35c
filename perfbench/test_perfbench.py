"""Self-checks of the benchmark's reference model and tracing wrappers.

Quick enough to run with the test suite: tiny hand-made inputs only.
"""

import importlib
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import reference as ref  # noqa: E402
import tracer  # noqa: E402


def test_encode_pads_applies_relu_and_pools():
    filters = np.array([[[1.0, 0.0]], [[-1.0, 0.0]]])  # m=2, d=1, w=2
    bias = np.array([0.0, 0.5])
    long = np.array([[1.0, 3.0, 2.0]])
    short = np.array([[4.0]])  # L < w: right-padded with a zero column
    out = ref.encode((filters, bias), [long, short])
    # filter 0 reads the first column of each window: max(1, 3) and 4
    # filter 1 is 0.5 - x: ReLU leaves 0 everywhere but never a negative
    assert out.tolist() == [[3.0, 0.0], [4.0, 0.0]]


def test_split_roles_sizes_and_permutation():
    roles = ref.split_roles(11, seed=123)
    assert roles.count(ref.TEST) == 5
    assert roles.count(ref.LABELED) == 3
    assert roles.count(ref.UNLABELED) == 3
    perm = np.random.Generator(np.random.PCG64(123)).permutation(11)
    assert [roles[i] for i in perm[:5]] == [ref.TEST] * 5


def test_knn_graph_is_symmetric_union():
    pts = [{"x": np.array([[v]])} for v in (0.0, 1.0, 3.0, 7.0)]
    assert ref.knn_graph(pts, 1) == [[1], [0, 2], [1, 3], [2]]


def test_reference_objective_matches_package_on_a_smooth_instance():
    from convtransfer.gradcheck import random_smooth_instance
    from convtransfer.objective import objective

    params, ds, graph, cfg = random_smooth_instance(7, points_per_domain=3, knn_k=1)
    view = ref.domains_from_dataset(ds)
    assert graph.neighbors == ref.knn_graph(view[-1], 1)
    expect = ref.objective(ref.model_from_params(params), view, graph.neighbors,
                           cfg.c1, cfg.c2, cfg.c3)["total"]
    got = objective(params, ds, graph, cfg).total
    assert abs(got - expect) <= 1e-9 * abs(expect)


def test_tracer_wraps_every_namespace_and_restores():
    from convtransfer.gradcheck import random_smooth_instance

    # the package re-exports a function named `objective`, which shadows the
    # submodule of that name as a package attribute
    convnet, model, objective = (importlib.import_module(f"convtransfer.{m}")
                                 for m in ("convnet", "model", "objective"))

    params, ds, _, _ = random_smooth_instance(3, points_per_domain=2)
    original = convnet.conv_forward
    t = tracer.Tracer(["convnet.conv_forward", "model.represent"])
    t.install()
    try:
        assert model.conv_forward is convnet.conv_forward is not original
        objective.represent(params, ds.domains[0][0].x, 0)
    finally:
        t.uninstall()
    assert model.conv_forward is convnet.conv_forward is original
    stats = t.snapshot()
    assert stats["model.represent"]["calls"] == 1
    assert stats["convnet.conv_forward"]["calls"] == 3
    rep = stats["model.represent"]
    assert 0.0 <= rep["self_s"] <= rep["s"]
    assert stats["convnet.conv_forward"]["s"] <= rep["s"]
