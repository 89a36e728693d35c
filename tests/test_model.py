import json

import numpy as np
import pytest

from convtransfer.convnet import ConvBlock, conv_forward
from convtransfer.dataset import DataError
from convtransfer.model import (
    Dims,
    ModelParams,
    classify,
    init_params,
    load_params,
    predict,
    represent,
    save_params,
)
from convtransfer.numeric import Rng

DIMS = Dims(d=3, a_dim=4, y_dim=2, m0=3, ma=2, mt=(2, 3), w=2)


def make_params(seed=0, scale=0.1):
    return init_params(DIMS, Rng(seed), scale)


def zero_params():
    return ModelParams(
        dims=DIMS,
        f_a=ConvBlock(np.zeros((2, 3, 2)), np.zeros(2)),
        f_0=ConvBlock(np.zeros((3, 3, 2)), np.zeros(3)),
        f_dom=[ConvBlock(np.zeros((2, 3, 2)), np.zeros(2)),
               ConvBlock(np.zeros((3, 3, 2)), np.zeros(3))],
        theta=np.zeros((4, 2)),
        u0=np.zeros((3, 2)),
        ua=np.zeros((2, 2)),
        u_dom=[np.zeros((2, 2)), np.zeros((3, 2))],
    )


class TestRepresent:
    def test_zero_params_give_zero_representation(self):
        rep, _ = represent(zero_params(), np.ones((3, 4)), 0)
        assert not np.any(rep.r0) and not np.any(rep.rt) and not np.any(rep.ra)

    def test_shared_branches_identical_across_domains(self):
        params = make_params(7)
        x = Rng(8).normal((3, 5))
        rep0, _ = represent(params, x, 0)
        rep1, _ = represent(params, x, 1)
        assert np.array_equal(rep0.r0, rep1.r0)
        assert np.array_equal(rep0.ra, rep1.ra)

    def test_branches_match_standalone_conv_forward(self):
        params = make_params(9)
        x = Rng(10).normal((3, 4))
        rep, _ = represent(params, x, 1)
        assert np.array_equal(rep.r0, conv_forward(params.f_0, x)[0])
        assert np.array_equal(rep.rt, conv_forward(params.f_dom[1], x)[0])
        assert np.array_equal(rep.ra, conv_forward(params.f_a, x)[0])

    def test_rejects_bad_domain_index(self):
        with pytest.raises(ValueError):
            represent(make_params(), np.ones((3, 4)), 2)


class TestClassify:
    def test_zero_heads_give_zero_scores(self):
        zp = zero_params()
        rep_for_zero, _ = represent(zp, Rng(12).normal((3, 4)), 0)
        assert np.array_equal(classify(zp, rep_for_zero), np.zeros(2))

    def test_zero_representation_gives_zero_scores(self):
        params = make_params(13)
        rep, _ = represent(zero_params(), np.ones((3, 4)), 0)
        assert np.array_equal(classify(params, rep), np.zeros(2))

    def test_matches_matvec_oracle(self):
        params = make_params(14)
        rep, _ = represent(params, Rng(15).normal((3, 6)), 1)
        want = (params.u0.T @ rep.r0 + params.u_dom[1].T @ rep.rt
                + params.ua.T @ rep.ra)
        assert np.array_equal(classify(params, rep), want)

    def test_linear_in_representation_for_power_of_two_scale(self):
        # no bias term, so scaling by 2 commutes exactly in floating point
        params = make_params(16)
        rep, _ = represent(params, Rng(17).normal((3, 5)), 0)
        rep2 = type(rep)(r0=2.0 * rep.r0, rt=2.0 * rep.rt, ra=2.0 * rep.ra, t=0)
        assert np.array_equal(classify(params, rep2), 2.0 * classify(params, rep))


class TestPredict:
    def test_basic(self):
        assert predict(np.array([0.1, 0.9])) == 1

    def test_tie_breaks_low(self):
        assert predict(np.array([0.5, 0.5])) == 0

    def test_matches_linear_scan_oracle(self):
        rng = Rng(18)
        for _ in range(50):
            v = rng.normal((6,))
            best = 0
            for i in range(1, 6):
                if v[i] > v[best]:
                    best = i
            assert predict(v) == best

    def test_invariant_under_constant_shift(self):
        v = np.array([1.0, -2.0, 3.5, 0.25])
        assert predict(v) == predict(v + 8.0)


class TestInitParams:
    def test_deterministic(self):
        a, b = make_params(42), make_params(42)
        assert np.array_equal(a.theta, b.theta)
        assert np.array_equal(a.f_0.filters, b.f_0.filters)
        assert np.array_equal(a.u_dom[1], b.u_dom[1])

    def test_range(self):
        p = make_params(43)
        for arr in (p.f_a.filters, p.f_0.filters, p.theta, p.u0, p.ua):
            assert np.all(np.abs(arr) <= 0.1)

    def test_different_seeds_differ(self):
        assert not np.array_equal(make_params(1).theta, make_params(2).theta)


def test_save_load_round_trip_bit_exact(tmp_path):
    params = make_params(77)
    path = str(tmp_path / "model.json")
    save_params(params, path)
    loaded = load_params(path)
    assert loaded.dims == params.dims
    assert np.array_equal(loaded.theta, params.theta)
    assert np.array_equal(loaded.f_a.filters, params.f_a.filters)
    assert np.array_equal(loaded.f_a.bias, params.f_a.bias)
    assert np.array_equal(loaded.f_0.filters, params.f_0.filters)
    for t in range(2):
        assert np.array_equal(loaded.f_dom[t].filters, params.f_dom[t].filters)
        assert np.array_equal(loaded.u_dom[t], params.u_dom[t])
    assert np.array_equal(loaded.u0, params.u0)
    assert np.array_equal(loaded.ua, params.ua)


def test_model_file_in_the_old_key_order_loads_bit_exactly(tmp_path):
    # model files once listed f_a, f_0, theta, u0, ua, then each domain's
    # encoder and head; keys are looked up by name, so the order is free
    params = make_params(78)
    d = params.dims
    tensors = {key: arr for _, key, arr in params.named_tensors()}
    old_order = ["f_a.filters", "f_a.bias", "f_0.filters", "f_0.bias", "theta", "u0", "ua"]
    for t in range(d.n_domains):
        old_order += [f"f_dom.{t}.filters", f"f_dom.{t}.bias", f"u_dom.{t}"]
    doc = {"format_version": 1,
           "dims": {"d": d.d, "a_dim": d.a_dim, "y_dim": d.y_dim,
                    "m0": d.m0, "ma": d.ma, "mt": list(d.mt), "w": d.w},
           "params": {k: {"shape": list(tensors[k].shape), "data": tensors[k].ravel().tolist()}
                      for k in old_order}}
    path = tmp_path / "old.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    loaded = load_params(str(path))
    for (_, key, want), (_, _, got) in zip(params.named_tensors(), loaded.named_tensors()):
        assert got.tobytes() == want.tobytes(), key


def test_load_rejects_malformed_model_files(tmp_path):
    path = tmp_path / "model.json"
    save_params(make_params(79), str(path))
    good = json.loads(path.read_text())
    corruptions = {
        "version": lambda doc: doc.update(format_version=2),
        "missing": lambda doc: doc["params"].pop("u_dom.1"),
        "shape": lambda doc: doc["params"]["theta"].update(shape=[2, 4]),
    }
    for name, corrupt in corruptions.items():
        doc = json.loads(json.dumps(good))
        corrupt(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError):
            load_params(str(path))


def test_params_shape_validation():
    with pytest.raises(ValueError):
        ModelParams(
            dims=DIMS,
            f_a=ConvBlock(np.zeros((2, 3, 2)), np.zeros(2)),
            f_0=ConvBlock(np.zeros((3, 3, 2)), np.zeros(3)),
            f_dom=[ConvBlock(np.zeros((2, 3, 2)), np.zeros(2)),
                   ConvBlock(np.zeros((3, 3, 2)), np.zeros(3))],
            theta=np.zeros((5, 2)),  # wrong attribute dimension
            u0=np.zeros((3, 2)),
            ua=np.zeros((2, 2)),
            u_dom=[np.zeros((2, 2)), np.zeros((3, 2))],
        )
