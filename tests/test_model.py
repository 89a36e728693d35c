import itertools
import json
import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convtransfer.convnet import ConvBlock, conv_forward
from convtransfer.dataset import DataError, DataPoint, MultiDomainDataset
from convtransfer.model import (
    Dims,
    ModelParams,
    classify,
    init_params,
    load_params,
    represent,
    save_params,
)
from convtransfer.numeric import Rng
from convtransfer.objective import evaluate

DIMS = Dims(d=3, a_dim=4, y_dim=2, m0=3, ma=2, mt=(2, 3), w=2)


def make_params(seed=0, scale=0.1):
    return init_params(DIMS, Rng(seed), scale)


def zero_params(dims=DIMS):
    params = init_params(dims, Rng(0))
    for _, _, arr in params.named_tensors():
        arr[...] = 0.0
    return params


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
    assert ([(key, arr.tobytes()) for _, key, arr in loaded.named_tensors()]
            == [(key, arr.tobytes()) for _, key, arr in params.named_tensors()])


def test_load_rejects_malformed_model_files(tmp_path):
    path = tmp_path / "model.json"
    save_params(make_params(79), str(path))
    good = json.loads(path.read_text())
    corruptions = {
        "version": lambda doc: doc.update(format_version=2),
        "missing": lambda doc: doc["params"].pop("u_dom.1"),
        "shape": lambda doc: doc["params"]["theta"].update(shape=[2, 4]),
        # equal to the tensors' 3 but not an integer
        "float dims": lambda doc: doc["dims"].update(d=3.0),
        "float mt": lambda doc: doc["dims"].update(mt=[2.5, 3]),
        # json reads NaN and Infinity as floats
        "nan": lambda doc: doc["params"]["u0"]["data"].__setitem__(0, float("nan")),
        "infinity": lambda doc: doc["params"]["theta"]["data"].__setitem__(1, float("inf")),
    }
    for name, corrupt in corruptions.items():
        doc = json.loads(json.dumps(good))
        corrupt(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError):
            load_params(str(path))
    # entries of the wrong JSON type: the error names the entry
    theta = good["params"]["theta"]
    for doc, match in [([1], "the top level must be a JSON object"),
                       ({**good, "dims": [1, 2]}, "dims must be a JSON object"),
                       ({**good, "params": []}, "params must be a JSON object"),
                       ({**good, "params": {**good["params"], "theta": [1]}},
                        "theta must be a JSON object"),
                       ({**good, "dims": {**good["dims"], "mt": 4}}, "got mt=4"),
                       ({**good, "params": {**good["params"], "theta": {**theta, "data": "abc"}}},
                        "theta: could not convert"),
                       # a tensor entry without its data or its shape
                       ({**good, "params": {**good["params"], "theta": {"shape": theta["shape"]}}},
                        r"missing model entry 'theta\.data'$"),
                       ({**good, "params": {**good["params"],
                                            "u0": {"data": good["params"]["u0"]["data"]}}},
                        r"missing model entry 'u0\.shape'$")]:
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=match):
            load_params(str(path))
    # files json cannot decode: not UTF-8, and nested past its recursion limit
    for raw in (b"\xff{}", b"[" * 100_000):
        path.write_bytes(raw)
        with pytest.raises(DataError):
            load_params(str(path))


@st.composite
def random_dims(draw):
    """Dims of 1 to 3 domains, every size from 1 to 4 and a window of 1 to 3."""
    size = st.integers(1, 4)
    n_domains = draw(st.integers(1, 3))
    return Dims(d=draw(size), a_dim=draw(size), y_dim=draw(size), m0=draw(size), ma=draw(size),
                mt=tuple(draw(st.lists(size, min_size=n_domains, max_size=n_domains))),
                w=draw(st.integers(1, 3)))


@settings(max_examples=50, deadline=None)
@given(random_dims(), st.integers(0, 2**32))
def test_random_dims_round_trip_bit_exact(dims, seed):
    params = init_params(dims, Rng(seed))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        save_params(params, path)
        loaded = load_params(path)
    assert loaded.dims == dims
    assert ([(key, arr.shape, arr.tobytes()) for _, key, arr in loaded.named_tensors()]
            == [(key, arr.shape, arr.tobytes()) for _, key, arr in params.named_tensors()])


@settings(max_examples=50, deadline=None)
@given(random_dims())
def test_load_rejects_every_tensor_with_one_dimension_off(dims):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        save_params(zero_params(dims), path)
        load_params(path)  # the right shapes pass
        with open(path) as f:
            doc = json.load(f)
        for key, entry in list(doc["params"].items()):
            for axis in range(len(entry["shape"])):
                shape = list(entry["shape"])
                shape[axis] += 1
                doc["params"][key] = {"shape": shape, "data": [0.0] * math.prod(shape)}
                with open(path, "w") as f:
                    f.write(json.dumps(doc))
                with pytest.raises(DataError, match=re.escape(f"{key} has shape")):
                    load_params(path)
            doc["params"][key] = entry


@settings(max_examples=25, deadline=None)
@given(random_dims(), st.integers(0, 2**32))
def test_tensors_are_views_of_one_flat_array(dims, seed):
    params = init_params(dims, Rng(seed))
    flat = params.flat
    flat[...] = np.arange(flat.size)  # each entry now holds its own offset
    start = 0
    for _, _, arr in params.named_tensors():
        assert np.shares_memory(arr, flat)
        # each tensor is the slice of flat right after the one before it
        assert np.array_equal(arr.ravel(), np.arange(start, start + arr.size))
        start += arr.size
    assert start == flat.size
    tensors = {key: arr for _, key, arr in params.named_tensors()}
    assert np.array_equal(params.theta, tensors["theta"])
    assert np.array_equal(params.u_dom[-1], tensors[f"u_dom.{dims.n_domains - 1}"])
    branches = ["0", *(str(t + 1) for t in range(dims.n_domains)), "a"]
    runs = [block for block, _ in itertools.groupby(block for block, _, _ in params.named_tensors())]
    assert runs == [f"f_{s}" for s in branches] + ["theta"] + [f"u_{s}" for s in branches]
    # each blocks() slice covers exactly its block's tensors, in that order
    assert list(params.blocks()) == runs
    for block, sl in params.blocks().items():
        assert np.array_equal(flat[sl], np.concatenate(
            [arr.ravel() for b, _, arr in params.named_tensors() if b == block])), block
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        save_params(params, path)
        with open(path) as f:
            saved = json.load(f)["params"]
    assert [x for _, key, _ in params.named_tensors() for x in saved[key]["data"]] == flat.tolist()


BLOCK = ConvBlock(np.zeros((2, 3, 2)), np.zeros(2))
LABELED = [DataPoint(x=np.zeros((3, 4)), a=np.zeros(4), y=np.eye(2)[0])]


# the library's own rejections, one row each: the call, the exception class
# and part of its message
@pytest.mark.parametrize("call, error, message", [
    (lambda: ConvBlock(np.zeros((2, 3)), np.zeros(2)), ValueError, "filters must be 3-D"),
    (lambda: ConvBlock(np.zeros((2, 0, 2)), np.zeros(2)), ValueError,
     "filter bank dimensions must be positive"),
    (lambda: ConvBlock(np.zeros((2, 3, 2)), np.zeros(3)), ValueError, "bias must have shape (2,)"),
    (lambda: conv_forward(BLOCK, np.zeros(3)), ValueError, "conv input must be 2-D"),
    (lambda: conv_forward(BLOCK, np.zeros((3, 0))), ValueError,
     "conv input must have positive dimensions"),
    (lambda: conv_forward(BLOCK, np.full((3, 4), np.nan)), ValueError,
     "conv input contains non-finite entries"),
    (lambda: Dims(d=3, a_dim=4, y_dim=2, m0=3, ma=2, mt=(), w=2), ValueError,
     "per-domain output sizes must be positive"),
    (lambda: ModelParams(DIMS, np.zeros(97)), ValueError, "flat has shape (97,), expected (98,)"),
    (lambda: init_params(DIMS, Rng(0), scale=0), ValueError, "init scale must be positive"),
    (lambda: evaluate(make_params(), LABELED, 2), ValueError, "domain index 2 out of range [0, 2)"),
    (lambda: MultiDomainDataset(d=3, a_dim=4, y_dim=2, domains=[]), DataError,
     "dataset must contain at least one domain"),
], ids=["2d-filters", "zero-filter-dimension", "wrong-bias-shape", "1d-conv-input",
        "conv-input-without-columns", "nan-conv-input", "no-domains-in-dims",
        "flat-of-wrong-length", "zero-init-scale", "domain-index-out-of-range",
        "dataset-without-domains"])
def test_library_rejection(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
