import ast
import importlib
import re
import runpy
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convtransfer.convnet import (
    ConvBlock,
    conv_backward,
    conv_backward_batch,
    conv_forward,
    conv_forward_batch,
    pad_columns,
)
from convtransfer.numeric import Rng
from convtransfer.objective import CSV_HEADER


def naive_forward(filters, bias, x):
    """Independent triple-loop conv + ReLU + max oracle."""
    m, d, w = filters.shape
    if x.shape[1] < w:
        x = np.concatenate([x, np.zeros((d, w - x.shape[1]))], axis=1)
    P = x.shape[1] - w + 1
    out = np.zeros(m)
    for j in range(m):
        best = 0.0
        for p in range(P):
            s = 0.0
            for r in range(d):
                for c in range(w):
                    s += filters[j, r, c] * x[r, p + c]
            s += bias[j]
            a = s if s > 0.0 else 0.0
            if p == 0 or a > best:
                best = a
        out[j] = best
    return out


def random_block(rng, m, d, w, scale=1.0):
    return ConvBlock(filters=scale * rng.normal((m, d, w)), bias=scale * rng.normal((m,)))


def test_zero_block_gives_zero_output():
    block = ConvBlock(filters=np.zeros((3, 2, 2)), bias=np.zeros(3))
    out, _ = conv_forward(block, np.arange(8.0).reshape(2, 4))
    assert np.array_equal(out, np.zeros(3))


def test_single_weight_filter_max():
    block = ConvBlock(filters=np.ones((1, 1, 1)), bias=np.zeros(1))
    out, _ = conv_forward(block, np.array([[-2.0, 3.0, 1.0]]))
    assert np.array_equal(out, np.array([3.0]))


def test_forward_matches_triple_loop_oracle_exactly():
    rng = Rng(2024)
    for _ in range(100):
        m = int(rng.integers(1, 5))
        d = int(rng.integers(1, 6))
        w = int(rng.integers(1, 4))
        L = int(rng.integers(1, 8))
        block = random_block(rng, m, d, w)
        x = rng.normal((d, L))
        out, _ = conv_forward(block, x)
        assert np.array_equal(out, naive_forward(block.filters, block.bias, x))


def test_forward_output_nonnegative():
    rng = Rng(8)
    for _ in range(30):
        block = random_block(rng, 4, 3, 2)
        out, _ = conv_forward(block, rng.normal((3, 5)))
        assert np.all(out >= 0.0)


def test_forward_rejects_row_mismatch():
    block = ConvBlock(filters=np.zeros((2, 3, 2)), bias=np.zeros(2))
    with pytest.raises(ValueError, match="rows"):
        conv_forward(block, np.zeros((4, 5)))


def test_short_input_equals_explicit_zero_padding():
    rng = Rng(31)
    block = random_block(rng, 3, 2, 4)
    x = rng.normal((2, 2))  # narrower than the window
    padded = np.concatenate([x, np.zeros((2, 2))], axis=1)
    out_a, _ = conv_forward(block, x)
    out_b, _ = conv_forward(block, padded)
    assert np.array_equal(out_a, out_b)


def test_column_permutation_invariance_iff_window_one():
    rng = Rng(17)
    x = rng.normal((3, 5))
    x_perm = x[:, ::-1].copy()
    block_w1 = random_block(rng, 4, 3, 1)
    a, _ = conv_forward(block_w1, x)
    b, _ = conv_forward(block_w1, x_perm)
    assert np.allclose(a, b)
    # counterexample with w = 2: order matters
    found = False
    for _ in range(20):
        block_w2 = random_block(rng, 4, 3, 2)
        a, _ = conv_forward(block_w2, x)
        b, _ = conv_forward(block_w2, x_perm)
        if not np.allclose(a, b):
            found = True
            break
    assert found


def test_padding_mask_is_assigned_even_over_an_overflowed_window():
    # point 0's window at position 1 overflows to inf, and so does the one at
    # position 2, which reads the zero padding past its 3 columns; an added
    # -inf mask would make that position, and the pooled output, NaN
    block = ConvBlock(filters=np.full((1, 1, 2), 1e200), bias=np.zeros(1))
    x, lengths = pad_columns([np.array([[1.0, 1.0, 1e200]]), np.zeros((1, 4))])
    with np.errstate(all="ignore"):
        trace = conv_forward_batch(block, x, lengths)
    assert trace.pre[0, :, 0].tolist() == [2e200, np.inf, -np.inf]
    assert trace.pre[0, :, 1].tolist() == [0.0, 0.0, 0.0]
    assert trace.output.tolist() == [[np.inf], [0.0]]
    assert trace.argmax.tolist() == [[1, 0]]


def test_backward_zero_upstream_gives_zero_gradients():
    rng = Rng(5)
    block = random_block(rng, 3, 2, 2)
    x = rng.normal((2, 4))
    _, trace = conv_forward(block, x)
    df, db = conv_backward(block, trace, np.zeros(3))
    assert not np.any(df) and not np.any(db)


def test_backward_dead_filter_has_zero_gradient():
    # one filter forced negative everywhere via a large negative bias
    rng = Rng(6)
    block = ConvBlock(filters=rng.normal((2, 2, 2)), bias=np.array([-100.0, 0.5]))
    x = rng.normal((2, 4))
    out, trace = conv_forward(block, x)
    assert out[0] == 0.0
    df, db = conv_backward(block, trace, np.array([1.0, 1.0]))
    assert not np.any(df[0]) and db[0] == 0.0


def test_backward_rejects_wrong_upstream_length():
    block = ConvBlock(filters=np.zeros((3, 2, 2)), bias=np.zeros(3))
    _, trace = conv_forward(block, np.ones((2, 4)))
    with pytest.raises(ValueError, match="length 3"):
        conv_backward(block, trace, np.zeros(4))


def _smooth_case(rng, m, d, w, L, margin=1e-3):
    """Sample a (block, x) pair away from ReLU kinks and argmax ties."""
    while True:
        block = random_block(rng, m, d, w)
        x = rng.normal((d, L))
        _, trace = conv_forward(block, x)
        ok = True
        for row in trace.pre[:, :, 0]:
            top = np.max(row)
            if abs(top) <= margin:
                ok = False
            elif top > 0 and row.size > 1:
                if top - np.partition(row, -2)[-2] <= margin:
                    ok = False
        if ok:
            return block, x


def test_backward_matches_finite_differences():
    # quantified over >= 100 random smooth instances
    rng = Rng(99)
    eps = 1e-5
    for _ in range(100):
        m = int(rng.integers(1, 4))
        d = int(rng.integers(1, 5))
        w = int(rng.integers(1, 3))
        L = int(rng.integers(w, w + 4))
        block, x = _smooth_case(rng, m, d, w, L)
        upstream = rng.normal((m,))
        _, trace = conv_forward(block, x)
        df, db = conv_backward(block, trace, upstream)

        def value(filters, bias):
            out, _ = conv_forward(ConvBlock(filters=filters, bias=bias), x)
            return float(upstream @ out)

        for analytic, arr, rebuild in (
            (df, block.filters, lambda a: value(a, block.bias)),
            (db, block.bias, lambda a: value(block.filters, a)),
        ):
            flat = arr.ravel()
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + eps
                hi = rebuild(arr)
                flat[k] = orig - eps
                lo = rebuild(arr)
                flat[k] = orig
                fd = (hi - lo) / (2 * eps)
                g = analytic.ravel()[k]
                denom = max(abs(g), abs(fd))
                if denom > 1e-8:
                    assert abs(g - fd) / denom < 1e-4


def naive_pre(filters, bias, x):
    """Triple-loop pre-activation map (m, P), sums in (row, column) order."""
    m, d, w = filters.shape
    if x.shape[1] < w:
        x = np.concatenate([x, np.zeros((d, w - x.shape[1]))], axis=1)
    P = x.shape[1] - w + 1
    pre = np.zeros((m, P))
    for j in range(m):
        for p in range(P):
            s = 0.0
            for r in range(d):
                for c in range(w):
                    s += filters[j, r, c] * x[r, p + c]
            pre[j, p] = s + bias[j]
    return pre


# small integers make ReLU kinks and pooling ties common; floats do the rest
VALUES = st.one_of(st.integers(-2, 2).map(float),
                   st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False))


@st.composite
def ragged_batches(draw):
    """(block, points, upstream): 1 to 6 points of 1 to 7 columns, so
    batches of one and points shorter than, as wide as and wider than the
    window all occur."""
    m, d, w = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    lengths = draw(st.lists(st.integers(1, 7), min_size=n, max_size=n))

    def array(*shape):
        flat = draw(st.lists(VALUES, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
        return np.array(flat).reshape(shape)

    block = ConvBlock(filters=array(m, d, w), bias=array(m))
    return block, [array(d, L) for L in lengths], array(n, m)


def _block(w):
    return ConvBlock(filters=np.ones((1, 2, w)), bias=np.zeros(1))


@settings(max_examples=100, deadline=None)
@given(ragged_batches())
# one point; points shorter than the window
@example((_block(3), [np.arange(2.0).reshape(2, 1)], np.ones((1, 1))))
@example((_block(4), [-np.ones((2, 1)), np.ones((2, 3)), np.arange(10.0).reshape(2, 5)],
          np.ones((3, 1))))
def test_pad_columns_equals_per_point_placement(case):
    _, xs, _ = case
    x, lengths = pad_columns(xs)
    # the per-point loop pad_columns replaced: point i in [:, :L_i, i], zeros elsewhere
    want = np.zeros((xs[0].shape[0], max(xi.shape[1] for xi in xs), len(xs)))
    for i, xi in enumerate(xs):
        want[:, :xi.shape[1], i] = xi
    assert x.shape == want.shape and x.flags.c_contiguous
    assert x.tobytes() == want.tobytes()
    assert lengths.dtype == np.intp and lengths.tolist() == [xi.shape[1] for xi in xs]


@settings(max_examples=300, deadline=None)
@given(ragged_batches())
def test_batched_forward_equals_naive_per_point_forward(case):
    block, xs, _ = case
    x, lengths = pad_columns(xs)
    trace = conv_forward_batch(block, x, lengths)
    out = trace.output
    for i, xi in enumerate(xs):
        pre = naive_pre(block.filters, block.bias, xi)
        P = pre.shape[1]
        act = np.maximum(pre, 0.0)
        assert np.array_equal(trace.pre[:, :P, i], pre)
        assert np.all(trace.pre[:, P:, i] == -np.inf)
        assert np.array_equal(trace.argmax[:, i], act.argmax(axis=1))  # first maximum
        assert np.array_equal(out[i], naive_forward(block.filters, block.bias, xi))
        single, _ = conv_forward(block, xi)
        assert np.array_equal(out[i], single)


@settings(max_examples=300, deadline=None)
@given(ragged_batches())
def test_batched_backward_equals_sequential_per_point_sums(case):
    block, xs, upstream = case
    x, lengths = pad_columns(xs)
    trace = conv_forward_batch(block, x, lengths)
    dfilters, dbias = conv_backward_batch(block, trace, upstream)
    want_f = np.zeros_like(block.filters)
    want_b = np.zeros_like(block.bias)
    for xi, ui in zip(xs, upstream):
        df, db = conv_backward(block, conv_forward(block, xi)[1], ui)
        want_f += df
        want_b += db
    assert dfilters.tobytes() == want_f.tobytes()
    assert dbias.tobytes() == want_b.tobytes()


@pytest.mark.parametrize("demo", ["encoder_basics", "gradient_check", "convergence_curve"])
def test_encoder_demo_runs(capsys, tmp_path, demo):
    # encoder_basics reads trace fields and conv_backward's results;
    # gradient_check pairs every parameter block with its gradient;
    # convergence_curve trains and writes its curve next to itself, here
    # next to a copy in tmp_path
    script = tmp_path / f"{demo}.py"
    shutil.copy(Path(__file__).parents[1] / "demos" / f"{demo}.py", script)
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    if demo == "encoder_basics":
        assert "max position per filter" in out and "gradient w.r.t. the filters" in out
        return
    if demo == "convergence_curve":
        curve = tmp_path / "convergence_curve.csv"
        assert curve.read_text().splitlines()[0] == CSV_HEADER
        assert out.rstrip().endswith(f"curve written to {curve}")
        return
    instances = out.split("instance ")[1:]
    assert len(instances) == 3
    for text in instances:
        # one line per block of a 3-domain model, in block order
        lines = re.findall(r"^ *(\S+): max relative error (\S+)$", text, re.M)
        assert [block for block, _ in lines] == [
            "f_0", "f_1", "f_2", "f_3", "f_a", "theta", "u_0", "u_1", "u_2", "u_3", "u_a"]
        assert all(float(err) < 1e-4 for _, err in lines)


DEMOS = Path(__file__).parents[1] / "demos"


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_imports_resolve(demo):
    # every name a demo imports from the package exists in the module it names;
    # the demos are parsed, not run, so this covers the ones the test above skips
    tree = ast.parse((DEMOS / demo).read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and node.module.split(".")[0] == "convtransfer"]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            if not hasattr(module, alias.name):  # else it must be a submodule
                importlib.import_module(f"{node.module}.{alias.name}")
