import dataclasses
import types

import numpy as np
import pytest

import convtransfer.objective as objective_module
from convtransfer import gradcheck
from convtransfer.convnet import BatchTrace
from convtransfer.dataset import (
    ROLE_LABELED,
    ROLE_TEST,
    ROLE_UNLABELED,
    DataError,
    DataPoint,
    MultiDomainDataset,
    NeighborGraph,
    build_neighbor_graph,
    split_target,
)
from convtransfer.gradcheck import (
    finite_diff_block,
    gradient_check,
    random_smooth_instance,
    relative_error,
)
from convtransfer.model import Dims, classify, init_params, represent
from convtransfer.numeric import Rng
from convtransfer.objective import (
    TrainConfig,
    forward,
    gradient,
    neighbor_loss,
    objective,
    pack,
    train,
    value_and_grad,
)

DIMS = Dims(d=3, a_dim=2, y_dim=2, m0=2, ma=2, mt=(2, 2), w=2)


def tiny_dataset(seed=0, n_per_domain=2, labeled_target=True):
    rng = Rng(seed)
    domains = []
    for t in range(2):
        pts = []
        for i in range(n_per_domain):
            y = np.zeros(2)
            y[int(rng.integers(0, 2))] = 1.0
            pts.append(DataPoint(x=rng.normal((3, 4)),
                                 a=(rng.uniform(0, 1, (2,)) < 0.5).astype(float),
                                 y=y if (t == 0 or labeled_target) else None))
        domains.append(pts)
    return MultiDomainDataset(d=3, a_dim=2, y_dim=2, domains=domains)


def make_params(seed=0, scale=0.2):
    return init_params(DIMS, Rng(seed), scale)


def zero_params():
    params = init_params(DIMS, Rng(0))
    for _, _, arr in params.named_tensors():
        arr[...] = 0.0
    return params


def empty_graph(n):
    return NeighborGraph(n=n, neighbors=[[] for _ in range(n)])


CFG = TrainConfig(c1=0.5, c2=0.25, c3=2.0, m0=2, mt=2, ma=2, w=2)


def _cls(bd):
    return bd.aux_cls + bd.tgt_cls


class TestClassificationLoss:
    def test_zero_params_one_hot_labels(self):
        # h is identically zero, so each labeled point contributes ||y||^2 = 1
        ds = tiny_dataset(1)
        n_labeled = sum(1 for dom in ds.domains for p in dom if p.y is not None)
        assert _cls(objective(zero_params(), ds, None, CFG)) == pytest.approx(n_labeled)

    def test_zero_when_scores_match_labels(self):
        # zero representations and zero labels are impossible (one-hot), so
        # instead check the subtraction identity on a perfect-fit construction:
        # scores == y gives zero residual per point
        ds = tiny_dataset(2)
        params = make_params(2)
        loss = _cls(objective(params, ds, None, CFG))
        oracle = 0.0
        for t, dom in enumerate(ds.domains):
            for p in dom:
                if p.y is None:
                    continue
                rep, _ = represent(params, p.x, t)
                e = classify(params, rep) - p.y
                oracle += float(e @ e)
        assert loss == pytest.approx(oracle, rel=1e-12)

    def test_summation_oracle(self):
        ds = tiny_dataset(3)
        params = make_params(3)
        want = 0.0
        for t, dom in enumerate(ds.domains):
            for p in dom:
                rep, _ = represent(params, p.x, t)
                diff = classify(params, rep) - p.y
                want += sum(float(v) ** 2 for v in diff)
        assert _cls(objective(params, ds, None, CFG)) == pytest.approx(want, rel=1e-12)


class TestAttributeLoss:
    def test_all_zero(self):
        assert objective(zero_params(), tiny_dataset(4), None, CFG).attr_map == 0.0

    def test_single_point_norm(self):
        params = make_params(5)
        params.theta[...] = 0.0
        ds = tiny_dataset(5, n_per_domain=1)
        want = 0.0
        for t, dom in enumerate(ds.domains):
            for p in dom:
                rep, _ = represent(params, p.x, t)
                want += float(rep.ra @ rep.ra)
        assert objective(params, ds, None, CFG).attr_map == pytest.approx(want, rel=1e-12)

    def test_summation_oracle(self):
        params = make_params(6)
        ds = tiny_dataset(6, n_per_domain=3)
        want = 0.0
        for t, dom in enumerate(ds.domains):
            for p in dom:
                rep, _ = represent(params, p.x, t)
                g = rep.ra - params.theta.T @ p.a
                want += sum(float(v) ** 2 for v in g)
        assert objective(params, ds, None, CFG).attr_map == pytest.approx(want, rel=1e-12)


class TestDomainMatchingLoss:
    def test_identical_domains_match_exactly(self):
        rng = Rng(7)
        pts = [DataPoint(x=rng.normal((3, 4)), a=np.zeros(2), y=np.array([1.0, 0.0]))
               for _ in range(3)]
        clones = [DataPoint(x=p.x.copy(), a=p.a.copy(), y=p.y.copy()) for p in pts]
        ds = MultiDomainDataset(d=3, a_dim=2, y_dim=2, domains=[pts, clones])
        assert objective(make_params(7), ds, None, CFG).dom_match == 0.0

    def test_single_domain_is_float_zero(self):
        # curve.csv writes repr() of each term: 0.0, never 0
        ds = MultiDomainDataset(d=3, a_dim=2, y_dim=2, domains=[tiny_dataset(22).target])
        params = init_params(Dims(d=3, a_dim=2, y_dim=2, m0=2, ma=2, mt=(2,), w=2), Rng(22), 0.2)
        bd = objective(params, ds, None, CFG)
        assert repr(bd.dom_match) == "0.0"

    def test_zero_shared_branch(self):
        params = make_params(8)
        params.f_0.filters[...] = 0.0
        params.f_0.bias[...] = 0.0
        assert objective(params, tiny_dataset(8), None, CFG).dom_match == 0.0

    def test_constant_representation_oracle(self):
        # the separation between two constant means is just their distance
        params = make_params(9)
        ds = tiny_dataset(9, n_per_domain=2)
        means = []
        for t, dom in enumerate(ds.domains):
            means.append(np.mean([represent(params, p.x, t)[0].r0 for p in dom], axis=0))
        want = float(np.sum((means[0] - means[1]) ** 2))
        assert objective(params, ds, None, CFG).dom_match == pytest.approx(want, rel=1e-12)


class TestNeighborLoss:
    def test_empty_graph(self):
        ds = tiny_dataset(10)
        assert neighbor_loss(make_params(10), ds, empty_graph(2)) == 0.0

    def test_identical_neighbors(self):
        rng = Rng(11)
        x = rng.normal((3, 4))
        tgt = [DataPoint(x=x.copy(), a=np.zeros(2), y=np.array([1.0, 0.0])) for _ in range(2)]
        aux = [DataPoint(x=rng.normal((3, 4)), a=np.zeros(2), y=np.array([0.0, 1.0]))]
        ds = MultiDomainDataset(d=3, a_dim=2, y_dim=2, domains=[aux, tgt])
        graph = NeighborGraph(n=2, neighbors=[[1], [0]])
        assert neighbor_loss(make_params(11), ds, graph) == 0.0

    def test_hand_computed_ordered_pairs(self):
        # representations (1, 0) and (0, 1): ordered-pair sum is 2 * ||(1,-1)||^2 = 4
        f1, f2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        assert 2 * float((f1 - f2) @ (f1 - f2)) == 4.0
        # same quantity through the implementation on a crafted instance
        ds = tiny_dataset(12)
        params = make_params(12)
        graph = NeighborGraph(n=2, neighbors=[[1], [0]])
        reps = [represent(params, p.x, 1)[0].concat() for p in ds.target]
        want = 2 * float(np.sum((reps[0] - reps[1]) ** 2))
        assert neighbor_loss(params, ds, graph) == pytest.approx(want, rel=1e-12)

    def test_graph_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="graph"):
            neighbor_loss(make_params(13), tiny_dataset(13), empty_graph(5))


class TestObjective:
    def test_weighted_total_identity(self):
        ds = tiny_dataset(14, n_per_domain=3)
        params = make_params(14)
        graph = build_neighbor_graph(ds.target, 1)
        bd = objective(params, ds, graph, CFG)
        assert bd.aux_cls >= 0 and bd.tgt_cls >= 0 and bd.attr_map >= 0
        assert bd.dom_match >= 0 and bd.neighbor >= 0
        want = (bd.aux_cls + bd.tgt_cls + CFG.c1 * bd.attr_map
                + CFG.c2 * bd.dom_match + CFG.c3 * bd.neighbor)
        assert bd.total == pytest.approx(want, rel=1e-12)

    def test_linear_in_each_weight(self):
        ds = tiny_dataset(15, n_per_domain=3)
        params = make_params(15)
        graph = build_neighbor_graph(ds.target, 1)
        base = objective(params, ds, graph, CFG)
        for name in ("c1", "c2", "c3"):
            kwargs = {"c1": CFG.c1, "c2": CFG.c2, "c3": CFG.c3}
            kwargs[name] = 2 * kwargs[name]
            cfg2 = TrainConfig(m0=2, mt=2, ma=2, w=2, **kwargs)
            term = {"c1": base.attr_map, "c2": base.dom_match, "c3": base.neighbor}[name]
            got = objective(params, ds, graph, cfg2)
            assert got.total == pytest.approx(
                base.total + {"c1": CFG.c1, "c2": CFG.c2, "c3": CFG.c3}[name] * term,
                rel=1e-12)

    def test_matches_independent_single_pass_oracle(self):
        ds = tiny_dataset(16, n_per_domain=2)
        params = make_params(16)
        graph = build_neighbor_graph(ds.target, 1)
        bd = objective(params, ds, graph, CFG)
        # independent reimplementation of all five terms, point by point
        cls = 0.0
        attr = 0.0
        r0_by_domain = []
        for t, dom in enumerate(ds.domains):
            r0s = []
            for p in dom:
                rep, _ = represent(params, p.x, t)
                scores = (params.u0.T @ rep.r0 + params.u_dom[t].T @ rep.rt
                          + params.ua.T @ rep.ra)
                if p.y is not None:
                    cls += float(np.sum((p.y - scores) ** 2))
                attr += float(np.sum((rep.ra - params.theta.T @ p.a) ** 2))
                r0s.append(rep.r0)
            r0_by_domain.append(np.mean(r0s, axis=0))
        dom_term = float(np.sum((r0_by_domain[0] - r0_by_domain[1]) ** 2))
        m = graph.matrix()
        fs = [represent(params, p.x, 1)[0].concat() for p in ds.target]
        nb = sum(m[i, j] * float(np.sum((fs[i] - fs[j]) ** 2))
                 for i in range(len(fs)) for j in range(len(fs)))
        want = cls + CFG.c1 * attr + CFG.c2 * dom_term + CFG.c3 * nb
        assert bd.total == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("role, labeled", [(ROLE_TEST, True), (ROLE_TEST, False),
                                               (ROLE_UNLABELED, True)])
    def test_rejects_points_hidden_from_the_trainer(self, role, labeled):
        # a tagged dataset gives, bit for bit, what a dataset holding only
        # the trainer's target points gives, and not what it gives with point 1
        # untagged;
        # also with two more test points, one wider than every training point,
        # so that only test rows widen the packed batch
        for extra in (0, 2):
            ds = tiny_dataset(21)
            for p in ds.target:
                p.role = ROLE_LABELED
            ds.target[1].role = role
            if not labeled:
                ds.target[1].y = None
            rng = Rng(22)
            ds.target.extend(DataPoint(x=rng.normal((3, L)), a=np.ones(2), y=np.eye(2)[1],
                                       role=ROLE_TEST) for L in (7, 3)[:extra])
            seen = MultiDomainDataset(d=ds.d, a_dim=ds.a_dim, y_dim=ds.y_dim,
                                      domains=[*ds.domains[:-1], ds.target_train_points()])
            graph = build_neighbor_graph(seen.target, len(seen.target) - 1)
            params = make_params(21)
            bd = objective(params, ds, graph, CFG)
            assert bd == objective(params, seen, graph, CFG), extra
            gs, want = gradient(params, ds, graph, CFG), gradient(params, seen, graph, CFG)
            assert gs.shape == want.shape == params.flat.shape
            for block, sl in params.blocks().items():
                assert gs[sl].tobytes() == want[sl].tobytes(), (block, extra)
            ds.target[1].role = None
            assert bd != objective(params, ds, build_neighbor_graph(ds.target_train_points(), 1),
                                   CFG)

    def test_empty_domain_rejected(self):
        ds = tiny_dataset(15)
        ds.domains[0] = []
        with pytest.raises(DataError, match="domain 0 is empty"):
            pack(make_params(15), ds, None)

    def test_deterministic(self):
        ds = tiny_dataset(17)
        params = make_params(17)
        graph = build_neighbor_graph(ds.target, 1)
        a = objective(params, ds, graph, CFG)
        b = objective(params, ds, graph, CFG)
        assert a.total == b.total


class TestGradient:
    def test_zero_weights_no_labels_gives_zero(self):
        rng = Rng(18)
        domains = [
            [DataPoint(x=rng.normal((3, 4)), a=np.zeros(2), y=np.array([1.0, 0.0]))],
            [DataPoint(x=rng.normal((3, 4)), a=np.zeros(2), y=None)],
        ]
        ds = MultiDomainDataset(d=3, a_dim=2, y_dim=2, domains=domains)
        # hide the only label by moving the point to the (unlabeled) target:
        # instead keep aux labeled but weight everything to zero and strip the
        # target label; aux classification still contributes, so instead check
        # the regularizer-only gradient blocks vanish
        cfg = TrainConfig(c1=0.0, c2=0.0, c3=0.0, m0=2, mt=2, ma=2, w=2)
        params = make_params(18)
        gs = gradient(params, ds, empty_graph(1), cfg)
        # theta only enters via the attribute term; its gradient is exactly +0.0
        assert gs[params.blocks()["theta"]].tobytes() == np.zeros_like(params.theta).tobytes()

    def test_theta_stationary_at_least_squares_optimum(self):
        ds = tiny_dataset(19, n_per_domain=4)
        params = make_params(19)
        cfg = TrainConfig(c1=1.0, c2=0.0, c3=0.0, m0=2, mt=2, ma=2, w=2)
        # solve min_theta sum ||ra_i - theta.T a_i||^2 directly
        gram = np.zeros((2, 2))
        rhs = np.zeros((2, 2))
        for t, dom in enumerate(ds.domains):
            for p in dom:
                rep, _ = represent(params, p.x, t)
                gram += np.outer(p.a, p.a)
                rhs += np.outer(p.a, rep.ra)
        params.theta[...] = np.linalg.lstsq(gram, rhs, rcond=None)[0]
        # kill the classification contribution so only the attr term remains
        for u in (params.u0, params.ua, *params.u_dom):
            u[...] = 0.0
        gs = gradient(params, ds, empty_graph(4), cfg)
        assert np.max(np.abs(gs[params.blocks()["theta"]])) < 1e-8

    def test_matches_finite_differences_on_smooth_instances(self):
        for seed in range(5):
            parts = random_smooth_instance(seed, points_per_domain=2,
                                           n_domains=2, d=4, m=3)
            errs = gradient_check(*parts)
            assert max(errs.values()) < 1e-4, (seed, errs)

    def test_non_finite_entry_scores_inf(self):
        a = np.array([1.0, np.nan, 2.0, 0.0, 1.0])
        b = np.array([1.0, 1.0, np.inf, 0.0, 3.0])
        assert relative_error(a, b).tolist() == [0.0, np.inf, np.inf, 0.0, 2.0 / 3.0]

    def test_corrupted_block_is_caught(self, monkeypatch):
        parts = random_smooth_instance(123, points_per_domain=2, n_domains=2, d=4, m=3)
        exact = gradcheck.value_and_grad
        # theta's one array, then the bias, the second array of an encoder block
        for block, idx in [("theta", 0), ("f_a", 1)]:

            def one_array_negated(*args, **kwargs):
                value, grads = exact(*args, **kwargs)
                sl = _tensor_slices(parts[0], block)[idx]
                grads[sl] = -grads[sl]
                return value, grads

            monkeypatch.setattr(gradcheck, "value_and_grad", one_array_negated)
            errs = gradient_check(*parts)
            assert errs[block] > 1e-4
            others = {k: v for k, v in errs.items() if k != block}
            assert max(others.values()) < 1e-4

    def test_gradient_has_every_block_in_the_parameters_layout(self):
        params = make_params(22)
        gs = gradient(params, tiny_dataset(22), empty_graph(2), CFG)
        blocks = params.blocks()
        assert list(blocks) == list(dict.fromkeys(block for block, _, _ in params.named_tensors()))
        for block, sl in blocks.items():
            assert [gs[t].size for t in _tensor_slices(params, block)] == [
                arr.size for arr in _tensors(params, block)], block
            assert gs[sl].dtype == np.float64 and gs.shape == params.flat.shape, block

    def test_a_name_that_is_not_a_block_is_rejected(self):
        # a mistyped sweep would otherwise step nothing: its gradient is all +0.0
        params = make_params(23)
        b = pack(params, tiny_dataset(23), empty_graph(2))
        f = forward(params, b)
        for grad, named in [(("f_9",), "'f_9'"), (("theta ",), "'theta '"),
                            (("theta", "u_x", "f_0", "f_9"), "'u_x', 'f_9'")]:
            for value in (True, False):
                with pytest.raises(ValueError, match=f"no parameter block named {named}$"):
                    value_and_grad(params, b, f, CFG, grad, value=value)


def test_importing_the_submodule_binds_the_module():
    # the package re-exports no function under its submodule's name
    import convtransfer.objective as m
    assert isinstance(m, types.ModuleType)
    assert m.objective is objective


def test_blocks_are_the_parameters_grouped():
    params = make_params(20)
    blocks = params.blocks()
    grouped = [(block, params.flat[sl].tobytes()) for block, sl in blocks.items()]
    assert grouped == [(block, b"".join(arr.tobytes() for arr in _tensors(params, block)))
                       for block in dict.fromkeys(block for block, _, _ in params.named_tensors())]
    params.flat[blocks["theta"]][0] = 7.0  # the slices are of the parameters, not copies
    assert params.theta[0, 0] == 7.0


def test_parameter_blocks_order():
    # named_tensors() lists every array of ModelParams exactly once, grouped
    # into blocks in the block-cyclic order
    params = make_params(20)
    named = params.named_tensors()
    arrays = [params.f_0.filters, params.f_0.bias, params.f_a.filters, params.f_a.bias,
              params.theta, params.u0, params.ua, *params.u_dom]
    arrays += [a for b in params.f_dom for a in (b.filters, b.bias)]
    assert sorted(map(id, arrays)) == sorted(id(arr) for _, _, arr in named)
    assert len({key for _, key, _ in named}) == len(named)
    blocks = list(dict.fromkeys(block for block, _, _ in named))
    assert blocks == ["f_0", "f_1", "f_2", "f_a", "theta", "u_0", "u_1", "u_2", "u_a"]
    assert [block for block, _, _ in named] == sorted(
        (block for block, _, _ in named), key=blocks.index)


def _tensors(params, block):
    """The tensors of `block`, from named_tensors()."""
    return [arr for b, _, arr in params.named_tensors() if b == block]


def _tensor_slices(params, block):
    """The slices of params.flat that hold the tensors of `block`, in named_tensors() order."""
    out, end = [], 0
    for b, _, arr in params.named_tensors():
        end += arr.size
        if b == block:
            out.append(slice(end - arr.size, end))
    return out


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _smooth_batch(n_domains=2, with_graph=True):
    params, ds, graph, cfg = random_smooth_instance(3, points_per_domain=2, n_domains=n_domains,
                                                    d=4, m=3)
    return params, pack(params, ds, graph if with_graph else None), cfg


BLOCKS = list(make_params().blocks())


def test_pack_rows_are_each_points_arrays():
    # target points: one unlabeled, one hidden by its role, one labeled
    ds = tiny_dataset(5, n_per_domain=3)
    ds.target[0].y = None
    ds.target[1].role = ROLE_UNLABELED
    b = pack(make_params(5), ds, None)
    points = [*ds.domains[0], *ds.target_train_points()]
    assert b.a.shape == (6, 2) and b.y.shape == (6, 2)
    assert [seg for _, seg in b.segments] == [slice(0, 3), slice(3, 6)]
    for i, p in enumerate(points):
        assert _same_bits(b.a[i], p.a), i
        assert _same_bits(b.y[i], np.zeros(2) if p.y is None else p.y), i
    assert not b.y[3:5].any() and b.y[5].sum() == 1.0


def test_branches_follow_the_block_order():
    params, b, _ = _smooth_batch()
    blocks = params.blocks()
    branches = objective_module._branches(params, b)
    assert ["f_" + s for s, *_ in branches] == [k for k in blocks if k.startswith("f_")]
    assert ["u_" + s for s, *_ in branches] == [k for k in blocks if k.startswith("u_")]
    for s, enc, head, _ in branches:
        assert _tensors(params, "f_" + s)[0] is enc.filters and _tensors(params, "u_" + s)[0] is head


class TestReuse:
    """A one-block change re-runs only the encoder that block drives; every
    result equals the full recompute bit for bit."""

    @pytest.mark.parametrize("block", BLOCKS)
    def test_refreshed_forward_equals_fresh_forward(self, block):
        params, b, _ = _smooth_batch()
        base = forward(params, b)
        base_scores = base.scores.copy()
        for arr in _tensors(params, block):
            arr += 0.05 * Rng(1).normal(arr.shape)
        got, want = forward(params, b, base, (block,)), forward(params, b)
        for g, w in zip(got.traces, want.traces, strict=True):
            for field in ("pre", "argmax", "x_padded", "output"):
                assert _same_bits(getattr(g, field), getattr(w, field)), field
        assert _same_bits(got.scores, want.scores)
        assert _same_bits(base.scores, base_scores)  # prev is left as it was
        if block != "theta":  # theta enters no score
            assert not np.array_equal(got.scores, base.scores)

    @pytest.mark.parametrize("block", BLOCKS)
    def test_one_block_gradient_is_that_block_of_the_full_gradient(self, block):
        # with and without the breakdown, under the instance's weights and
        # each weight zeroed, for T = 2 and T = 1 (where f_2 and u_2 do not exist)
        for n_domains, zeroed in [(T, w) for T in (2, 1) for w in (None, "c1", "c2", "c3")]:
            params, b, cfg = _smooth_batch(n_domains)
            if zeroed:
                cfg = dataclasses.replace(cfg, **{zeroed: 0.0})
            if block not in params.blocks():
                continue
            f = forward(params, b)
            full_bd, full = value_and_grad(params, b, f, cfg, params.blocks())
            bd, one = value_and_grad(params, b, f, cfg, (block,))
            assert bd == full_bd
            assert full.shape == params.flat.shape
            assert one.shape == params.flat.shape
            tensors = _tensor_slices(params, block)
            for asked in (params.blocks(), (block,)):
                no_bd, got = value_and_grad(params, b, f, cfg, asked, value=False)
                assert no_bd is None and got.shape == params.flat.shape
                for t in tensors:
                    assert _same_bits(got[t], full[t]), (n_domains, zeroed, len(asked))
                # every entry outside the asked blocks (and, for one, outside
                # block) is +0.0, as np.zeros makes it
                outside = np.ones(got.size, bool)
                for name in asked:
                    outside[params.blocks()[name]] = False
                for g in (got, one):
                    assert g[outside].tobytes() == np.zeros(outside.sum()).tobytes()
            for t in tensors:
                assert np.any(full[t]) or (block, zeroed) == ("theta", "c1")
                assert _same_bits(one[t], full[t]), (n_domains, zeroed)

    @pytest.mark.parametrize("block", list(_smooth_batch(3)[0].blocks()))
    def test_finite_diff_block_equals_fresh_forward_differences(self, block):
        # all perturbed copies of a tensor run stacked; each difference equals
        # the one of two fresh forwards, for T = 1, 2 and 3, with each weight
        # zeroed, and on a batch packed without a graph (no edges)
        eps = gradcheck.DEFAULT_EPS
        for n_domains, zeroed, with_graph in [(1, None, True), (2, None, True), (3, None, True),
                                              (3, "c1", True), (3, "c2", True), (3, "c3", True),
                                              (3, None, False)]:
            params, b, cfg = _smooth_batch(n_domains, with_graph)
            if zeroed:
                cfg = dataclasses.replace(cfg, **{zeroed: 0.0})
            if block not in params.blocks():
                continue
            base = forward(params, b)

            def fresh_total():
                return value_and_grad(params, b, forward(params, b), cfg, ())[0].total

            for key, arr in enumerate(_tensors(params, block)):
                got = finite_diff_block(params, b, base, cfg, block, arr, eps)
                want = np.zeros_like(arr)
                for k in range(arr.size):
                    orig = arr.flat[k]
                    arr.flat[k] = orig + eps
                    hi = fresh_total()
                    arr.flat[k] = orig - eps
                    lo = fresh_total()
                    arr.flat[k] = orig
                    want.flat[k] = (hi - lo) / (2.0 * eps)
                assert _same_bits(got, want), (n_domains, zeroed, with_graph, key)


class TestStackedTotals:
    def test_copies_equal_to_the_base_run_no_encoder(self, kernel_calls):
        # as when eps is below the entries' spacing: every total is the base
        # total bit for bit, and no encoder runs (a bank cannot be empty)
        params, b, cfg = _smooth_batch()
        base = forward(params, b)
        kernel_calls.banks.clear()
        want = np.full(3, value_and_grad(params, b, base, cfg, ())[0].total)
        for block, _, arr in params.named_tensors():
            values = np.repeat(arr[None], 3, axis=0)
            got = objective_module.stacked_totals(params, b, base, cfg, block, arr, values)
            assert _same_bits(got, want), block
        assert kernel_calls.banks == []

    def test_a_zero_that_changes_sign_has_moved(self, kernel_calls):
        # -0.0 == 0.0, but the copy's bytes differ from the base tensor's
        params, b, cfg = _smooth_batch()
        filters = params.f_0.filters
        filters[1, 0, 0] = 0.0
        base = forward(params, b)
        values = np.repeat(filters[None], 2, axis=0)
        values[1, 1, 0, 0] = -0.0
        kernel_calls.banks.clear()
        got = objective_module.stacked_totals(params, b, base, cfg, "f_0", filters, values)
        assert kernel_calls.banks == [1]  # copy 1's filter 1 alone
        filters[1, 0, 0] = -0.0
        assert got[1] == value_and_grad(params, b, forward(params, b), cfg, ())[0].total

    @pytest.mark.parametrize("layout", ["C", "F", "F whole", "bank view"])
    def test_stacked_sum_squares_equal_the_one_copy_sums(self, layout):
        # one call over a (K, ...) stack equals the one-copy definitions bit
        # for bit: einsum per matrix, x @ x per vector (a BLAS dot); the
        # vectors include rows at every 8-byte offset, which some BLAS dot
        # kernels sum in another order
        rng = Rng(7)
        for _ in range(60):
            K, n, m = (int(rng.integers(1, hi)) for hi in (9, 30, 7))
            x = rng.normal((K, n, m)) * 10.0 ** int(rng.integers(-3, 4))
            x = {"C": x,
                 "F": np.ascontiguousarray(x.transpose(0, 2, 1)).transpose(0, 2, 1),
                 "F whole": np.asfortranarray(x),
                 # stacked_totals' bank output: (n, K * m) viewed as (K, n, m)
                 "bank view": np.ascontiguousarray(x.transpose(1, 0, 2).reshape(n, K * m).T).T
                 .reshape(n, K, m).transpose(1, 0, 2)}[layout]
            assert _same_bits(objective_module._sum_squares(x, 2),
                              np.array([np.einsum("ij,ij->", c, c) for c in x]))
            for v in (x[:, 0, :], x.sum(axis=-2), x[:, :, 0]):
                assert _same_bits(objective_module._sum_squares(v, 1), np.array([c @ c for c in v]))
            c = x[0]
            assert _same_bits(objective_module._sum_squares(c, 2), np.einsum("ij,ij->", c, c))
            assert _same_bits(objective_module._sum_squares(c[0], 1), c[0] @ c[0])


def test_no_graph_and_an_edgeless_graph_are_the_same_run():
    # a batch packed without a graph carries an empty edge list, as one packed
    # with a 0-NN graph does: the breakdown, the gradient and 3 iterations of
    # training in each mode (rows and parameters) are the same bit for bit
    params, ds, _, cfg = random_smooth_instance(3, points_per_domain=3)

    def results(graph):
        b = pack(params, ds, graph)
        bd, gs = value_and_grad(params, b, forward(params, b), cfg, params.blocks())
        arrays = [np.array(dataclasses.astuple(bd)), gs]
        for mode in ("joint", "block-cyclic"):
            run = dataclasses.replace(cfg, tau=1e-3, max_iters=3, update_mode=mode)
            trained, rows = train(ds, graph, run)
            assert len(rows) == 4, mode
            arrays += [np.array([r.iteration, *dataclasses.astuple(r.breakdown), r.accuracy])
                       for r in rows]
            arrays += [arr for _, _, arr in trained.named_tensors()]
        return arrays

    got = results(None)
    want = results(build_neighbor_graph(ds.target_train_points(), 0))
    assert len(got) == len(want)
    assert all(_same_bits(g, w) for g, w in zip(got, want))


class KernelCalls(dict):
    """Counts of the batched encoder kernels called through objective; `banks`
    lists how many filters each forward call ran, in call order."""

    banks: list[int]


@pytest.fixture
def kernel_calls(monkeypatch):
    calls = KernelCalls(forward=0, backward=0)
    calls.banks = []

    def counted(kind, fn):
        def wrapper(block, *args, **kwargs):
            calls[kind] += 1
            if kind == "forward":
                calls.banks.append(block.m)
            return fn(block, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(objective_module, "conv_forward_batch",
                        counted("forward", objective_module.conv_forward_batch))
    monkeypatch.setattr(objective_module, "conv_backward_batch",
                        counted("backward", objective_module.conv_backward_batch))
    return calls


class TestKernelCalls:
    """Exact kernel call counts: a timing-free guard on the encoder reuse."""

    def test_gradient_check_runs_no_encoder_for_head_entries(self, kernel_calls):
        params, ds, graph, cfg = random_smooth_instance(0)  # the CLI's instance shape
        kernel_calls.update(forward=0, backward=0)
        gradient_check(params, ds, graph, cfg)
        T = params.n_domains
        encoder_tensors = sum(block.startswith("f_") for block, _, _ in params.named_tensors())
        # one forward of the T + 2 encoders, then one encoder run per encoder
        # tensor (all its perturbed copies stacked) and none for a head entry
        assert kernel_calls["forward"] == (T + 2) + encoder_tensors == 15
        assert kernel_calls["backward"] == T + 2

    def test_gradient_check_runs_only_the_filters_each_copy_moves(self, kernel_calls):
        params, ds, graph, cfg = random_smooth_instance(0)  # m = 4, d = 6, w = 2
        kernel_calls.banks.clear()
        gradient_check(params, ds, graph, cfg)
        # the base forward's m filters per encoder, then per encoder tensor one
        # filter per copy (2 * size copies): 2 * 48 for filters, 2 * 4 for a bias,
        # not a bank of every copy's m filters
        T = params.n_domains
        assert kernel_calls.banks == [4] * (T + 2) + [96, 8] * (T + 2)

    @pytest.mark.parametrize("mode", ["joint", "block-cyclic"])
    def test_training_runs_each_encoder_once_per_iteration(self, kernel_calls, mode):
        # target test points ride in the training batch: the curve's accuracy
        # column costs no kernel call of its own
        for split in (False, True):
            rng = Rng(30)
            domains = [[DataPoint(x=rng.normal((3, 4)), a=np.zeros(2), y=np.eye(2)[i % 2])
                        for i in range(4)] for _ in range(3)]
            ds = MultiDomainDataset(d=3, a_dim=2, y_dim=2, domains=domains)
            if split:
                split_target(ds, 30)
                assert ds.target_points(ROLE_TEST)
            graph = build_neighbor_graph(ds.target_train_points(), 1)
            counts = []
            for iters in (2, 3):
                kernel_calls.update(forward=0, backward=0)
                cfg = TrainConfig(tau=1e-4, max_iters=iters, update_mode=mode)
                _, rows = train(ds, graph, cfg)
                assert len(rows) == iters + 1
                assert all(np.isnan(r.accuracy) != split for r in rows)
                counts.append(dict(kernel_calls))
            T = ds.n_domains
            assert counts[1]["forward"] - counts[0]["forward"] == T + 2, split
            assert counts[1]["backward"] - counts[0]["backward"] == T + 2, split
            # whole runs: row 0 and every iteration end in one forward and
            # the gradient of the sweep's first step (every block in joint
            # mode, f_0 alone in block-cyclic mode); a block-cyclic sweep
            # runs each other encoder's backward before its step
            for iters, count in zip((2, 3), counts):
                assert count["forward"] == (T + 2) * (iters + 1), split
                assert count["backward"] == ((T + 2) * (iters + 1) if mode == "joint"
                                             else 1 + (T + 2) * iters), split
            assert counts[0] == {"forward": 15, "backward": 15 if mode == "joint" else 11}, split

    def test_block_cyclic_training_builds_one_breakdown_per_iteration(self, monkeypatch):
        # the mid-sweep steps need only their gradient; the breakdown comes
        # from the one forward that ends each iteration
        built = []
        breakdown = objective_module.ObjectiveBreakdown

        def counted(**terms):
            built.append(terms)
            return breakdown(**terms)

        monkeypatch.setattr(objective_module, "ObjectiveBreakdown", counted)
        ds = tiny_dataset(4, n_per_domain=3)
        graph = build_neighbor_graph(ds.target_train_points(), 1)
        counts = []
        for iters in (2, 3):
            built.clear()
            _, rows = train(ds, graph, TrainConfig(tau=1e-4, max_iters=iters,
                                                   update_mode="block-cyclic", m0=2, mt=2, ma=2))
            assert len(rows) == iters + 1
            counts.append(len(built))
        assert counts[1] - counts[0] == 1

    def test_only_a_backward_reads_the_pooling_argmax(self, kernel_calls, monkeypatch):
        # the argmax is computed on each read of the trace's property, so
        # every read is a backward's and a forward-only path computes none
        reads = []
        argmax = BatchTrace.argmax
        monkeypatch.setattr(BatchTrace, "argmax",
                            property(lambda trace: reads.append(1) or argmax.fget(trace)))
        params, ds, graph, cfg = random_smooth_instance(0)  # runs is_smooth
        T = params.n_domains
        assert gradcheck.is_smooth(params, ds)
        assert objective_module.evaluate(params, ds.target, T - 1) >= 0.0
        assert reads == []
        gradient_check(params, ds, graph, cfg)
        # the base gradient's backward of each encoder; the stacked
        # finite-difference passes read none
        assert len(reads) == T + 2
        b = pack(params, ds, graph)
        f = forward(params, b)
        gs = value_and_grad(params, b, f, cfg, params.blocks(), value=False)[1]
        reads.clear()
        kernel_calls.update(forward=0, backward=0)
        objective_module._iterate(params, b, f, gs, [tuple(params.blocks())], cfg, 1e-4)
        # one joint iteration: one read per encoder backward
        assert len(reads) == kernel_calls["backward"] == T + 2

    @pytest.mark.parametrize("block", BLOCKS)
    def test_one_block_gradient_runs_only_that_encoder_backward(self, kernel_calls, block):
        params, b, cfg = _smooth_batch()
        f = forward(params, b)
        kernel_calls.update(forward=0, backward=0)
        value_and_grad(params, b, f, cfg, (block,))
        # a head or theta block runs no backward at all
        assert kernel_calls == {"forward": 0, "backward": int(block.startswith("f_"))}
