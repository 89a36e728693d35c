import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convtransfer.dataset import (
    ROLE_LABELED,
    ROLE_TEST,
    ROLE_UNLABELED,
    DataError,
    DataPoint,
    MultiDomainDataset,
    SynthSpec,
    build_neighbor_graph,
    generate_synthetic,
    load_dataset,
    save_dataset,
    split_roles,
    split_target,
)
from convtransfer.numeric import Rng


def point(d=2, L=3, a_dim=2, label=0, y_dim=2, seed_rng=None):
    rng = seed_rng or Rng(0)
    y = np.zeros(y_dim)
    y[label] = 1.0
    return DataPoint(x=rng.normal((d, L)), a=np.zeros(a_dim), y=y)


class TestSplit:
    def test_counts_n12(self):
        roles = split_roles(12, Rng(0))
        assert roles.count(ROLE_TEST) == 6
        assert roles.count(ROLE_LABELED) == 3
        assert roles.count(ROLE_UNLABELED) == 3

    def test_counts_n10(self):
        roles = split_roles(10, Rng(0))
        assert roles.count(ROLE_TEST) == 5
        assert roles.count(ROLE_LABELED) == 3
        assert roles.count(ROLE_UNLABELED) == 2

    @pytest.mark.parametrize("n", range(4, 21))
    def test_ceil_floor_rule_and_partition(self, n):
        roles = split_roles(n, Rng(n))
        n_test = n // 2
        n_train = n - n_test
        assert roles.count(ROLE_TEST) == n_test
        assert roles.count(ROLE_LABELED) == math.ceil(n_train / 2)
        assert roles.count(ROLE_UNLABELED) == n_train // 2
        assert len(roles) == n  # disjoint and exhaustive by construction

    def test_deterministic(self):
        assert split_roles(15, Rng(99)) == split_roles(15, Rng(99))

    def test_too_small_rejected(self):
        with pytest.raises(DataError):
            split_roles(3, Rng(0))

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(4, 500), seed=st.integers(0, 2**64 - 1))
    def test_any_size_splits_by_the_half_rule(self, n, seed):
        roles = split_roles(n, Rng(seed))
        n_test = n // 2
        n_labeled = math.ceil((n - n_test) / 2)
        # one tag per index, so every index is tagged exactly once
        assert len(roles) == n and set(roles) <= {ROLE_TEST, ROLE_LABELED, ROLE_UNLABELED}
        assert roles.count(ROLE_TEST) == n_test
        assert roles.count(ROLE_LABELED) == n_labeled
        assert roles.count(ROLE_UNLABELED) == n - n_test - n_labeled

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(-3, 3))
    def test_fewer_than_four_points_rejected(self, n):
        with pytest.raises(DataError, match="at least 4 points"):
            split_roles(n, Rng(0))

    def test_split_target_tags_in_place(self):
        ds = generate_synthetic(SynthSpec(domains=2, points_per_domain=8), seed=1)
        tags = split_target(ds, seed=5)
        assert [p.role for p in ds.target] == tags
        assert all(p.role is None for p in ds.domains[0])


class TestNeighborGraph:
    def test_k_zero_is_empty(self):
        pts = [point(seed_rng=Rng(i)) for i in range(5)]
        g = build_neighbor_graph(pts, 0)
        assert not np.any(g.matrix())

    def test_symmetric_zero_diagonal(self):
        rng = Rng(4)
        pts = [point(seed_rng=rng) for _ in range(8)]
        m = build_neighbor_graph(pts, 3).matrix()
        assert np.array_equal(m, m.T)
        assert not np.any(np.diag(m))

    def test_collinear_means(self):
        # column means at 0, 1, 3 on a line; k=1 then union-symmetrize
        pts = [DataPoint(x=np.full((1, 2), v), a=np.zeros(1)) for v in (0.0, 1.0, 3.0)]
        g = build_neighbor_graph(pts, 1)
        assert g.neighbors == [[1], [0, 2], [1]]

    def test_matches_exhaustive_distance_oracle(self):
        rng = Rng(21)
        pts = [DataPoint(x=rng.normal((3, 4)), a=np.zeros(1)) for _ in range(10)]
        k = 2
        g = build_neighbor_graph(pts, k)
        means = [p.x.mean(axis=1) for p in pts]
        want = set()
        for i in range(10):
            dists = sorted((np.linalg.norm(means[i] - means[j]), j)
                           for j in range(10) if j != i)
            for _, j in dists[:k]:
                want.add((min(i, j), max(i, j)))
        got = {(min(i, j), max(i, j)) for i, adj in enumerate(g.neighbors) for j in adj}
        assert got == want

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_symmetric_loop_free_and_at_least_k_neighbors(self, data):
        # small integer entries make distance ties common
        n = data.draw(st.integers(2, 12), label="n")
        d = data.draw(st.integers(1, 3), label="d")
        k = data.draw(st.integers(0, n - 1), label="k")
        cells = st.lists(st.integers(-2, 2), min_size=2 * d, max_size=2 * d)
        pts = [DataPoint(x=np.array(data.draw(cells), dtype=float).reshape(d, 2), a=np.zeros(1))
               for _ in range(n)]
        g = build_neighbor_graph(pts, k)
        for i, adj in enumerate(g.neighbors):
            assert i not in adj
            assert len(adj) >= k
            assert all(i in g.neighbors[j] for j in adj)

    def test_k_too_large_rejected(self):
        pts = [point(seed_rng=Rng(i)) for i in range(3)]
        with pytest.raises(DataError):
            build_neighbor_graph(pts, 3)


class TestSynthetic:
    def test_deterministic(self):
        spec = SynthSpec(domains=2, points_per_domain=6)
        a = generate_synthetic(spec, seed=3)
        b = generate_synthetic(spec, seed=3)
        for dom_a, dom_b in zip(a.domains, b.domains):
            for pa, pb in zip(dom_a, dom_b):
                assert np.array_equal(pa.x, pb.x)
                assert np.array_equal(pa.a, pb.a)
                assert np.array_equal(pa.y, pb.y)

    def test_degenerate_spec_makes_domains_identical_per_class(self):
        spec = SynthSpec(domains=3, points_per_domain=4, shift=0.0, noise=0.0,
                         l_min=3, l_max=3)
        ds = generate_synthetic(spec, seed=9)
        for i in range(4):
            assert np.array_equal(ds.domains[0][i].x, ds.domains[1][i].x)
            assert np.array_equal(ds.domains[1][i].x, ds.domains[2][i].x)

    def test_large_margin_small_noise_nearest_prototype_accuracy(self):
        spec = SynthSpec(domains=2, points_per_domain=40, margin=4.0,
                         shift=0.0, noise=0.1)
        ds = generate_synthetic(spec, seed=11)
        # nearest class-centroid oracle, centroids estimated in-domain
        for dom in ds.domains:
            means = {}
            for p in dom:
                means.setdefault(int(np.argmax(p.y)), []).append(p.x.mean(axis=1))
            cents = {c: np.mean(v, axis=0) for c, v in means.items()}
            correct = 0
            for p in dom:
                v = p.x.mean(axis=1)
                pred = min(cents, key=lambda c: np.linalg.norm(v - cents[c]))
                correct += pred == int(np.argmax(p.y))
            assert correct / len(dom) > 0.95

    def test_shape_correct(self):
        spec = SynthSpec(domains=4, points_per_domain=5, feature_dim=3, attr_dim=6, classes=3,
                         l_min=2, l_max=4)
        ds = generate_synthetic(spec, seed=13)
        assert ds.n_domains == 4
        for dom in ds.domains:
            assert len(dom) == 5
            for p in dom:
                assert p.x.shape[0] == 3 and 2 <= p.x.shape[1] <= 4
                assert p.a.shape == (6,) and p.y.shape == (3,)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        ds = generate_synthetic(SynthSpec(domains=2, points_per_domain=5), seed=7)
        split_target(ds, seed=2)
        path = str(tmp_path / "data.json")
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert (loaded.d, loaded.a_dim, loaded.y_dim) == (ds.d, ds.a_dim, ds.y_dim)
        for dom_a, dom_b in zip(loaded.domains, ds.domains):
            for pa, pb in zip(dom_a, dom_b):
                assert np.array_equal(pa.x, pb.x)
                assert np.array_equal(pa.a, pb.a)
                assert np.array_equal(pa.y, pb.y)
                assert pa.role == pb.role

    def test_non_binary_attribute_rejected_with_location(self, tmp_path):
        ds = generate_synthetic(SynthSpec(domains=2, points_per_domain=4), seed=1)
        path = str(tmp_path / "bad.json")
        save_dataset(ds, path)
        doc = json.loads(open(path).read())
        doc["domains"][1]["points"][2]["a"] = [0, 2, 1] + [0] * (ds.a_dim - 3)
        with open(path, "w") as f:
            json.dump(doc, f)
        with pytest.raises(DataError, match="domain 1, point 2"):
            load_dataset(path)

    def test_hand_written_fixture(self, tmp_path):
        doc = {
            "version": 1,
            "d": 2, "A": 2, "Y": 2,
            "domains": [
                {"id": 0, "target": False,
                 "points": [{"x": [[1.0, 2.0], [3.0, 4.0]], "a": [1, 0], "y": [0, 1]}]},
                {"id": 1, "target": True,
                 "points": [
                     {"x": [[0.5], [0.25]], "a": [0, 1], "y": [1, 0], "role": "test"},
                     {"x": [[-1.0], [0.0]], "a": [1, 1], "y": None},
                 ]},
            ],
        }
        path = str(tmp_path / "fixture.json")
        with open(path, "w") as f:
            json.dump(doc, f)
        ds = load_dataset(path)
        assert ds.n_domains == 2
        assert np.array_equal(ds.domains[0][0].x, np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(ds.target[0].a, np.array([0.0, 1.0]))
        assert ds.target[0].role == ROLE_TEST
        assert ds.target[1].y is None

    def test_unlabeled_auxiliary_point_rejected(self):
        pts_aux = [DataPoint(x=np.ones((2, 2)), a=np.zeros(2), y=None)]
        pts_tgt = [point() for _ in range(2)]
        with pytest.raises(DataError, match="auxiliary"):
            MultiDomainDataset(d=2, a_dim=2, y_dim=2, domains=[pts_aux, pts_tgt])
