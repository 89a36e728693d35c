import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convtransfer.dataset import (
    ROLES,
    ROLE_LABELED,
    ROLE_TEST,
    ROLE_UNLABELED,
    DataError,
    DataPoint,
    MultiDomainDataset,
    NeighborGraph,
    SynthSpec,
    build_neighbor_graph,
    generate_synthetic,
    load_dataset,
    save_dataset,
    split_roles,
    split_target,
    validate_dataset,
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
        # the adjacency matrix lists the edges in adjacency-list order
        edges = [(i, j) for i, adj in enumerate(g.neighbors) for j in adj]
        assert [(int(i), int(j)) for i, j in zip(*np.nonzero(g.matrix()))] == edges

    def test_overflowing_distances_still_give_a_loop_free_graph(self):
        # every squared distance overflows to inf, so all distances tie
        pts = [DataPoint(x=np.full((1, 2), v * 1e200), a=np.zeros(1)) for v in (0.0, 2.0, 5.0)]
        with np.errstate(over="ignore"):
            g = build_neighbor_graph(pts, 1)
        assert g.neighbors == [[1, 2], [0], [0]]

    def test_negative_k_rejected(self):
        pts = [point(seed_rng=Rng(i)) for i in range(3)]
        with pytest.raises(DataError, match="nonnegative"):
            build_neighbor_graph(pts, -1)

    @pytest.mark.parametrize("neighbors, message", [
        ([[1], [0, 2]], "2 adjacency lists for n=3"),
        ([[3], [], []], "node 0: neighbor 3 out of range"),
        ([[1], [0, 1], []], "node 1: self-loop"),
        ([[1, 2], [0], []], "edge 0-2 is not symmetric"),
        ([[1, 1], [0], []], "node 0: neighbors must be sorted and distinct"),
        ([[2, 1], [0], [0]], "node 0: neighbors must be sorted and distinct"),
    ])
    def test_graph_rejects_malformed_adjacency(self, neighbors, message):
        with pytest.raises(DataError, match=message):
            NeighborGraph(n=3, neighbors=neighbors)

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

    def test_prototype_draw_stops_at_its_first_close_pair(self, monkeypatch):
        # one-dimensional prototypes of 30 classes: every draw has close
        # pairs, so all 1000 draws are rejected
        spec = SynthSpec(classes=30, feature_dim=1, points_per_domain=2)
        real_normal, real_dist = Rng.normal, math.dist
        state = {"draws": 0, "close": False}

        def normal(self, shape):
            state["draws"] += 1
            state["close"] = False
            return real_normal(self, shape)

        def dist(p, q):
            assert not state["close"], "a distance was evaluated after a close pair of its draw"
            out = real_dist(p, q)
            state["close"] = out < spec.margin
            return out

        monkeypatch.setattr(Rng, "normal", normal)
        monkeypatch.setattr(math, "dist", dist)
        with pytest.raises(DataError, match="could not place class prototypes"):
            generate_synthetic(spec, seed=0)
        assert state["draws"] == 1000


def small_doc():
    """A hand-written dataset file: one auxiliary point, then a target
    point tagged test and an unlabeled one tagged train-unlabeled."""
    return {
        "version": 1, "d": 2, "A": 2, "Y": 2,
        "domains": [
            {"id": 0, "target": False,
             "points": [{"x": [[1.0, 2.0], [3.0, 4.0]], "a": [1, 0], "y": [0, 1]}]},
            {"id": 1, "target": True,
             "points": [{"x": [[0.5], [0.25]], "a": [0, 1], "y": [1, 0], "role": "test"},
                        {"x": [[-1.0], [0.0]], "a": [1, 1], "y": None,
                         "role": "train-unlabeled"}]},
        ],
    }


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
        doc = json.loads((tmp_path / "bad.json").read_text())
        doc["domains"][1]["points"][2]["a"] = [0, 2, 1] + [0] * (ds.a_dim - 3)
        with open(path, "w") as f:
            json.dump(doc, f)
        with pytest.raises(DataError, match="domain 1, point 2"):
            load_dataset(path)

    def test_hand_written_fixture(self, tmp_path):
        doc = small_doc()
        path = str(tmp_path / "fixture.json")
        with open(path, "w") as f:
            json.dump(doc, f)
        ds = load_dataset(path)
        assert ds.n_domains == 2
        assert np.array_equal(ds.domains[0][0].x, np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(ds.target[0].a, np.array([0.0, 1.0]))
        assert ds.target[0].role == ROLE_TEST
        assert ds.target[1].y is None

    # (case, change to small_doc(), or the file's whole text; expected message)
    REJECTIONS = [
        ("invalid JSON", "{", "not valid JSON"),
        ("wrong version", lambda doc: doc.update(version=2), "unsupported dataset version 2"),
        ("missing field", lambda doc: doc.pop("Y"), "missing field 'Y'"),
        ("domains not objects", lambda doc: doc.update(domains=[1]), "list of objects"),
        ("no target", lambda doc: doc["domains"][1].update(target=False),
         "exactly one domain must have target: true, found 0"),
        ("target not last", lambda doc: doc["domains"].reverse(), "must be listed last"),
        ("dimension not an integer", lambda doc: doc.update(d=2.5), "dimension d"),
        ("point not an object", lambda doc: doc["domains"][1]["points"].__setitem__(1, []),
         "domain 1, point 1: must be an object"),
        ("missing x", lambda doc: doc["domains"][0]["points"][0].pop("x"),
         "domain 0, point 0: malformed arrays"),
        ("ragged x", lambda doc: doc["domains"][1]["points"][0].update(x=[[0.5, 1.0], [0.25]]),
         "domain 1, point 0: malformed arrays"),
        ("x with the wrong rows", lambda doc: doc["domains"][0]["points"][0].update(x=[[1.0]]),
         "domain 0, point 0: x must be 2xL"),
        ("x without columns", lambda doc: doc["domains"][1]["points"][1].update(x=[[], []]),
         "domain 1, point 1: x must be 2xL"),
        ("non-finite x", lambda doc: doc["domains"][1]["points"][1]["x"][0].__setitem__(0, math.nan),
         "domain 1, point 1: x contains non-finite"),
        ("wrong a length", lambda doc: doc["domains"][0]["points"][0].update(a=[1]),
         "domain 0, point 0: attribute vector has shape"),
        ("wrong y length", lambda doc: doc["domains"][0]["points"][0].update(y=[0, 0, 1]),
         "domain 0, point 0: label has shape"),
        ("non-one-hot y", lambda doc: doc["domains"][1]["points"][0].update(y=[1, 1]),
         "domain 1, point 0: label must be one-hot"),
        ("unknown role", lambda doc: doc["domains"][1]["points"][1].update(role="train"),
         "domain 1, point 1: unknown role 'train'"),
        ("role in an auxiliary domain", lambda doc: doc["domains"][0]["points"][0].update(role="test"),
         "domain 0, point 0: role tags are only valid in the target domain"),
        ("unlabeled auxiliary point", lambda doc: doc["domains"][0]["points"][0].update(y=None),
         "domain 0, point 0: auxiliary-domain points must be labeled"),
        ("mixed tags", lambda doc: doc["domains"][1]["points"][1].pop("role"),
         "domain 1, point 1: no role tag, but other target points have one; "
         "tag every target point or none"),
        ("unlabeled test point", lambda doc: doc["domains"][1]["points"][0].update(y=None),
         "domain 1, point 0: a test point must be labeled"),
    ]

    @pytest.mark.parametrize("change, message", [c[1:] for c in REJECTIONS],
                             ids=[c[0] for c in REJECTIONS])
    def test_rejection_names_the_file_and_location(self, tmp_path, change, message):
        path = tmp_path / "bad.json"
        if isinstance(change, str):
            path.write_text(change)
        else:
            doc = small_doc()
            change(doc)
            path.write_text(json.dumps(doc))
        with pytest.raises(DataError) as exc:
            load_dataset(str(path))
        assert str(exc.value).startswith(f"{path}: ")
        assert message in str(exc.value)

    def test_unlabeled_auxiliary_point_rejected(self):
        pts_aux = [DataPoint(x=np.ones((2, 2)), a=np.zeros(2), y=None)]
        pts_tgt = [point() for _ in range(2)]
        with pytest.raises(DataError, match="auxiliary"):
            MultiDomainDataset(d=2, a_dim=2, y_dim=2, domains=[pts_aux, pts_tgt])


@st.composite
def datasets(draw):
    """Datasets of 1 to 3 domains of 1 to 3 points, with any finite x, a role
    on every target point or on none, and every label present except (in
    the target) maybe on an untagged or train-unlabeled point."""
    d, a_dim, y_dim = (draw(st.integers(1, 3)) for _ in range(3))
    n_domains = draw(st.integers(1, 3))
    domains = []
    tagged = draw(st.booleans())
    for t in range(n_domains):
        is_target = t == n_domains - 1
        points = []
        for _ in range(draw(st.integers(1, 3))):
            L = draw(st.integers(1, 3))
            x = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                              min_size=d * L, max_size=d * L))
            a = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=a_dim, max_size=a_dim))
            role = draw(st.sampled_from(ROLES)) if is_target and tagged else None
            label = draw(st.integers(0, y_dim - 1) | st.none()
                         if is_target and role in (None, ROLE_UNLABELED)
                         else st.integers(0, y_dim - 1))
            points.append(DataPoint(x=np.array(x).reshape(d, L), a=a,
                                    y=None if label is None else np.eye(y_dim)[label], role=role))
        domains.append(points)
    return MultiDomainDataset(d=d, a_dim=a_dim, y_dim=y_dim, domains=domains)


@settings(max_examples=50, deadline=None)
@given(datasets())
def test_save_load_round_trips_bit_for_bit(ds):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.json")
        save_dataset(ds, path)
        loaded = load_dataset(path)
    assert (loaded.d, loaded.a_dim, loaded.y_dim) == (ds.d, ds.a_dim, ds.y_dim)

    def bits(points):
        return [(p.x.shape, p.x.tobytes(), p.a.tobytes(),
                 None if p.y is None else p.y.tobytes(), p.role) for p in points]

    assert [bits(dom) for dom in loaded.domains] == [bits(dom) for dom in ds.domains]


@settings(max_examples=50, deadline=None)
@given(datasets())
def test_training_view_hides_test_points_and_unlabeled_labels(ds):
    labels = [[id(p.y) for p in dom] for dom in ds.domains]
    view = ds.target_train_points()
    assert [id(p.x) for p in view] == [id(p.x) for p in ds.target if p.role != ROLE_TEST]
    for p, seen in zip((p for p in ds.target if p.role != ROLE_TEST), view):
        assert seen.role != ROLE_TEST
        assert seen.role != ROLE_UNLABELED or seen.y is None
        # a train-unlabeled point is copied without its label, any other is itself
        if p.role == ROLE_UNLABELED:
            assert seen.x is p.x and seen.a is p.a and seen.role == p.role and seen is not p
        else:
            assert seen is p
    # the dataset itself keeps every label
    assert [[id(p.y) for p in dom] for dom in ds.domains] == labels


# A verbatim copy of the point-by-point check validate_dataset replaced, with
# the two target-role rules added, kept here as an oracle independent of the
# module's rule table. `tagged`: some point of the domain has a role tag.
def _check_point(p: DataPoint, d: int, a_dim: int, y_dim: int, where: str,
                 target: bool, tagged: bool) -> None:
    if p.x.ndim != 2 or p.x.shape[0] != d or p.x.shape[1] < 1:
        raise DataError(f"{where}: x must be {d}xL with L >= 1, got shape {p.x.shape}")
    if not np.isfinite(p.x).all():
        raise DataError(f"{where}: x contains non-finite entries")
    if p.a.shape != (a_dim,):
        raise DataError(f"{where}: attribute vector has shape {p.a.shape}, expected ({a_dim},)")
    if not ((p.a == 0.0) | (p.a == 1.0)).all():
        raise DataError(f"{where}: attribute vector entries must be 0/1, got {p.a.tolist()}")
    if p.y is not None:
        if p.y.shape != (y_dim,):
            raise DataError(f"{where}: label has shape {p.y.shape}, expected ({y_dim},)")
        if not (((p.y == 0.0) | (p.y == 1.0)).all() and p.y.sum() == 1.0):
            raise DataError(f"{where}: label must be one-hot, got {p.y.tolist()}")
    if p.role is not None and p.role not in ROLES:
        raise DataError(f"{where}: unknown role {p.role!r}")
    if not target and p.y is None:
        raise DataError(f"{where}: auxiliary-domain points must be labeled")
    if not target and p.role is not None:
        raise DataError(f"{where}: role tags are only valid in the target domain")
    if target and tagged and p.role is None:
        raise DataError(f"{where}: no role tag, but other target points have one; "
                        f"tag every target point or none")
    if p.y is None and p.role in (ROLE_LABELED, ROLE_TEST):
        raise DataError(f"{where}: a {p.role} point must be labeled")


def reference_validate(ds):
    """The point-by-point loop over the oracle check."""
    for t, dom in enumerate(ds.domains):
        tagged = any(p.role is not None for p in dom)
        for i, p in enumerate(dom):
            _check_point(p, ds.d, ds.a_dim, ds.y_dim, f"domain {t}, point {i}",
                         t == ds.n_domains - 1, tagged)


def _message(check, ds):
    """The message of the DataError check(ds) raises, or None."""
    try:
        check(ds)
    except DataError as e:
        return str(e)
    return None


def _fault(p, kind, ds):
    """Break point p in place by the named kind of fault."""
    if kind == "x rows":
        p.x = np.zeros((ds.d + 1, 2))
    elif kind == "x without columns":
        p.x = np.zeros((ds.d, 0))
    elif kind == "x one-dimensional":
        p.x = p.x.ravel()
    elif kind in ("nan x", "inf x"):
        p.x = p.x.copy()
        p.x.flat[-1:] = math.nan if kind == "nan x" else -math.inf  # none if x is empty
    elif kind == "a length":
        p.a = np.zeros(ds.a_dim + 1)
    elif kind == "non-binary a":
        p.a = p.a.copy()
        p.a[0] = 0.5
    elif kind == "nan a":
        p.a = p.a.copy()
        p.a[-1] = math.nan
    elif kind == "a two-dimensional":  # values a stacked 0/1 check would pass
        p.a = p.a.reshape(1, -1)
    elif kind == "y length":
        p.y = np.zeros(ds.y_dim + 1)
    elif kind == "y two-dimensional":  # values a stacked one-hot check would pass
        p.y = p.y.reshape(-1, 1)
    elif kind == "nan y":
        p.y = p.y.copy()
        p.y[0] = math.nan
    elif kind == "zero y":
        p.y = np.zeros(ds.y_dim)
    elif kind == "two-hot y":
        p.y = np.ones(ds.y_dim) if ds.y_dim > 1 else np.array([2.0])
    elif kind == "unknown role":
        p.role = "train"
    elif kind == "no label":  # a fault in an auxiliary domain only
        p.y = None
    elif kind == "role":  # a fault in an auxiliary domain only
        p.role = ROLE_TEST
    elif kind == "mixed tags":  # a fault in a target of two or more points
        p.role = None if p.role else ROLE_LABELED
    elif kind == "unlabeled test point":
        p.role, p.y = ROLE_TEST, None


FAULTS = ["x rows", "x without columns", "x one-dimensional", "nan x", "inf x", "a length",
          "a two-dimensional", "non-binary a", "nan a", "y length", "y two-dimensional",
          "nan y", "zero y", "two-hot y", "unknown role", "no label", "role", "mixed tags",
          "unlabeled test point"]
LABEL_FAULTS = ("y length", "y two-dimensional", "nan y", "zero y", "two-hot y")


@settings(max_examples=60, deadline=None)
@given(datasets(), st.data())
def test_array_validation_names_the_point_the_point_loop_names(ds, data):
    points = [p for dom in ds.domains for p in dom]
    for _ in range(data.draw(st.integers(1, 4))):
        p = data.draw(st.sampled_from(points))
        kind = data.draw(st.sampled_from(FAULTS))
        if p.y is None and kind in LABEL_FAULTS:
            continue  # a label fault needs a label
        _fault(p, kind, ds)
    assert _message(validate_dataset, ds) == _message(reference_validate, ds)


@pytest.mark.parametrize("kind", FAULTS)
def test_each_fault_alone_gets_the_point_loop_message(kind):
    # each fault leads the dataset, so each rule is checked on its own
    ds = generate_synthetic(SynthSpec(domains=2, points_per_domain=4, feature_dim=3, attr_dim=2,
                                      l_min=2, l_max=4), seed=0)
    split_target(ds, 0)
    # the faults of auxiliary points only go to one; the rest to a labeled target point
    p = ds.domains[0][1] if kind in ("no label", "role") else ds.target[2]
    _fault(p, kind, ds)
    want = _message(reference_validate, ds)
    assert want is not None
    assert _message(validate_dataset, ds) == want
