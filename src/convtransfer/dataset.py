"""Multi-domain dataset: schema, split protocol, neighbor graph, synthetic data.

A dataset holds T ordered domains of points; the last domain is the target.
Auxiliary-domain points are always labeled. Target points carry role tags
(train-labeled / train-unlabeled / test), all or none (split_target tags
them); labels of train-unlabeled and test points exist for post-hoc
evaluation only and are hidden from the trainer.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from itertools import chain, combinations

import numpy as np

from .numeric import Rng, _drawable

FORMAT_VERSION = 1

ROLE_LABELED = "train-labeled"
ROLE_UNLABELED = "train-unlabeled"
ROLE_TEST = "test"
ROLES = (ROLE_LABELED, ROLE_UNLABELED, ROLE_TEST)


class DataError(ValueError):
    """Schema or invariant violation, with the offending location in the message."""


@dataclass
class DataPoint:
    """Instance matrix x (d x L, columns are instances), binary attribute
    vector a, optional one-hot label y, optional target-domain role tag."""

    x: np.ndarray
    a: np.ndarray
    y: np.ndarray | None = None
    role: str | None = None

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.a = np.asarray(self.a, dtype=np.float64)
        if self.y is not None:
            self.y = np.asarray(self.y, dtype=np.float64)


@dataclass
class MultiDomainDataset:
    """Ordered domains; the last one is the target."""

    d: int
    a_dim: int
    y_dim: int
    domains: list[list[DataPoint]]

    def __post_init__(self):
        validate_dataset(self)

    @property
    def n_domains(self) -> int:
        return len(self.domains)

    @property
    def target(self) -> list[DataPoint]:
        return self.domains[-1]

    def target_points(self, role: str) -> list[DataPoint]:
        """Target points with the given role, in order."""
        return [p for p in self.target if p.role == role]

    def target_train_points(self) -> list[DataPoint]:
        """Target points as the trainer may see them, in order: test points
        dropped and each train-unlabeled point replaced by a label-less copy;
        every other point is returned itself."""
        return [DataPoint(x=p.x, a=p.a, role=p.role) if p.role == ROLE_UNLABELED else p
                for p in self.target if p.role != ROLE_TEST]


def _point_rules(d: int, a_dim: int, y_dim: int, target: bool, tagged: bool) -> tuple:
    """The point rules of one domain in the order a point is checked, as
    (test, message) pairs: test maps a list of points to one bool per point,
    and message words one point that fails it. A value rule stacks the
    arrays of its points, so it only runs on points that passed the shape
    rules above it. The last two are the target-role rules; `tagged` is
    whether any point of the domain has a tag."""
    def each(rule):
        return lambda pts: np.fromiter(map(rule, pts), dtype=bool, count=len(pts))

    def finite_x(pts):
        lengths = np.fromiter((p.x.shape[1] for p in pts), dtype=np.intp, count=len(pts))
        finite = np.isfinite(np.concatenate([p.x for p in pts], axis=1)).all(axis=0)
        return np.logical_and.reduceat(finite, np.cumsum(lengths) - lengths)

    def binary(rows):
        return ((rows == 0.0) | (rows == 1.0)).all(axis=1)

    def one_hot_y(pts):
        # an unlabeled point stands in as a one-hot row, which passes
        one_hot = np.eye(1, y_dim)[0]
        y = np.concatenate([one_hot if p.y is None else p.y for p in pts]).reshape(-1, y_dim)
        return binary(y) & (y.sum(axis=1) == 1.0)

    return (
        (each(lambda p: p.x.ndim == 2 and p.x.shape[0] == d and p.x.shape[1] >= 1),
         lambda p: f"x must be {d}xL with L >= 1, got shape {p.x.shape}"),
        (finite_x, lambda p: "x contains non-finite entries"),
        (each(lambda p: p.a.shape == (a_dim,)),
         lambda p: f"attribute vector has shape {p.a.shape}, expected ({a_dim},)"),
        (lambda pts: binary(np.concatenate([p.a for p in pts]).reshape(-1, a_dim)),
         lambda p: f"attribute vector entries must be 0/1, got {p.a.tolist()}"),
        (each(lambda p: p.y is None or p.y.shape == (y_dim,)),
         lambda p: f"label has shape {p.y.shape}, expected ({y_dim},)"),
        (one_hot_y, lambda p: f"label must be one-hot, got {p.y.tolist()}"),
        (each(lambda p: p.role is None or p.role in ROLES), lambda p: f"unknown role {p.role!r}"),
        (each(lambda p: target or p.y is not None),
         lambda p: "auxiliary-domain points must be labeled"),
        (each(lambda p: target or p.role is None),
         lambda p: "role tags are only valid in the target domain"),
        (each(lambda p: p.role is not None or not (target and tagged)),
         lambda p: "no role tag, but other target points have one; tag every target point or none"),
        (each(lambda p: p.y is not None or p.role in (None, ROLE_UNLABELED)),
         lambda p: f"a {p.role} point must be labeled"),
    )


def validate_dataset(ds: MultiDomainDataset) -> None:
    for name, key in (("d", "d"), ("a_dim", "A"), ("y_dim", "Y")):
        v = getattr(ds, name)
        if not isinstance(v, (int, np.integer)) or isinstance(v, bool) or v < 1:
            raise DataError(f"dimension {name} ({key!r} in the file) must be an integer >= 1, "
                            f"got {v!r}")
    if ds.n_domains < 1:
        raise DataError("dataset must contain at least one domain")
    for t, dom in enumerate(ds.domains):
        # each rule tests the points ahead of the first one failed so far, so
        # the last failure found is the first rule the first bad point fails;
        # a list of bools is cheaper to search than a small array to reduce
        pts, error = dom, None
        tagged = any(p.role is not None for p in dom)
        for test, message in _point_rules(ds.d, ds.a_dim, ds.y_dim, t == ds.n_domains - 1, tagged):
            if pts and False in (ok := test(pts).tolist()):
                i = ok.index(False)
                pts, error = pts[:i], f"domain {t}, point {i}: {message(pts[i])}"
        if error:
            raise DataError(error)


def split_roles(n: int, rng: Rng) -> list[str]:
    """Role tags for n target points: a random half is test (floor(n/2)),
    and the training half splits into ceil/floor labeled/unlabeled halves."""
    if n < 4:
        raise DataError(f"target domain needs at least 4 points to split, got {n}")
    n_test = n // 2
    n_labeled = math.ceil((n - n_test) / 2)
    roles = np.empty(n, dtype=object)
    roles[rng.permutation(n)] = ([ROLE_TEST] * n_test + [ROLE_LABELED] * n_labeled
                                 + [ROLE_UNLABELED] * (n - n_test - n_labeled))
    return roles.tolist()


def split_target(ds: MultiDomainDataset, seed: int) -> list[str]:
    """Tag an untagged target domain in place by the seed (split_roles); a
    tagged one keeps its tags. Returns the target's tags."""
    if ds.target[0].role is None:  # the role rules allow all tags or none
        for p, role in zip(ds.target, split_roles(len(ds.target), Rng(seed))):
            p.role = role
        if any(p.y is None for p in ds.target):  # a new tag may need a label
            validate_dataset(ds)
    return [p.role for p in ds.target]


@dataclass
class NeighborGraph:
    """Symmetric 0/1 adjacency with zero diagonal, stored as sorted, distinct lists."""

    n: int
    neighbors: list[list[int]]

    def __post_init__(self):
        if len(self.neighbors) != self.n:
            raise DataError(f"graph has {len(self.neighbors)} adjacency lists for n={self.n}")
        for i, adj in enumerate(self.neighbors):
            for j in adj:
                if not 0 <= j < self.n:
                    raise DataError(f"node {i}: neighbor {j} out of range")
                if j == i:
                    raise DataError(f"node {i}: self-loop not allowed")
            if any(j >= k for j, k in zip(adj, adj[1:])):
                raise DataError(f"node {i}: neighbors must be sorted and distinct")
        m = self.matrix()
        if (m > m.T).any():
            raise DataError("edge {}-{} is not symmetric".format(*np.argwhere(m > m.T)[0]))

    def matrix(self) -> np.ndarray:
        """The n x n 0/1 adjacency; np.nonzero lists its edges in list order."""
        m = np.zeros((self.n, self.n))
        m[np.repeat(np.arange(self.n), [len(adj) for adj in self.neighbors]),
          np.fromiter(chain.from_iterable(self.neighbors), dtype=np.intp)] = 1.0
        return m


@np.errstate(over="ignore")  # a distance that overflows is inf and sorts last, see below
def build_neighbor_graph(points: list[DataPoint], k: int) -> NeighborGraph:
    """k-nearest-neighbor graph over column-mean feature vectors, Euclidean
    distance, symmetrized by union; distance ties break toward lower index."""
    n = len(points)
    if k < 0:
        raise DataError(f"k must be nonnegative, got {k}")
    if k >= n:
        raise DataError(f"knn_k={k} must be smaller than the number of target points the "
                        f"trainer sees, n={n}")
    means = np.stack([p.x.mean(axis=1) for p in points])
    diffs = means[:, None, :] - means[None, :, :]
    dist = np.sqrt(np.sum(diffs * diffs, axis=2))
    # each point's own column is dropped from its order, not set to inf: a
    # distance that overflows to inf must not tie with it
    order = np.argsort(dist, axis=1, kind="stable")
    rows = np.arange(n)[:, None]
    adj = np.zeros((n, n), dtype=bool)
    adj[rows, order[order != rows].reshape(n, n - 1)[:, :k]] = True
    adj |= adj.T
    return NeighborGraph(n=n, neighbors=[np.flatnonzero(row).tolist() for row in adj])


@dataclass
class SynthSpec:
    """Synthetic multi-domain generator settings.

    Per class: a shared prototype column vector. Per domain: one additive
    shift vector applied to every column. Each point's columns are
    prototype + shift + Gaussian noise; attributes are drawn from
    class-conditional Bernoulli templates shared across domains, so they
    correlate with labels everywhere.
    """

    domains: int = 3
    points_per_domain: int = 60
    feature_dim: int = 6
    attr_dim: int = 8
    classes: int = 2
    l_min: int = 3
    l_max: int = 6
    margin: float = 3.0
    shift: float = 1.0
    noise: float = 0.5

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(f.default, int) and int(v) < 1:
                raise DataError(f"synthetic spec field {f.name} must be positive")
            if isinstance(f.default, float) and not 0 <= v < math.inf:
                raise DataError(f"synthetic spec field {f.name} must be nonnegative and finite, "
                                f"got {v}")
        if self.l_min > self.l_max:
            raise DataError(f"l_min={self.l_min} exceeds l_max={self.l_max}")


@np.errstate(over="ignore")  # an overflowing draw is inf, which validation rejects
def generate_synthetic(spec: SynthSpec, seed: int) -> MultiDomainDataset:
    """Deterministic per seed; every point in every domain is labeled
    (target labels are hidden later by the split)."""
    # before any draw: the largest point, and every point at its fewest
    # columns, which must also fit in memory at once
    _drawable((spec.feature_dim, spec.l_max))
    _drawable((spec.domains, spec.points_per_domain, spec.feature_dim, spec.l_min), in_memory=True)
    rng = Rng(seed)
    # class prototypes, redrawn until pairwise distances reach the margin
    for _ in range(1000):
        protos = rng.normal((spec.classes, spec.feature_dim)) * max(spec.margin, 1e-12)
        if not any(math.dist(protos[c], protos[c2]) < spec.margin
                   for c, c2 in combinations(range(spec.classes), 2)):
            break
    else:
        raise DataError("could not place class prototypes at the requested margin")
    # class-conditional Bernoulli templates over attributes
    templates = np.where(rng.uniform(0.0, 1.0, (spec.classes, spec.attr_dim)) < 0.5, 0.1, 0.9)
    shifts = rng.uniform(-1.0, 1.0, (spec.domains, spec.feature_dim)) * spec.shift

    domains: list[list[DataPoint]] = []
    for t in range(spec.domains):
        points = []
        for i in range(spec.points_per_domain):
            c = i % spec.classes  # balanced classes
            length = int(rng.integers(spec.l_min, spec.l_max + 1))
            noise = spec.noise * rng.normal((spec.feature_dim, length))
            cols = protos[c][:, None] + shifts[t][:, None] + noise
            a = (rng.uniform(0.0, 1.0, (spec.attr_dim,)) < templates[c]).astype(np.float64)
            y = np.zeros(spec.classes)
            y[c] = 1.0
            points.append(DataPoint(x=cols, a=a, y=y))
        domains.append(points)
    return MultiDomainDataset(d=spec.feature_dim, a_dim=spec.attr_dim, y_dim=spec.classes,
                              domains=domains)


def save_dataset(ds: MultiDomainDataset, path: str) -> None:
    doc = {
        "version": FORMAT_VERSION,
        "d": ds.d,
        "A": ds.a_dim,
        "Y": ds.y_dim,
        "domains": [
            {
                "id": t,
                "target": t == ds.n_domains - 1,
                "points": [
                    {
                        "x": p.x.tolist(),
                        "a": [int(v) for v in p.a],
                        "y": None if p.y is None else [int(v) for v in p.y],
                        **({"role": p.role} if p.role is not None else {}),
                    }
                    for p in dom
                ],
            }
            for t, dom in enumerate(ds.domains)
        ],
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def load_dataset(path: str) -> MultiDomainDataset:
    with open(path) as f:
        try:
            doc = json.load(f)
        except (ValueError, RecursionError) as e:  # also not UTF-8, too deep, too many digits
            raise DataError(f"{path}: not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise DataError(f"{path}: top level must be a JSON object, got {type(doc).__name__}")
    if doc.get("version") != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported dataset version {doc.get('version')}")
    for key in ("d", "A", "Y", "domains"):
        if key not in doc:
            raise DataError(f"{path}: missing field {key!r}")
    if not isinstance(doc["domains"], list) or not all(isinstance(d, dict) for d in doc["domains"]):
        raise DataError(f"{path}: 'domains' must be a list of objects")
    targets = [dom for dom in doc["domains"] if dom.get("target")]
    if len(targets) != 1:
        raise DataError(f"{path}: exactly one domain must have target: true, found {len(targets)}")
    if not doc["domains"][-1].get("target"):
        raise DataError(f"{path}: the target domain must be listed last")
    domains = []
    for t, dom in enumerate(doc["domains"]):
        entries = dom.get("points")
        if not isinstance(entries, list) or not entries:
            raise DataError(f"{path}: domain {t} has no points (expected a non-empty 'points' list)")
        points = []
        for i, entry in enumerate(entries):
            where = f"{path}: domain {t}, point {i}"
            if not isinstance(entry, dict):
                raise DataError(f"{where}: must be an object")
            try:
                points.append(DataPoint(x=entry["x"], a=entry["a"], y=entry.get("y"),
                                        role=entry.get("role")))
            except (KeyError, OverflowError, TypeError, ValueError) as e:
                raise DataError(f"{where}: malformed arrays: {e}") from e
        domains.append(points)
    try:
        return MultiDomainDataset(d=doc["d"], a_dim=doc["A"], y_dim=doc["Y"], domains=domains)
    except DataError as e:
        raise DataError(f"{path}: {e}") from e
