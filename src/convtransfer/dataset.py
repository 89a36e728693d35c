"""Multi-domain dataset: schema, split protocol, neighbor graph, synthetic data.

A dataset holds T ordered domains of points; the last domain is the target.
Auxiliary-domain points are always labeled. Target points carry role tags
(train-labeled / train-unlabeled / test) after splitting; labels of
train-unlabeled and test points exist for post-hoc evaluation only and are
hidden from the trainer.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .numeric import Rng

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

    def target_points(self, role: str | None) -> list[DataPoint]:
        """Target points with the given role; role=None returns all."""
        if role is None:
            return list(self.target)
        return [p for p in self.target if p.role == role]

    def target_train_points(self) -> list[DataPoint]:
        """Target points the trainer sees (see training_view), in order."""
        return training_view(self).target


def training_view(ds: MultiDomainDataset) -> MultiDomainDataset:
    """The dataset as the trainer may see it: target test points dropped and
    the labels of train-unlabeled points hidden. Returns ds itself when
    there is nothing to drop or hide, as for an untagged target."""
    if not any(p.role == ROLE_TEST or (p.role == ROLE_UNLABELED and p.y is not None)
               for p in ds.target):
        return ds
    target = [DataPoint(x=p.x, a=p.a, y=None if p.role == ROLE_UNLABELED else p.y, role=p.role)
              for p in ds.target if p.role != ROLE_TEST]
    return MultiDomainDataset(d=ds.d, a_dim=ds.a_dim, y_dim=ds.y_dim,
                              domains=list(ds.domains[:-1]) + [target])


def _check_point(p: DataPoint, d: int, a_dim: int, y_dim: int, where: str) -> None:
    if p.x.ndim != 2 or p.x.shape[0] != d or p.x.shape[1] < 1:
        raise DataError(f"{where}: x must be {d}xL with L >= 1, got shape {p.x.shape}")
    if not np.all(np.isfinite(p.x)):
        raise DataError(f"{where}: x contains non-finite entries")
    if p.a.shape != (a_dim,):
        raise DataError(f"{where}: attribute vector has shape {p.a.shape}, expected ({a_dim},)")
    if not np.all((p.a == 0.0) | (p.a == 1.0)):
        raise DataError(f"{where}: attribute vector entries must be 0/1, got {p.a.tolist()}")
    if p.y is not None:
        if p.y.shape != (y_dim,):
            raise DataError(f"{where}: label has shape {p.y.shape}, expected ({y_dim},)")
        if not (np.all((p.y == 0.0) | (p.y == 1.0)) and np.sum(p.y) == 1.0):
            raise DataError(f"{where}: label must be one-hot, got {p.y.tolist()}")
    if p.role is not None and p.role not in ROLES:
        raise DataError(f"{where}: unknown role {p.role!r}")


def validate_dataset(ds: MultiDomainDataset) -> None:
    if ds.n_domains < 1:
        raise DataError("dataset must contain at least one domain")
    for t, dom in enumerate(ds.domains):
        is_target = t == ds.n_domains - 1
        for i, p in enumerate(dom):
            where = f"domain {t}, point {i}"
            _check_point(p, ds.d, ds.a_dim, ds.y_dim, where)
            if not is_target and p.y is None:
                raise DataError(f"{where}: auxiliary-domain points must be labeled")
            if not is_target and p.role is not None:
                raise DataError(f"{where}: role tags are only valid in the target domain")


def split_roles(n: int, rng: Rng) -> list[str]:
    """Role tags for n target points: a random half is test (floor(n/2)),
    and the training half splits into ceil/floor labeled/unlabeled halves."""
    if n < 4:
        raise DataError(f"target domain needs at least 4 points to split, got {n}")
    perm = rng.permutation(n)
    n_test = n // 2
    n_train = n - n_test
    n_labeled = math.ceil(n_train / 2)
    roles = [""] * n
    for j, idx in enumerate(perm):
        if j < n_test:
            roles[idx] = ROLE_TEST
        elif j < n_test + n_labeled:
            roles[idx] = ROLE_LABELED
        else:
            roles[idx] = ROLE_UNLABELED
    return roles


def split_target(ds: MultiDomainDataset, seed: int) -> list[str]:
    """Assign role tags to the target domain in place; returns the tags."""
    roles = split_roles(len(ds.target), Rng(seed))
    for p, role in zip(ds.target, roles):
        p.role = role
    return roles


@dataclass
class NeighborGraph:
    """Symmetric 0/1 adjacency with zero diagonal, stored as sorted lists."""

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
                if i not in self.neighbors[j]:
                    raise DataError(f"edge {i}-{j} is not symmetric")

    def matrix(self) -> np.ndarray:
        m = np.zeros((self.n, self.n))
        for i, adj in enumerate(self.neighbors):
            for j in adj:
                m[i, j] = 1.0
        return m


def build_neighbor_graph(points: list[DataPoint], k: int) -> NeighborGraph:
    """k-nearest-neighbor graph over column-mean feature vectors, Euclidean
    distance, symmetrized by union; distance ties break toward lower index."""
    n = len(points)
    if k < 0:
        raise DataError(f"k must be nonnegative, got {k}")
    if k >= n:
        raise DataError(f"k={k} must be smaller than the number of points n={n}")
    adj: list[set[int]] = [set() for _ in range(n)]
    if k > 0:
        means = np.stack([p.x.mean(axis=1) for p in points])
        diffs = means[:, None, :] - means[None, :, :]
        dist = np.sqrt(np.sum(diffs * diffs, axis=2))
        np.fill_diagonal(dist, np.inf)
        for i in range(n):
            nearest = np.argsort(dist[i], kind="stable")[:k]
            for j in nearest:
                adj[i].add(int(j))
                adj[int(j)].add(i)
    return NeighborGraph(n=n, neighbors=[sorted(s) for s in adj])


@dataclass
class SynthSpec:
    """Synthetic multi-domain generator settings.

    Per class: a shared prototype column vector. Per domain: one additive
    shift vector applied to every column. Each point's columns are
    prototype + shift + Gaussian noise; attributes are drawn from
    class-conditional Bernoulli templates shared across domains, so they
    correlate with labels everywhere.
    """

    n_domains: int = 3
    points_per_domain: int = 60
    d: int = 6
    a_dim: int = 8
    y_dim: int = 2
    l_min: int = 3
    l_max: int = 6
    margin: float = 3.0
    shift: float = 1.0
    noise: float = 0.5

    def __post_init__(self):
        for name in ("n_domains", "points_per_domain", "d", "a_dim", "y_dim", "l_min", "l_max"):
            if int(getattr(self, name)) < 1:
                raise DataError(f"synthetic spec field {name} must be positive")
        if self.l_min > self.l_max:
            raise DataError(f"l_min={self.l_min} exceeds l_max={self.l_max}")
        if self.margin < 0 or self.shift < 0 or self.noise < 0:
            raise DataError("margin, shift and noise must be nonnegative")


def generate_synthetic(spec: SynthSpec, seed: int) -> MultiDomainDataset:
    """Deterministic per seed; every point in every domain is labeled
    (target labels are hidden later by the split)."""
    rng = Rng(seed)
    # class prototypes, redrawn until pairwise distances reach the margin
    for _ in range(1000):
        protos = rng.normal((spec.y_dim, spec.d)) * max(spec.margin, 1e-12)
        ok = True
        for c in range(spec.y_dim):
            for c2 in range(c + 1, spec.y_dim):
                if np.linalg.norm(protos[c] - protos[c2]) < spec.margin:
                    ok = False
        if ok:
            break
    else:
        raise DataError("could not place class prototypes at the requested margin")
    # class-conditional Bernoulli templates over attributes
    templates = np.where(rng.uniform(0.0, 1.0, (spec.y_dim, spec.a_dim)) < 0.5, 0.1, 0.9)
    shifts = rng.uniform(-1.0, 1.0, (spec.n_domains, spec.d)) * spec.shift

    domains: list[list[DataPoint]] = []
    for t in range(spec.n_domains):
        points = []
        for i in range(spec.points_per_domain):
            c = i % spec.y_dim  # balanced classes
            length = int(rng.integers(spec.l_min, spec.l_max + 1))
            cols = protos[c][:, None] + shifts[t][:, None] + spec.noise * rng.normal((spec.d, length))
            a = (rng.uniform(0.0, 1.0, (spec.a_dim,)) < templates[c]).astype(np.float64)
            y = np.zeros(spec.y_dim)
            y[c] = 1.0
            points.append(DataPoint(x=cols, a=a, y=y))
        domains.append(points)
    return MultiDomainDataset(d=spec.d, a_dim=spec.a_dim, y_dim=spec.y_dim, domains=domains)


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
        except json.JSONDecodeError as e:
            raise DataError(f"{path}: not valid JSON: {e}") from e
    if doc.get("version") != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported dataset version {doc.get('version')}")
    for key in ("d", "A", "Y", "domains"):
        if key not in doc:
            raise DataError(f"{path}: missing field {key!r}")
    targets = [dom for dom in doc["domains"] if dom.get("target")]
    if len(targets) != 1:
        raise DataError(f"{path}: exactly one domain must have target: true, found {len(targets)}")
    if not doc["domains"][-1].get("target"):
        raise DataError(f"{path}: the target domain must be listed last")
    domains = []
    for t, dom in enumerate(doc["domains"]):
        points = []
        for i, entry in enumerate(dom.get("points", [])):
            where = f"{path}: domain {t}, point {i}"
            try:
                x = np.asarray(entry["x"], dtype=np.float64)
                a = np.asarray(entry["a"], dtype=np.float64)
                y = None if entry.get("y") is None else np.asarray(entry["y"], dtype=np.float64)
            except (KeyError, ValueError) as e:
                raise DataError(f"{where}: malformed arrays: {e}") from e
            points.append(DataPoint(x=x, a=a, y=y, role=entry.get("role")))
        domains.append(points)
    try:
        return MultiDomainDataset(d=doc["d"], a_dim=doc["A"], y_dim=doc["Y"], domains=domains)
    except DataError as e:
        raise DataError(f"{path}: {e}") from e
