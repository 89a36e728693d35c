"""Plain-numpy reference of the convtransfer model, for checking outputs.

Written from the model's definition in README.md, independently of the
package's own code:

- an encoder is conv (each filter slides over the columns of the d x L
  input, which is right-padded with zero columns when L < w), then ReLU,
  then max over positions (ties go to the lowest index, which does not
  change the pooled value);
- a point of domain t is represented by [f_0(x); f_t(x); f_a(x)] and
  scored by u0^T r0 + u_t^T rt + ua^T ra; the prediction is the first
  highest score;
- the objective is the five-term total aux_cls + tgt_cls + c1 attr_map +
  c2 dom_match + c3 neighbor on the trainer's view of the data;
- an untagged target domain is split by `PCG64(seed).permutation(n)`: the
  first floor(n/2) permuted indices are test, the next ceil of the
  remaining half are train-labeled, the rest train-unlabeled;
- the neighbor graph joins each target training point to its k nearest
  others by the Euclidean distance of column means, symmetrized by union.
"""

from __future__ import annotations

import json
import math

import numpy as np

LABELED, UNLABELED, TEST = "train-labeled", "train-unlabeled", "test"


def load_dataset(path: str) -> list[list[dict]]:
    """Domains of points {x, a, y, role}; the last domain is the target."""
    with open(path) as f:
        doc = json.load(f)
    return [[{"x": np.asarray(p["x"], dtype=np.float64),
              "a": np.asarray(p["a"], dtype=np.float64),
              "y": None if p.get("y") is None else np.asarray(p["y"], dtype=np.float64),
              "role": p.get("role")}
             for p in dom["points"]]
            for dom in doc["domains"]]


def load_model(path: str) -> dict:
    """Encoders as (filters, bias) pairs and the heads, from a model file."""
    with open(path) as f:
        doc = json.load(f)
    p = {k: np.asarray(v["data"], dtype=np.float64).reshape(v["shape"])
         for k, v in doc["params"].items()}
    n_domains = len(doc["dims"]["mt"])
    return {
        "f_0": (p["f_0.filters"], p["f_0.bias"]),
        "f_a": (p["f_a.filters"], p["f_a.bias"]),
        "f_dom": [(p[f"f_dom.{t}.filters"], p[f"f_dom.{t}.bias"]) for t in range(n_domains)],
        "theta": p["theta"],
        "u0": p["u0"],
        "ua": p["ua"],
        "u_dom": [p[f"u_dom.{t}"] for t in range(n_domains)],
    }


def model_from_params(params) -> dict:
    """The reference's view of a package `ModelParams` (read by attribute)."""
    return {"f_0": (params.f_0.filters, params.f_0.bias),
            "f_a": (params.f_a.filters, params.f_a.bias),
            "f_dom": [(b.filters, b.bias) for b in params.f_dom],
            "theta": params.theta, "u0": params.u0, "ua": params.ua, "u_dom": params.u_dom}


def domains_from_dataset(ds) -> list[list[dict]]:
    """The reference's view of a package `MultiDomainDataset`."""
    return [[{"x": p.x, "a": p.a, "y": p.y, "role": p.role} for p in dom] for dom in ds.domains]


def encode(block, xs: list[np.ndarray]) -> np.ndarray:
    """Pooled outputs (n, m) of one encoder over the points' matrices."""
    filters, bias = block
    m, d, w = filters.shape
    out = np.empty((len(xs), m))
    by_len: dict[int, list[int]] = {}
    for i, x in enumerate(xs):
        by_len.setdefault(x.shape[1], []).append(i)
    for length, idx in by_len.items():
        batch = np.stack([xs[i] for i in idx])
        if length < w:
            batch = np.concatenate([batch, np.zeros((len(idx), d, w - length))], axis=2)
        windows = np.lib.stride_tricks.sliding_window_view(batch, w, axis=2)  # (n, d, P, w)
        pre = np.einsum("mdw,ndpw->nmp", filters, windows) + bias[None, :, None]
        out[idx] = np.maximum(pre, 0.0).max(axis=2)
    return out


def represent(model: dict, xs: list[np.ndarray], t: int):
    return (encode(model["f_0"], xs), encode(model["f_dom"][t], xs),
            encode(model["f_a"], xs))


def scores(model: dict, reps, t: int) -> np.ndarray:
    r0, rt, ra = reps
    return r0 @ model["u0"] + rt @ model["u_dom"][t] + ra @ model["ua"]


def accuracy(model: dict, points: list[dict], t: int) -> float:
    reps = represent(model, [p["x"] for p in points], t)
    pred = np.argmax(scores(model, reps, t), axis=1)
    truth = np.array([int(np.argmax(p["y"])) for p in points])
    return float(np.sum(pred == truth)) / len(points)


def split_roles(n: int, seed: int) -> list[str]:
    perm = np.random.Generator(np.random.PCG64(seed)).permutation(n)
    n_test = n // 2
    n_labeled = math.ceil((n - n_test) / 2)
    roles = [""] * n
    for j, idx in enumerate(perm):
        roles[idx] = TEST if j < n_test else LABELED if j < n_test + n_labeled else UNLABELED
    return roles


def split_target(domains: list[list[dict]], seed: int) -> None:
    """Tag the target points in place, as a trainer does for untagged data."""
    for p, role in zip(domains[-1], split_roles(len(domains[-1]), seed)):
        p["role"] = role


def training_view(domains: list[list[dict]]) -> list[list[dict]]:
    """What the trainer sees: target test points dropped, labels of
    train-unlabeled points hidden. Untagged targets are seen whole."""
    target = []
    for p in domains[-1]:
        if p["role"] == TEST:
            continue
        target.append({**p, "y": None if p["role"] == UNLABELED else p["y"]})
    return domains[:-1] + [target]


def knn_graph(points: list[dict], k: int) -> list[list[int]]:
    means = np.stack([p["x"].mean(axis=1) for p in points])
    dist = np.linalg.norm(means[:, None, :] - means[None, :, :], axis=2)
    np.fill_diagonal(dist, np.inf)
    adj = [set() for _ in points]
    for i in range(len(points)):
        for j in np.argsort(dist[i], kind="stable")[:k]:
            adj[i].add(int(j))
            adj[int(j)].add(i)
    return [sorted(s) for s in adj]


def objective(model: dict, view: list[list[dict]], graph: list[list[int]] | None,
              c1: float, c2: float, c3: float) -> dict[str, float]:
    """The five unweighted terms and the weighted total on a training view."""
    T = len(view)
    terms = dict.fromkeys(("aux_cls", "tgt_cls", "attr_map", "dom_match", "neighbor"), 0.0)
    means = []
    feats = None
    for t, dom in enumerate(view):
        reps = represent(model, [p["x"] for p in dom], t)
        sc = scores(model, reps, t)
        for i, p in enumerate(dom):
            if p["y"] is not None:
                e = sc[i] - p["y"]
                terms["tgt_cls" if t == T - 1 else "aux_cls"] += float(e @ e)
        a = np.stack([p["a"] for p in dom])
        terms["attr_map"] += float(np.sum((reps[2] - a @ model["theta"]) ** 2))
        means.append(reps[0].mean(axis=0))
        if t == T - 1:
            feats = np.concatenate(reps, axis=1)
    for t in range(T):
        for t2 in range(t + 1, T):
            terms["dom_match"] += float(np.sum((means[t] - means[t2]) ** 2))
    if graph is not None:
        for i, adj in enumerate(graph):
            for j in adj:
                terms["neighbor"] += float(np.sum((feats[i] - feats[j]) ** 2))
    terms["total"] = (terms["aux_cls"] + terms["tgt_cls"] + c1 * terms["attr_map"]
                      + c2 * terms["dom_match"] + c3 * terms["neighbor"])
    return terms
