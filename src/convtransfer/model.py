"""Model assembly: parameter set, representations, attribute map, classifier.

A model for T domains holds three kinds of convolutional encoders — one
attribute-embedding block shared by all domains, one domain-independent
block, and one block per domain — plus the linear attribute map and the
per-branch linear classification heads. A point from domain t is represented
by the concatenation [shared; domain-t; attribute] and scored by the matching
heads; there is no bias term in the heads.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .convnet import ConvBlock, conv_forward
from .dataset import DataError
from .numeric import Rng

FORMAT_VERSION = 1


@dataclass(frozen=True)
class Dims:
    """Shape record: input rows d, attribute length A, classes Y, branch
    output sizes, filter window width w."""

    d: int
    a_dim: int
    y_dim: int
    m0: int
    ma: int
    mt: tuple[int, ...]  # one per domain; the last entry is the target domain
    w: int

    def __post_init__(self):
        if not isinstance(self.mt, (tuple, list)) or len(self.mt) < 1:
            raise ValueError(f"per-domain output sizes must be positive, in a list: got mt={self.mt!r}")
        for f in fields(self):
            for v in self.mt if f.name == "mt" else (getattr(self, f.name),):
                if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 1:
                    raise ValueError(f"dimension {f.name} must be a positive integer, got {v!r}")
        object.__setattr__(self, "mt", tuple(int(m) for m in self.mt))

    @property
    def n_domains(self) -> int:
        return len(self.mt)


class ModelParams:
    """Full learnable parameter set: its Dims and one flat float64 array that
    holds every tensor of _layout(dims) in turn, so each block is one
    consecutive slice, in block-cyclic order.

    Each tensor is a view of flat, made once. f_a / f_0: attribute and
    domain-independent encoders; f_dom[t] the domain-t encoder. theta maps
    binary attribute vectors into the attribute embedding space (shape A x ma,
    applied as theta.T @ a). u0/ua/u_dom[t] are the linear heads, each with
    y_dim columns.
    """

    def __init__(self, dims: Dims, flat: np.ndarray):
        layout = _layout(dims)
        sizes = [math.prod(shape) for _, _, shape in layout]
        flat = np.ascontiguousarray(flat, dtype=np.float64)
        if flat.shape != (sum(sizes),):
            raise ValueError(f"flat has shape {flat.shape}, expected ({sum(sizes)},)")
        self.dims, self.flat = dims, flat
        self._named, self._blocks = [], {}
        for (block, key, shape), size, end in zip(layout, sizes, itertools.accumulate(sizes)):
            self._named.append((block, key, flat[end - size:end].reshape(shape)))
            self._blocks[block] = slice(self._blocks.get(block, slice(end - size, end)).start, end)
        t = {key: arr for _, key, arr in self._named}

        def encoder(name):
            return ConvBlock(filters=t[f"{name}.filters"], bias=t[f"{name}.bias"])

        self.f_a, self.f_0 = encoder("f_a"), encoder("f_0")
        self.f_dom = [encoder(f"f_dom.{i}") for i in range(dims.n_domains)]
        self.theta, self.u0, self.ua = t["theta"], t["u0"], t["ua"]
        self.u_dom = [t[f"u_dom.{i}"] for i in range(dims.n_domains)]

    @property
    def n_domains(self) -> int:
        return self.dims.n_domains

    def named_tensors(self) -> list[tuple[str, str, np.ndarray]]:
        """Every learnable tensor as (block, key, array), in _layout's
        block-cyclic order. The arrays are the views of flat, not copies."""
        return self._named

    def blocks(self) -> dict[str, slice]:
        """Each block's slice of flat, in block-cyclic order: the consecutive
        entries of its named_tensors(). A gradient shares flat's layout."""
        return self._blocks


@dataclass
class Representation:
    """Per-point branch outputs for domain t."""

    r0: np.ndarray
    rt: np.ndarray
    ra: np.ndarray
    t: int

    def concat(self) -> np.ndarray:
        return np.concatenate([self.r0, self.rt, self.ra])


def represent(params: ModelParams, x, t: int):
    """Run all three encoders on x for domain index t (0-based).

    Returns (Representation, (trace0, trace_t, trace_a)).
    """
    if not 0 <= t < params.n_domains:
        raise ValueError(f"domain index {t} out of range [0, {params.n_domains})")
    r0, tr0 = conv_forward(params.f_0, x)
    rt, trt = conv_forward(params.f_dom[t], x)
    ra, tra = conv_forward(params.f_a, x)
    return Representation(r0=r0, rt=rt, ra=ra, t=t), (tr0, trt, tra)


def head_scores(outputs, heads) -> np.ndarray:
    """Scores u0.T r0 + u_t.T rt + ua.T ra (no bias) from a domain's branch
    outputs (r0, rt, ra) and heads (u0, u_t, ua): one point's outputs as
    vectors, or n points' as rows of (n, m) arrays. Any output or head may
    carry a leading axis of stacked copies, each scored as on its own."""
    (r0, rt, ra), (u0, ut, ua) = outputs, heads
    return r0 @ u0 + rt @ ut + ra @ ua


def classify(params: ModelParams, rep: Representation) -> np.ndarray:
    """Score vector u0.T r0 + u_t.T rt + ua.T ra (no bias)."""
    outputs, heads = (rep.r0, rep.rt, rep.ra), (params.u0, params.u_dom[rep.t], params.ua)
    if [r.shape for r in outputs] != [u.shape[:1] for u in heads]:
        raise ValueError(f"representation shapes {tuple(r.shape for r in outputs)} "
                         f"do not match heads {tuple(u.shape for u in heads)}")
    return head_scores(outputs, heads)


# the order in which init_params draws the tensors, by each key's first part
DRAW_ORDER = ("f_a", "f_0", "f_dom", "theta", "u0", "ua", "u_dom")


def _layout(dims: Dims) -> list[tuple[str, str, tuple[int, ...]]]:
    """Every learnable tensor as (block, key, shape), in block-cyclic order:
    blocks f_0, f_1..f_T (the domain encoders from 1; f_T is the target's), f_a,
    theta, u_0, u_1..u_T, u_a. A key is the model file's and the tensor's
    attribute path: f_dom.0.filters is params.f_dom[0].filters."""
    branches = [("0", "f_0", "u0", dims.m0)]
    branches += [(f"{t + 1}", f"f_dom.{t}", f"u_dom.{t}", m) for t, m in enumerate(dims.mt)]
    branches.append(("a", "f_a", "ua", dims.ma))
    out = [(f"f_{s}", f"{enc}.{part}", shape) for s, enc, _, m in branches
           for part, shape in (("filters", (m, dims.d, dims.w)), ("bias", (m,)))]
    out.append(("theta", "theta", (dims.a_dim, dims.ma)))
    return out + [(f"u_{s}", head, (m, dims.y_dim)) for s, _, head, m in branches]


def _new_params(dims: Dims, tensor) -> ModelParams:
    """Parameters of the given dims, each tensor built as tensor(key, shape)
    in DRAW_ORDER and checked against that shape before flat is allocated."""
    layout = _layout(dims)
    tensors = {}
    for _, key, shape in sorted(layout, key=lambda e: DRAW_ORDER.index(e[1].split(".")[0])):
        tensors[key] = tensor(key, shape)
        if tensors[key].shape != shape:
            raise ValueError(f"{key} has shape {tensors[key].shape}, expected {shape}")
    return ModelParams(dims, np.concatenate([tensors[key].ravel() for _, key, _ in layout]))


def init_params(dims: Dims, rng: Rng, scale: float = 0.1) -> ModelParams:
    """All parameters i.i.d. uniform in [-scale, scale]; deterministic per seed.

    The draw order is fixed (DRAW_ORDER), so a seed pins the full parameter
    set bit-exactly.
    """
    if scale <= 0:
        raise ValueError(f"init scale must be positive, got {scale}")
    return _new_params(dims, lambda key, shape: rng.uniform(-scale, scale, shape))


def save_params(params: ModelParams, path: str) -> None:
    """Write a self-describing JSON document; load_params round-trips bit-exactly."""
    doc = {
        "format_version": FORMAT_VERSION,
        "dims": asdict(params.dims),
        "params": {key: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
                   for _, key, arr in params.named_tensors()},
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def load_params(path: str) -> ModelParams:
    """Read a save_params document; a wrong version, a missing key, or a
    tensor of the wrong shape or with non-finite entries raises DataError.
    Each tensor is built from the file's own data, so a `dims` entry that
    disagrees with it is reported, never allocated. Each error names its entry."""

    def json_object(value, name):
        if not isinstance(value, dict):
            raise ValueError(f"{name} must be a JSON object, got {type(value).__name__}")
        return value

    def tensor(key, shape):
        entry = json_object(tensors[key], key)
        try:
            value = np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])
        except (OverflowError, TypeError, ValueError) as e:
            raise ValueError(f"{key}: {e}") from e
        if not np.isfinite(value).all():
            raise ValueError(f"{key} holds non-finite entries")
        return value

    try:
        with open(path) as f:
            doc = json_object(json.load(f), "the top level")
        if doc.get("format_version") != FORMAT_VERSION:
            raise ValueError(f"unsupported model format version {doc.get('format_version')}")
        dd, tensors = json_object(doc["dims"], "dims"), json_object(doc["params"], "params")
        return _new_params(Dims(**{f.name: dd[f.name] for f in fields(Dims)}), tensor)
    except KeyError as e:
        raise DataError(f"{path}: missing model entry {e}") from e
    except (AttributeError, OverflowError, RecursionError, TypeError, ValueError) as e:
        raise DataError(f"{path}: {e}") from e
