"""Model assembly: parameter set, representations, attribute map, classifier.

A model for T domains holds three kinds of convolutional encoders — one
attribute-embedding block shared by all domains, one domain-independent
block, and one block per domain — plus the linear attribute map and the
per-branch linear classification heads. A point from domain t is represented
by the concatenation [shared; domain-t; attribute] and scored by the matching
heads; there is no bias term in the heads.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

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
        if len(self.mt) < 1:
            raise ValueError(f"per-domain output sizes must be positive, got {self.mt}")
        for f in fields(self):
            for v in self.mt if f.name == "mt" else (getattr(self, f.name),):
                if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 1:
                    raise ValueError(f"dimension {f.name} must be a positive integer, got {v!r}")
        object.__setattr__(self, "mt", tuple(int(m) for m in self.mt))

    @property
    def n_domains(self) -> int:
        return len(self.mt)


@dataclass
class ModelParams:
    """Full learnable parameter set.

    f_a / f_0: attribute and domain-independent encoders; f_dom[t] the
    domain-t encoder. theta maps binary attribute vectors into the attribute
    embedding space (shape A x ma, applied as theta.T @ a). u0/ua/u_dom[t]
    are the linear heads, each with y_dim columns.
    """

    dims: Dims
    f_a: ConvBlock
    f_0: ConvBlock
    f_dom: list[ConvBlock]
    theta: np.ndarray
    u0: np.ndarray
    ua: np.ndarray
    u_dom: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        d = self.dims
        if len(self.f_dom) != d.n_domains or len(self.u_dom) != d.n_domains:
            raise ValueError(
                f"expected {d.n_domains} domain blocks/heads, got "
                f"{len(self.f_dom)} blocks and {len(self.u_dom)} heads"
            )
        self.theta = np.asarray(self.theta, dtype=np.float64)
        self.u0 = np.asarray(self.u0, dtype=np.float64)
        self.ua = np.asarray(self.ua, dtype=np.float64)
        self.u_dom = [np.asarray(u, dtype=np.float64) for u in self.u_dom]
        for (_, key, arr), (_, _, shape) in zip(self.named_tensors(), _layout(d)):
            if arr.shape != shape:
                raise ValueError(f"{key} has shape {arr.shape}, expected {shape}")

    @property
    def n_domains(self) -> int:
        return self.dims.n_domains

    def named_tensors(self) -> list[tuple[str, str, np.ndarray]]:
        """Every learnable tensor as (block, key, array), in _layout's
        block-cyclic order. The arrays are the parameters themselves, not copies."""
        out = []
        for block, key, _ in _layout(self.dims):
            arr = self
            for part in key.split("."):
                arr = arr[int(part)] if part.isdigit() else getattr(arr, part)
            out.append((block, key, arr))
        return out

    def blocks(self) -> dict[str, tuple[np.ndarray, ...]]:
        """named_tensors() grouped by block: name -> its arrays (the parameters, not copies)."""
        out: dict[str, tuple[np.ndarray, ...]] = {}
        for block, _, arr in self.named_tensors():
            out[block] = out.get(block, ()) + (arr,)
        return out


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
    ut = params.u_dom[rep.t]
    if (rep.r0.shape != (params.u0.shape[0],)
            or rep.rt.shape != (ut.shape[0],)
            or rep.ra.shape != (params.ua.shape[0],)):
        raise ValueError(
            f"representation shapes {(rep.r0.shape, rep.rt.shape, rep.ra.shape)} "
            f"do not match heads {(params.u0.shape, ut.shape, params.ua.shape)}"
        )
    return head_scores((rep.r0, rep.rt, rep.ra), (params.u0, ut, params.ua))


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
    in DRAW_ORDER."""
    layout = sorted(_layout(dims), key=lambda entry: DRAW_ORDER.index(entry[1].split(".")[0]))
    tensors = {key: tensor(key, shape) for _, key, shape in layout}

    def block(name):
        return ConvBlock(filters=tensors[f"{name}.filters"], bias=tensors[f"{name}.bias"])

    domains = range(dims.n_domains)
    return ModelParams(dims=dims, f_a=block("f_a"), f_0=block("f_0"),
                       f_dom=[block(f"f_dom.{t}") for t in domains],
                       theta=tensors["theta"], u0=tensors["u0"], ua=tensors["ua"],
                       u_dom=[tensors[f"u_dom.{t}"] for t in domains])


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
    disagrees with it is reported, never allocated."""

    def tensor(key, shape):
        entry = doc["params"][key]
        value = np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])
        if value.shape != shape:
            raise ValueError(f"{key} has shape {value.shape}, expected {shape}")
        if not np.isfinite(value).all():
            raise ValueError(f"{key} holds non-finite entries")
        return value

    try:
        with open(path) as f:
            doc = json.load(f)
        if doc.get("format_version") != FORMAT_VERSION:
            raise ValueError(f"unsupported model format version {doc.get('format_version')}")
        dd = doc["dims"]
        return _new_params(Dims(**{f.name: dd[f.name] for f in fields(Dims)}), tensor)
    except KeyError as e:
        raise DataError(f"{path}: missing model entry {e}") from e
    except (AttributeError, OverflowError, RecursionError, TypeError, ValueError) as e:
        raise DataError(f"{path}: {e}") from e
