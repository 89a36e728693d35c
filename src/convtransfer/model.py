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
from dataclasses import dataclass, field

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
        fields = {"d": self.d, "a_dim": self.a_dim, "y_dim": self.y_dim,
                  "m0": self.m0, "ma": self.ma, "w": self.w}
        for name, v in fields.items():
            if int(v) < 1:
                raise ValueError(f"dimension {name} must be positive, got {v}")
        if len(self.mt) < 1 or any(int(m) < 1 for m in self.mt):
            raise ValueError(f"per-domain output sizes must be positive, got {self.mt}")
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
        for name, block, m in (
            [("f_a", self.f_a, d.ma), ("f_0", self.f_0, d.m0)]
            + [(f"f_dom[{t}]", b, d.mt[t]) for t, b in enumerate(self.f_dom)]
        ):
            if block.d != d.d or block.m != m:
                raise ValueError(
                    f"{name} has shape (m={block.m}, d={block.d}), expected (m={m}, d={d.d})"
                )
        self.theta = np.asarray(self.theta, dtype=np.float64)
        self.u0 = np.asarray(self.u0, dtype=np.float64)
        self.ua = np.asarray(self.ua, dtype=np.float64)
        self.u_dom = [np.asarray(u, dtype=np.float64) for u in self.u_dom]
        checks = [("theta", self.theta, (d.a_dim, d.ma)),
                  ("u0", self.u0, (d.m0, d.y_dim)),
                  ("ua", self.ua, (d.ma, d.y_dim))]
        checks += [(f"u_dom[{t}]", u, (d.mt[t], d.y_dim)) for t, u in enumerate(self.u_dom)]
        for name, arr, shape in checks:
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")

    @property
    def n_domains(self) -> int:
        return self.dims.n_domains

    def named_tensors(self) -> list[tuple[str, str, np.ndarray]]:
        """Every learnable tensor as (block, key, array), in block-cyclic order.

        Blocks are f_0, f_1..f_T (the domain encoders, numbered from 1; f_T
        is the target's), f_a, theta, u_0, u_1..u_T, u_a. Keys are the model
        file's. The arrays are the parameters themselves, not copies.
        """
        out = [("f_0", "f_0.filters", self.f_0.filters), ("f_0", "f_0.bias", self.f_0.bias)]
        for t, b in enumerate(self.f_dom):
            out += [(f"f_{t + 1}", f"f_dom.{t}.filters", b.filters),
                    (f"f_{t + 1}", f"f_dom.{t}.bias", b.bias)]
        out += [("f_a", "f_a.filters", self.f_a.filters), ("f_a", "f_a.bias", self.f_a.bias),
                ("theta", "theta", self.theta), ("u_0", "u0", self.u0)]
        out += [(f"u_{t + 1}", f"u_dom.{t}", u) for t, u in enumerate(self.u_dom)]
        out.append(("u_a", "ua", self.ua))
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
    return params.u0.T @ rep.r0 + ut.T @ rep.rt + params.ua.T @ rep.ra


def predict(scores) -> int:
    """Argmax class index; ties break toward the lowest index."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or scores.size < 1:
        raise ValueError(f"scores must be a non-empty vector, got shape {scores.shape}")
    return int(np.argmax(scores))


def _new_params(dims: Dims, draw) -> ModelParams:
    """Parameters of the given dims, each tensor drawn as draw(shape) in the
    fixed order f_a, f_0, per-domain blocks, theta, u0, ua, heads."""

    def block(m):
        return ConvBlock(filters=draw((m, dims.d, dims.w)), bias=draw((m,)))

    f_a = block(dims.ma)
    f_0 = block(dims.m0)
    f_dom = [block(m) for m in dims.mt]
    theta = draw((dims.a_dim, dims.ma))
    u0 = draw((dims.m0, dims.y_dim))
    ua = draw((dims.ma, dims.y_dim))
    u_dom = [draw((m, dims.y_dim)) for m in dims.mt]
    return ModelParams(dims=dims, f_a=f_a, f_0=f_0, f_dom=f_dom,
                       theta=theta, u0=u0, ua=ua, u_dom=u_dom)


def zero_params(dims: Dims) -> ModelParams:
    """All parameters zero; also the accumulator a gradient starts from."""
    return _new_params(dims, np.zeros)


def init_params(dims: Dims, rng: Rng, scale: float = 0.1) -> ModelParams:
    """All parameters i.i.d. uniform in [-scale, scale]; deterministic per seed.

    The draw order is fixed (see _new_params), so a seed pins the full
    parameter set bit-exactly.
    """
    if scale <= 0:
        raise ValueError(f"init scale must be positive, got {scale}")
    return _new_params(dims, lambda shape: rng.uniform(-scale, scale, shape))


def save_params(params: ModelParams, path: str) -> None:
    """Write a self-describing JSON document; load_params round-trips bit-exactly."""
    d = params.dims
    doc = {
        "format_version": FORMAT_VERSION,
        "dims": {"d": d.d, "a_dim": d.a_dim, "y_dim": d.y_dim,
                 "m0": d.m0, "ma": d.ma, "mt": list(d.mt), "w": d.w},
        "params": {key: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
                   for _, key, arr in params.named_tensors()},
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def load_params(path: str) -> ModelParams:
    """Read a save_params document; a wrong version, a missing key or a
    tensor of the wrong shape raises DataError."""
    try:
        with open(path) as f:
            doc = json.load(f)
        if doc.get("format_version") != FORMAT_VERSION:
            raise ValueError(f"unsupported model format version {doc.get('format_version')}")
        dd = doc["dims"]
        params = zero_params(Dims(d=dd["d"], a_dim=dd["a_dim"], y_dim=dd["y_dim"],
                                  m0=dd["m0"], ma=dd["ma"], mt=tuple(dd["mt"]), w=dd["w"]))
        for _, key, arr in params.named_tensors():
            entry = doc["params"][key]
            value = np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])
            if value.shape != arr.shape:
                raise ValueError(f"{key} has shape {value.shape}, expected {arr.shape}")
            arr[...] = value
    except KeyError as e:
        raise DataError(f"{path}: missing model entry {e}") from e
    except (AttributeError, TypeError, ValueError) as e:
        raise DataError(f"{path}: {e}") from e
    return params
