"""Command-line entry point: synth / train / eval / gradcheck.

Configuration comes from a flat key=value file (--config) with command-line
overrides; every run is deterministic given the flags, config file, input
files, and seed.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 divergence,
5 gradient-check failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import dataset as dsmod
from . import gradcheck as gcmod
from .dataset import DataError, SynthSpec, build_neighbor_graph, generate_synthetic, load_dataset, save_dataset, split_target
from .model import load_params, save_params
from .objective import DivergenceError, TrainConfig, _check_compat, evaluate, train, write_trajectory_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4
EXIT_GRADCHECK = 5


class ConfigError(Exception):
    pass


def _positive_int(v):
    n = int(v)
    if n < 1:
        raise ValueError(f"must be a positive integer, got {v}")
    return n


def _nonneg_int(v):
    n = int(v)
    if n < 0:
        raise ValueError(f"must be a nonnegative integer, got {v}")
    return n


def _nonneg_float(v):
    x = float(v)
    if x < 0:
        raise ValueError(f"must be nonnegative, got {v}")
    return x


# key -> (parser, default); default REQUIRED means the merged config must set it
REQUIRED = object()

# seed is validated here for every command; workers is accepted and ignored
COMMON_KEYS = {
    "seed": (_nonneg_int, 0),
    "workers": (_positive_int, 1),
}

# One key per TrainConfig field, parsed by the type of its default and
# validated by TrainConfig itself. The CLI's one override: 200 iterations
# by default where the library runs 100.
TRAIN_KEYS = {f.name: (type(f.default), f.default) for f in dataclasses.fields(TrainConfig)
              if f.name not in COMMON_KEYS}
TRAIN_KEYS["max_iters"] = (int, 200)

SYNTH_SPEC_KEYS = {
    "domains": (_positive_int, 3),
    "points_per_domain": (_positive_int, 60),
    "feature_dim": (_positive_int, 6),
    "attr_dim": (_positive_int, 8),
    "classes": (_positive_int, 2),
    "l_min": (_positive_int, 3),
    "l_max": (_positive_int, 6),
    "margin": (_nonneg_float, 3.0),
    "shift": (_nonneg_float, 1.0),
    "noise": (_nonneg_float, 0.5),
}

SCHEMAS = {
    "synth": {**COMMON_KEYS, **SYNTH_SPEC_KEYS, "out": (str, REQUIRED)},
    "train": {**COMMON_KEYS, **TRAIN_KEYS,
              "data": (str, REQUIRED), "model_out": (str, REQUIRED),
              "curve_out": (str, REQUIRED), "report_out": (str, None)},
    "eval": {**COMMON_KEYS, "model": (str, REQUIRED), "data": (str, REQUIRED),
             "report_out": (str, None)},
    "gradcheck": {**COMMON_KEYS, "instances": (_positive_int, 3),
                  "eps": (_nonneg_float, gcmod.DEFAULT_EPS)},
}


def parse_config_file(path: str) -> dict[str, str]:
    raw = {}
    try:
        with open(path) as f:
            for lineno, line in enumerate(f, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, _, value = line.partition("=")
                raw[key.strip()] = value.strip()
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    return raw


def build_config(command: str, args: argparse.Namespace) -> dict:
    schema = SCHEMAS[command]
    merged: dict[str, str] = {}
    if args.config:
        merged.update(parse_config_file(args.config))
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        merged[key.strip()] = value.strip()
    # dedicated flags override file and --set values
    flag_map = {
        "synth": {"seed": args.seed, "out": args.out, "workers": args.workers},
        "train": {"seed": args.seed, "data": args.data, "model": None,
                  "model_out": args.model, "report_out": args.out, "workers": args.workers},
        "eval": {"seed": args.seed, "model": args.model, "data": args.data,
                 "report_out": args.out, "workers": args.workers},
        "gradcheck": {"seed": args.seed, "workers": args.workers},
    }[command]
    for key, value in flag_map.items():
        if value is not None:
            merged[key] = str(value)

    unknown = sorted(set(merged) - set(schema))
    if unknown:
        raise ConfigError(f"unknown configuration key(s): {', '.join(unknown)}")
    cfg = {}
    for key, (parse, default) in schema.items():
        if key in merged:
            try:
                cfg[key] = parse(merged[key])
            except ValueError as e:
                raise ConfigError(f"invalid value for {key!r}: {e}") from e
        elif default is REQUIRED:
            raise ConfigError(f"missing required configuration key: {key}")
        else:
            cfg[key] = default
    return cfg


def _synth_spec(cfg: dict) -> SynthSpec:
    try:
        return SynthSpec(n_domains=cfg["domains"], points_per_domain=cfg["points_per_domain"],
                         d=cfg["feature_dim"], a_dim=cfg["attr_dim"], y_dim=cfg["classes"],
                         l_min=cfg["l_min"], l_max=cfg["l_max"],
                         margin=cfg["margin"], shift=cfg["shift"], noise=cfg["noise"])
    except DataError as e:
        raise ConfigError(str(e)) from e


def cmd_synth(cfg: dict) -> int:
    ds = generate_synthetic(_synth_spec(cfg), cfg["seed"])
    save_dataset(ds, cfg["out"])
    print(f"wrote {sum(len(d) for d in ds.domains)} points "
          f"({ds.n_domains} domains) to {cfg['out']}")
    return EXIT_OK


def _train_config(cfg: dict) -> TrainConfig:
    try:
        return TrainConfig(seed=cfg["seed"], **{key: cfg[key] for key in TRAIN_KEYS})
    except ValueError as e:
        raise ConfigError(str(e)) from e


def _load_split(cfg: dict):
    """The dataset at cfg["data"]. An untagged target domain is split by the
    seed; a tagged one keeps the file's own roles."""
    ds = load_dataset(cfg["data"])
    if all(p.role is None for p in ds.target):
        split_target(ds, cfg["seed"])
    return ds


def _report(params, ds) -> dict:
    T = ds.n_domains
    per_domain = {}
    for t in range(T - 1):
        per_domain[f"domain_{t + 1}"] = evaluate(params, ds.domains[t], t)
    test_points = ds.target_points(dsmod.ROLE_TEST)
    tgt = evaluate(params, test_points or ds.target, T - 1)
    per_domain[f"domain_{T}_target_test"] = tgt
    return {"per_domain_accuracy": per_domain, "target_test_accuracy": tgt}


def cmd_train(cfg: dict) -> int:
    tc = _train_config(cfg)
    ds = _load_split(cfg)
    graph = build_neighbor_graph(ds.target_train_points(), tc.knn_k)
    params, rows = train(ds, graph, tc)
    save_params(params, cfg["model_out"])
    write_trajectory_csv(rows, cfg["curve_out"])
    report = _report(params, ds)
    final = rows[-1].breakdown
    report["iterations"] = rows[-1].iteration
    report["final_objective"] = {
        "aux_cls": final.aux_cls, "tgt_cls": final.tgt_cls, "attr_map": final.attr_map,
        "dom_match": final.dom_match, "neighbor": final.neighbor, "total": final.total,
    }
    if cfg["report_out"]:
        with open(cfg["report_out"], "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")
    print(f"trained {report['iterations']} iterations; "
          f"final total {final.total!r}; "
          f"target test accuracy {report['target_test_accuracy']:.4f}")
    return EXIT_OK


def cmd_eval(cfg: dict) -> int:
    params = load_params(cfg["model"])
    ds = _load_split(cfg)
    _check_compat(params, ds)
    report = _report(params, ds)
    if cfg["report_out"]:
        with open(cfg["report_out"], "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")
    for name, acc in report["per_domain_accuracy"].items():
        print(f"{name}: accuracy {acc:.4f}")
    return EXIT_OK


def cmd_gradcheck(cfg: dict) -> int:
    worst: dict[str, float] = {}
    for i in range(cfg["instances"]):
        params, ds, graph, tc = gcmod.random_smooth_instance(cfg["seed"] + i)
        errs = gcmod.gradient_check(params, ds, graph, tc, eps=cfg["eps"])
        for name, err in errs.items():
            worst[name] = max(worst.get(name, 0.0), err)
    failed = [name for name, err in worst.items() if err >= gcmod.DEFAULT_TOLERANCE]
    for name, err in worst.items():
        status = "FAIL" if name in failed else "ok"
        print(f"block {name}: max relative error {err:.3e} [{status}]")
    if failed:
        print(f"gradient check FAILED for block(s): {', '.join(failed)}", file=sys.stderr)
        return EXIT_GRADCHECK
    print(f"gradient check passed over {cfg['instances']} instance(s)")
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convtransfer",
        description="Cross-domain transfer learning with convolutional attribute embeddings",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("synth", "generate a synthetic multi-domain dataset file"),
        ("train", "split, build the neighbor graph, and run the descent loop"),
        ("eval", "evaluate a saved model on a dataset"),
        ("gradcheck", "finite-difference validation of the analytic gradient"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key=value configuration file")
        p.add_argument("--seed", type=int, help="random seed (overrides config)")
        p.add_argument("--out", help="output path (synth: dataset; train/eval: report)")
        p.add_argument("--data", help="dataset file path")
        p.add_argument("--model", help="model file path (train: output; eval: input)")
        p.add_argument("--workers", type=int,
                       help="accepted (N >= 1) and ignored: every command runs in one thread")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override any configuration key (repeatable)")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = build_config(args.command, args)
        return {"synth": cmd_synth, "train": cmd_train,
                "eval": cmd_eval, "gradcheck": cmd_gradcheck}[args.command](cfg)
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, FileNotFoundError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except DivergenceError as e:
        print(f"divergence: {e}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
