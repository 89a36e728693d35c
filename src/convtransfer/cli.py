"""Command-line entry point: synth / train / eval / gradcheck.

Configuration comes from a flat key=value file (--config) with command-line
overrides; every run is deterministic given the flags, config file, input
files, and seed.

Exit codes: 0 success, 2 configuration error (also synth settings that yield
invalid data), 3 data error (also an unreadable input, an unwritable output
file or running out of memory), 4 divergence, 5 gradient-check failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

from . import gradcheck as gcmod
from .dataset import ROLE_TEST, DataError, SynthSpec, build_neighbor_graph, generate_synthetic, load_dataset, save_dataset, split_target
from .model import load_params, save_params
from .numeric import SEED_BOUND
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


def _seed(v):
    n = int(v)
    if not 0 <= n < SEED_BOUND:
        raise ValueError(f"must be an integer in [0, 2**64), got {v}")
    return n


def _positive_float(v):
    x = float(v)
    if not 0 < x < math.inf:
        raise ValueError(f"must be positive and finite, got {v}")
    return x


# One key per field of TrainConfig and of SynthSpec, with its default, parsed
# by the type of that default and validated by the class itself.
TRAIN_KEYS = {f.name: (type(f.default), f.default) for f in dataclasses.fields(TrainConfig)
              if f.name != "seed"}
SYNTH_KEYS = {f.name: (type(f.default), f.default) for f in dataclasses.fields(SynthSpec)}


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
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    return raw


def build_config(command: str, args: argparse.Namespace) -> dict:
    _, _, flags, schema = COMMANDS[command]
    merged: dict[str, str] = {}
    if args.config:
        merged.update(parse_config_file(args.config))
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        merged[key.strip()] = value.strip()
    # dedicated flags override file and --set values
    for key in flags.values():
        if getattr(args, key) is not None:
            merged[key] = getattr(args, key)

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


def _config(cls, cfg: dict, keys, **extra):
    """cls built from the config's values of keys; a value that cls rejects
    is a configuration error."""
    try:
        return cls(**{key: cfg[key] for key in keys}, **extra)
    except ValueError as e:
        raise ConfigError(str(e)) from e


def cmd_synth(cfg: dict) -> int:
    spec = _config(SynthSpec, cfg, SYNTH_KEYS)
    _check_writable(cfg, (), ("out",))
    try:
        ds = generate_synthetic(spec, cfg["seed"])
    except DataError as e:
        raise ConfigError(f"the synth settings produce invalid data: {e}") from e
    save_dataset(ds, cfg["out"])
    print(f"wrote {sum(len(d) for d in ds.domains)} points "
          f"({ds.n_domains} domains) to {cfg['out']}")
    return EXIT_OK


def _check_writable(cfg: dict, inputs: tuple[str, ...], outputs: tuple[str, ...]) -> None:
    """Fail before any work if an output key's file is empty, an input's or another output's,
    or cannot be written: its directory must exist and it must not be a directory."""
    named = {os.path.realpath(cfg[key]): key for key in inputs}
    for key in outputs:
        path = cfg[key]
        if path is None:
            continue
        if not path:
            raise FileNotFoundError(f"cannot write {key}: its path is empty")
        real = os.path.realpath(path)
        if real in named:
            raise ConfigError(f"{key} and {named[real]} name the same file {path}")
        named[real] = key
        folder = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(folder):
            raise FileNotFoundError(f"cannot write {path}: directory {folder} does not exist")
        if os.path.isdir(path):
            raise IsADirectoryError(f"cannot write {path}: it is a directory")
        if not os.access(path if os.path.exists(path) else folder, os.W_OK):
            raise PermissionError(f"cannot write {path}: permission denied")


def _load_split(cfg: dict):
    """The dataset at cfg["data"], its target split as dataset.split_target does."""
    ds = load_dataset(cfg["data"])
    try:
        split_target(ds, cfg["seed"])
    except DataError as e:
        raise DataError(f"{cfg['data']}: {e}") from e
    return ds


def _report(params, ds, path: str | None, **extra) -> dict:
    """The accuracy report of params on ds, with `extra` entries added;
    written as JSON to path when one is given."""
    T = ds.n_domains
    per_domain = {}
    for t in range(T - 1):
        per_domain[f"domain_{t + 1}"] = evaluate(params, ds.domains[t], t)
    # without test points there is no test accuracy: training points never stand in
    test_points = ds.target_points(ROLE_TEST)
    tgt = evaluate(params, test_points, T - 1) if test_points else None
    per_domain[f"domain_{T}_target_test"] = tgt
    report = {"per_domain_accuracy": per_domain, "target_test_accuracy": tgt, **extra}
    if path:
        with open(path, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")
    return report


def _accuracy_text(acc: float | None) -> str:
    return "n/a" if acc is None else f"{acc:.4f}"


def cmd_train(cfg: dict) -> int:
    tc = _config(TrainConfig, cfg, TRAIN_KEYS, seed=cfg["seed"])
    _check_writable(cfg, ("data",), ("model_out", "curve_out", "report_out"))
    ds = _load_split(cfg)
    graph = build_neighbor_graph(ds.target_train_points(), tc.knn_k)
    params, rows = train(ds, graph, tc)
    save_params(params, cfg["model_out"])
    write_trajectory_csv(rows, cfg["curve_out"])
    final = rows[-1].breakdown
    report = _report(params, ds, cfg["report_out"], iterations=rows[-1].iteration,
                     final_objective=dataclasses.asdict(final))
    print(f"trained {report['iterations']} iterations; "
          f"final total {final.total!r}; "
          f"target test accuracy {_accuracy_text(report['target_test_accuracy'])}")
    return EXIT_OK


def cmd_eval(cfg: dict) -> int:
    _check_writable(cfg, ("model", "data"), ("report_out",))
    params = load_params(cfg["model"])
    ds = _load_split(cfg)
    _check_compat(params, ds)
    report = _report(params, ds, cfg["report_out"])
    for name, acc in report["per_domain_accuracy"].items():
        print(f"{name}: accuracy {_accuracy_text(acc)}")
    return EXIT_OK


def cmd_gradcheck(cfg: dict) -> int:
    if cfg["seed"] + cfg["instances"] > SEED_BOUND:
        raise ConfigError(f"seed + instances - 1 must be below 2**64, got seed {cfg['seed']} "
                          f"and {cfg['instances']} instances")
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


REQUIRED = object()
SEED = (_seed, 0)

# command -> (function, help, {flag: the key it sets}, {key: (parser, default)});
# default REQUIRED means the merged config must set the key
COMMANDS = {
    "synth": (cmd_synth, "generate a synthetic multi-domain dataset file",
              {"--seed": "seed", "--out": "out"},
              {"seed": SEED, **SYNTH_KEYS, "out": (str, REQUIRED)}),
    # workers is accepted and ignored: training runs in one thread
    "train": (cmd_train, "split, build the neighbor graph, and run the descent loop",
              {"--seed": "seed", "--data": "data", "--model": "model_out",
               "--out": "report_out", "--workers": "workers"},
              {"seed": SEED, "workers": (_positive_int, 1), **TRAIN_KEYS,
               "data": (str, REQUIRED), "model_out": (str, REQUIRED),
               "curve_out": (str, REQUIRED), "report_out": (str, None)}),
    "eval": (cmd_eval, "evaluate a saved model on a dataset",
             {"--seed": "seed", "--model": "model", "--data": "data", "--out": "report_out"},
             {"seed": SEED, "model": (str, REQUIRED), "data": (str, REQUIRED),
              "report_out": (str, None)}),
    "gradcheck": (cmd_gradcheck, "finite-difference validation of the analytic gradient",
                  {"--seed": "seed"},
                  {"seed": SEED, "instances": (_positive_int, 3),
                   "eps": (_positive_float, gcmod.DEFAULT_EPS)}),
}


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convtransfer",
        description="Cross-domain transfer learning with convolutional attribute embeddings",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key=value configuration file")
        for flag, key in flags.items():
            p.add_argument(flag, dest=key, help=f"the {key} key (overrides --config and --set)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override any configuration key (repeatable)")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return COMMANDS[args.command][0](build_config(args.command, args))
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except DivergenceError as e:
        print(f"divergence: {e}", file=sys.stderr)
        return EXIT_DIVERGED
    except MemoryError as e:
        print(f"out of memory: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
