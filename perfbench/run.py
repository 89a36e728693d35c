"""Benchmark of the convtransfer CLI: training, gradient checking, evaluation.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each round runs one `convtransfer` command in a fresh process
(`perfbench/child.py`), for as many rounds as fit in --seconds (at least
three). Inputs come from `convtransfer synth` with the given seed. Every
output is checked against `reference.py` or a property of the method. The
last line of standard output is one JSON object: `correct`, `attempted`,
`failed` and `metrics`, the median over rounds of each end-to-end metric
(--trace 0) or of each per-layer metric (--trace 1). See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import reference as ref
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")

WORKLOADS = ("train-joint", "train-block-cyclic", "gradcheck", "eval-large")

# The CLI's default configuration, except the step size: the default
# tau=1e-3 diverges (exit 4) on many synthetic seeds and 2e-4 still on some;
# at 5e-5 no seed from 100 to 299 raised the objective above its start.
TAU = "5e-5"
TRAIN_ARGS = {
    "train-joint": ["--set", f"tau={TAU}", "--set", "max_iters=40"],
    "train-block-cyclic": ["--set", f"tau={TAU}", "--set", "max_iters=4",
                           "--set", "update_mode=block-cyclic", "--workers", "2"],
}
KNN_K = 5              # the CLI's default knn_k
C1 = C2 = C3 = 1.0     # the CLI's default term weights
GRADCHECK_INSTANCES = 2
GRADCHECK_BLOCKS = 11  # 2T + 5 parameter blocks for T = 3 domains
GRADCHECK_TOL = 1e-4
EVAL_POINTS_PER_DOMAIN = 3000
EVAL_MODEL_ITERS = 10
OBJECTIVE_RTOL = 1e-9

MIN_ROUNDS = 3          # per kind of round (untraced, traced)
ROUND_TIMEOUT_S = 120
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "work_items_per_s": "items/s"}
WORK_ITEM = {"train-joint": "iteration", "train-block-cyclic": "iteration",
             "gradcheck": "instance", "eval-large": "point"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for b in tracer.LAYERS:
        units.update({f"{b}.calls": "count", f"{b}.s": "s", f"{b}.self_s": "s"})
    units.update({"objective.gradient.calls_per_iter": "calls/iter",
                  "convnet.conv_forward.calls_per_iter": "calls/iter",
                  "gradcheck.smooth_accept_ratio": "ratio",
                  "trace.overhead_s": "s"})
    return units


class CheckFailed(Exception):
    pass


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": CHILD_ENV["OPENBLAS_NUM_THREADS"],
    }


def cli(args: list[str], cwd: str) -> None:
    """Run a set-up command of the CLI; its time is not measured."""
    env = {**os.environ, **CHILD_ENV, "PYTHONPATH": SRC}
    r = subprocess.run([sys.executable, "-m", "convtransfer.cli", *args], cwd=cwd, env=env,
                       capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    if r.returncode != 0:
        raise RuntimeError(f"set-up command {args} exited {r.returncode}: {r.stderr.strip()}")


def reference_accuracies(model: dict, domains: list[list[dict]]) -> dict[str, float]:
    """Per-domain accuracies keyed as in the CLI's reports: every auxiliary
    domain whole, the target on its test points."""
    T = len(domains)
    acc = {f"domain_{t + 1}": ref.accuracy(model, domains[t], t) for t in range(T - 1)}
    test = [p for p in domains[-1] if p["role"] == ref.TEST]
    acc[f"domain_{T}_target_test"] = ref.accuracy(model, test, T - 1)
    return acc


class Workload:
    """Inputs, per-round command, outputs to compare, and reference checks."""

    def __init__(self, name: str, seed: int, work: str):
        self.name, self.seed, self.work = name, seed, work

    def prepare(self) -> None:
        if self.name.startswith("train-") or self.name == "eval-large":
            cli(["synth", "--seed", str(self.seed), "--out", "data.json"], self.work)
        if self.name == "eval-large":
            cli(["train", "--data", "data.json", "--model", "model.json", "--seed", str(self.seed),
                 "--set", "curve_out=setup-curve.csv", "--set", f"tau={TAU}",
                 "--set", f"max_iters={EVAL_MODEL_ITERS}"], self.work)
            cli(["synth", "--seed", str(self.seed), "--out", "large.json",
                 "--set", f"points_per_domain={EVAL_POINTS_PER_DOMAIN}"], self.work)

    def command(self) -> list[str]:
        s = str(self.seed)
        if self.name.startswith("train-"):
            return ["train", "--data", "data.json", "--model", "model.json", "--seed", s,
                    "--set", "curve_out=curve.csv", "--out", "report.json",
                    *TRAIN_ARGS[self.name]]
        if self.name == "gradcheck":
            return ["gradcheck", "--seed", s, "--set", f"instances={GRADCHECK_INSTANCES}"]
        return ["eval", "--model", "model.json", "--data", "large.json", "--seed", s,
                "--out", "eval.json"]

    def outputs(self, stdout: bytes) -> dict[str, bytes]:
        """The bytes every round must reproduce exactly."""
        if self.name == "gradcheck":
            return {"stdout": stdout}
        names = ["eval.json"] if self.name == "eval-large" else \
            ["model.json", "curve.csv", "report.json"]
        out = {}
        for n in names:
            with open(os.path.join(self.work, n), "rb") as f:
                out[n] = f.read()
        return out

    def items(self) -> int:
        """Work items of one round: training iterations, evaluated points or
        checked instances."""
        if self.name == "gradcheck":
            return GRADCHECK_INSTANCES
        if self.name == "eval-large":
            n = EVAL_POINTS_PER_DOMAIN
            return 2 * n + n // 2  # both auxiliary domains and the target test half
        with open(os.path.join(self.work, "report.json")) as f:
            return json.load(f)["iterations"]

    def work_s(self, b: dict) -> float:
        """Time inside the main loop's entry points."""
        if self.name == "gradcheck":
            return b["gradcheck.random_smooth_instance"]["s"] + b["gradcheck.gradient_check"]["s"]
        if self.name == "eval-large":
            return b["objective.evaluate"]["s"]
        return b["objective.train"]["s"]

    def verify(self, outputs: dict[str, bytes]) -> dict:
        """Check one round's outputs against the reference; returns facts to print."""
        if self.name.startswith("train-"):
            return self._verify_train(outputs)
        if self.name == "eval-large":
            return self._verify_eval(outputs)
        return self._verify_gradcheck(outputs)

    def _verify_train(self, outputs) -> dict:
        domains = ref.load_dataset(os.path.join(self.work, "data.json"))
        ref.split_target(domains, self.seed)
        view = ref.training_view(domains)
        graph = ref.knn_graph(view[-1], KNN_K)
        model = ref.load_model(os.path.join(self.work, "model.json"))
        expect = ref.objective(model, view, graph, C1, C2, C3)["total"]
        rows = outputs["curve.csv"].decode().strip().splitlines()[1:]
        first, final = float(rows[0].split(",")[6]), float(rows[-1].split(",")[6])
        check(rel_close(final, expect, OBJECTIVE_RTOL),
              f"curve's final total {final!r} differs from the reference objective {expect!r}")
        check(final < first, f"training did not lower the objective ({first!r} -> {final!r})")
        report = json.loads(outputs["report.json"])
        check(rel_close(report["final_objective"]["total"], expect, OBJECTIVE_RTOL),
              "report's final total differs from the reference objective")
        acc = reference_accuracies(model, domains)
        check(acc == report["per_domain_accuracy"],
              f"reference accuracies {acc} differ from the report's {report['per_domain_accuracy']}")
        check(acc[f"domain_{len(domains)}_target_test"] == report["target_test_accuracy"],
              "report's target test accuracy differs from the reference")
        return {"iterations": report["iterations"], "objective_ratio": final / first,
                "target_test_accuracy": report["target_test_accuracy"]}

    def _verify_eval(self, outputs) -> dict:
        domains = ref.load_dataset(os.path.join(self.work, "large.json"))
        ref.split_target(domains, self.seed)
        acc = reference_accuracies(ref.load_model(os.path.join(self.work, "model.json")), domains)
        report = json.loads(outputs["eval.json"])
        check(acc == report["per_domain_accuracy"],
              f"reference accuracies {acc} differ from the report's {report['per_domain_accuracy']}")
        return {"per_domain_accuracy": acc}

    def _verify_gradcheck(self, outputs) -> dict:
        text = outputs["stdout"].decode()
        errs = {m[1]: float(m[2]) for m in
                re.finditer(r"^block (\S+): max relative error (\S+) \[(?:ok|FAIL)\]$", text, re.M)}
        check(len(errs) == GRADCHECK_BLOCKS, f"expected {GRADCHECK_BLOCKS} blocks, got {len(errs)}")
        check(max(errs.values()) < GRADCHECK_TOL,
              f"a block's relative error reaches {GRADCHECK_TOL}: {errs}")
        # the program's objective on the first instance against the reference
        if SRC not in sys.path:
            sys.path.insert(0, SRC)
        from convtransfer.gradcheck import random_smooth_instance
        from convtransfer.objective import objective

        params, ds, graph, cfg = random_smooth_instance(self.seed)
        got = objective(params, ds, graph, cfg).total
        expect = ref.objective(ref.model_from_params(params), ref.domains_from_dataset(ds),
                               graph.neighbors, cfg.c1, cfg.c2, cfg.c3)["total"]
        check(rel_close(got, expect, OBJECTIVE_RTOL),
              f"program objective {got!r} differs from the reference {expect!r}")
        return {"max_relative_error": max(errs.values())}


def run_round(wl: Workload, trace: int) -> dict:
    """One CLI command in a fresh process; returns its samples and outputs."""
    record = os.path.join(wl.work, "record.json")
    if os.path.exists(record):
        os.remove(record)
    env = {**os.environ, **CHILD_ENV}
    out_path = os.path.join(wl.work, "stdout.txt")
    with open(out_path, "wb") as out, open(os.path.join(wl.work, "stderr.txt"), "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen([sys.executable, CHILD, record, str(trace), "--", *wl.command()],
                                cwd=wl.work, env=env, stdout=out, stderr=err)
        try:
            code = proc.wait(timeout=ROUND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return {"ok": False, "why": f"timed out after {ROUND_TIMEOUT_S} s"}
        wall = time.monotonic() - t0
    if code != 0 or not os.path.exists(record):
        with open(os.path.join(wl.work, "stderr.txt")) as f:
            return {"ok": False, "why": f"exit {code}: {f.read().strip()[-500:]}"}
    with open(record) as f:
        rec = json.load(f)
    with open(out_path, "rb") as f:
        stdout = f.read()
    b = rec["boundaries"]
    firsts = [b[e]["first"] for e in tracer.ENTRY if b[e]["first"] is not None]
    return {
        "ok": True, "trace": trace, "boundaries": b, "outputs": wl.outputs(stdout),
        "e2e": {"wall_s": wall,
                "setup_s": min(firsts) - t0,
                "peak_rss_mb": rec["peak_rss_kb"] / 1024.0,
                "work_items_per_s": wl.items() / wl.work_s(b)},
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def layer_samples(rnd: dict, items: int | None) -> dict[str, float]:
    b = rnd["boundaries"]
    out = {}
    for name in tracer.LAYERS:
        out[f"{name}.calls"] = b[name]["calls"]
        out[f"{name}.s"] = b[name]["s"]
        out[f"{name}.self_s"] = b[name]["self_s"]
    per_iter = (lambda n: n / items) if items else (lambda n: 0.0)
    out["objective.gradient.calls_per_iter"] = per_iter(b["objective.gradient"]["calls"])
    out["convnet.conv_forward.calls_per_iter"] = per_iter(b["convnet.conv_forward"]["calls"])
    tried = b["gradcheck.is_smooth"]["calls"]
    out["gradcheck.smooth_accept_ratio"] = (
        b["gradcheck.random_smooth_instance"]["calls"] / tried if tried else 0.0)
    return out


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    work = os.path.join(HERE, "_work", f"{name}-seed{seed}-trace{trace}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    wl = Workload(name, seed, work)
    rounds, failures, problems, facts = [], [], [], {}
    try:
        wl.prepare()
        kinds = [0, 1] if trace else [0]
        start = time.monotonic()
        durations = []
        while True:
            done = len(rounds) + len(failures)
            elapsed = time.monotonic() - start
            if done >= MIN_ROUNDS * len(kinds) and \
                    elapsed + statistics.median(durations) * len(kinds) > seconds:
                break
            for kind in kinds:  # whole rounds: one of each kind
                t = time.monotonic()
                rnd = run_round(wl, kind)
                durations.append(time.monotonic() - t)
                if not rnd["ok"]:
                    failures.append(rnd["why"])
                    continue
                if not rounds:
                    try:
                        facts = wl.verify(rnd["outputs"])
                    except CheckFailed as e:
                        problems.append(str(e))
                elif rnd["outputs"] != rounds[0]["outputs"]:
                    problems.append("outputs differ between rounds"
                                    + (" (traced and untraced)" if trace else ""))
                rounds.append(rnd)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    traced = [r for r in rounds if r["trace"] == 1]
    untraced = [r for r in rounds if r["trace"] == 0]
    if trace:
        calls = [{k: v["calls"] for k, v in r["boundaries"].items()} for r in traced]
        if any(c != calls[0] for c in calls):
            problems.append("per-layer call counts differ between traced runs")
        items = facts.get("iterations")
        samples = [layer_samples(r, items) for r in traced]
        units = per_layer_units()
        metrics = {k: [s[k] for s in samples] for k in units if k != "trace.overhead_s"}
        metrics["trace.overhead_s"] = [
            statistics.median(r["e2e"]["wall_s"] for r in traced)
            - statistics.median(r["e2e"]["wall_s"] for r in untraced)] if traced and untraced else []
    else:
        units = END_TO_END
        metrics = {k: [r["e2e"][k] for r in untraced] for k in units}
    return {"workload": name, "seed": seed, "trace": trace, "units": units,
            "samples": metrics, "facts": facts, "problems": problems, "failures": failures,
            "attempted": len(rounds) + len(failures), "failed": len(failures)}


def summarize(res: dict) -> list[str]:
    lines = [f"workload {res['workload']} seed {res['seed']} trace {res['trace']}: "
             f"{res['attempted']} attempted, {res['failed']} failed"]
    if not res["trace"]:
        lines.append(f"  work item: one {WORK_ITEM[res['workload']]}")
    for k, v in res["facts"].items():
        lines.append(f"  check fact {k}: {v}")
    for k, vals in res["samples"].items():
        if vals:
            q1, med, q3 = quartiles(vals)
            lines.append(f"  {k} = {med:.6g} {res['units'][k]} "
                         f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(vals)})")
    lines += [f"  CHECK FAILED: {p}" for p in res["problems"]]
    lines += [f"  ROUND FAILED: {f}" for f in res["failures"]]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "convtransfer", "cli.py")):
        print(f"error: no convtransfer sources under {SRC}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    env = environment()
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, args.trace)
        results.append(res)
        print("\n".join(summarize(res)), flush=True)
        os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
        path = os.path.join(HERE, "results", f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w") as f:
            json.dump({**res, "environment": env}, f, indent=1)

    metrics = {}
    for res in results:
        prefix = "" if len(results) == 1 else res["workload"] + "."
        for k, vals in res["samples"].items():
            if vals:
                metrics[prefix + k] = {"value": statistics.median(vals), "unit": res["units"][k]}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = attempted > failed and not any(r["problems"] for r in results)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
