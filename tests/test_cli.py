"""End-to-end tests for the command-line interface."""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from convtransfer import cli, dataset
from convtransfer.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_DIVERGED,
    EXIT_GRADCHECK,
    EXIT_OK,
    main,
)
from convtransfer.dataset import (
    ROLE_LABELED,
    ROLE_TEST,
    ROLE_UNLABELED,
    build_neighbor_graph,
    load_dataset,
    save_dataset,
    split_target,
)
from convtransfer.model import Dims, init_params, save_params
from convtransfer.numeric import Rng

objective_module = importlib.import_module("convtransfer.objective")

SMALL_SYNTH = ["--set", "domains=2", "--set", "points_per_domain=8",
               "--set", "feature_dim=4", "--set", "attr_dim=5",
               "--set", "l_max=4"]


def synth(tmp_path, seed=0, name="data.json"):
    path = tmp_path / name
    rc = main(["synth", "--seed", str(seed), "--out", str(path)] + SMALL_SYNTH)
    assert rc == EXIT_OK
    return path


def train_args(data, model, curve, extra=()):
    return ["train", "--data", str(data), "--model", str(model),
            "--set", f"curve_out={curve}", "--set", "knn_k=1",
            "--set", "max_iters=5", "--set", "tau=1e-4"] + list(extra)


def run_cli(cwd, *args):
    """Run the CLI in a fresh interpreter, as a user would."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-m", "convtransfer.cli", *args], env=env,
                          cwd=cwd, capture_output=True, text=True)


class TestSynth:
    def test_same_seed_byte_identical(self, tmp_path):
        a = synth(tmp_path, seed=3, name="a.json")
        b = synth(tmp_path, seed=3, name="b.json")
        assert a.read_bytes() == b.read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        a = synth(tmp_path, seed=0, name="a.json")
        b = synth(tmp_path, seed=1, name="b.json")
        assert a.read_bytes() != b.read_bytes()

    def test_output_loads_back(self, tmp_path):
        path = synth(tmp_path)
        ds = load_dataset(str(path))
        assert ds.n_domains == 2
        assert len(ds.target) == 8

    def test_missing_out_is_config_error(self, capsys):
        assert main(["synth"] + SMALL_SYNTH) == EXIT_CONFIG
        assert "out" in capsys.readouterr().err

    def test_unknown_key_is_named(self, capsys):
        rc = main(["synth", "--out", "/tmp/x.json", "--set", "bogus=1"])
        assert rc == EXIT_CONFIG
        assert "bogus" in capsys.readouterr().err

    def test_invalid_value_is_config_error(self, tmp_path, capsys):
        out = str(tmp_path / "x.json")
        cases = [
            (["synth", "--out", out, "--set", "classes=0"], "classes"),
            (["synth", "--out", out, "--set", "noise=nan"], "noise"),
            (["synth", "--out", out, "--set", "margin=inf"], "margin"),
            (["synth", "--out", out, "--set", "shift=nan"], "shift"),
            # valid settings whose draws overflow to non-finite points
            (["synth", "--out", out, "--set", "noise=1e308"], "synth settings"),
            (["synth", "--out", out, "--seed", str(2**64)], "seed"),
            (["gradcheck", "--seed", str(2**64)], "seed"),
            # the per-instance seeds run from seed to seed + instances - 1
            (["gradcheck", "--seed", str(2**64 - 1), "--set", "instances=2"], "seed"),
            (["gradcheck", "--set", "eps=0"], "eps"),
            (["gradcheck", "--set", "eps=inf"], "eps"),
            (["gradcheck", "--set", "eps=nan"], "eps"),
        ]
        for argv, key in cases:
            assert main(argv) == EXIT_CONFIG, argv
            assert key in capsys.readouterr().err, argv
        assert not (tmp_path / "x.json").exists()

    def test_unwritable_output_fails_before_generating(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "generate_synthetic", lambda *args: calls.append(args))
        out = tmp_path / "absent" / "d.json"
        assert main(["synth", "--out", str(out)]) == EXIT_DATA
        assert str(out) in capsys.readouterr().err
        assert calls == []

    def test_huge_margin_does_not_overflow(self, tmp_path):
        # prototype distances are compared without squaring, so a margin
        # near the float range neither overflows nor passes by overflow
        with np.errstate(all="raise"):
            rc = main(["synth", "--out", str(tmp_path / "x.json"), "--set", "margin=1e300"])
        assert rc == EXIT_OK


class TestConfigFile:
    def test_file_values_with_comments(self, tmp_path):
        data = synth(tmp_path)
        conf = tmp_path / "run.conf"
        conf.write_text(
            "# training run\n"
            f"data = {data}\n"
            f"model_out = {tmp_path / 'm.json'}\n"
            f"curve_out = {tmp_path / 'c.csv'}\n"
            "max_iters = 2  # keep it quick\n"
            "tau = 1e-4\n"
            "knn_k = 1\n"
        )
        assert main(["train", "--config", str(conf)]) == EXIT_OK
        assert (tmp_path / "m.json").exists()

    def test_flag_overrides_file(self, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("seed = 1\nout = /nonexistent-dir/x.json\n")
        out = tmp_path / "ok.json"
        rc = main(["synth", "--config", str(conf), "--out", str(out)] + SMALL_SYNTH)
        assert rc == EXIT_OK and out.exists()

    def test_malformed_line_is_config_error(self, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text("this is not a key value pair\n")
        assert main(["synth", "--config", str(conf)]) == EXIT_CONFIG
        assert "bad.conf:1" in capsys.readouterr().err


class TestTrain:
    def test_outputs_exist_and_deterministic(self, tmp_path):
        data = synth(tmp_path)
        files = {}
        for tag in ("one", "two"):
            model = tmp_path / f"m-{tag}.json"
            curve = tmp_path / f"c-{tag}.csv"
            report = tmp_path / f"r-{tag}.json"
            rc = main(train_args(data, model, curve, ["--out", str(report)]))
            assert rc == EXIT_OK
            files[tag] = (model.read_bytes(), curve.read_bytes(), report.read_bytes())
        assert files["one"] == files["two"]

    def test_worker_count_does_not_change_outputs(self, tmp_path):
        data = synth(tmp_path)
        out = {}
        for workers in (1, 3):
            model = tmp_path / f"m{workers}.json"
            curve = tmp_path / f"c{workers}.csv"
            rc = main(train_args(data, model, curve, ["--workers", str(workers)]))
            assert rc == EXIT_OK
            out[workers] = (model.read_bytes(), curve.read_bytes())
        assert out[1] == out[3]

    def test_zero_step_gives_constant_total_column(self, tmp_path):
        data = synth(tmp_path)
        curve = tmp_path / "c.csv"
        rc = main(["train", "--data", str(data), "--model", str(tmp_path / "m.json"),
                   "--set", f"curve_out={curve}", "--set", "tau=0", "--set", "max_iters=10", "--set", "knn_k=1"])
        assert rc == EXIT_OK
        totals = [float(l.split(",")[6]) for l in curve.read_text().splitlines()[1:]]
        assert len(set(totals)) == 1

    def test_small_step_total_decreases(self, tmp_path):
        data = synth(tmp_path)
        curve = tmp_path / "c.csv"
        rc = main(train_args(data, tmp_path / "m.json", curve))
        assert rc == EXIT_OK
        totals = [float(l.split(",")[6]) for l in curve.read_text().splitlines()[1:]]
        assert all(b < a for a, b in zip(totals, totals[1:]))

    def test_divergence_exit_code(self, tmp_path):
        data = synth(tmp_path)
        with np.errstate(all="ignore"):
            rc = main(["train", "--data", str(data),
                       "--model", str(tmp_path / "m.json"),
                       "--set", f"curve_out={tmp_path / 'c.csv'}",
                       "--set", "tau=1e3", "--set", "max_iters=50", "--set", "knn_k=1"])
        assert rc == EXIT_DIVERGED

    def test_divergence_is_one_line_naming_iteration_tau_and_term(self, tmp_path):
        # the CLI defaults diverge on synth seed 3; no numpy warning may
        # reach stderr before the message
        assert run_cli(tmp_path, "synth", "--seed", "3", "--out", "d.json").returncode == EXIT_OK
        done = run_cli(tmp_path, "train", "--seed", "3", "--data", "d.json", "--model", "m.json",
                       "--set", "curve_out=c.csv")
        assert done.returncode == EXIT_DIVERGED
        lines = done.stderr.splitlines()
        assert len(lines) == 1, done.stderr
        assert "iteration 6 " in lines[0] and "tau 0.001" in lines[0]
        assert re.search(r": (aux_cls|tgt_cls|attr_map|dom_match|neighbor|total) is ", lines[0])

    def test_overflowing_data_diverges_with_one_stderr_line(self, tmp_path):
        # finite entries whose squares overflow: in the kNN distances first,
        # then in the objective at iteration 0
        data = synth(tmp_path)
        doc = json.loads(data.read_text())
        for dom in doc["domains"]:
            for p in dom["points"]:
                p["x"] = [[v * 1e200 for v in row] for row in p["x"]]
        data.write_text(json.dumps(doc))
        done = run_cli(tmp_path, *train_args(data, "m.json", "c.csv"))
        assert done.returncode == EXIT_DIVERGED
        assert len(done.stderr.splitlines()) == 1, done.stderr

    def test_invalid_train_value_is_config_error(self, tmp_path, capsys):
        data = synth(tmp_path)
        for key, value in [("init_range", "-1"), ("init_range", "nan"), ("init_range", "inf"),
                           ("init_range", "1e308"), ("tau", "nan"), ("c1", "nan")]:
            rc = main(train_args(data, tmp_path / "m.json", tmp_path / "c.csv",
                                 ["--set", f"{key}={value}"]))
            assert rc == EXIT_CONFIG, (key, value)
            assert key in capsys.readouterr().err, (key, value)

    def test_tagged_file_keeps_its_split(self, tmp_path, monkeypatch):
        path = tmp_path / "split.json"
        assert main(["synth", "--seed", "0", "--out", str(path),
                     "--set", "points_per_domain=20"]) == EXIT_OK
        ds = load_dataset(str(path))
        split_target(ds, 123)
        save_dataset(ds, str(path))
        tags = [p.role for p in ds.target]

        seen = {}
        real_train = cli.train

        def spy(data, graph, cfg):
            seen.update(data=data, graph=graph)
            return real_train(data, graph, cfg)

        monkeypatch.setattr(cli, "train", spy)
        report = tmp_path / "train.json"
        rc = main(["train", "--data", str(path), "--model", str(tmp_path / "m.json"),
                   "--seed", "0", "--out", str(report), "--set", f"curve_out={tmp_path / 'c.csv'}",
                   "--set", "max_iters=3", "--set", "tau=5e-5"])
        assert rc == EXIT_OK
        assert [p.role for p in seen["data"].target] == tags
        train_points = [p for p in ds.target if p.role != ROLE_TEST]
        view = seen["data"].target_train_points()
        assert [p.x.tobytes() for p in view] == [p.x.tobytes() for p in train_points]
        assert seen["graph"] == build_neighbor_graph(train_points, 5)

        evaled = tmp_path / "eval.json"
        assert main(["eval", "--model", str(tmp_path / "m.json"), "--data", str(path),
                     "--seed", "0", "--out", str(evaled)]) == EXIT_OK
        assert (json.loads(evaled.read_text())["per_domain_accuracy"]
                == json.loads(report.read_text())["per_domain_accuracy"])

    @pytest.mark.parametrize("with_unlabeled", [True, False])
    def test_no_test_points_reports_no_test_accuracy(self, tmp_path, capsys, with_unlabeled):
        # training points never stand in for test points, in train or in eval
        data = synth(tmp_path)
        ds = load_dataset(str(data))
        for i, p in enumerate(ds.target):
            p.role = ROLE_UNLABELED if with_unlabeled and i % 2 else ROLE_LABELED
            if p.role == ROLE_UNLABELED:
                p.y = None
        save_dataset(ds, str(data))
        model, report = tmp_path / "m.json", tmp_path / "r.json"
        capsys.readouterr()
        assert main(train_args(data, model, tmp_path / "c.csv", ["--out", str(report)])) == EXIT_OK
        assert json.loads(report.read_text())["target_test_accuracy"] is None
        assert capsys.readouterr().out.rstrip().endswith("target test accuracy n/a")
        assert main(["eval", "--model", str(model), "--data", str(data),
                     "--out", str(report)]) == EXIT_OK
        evaled = json.loads(report.read_text())
        assert evaled["target_test_accuracy"] is None
        assert evaled["per_domain_accuracy"]["domain_2_target_test"] is None
        assert evaled["per_domain_accuracy"]["domain_1"] >= 0.0
        assert capsys.readouterr().out.splitlines()[-1] == "domain_2_target_test: accuracy n/a"

    def test_tagged_file_without_labeled_target_is_data_error(self, tmp_path, capsys):
        data = synth(tmp_path)
        ds = load_dataset(str(data))
        for i, p in enumerate(ds.target):
            p.role = ROLE_TEST if i % 2 else ROLE_UNLABELED
        save_dataset(ds, str(data))
        rc = main(train_args(data, tmp_path / "m.json", tmp_path / "c.csv"))
        assert rc == EXIT_DATA
        assert "labeled target point" in capsys.readouterr().err

    def test_empty_domain_is_data_error(self, tmp_path, capsys):
        data = synth(tmp_path)
        doc = json.loads(data.read_text())
        doc["domains"][0]["points"] = []
        data.write_text(json.dumps(doc))
        rc = main(train_args(data, tmp_path / "m.json", tmp_path / "c.csv"))
        assert rc == EXIT_DATA
        assert "domain 0 has no points" in capsys.readouterr().err

    def test_zero_attribute_dimension_is_data_error(self, tmp_path, capsys):
        data = synth(tmp_path)
        doc = json.loads(data.read_text())
        doc["A"] = 0
        for dom in doc["domains"]:
            for p in dom["points"]:
                p["a"] = []
        data.write_text(json.dumps(doc))
        rc = main(train_args(data, tmp_path / "m.json", tmp_path / "c.csv"))
        assert rc == EXIT_DATA
        assert "'A'" in capsys.readouterr().err

    def test_non_object_document_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "list.json"
        data.write_text("[]\n")
        rc = main(train_args(data, tmp_path / "m.json", tmp_path / "c.csv"))
        assert rc == EXIT_DATA
        assert "JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["x", "a", "y"])
    @pytest.mark.parametrize("value", [{"a": 1}, [10**400]])
    def test_non_numeric_point_array_is_data_error(self, tmp_path, capsys, key, value):
        # neither a JSON object nor an integer beyond float range is a number
        data = synth(tmp_path)
        doc = json.loads(data.read_text())
        doc["domains"][0]["points"][1][key] = value
        data.write_text(json.dumps(doc))
        rc = main(train_args(data, tmp_path / "m.json", tmp_path / "c.csv"))
        assert rc == EXIT_DATA
        assert "domain 0, point 1: malformed arrays" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["model", "curve", "report"])
    def test_unwritable_output_fails_before_training(self, tmp_path, capsys, monkeypatch, bad):
        data = synth(tmp_path)

        def must_not_train(*args):
            raise AssertionError("training started before the output paths were checked")

        monkeypatch.setattr(cli, "train", must_not_train)
        paths = {"model": tmp_path / "m.json", "curve": tmp_path / "c.csv",
                 "report": tmp_path / "r.json"}
        paths[bad] = tmp_path / "absent" / "out"
        rc = main(train_args(data, paths["model"], paths["curve"], ["--out", str(paths["report"])]))
        assert rc == EXIT_DATA
        assert str(paths[bad]) in capsys.readouterr().err
        assert not any(p.exists() for p in paths.values())

    def test_validates_the_dataset_once(self, tmp_path, monkeypatch):
        data = synth(tmp_path)
        calls = []
        real_validate = dataset.validate_dataset

        def counting(ds):
            calls.append(ds)
            real_validate(ds)

        monkeypatch.setattr(dataset, "validate_dataset", counting)
        assert main(train_args(data, tmp_path / "m.json", tmp_path / "c.csv")) == EXIT_OK
        assert len(calls) == 1

    def test_out_of_memory_is_one_line_data_error(self, tmp_path, capsys, monkeypatch):
        data = synth(tmp_path)
        msg = "Unable to allocate 89.4 GiB for an array with shape (1000000000, 4, 3)"

        def no_memory(*args):
            raise MemoryError(msg)

        monkeypatch.setattr(objective_module, "init_params", no_memory)
        rc = main(train_args(data, tmp_path / "m.json", tmp_path / "c.csv"))
        assert rc == EXIT_DATA
        assert capsys.readouterr().err == f"out of memory: {msg}\n"

    def test_missing_data_file_exit_code(self, tmp_path):
        rc = main(train_args(tmp_path / "absent.json", tmp_path / "m.json",
                             tmp_path / "c.csv"))
        assert rc == EXIT_DATA


class TestEval:
    def test_reproduces_training_report(self, tmp_path):
        data = synth(tmp_path)
        model = tmp_path / "m.json"
        report = tmp_path / "train-report.json"
        rc = main(train_args(data, model, tmp_path / "c.csv", ["--out", str(report)]))
        assert rc == EXIT_OK
        eval_report = tmp_path / "eval-report.json"
        rc = main(["eval", "--model", str(model), "--data", str(data),
                   "--out", str(eval_report)])
        assert rc == EXIT_OK
        trained = json.loads(report.read_text())
        evaled = json.loads(eval_report.read_text())
        assert evaled["target_test_accuracy"] == trained["target_test_accuracy"]
        assert evaled["per_domain_accuracy"] == trained["per_domain_accuracy"]

    def test_dimension_mismatch_is_data_error(self, tmp_path, capsys):
        data = synth(tmp_path)
        model = tmp_path / "m.json"
        rc = main(train_args(data, model, tmp_path / "c.csv"))
        assert rc == EXIT_OK
        other = tmp_path / "other.json"
        rc = main(["synth", "--out", str(other), "--set", "domains=2",
                   "--set", "points_per_domain=8", "--set", "feature_dim=4",
                   "--set", "attr_dim=5", "--set", "l_max=4", "--set", "classes=3"])
        assert rc == EXIT_OK
        assert main(["eval", "--model", str(model), "--data", str(other)]) == EXIT_DATA
        assert "do not match" in capsys.readouterr().err

    def test_unlabeled_target_is_data_error(self, tmp_path, capsys):
        data = synth(tmp_path)
        ds = load_dataset(str(data))
        for p in ds.target:
            p.y = None
        save_dataset(ds, str(data))
        model = tmp_path / "m.json"
        dims = Dims(d=ds.d, a_dim=ds.a_dim, y_dim=ds.y_dim, m0=4, ma=4, mt=(4, 4), w=2)
        save_params(init_params(dims, Rng(0)), str(model))
        assert main(["eval", "--model", str(model), "--data", str(data)]) == EXIT_DATA
        assert "labeled" in capsys.readouterr().err

    def test_malformed_model_is_data_error(self, tmp_path, capsys):
        data = synth(tmp_path)
        model = tmp_path / "m.json"
        assert main(train_args(data, model, tmp_path / "c.csv")) == EXIT_OK
        doc = json.loads(model.read_text())
        doc["params"]["theta"]["shape"].reverse()
        model.write_text(json.dumps(doc))
        assert main(["eval", "--model", str(model), "--data", str(data)]) == EXIT_DATA
        assert "theta" in capsys.readouterr().err


    def test_model_dims_disagreeing_with_its_tensors_is_data_error(self, tmp_path):
        # dims that claim 10**18-entry tensors are checked against the file's
        # own tensors, never allocated
        data = synth(tmp_path)
        model = tmp_path / "m.json"
        assert main(train_args(data, model, tmp_path / "c.csv")) == EXIT_OK
        doc = json.loads(model.read_text())
        doc["dims"].update(d=10**6, m0=10**6, ma=10**6, w=10**6)
        model.write_text(json.dumps(doc))
        done = run_cli(tmp_path, "eval", "--model", "m.json", "--data", str(data))
        assert done.returncode == EXIT_DATA, done.stderr
        assert "Traceback" not in done.stderr
        assert "f_a.filters has shape" in done.stderr

    def test_model_entry_beyond_float_range_is_data_error(self, tmp_path, capsys):
        data = synth(tmp_path)
        model = tmp_path / "m.json"
        assert main(train_args(data, model, tmp_path / "c.csv")) == EXIT_OK
        doc = json.loads(model.read_text())
        doc["params"]["u0"]["data"][0] = 10**400
        model.write_text(json.dumps(doc))
        assert main(["eval", "--model", str(model), "--data", str(data)]) == EXIT_DATA
        assert "int too large" in capsys.readouterr().err


class TestGradcheck:
    def test_passes_and_reports_blocks(self, capsys):
        rc = main(["gradcheck", "--seed", "0", "--set", "instances=1"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "block theta:" in out
        assert "passed" in out

    def test_non_finite_differences_fail(self, capsys):
        # a step of 1e300 overflows every finite difference to NaN or inf
        with np.errstate(all="ignore"):
            rc = main(["gradcheck", "--set", "instances=1", "--set", "eps=1e300"])
        assert rc == EXIT_GRADCHECK
        assert "FAILED" in capsys.readouterr().err


@pytest.mark.parametrize("argv, keys", [
    (["train", "--data", "d.json", "--model", "d.json", "--set", "curve_out=c.csv"],
     "model_out and data"),
    (["train", "--data", "d.json", "--model", "m.json", "--set", "curve_out=m.json"],
     "curve_out and model_out"),
    (["train", "--data", "d.json", "--model", "./d.json", "--set", "curve_out=c.csv"],
     "model_out and data"),
    (["eval", "--model", "m.json", "--data", "d.json", "--out", "m.json"],
     "report_out and model"),
])
def test_output_naming_an_input_or_another_output_is_config_error(
        argv, keys, tmp_path, capsys, monkeypatch):
    synth(tmp_path, name="d.json")
    assert main(train_args(tmp_path / "d.json", tmp_path / "m.json", tmp_path / "c.csv")) == EXIT_OK
    (tmp_path / "c.csv").unlink()
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    monkeypatch.chdir(tmp_path)
    if argv[0] == "train":
        argv = argv + ["--set", "knn_k=1", "--set", "max_iters=5"]
    assert main(argv) == EXIT_CONFIG
    assert keys in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


# settings that their command does not read: flags of other commands, and
# the workers key outside train
@pytest.mark.parametrize("command, setting", [
    ("synth", "--data"), ("synth", "--model"), ("synth", "--workers"), ("eval", "--workers"),
    ("gradcheck", "--out"), ("gradcheck", "--data"), ("gradcheck", "--model"),
    ("gradcheck", "--workers"), ("eval", "workers"),
])
def test_unread_setting_is_config_error(command, setting, capsys):
    argv = [command, setting, "2"] if setting.startswith("--") else [command, "--set", f"{setting}=2"]
    try:
        rc = main(argv)
    except SystemExit as e:  # argparse rejects a flag its command lacks
        rc = e.code
    assert rc == EXIT_CONFIG
    assert setting in capsys.readouterr().err


# a dimension whose arrays cannot exist on any machine: numpy would raise
# ValueError ("array is too big", "Maximum allowed dimension exceeded")
@pytest.mark.parametrize("size", [10**18, 10**20])
@pytest.mark.parametrize("command, key", [
    ("train", "m0"), ("train", "mt"), ("train", "ma"), ("synth", "feature_dim"),
    ("synth", "attr_dim"), ("synth", "classes"), ("synth", "domains"),
])
def test_oversized_dimension_is_one_line_out_of_memory(tmp_path, capsys, command, key, size):
    out = tmp_path / "out"
    if command == "train":
        argv = train_args(synth(tmp_path), out, tmp_path / "c.csv")
    else:
        argv = ["synth", "--out", str(out)]
    capsys.readouterr()
    assert main(argv + ["--set", f"{key}={size}"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("out of memory: ") and err.count("\n") == 1
    assert "Traceback" not in err and str(size) in err
    assert not out.exists()
