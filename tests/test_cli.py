"""End-to-end tests for the command-line interface."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import convtransfer.objective as objective_module
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

    def test_partly_tagged_target_is_data_error_before_any_output(self, tmp_path, capsys):
        # half the target tagged test, half untagged: neither split rule applies
        data = synth(tmp_path)
        ds = load_dataset(str(data))
        half = len(ds.target) // 2
        for p in ds.target[:half]:
            p.role = ROLE_TEST
        save_dataset(ds, str(data))
        model = tmp_path / "m.json"
        dims = Dims(d=ds.d, a_dim=ds.a_dim, y_dim=ds.y_dim, m0=4, ma=4, mt=(4, 4), w=2)
        save_params(init_params(dims, Rng(0)), str(model))
        expected = (f"data error: {data}: domain 1, point {half}: no role tag, "
                    f"but other target points have one; tag every target point or none\n")
        model_out, curve, report = tmp_path / "out.json", tmp_path / "c.csv", tmp_path / "r.json"
        for argv in (train_args(data, model_out, curve, ["--out", str(report)]),
                     ["eval", "--model", str(model), "--data", str(data), "--out", str(report)]):
            capsys.readouterr()
            assert main(argv) == EXIT_DATA, argv[0]
            assert capsys.readouterr() == ("", expected), argv[0]
            assert not any(path.exists() for path in (model_out, curve, report)), argv[0]

    def test_unlabeled_test_point_is_data_error_before_any_output(self, tmp_path, capsys):
        data = synth(tmp_path)
        ds = load_dataset(str(data))
        split_target(ds, 0)
        next(p for p in ds.target if p.role == ROLE_TEST).y = None
        save_dataset(ds, str(data))
        model, curve, report = tmp_path / "m.json", tmp_path / "c.csv", tmp_path / "r.json"
        capsys.readouterr()
        assert main(train_args(data, model, curve, ["--out", str(report)])) == EXIT_DATA
        assert capsys.readouterr().err == (f"data error: {data}: domain 1, point 2: "
                                           f"a test point must be labeled\n")
        assert not any(path.exists() for path in (model, curve, report))

    def test_unlabeled_train_labeled_point_is_data_error_before_any_output(self, tmp_path, capsys):
        # a point tagged train-labeled without a label would silently shrink the labeled budget
        data = synth(tmp_path)
        ds = load_dataset(str(data))
        split_target(ds, 0)
        i = next(i for i, p in enumerate(ds.target) if p.role == ROLE_LABELED)
        ds.target[i].y = None
        save_dataset(ds, str(data))
        model = tmp_path / "m.json"
        dims = Dims(d=ds.d, a_dim=ds.a_dim, y_dim=ds.y_dim, m0=4, ma=4, mt=(4, 4), w=2)
        save_params(init_params(dims, Rng(0)), str(model))
        expected = f"data error: {data}: domain 1, point {i}: a train-labeled point must be labeled\n"
        model_out, curve, report = tmp_path / "out.json", tmp_path / "c.csv", tmp_path / "r.json"
        for argv in (train_args(data, model_out, curve, ["--out", str(report)]),
                     ["eval", "--model", str(model), "--data", str(data), "--out", str(report)]):
            capsys.readouterr()
            assert main(argv) == EXIT_DATA, argv[0]
            assert capsys.readouterr() == ("", expected), argv[0]
            assert not any(path.exists() for path in (model_out, curve, report)), argv[0]

    @pytest.mark.parametrize("seed, role", [(0, ROLE_LABELED), (1, ROLE_TEST), (2, None)])
    def test_unlabeled_point_of_an_untagged_target_depends_on_the_split(self, tmp_path, capsys,
                                                                         seed, role):
        # an untagged target may hold an unlabeled point; the seed's split
        # decides whether that point lands on a role that needs a label
        data = tmp_path / "data.json"
        assert main(["synth", "--seed", "0", "--out", str(data),
                     "--set", "points_per_domain=8"]) == EXIT_OK
        doc = json.loads(data.read_text())
        doc["domains"][2]["points"][0]["y"] = None
        data.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["train", "--seed", str(seed), "--data", str(data),
                   "--model", str(tmp_path / "m.json"), "--set", f"curve_out={tmp_path / 'c.csv'}",
                   "--set", "knn_k=2", "--set", "max_iters=2"])
        written = sorted(p.name for p in tmp_path.iterdir())
        if role is None:
            assert rc == EXIT_OK
            assert written == ["c.csv", "data.json", "m.json"]
        else:
            assert rc == EXIT_DATA
            assert capsys.readouterr().err == (f"data error: {data}: domain 2, point 0: "
                                               f"a {role} point must be labeled\n")
            assert written == ["data.json"]

    def test_too_large_knn_k_names_the_key_and_whose_points(self, tmp_path, capsys):
        # 8 points per domain leave the trainer 4 target points, fewer than
        # the default knn_k of 5 needs
        data = tmp_path / "data.json"
        assert main(["synth", "--seed", "0", "--out", str(data),
                     "--set", "points_per_domain=8"]) == EXIT_OK
        capsys.readouterr()
        assert main(["train", "--data", str(data), "--model", str(tmp_path / "m.json"),
                     "--set", f"curve_out={tmp_path / 'c.csv'}"]) == EXIT_DATA
        assert capsys.readouterr().err == ("data error: knn_k=5 must be smaller than the number "
                                           "of target points the trainer sees, n=4\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.json"]

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

    def test_overflowing_scores_are_one_line_data_error(self, tmp_path):
        # finite weights whose scores overflow: no accuracy from non-finite
        # scores, and numpy's overflow warnings would only repeat the error
        data = synth(tmp_path)
        model, report = tmp_path / "m.json", tmp_path / "r.json"
        assert main(train_args(data, model, tmp_path / "c.csv")) == EXIT_OK
        doc = json.loads(model.read_text())
        for key in ("u0", "f_0.filters"):
            doc["params"][key]["data"] = [1e300] * len(doc["params"][key]["data"])
        model.write_text(json.dumps(doc))
        done = run_cli(tmp_path, "eval", "--model", str(model), "--data", str(data),
                       "--out", str(report))
        assert done.returncode == EXIT_DATA
        assert done.stderr == "data error: domain 0: the model's scores are not finite\n"
        assert not report.exists()

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


# perfbench's gradcheck command prints exactly these lines
GRADCHECK_SEED0_STDOUT = """\
block f_0: max relative error 2.003e-08 [ok]
block f_1: max relative error 9.074e-09 [ok]
block f_2: max relative error 2.625e-08 [ok]
block f_3: max relative error 1.063e-07 [ok]
block f_a: max relative error 8.743e-09 [ok]
block theta: max relative error 1.798e-09 [ok]
block u_0: max relative error 6.658e-11 [ok]
block u_1: max relative error 8.972e-10 [ok]
block u_2: max relative error 1.773e-09 [ok]
block u_3: max relative error 7.569e-10 [ok]
block u_a: max relative error 1.298e-10 [ok]
gradient check passed over 2 instance(s)
"""


class TestGradcheck:
    def test_stdout_is_pinned(self, capsys):
        assert main(["gradcheck", "--seed", "0", "--set", "instances=2"]) == EXIT_OK
        assert capsys.readouterr().out == GRADCHECK_SEED0_STDOUT

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


    def test_non_finite_differences_leave_one_stderr_line(self, tmp_path):
        # numpy's overflow and invalid-value warnings on the way to a
        # non-finite difference would only repeat the verdict
        done = run_cli(tmp_path, "gradcheck", "--set", "instances=1", "--set", "eps=1e300")
        assert done.returncode == EXIT_GRADCHECK
        assert done.stderr == ("gradient check FAILED for block(s): f_0, f_1, f_2, f_3, f_a, "
                               "theta, u_0, u_1, u_2, u_3, u_a\n")
        assert done.stdout.count("[FAIL]") == 11


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
    ("synth", "attr_dim"), ("synth", "classes"), ("synth", "domains"), ("synth", "l_max"),
    ("synth", "points_per_domain"),
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


def test_whole_draw_past_physical_memory_is_one_line_out_of_memory(tmp_path, capsys, monkeypatch):
    # 3 domains of 10**16 points fit numpy's largest array but no machine's
    # memory; the check comes before the first draw, so no draw may happen
    def no_draws(seed):
        raise AssertionError("synth drew before checking the whole draw")

    monkeypatch.setattr(dataset, "Rng", no_draws)
    out = tmp_path / "out"
    assert main(["synth", "--out", str(out), "--set", f"points_per_domain={10**16}"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("out of memory: ") and err.count("\n") == 1
    assert str(10**16) in err and "physical memory" in err
    assert not out.exists()


# rejections that end a run before any work, one row each: the command line
# (paths relative to a folder holding only data.json and an empty folder/),
# the exit code, and the key or path that the one stderr line names
@pytest.mark.parametrize("argv, code, named", [
    (["synth", "--out", "out.json", "--set", "foo"], EXIT_CONFIG, "'foo'"),
    (["synth", "--out", "out.json", "--config", "absent.cfg"], EXIT_CONFIG, "absent.cfg"),
    (["gradcheck", "--set", "instances=0"], EXIT_CONFIG, "instances"),
    (train_args("data.json", "m.json", "c.csv", ["--set", "max_iters=0"]), EXIT_CONFIG,
     "max_iters"),
    (train_args("data.json", "m.json", "c.csv", ["--set", "update_mode=x"]), EXIT_CONFIG,
     "update_mode"),
    (["synth", "--out", "out.json", "--set", "l_min=5", "--set", "l_max=3"], EXIT_CONFIG,
     "l_min=5"),
    (train_args("data.json", "folder", "c.csv"), EXIT_DATA, "cannot write folder"),
], ids=["set-without-equals", "missing-config-file", "zero-instances", "zero-max-iters",
        "unknown-update-mode", "l-min-above-l-max", "model-is-a-directory"])
def test_rejection_is_one_line_and_writes_nothing(argv, code, named, tmp_path, capsys,
                                                  monkeypatch):
    synth(tmp_path)
    (tmp_path / "folder").mkdir()
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and named in err, err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["data.json", "folder"]


# an empty output path names no file: rejected before any work, naming its key
@pytest.mark.parametrize("command, key", [("synth", "out"), ("train", "model_out"),
                                          ("train", "curve_out"), ("train", "report_out"),
                                          ("eval", "report_out")])
def test_empty_output_path_is_one_line_and_writes_nothing(command, key, tmp_path, capsys,
                                                          monkeypatch):
    monkeypatch.chdir(tmp_path)
    synth(tmp_path)
    if command == "eval":
        assert main(train_args("data.json", "m.json", "c.csv")) == EXIT_OK
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    argv = {
        "synth": ["synth", *SMALL_SYNTH],
        "train": ["train", "--set", "data=data.json", "--set", "model_out=m.json",
                  "--set", "curve_out=c.csv", "--set", "knn_k=1", "--set", "max_iters=5"],
        "eval": ["eval", "--set", "model=m.json", "--set", "data=data.json"],
    }[command]
    capsys.readouterr()
    assert main(argv + ["--set", f"{key}="]) == EXIT_DATA
    assert capsys.readouterr().err == f"data error: cannot write {key}: its path is empty\n"
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_importing_the_package_loads_no_submodule():
    # the package re-exports nothing: each name is imported from its module
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    code = "import sys, convtransfer; print([m for m in sys.modules if m.startswith('convtransfer.')])"
    r = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (r.returncode, r.stdout, r.stderr) == (0, "[]\n", "")


def test_unwritable_output_is_one_line_and_writes_nothing(tmp_path, capsys, monkeypatch):
    # os.access grants root every path, so the denial is simulated
    monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    out = tmp_path / "out.json"
    assert main(["synth", "--out", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "permission denied" in err, err
    assert not any(tmp_path.iterdir())


SWEEP_VALUES = ["0", "-1", "1", "1e-300", "1e300", "nan", "inf", "-0", "0.5", "", "x", "3.0",
                "1_0"]
# a small set and model keep the sweep's runs cheap: 2 domains of 8 points
SWEEP_SYNTH = ["--set", "points_per_domain=8", "--set", "domains=2", "--set", "feature_dim=2",
               "--set", "attr_dim=2"]
SWEEP_MODEL = ["--set", "m0=1", "--set", "mt=1", "--set", "ma=1", "--set", "knn_k=1",
               "--set", "max_iters=2"]


@pytest.fixture(scope="module")
def sweep_inputs(tmp_path_factory):
    """A dataset and a model trained on it, shared by the sweep."""
    folder = tmp_path_factory.mktemp("sweep")
    data, model = str(folder / "data.json"), str(folder / "model.json")
    assert main(["synth", "--out", data, *SWEEP_SYNTH]) == EXIT_OK
    assert main(["train", "--data", data, "--model", model, *SWEEP_MODEL,
                 "--set", f"curve_out={folder / 'c.csv'}"]) == EXIT_OK
    return data, model


# every key of every command, each set to every one of SWEEP_VALUES on top of
# a small run that succeeds; paths given through --set, which a later --set overrides
@pytest.mark.parametrize("command, key", [(c, k) for c in cli.SCHEMAS for k in cli.SCHEMAS[c]])
def test_any_set_value_exits_with_a_documented_code(command, key, sweep_inputs, tmp_path,
                                                    capsys, monkeypatch):
    data, model = sweep_inputs
    base = {
        "synth": ["synth", "--set", "out=out.json", *SWEEP_SYNTH],
        "train": ["train", "--set", f"data={data}", "--set", "model_out=m.json",
                  "--set", "curve_out=c.csv", *SWEEP_MODEL],
        "eval": ["eval", "--set", f"model={model}", "--set", f"data={data}"],
        "gradcheck": ["gradcheck", "--set", "instances=1"],
    }[command]
    for i, value in enumerate(SWEEP_VALUES):
        (tmp_path / str(i)).mkdir()
        monkeypatch.chdir(tmp_path / str(i))
        capsys.readouterr()
        rc = main(base + ["--set", f"{key}={value}"])
        err = capsys.readouterr().err
        assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_DIVERGED, EXIT_GRADCHECK), value
        assert rc == EXIT_OK or err.count("\n") == 1, (value, err)
