"""End-to-end tests for the command-line interface."""

import json

import numpy as np
import pytest

from convtransfer import cli
from convtransfer.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_DIVERGED,
    EXIT_OK,
    main,
)
from convtransfer.dataset import (
    ROLE_TEST,
    ROLE_UNLABELED,
    build_neighbor_graph,
    load_dataset,
    save_dataset,
    split_target,
    training_view,
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

    def test_invalid_value_is_config_error(self, capsys):
        rc = main(["synth", "--out", "/tmp/x.json", "--set", "classes=0"])
        assert rc == EXIT_CONFIG
        assert "classes" in capsys.readouterr().err


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

    def test_invalid_train_value_is_config_error(self, tmp_path, capsys):
        data = synth(tmp_path)
        rc = main(train_args(data, tmp_path / "m.json", tmp_path / "c.csv",
                             ["--set", "init_range=-1"]))
        assert rc == EXIT_CONFIG
        assert "init_range" in capsys.readouterr().err

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
        view = training_view(seen["data"]).target
        assert [p.x.tobytes() for p in view] == [p.x.tobytes() for p in train_points]
        assert seen["graph"] == build_neighbor_graph(train_points, 5)

        evaled = tmp_path / "eval.json"
        assert main(["eval", "--model", str(tmp_path / "m.json"), "--data", str(path),
                     "--seed", "0", "--out", str(evaled)]) == EXIT_OK
        assert (json.loads(evaled.read_text())["per_domain_accuracy"]
                == json.loads(report.read_text())["per_domain_accuracy"])

    def test_tagged_file_without_labeled_target_is_data_error(self, tmp_path, capsys):
        data = synth(tmp_path)
        ds = load_dataset(str(data))
        for i, p in enumerate(ds.target):
            p.role = ROLE_TEST if i % 2 else ROLE_UNLABELED
        save_dataset(ds, str(data))
        rc = main(train_args(data, tmp_path / "m.json", tmp_path / "c.csv"))
        assert rc == EXIT_DATA
        assert "labeled target point" in capsys.readouterr().err

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


class TestGradcheck:
    def test_passes_and_reports_blocks(self, capsys):
        rc = main(["gradcheck", "--seed", "0", "--set", "instances=1"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "block theta:" in out
        assert "passed" in out
