"""Byte pin of the CLI's outputs: each command below runs in-process, in one
temporary directory, and the SHA-256 digest of its exit code, stdout, stderr
and output files must equal the constant recorded for it.

The digests hold for the numpy version they were recorded with; on another
version the test skips, naming both. They also depend on the BLAS kernel
(ROADMAP item 2), as `TestGradcheck::test_stdout_is_pinned` does.
"""

import hashlib

import numpy as np
import pytest

from convtransfer.cli import main

NUMPY_VERSION = "2.4.6"

TRAIN = ["train", "--data", "data.json", "--seed", "0"]
JOINT = ["--set", "tau=5e-5", "--set", "max_iters=40"]
BLOCK_CYCLIC = ["--set", "tau=5e-5", "--set", "max_iters=4", "--set", "update_mode=block-cyclic",
                "--workers", "2"]

# name -> (argv, output files it writes), run in this order
COMMANDS = {
    "synth": (["synth", "--seed", "0", "--out", "data.json"], ["data.json"]),
    "train-joint": (TRAIN + ["--model", "joint.json", "--set", "curve_out=joint.csv",
                             "--out", "joint-report.json", *JOINT],
                    ["joint.json", "joint.csv", "joint-report.json"]),
    "train-block-cyclic": (TRAIN + ["--model", "bc.json", "--set", "curve_out=bc.csv",
                                    "--out", "bc-report.json", *BLOCK_CYCLIC],
                           ["bc.json", "bc.csv", "bc-report.json"]),
    # the CLI's default iteration count
    "train-default-iters": (TRAIN + ["--model", "d.json", "--set", "curve_out=d.csv",
                                     "--set", "tau=5e-5"], ["d.json", "d.csv"]),
    "eval": (["eval", "--model", "joint.json", "--data", "data.json", "--seed", "0",
              "--out", "eval.json"], ["eval.json"]),
    "gradcheck": (["gradcheck", "--seed", "0", "--set", "instances=2"], []),
    "synth-seed3": (["synth", "--seed", "3", "--out", "data3.json"], ["data3.json"]),
    # every default, which diverges on this seed: exit 4 and no output files
    "train-seed3-defaults": (["train", "--data", "data3.json", "--seed", "3", "--model", "m3.json",
                              "--set", "curve_out=c3.csv"], []),
    # one rejection for each of exits 2, 3 and 5, each on one stderr line
    "train-negative-tau": (TRAIN + ["--model", "r2.json", "--set", "curve_out=r2.csv",
                                    "--set", "tau=-1"], []),
    "eval-missing-model": (["eval", "--model", "missing.json", "--data", "data.json",
                            "--seed", "0"], []),
    "gradcheck-tiny-eps": (["gradcheck", "--seed", "0", "--set", "instances=1",
                            "--set", "eps=1e-300"], []),
}

DIGESTS = {
    "synth": "a98b0dcbc5a519e76a4a16e8e5a49de2eb0acec353198f86242b24c06fc04d66",
    "train-joint": "587416f348659b59b52bd3d73d96323ee8ee90aeffabbde07c5a7c4db0fed634",
    "train-block-cyclic": "bdf6aaae2618074cdc402623a3720912ab7683ba1ad231401c9ec5738afbe90c",
    "train-default-iters": "327664f5d84c49857b2c5469ef556a6da2c374f081d3bd5ad429662262a8f706",
    "eval": "8ba380d2995a3db4033152d92ab1f6057da79aa607cf2280fe4cf256f2026e57",
    "gradcheck": "1e1bab8fde60a74b6b52184a62083e93887a2eb011024abbb603b8633acce7b5",
    "synth-seed3": "47aa5afb987265979847f821df174c3b7d436f2a4235b6994d4106f376de6efd",
    "train-seed3-defaults": "1be554a69bb27e6798bfe35457a675f0bcc6eecd85b232052d23e603257ce4a1",
    "train-negative-tau": "3225d0784cb3eef18d34fe391ba2d9fa7b6e2c141a0fd1fa5e62fbc4d5b1327f",
    "eval-missing-model": "1c9b188bfb487a9ecac9c16e0c431e7a5988dc085772fe9a1d8a8bfcee59dbfa",
    "gradcheck-tiny-eps": "f6ff32b98ba0a99de18bb729bc8f68134e6d5af3d4df2a16400f5d784f94e0b7",
}


def test_outputs_match_recorded_digests(tmp_path, capsys, monkeypatch):
    if np.__version__ != NUMPY_VERSION:
        pytest.skip(f"digests recorded with numpy {NUMPY_VERSION}, running numpy {np.__version__}")
    monkeypatch.chdir(tmp_path)
    got = {}
    for name, (argv, files) in COMMANDS.items():
        capsys.readouterr()
        rc = main(argv)
        out, err = capsys.readouterr()
        h = hashlib.sha256(f"{rc}\0{out}\0{err}".encode())
        for f in files:
            h.update(b"\0" + (tmp_path / f).read_bytes())
        got[name] = h.hexdigest()
    assert got == DIGESTS
    assert not any((tmp_path / f).exists() for f in ("m3.json", "r2.json", "r2.csv"))
