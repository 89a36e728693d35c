"""The names perfbench/ depends on: its command lines parse, and every
function its tracer wraps exists where the tracer looks for it."""

import importlib
import os
import sys

import pytest

from convtransfer import cli

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

import run as bench  # noqa: E402
import tracer  # noqa: E402


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_every_benchmark_command_line_parses(workload, tmp_path, monkeypatch):
    issued = []
    monkeypatch.setattr(bench, "cli", lambda args, cwd: issued.append(args))
    wl = bench.Workload(workload, 0, str(tmp_path))
    wl.prepare()
    issued.append(wl.command())
    for argv in issued:
        args = cli.make_parser().parse_args(argv)
        cli.build_config(args.command, args)


def test_every_traced_function_resolves():
    for name in tracer.ENTRY + tracer.LAYERS:
        module, function = name.split(".")
        assert callable(getattr(importlib.import_module(f"convtransfer.{module}"), function)), name
