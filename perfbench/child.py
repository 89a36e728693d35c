"""Run one convtransfer CLI command in this process, with timing wrappers.

    python3 perfbench/child.py RECORD TRACE -- <convtransfer CLI arguments>

Imports the package from the checkout's `src/`, installs the wrappers of
`tracer.ENTRY` (TRACE=0) or `tracer.LAYERS` (TRACE=1), runs `cli.main` and
writes a JSON record to RECORD: the per-boundary statistics and the
process's peak resident memory. Exits with the CLI's exit code.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def peak_rss_kb() -> int:
    # VmHWM belongs to this process image, unlike ru_maxrss, which also
    # carries the high-water mark of the parent that spawned it.
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main(argv) -> int:
    record_path, trace, sep, *cli_args = argv
    if sep != "--" or trace not in ("0", "1"):
        raise SystemExit("usage: child.py RECORD TRACE -- <cli arguments>")
    sys.path.insert(0, SRC)
    import convtransfer.cli as cli
    import tracer

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"convtransfer was imported from {cli.__file__}, not from {SRC}")
    t = tracer.Tracer(tracer.LAYERS if trace == "1" else tracer.ENTRY)
    t.install()
    code = cli.main(cli_args)
    record = {"boundaries": t.snapshot(), "peak_rss_kb": peak_rss_kb()}
    with open(record_path, "w") as f:
        json.dump(record, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
