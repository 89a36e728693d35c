"""Timing wrappers around the public functions of the convtransfer modules.

A boundary is one function, named `<module>.<function>` after the module that
defines it. `Tracer.install` replaces that function in every convtransfer
module namespace that holds it by name (`model.conv_forward`,
`objective.represent`, `cli.train`, ...), so calls made through any import
path are counted. Each wrapper records, per thread:

- calls: number of completed calls,
- s: inclusive time, summed over calls,
- self_s: inclusive time minus the time of wrapped calls nested inside it,
- first: `time.monotonic()` at the first entry (comparable across processes
  on one machine, which is how the harness measures set-up time).

With worker threads, `s` sums over threads and may exceed wall time; a
caller blocked on a pool keeps the pool's time in its own `self_s`.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

# Entry points of the CLI's main loops. Set-up time ends at the first call
# into any of them; the harness derives the work rate from their times.
ENTRY = (
    "objective.train",
    "objective.evaluate",
    "gradcheck.random_smooth_instance",
    "gradcheck.gradient_check",
)

# Every boundary the traced run reports.
LAYERS = (
    "convnet.conv_forward",
    "convnet.conv_backward",
    "numeric.as_matrix",
    "model.represent",
    "model.classify",
    "model.init_params",
    "model.load_params",
    "model.save_params",
    "objective.objective",
    "objective.gradient",
    "objective.evaluate",
    "objective.train",
    "objective.write_trajectory_csv",
    "dataset.load_dataset",
    "dataset.split_target",
    "dataset.build_neighbor_graph",
    "gradcheck.is_smooth",
    "gradcheck.random_smooth_instance",
    "gradcheck.finite_diff_block",
    "gradcheck.gradient_check",
)

PACKAGE = "convtransfer"


class _ThreadState(threading.local):
    def __init__(self, registry: list):
        self.child = []   # per open span: time covered by its wrapped children
        self.stats = {}   # boundary -> [calls, s, self_s, first]
        registry.append(self.stats)


class Tracer:
    """Installs and removes the wrappers; merges per-thread statistics."""

    def __init__(self, boundaries):
        self.boundaries = tuple(boundaries)
        self._registry: list[dict] = []
        self._local = _ThreadState(self._registry)
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for boundary in self.boundaries:
            mod_name, fn_name = boundary.split(".")
            home = sys.modules[f"{PACKAGE}.{mod_name}"]
            original = getattr(home, fn_name)
            wrapper = self._wrap(boundary, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, boundary: str, fn):
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child = local.child
            stats = local.stats
            if boundary not in stats:
                stats[boundary] = [0, 0.0, 0.0, time.monotonic()]
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                nested = child.pop()
                if child:
                    child[-1] += dt
                rec = stats[boundary]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - nested

        return wrapper

    def snapshot(self) -> dict[str, dict]:
        """Statistics merged over threads, one entry per boundary."""
        out = {b: {"calls": 0, "s": 0.0, "self_s": 0.0, "first": None}
               for b in self.boundaries}
        for stats in list(self._registry):
            for boundary, (calls, s, self_s, first) in list(stats.items()):
                rec = out[boundary]
                rec["calls"] += calls
                rec["s"] += s
                rec["self_s"] += self_s
                if rec["first"] is None or first < rec["first"]:
                    rec["first"] = first
        return out
