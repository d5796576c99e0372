"""Spans around the calls into each module of the kickedtop package, recorded
from outside the package.

install() wraps every public function (the module's __all__) of the layers
below in every kickedtop namespace that binds it: cli, protocol and landscape
import functions by name, so wrapping only the defining module would miss
their calls.  Generator functions are left alone (their work runs in the
caller's frame), and so is the per-point _kernels.qel_ambient, which is not in
__all__ and is called some 10^5 times per critical-point search.

Spans stay in memory with their parents and are written out by write().
A span's self time is its duration minus the part of it that its child spans
cover.
"""
import importlib
import inspect
import json
import os
import sys
import threading
import time

import numpy as np

# module of kickedtop -> layer name used in metric names (a metric name must
# start with a letter, so _kernels reports as "kernels")
LAYERS = {
    "spin": "spin",
    "floquet": "floquet",
    "effective": "effective",
    "landscape": "landscape",
    "doqs": "doqs",
    "protocol": "protocol",
    "_kernels": "kernels",
    "cli": "cli",
}


def _out_bytes(argv) -> int:
    argv = list(argv or ())
    if "--out" not in argv:
        return 0
    path = argv[argv.index("--out") + 1]
    return os.path.getsize(path) if os.path.exists(path) else 0


# counts taken from the arguments and return value of one call
COUNTERS = {
    "protocol.time_averaged_observable": lambda a, r: {
        "protocol.time_averaged_observable.steps": a["steps"]},
    "kernels.orbit_mean_x": lambda a, r: {
        "kernels.orbit_mean_x.steps": a["r0"].shape[0] * a["steps"]},
    "landscape.find_critical_points": lambda a, r: {
        "landscape.find_critical_points.points": len(r.points)},
    "kernels.newton_refine": lambda a, r: {
        "kernels.newton_refine.seeds": a["seeds"].shape[0],
        "kernels.newton_refine.converged": int(np.count_nonzero(r[1]))},
    "kernels.trace_series_rho": lambda a, r: {
        "kernels.trace_series_rho.terms": a["tn"].shape[0] * a["grid"].shape[0]},
    "cli.run": lambda a, r: {"cli.csv_bytes": _out_bytes(a["argv"])},
}


class Tracer:
    def __init__(self):
        # (id, parent id or -1, name, start, end, counts), appended when a span ends
        self.spans = []
        self.rounds = []  # (first span index, wall_s) per summarized round
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._local = threading.local()
        self._owner_stack = []  # open spans of the thread that installed the tracer
        self._patched = []  # (module, attribute, original)

    # -- wrapping ---------------------------------------------------------
    def install(self):
        self._local.stack = self._owner_stack
        wrappers = {}
        for mod, layer in LAYERS.items():
            module = importlib.import_module(f"kickedtop.{mod}")
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn):
                    wrappers[fn] = self._wrap(fn, f"{layer}.{name}")
        for modname, module in list(sys.modules.items()):
            if modname != "kickedtop" and not modname.startswith("kickedtop."):
                continue
            for attr, val in list(vars(module).items()):
                if inspect.isfunction(val) and val in wrappers:
                    setattr(module, attr, wrappers[val])
                    self._patched.append((module, attr, val))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name):
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                # a pool thread of the CLI: its spans belong to the span the
                # installing thread has open while it waits for the pool
                parent = tracer._owner_stack[-1] if tracer._owner_stack else -1
            with tracer._id_lock:
                sid = tracer._next_id
                tracer._next_id += 1
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.spans.append((sid, parent, name, t0, time.perf_counter(), {}))
                raise
            finally:
                stack.pop()
            t1 = time.perf_counter()
            counts = counter(sig.bind(*args, **kwargs).arguments, result) if counter else {}
            tracer.spans.append((sid, parent, name, t0, t1, counts))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    # -- results ----------------------------------------------------------
    def mark(self) -> int:
        return len(self.spans)

    def summary(self, mark: int, wall: float) -> dict:
        """Per-function calls, self seconds and counts, per-layer self
        seconds, and the round's untraced remainder, for the spans recorded
        since mark."""
        self.rounds.append((mark, wall))
        spans = self.spans[mark:]
        children = {}
        for sid, parent, _, t0, t1, _ in spans:
            children.setdefault(parent, []).append((t0, t1))
        out = {}
        layer_self = {layer: 0.0 for layer in LAYERS.values()}
        for sid, _, name, t0, t1, counts in spans:
            own = (t1 - t0) - _covered(children.get(sid, ()), t0, t1)
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + own
            layer_self[name.split(".")[0]] += own
            for key, val in counts.items():
                out[key] = out.get(key, 0) + int(val)
        for layer, own in layer_self.items():
            out[f"{layer}.self_s"] = own
        out["trace.wall_s"] = wall
        out["trace.untraced_s"] = wall - sum(layer_self.values())
        return out

    def write(self, path: str):
        bounds = [m for m, _ in self.rounds] + [len(self.spans)]
        doc = {
            "rounds": [
                {"wall_s": wall, "spans": [
                    {"id": s[0], "parent": s[1], "name": s[2], "start": s[3], "end": s[4],
                     "counts": s[5]}
                    for s in self.spans[bounds[i]:bounds[i + 1]]]}
                for i, (_, wall) in enumerate(self.rounds)
            ]
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total
