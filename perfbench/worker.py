"""Timed rounds of one benchmark workload, in a process of its own.

run.py starts this file with BLAS and the CLI thread pool pinned to one
thread.  It runs the workload's operations in whole rounds until the next
round would overrun --seconds (at least one round), keeps every output for
run.py to check, and writes a JSON summary to <out>/worker.json.

With --trace 1 the first round runs untraced and every later round runs under
tracer.Tracer, so the tracing overhead is the difference of the two.

With --setup-probe it only imports the package, warms it up and prints the
seconds that took: run.py starts it several times to measure setup_s.
"""
T_START = __import__("time").perf_counter()  # before the package import that setup_s covers

import argparse
import json
import os
import resource
import shutil
import sys
import time

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np

import kickedtop
from kickedtop import cli, effective, floquet, landscape, protocol, spin

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import tracer  # noqa: E402  (the benchmark's own module, beside this file)

P = 0.1
KAPPA = 0.2

# Workload sizes.  "full" is what BENCHMARK.json runs; "quick" is the reduced
# size selfcheck.py pushes through the same checks in a few seconds.
SIZES = {
    "full": {
        "j_point": 40.0, "K": 700, "points": 40, "n_max": 400,
        "j_large": 500.0,
        "j_sweep": 200.0, "kappa_sweep": "0.0:0.3:0.02",
        "j_doqs": 40.0, "nodes": 16,
    },
    "quick": {
        "j_point": 40.0, "K": 400, "points": 6, "n_max": 400,
        "j_large": 30.0,
        "j_sweep": 20.0, "kappa_sweep": "0.0:0.3:0.1",
        "j_doqs": 40.0, "nodes": 4,
    },
}


def warm_up():
    """First calls into the LAPACK paths every workload uses."""
    ops = spin.build_operators(spin.SpinSystem(2.0))
    par = floquet.KickedTopParams(p=P, kappa=KAPPA)
    floquet.diagonalize_floquet(floquet.build_floquet(ops, par), par.T)
    effective.effective_spectrum(effective.build_effective_hamiltonian(ops, par), par)


def _timed(ops, name, fn):
    t0 = time.perf_counter()
    try:
        value = fn()
        error = None
    except Exception as exc:  # the operation is counted as failed, the round goes on
        value, error = None, f"{type(exc).__name__}: {exc}"
    ops.append({"name": name, "seconds": time.perf_counter() - t0, "error": error})
    return value


def _cli(ops, name, argv):
    rc = _timed(ops, name, lambda: cli.run(argv))
    if rc not in (0, None) and ops[-1]["error"] is None:
        ops[-1]["error"] = f"exit code {rc}"


# -- workloads --------------------------------------------------------------
# Each round function runs one round's operations, appends one record per
# operation to `ops`, and leaves its outputs in `out` (files or the returned
# dict of arrays).  Nothing that only the checks need is computed here.

def paper_point(size, out, ops, prep):
    j = _fmt(size["j_point"])
    base = ["--j", j, "--p", _fmt(P), "--kappa", _fmt(KAPPA)]
    _cli(ops, "critical", ["critical", *base, "--out", f"{out}/critical.csv"])
    _cli(ops, "spectrum", ["spectrum", *base, "--out", f"{out}/spectrum.csv"])
    _cli(ops, "doqs", ["doqs", *base, "--n-max", str(size["n_max"]), "--out", f"{out}/doqs.csv"])
    _cli(ops, "protocol", ["protocol", *base, "--K", str(size["K"]), "--points", str(size["points"]),
                           "--branch", "both", "--out", f"{out}/protocol.csv"])
    return {}


def large_j(size, out, ops, prep):
    j = size["j_large"]
    _cli(ops, "spectrum", ["spectrum", "--j", _fmt(j), "--p", _fmt(P), "--kappa", _fmt(KAPPA),
                           "--out", f"{out}/spectrum.csv"])
    par = floquet.KickedTopParams(p=P, kappa=KAPPA)
    res = {}

    def study_spectrum():
        o = spin.build_operators(spin.SpinSystem(j))
        return o, floquet.diagonalize_floquet(floquet.build_floquet(o, par), par.T)

    got = _timed(ops, "floquet_spectrum", study_spectrum)
    if got is None:
        return res
    o, spec = got
    res.update(eps=spec.quasienergies, modes=spec.modes)

    def study_effective():
        h = effective.build_effective_hamiltonian(o, par)
        return h, effective.effective_spectrum(h, par)

    got = _timed(ops, "effective_spectrum", study_effective)
    if got is None:
        return res
    h, eff = got
    res.update(unfolded=eff.unfolded, folded=eff.folded)
    rep = _timed(ops, "match_spectra", lambda: effective.match_spectra(spec, eff))
    if rep is not None:
        res.update(pairing=rep.pairing, match_max=rep.max_circular_distance,
                   match_mean=rep.mean_circular_distance)
    mm = _timed(ops, "magnetization", lambda: protocol.mode_magnetization(spec, o, h))
    if mm is not None:
        res.update(energies=mm.energies, magnetizations=mm.magnetizations)
    return res


def kappa_sweep(size, out, ops, prep):
    _cli(ops, "sweep", ["sweep", "--j", _fmt(size["j_sweep"]), "--p", _fmt(P),
                        "--kappa-sweep", size["kappa_sweep"], "--out", f"{out}/sweep.csv"])
    return {}


def pointwise_doqs(size, out, ops, prep):
    par = floquet.KickedTopParams(p=P, kappa=KAPPA)
    j = size["j_doqs"]
    values = np.full(len(prep["nodes"]), np.nan)
    for i, x in enumerate(prep["nodes"]):
        curve = _timed(ops, "analytic_doqs", lambda: landscape.analytic_doqs(par, j, np.array([x])))
        if curve is not None:
            values[i] = curve.rho[0]
    return {"values": values}


def pointwise_prep(size, seed):
    """Quadrature of the zone, cut at a seeded point and at every critical
    quasienergy, with size["nodes"] Gauss-Legendre nodes per interval.

    The critical energies come from the program once, before any timing; the
    seed only draws where the circle is cut, which the integral does not
    depend on.
    """
    par = floquet.KickedTopParams(p=P, kappa=KAPPA)
    omega = par.omega
    crit = landscape.find_critical_points(par, size["j_doqs"])
    levels = []
    for e in sorted(c.eps_folded for c in crit.points):
        if not levels or e - levels[-1] > 1e-9:
            levels.append(e)
    rng = np.random.default_rng(seed)
    while True:
        cut = rng.uniform(-0.5 * omega, 0.5 * omega)
        if min(abs(effective.fold_quasienergy(cut - e, omega)) for e in levels) > 1e-3:
            break
    edges = np.sort([cut + np.mod(e - cut, omega) for e in levels] + [cut, cut + omega])
    x, w = np.polynomial.legendre.leggauss(size["nodes"])
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        nodes.append(0.5 * (a + b) + 0.5 * (b - a) * x)
        weights.append(0.5 * (b - a) * w)
    nodes = effective.fold_quasienergy(np.concatenate(nodes), omega)
    return {"cut": float(cut), "levels": levels, "nodes": nodes, "weights": np.concatenate(weights)}


WORKLOADS = {
    "paper-point": (paper_point, None),
    "large-j": (large_j, None),
    "kappa-sweep": (kappa_sweep, None),
    "pointwise-doqs": (pointwise_doqs, pointwise_prep),
}


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--setup-probe", action="store_true")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--out", help="directory for outputs, relative to the checkout root")
    args = ap.parse_args(argv)

    warm_up()
    if args.setup_probe:
        print(json.dumps({"setup_s": time.perf_counter() - T_START,
                          "package": os.path.abspath(kickedtop.__file__)}))
        return 0

    size = SIZES[args.size]
    body, prep_fn = WORKLOADS[args.workload]
    prep = prep_fn(size, args.seed) if prep_fn else {}
    os.makedirs(args.out, exist_ok=True)
    trace = tracer.Tracer() if args.trace else None

    rounds = []
    start = time.perf_counter()
    while True:
        k = len(rounds)
        traced = trace is not None and k > 0
        if traced and k == 1:
            trace.install()
        ops: list = []
        mark = trace.mark() if traced else None
        t0 = time.perf_counter()
        arrays = body(size, args.out, ops, prep)
        wall = time.perf_counter() - t0
        rec = {"round": k, "traced": traced, "wall_s": wall, "ops": ops}
        if traced:
            rec["layers"] = trace.summary(mark, wall)
        # keep this round's outputs apart from the next round's, outside the timing
        rdir = os.path.join(args.out, f"round-{k}")
        os.makedirs(rdir)
        for name in os.listdir(args.out):
            if name.endswith(".csv"):
                shutil.move(os.path.join(args.out, name), os.path.join(rdir, name))
        if arrays:
            np.savez(os.path.join(rdir, "arrays.npz"), **arrays)
        rounds.append(rec)
        elapsed = time.perf_counter() - start
        if elapsed + wall > args.seconds and not (trace is not None and k == 0):
            break
    if trace is not None:
        trace.uninstall()
        trace.write(os.path.join(args.out, "trace.json"))

    summary = {
        "workload": args.workload,
        "size": size,
        "p": P,
        "kappa": KAPPA,
        "prep": {k: (v.tolist() if isinstance(v, np.ndarray) else v) for k, v in prep.items()},
        "rounds": rounds,
        "peak_rss_mb": _peak_rss_mb(),
        "machine": machine_context(),
    }
    with open(os.path.join(args.out, "worker.json"), "w") as fh:
        json.dump(summary, fh)
    return 0


def _blas_threads() -> dict:
    """Thread count of every OpenBLAS the process has loaded, asked of the
    library itself."""
    import ctypes

    found = {}
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return found
    for path in paths:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def machine_context() -> dict:
    import importlib.util
    import platform

    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "numba": importlib.util.find_spec("numba") is not None,
        "kernels_jit": bool(kickedtop._kernels.USING_NUMBA),
        "KICKEDTOP_WORKERS": cli._workers(),
    }


if __name__ == "__main__":
    sys.exit(main())
