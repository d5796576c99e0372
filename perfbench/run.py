"""Benchmark of the kickedtop pipeline, one workload per invocation.

    python3 perfbench/run.py --workload paper-point --seed 1 --seconds 15 --trace 0

Run from the root of a checkout: the package is imported from its src/.
The workload runs in a worker process of its own (worker.py) with BLAS and
the CLI's thread pool pinned to one thread; set-up is measured in three more
processes.  Every output is checked (checks.py) and a failed check counts
its operation as failed.  Progress lines go first; the last line of standard
output is one JSON object with correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics of the traced
rounds with --trace 1.  Outputs land in perfbench/out/<workload>/.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

# One thread everywhere, set before numpy loads here and inherited by the
# worker: the CSV bytes are only reproducible at a fixed BLAS thread count.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "KICKEDTOP_WORKERS": "1"}
os.environ.update(PINNED)

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0  # the whole invocation, set-up and checks included

# operation whose time a workload reports under the paper's stage names
STAGES = {
    "paper-point": {"critical": "critical_s", "spectrum": "spectrum_s", "doqs": "doqs_s",
                    "protocol": "protocol_s"},
    "large-j": {"spectrum": "spectrum_s", "floquet_spectrum": "floquet_spectrum_s",
                "effective_spectrum": "effective_spectrum_s", "match_spectra": "match_spectra_s",
                "magnetization": "magnetization_s"},
    "kappa-sweep": {"sweep": "sweep_s"},
    "pointwise-doqs": {"analytic_doqs": "analytic_doqs_s"},
}
RATES = {"kappa-sweep": "sweep_spectra_per_s", "pointwise-doqs": "doqs_evals_per_s"}


def _spec():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _left(t_start):
    return DEADLINE_S - (time.perf_counter() - t_start)


def main(argv=None):
    t_start = time.perf_counter()
    ap = argparse.ArgumentParser(description="Benchmark of the kickedtop pipeline.")
    ap.add_argument("--workload", required=True, choices=sorted(STAGES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "quick"), default="full",
                    help="quick: reduced sizes, for selfcheck.py")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "kickedtop", "__init__.py")):
        return _fail(f"no src/kickedtop under {root}: run from the root of a kickedtop checkout")
    sys.path.insert(0, os.path.join(root, "src"))
    spec = _spec()

    out = os.path.join("perfbench", "out", args.workload)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)

    # set-up: package import plus first-call warm-up, each in a fresh process
    setup = []
    for _ in range(SETUP_SAMPLES):
        try:
            proc = subprocess.run([sys.executable, WORKER, "--setup-probe"], capture_output=True,
                                  text=True, timeout=max(_left(t_start), 1.0))
        except subprocess.TimeoutExpired:
            return _fail("set-up probe timed out")
        if proc.returncode != 0:
            return _fail(f"set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        if not probe["package"].startswith(os.path.join(root, "src") + os.sep):
            return _fail(f"imported kickedtop from {probe['package']}, not from this checkout")
        setup.append(probe["setup_s"])

    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size,
           "--out", out]
    try:
        # the CLI prints tables; only worker.json carries results
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=max(_left(t_start) - 20, 1.0))
    except subprocess.TimeoutExpired:
        return _fail("worker timed out")
    if proc.returncode != 0:
        return _fail(f"worker exited with {proc.returncode}")
    with open(os.path.join(out, "worker.json")) as fh:
        summary = json.load(fh)

    import checks

    verdicts = checks.check(summary, out)
    rounds = summary["rounds"]
    attempted = sum(len(ops) for _, ops in verdicts)
    failed = 0
    for k, ops in verdicts:
        for name, reasons in ops:
            if reasons:
                failed += 1
                print(f"FAILED round {k} {name}: {'; '.join(reasons)}")
    for k, _ in verdicts:
        shutil.rmtree(os.path.join(out, f"round-{k}"), ignore_errors=True)

    timed = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    per_round = attempted // len(rounds)
    wall = statistics.median(r["wall_s"] for r in timed)
    stages = {}
    for op, label in STAGES[args.workload].items():
        totals = [sum(o["seconds"] for o in r["ops"] if o["name"] == op) for r in timed]
        stages[label] = statistics.median(totals)
    if args.workload in RATES:
        stages[RATES[args.workload]] = per_round / wall
    e2e = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "ops_per_s": per_round / wall,
        "peak_rss_mb": summary["peak_rss_mb"],
    }

    print("machine " + json.dumps(summary["machine"], sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds "
          f"({len(traced)} traced), {attempted} operations attempted, {failed} failed")
    for label, val in stages.items():
        unit = "1/s" if label.endswith("_per_s") else "s"
        print(f"stage {label} {val:.6g} {unit} (median of {len(timed)} untraced rounds)")

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        metrics = _per_layer(traced, wall, [m["name"] for m in spec["per_layer"]])
    else:
        metrics = e2e
    for name, val in metrics.items():
        print(f"metric {name} {val:.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": val, "unit": units[name]} for name, val in metrics.items()},
    }
    with open(os.path.join(out, "result.json"), "w") as fh:
        json.dump({**result, "stages": stages, "end_to_end": e2e, "setup_samples": setup,
                   "machine": summary["machine"], "seed": args.seed}, fh, indent=1)
    print(json.dumps(result))
    return 0


def _per_layer(traced, untraced_wall, names):
    """The layer metrics of the traced round of median wall time, and the
    tracing overhead.

    All values come from one round, so the layers' self times and the
    untraced remainder add up to trace.wall_s exactly.  The counts repeat in
    every round; a count that does not is reported.
    """
    layers = [r["layers"] for r in sorted(traced, key=lambda r: r["wall_s"])]
    median = layers[(len(layers) - 1) // 2]
    out = {}
    for name in names:
        vals = [lay.get(name, 0) for lay in layers]
        if not name.endswith("_s") and len(set(vals)) != 1:
            print(f"warning: count {name} differs between traced rounds: {vals}")
        out[name] = median.get(name, 0)
    out["trace.overhead_s"] = out["trace.wall_s"] - untraced_wall
    return out


if __name__ == "__main__":
    sys.exit(main())
