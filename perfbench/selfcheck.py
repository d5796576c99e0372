"""Quick self-check of the benchmark harness.

    python3 perfbench/selfcheck.py        # from the root of a checkout, under a minute

Runs every workload at the reduced "quick" size through run.py, untraced and
traced, and requires correct results, no failed operation and exactly the
metrics BENCHMARK.json names.  Then it corrupts one output of each workload
by a small amount and requires the checks to fail that operation, so a check
that passes everything is caught too.  Exits 1 on the first problem.
"""
import json
import os
import shutil
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
import checks  # noqa: E402  (beside this file)

WORKLOADS = ("paper-point", "large-j", "kappa-sweep", "pointwise-doqs")


def _shift_first_exact(path, delta=1e-6):
    with open(path) as fh:
        lines = fh.readlines()
    for i, ln in enumerate(lines):
        if ",exact," in ln:
            head, _, val = ln.rstrip("\n").rpartition(",")
            lines[i] = f"{head},{float(val) + delta!r}\n"
            break
    with open(path, "w") as fh:
        fh.writelines(lines)


def _edit_arrays(path, key, fn):
    with np.load(path) as z:
        arrays = {k: z[k] for k in z.files}
    arrays[key] = fn(arrays[key])
    np.savez(path, **arrays)


# workload -> (corruption of round 0's outputs, operation that must then fail)
CORRUPTIONS = {
    "paper-point": (lambda d: _shift_first_exact(f"{d}/spectrum.csv"), "spectrum"),
    "large-j": (lambda d: _edit_arrays(f"{d}/arrays.npz", "magnetizations", lambda a: a + 1e-6),
                "magnetization"),
    "kappa-sweep": (lambda d: _shift_first_exact(f"{d}/sweep.csv"), "kappa=0"),
    "pointwise-doqs": (lambda d: _edit_arrays(f"{d}/arrays.npz", "values",
                                              lambda a: a * (1 + 1e-9)), "node-3"),
}


def fail(message):
    print(f"selfcheck FAILED: {message}")
    sys.exit(1)


def main():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    want = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    for wl in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl, "--seed", "7",
                   "--seconds", "0", "--trace", str(trace), "--size", "quick"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
            if proc.returncode != 0:
                fail(f"{wl} trace={trace} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                fail(f"{wl} trace={trace}: {res['attempted']} attempted, {res['failed']} failed:\n"
                     + proc.stdout)
            if set(res["metrics"]) != want[trace]:
                fail(f"{wl} trace={trace}: metrics {sorted(set(res['metrics']) ^ want[trace])} "
                     "differ from BENCHMARK.json")
            print(f"ok {wl} trace={trace}: {res['attempted']} operations checked")

        out = os.path.join("perfbench", "out", f"selfcheck-{wl}")
        shutil.rmtree(out, ignore_errors=True)
        subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), "--workload", wl,
                        "--seed", "7", "--seconds", "0", "--size", "quick", "--out", out],
                       stdout=subprocess.DEVNULL, check=True, timeout=170)
        with open(os.path.join(out, "worker.json")) as fh:
            summary = json.load(fh)
        corrupt, victim = CORRUPTIONS[wl]
        corrupt(os.path.join(out, "round-0"))
        (_, ops), = checks.check(summary, out)
        failed = {name for name, reasons in ops if reasons}
        if victim not in failed:
            fail(f"{wl}: corrupted output of {victim} passed its checks")
        shutil.rmtree(out)
        print(f"ok {wl}: corrupted {victim} is caught")
    print("selfcheck passed")


if __name__ == "__main__":
    main()
