"""Correctness checks of the benchmark's outputs, one set per workload.

Every check compares an output with a computation made apart from the
program (the Floquet operator from scipy.linalg.expm, trace identities, the
landscape maximized by scipy.optimize) or with a property the method must
have (sum rules, closed-form critical energies).  None compares with a stored
copy of an earlier output.

check(summary, out_dir) returns, per round, the list of operations with the
reasons each one failed (an empty list when it passed).
"""
import os

import numpy as np
from scipy.linalg import expm
from scipy.optimize import minimize

# -- independent constructions ----------------------------------------------


def fold(e, omega=2.0 * np.pi):
    return np.mod(np.asarray(e) + 0.5 * omega, omega) - 0.5 * omega


def _m_values(j):
    return j - np.arange(int(round(2 * j)) + 1)


def kick_oracle(j, p):
    """exp(-i p J_x) by scipy.linalg.expm.

    J_x = D J_y D^dag with D = diag(i^m), and -i J_y = -(J_+ - J_-)/2 is real,
    so the exponential is taken of a real matrix, four times cheaper than the
    complex one at j = 500.
    """
    m = _m_values(j)
    c = np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1))
    a = np.diag(c, 1)  # <m+1|J_+|m>, basis m = j..-j
    rot = expm(-0.5 * p * (a - a.T))
    d = np.exp(0.5j * np.pi * m)
    return (d[:, None] * rot) * d.conj()[None, :]


def twist_phases(j, kappa):
    m = _m_values(j)
    return np.exp(-1j * (kappa / (2.0 * j)) * m**2)


def trace_h_eff(j, kappa):
    """Tr H_E: the off-diagonal part is traceless, the diagonal is (kappa/2j) m^2."""
    return kappa / (2.0 * j) * np.sum(_m_values(j) ** 2)


def landscape_energy(theta, phi, p, kappa):
    x, y, z = np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)
    t = 0.5 * kappa * z
    h = np.where(np.abs(t) < 1e-8, 1.0, t / np.tan(np.where(np.abs(t) < 1e-8, 1.0, t)))
    return 0.5 * kappa * z * z + p * x * h - 0.5 * kappa * p * z * y


def landscape_max(p, kappa):
    """Largest E_G on the sphere: grid search refined by Nelder-Mead."""
    th, ph = np.meshgrid(np.linspace(0.01, np.pi - 0.01, 200), np.linspace(0, 2 * np.pi, 400))
    e = landscape_energy(th, ph, p, kappa)
    k = np.unravel_index(np.argmax(e), e.shape)
    res = minimize(lambda v: -landscape_energy(v[0], v[1], p, kappa), [th[k], ph[k]],
                   method="Nelder-Mead", options={"xatol": 1e-12, "fatol": 1e-15, "maxiter": 4000})
    return -res.fun


def circle_mismatch(a, b):
    """Largest circular distance between two multisets of quasienergies,
    aligned by sorting on the circle (the cut may fall between a pair)."""
    a, b = np.sort(fold(a)), np.sort(fold(b))
    if len(a) != len(b):
        return np.inf
    return min(np.max(np.abs(fold(np.roll(a, s) - b))) for s in (-1, 0, 1))


def read_csv(path):
    """(columns, rows) of a kickedtop CSV, skipping its '#' header."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _col(columns, rows, name, conv=float):
    k = columns.index(name)
    return np.array([conv(r[k]) for r in rows])


class Failures(list):
    def require(self, ok, message):
        if not ok:
            self.append(message)


# -- paper-point ------------------------------------------------------------


def check_critical(path, j, p, kappa, e_max):
    f = Failures()
    cols, rows = read_csv(path)
    kinds = sorted(r[0] for r in rows)
    f.require(kinds == ["maximum", "maximum", "minimum", "saddle"], f"census {kinds}")
    if f:
        return f
    kind = _col(cols, rows, "kind", str)
    eps = _col(cols, rows, "eps_folded")
    e_unf = _col(cols, rows, "E_unfolded")
    xyz = np.column_stack([_col(cols, rows, c) for c in ("X", "Y", "Z")])
    s, mn = kind == "saddle", kind == "minimum"
    f.require(np.max(np.abs(xyz[s][0] - [1, 0, 0])) < 1e-6, f"saddle at {xyz[s][0]}")
    f.require(abs(fold(eps[s][0] - j * p)) < 1e-6, f"eps_S = {eps[s][0]} != fold(j p)")
    f.require(abs(fold(eps[mn][0] + j * p)) < 1e-6, f"eps_m = {eps[mn][0]} != fold(-j p)")
    f.require(np.max(np.abs(e_unf[kind == "maximum"] - j * e_max)) < 1e-6,
              f"E_M = {e_unf[kind == 'maximum']} != {j * e_max}")
    return f


def check_spectrum_small(path, j, p, kappa):
    f = Failures()
    cols, rows = read_csv(path)
    branch = _col(cols, rows, "branch", str)
    q = _col(cols, rows, "quasienergy")
    dim = len(_m_values(j))
    f.require(np.sum(branch == "exact") == dim and np.sum(branch == "effective") == dim,
              "row counts")
    if f:
        return f
    lam = np.linalg.eigvals(kick_oracle(j, p) * twist_phases(j, kappa)[None, :])
    d = circle_mismatch(q[branch == "exact"], -np.angle(lam))
    f.require(d < 1e-9, f"exact quasienergies off the expm oracle by {d:.3e}")
    return f


def check_doqs(path):
    f = Failures()
    cols, rows = read_csv(path)
    grid, rho = _col(cols, rows, "eps"), _col(cols, rows, "rho_hist")
    n_hist = _col(cols, rows, "N_hist")
    width = 2.0 * np.pi / len(grid)
    f.require(n_hist[-1] == 1.0, f"histogram N ends at {n_hist[-1]!r}, not exactly 1")
    f.require(abs(np.sum(rho) * width - 1.0) < 1e-12, "histogram DOQS does not sum to 1")
    f.require(np.all(rho >= 0), "negative histogram DOQS")
    return f


def check_protocol(path, j, p, e_max, points):
    f = Failures()
    cols, rows = read_csv(path)
    branch = _col(cols, rows, "branch", str)
    e = _col(cols, rows, "E_mean")
    xq, xc = _col(cols, rows, "xbar_quantum"), _col(cols, rows, "xbar_classical")
    f.require(np.sum(branch == "S->m") == points and np.sum(branch == "S->M") == points,
              "row counts")
    if f:
        return f
    e_s, e_m, e_mx = j * p, -j * p, j * e_max
    down, up = e[branch == "S->m"], e[branch == "S->M"]
    tol = 0.1  # a coherent state's <H_E> sits within O(1/j) of j E_G
    f.require(abs(down.max() - e_s) < tol and abs(down.min() - e_m) < tol,
              f"S->m covers [{down.min():.3f}, {down.max():.3f}], not [{e_m}, {e_s}]")
    f.require(abs(up.min() - e_s) < tol and abs(up.max() - e_mx) < tol,
              f"S->M covers [{up.min():.3f}, {up.max():.3f}], not [{e_s}, {e_mx:.3f}]")
    away = np.abs(e - e_s) > 0.5
    worst = np.max(np.abs(xq[away] - xc[away]))
    f.require(worst < 0.05, f"|xbar_quantum - xbar_classical| = {worst:.4f} away from the saddle")
    return f


# -- large-j ----------------------------------------------------------------

LARGE_J_OPS = ("spectrum", "floquet_spectrum", "effective_spectrum", "match_spectra", "magnetization")


def check_large_j(rdir, arrays, j, p, kappa, f_oracle):
    """Failures of the five large-j operations, by name."""
    omega = 2.0 * np.pi
    dim = len(_m_values(j))
    out = {name: Failures() for name in LARGE_J_OPS}
    tr1, tr2 = np.trace(f_oracle), np.sum(f_oracle * f_oracle.T)

    eps = arrays.get("eps")
    f = out["floquet_spectrum"]
    f.require(eps is not None, "not run")
    if eps is not None:
        lam = np.exp(-1j * eps)
        q = arrays["modes"]
        resid = np.max(np.abs(f_oracle @ q - q * lam[None, :]))
        f.require(resid < 1e-9, f"|F_expm Q - Q Lambda| = {resid:.3e}")
        f.require(abs(lam.sum() - tr1) < 1e-9, "sum exp(-i eps) != Tr F_expm")
        f.require(np.all(np.diff(eps) >= 0) and eps[0] >= -np.pi and eps[-1] < np.pi,
                  "quasienergies not ascending in [-pi, pi)")

    f = out["spectrum"]
    path = os.path.join(rdir, "spectrum.csv")
    f.require(os.path.exists(path), "no CSV")
    if os.path.exists(path):
        cols, rows = read_csv(path)
        branch = _col(cols, rows, "branch", str)
        ex = _col(cols, rows, "quasienergy")[branch == "exact"]
        f.require(len(ex) == dim and np.sum(branch == "effective") == dim, "row counts")
        if not f:
            lam = np.exp(-1j * ex)
            f.require(abs(lam.sum() - tr1) < 1e-9, "sum exp(-i eps) != Tr F_expm")
            f.require(abs(np.sum(lam**2) - tr2) < 1e-9, "sum exp(-2i eps) != Tr F_expm^2")
            if eps is not None:
                d = circle_mismatch(ex, eps)
                f.require(d < 1e-12, f"CLI and library spectra differ by {d:.3e}")

    f = out["effective_spectrum"]
    unf = arrays.get("unfolded")
    f.require(unf is not None, "not run")
    if unf is not None:
        f.require(len(unf) == dim, "dimension")
        tr = trace_h_eff(j, kappa)
        f.require(abs(unf.sum() - tr) < 1e-10 * abs(tr), f"sum E = {unf.sum()} != Tr H_E = {tr}")
        f.require(np.max(np.abs(arrays["folded"] - fold(unf, omega))) < 1e-12, "folding")

    f = out["match_spectra"]
    pairing = arrays.get("pairing")
    f.require(pairing is not None and eps is not None, "not run")
    if pairing is not None and eps is not None:
        f.require(np.array_equal(np.sort(pairing), np.arange(dim)), "pairing is not a permutation")
        if not f:
            d = np.abs(fold(arrays["folded"] - eps[pairing]))
            f.require(abs(d.max() - float(arrays["match_max"])) < 1e-12
                      and abs(d.mean() - float(arrays["match_mean"])) < 1e-12,
                      "reported distances disagree with the pairing")

    f = out["magnetization"]
    en, mag = arrays.get("energies"), arrays.get("magnetizations")
    f.require(en is not None, "not run")
    if en is not None:
        tr = trace_h_eff(j, kappa)
        f.require(abs(mag.sum()) < 1e-8, f"sum <J_x/j> = {mag.sum():.3e} != Tr J_x / j = 0")
        f.require(abs(en.sum() - tr) < 1e-10 * abs(tr), f"sum <H_E> = {en.sum()} != Tr H_E = {tr}")
        near = np.where(np.abs(en - j * p) < 0.05 * j * p)[0]
        near = near[(near > 0) & (near < dim - 1)]
        cusp = [a for a in near if mag[a] < mag[a - 1] and mag[a] < mag[a + 1]]
        f.require(bool(cusp), "no local minimum of the magnetization near E = j p")
    return out


# -- kappa-sweep ------------------------------------------------------------


def sweep_values(spec):
    start, stop, step = (float(x) for x in spec.split(":"))
    n = int(np.floor((stop - start) / step + 0.5 + 1e-12))
    return start + step * np.arange(n + 1)


def check_sweep(path, j, p, kappas, kick_diag):
    """Failures per kappa value."""
    out = [Failures() for _ in kappas]
    if not os.path.exists(path):
        for f in out:
            f.append("no CSV")
        return out
    cols, rows = read_csv(path)
    kap = _col(cols, rows, "kappa")
    branch = _col(cols, rows, "branch", str)
    q = _col(cols, rows, "quasienergy")
    m = _m_values(j)
    dim = len(m)
    for kappa, f in zip(kappas, out):
        sel = np.abs(kap - kappa) < 1e-12
        ex, ef = q[sel & (branch == "exact")], q[sel & (branch == "effective")]
        f.require(len(ex) == dim and len(ef) == dim, f"kappa={kappa}: row counts")
        if f:
            continue
        tr_f = np.sum(kick_diag * twist_phases(j, kappa))
        f.require(abs(np.exp(-1j * ex).sum() - tr_f) < 1e-9, f"kappa={kappa}: sum exp(-i eps) != Tr F")
        # folding moves each eigenvalue by a whole number of periods
        n = (trace_h_eff(j, kappa) - ef.sum()) / (2.0 * np.pi)
        f.require(abs(n - round(n)) < 1e-8, f"kappa={kappa}: sum of effective values != Tr H_E mod 2pi")
        if kappa == 0.0:
            ref = fold(p * m)
            f.require(circle_mismatch(ex, ref) < 1e-12, "kappa=0: exact != fold(p m)")
            f.require(circle_mismatch(ef, ref) < 1e-12, "kappa=0: effective != fold(p m)")
    return out


# -- pointwise-doqs ---------------------------------------------------------

# |sum_i w_i rho(x_i) - 1| that the Gauss-Legendre rule reaches, by nodes per
# interval, at j = 40: at least twice the largest error over the cut points of
# seeds 0..199, which was 2.51e-4 with 16 nodes and 3.41e-3 with 4 (README.md).
SUM_RULE_TOL = {16: 6e-4, 4: 7e-3}


def check_pointwise(values, weights, reference, n_nodes):
    out = []
    for v, r in zip(values, reference):
        f = Failures()
        f.require(np.isfinite(v) and abs(v - r) <= 1e-12 * max(1.0, abs(r)),
                  f"one-point value {v!r} != vectorized {r!r}")
        out.append(f)
    err = abs(float(np.dot(weights, values)) - 1.0)
    if not err <= SUM_RULE_TOL[n_nodes]:
        for f in out:
            f.append(f"sum rule off by {err:.3e}")
    return out


# -- per workload -----------------------------------------------------------


def _paper_point(summary):
    size, p, kappa = summary["size"], summary["p"], summary["kappa"]
    j = size["j_point"]
    e_max = landscape_max(p, kappa)
    checks = {
        "critical": lambda d: check_critical(f"{d}/critical.csv", j, p, kappa, e_max),
        "spectrum": lambda d: check_spectrum_small(f"{d}/spectrum.csv", j, p, kappa),
        "doqs": lambda d: check_doqs(f"{d}/doqs.csv"),
        "protocol": lambda d: check_protocol(f"{d}/protocol.csv", j, p, e_max, size["points"]),
    }
    return list(checks), lambda d: {name: fn(d) for name, fn in checks.items()}


def _large_j(summary):
    j, p, kappa = summary["size"]["j_large"], summary["p"], summary["kappa"]
    f_oracle = kick_oracle(j, p) * twist_phases(j, kappa)[None, :]
    return list(LARGE_J_OPS), lambda d: check_large_j(d, _load(d), j, p, kappa, f_oracle)


def _kappa_sweep(summary):
    j, p = summary["size"]["j_sweep"], summary["p"]
    kappas = sweep_values(summary["size"]["kappa_sweep"])
    kick_diag = np.diag(kick_oracle(j, p)).copy()
    names = [f"kappa={kv:.4g}" for kv in kappas]
    return names, lambda d: dict(zip(names, check_sweep(f"{d}/sweep.csv", j, p, kappas, kick_diag)))


def _pointwise_doqs(summary):
    from kickedtop.floquet import KickedTopParams
    from kickedtop.landscape import analytic_doqs

    size, prep = summary["size"], summary["prep"]
    nodes, weights = np.array(prep["nodes"]), np.array(prep["weights"])
    par = KickedTopParams(p=summary["p"], kappa=summary["kappa"])
    reference = analytic_doqs(par, size["j_doqs"], nodes).rho  # one vectorized call
    names = [f"node-{i}" for i in range(len(nodes))]

    def run(d):
        values = _load(d).get("values", np.full(len(nodes), np.nan))
        return dict(zip(names, check_pointwise(values, weights, reference, size["nodes"])))

    return names, run


CHECKERS = {
    "paper-point": _paper_point,
    "large-j": _large_j,
    "kappa-sweep": _kappa_sweep,
    "pointwise-doqs": _pointwise_doqs,
}


def check(summary, out_dir):
    """[(round index, [(operation, failures)])] for every round of the run.

    An operation fails if the worker reports an error for it (the sweep's
    single CLI call stands for all its kappa values) or if its checks fail.
    """
    names, run = CHECKERS[summary["workload"]](summary)
    result = []
    for rec in summary["rounds"]:
        rdir = os.path.join(out_dir, f"round-{rec['round']}")
        errors = {}
        for op in rec["ops"]:
            if op["error"]:
                key = "*" if op["name"] == "sweep" else op["name"]
                errors.setdefault(key, []).append(op["error"])
        try:
            found = run(rdir)
        except Exception as exc:  # noqa: BLE001 - an unreadable output fails its round
            found = {name: [f"check raised {type(exc).__name__}: {exc}"] for name in names}
        ops = [(name, errors.get(name, []) + errors.get("*", []) + list(found[name]))
               for name in names]
        result.append((rec["round"], ops))
    return result


def _load(rdir):
    path = os.path.join(rdir, "arrays.npz")
    if not os.path.exists(path):
        return {}
    with np.load(path) as z:
        return {k: z[k] for k in z.files}
