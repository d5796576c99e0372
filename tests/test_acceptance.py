"""Acceptance gate: one test per release criterion, each printing a PASS/FAIL
line with the measured values.  Tolerances are the contract; tests that fail
here fail loudly rather than being loosened.
"""
import sys
import time

import numpy as np
import pytest
from scipy.integrate import quad

import kickedtop as kt
from kickedtop import cli

A_REF = 0.0396  # reference stationary-phase amplitude at j=40, p=0.1, kappa=0.2

_CAPMAN = None


@pytest.fixture(autouse=True)
def _find_capture_manager(request):
    global _CAPMAN
    _CAPMAN = request.config.pluginmanager.getplugin("capturemanager")


def _report(num: int, label: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance] criterion {num:02d} {label}: {status} ({detail})"
    if _CAPMAN is not None:
        with _CAPMAN.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    if not ok:
        pytest.fail(f"criterion {num:02d} {label}: {detail}")


def test_criterion_01_saddle_quasienergy(par40, cps40):
    # cps40 has warmed the jit cache; time a cold computation of the result
    t0 = time.perf_counter()
    cps = kt.find_critical_points(par40, 40.0)
    dt = time.perf_counter() - t0
    s = cps.saddle
    target = kt.fold_quasienergy(40.0 * par40.p, 2.0 * np.pi)
    loc_err = np.linalg.norm(s.bloch.as_array() - [1.0, 0.0, 0.0])
    err = abs(s.eps_folded * par40.T - target)
    ok = err < 1e-6 and loc_err < 1e-9 and dt < 1.0
    _report(
        1,
        "saddle quasienergy",
        ok,
        f"eps_S*T = {s.eps_folded:.10f} vs fold(jp) = {target:.10f}, "
        f"|diff| = {err:.2e}, saddle offset {loc_err:.2e}, runtime {dt:.3f} s",
    )


def test_criterion_02_stationary_phase_amplitudes(cps40):
    a_s = cps40.saddle.amplitude
    a_m = cps40.minimum.amplitude
    a_mx = sum(m.amplitude for m in cps40.maxima)
    r_s = abs(a_s / A_REF - 1.0)
    r_mx = abs(a_mx / 0.046 - 1.0)
    r_m = abs(a_m / 0.023 - 1.0)
    ok = r_s < 0.02 and r_mx < 0.05 and r_m < 0.05
    _report(
        2,
        "stationary-phase amplitudes",
        ok,
        f"A_S = {a_s:.5f} ({100 * r_s:.2f}% of 0.0396), "
        f"maxima sum = {a_mx:.5f} ({100 * r_mx:.2f}% of 0.046), "
        f"minimum = {a_m:.5f} ({100 * r_m:.2f}% of 0.023)",
    )


def test_criterion_03_log_divergence_fit(par40, ops40, cps40):
    t0 = time.perf_counter()
    spec = kt.diagonalize_floquet(kt.build_floquet(ops40, par40), par40.T)
    curve = kt.doqs_histogram(spec, 161)
    w = float(np.median(np.diff(curve.grid)))
    # window: from one bin width (excludes the singular cell) out to half the
    # distance to the nearest other critical energy
    fit = kt.fit_log_divergence(curve, cps40.saddle.eps_folded, window=(w, 0.5))
    dt = time.perf_counter() - t0
    rel = abs(fit.amplitude / A_REF - 1.0)
    ok = rel < 0.15 and dt < 5.0
    _report(
        3,
        "log-divergence fit",
        ok,
        f"A_fit = {fit.amplitude:.5f} vs {A_REF} ({100 * rel:.1f}% off, limit 15%), "
        f"stderr = {fit.amplitude_stderr:.5f}, runtime {dt:.2f} s",
    )


def test_criterion_04_extremal_energies(cps40, par40):
    t = par40.T
    eps_mx = cps40.maxima[0].eps_folded * t
    eps_mn = cps40.minimum.eps_folded * t
    target_mn = kt.fold_quasienergy(-40.0 * par40.p, 2.0 * np.pi)
    err_mx = abs(eps_mx - (-1.288))
    err_mn = abs(eps_mn - target_mn)
    ok = err_mx < 0.01 and err_mn < 1e-6
    _report(
        4,
        "extremal critical energies",
        ok,
        f"eps_M*T = {eps_mx:.6f} (|diff from -1.288| = {err_mx:.4f}), "
        f"eps_m*T = {eps_mn:.10f} vs fold(-jp) = {target_mn:.10f} (|diff| = {err_mn:.2e})",
    )


def test_criterion_05_jump_magnitudes(spec40, cps40):
    curve = kt.doqs_histogram(spec40, 161)
    mn = cps40.minimum
    got_mn = kt.estimate_jump(curve, mn.eps_folded, 0.3)
    exp_mn = kt.jump_magnitude(mn)
    mx1, mx2 = cps40.maxima
    got_mx = kt.estimate_jump(curve, mx1.eps_folded, 0.3)
    exp_mx = kt.jump_magnitude(mx1) + kt.jump_magnitude(mx2)
    r_mn = abs(got_mn / exp_mn - 1.0)
    r_mx = abs(got_mx / exp_mx - 1.0)
    ok = r_mn < 0.25 and r_mx < 0.25
    _report(
        5,
        "DOQS jump magnitudes",
        ok,
        f"minimum: {got_mn:+.5f} vs {exp_mn:+.5f} ({100 * r_mn:.1f}%), "
        f"maxima: {got_mx:+.5f} vs {exp_mx:+.5f} ({100 * r_mx:.1f}%), limit 25%",
    )


def test_criterion_06_effective_hamiltonian_fidelity(par40, ops40, spec40, heff40):
    eff = kt.effective_spectrum(heff40, par40)
    rep = kt.match_spectra(spec40, eff)
    spacing = spec40.omega / spec40.dim
    ratio = rep.max_circular_distance / spacing
    par0 = kt.KickedTopParams(p=par40.p, kappa=0.0, T=par40.T)
    spec0 = kt.diagonalize_floquet(kt.build_floquet(ops40, par0), par0.T)
    eff0 = kt.effective_spectrum(kt.build_effective_hamiltonian(ops40, par0), par0)
    rep0 = kt.match_spectra(spec0, eff0)
    ok = ratio < 0.05 and rep0.max_circular_distance < 1e-12
    _report(
        6,
        "effective-Hamiltonian fidelity",
        ok,
        f"max distance = {rep.max_circular_distance:.2e} = {100 * ratio:.2f}% of mean "
        f"spacing (limit 5%); kappa=0 distance = {rep0.max_circular_distance:.2e}",
    )


def test_criterion_07_bifurcation_census(par40, cps40):
    low = kt.find_critical_points(kt.KickedTopParams(p=0.1, kappa=0.05), 40.0)
    m1, m2 = cps40.maxima
    degen = abs(m1.E_unfolded - m2.E_unfolded)
    ok = len(low.points) == 2 and len(cps40.points) == 4 and degen < 1e-8
    _report(
        7,
        "bifurcation census",
        ok,
        f"kappa=0.05: {len(low.points)} critical points, kappa=0.2: {len(cps40.points)}, "
        f"maxima degeneracy {degen:.2e}",
    )


def test_criterion_08_cusp_in_mode_magnetization(spec40, ops40, heff40):
    mm = kt.mode_magnetization(spec40, ops40, heff40)
    sel = np.where(np.abs(mm.energies - 4.0) < 0.2)[0]
    best = None
    for a in sel:
        if 0 < a < len(mm.energies) - 1:
            x = mm.magnetizations
            if x[a] < x[a - 1] and x[a] < x[a + 1]:
                best = a
                break
    ok = best is not None
    detail = "no local minimum within |E - 4| < 0.2"
    if ok:
        detail = (
            f"local minimum at E = {mm.energies[best]:.4f}, x = {mm.magnetizations[best]:.4f} "
            f"(neighbors {mm.magnetizations[best - 1]:.4f}, {mm.magnetizations[best + 1]:.4f})"
        )
    _report(8, "magnetization cusp at the saddle energy", ok, detail)


def test_criterion_09_protocol_reconstruction(par40, spec40, ops40, heff40):
    mm = kt.mode_magnetization(spec40, ops40, heff40)
    t0 = time.perf_counter()
    res = kt.run_protocol(par40, 40.0, "S->m", 40, 700) + kt.run_protocol(
        par40, 40.0, "S->M", 40, 700
    )
    dt = time.perf_counter() - t0
    e = np.array([r.mean_quasienergy for r in res])
    down = e[:40]
    up = e[40:]
    e_mx = 5.002502362105111
    covers = (
        abs(down.max() - 4.0) < 0.1
        and abs(down.min() + 4.0) < 0.1
        and abs(up.min() - 4.0) < 0.1
        and abs(up.max() - e_mx) < 0.1
    )
    sel = [r for r in res if abs(r.mean_quasienergy - 4.0) > 0.5]
    worst_mode = max(
        abs(r.xbar_quantum - mm.magnetizations[np.argmin(np.abs(mm.energies - r.mean_quasienergy))])
        for r in sel
    )
    worst_cl = max(abs(r.xbar_quantum - r.xbar_classical) for r in sel)
    ok = covers and worst_mode < 0.05 and worst_cl < 0.05 and dt < 60.0
    _report(
        9,
        "protocol reconstruction",
        ok,
        f"coverage [{down.min():.3f}, {down.max():.3f}] + [{up.min():.3f}, {up.max():.3f}], "
        f"worst |xbar - mode| = {worst_mode:.4f}, worst |xbar - classical| = {worst_cl:.4f} "
        f"(limits 0.05), runtime {dt:.1f} s for {len(res)} states",
    )


def test_criterion_10_property_suites(par40, ops40, spec40, heff40, cps40, parity40, tmp_path):
    checks = []

    # operator algebra
    comm = ops40.jx @ ops40.jy - ops40.jy @ ops40.jx - 1j * ops40.jz
    checks.append(("operator algebra", np.max(np.abs(comm)) < 1e-12))

    # parity symmetry of F and H_E
    f = kt.build_floquet(ops40, par40)
    checks.append(
        (
            "parity symmetry",
            np.max(np.abs(f @ parity40 - parity40 @ f)) < 1e-10
            and np.max(np.abs(heff40 @ parity40 - parity40 @ heff40)) < 1e-10,
        )
    )

    # DOQS sum rules: histogram exact, analytic curve to 1e-6
    curve = kt.doqs_histogram(spec40, 161)
    hist_ok = abs(curve.rho.sum() * (curve.omega / 161) - 1.0) < 1e-12
    eps_c = []
    for e_c in sorted(c.eps_folded for c in cps40.points):
        if not eps_c or e_c - eps_c[-1] > 1e-9:
            eps_c.append(e_c)
    edges = [-np.pi] + [e_c for e_c in eps_c for _ in (0, 1)] + [np.pi]
    total = 0.0
    for a, b in zip(edges[::2], edges[1::2]):
        lo = a + (1e-8 if a in eps_c else 0.0)
        hi = b - (1e-8 if b in eps_c else 0.0)
        total += quad(
            lambda x: kt.analytic_doqs(par40, 40.0, np.array([x])).rho[0], lo, hi, limit=400
        )[0]
    checks.append(("DOQS sum rules", hist_ok and abs(total - 1.0) < 1e-6))

    # classical map norm over 1e5 steps
    r = kt.BlochVector(0.36, 0.48, 0.8)
    for _ in range(100_000):
        r = kt.classical_kick_map(r, par40)
    checks.append(("classical norm preservation", abs(r.norm() - 1.0) < 1e-12))

    # linearized-map stability flip across kappa = p
    def spectral_radius(kappa):
        h = 1e-7
        cols = []
        for dy, dz in ((h, 0.0), (0.0, h)):
            v = np.array([np.sqrt(1 - dy * dy - dz * dz), dy, dz])
            out = kt.classical_kick_map(kt.BlochVector(*v), kt.KickedTopParams(p=0.1, kappa=kappa))
            cols.append([out.y / h, out.z / h])
        return np.max(np.abs(np.linalg.eigvals(np.array(cols).T)))

    checks.append(
        ("stability flip", spectral_radius(0.2) > 1.0 + 1e-4 and abs(spectral_radius(0.05) - 1.0) < 1e-4)
    )

    # diagonal-ensemble equivalence at K = 700
    psi0 = kt.coherent_state(kt.SpinSystem(40.0), kt.StereoCoord(0.4 + 0.1j))
    a = ops40.jx / ops40.j
    got = kt.time_averaged_observable(psi0, spec40, a, 700)
    amp2 = np.abs(spec40.modes.conj().T @ psi0) ** 2
    diag = np.einsum("ia,ij,ja->a", spec40.modes.conj(), a, spec40.modes).real
    checks.append(("diagonal ensemble", abs(got - amp2 @ diag) < 1e-2))

    # histogram vs trace-series cross-validation, 5% away from critical energies
    hist = kt.integrated_doqs(kt.doqs_histogram(spec40, 321))
    trc = kt.integrated_doqs(
        kt.doqs_from_traces(kt.floquet_traces(spec40, 400), hist.grid, 0.01, spec40.dim)
    )
    eps_all = np.array([c.eps_folded for c in cps40.points])
    d = np.abs(kt.fold_quasienergy(hist.grid[:, None] - eps_all[None, :], hist.omega))
    mask = d.min(axis=1) > 1e-2
    sup = np.max(np.abs(hist.n_integrated[mask] - trc.n_integrated[mask]))
    checks.append(("histogram/trace cross-validation", sup < 0.05))

    # byte-identical CLI reruns
    out = tmp_path / "spec.csv"
    assert cli.run(["spectrum", "--j", "10", "--out", str(out)]) == 0
    first = out.read_bytes()
    assert cli.run(["spectrum", "--j", "10", "--out", str(out)]) == 0
    checks.append(("CLI determinism", out.read_bytes() == first))

    failed = [name for name, ok in checks if not ok]
    _report(
        10,
        "property suites",
        not failed,
        f"{len(checks) - len(failed)}/{len(checks)} sub-checks passed"
        + (f", failed: {', '.join(failed)}" if failed else ""),
    )
