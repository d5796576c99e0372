"""Mode-resolved transverse magnetization and the stroboscopic time-averaged
measurement protocol that reconstructs it from coherent initial states.

Initial states are placed along gradient-flow paths of the landscape from the
saddle toward the minimum (branch "S->m") or toward a maximum ("S->M"), so
their mean quasienergies sweep [E_m, E_S] and [E_S, E_M].
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .effective import _tridiagonal_band, build_effective_hamiltonian
from .floquet import FloquetSpectrum, KickedTopParams, build_floquet, diagonalize_floquet
from .landscape import find_critical_points, qel_grad_hess, qel_value
from .spin import (
    BlochVector,
    OperatorSet,
    SpinSystem,
    StereoCoord,
    build_operators,
    coherent_state,
    gamma_from_bloch,
)

__all__ = [
    "NoSaddleError",
    "ModeMagnetization",
    "ProtocolResult",
    "mode_magnetization",
    "time_averaged_observable",
    "participation_ratio",
    "run_protocol",
]

BRANCHES = ("S->m", "S->M")


class NoSaddleError(ValueError):
    """The landscape has no saddle at (1, 0, 0) to start the paths from:
    kappa is below the bifurcation kappa_c."""


@dataclass(frozen=True)
class ModeMagnetization:
    """Per Floquet mode, sorted by mean effective energy: <H_E> and <J_x/j>."""

    energies: np.ndarray
    magnetizations: np.ndarray


@dataclass(frozen=True)
class ProtocolResult:
    branch: str
    gamma0: StereoCoord
    bloch0: BlochVector
    mean_quasienergy: float
    xbar_quantum: float
    xbar_classical: float
    participation_ratio: float


_MODE_COLUMNS = 64  # modes per block of _expectations


def _expectations(modes: np.ndarray, diag: np.ndarray, upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """Re <Phi|A|Phi> per column for the tridiagonal A with these diagonals.

    A Phi is formed from the three bands for _MODE_COLUMNS columns at a
    time, so no temporary is matrix-sized; the real and imaginary parts are
    views.
    """
    out = np.empty(modes.shape[1])
    for k in range(0, modes.shape[1], _MODE_COLUMNS):
        m = modes[:, k:k + _MODE_COLUMNS]
        am = diag[:, None] * m
        am[:-1] += upper[:, None] * m[1:]
        am[1:] += lower[:, None] * m[:-1]
        out[k:k + _MODE_COLUMNS] = np.einsum("ia,ia->a", m.real, am.real) + np.einsum("ia,ia->a", m.imag, am.imag)
    return out


def mode_magnetization(spec: FloquetSpectrum, ops: OperatorSet, h_eff: np.ndarray) -> ModeMagnetization:
    """<Phi|H_E|Phi> and <Phi|J_x/j|Phi> for every Floquet mode.

    Both operators are tridiagonal; ValueError when h_eff has an element
    off the band (above 1e-10).
    """
    energies = _expectations(spec.modes, *_tridiagonal_band(h_eff))
    jx = ops.jx
    mags = _expectations(spec.modes, jx.diagonal(), jx.diagonal(1), jx.diagonal(-1)) / ops.j
    order = np.argsort(energies)
    return ModeMagnetization(energies=energies[order], magnetizations=mags[order])


def _check_normalized(states: np.ndarray):
    nrm = np.linalg.norm(states, axis=0)
    if np.any(np.abs(nrm - 1.0) > 1e-9):
        raise ValueError(f"states must be normalized, |psi| = {nrm}")


def time_averaged_observable(states: np.ndarray, spec: FloquetSpectrum, a: np.ndarray, steps: int):
    """(steps+1)^-1 sum_l <Psi(l)|A|Psi(l)> with |Psi(l)> = F^l |Psi(0)>.

    states is one state (dim,) or a batch of columns (dim, n); the result is
    a float or an (n,) array.  With c = modes^dag Psi the average is
    sum_ab c_a* c_b A_ab D(eps_a - eps_b), where the Dirichlet kernel
    D(x) = (steps+1)^-1 sum_l e^{i l x T} is summed in closed form.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    _check_normalized(states)
    modes = spec.modes
    c = modes.conj().T @ states
    theta = np.subtract.outer(spec.quasienergies, spec.quasienergies) * spec.T
    # D depends on theta mod 2 pi only; folding into [-pi, pi] keeps the
    # sine arguments small for a pair straddling the zone edge
    theta -= 2.0 * np.pi * np.round(theta / (2.0 * np.pi))
    num = np.exp(0.5j * steps * theta) * np.sin(0.5 * (steps + 1) * theta)
    den = (steps + 1) * np.sin(0.5 * theta)
    # D = 1 at theta = 0; below the smallest normal float the half-angle sine
    # underflows, and D = 1 holds there to within steps * 1e-308
    kernel = np.divide(num, den, out=np.ones_like(num), where=np.abs(theta) >= np.finfo(float).tiny)
    weighted = (modes.conj().T @ a @ modes) * kernel
    return np.sum(c.conj() * (weighted @ c), axis=0).real


def participation_ratio(states: np.ndarray, modes: np.ndarray):
    """1 / sum_alpha |<Phi_alpha|Psi(0)>|^4 for one state or each column of a batch."""
    amp2 = np.abs(modes.conj().T @ states) ** 2
    return 1.0 / np.sum(amp2**2, axis=0)


def _flow_path(start: np.ndarray, par: KickedTopParams, direction: int, stop_e: float):
    """Unit-speed gradient flow of E_G on the sphere; direction +1 ascends.

    Returns the visited points and their E_G values, monotone in E_G, ending
    within 1e-6 of stop_e (or at a vanishing gradient).
    """
    h = 5e-3
    pts = [start]
    r = start
    es = [qel_value(BlochVector.from_array(r), par)]
    for _ in range(200000):
        if abs(es[-1] - stop_e) < 1e-6 or h < 1e-7:
            break
        grad2, _, basis = qel_grad_hess(r, par)
        ga = basis @ grad2
        gn = np.linalg.norm(ga)
        if gn < 1e-9:
            break
        r_new = r + direction * h * ga / gn
        r_new /= np.linalg.norm(r_new)
        e_new = qel_value(BlochVector.from_array(r_new), par)
        if direction * (e_new - es[-1]) <= 0:
            h *= 0.5  # overshot the extremum; refine
            continue
        r = r_new
        pts.append(r)
        es.append(e_new)
    return np.array(pts), np.array(es)


def run_protocol(par: KickedTopParams, j: float, branch: str, n_points: int, steps: int) -> list:
    """Protocol results for coherent states along one landscape path.

    branch "S->m" descends from the saddle to the minimum, "S->M" ascends to
    a maximum; points are resampled to approximately uniform spacing in E_G.
    steps is the number of kicks averaged over (700 throughout this package);
    averages need steps large compared with the recurrence time ~ j.
    """
    if branch not in BRANCHES:
        raise ValueError(f"branch must be one of {BRANCHES}, got {branch!r}")
    if n_points < 2:
        raise ValueError(f"n_points must be >= 2, got {n_points}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if steps < 10 * j:
        warnings.warn(
            f"steps = {steps} is below the recurrence-time heuristic 10*j = {10 * j:.0f}; "
            "time averages may not be converged",
            stacklevel=2,
        )
    cps = find_critical_points(par, j)
    if cps.regime != "above":
        raise NoSaddleError("protocol needs the saddle at (1, 0, 0): kappa above the bifurcation kappa_c")
    sys = SpinSystem(j)
    ops = build_operators(sys)
    spec = diagonalize_floquet(build_floquet(ops, par), par.T)
    h_eff = build_effective_hamiltonian(ops, par)

    saddle = cps.saddle.bloch.as_array()
    _, hess2, basis = qel_grad_hess(saddle, par)
    evals, evecs = np.linalg.eigh(hess2)
    if branch == "S->m":
        direction = -1
        seed_dir = basis @ evecs[:, 0]  # descending eigendirection
        stop_e = qel_value(cps.minimum.bloch, par)
    else:
        direction = +1
        seed_dir = basis @ evecs[:, 1]
        stop_e = qel_value(cps.maxima[0].bloch, par)
    start = saddle + 1e-3 * seed_dir
    start /= np.linalg.norm(start)
    pts, es = _flow_path(start, par, direction, stop_e)

    targets = np.linspace(es[0], es[-1], n_points)
    idx = np.abs(es[None, :] - targets[:, None]).argmin(axis=1)
    xcs = _kernels.orbit_mean_x(pts[idx], par.kappa, par.p, steps)
    blochs = [BlochVector.from_array(pts[i]) for i in idx]
    gammas = [gamma_from_bloch(b) for b in blochs]
    psi = np.stack([coherent_state(sys, g) for g in gammas], axis=1)
    e_means = time_averaged_observable(psi, spec, h_eff, steps)
    xqs = time_averaged_observable(psi, spec, ops.jx / j, steps)
    prs = participation_ratio(psi, spec.modes)
    return [
        ProtocolResult(
            branch=branch,
            gamma0=gamma,
            bloch0=bloch,
            mean_quasienergy=float(e_mean),
            xbar_quantum=float(xq),
            xbar_classical=float(xc),
            participation_ratio=float(pr),
        )
        for gamma, bloch, e_mean, xq, xc, pr in zip(gammas, blochs, e_means, xqs, xcs, prs)
    ]
