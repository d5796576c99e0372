"""Mode-resolved transverse magnetization and the stroboscopic time-averaged
measurement protocol that reconstructs it from coherent initial states.

Initial states are placed along gradient-flow paths of the landscape from the
saddle toward the minimum (branch "S->m") or toward a maximum ("S->M"), so
their mean quasienergies sweep [E_m, E_S] and [E_S, E_M].
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import _kernels
from .effective import build_effective_hamiltonian
from .floquet import FloquetSpectrum, KickedTopParams, build_floquet, diagonalize_floquet
from .landscape import (
    _riemannian_grad_hess,
    find_critical_points,
    qel_value,
)
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
    "ModeMagnetization",
    "ProtocolResult",
    "mode_magnetization",
    "stroboscopic_evolve",
    "time_averaged_observable",
    "participation_ratio",
    "run_protocol",
]

BRANCHES = ("S->m", "S->M")


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


def mode_magnetization(spec: FloquetSpectrum, ops: OperatorSet, h_eff: np.ndarray) -> ModeMagnetization:
    """<Phi|H_E|Phi> and <Phi|J_x/j|Phi> for every Floquet mode."""
    modes = spec.modes
    energies = np.einsum("ia,ij,ja->a", modes.conj(), h_eff, modes, optimize=True).real
    mags = np.einsum("ia,ij,ja->a", modes.conj(), ops.jx / ops.j, modes, optimize=True).real
    order = np.argsort(energies)
    return ModeMagnetization(energies=energies[order], magnetizations=mags[order])


def _check_normalized(state: np.ndarray):
    nrm = np.linalg.norm(state)
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError(f"state must be normalized, |psi| = {nrm}")


def stroboscopic_evolve(state0: np.ndarray, f: np.ndarray, steps: int) -> Iterator[np.ndarray]:
    """Yield |Psi(l)> = F^l |Psi(0)> for l = 0..steps."""
    _check_normalized(state0)
    psi = state0
    yield psi
    for _ in range(steps):
        psi = f @ psi
        yield psi


def time_averaged_observable(state0: np.ndarray, f: np.ndarray, a: np.ndarray, steps: int) -> float:
    """(steps+1)^-1 sum_l <Psi(l)|A|Psi(l)>, accumulated state by state."""
    acc = 0.0
    for psi in stroboscopic_evolve(state0, f, steps):
        acc += (psi.conj() @ (a @ psi)).real
    return float(acc / (steps + 1))


def participation_ratio(state0: np.ndarray, modes: np.ndarray) -> float:
    """1 / sum_alpha |<Phi_alpha|Psi(0)>|^4."""
    amp2 = np.abs(modes.conj().T @ state0) ** 2
    return float(1.0 / np.sum(amp2**2))


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
        grad2, _, basis = _riemannian_grad_hess(r, par)
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
    if par.kappa <= par.p:
        raise ValueError("protocol needs kappa > p (saddle must exist)")
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
    sys = SpinSystem(j)
    ops = build_operators(sys)
    f = build_floquet(ops, par)
    spec = diagonalize_floquet(f, par.T)
    h_eff = build_effective_hamiltonian(ops, par)
    jx_scaled = (ops.jx / j).copy()

    cps = find_critical_points(par, j)
    saddle = cps.saddle.bloch.as_array()
    _, hess2, basis = _riemannian_grad_hess(saddle, par)
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
    results = []
    for i, xc in zip(idx, xcs):
        bloch = BlochVector.from_array(pts[i])
        gamma = gamma_from_bloch(bloch)
        psi = coherent_state(sys, gamma)
        e_mean = time_averaged_observable(psi, f, h_eff, steps)
        xq = time_averaged_observable(psi, f, jx_scaled, steps)
        pr = participation_ratio(psi, spec.modes)
        results.append(
            ProtocolResult(
                branch=branch,
                gamma0=gamma,
                bloch0=bloch,
                mean_quasienergy=e_mean,
                xbar_quantum=xq,
                xbar_classical=float(xc),
                participation_ratio=pr,
            )
        )
    return results
