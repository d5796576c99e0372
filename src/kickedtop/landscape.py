"""Semiclassics of the kicked top: the quasienergy landscape on the Bloch
sphere, its critical points and stationary-phase amplitudes, the analytic
density of quasienergy states built from them, and the classical
stroboscopic map.

The landscape is E_G(R) = (kappa/2) Z^2 + (kappa p Z / 2) [X cot(kappa Z / 2) - Y],
the scaled coherent-state expectation of the effective Hamiltonian.  Critical
quasienergies are E_c = j E_G(R_c).  Its derivatives are taken on the sphere
itself: qel_grad_hess gives the tangent gradient and the Riemannian Hessian
H_R in an orthonormal tangent basis, and the stationary-phase amplitude
A_c = 1 / (2 pi j sqrt|det H_R|) needs no chart, so the poles of the gamma
chart are ordinary points.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .doqs import DoqsCurve
from .effective import fold_quasienergy
from .floquet import KickedTopParams
from .spin import BlochVector, StereoCoord, bloch_from_gamma, gamma_from_bloch

__all__ = [
    "CotangentPoleError",
    "BifurcationError",
    "CensusError",
    "CriticalPoint",
    "CriticalSet",
    "qel_value",
    "qel_grad_hess",
    "find_critical_points",
    "critical_amplitude",
    "analytic_doqs",
    "log_divergence_approx",
    "jump_magnitude",
    "classical_kick_map",
    "classical_time_average",
]


class CotangentPoleError(ArithmeticError):
    """kappa Z / 2 within tolerance of a nonzero multiple of pi."""


class BifurcationError(ArithmeticError):
    """kappa at the bifurcation kappa_c ~ p - p^3/12, the root of
    kappa - p + p kappa^2 / 12: there det H_R = -p (kappa - p + p kappa^2 / 12)
    at (1, 0, 0) vanishes and the saddle merges with the maxima pair; the
    finder refuses |kappa - p + p kappa^2 / 12| < 1e-6."""


class CensusError(RuntimeError):
    """Critical-point count or kinds disagree with the regime's census."""


@dataclass(frozen=True)
class CriticalPoint:
    kind: str  # "minimum" | "saddle" | "maximum"
    bloch: BlochVector
    stereo: StereoCoord
    E_unfolded: float
    eps_folded: float
    beta: int
    amplitude: float
    hessian_det: float  # det H_R, the tangent-plane Hessian of qel_grad_hess


@dataclass(frozen=True)
class CriticalSet:
    points: tuple
    regime: str  # "above" (kappa > kappa_c, saddle at (1, 0, 0)) | "below" (kappa < kappa_c)

    def by_kind(self, kind: str) -> tuple:
        return tuple(c for c in self.points if c.kind == kind)

    @property
    def saddle(self) -> CriticalPoint:
        (s,) = self.by_kind("saddle")
        return s

    @property
    def minimum(self) -> CriticalPoint:
        (m,) = self.by_kind("minimum")
        return m

    @property
    def maxima(self) -> tuple:
        return self.by_kind("maximum")


def _check_pole(z: float, kappa: float):
    half = 0.5 * kappa * z
    l = round(half / np.pi)
    if l != 0 and abs(half - np.pi * l) < 1e-9:
        raise CotangentPoleError(
            f"kappa*Z/2 = {half:.9g} is within 1e-9 of pi*{l}: cotangent pole"
        )


def _ambient(x: float, y: float, z: float, par: KickedTopParams):
    _check_pole(z, par.kappa)
    return _kernels.qel_ambient(x, y, z, par.kappa, par.p)


def qel_value(r: BlochVector, par: KickedTopParams) -> float:
    """E_G at a unit Bloch point; the removable Z = 0 singularity is handled
    by series, genuine cotangent poles raise."""
    nrm = r.norm()
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError(f"Bloch vector must be unit length, |r| = {nrm}")
    val = _ambient(r.x, r.y, r.z, par)[0]
    return float(val)


def qel_grad_hess(r: np.ndarray, par: KickedTopParams):
    """Gradient and Hessian of E_G on the sphere at a unit Bloch 3-vector.

    Returns the tangent gradient, the tangent-plane (Riemannian) Hessian
    H_R = T^t (ambient Hessian) T - (r . ambient gradient) I and the
    orthonormal tangent basis T as the columns of a (3, 2) array.
    """
    nrm = np.sqrt(r @ r)
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError(f"Bloch vector must be unit length, |r| = {nrm}")
    _, gx, gy, gz, hxz, hyz, hzz = _ambient(r[0], r[1], r[2], par)
    grad_amb = np.array([gx, gy, gz])
    hess_amb = np.array([[0.0, 0.0, hxz], [0.0, 0.0, hyz], [hxz, hyz, hzz]])
    axis = np.zeros(3)
    axis[np.argmin(np.abs(r))] = 1.0
    t1 = axis - (axis @ r) * r
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(r, t1)
    basis = np.column_stack([t1, t2])
    grad2 = basis.T @ grad_amb
    hess2 = basis.T @ hess_amb @ basis - (r @ grad_amb) * np.eye(2)
    return grad2, hess2, basis


def critical_amplitude(r: np.ndarray, par: KickedTopParams, j: float):
    """Stationary-phase amplitude and index at a critical Bloch point.

    A_c = 1 / (2 pi j sqrt|det H_R|) with H_R the Riemannian Hessian of
    qel_grad_hess; beta = +2 / -2 / 0 for maximum / minimum / saddle, from
    the signature of H_R.  Returns (amplitude, beta, det H_R).
    """
    return _amplitude_index(qel_grad_hess(r, par)[1], j, r)


def _amplitude_index(hess: np.ndarray, j: float, r: np.ndarray):
    det = float(np.linalg.det(hess))
    if abs(det) < 1e-14:
        raise ArithmeticError(f"degenerate Hessian at r = {r}: |det H_R| = {abs(det):.3e}")
    evals = np.linalg.eigvalsh(hess)
    if evals[0] > 0:
        beta = -2  # positive definite: minimum
    elif evals[1] < 0:
        beta = 2  # negative definite: maximum
    else:
        beta = 0
    amp = 1.0 / (2.0 * np.pi * j * np.sqrt(abs(det)))
    return float(amp), int(beta), det


_KIND_BY_BETA = {2: "maximum", -2: "minimum", 0: "saddle"}


def _seed_grid(n_phi: int = 64, n_theta: int = 32) -> np.ndarray:
    theta = np.pi * (np.arange(n_theta) + 0.5) / n_theta
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    tt, pp = np.meshgrid(theta, phi)
    st = np.sin(tt).ravel()
    return np.column_stack([st * np.cos(pp.ravel()), st * np.sin(pp.ravel()), np.cos(tt).ravel()])


def find_critical_points(par: KickedTopParams, j: float) -> CriticalSet:
    """Locate, classify and weight all critical points of E_G.

    Newton refinement in tangent-plane coordinates from a 64 x 32 seed grid;
    duplicates merged within 1e-6.  The regime is "above" iff det H_R < 0 at
    (1, 0, 0), i.e. kappa is above the bifurcation kappa_c ~ p - p^3/12.  The
    census is enforced: {minimum, saddle, maximum, maximum} above,
    {minimum, maximum} below.
    """
    if abs(par.kappa - par.p + par.p * par.kappa**2 / 12.0) < 1e-6:
        raise BifurcationError(
            f"kappa = {par.kappa} is within 1e-6 of the bifurcation kappa - p + p kappa^2/12 = 0 "
            f"(p = {par.p}): degenerate Hessian at (1,0,0)"
        )
    _, hess_x, _ = qel_grad_hess(np.array([1.0, 0.0, 0.0]), par)
    regime = "above" if np.linalg.det(hess_x) < 0 else "below"
    if not par.in_regular_regime:
        warnings.warn("parameters outside the regular regime; critical-point census may fail", stacklevel=2)
    seeds = _seed_grid()
    refined, ok = _kernels.newton_refine(seeds, par.kappa, par.p, 1e-12, 100)
    rest = refined[ok == 1]
    uniq: list[np.ndarray] = []
    while len(rest):
        # keep the first remaining point and drop every duplicate of it
        uniq.append(rest[0])
        rest = rest[np.linalg.norm(rest - rest[0], axis=1) > 1e-6]
    points = []
    for r in uniq:
        r = r / np.linalg.norm(r)
        grad2, hess2, _ = qel_grad_hess(r, par)
        if np.linalg.norm(grad2) > 1e-10:
            continue
        bloch = BlochVector.from_array(r)
        amp, beta, det = _amplitude_index(hess2, j, r)
        e_unf = j * qel_value(bloch, par)
        points.append(
            CriticalPoint(
                kind=_KIND_BY_BETA[beta],
                bloch=bloch,
                stereo=gamma_from_bloch(bloch),
                E_unfolded=float(e_unf),
                eps_folded=float(fold_quasienergy(e_unf, par.omega)),
                beta=beta,
                amplitude=amp,
                hessian_det=det,
            )
        )
    points.sort(key=lambda c: c.E_unfolded)
    kinds = sorted(c.kind for c in points)
    want = ["maximum", "maximum", "minimum", "saddle"] if regime == "above" else ["maximum", "minimum"]
    if kinds != want:
        raise CensusError(f"critical census for regime {regime!r} is {kinds}, expected {want}")
    return CriticalSet(points=tuple(points), regime=regime)


def analytic_doqs(par: KickedTopParams, j: float, grid: np.ndarray) -> DoqsCurve:
    """Stationary-phase DOQS on the given quasienergy grid.

    rho(eps) = T [ 1/2pi + Re sum_c A_c e^{i beta_c pi/4} Li_1(e^{i theta_c}) ]
    with theta_c = (eps - eps_c) T mod 2pi and
    Li_1(e^{i theta}) = -log(2 sin(theta/2)) + i (pi - theta)/2.
    Values at grid points that coincide with a critical quasienergy are
    +/-inf; no clipping here.
    """
    cps = find_critical_points(par, j)
    grid = np.asarray(grid, dtype=float)
    total = np.zeros(len(grid), dtype=complex)
    for c in cps.points:
        theta = np.mod((grid - c.eps_folded) * par.T, 2.0 * np.pi)
        with np.errstate(divide="ignore"):
            li1 = -np.log(2.0 * np.sin(0.5 * theta)) + 0.5j * (np.pi - theta)
        total += c.amplitude * np.exp(0.25j * np.pi * c.beta) * li1
    rho = par.T * (0.5 / np.pi + total.real)
    meta = {"T": par.T, "j": j, "kappa": par.kappa, "p": par.p, "route": "analytic"}
    return DoqsCurve(grid=grid, rho=rho, meta=meta)


def log_divergence_approx(eps, a_s: float, eps_s: float):
    """Leading divergence near the saddle: rho ~ -A_S log|eps - eps_S|."""
    return -a_s * np.log(np.abs(np.asarray(eps) - eps_s))


def jump_magnitude(cp: CriticalPoint) -> float:
    """Signed rho discontinuity at an extremum: +pi A at a minimum, -pi A at
    a maximum (saddles produce the log divergence, not a jump)."""
    if cp.kind == "saddle":
        raise ValueError("saddle points have no jump; they carry the log divergence")
    return -0.5 * cp.beta * np.pi * cp.amplitude


def _one_kick(r: np.ndarray, kappa: float, p: float) -> np.ndarray:
    x, y, z = r
    c, s = np.cos(kappa * z), np.sin(kappa * z)
    x, y = x * c - y * s, x * s + y * c
    cp_, sp_ = np.cos(p), np.sin(p)
    y, z = y * cp_ - z * sp_, z * cp_ + y * sp_
    out = np.array([x, y, z])
    return out / np.linalg.norm(out)


def classical_kick_map(g, par: KickedTopParams):
    """One period of the classical stroboscopic map: twist (rotation about z
    by kappa Z) then kick (rotation about x by p), renormalized.

    Accepts a StereoCoord or a BlochVector and returns the same kind.
    """
    if isinstance(g, BlochVector):
        return BlochVector.from_array(_one_kick(g.as_array(), par.kappa, par.p))
    r = bloch_from_gamma(g).as_array()
    return gamma_from_bloch(BlochVector.from_array(_one_kick(r, par.kappa, par.p)))


def classical_time_average(g0, par: KickedTopParams, steps: int) -> float:
    """Mean of X over steps+1 stroboscopic points starting at g0."""
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    r0 = bloch_from_gamma(g0) if not isinstance(g0, BlochVector) else g0
    arr = np.ascontiguousarray(r0.as_array()[None, :])
    return float(_kernels.orbit_mean_x(arr, par.kappa, par.p, steps)[0])
