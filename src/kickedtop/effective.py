"""BCH effective Hamiltonian of the kicked top, first order in the kick
strength with the twist resummed to all orders.

H_E is tridiagonal in the J_z basis: diagonal (kappa/2j) m^2, superdiagonal
<m+1|H_E|m> = (p/2) sqrt(j(j+1) - m(m+1)) g(theta_m) with
g(theta) = (theta/2)(cot(theta/2) + i) and theta_m = kappa(2m+1)/(2j).
Its eigenvalues are unfolded quasienergies; folding modulo omega compares
them with the exact Floquet spectrum.  A diagonal phase gauge makes H_E real
tridiagonal, so it is solved by scipy.linalg.eigh_tridiagonal.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .floquet import FloquetSpectrum, KickedTopParams
from .spin import OperatorSet

__all__ = [
    "SingularMatrixElementError",
    "EffectiveSpectrum",
    "MatchReport",
    "build_effective_hamiltonian",
    "effective_spectrum",
    "fold_quasienergy",
    "circular_distance",
    "match_spectra",
]


class SingularMatrixElementError(ArithmeticError):
    """theta_m within tolerance of a nonzero multiple of 2 pi, where the
    off-diagonal matrix element of H_E diverges."""

    def __init__(self, m: float, l: int, theta: float):
        self.m = m
        self.l = l
        self.theta = theta
        super().__init__(
            f"singular matrix element: theta_m = {theta:.6g} at m = {m} is within "
            f"1e-9 of 2*pi*{l} (kappa*(2m+1) ~ 4*j*l*pi)"
        )


@dataclass(frozen=True)
class EffectiveSpectrum:
    """Unfolded eigenvalues E_alpha (ascending), their folded copies, modes."""

    unfolded: np.ndarray
    folded: np.ndarray
    modes: np.ndarray
    omega: float


@dataclass(frozen=True)
class MatchReport:
    """Circular-distance statistics of the folded-effective vs exact pairing.

    pairing[a] = alpha assigns sorted folded value a to exact quasienergy
    index alpha; the assignment is the cyclic alignment of the two sorted
    lists that minimizes the total circular distance.
    """

    max_circular_distance: float
    mean_circular_distance: float
    pairing: np.ndarray


def _g_factor(theta: np.ndarray) -> np.ndarray:
    """(theta/2)(cot(theta/2) + i), by series below |theta| = 1e-6."""
    theta = np.asarray(theta, dtype=float)
    out = np.empty(theta.shape, dtype=complex)
    small = np.abs(theta) < 1e-6
    ts = theta[small]
    out[small] = 1.0 + 0.5j * ts - ts**2 / 12.0
    tb = theta[~small]
    out[~small] = 0.5 * tb * (1.0 / np.tan(0.5 * tb) + 1j)
    return out


def build_effective_hamiltonian(ops: OperatorSet, par: KickedTopParams) -> np.ndarray:
    j = ops.j
    dim = ops.dim
    m = j - np.arange(dim)
    theta = par.kappa * (2.0 * m[1:] + 1.0) / (2.0 * j)  # source index m = m[1:]
    # cot pole: kappa(2m+1) within tolerance of 4*j*l*pi, l != 0
    l_near = np.round(theta / (2.0 * np.pi))
    bad = (l_near != 0) & (np.abs(theta - 2.0 * np.pi * l_near) < 1e-9)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise SingularMatrixElementError(m=float(m[1:][k]), l=int(l_near[k]), theta=float(theta[k]))
    h = np.zeros((dim, dim), dtype=complex)
    h[np.arange(dim), np.arange(dim)] = (par.kappa / (2.0 * j)) * m**2
    upper = 0.5 * par.p * np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1.0)) * _g_factor(theta)
    h[np.arange(dim - 1), np.arange(1, dim)] = upper
    h[np.arange(1, dim), np.arange(dim - 1)] = upper.conj()
    return h


_BAND_ROWS = 64  # rows per block of _tridiagonal_band's off-band scan


def _tridiagonal_band(h: np.ndarray):
    """Diagonal, superdiagonal and subdiagonal of h, as views.

    Raises ValueError when an element beyond the first off-diagonals exceeds
    1e-10.  The scan takes _BAND_ROWS rows at a time, so its temporaries are
    O(_BAND_ROWS dim) rather than matrix-sized.
    """
    dim = h.shape[0]
    # row k of this view of the flat matrix runs h[k, k], h[k, k+1], ...,
    # h[k, dim-1], h[k+1, 0], ..., h[k+1, k]: its inner columns are exactly
    # the elements off the band
    rows = np.ravel(h)[:-1].reshape(dim - 1, dim + 1)
    band_defect = max(
        (np.max(np.abs(rows[k:k + _BAND_ROWS, 2:-1]), initial=0.0) for k in range(0, dim - 1, _BAND_ROWS)),
        default=0.0,
    )
    if band_defect > 1e-10:
        raise ValueError(f"H_E not tridiagonal: max |H_ij| with |i - j| > 1 = {band_defect:.3e}")
    return h.diagonal(), h.diagonal(1), h.diagonal(-1)


def effective_spectrum(h: np.ndarray, par: KickedTopParams) -> EffectiveSpectrum:
    """Eigenvalues and modes of a Hermitian tridiagonal h.

    With D = diag(d), d_0 = 1 and d_{k+1} = d_k exp(-i arg h_{k,k+1}),
    D^dag h D is real tridiagonal with off-diagonal |h_{k,k+1}|; its
    eigenvectors V give the modes D V.  Raises ValueError when h has an
    element beyond the first off-diagonals or is not Hermitian, both to
    within 1e-10.
    """
    diag, upper, lower = _tridiagonal_band(h)
    herm_defect = max(np.max(np.abs(diag.imag)), np.max(np.abs(lower - upper.conj())))
    if herm_defect > 1e-10:
        raise ValueError(f"H_E not Hermitian: max |H - H^dag| = {herm_defect:.3e}")
    # a product of unit factors keeps each ratio d_{k+1}/d_k to rounding;
    # angle(0) = 0 gives a zero element the factor 1
    phases = np.cumprod(np.exp(-1j * np.angle(np.concatenate(([1.0], upper)))))
    phases /= np.abs(phases)
    vals, vecs = eigh_tridiagonal(diag.real, np.abs(upper))
    return EffectiveSpectrum(
        unfolded=vals,
        folded=fold_quasienergy(vals, par.omega),
        modes=phases[:, None] * vecs,
        omega=par.omega,
    )


def fold_quasienergy(e, omega: float):
    """Reduce to the first Brillouin zone [-omega/2, omega/2)."""
    if not omega > 0:
        raise ValueError(f"omega must be positive, got {omega}")
    r = np.mod(e + 0.5 * omega, omega)
    # np.mod rounds a result just below omega up to omega itself, which
    # would land on the excluded edge +omega/2; that is the residue 0
    return np.where(r == omega, 0.0, r)[()] - 0.5 * omega


def circular_distance(a, b, omega: float):
    """Distance on the quasienergy circle of circumference omega."""
    return np.abs(fold_quasienergy(np.asarray(a) - np.asarray(b), omega))


_MATCH_ROWS = 64  # cyclic shifts per block of match_spectra's distance table


def match_spectra(exact: FloquetSpectrum, eff: EffectiveSpectrum) -> MatchReport:
    """Align the two folded spectra on the circle and report distances.

    Both lists are sorted on the circle; all cyclic rotation offsets are
    tried and the one with the least total circular distance wins.  The
    offsets are scored _MATCH_ROWS at a time, so the distance table takes
    O(_MATCH_ROWS n) memory rather than O(n^2).
    """
    omega = exact.omega
    eps = np.sort(exact.quasienergies)
    folded = eff.folded
    if len(eps) != len(folded):
        raise ValueError("spectra have different dimensions")
    order = np.argsort(folded)
    fs = folded[order]
    n = len(eps)
    cols = np.arange(n)
    totals = np.empty(n)
    for k0 in range(0, n, _MATCH_ROWS):
        shifts = np.arange(k0, min(k0 + _MATCH_ROWS, n))
        idx = (shifts[:, None] + cols[None, :]) % n  # row k: fs rotated by k
        totals[shifts] = circular_distance(fs[idx], eps[None, :], omega).sum(axis=1)
    best = int(np.argmin(totals))
    pairing = np.empty(n, dtype=int)
    pairing[order] = np.mod(cols - best, n)
    d = circular_distance(fs[(best + cols) % n], eps, omega)
    return MatchReport(
        max_circular_distance=float(d.max()),
        mean_circular_distance=float(d.mean()),
        pairing=pairing,
    )
