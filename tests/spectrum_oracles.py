"""Dense reference versions of the spectral computations in kickedtop.floquet
and kickedtop.effective.

floquet_quasienergies runs one complex Schur form of the whole Floquet
matrix, without the parity blocks; effective_spectrum runs the dense
Hermitian eigensolver on H_E, without the phase gauge and the tridiagonal
solver; match_spectra scores every cyclic shift in one n x n table.  The
library must match the first two to rounding and the third bit for bit.
"""
import numpy as np
from scipy.linalg import eigh, schur

import kickedtop as kt


def floquet_quasienergies(f, T=1.0):
    """-arg of the eigenvalues of f over T, ascending."""
    t, _ = schur(f, output="complex")
    return np.sort(-np.angle(np.diag(t)) / T)


def effective_spectrum(h):
    """Ascending eigenvalues and eigenvectors of a dense Hermitian h."""
    return eigh(h)


def match_spectra(exact, eff):
    """(best shift, pairing, circular distances of the best shift)."""
    omega = exact.omega
    eps = np.sort(exact.quasienergies)
    order = np.argsort(eff.folded)
    fs = eff.folded[order]
    n = len(eps)
    idx = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n  # row k: fs rotated by k
    dists = kt.circular_distance(fs[idx], eps[None, :], omega)
    best = int(np.argmin(dists.sum(axis=1)))
    pairing = np.empty(n, dtype=int)
    pairing[order] = np.mod(np.arange(n) - best, n)
    return best, pairing, dists[best]
