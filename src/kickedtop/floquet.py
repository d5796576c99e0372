"""One-period Floquet unitary of the kicked top, its quasienergy spectrum,
and traces of its powers.

F = exp(-i p J_x) exp(-i (kappa/2j) J_z^2); quasienergies live in the first
Brillouin zone [-omega/2, omega/2) with omega = 2 pi / T.

Both factors commute with the exchange |m> <-> |-m>, which is the kick parity
exp(-i pi J_x) up to the phase e^{-i pi j} (Haake, Kus and Scharf, Z. Phys.
B 65, 381 (1987)).  Every matrix here is therefore handled as two parity
blocks, on the even and odd combinations (|m> +- |-m>)/sqrt 2 with m > 0;
for integer j, |m=0> joins the even block.  The kick comes from the real
tridiagonal J_x of each block, and diagonalize_floquet accepts only a
parity-symmetric unitary: one whose cross-block elements are all within
1e-9 of zero.

Each unitary block b is diagonalized through the Hermitian matrix
h = (b + b^dag)/2 + c (b - b^dag)/(2i), which commutes with b, so one
Hermitian eigensolver gives common eigenvectors.  The eigenvalues of h are
|1 + ic| cos(theta - phi_0) with phi_0 = atan c: two eigenphases mirrored
about phi_0 share one eigenvalue of h, so their modes come out mixed, and a
Rayleigh-Ritz polish separates them with a small complex Schur form per
cluster of coupled columns.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh, eigh_tridiagonal, schur

from .spin import OperatorSet

__all__ = [
    "KickedTopParams",
    "FloquetSpectrum",
    "floquet_kick",
    "build_floquet",
    "diagonalize_floquet",
    "floquet_traces",
]


@dataclass(frozen=True)
class KickedTopParams:
    """Kick strength p (radians), twist strength kappa, period T."""

    p: float
    kappa: float
    T: float = 1.0

    def __post_init__(self):
        if not self.T > 0:
            raise ValueError(f"T must be positive, got {self.T}")

    @property
    def omega(self) -> float:
        return 2.0 * np.pi / self.T

    @property
    def in_regular_regime(self) -> bool:
        """Advisory: the small-parameter regime where the BCH generator and
        the semiclassical landscape are trustworthy."""
        return abs(self.p) <= 0.3 and abs(self.kappa) <= 1.0


@dataclass(frozen=True)
class FloquetSpectrum:
    """Quasienergies (ascending, in the first zone) and Floquet modes.

    Column alpha of modes satisfies F |mode_alpha> = exp(-i eps_alpha T) |mode_alpha>;
    degenerate eigenphases carry an orthonormalized basis of their subspace.
    From diagonalize_floquet every mode is even or odd under |m> <-> |-m>.
    """

    quasienergies: np.ndarray
    modes: np.ndarray
    T: float = 1.0

    @property
    def omega(self) -> float:
        return 2.0 * np.pi / self.T

    @property
    def dim(self) -> int:
        return len(self.quasienergies)


_HALF = np.sqrt(0.5)
_C = 1.0 / np.sqrt(3.0)  # weight of (b - b^dag)/(2i) in the Hermitian form of a block
_POLISH_TOL = 1e-13  # |Q^dag b Q| off the diagonal above this couples two columns


def _fold(a: np.ndarray):
    """Even block, odd block and largest cross-block element of a.

    Row and column k < n = dim // 2 of a block stand for the pair of basis
    indices k and dim-1-k (m and -m); index n of the even block is |m=0>.
    The quadrants are read through slice views, and each block is the
    parity-symmetric part of a.
    """
    dim = a.shape[0]
    n = dim // 2
    flip = a[::-1, ::-1]
    tl, br = a[:n, :n], flip[:n, :n]  # <k|a|l>, <-k|a|-l>
    tr, bl = a[:n, ::-1][:, :n], a[::-1, :n][:n]  # <k|a|-l>, <-k|a|l>
    s, d = tl + br, tr + bl
    even = np.empty((dim - n, dim - n), dtype=complex)
    even[:n, :n] = 0.5 * (s + d)
    odd = 0.5 * (s - d)
    u, v = tl - br, tr - bl
    defect = 0.5 * max(np.max(np.abs(u - v)), np.max(np.abs(u + v)))
    if dim % 2:
        col, row = a[:, n], a[n]
        even[:n, n] = _HALF * (col[:n] + col[::-1][:n])
        even[n, :n] = _HALF * (row[:n] + row[::-1][:n])
        even[n, n] = a[n, n]
        defect = max(defect, _HALF * np.max(np.abs(col[:n] - col[::-1][:n])),
                     _HALF * np.max(np.abs(row[:n] - row[::-1][:n])))
    return even, odd, float(defect)


def _unfold(q: np.ndarray, even: bool, out: np.ndarray, cols):
    """Write the J_z-basis columns of block vectors q into out[:, cols]."""
    dim = out.shape[0]
    n = dim // 2
    half = _HALF * q[:n]
    out[:n, cols] = half
    out[::-1][:n, cols] = half if even else -half
    if dim % 2:
        out[n, cols] = q[n] if even else 0.0


def _tridiagonal_blocks(ops: OperatorSet):
    """J_x as the (diagonal, off-diagonal) of its even and odd blocks."""
    dim = ops.dim
    n = dim // 2
    off = ops.jx.diagonal(1).real[:n].copy()  # <k|J_x|k+1>; the last is the centre link
    if dim % 2:  # |e_{n-1}> couples to |0> through both |m=1> and |m=-1>
        off[-1] *= np.sqrt(2.0)
        return (np.zeros(n + 1), off), (np.zeros(n), off[:-1])
    centre = np.zeros(n)  # <e_{n-1}|J_x|e_{n-1}> = +-<1/2|J_x|-1/2>
    centre[-1] = off[-1]
    return (centre, off[:-1]), (-centre, off[:-1])


def floquet_kick(ops: OperatorSet, p: float) -> np.ndarray:
    """exp(-i p J_x), from the real tridiagonal J_x of each parity block."""
    blocks = []
    for diag, off in _tridiagonal_blocks(ops):
        w, v = eigh_tridiagonal(diag, off)
        phase = np.exp(-1j * p * w)
        blocks.append((v * phase.real) @ v.T + 1j * ((v * phase.imag) @ v.T))
    even, odd = blocks
    # unfold the two blocks: the top half of rows, then its mirror image
    dim = ops.dim
    n = dim // 2
    kick = np.empty((dim, dim), dtype=complex)
    kick[:n, :n] = 0.5 * (even[:n, :n] + odd)
    kick[:n, ::-1][:, :n] = 0.5 * (even[:n, :n] - odd)
    if dim % 2:
        kick[:n, n] = _HALF * even[:n, n]
        kick[n, :n] = _HALF * even[n, :n]
        kick[n, ::-1][:n] = kick[n, :n]
        kick[n, n] = even[n, n]
    kick[::-1, ::-1][:n] = kick[:n]
    return kick


def _twist_phases(ops: OperatorSet, kappa: float) -> np.ndarray:
    """Diagonal of the twist exp(-i (kappa/2j) J_z^2) in the J_z basis."""
    m = ops.j - np.arange(ops.dim)
    return np.exp(-1j * (kappa / (2.0 * ops.j)) * m**2)


def build_floquet(ops: OperatorSet, par: KickedTopParams) -> np.ndarray:
    """Kick factor times twist factor, in that order.

    The twist is diagonal in the J_z basis, so it multiplies the columns of
    the kick.  A sweep over kappa at fixed p can build the kick once and
    multiply in each twist, as the CLI does.
    """
    f = floquet_kick(ops, par.p)
    f *= _twist_phases(ops, par.kappa)
    return f


def _clusters(g: np.ndarray) -> np.ndarray:
    """Connected-component label of each column of g, where a and b are
    joined when |g_ab| or |g_ba| exceeds _POLISH_TOL.

    Each label is the smallest column index in its component: every pass
    takes the least label among the neighbours, then follows the labels
    once (pointer jumping), until nothing changes.
    """
    rows, cols = np.nonzero(np.abs(g) > _POLISH_TOL)
    label = np.arange(len(g))
    while True:
        low = label.copy()
        np.minimum.at(low, rows, label[cols])
        np.minimum.at(low, cols, label[rows])
        low = low[low]
        if np.array_equal(low, label):
            return label
        label = low


def _block_eig(b: np.ndarray):
    """Eigenvalues and unitary eigenvectors of one unitary block b.

    eigh of h = b (1/2 - ic/2) + b^dag (1/2 + ic/2) gives Q; the Ritz matrix
    G = Q^dag b Q is diagonal up to the columns that h could not separate.
    Each connected cluster of those columns gets one small complex Schur
    form, which for the nearly unitary G restricted to it is diagonal.
    """
    h = b * (0.5 - 0.5j * _C)
    h += (0.5 + 0.5j * _C) * b.conj().T
    _, q = eigh(h, overwrite_a=True, check_finite=False)
    g = q.conj().T @ (b @ q)
    lam = g.diagonal().copy()
    label = _clusters(g)
    roots, counts = np.unique(label, return_counts=True)
    for root in roots[counts > 1]:
        idx = np.flatnonzero(label == root)
        t, z = schur(g[np.ix_(idx, idx)], output="complex")
        lam[idx] = t.diagonal()
        q[:, idx] = q[:, idx] @ z
    return lam, q


def diagonalize_floquet(F: np.ndarray, T: float = 1.0) -> FloquetSpectrum:
    """Quasienergies eps = -arg(lambda)/T sorted ascending, with modes.

    F must commute with the exchange |m> <-> |-m> to within 1e-9 in its
    cross-block elements and be unitary to within 1e-9 in each parity block;
    otherwise ValueError.  Each block is diagonalized by the Hermitian
    eigensolver and the Rayleigh-Ritz polish of _block_eig, whose columns
    are orthonormal to rounding, also through degeneracies.  arg in
    (-pi, pi] makes -arg/T land in [-omega/2, omega/2) directly, so the zone
    is half-open without a separate boundary fix.  Every mode is even or odd
    under the exchange.
    """
    dim = F.shape[0]
    even, odd, defect = _fold(F)
    if defect > 1e-9:
        raise ValueError(f"input is not parity-symmetric: max cross-block |F| = {defect:.3e}")
    blocks = []
    for b in (even, odd):
        unitarity = np.max(np.abs(b.conj().T @ b - np.eye(len(b))))
        if unitarity > 1e-9:
            raise ValueError(f"input is not unitary: max |F^dag F - I| = {unitarity:.3e} in a parity block")
        lam, q = _block_eig(b)
        blocks.append((-np.angle(lam) / T, q))
    eps = np.concatenate([e for e, _ in blocks])
    order = np.argsort(eps, kind="stable")
    column = np.empty(dim, dtype=int)
    column[order] = np.arange(dim)  # where each block eigenvector lands
    modes = np.empty((dim, dim), dtype=complex)
    split = len(even)
    _unfold(blocks[0][1], True, modes, column[:split])
    _unfold(blocks[1][1], False, modes, column[split:])
    return FloquetSpectrum(quasienergies=eps[order], modes=modes, T=T)


def floquet_traces(F, n_max: int, T: float = 1.0) -> np.ndarray:
    """t_n = tr F^n = sum_alpha exp(-i n eps_alpha T), n = 1..n_max.

    Accepts either the unitary matrix or an existing FloquetSpectrum; traces
    are summed from the eigenphases, never by repeated matrix powers.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    spec = F if isinstance(F, FloquetSpectrum) else diagonalize_floquet(F, T)
    n = np.arange(1, n_max + 1)
    return np.exp(-1j * np.outer(n, spec.quasienergies * spec.T)).sum(axis=1)
