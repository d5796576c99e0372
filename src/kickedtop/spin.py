"""Collective spin-j operators, spin coherent states, and the stereographic
chart on the Bloch sphere.

Basis convention: the J_z eigenbasis ordered m = j, j-1, ..., -j, so row and
column 0 correspond to m = j.  The stereographic chart is centered at the +x
pole: gamma = 0 maps to the Bloch point (1, 0, 0) and the point at infinity
to (-1, 0, 0).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpinSystem",
    "OperatorSet",
    "BlochVector",
    "StereoCoord",
    "build_operators",
    "bloch_from_gamma",
    "gamma_from_bloch",
    "coherent_state",
]


@dataclass(frozen=True)
class SpinSystem:
    """Total angular momentum j; the Hilbert space dimension is 2j+1."""

    j: float

    def __post_init__(self):
        two_j = 2.0 * self.j
        if self.j <= 0 or abs(two_j - round(two_j)) > 1e-12:
            raise ValueError(f"j must be a positive half-integer, got {self.j}")

    @property
    def dim(self) -> int:
        return int(round(2 * self.j)) + 1

    def m_values(self) -> np.ndarray:
        """Magnetic quantum numbers in basis order, j down to -j."""
        return self.j - np.arange(self.dim)


@dataclass(frozen=True)
class OperatorSet:
    """Dense matrices for J_x, J_y, J_z, J_+/- at fixed j, basis m = j..-j."""

    j: float
    jx: np.ndarray
    jy: np.ndarray
    jz: np.ndarray
    jplus: np.ndarray
    jminus: np.ndarray

    @property
    def dim(self) -> int:
        return self.jx.shape[0]


@dataclass(frozen=True)
class BlochVector:
    x: float
    y: float
    z: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    @staticmethod
    def from_array(r) -> "BlochVector":
        return BlochVector(float(r[0]), float(r[1]), float(r[2]))

    def norm(self) -> float:
        return float(np.sqrt(self.x**2 + self.y**2 + self.z**2))


@dataclass(frozen=True)
class StereoCoord:
    """Point of the gamma chart; at_infinity marks the (-1, 0, 0) pole."""

    gamma: complex = 0j
    at_infinity: bool = False

    @staticmethod
    def infinity() -> "StereoCoord":
        return StereoCoord(0j, True)


def _as_stereo(g) -> StereoCoord:
    if isinstance(g, StereoCoord):
        return g
    return StereoCoord(complex(g))


def build_operators(sys: SpinSystem) -> OperatorSet:
    """Angular momentum matrices; <m+1|J_+|m> = sqrt(j(j+1) - m(m+1))."""
    j = sys.j
    m = sys.m_values()
    dim = sys.dim
    # raising coefficients for source m = m[1:], landing on m+1 = m[:-1]
    cplus = np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1.0))
    jplus = np.zeros((dim, dim), dtype=complex)
    jplus[np.arange(dim - 1), np.arange(1, dim)] = cplus
    jminus = jplus.conj().T
    jx = 0.5 * (jplus + jminus)
    jy = -0.5j * (jplus - jminus)
    jz = np.diag(m.astype(complex))
    return OperatorSet(j=j, jx=jx, jy=jy, jz=jz, jplus=jplus, jminus=jminus)


def bloch_from_gamma(g) -> BlochVector:
    """Stereographic chart centered at the +x pole (point at infinity -> -x)."""
    g = _as_stereo(g)
    if g.at_infinity:
        return BlochVector(-1.0, 0.0, 0.0)
    gamma = g.gamma
    d = 1.0 + abs(gamma) ** 2
    return BlochVector(
        (1.0 - abs(gamma) ** 2) / d,
        2.0 * gamma.imag / d,
        -2.0 * gamma.real / d,
    )


def gamma_from_bloch(r: BlochVector) -> StereoCoord:
    """Inverse chart; rejects non-unit input, maps (-1,0,0) to infinity."""
    nrm = r.norm()
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError(f"Bloch vector must be unit length, |r| = {nrm}")
    if 1.0 + r.x < 1e-12:
        return StereoCoord.infinity()
    return StereoCoord((-r.z + 1j * r.y) / (1.0 + r.x))


def coherent_state(sys: SpinSystem, g) -> np.ndarray:
    """Spin coherent state at chart point g, in closed form.

    With (theta, phi) the polar angles of bloch_from_gamma(g) about +z, the
    amplitude of m = j - k is sqrt(C(2j, k)) cos(theta/2)^(2j-k)
    sin(theta/2)^k e^{i k phi} (Arecchi, Courtens, Gilmore and Thomas,
    Phys. Rev. A 6, 2211 (1972)), evaluated as exp of its logarithm so that
    it stays finite at large j.  Unit norm; <J>/j equals bloch_from_gamma(g)
    up to rounding.
    """
    n = bloch_from_gamma(g).as_array()
    half = 0.5 * np.arctan2(np.hypot(n[0], n[1]), n[2])
    k = np.arange(sys.dim)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, sys.dim)))))  # log k!, k = 0..2j
    log_amp = 0.5 * (log_fact[-1] - log_fact - log_fact[::-1])  # log sqrt(C(2j, k))
    for power, base in ((k[::-1], np.cos(half)), (k, np.sin(half))):
        if base > 0.0:
            log_amp += power * np.log(base)
        else:  # a pole of the z axis: only the power-0 amplitude survives
            log_amp[power > 0] = -np.inf
    state = np.exp(log_amp) * np.exp(1j * np.arctan2(n[1], n[0]) * k)
    return state / np.linalg.norm(state)
