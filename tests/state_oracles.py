"""Step-by-step and rotation-based versions of the protocol's state
computations in kickedtop.protocol and kickedtop.spin.

time_averaged_observable steps one state through the Floquet unitary and
adds <Psi(l)|A|Psi(l)> kick by kick; coherent_state rotates |j, j> with an
operator exponential.  The library computes both in closed form, so it must
match these to rounding (up to a global phase for the coherent state).
"""
import numpy as np
from scipy.linalg import eigh

import kickedtop as kt


def stroboscopic_evolve(state0, f, steps):
    """Yield |Psi(l)> = F^l |Psi(0)> for l = 0..steps."""
    nrm = np.linalg.norm(state0)
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError(f"state must be normalized, |psi| = {nrm}")
    psi = state0
    yield psi
    for _ in range(steps):
        psi = f @ psi
        yield psi


def time_averaged_observable(state0, f, a, steps):
    """(steps+1)^-1 sum_l <Psi(l)|A|Psi(l)>, accumulated state by state."""
    acc = 0.0
    for psi in stroboscopic_evolve(state0, f, steps):
        acc += (psi.conj() @ (a @ psi)).real
    return float(acc / (steps + 1))


def coherent_state(sys, g):
    """Rotate the highest-weight J_z eigenstate |j, j> onto the Bloch
    direction of g along the geodesic from the +z pole."""
    ops = kt.build_operators(sys)
    n = kt.bloch_from_gamma(g).as_array()
    top = np.zeros(sys.dim, dtype=complex)
    top[0] = 1.0  # |j, j>, Bloch direction +z
    axis = np.cross([0.0, 0.0, 1.0], n)
    sin_th = np.linalg.norm(axis)
    cos_th = n[2]
    if sin_th < 1e-15:
        if cos_th > 0:
            return top
        axis = np.array([1.0, 0.0, 0.0])  # n = -z: rotate by pi about x
        theta = np.pi
    else:
        axis = axis / sin_th
        theta = np.arctan2(sin_th, cos_th)
    gen = axis[0] * ops.jx + axis[1] * ops.jy + axis[2] * ops.jz
    w, v = eigh(gen)
    u = (v * np.exp(-1j * theta * w)) @ v.conj().T
    return u @ top
