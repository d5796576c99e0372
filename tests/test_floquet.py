"""Floquet unitary construction, quasienergy folding, traces, symmetry."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import kickedtop as kt
import spectrum_oracles
from conftest import rng


def _ops(j):
    return kt.build_operators(kt.SpinSystem(j))


def test_build_floquet_unitary(ops40, par40):
    F = kt.build_floquet(ops40, par40)
    assert np.max(np.abs(F.conj().T @ F - np.eye(81))) < 1e-12


def test_build_floquet_matches_expm_oracle():
    # brute-force 3x3 product of matrix exponentials
    ops = _ops(1.0)
    par = kt.KickedTopParams(p=0.1, kappa=0.2)
    F = kt.build_floquet(ops, par)
    oracle = expm(-1j * par.p * ops.jx) @ expm(-1j * (par.kappa / 2.0) * ops.jz @ ops.jz)
    assert np.max(np.abs(F - oracle)) < 1e-12


@pytest.mark.parametrize("j", [0.5, 2.5, 7.0, 7.5, 40.0])
def test_kick_matches_expm_oracle(j):
    # integer and half-integer j: with and without |m=0> in the even block
    ops = _ops(j)
    assert np.max(np.abs(kt.floquet_kick(ops, 0.3) - expm(-0.3j * ops.jx))) < 1e-12


def test_pure_kick_limit():
    ops = _ops(1.0)
    spec = kt.diagonalize_floquet(kt.build_floquet(ops, kt.KickedTopParams(p=0.1, kappa=0.0)))
    assert np.allclose(spec.quasienergies, [-0.1, 0.0, 0.1], atol=1e-12)


def test_pure_twist_limit():
    ops = _ops(1.0)
    F = kt.build_floquet(ops, kt.KickedTopParams(p=0.0, kappa=0.2))
    assert np.max(np.abs(F - np.diag(np.diag(F)))) < 1e-15
    spec = kt.diagonalize_floquet(F)
    assert np.allclose(spec.quasienergies, [0.0, 0.1, 0.1], atol=1e-12)


def test_spectrum_invariants(spec40, ops40, par40):
    eps = spec40.quasienergies
    assert np.all(np.diff(eps) >= 0)
    assert eps[0] >= -np.pi and eps[-1] < np.pi
    F = kt.build_floquet(ops40, par40)
    # eigenvalue equation per column
    lam = np.exp(-1j * eps * spec40.T)
    resid = F @ spec40.modes - spec40.modes * lam
    assert np.max(np.abs(resid)) < 1e-10
    u = spec40.modes
    assert np.max(np.abs(u.conj().T @ u - np.eye(81))) < 1e-10


def test_diagonalize_rejects_nonunitary():
    # parity-symmetric (|m> <-> |-m> leaves it unchanged), so the unitarity
    # check is what rejects it
    with pytest.raises(ValueError, match="not unitary"):
        kt.diagonalize_floquet(np.diag([1.0, 0.5, 1.0]))


def test_diagonalize_rejects_asymmetric_unitary(ops40, par40):
    with pytest.raises(ValueError, match="not parity-symmetric"):
        kt.diagonalize_floquet(np.diag([1.0, 1j]))
    # a coupling in one direction only, even to odd or odd to even
    for sign in (1.0, -1.0):
        with pytest.raises(ValueError, match="not parity-symmetric"):
            kt.diagonalize_floquet(np.array([[1.5, -0.5 * sign], [0.5 * sign, 0.5]]))
    q, _ = np.linalg.qr(rng(6).normal(size=(5, 5)) + 1j * rng(7).normal(size=(5, 5)))
    with pytest.raises(ValueError, match="not parity-symmetric"):
        kt.diagonalize_floquet(q)
    # a kick about y breaks the symmetry by about 1e-6 in a cross-block element
    F = kt.build_floquet(ops40, par40)
    tilt = expm(-1e-8j * ops40.jy)
    with pytest.raises(ValueError, match="not parity-symmetric"):
        kt.diagonalize_floquet(tilt @ F)


def test_period_rescaling(ops40, par40):
    # same matrix, different period: eps*T is the invariant eigenphase
    F = kt.build_floquet(ops40, par40)
    e1 = kt.diagonalize_floquet(F, 1.0).quasienergies
    e2 = kt.diagonalize_floquet(F, 2.0).quasienergies
    assert np.allclose(np.sort(e1 * 1.0), np.sort(e2 * 2.0), atol=1e-12)
    assert np.all(np.abs(e2) <= np.pi / 2)


def test_parity_symmetry(spec40, ops40, par40, parity40):
    F = kt.build_floquet(ops40, par40)
    assert np.max(np.abs(F @ parity40 - parity40 @ F)) < 1e-10
    # conjugation by the symmetry leaves the eigenphase set unchanged
    spec_c = kt.diagonalize_floquet(parity40.conj().T @ F @ parity40, par40.T)
    assert np.allclose(spec_c.quasienergies, spec40.quasienergies, atol=1e-10)
    # nondegenerate modes have definite parity
    eps = spec40.quasienergies
    emn = (spec40.modes.conj().T @ parity40 @ spec40.modes).diagonal().real
    isolated = np.ones(len(eps), dtype=bool)
    isolated[1:] &= np.diff(eps) > 1e-6
    isolated[:-1] &= np.diff(eps) > 1e-6
    assert np.all(np.abs(np.abs(emn[isolated]) - 1.0) < 1e-8)


def _circle_mismatch(a, b):
    """Largest circular distance between two ascending phase lists whose cut
    at the zone edge may fall on either side of a pair."""
    return min(np.max(np.abs(kt.fold_quasienergy(np.roll(a, s) - b, 2 * np.pi))) for s in (-1, 0, 1))


@settings(max_examples=60, deadline=None)
@given(
    j=st.integers(1, 60).map(lambda n: n / 2),
    p=st.floats(0.0, 0.3),
    kappa=st.floats(0.0, 1.0),
)
@example(j=7.0, p=0.0, kappa=0.6)  # twist only: +-m degenerate across the blocks
@example(j=7.5, p=0.0, kappa=0.6)
@example(j=12.0, p=0.2, kappa=0.0)  # kick only
@example(j=0.5, p=0.3, kappa=1.0)  # two 1 x 1 blocks
@example(j=1.0, p=0.0, kappa=0.0)  # F = 1
def test_block_spectrum_matches_dense_schur(j, p, kappa):
    ops = _ops(j)
    F = kt.build_floquet(ops, kt.KickedTopParams(p=p, kappa=kappa))
    spec = kt.diagonalize_floquet(F)
    assert _circle_mismatch(spec.quasienergies, spectrum_oracles.floquet_quasienergies(F)) < 1e-10
    q = spec.modes
    assert np.max(np.abs(F @ q - q * np.exp(-1j * spec.quasienergies))) < 1e-10
    assert np.max(np.abs(q.conj().T @ q - np.eye(ops.dim))) < 1e-10
    # every mode is even or odd under the exchange |m> <-> |-m>
    flipped = q[::-1]
    parity_defect = np.minimum(np.abs(flipped - q).max(axis=0), np.abs(flipped + q).max(axis=0))
    assert parity_defect.max() < 1e-10


def test_polish_separates_mirrored_phases():
    # eigenphases in pairs mirrored about phi_0 = atan c inside each parity
    # block: each pair shares one eigenvalue of the Hermitian form, whose
    # eigensolver then returns mixtures that only the polish separates
    g = rng(11)
    dim = 13  # integer j = 6: |m=0> joins the even block
    half = dim // 2
    pairs = np.zeros((dim, dim))
    for k in range(half):
        pairs[[k, dim - 1 - k], k] = np.sqrt(0.5)
        pairs[[k, dim - 1 - k], half + 1 + k] = np.sqrt(0.5) * np.array([1.0, -1.0])
    pairs[half, half] = 1.0
    q = np.zeros((dim, dim), dtype=complex)
    for cols in (slice(0, half + 1), slice(half + 1, dim)):
        n = cols.stop - cols.start
        q[cols, cols], _ = np.linalg.qr(g.normal(size=(n, n)) + 1j * g.normal(size=(n, n)))
    q = pairs @ q
    phi0 = np.arctan(kt.floquet._C)
    offsets = np.array([0.3, 1.1, 2.5, 1e-4, 0.7, 2.0])
    theta = np.concatenate([phi0 + offsets[:3], phi0 - offsets[:3], [phi0 + np.pi],  # even block
                            phi0 + offsets[3:], phi0 - offsets[3:]])  # odd block
    f = (q * np.exp(1j * theta)) @ q.conj().T
    spec = kt.diagonalize_floquet(f)
    assert _circle_mismatch(spec.quasienergies, spectrum_oracles.floquet_quasienergies(f)) < 1e-10
    modes = spec.modes
    assert np.max(np.abs(f @ modes - modes * np.exp(-1j * spec.quasienergies))) < 1e-10


def test_block_spectrum_at_j500():
    ops = _ops(500.0)
    F = kt.build_floquet(ops, kt.KickedTopParams(p=0.1, kappa=0.2))
    spec = kt.diagonalize_floquet(F)
    q = spec.modes
    assert np.max(np.abs(F @ q - q * np.exp(-1j * spec.quasienergies))) < 1e-10
    assert np.max(np.abs(q.conj().T @ q - np.eye(ops.dim))) < 1e-10
    assert abs(np.exp(-1j * spec.quasienergies).sum() - np.trace(F)) < 1e-10


def test_traces_against_matrix_powers():
    ops = _ops(5.0)
    par = kt.KickedTopParams(p=0.1, kappa=0.2)
    F = kt.build_floquet(ops, par)
    tn = kt.floquet_traces(F, 20)
    Fk = np.eye(11, dtype=complex)
    for n in range(1, 21):
        Fk = Fk @ F
        assert abs(tn[n - 1] - np.trace(Fk)) < 1e-10
    assert np.all(np.abs(tn) <= 11 + 1e-12)


def test_traces_large_n(spec40, ops40, par40):
    F = kt.build_floquet(ops40, par40)
    tn = kt.floquet_traces(spec40, 50)
    Fk = np.linalg.matrix_power(F, 50)
    assert abs(tn[-1] - np.trace(Fk)) < 1e-8
    # spectrum object and raw matrix give identical traces
    assert np.allclose(tn, kt.floquet_traces(F, 50), atol=1e-12)


def test_trace_rotation_closed_form():
    # pure kick at j=1: t_1 = sum_m e^{-i p m} = sin(3p/2)/sin(p/2)
    ops = _ops(1.0)
    p = 0.1
    F = kt.build_floquet(ops, kt.KickedTopParams(p=p, kappa=0.0))
    t1 = kt.floquet_traces(F, 1)[0]
    assert abs(t1 - np.sin(1.5 * p) / np.sin(0.5 * p)) < 1e-10
    assert abs(t1.imag) < 1e-12


def test_traces_reject_bad_nmax(spec40):
    with pytest.raises(ValueError):
        kt.floquet_traces(spec40, 0)


def test_params_validation():
    with pytest.raises(ValueError):
        kt.KickedTopParams(p=0.1, kappa=0.2, T=0.0)
    assert kt.KickedTopParams(p=0.1, kappa=0.2).in_regular_regime
    assert not kt.KickedTopParams(p=0.1, kappa=2.5).in_regular_regime
    assert abs(kt.KickedTopParams(p=0.1, kappa=0.2, T=2.0).omega - np.pi) < 1e-15
