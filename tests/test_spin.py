"""Operator algebra, chart round trips, coherent-state geometry."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kickedtop as kt
import state_oracles
from conftest import rng


@pytest.mark.parametrize("j", [0.5, 1.0, 3.5, 40.0])
def test_commutators_and_casimir(j):
    ops = kt.build_operators(kt.SpinSystem(j))
    eye = np.eye(ops.dim)
    for a, b, c in ((ops.jx, ops.jy, ops.jz), (ops.jy, ops.jz, ops.jx), (ops.jz, ops.jx, ops.jy)):
        comm = a @ b - b @ a
        assert np.max(np.abs(comm - 1j * c)) < 1e-12
    casimir = ops.jx @ ops.jx + ops.jy @ ops.jy + ops.jz @ ops.jz
    assert np.max(np.abs(casimir - j * (j + 1) * eye)) < 1e-12


def test_ladder_and_hermiticity():
    ops = kt.build_operators(kt.SpinSystem(2.0))
    assert np.max(np.abs(ops.jplus - ops.jminus.conj().T)) == 0.0
    assert np.max(np.abs(ops.jx - ops.jx.conj().T)) == 0.0
    assert np.max(np.abs(ops.jplus - (ops.jx + 1j * ops.jy))) < 1e-15
    # J_+ |j, m> lands on m+1 with amplitude sqrt(j(j+1) - m(m+1))
    m = kt.SpinSystem(2.0).m_values()
    for k in range(1, ops.dim):
        e = np.zeros(ops.dim)
        e[k] = 1.0
        out = ops.jplus @ e
        expect = np.sqrt(2 * 3 - m[k] * (m[k] + 1))
        assert abs(out[k - 1] - expect) < 1e-15


def test_spin_half_is_half_pauli():
    ops = kt.build_operators(kt.SpinSystem(0.5))
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    assert np.allclose(ops.jx, sx / 2, atol=1e-15)
    assert np.allclose(ops.jy, sy / 2, atol=1e-15)
    assert np.allclose(ops.jz, sz / 2, atol=1e-15)


def test_spin_system_validation():
    for bad in (0.0, -1.0, 0.3, 40.2):
        with pytest.raises(ValueError):
            kt.SpinSystem(bad)
    assert kt.SpinSystem(0.5).dim == 2
    assert kt.SpinSystem(40).dim == 81
    assert kt.SpinSystem(1.5).m_values().tolist() == [1.5, 0.5, -0.5, -1.5]


def test_chart_anchor_points():
    r = kt.bloch_from_gamma(0j)
    assert (r.x, r.y, r.z) == (1.0, 0.0, 0.0)
    assert kt.bloch_from_gamma(kt.StereoCoord.infinity()).x == -1.0
    assert kt.gamma_from_bloch(kt.BlochVector(-1.0, 0.0, 0.0)).at_infinity
    assert kt.gamma_from_bloch(kt.BlochVector(1.0, 0.0, 0.0)).gamma == 0j


def test_chart_round_trip():
    g = rng(1)
    for _ in range(200):
        gamma = complex(*g.normal(scale=3.0, size=2))
        r = kt.bloch_from_gamma(gamma)
        assert abs(r.norm() - 1.0) < 1e-12
        back = kt.gamma_from_bloch(r)
        assert not back.at_infinity
        assert abs(back.gamma - gamma) < 1e-9 * (1 + abs(gamma) ** 2)


def test_gamma_from_bloch_rejects_nonunit():
    with pytest.raises(ValueError):
        kt.gamma_from_bloch(kt.BlochVector(0.5, 0.0, 0.0))


def test_coherent_state_mean_spin():
    sys = kt.SpinSystem(7.5)
    ops = kt.build_operators(sys)
    g = rng(2)
    for gamma in [0j, 2.0 + 0j, -0.3 + 1.7j] + [complex(*g.normal(size=2)) for _ in range(10)]:
        psi = kt.coherent_state(sys, gamma)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
        n = kt.bloch_from_gamma(gamma)
        for op, comp in ((ops.jx, n.x), (ops.jy, n.y), (ops.jz, n.z)):
            mean = (psi.conj() @ op @ psi).real
            assert abs(mean - sys.j * comp) < 1e-10


def test_coherent_state_poles():
    sys = kt.SpinSystem(3.0)
    ops = kt.build_operators(sys)
    # chart infinity: Bloch (-1, 0, 0)
    psi = kt.coherent_state(sys, kt.StereoCoord.infinity())
    assert abs((psi.conj() @ ops.jx @ psi).real + 3.0) < 1e-12
    # Bloch -z, where cos(theta/2) vanishes; reach it via gamma = 1 (Z = -1)
    psi = kt.coherent_state(sys, 1.0 + 0j)
    assert abs((psi.conj() @ ops.jz @ psi).real + 3.0) < 1e-12


def test_coherent_overlap_law():
    # |<g1|g2>|^2 = [|1+g1* g2|^2 / ((1+|g1|^2)(1+|g2|^2))]^(2j), any chart center
    sys = kt.SpinSystem(5.0)
    g = rng(3)
    for _ in range(20):
        g1 = complex(*g.normal(size=2))
        g2 = complex(*g.normal(size=2))
        p1 = kt.coherent_state(sys, g1)
        p2 = kt.coherent_state(sys, g2)
        lhs = abs(p1.conj() @ p2) ** 2
        rhs = (abs(1 + g1.conjugate() * g2) ** 2 / ((1 + abs(g1) ** 2) * (1 + abs(g2) ** 2))) ** (2 * sys.j)
        assert abs(lhs - rhs) < 1e-10


@settings(max_examples=60, deadline=None)
@given(
    j=st.integers(1, 80).map(lambda n: n / 2),
    g=st.one_of(
        st.just(kt.StereoCoord.infinity()),  # Bloch -x
        st.just(1.0 + 0j),  # Bloch -z
        st.just(-1.0 + 0j),  # Bloch +z
        st.complex_numbers(max_magnitude=1e3),
    ),
)
@example(j=40.0, g=kt.StereoCoord.infinity())
@example(j=40.0, g=1.0 + 0j)
@example(j=0.5, g=-1.0 + 0j)
def test_coherent_state_matches_rotation(j, g):
    # the closed-form amplitudes equal the rotated |j, j> up to a global phase
    sys = kt.SpinSystem(j)
    got = kt.coherent_state(sys, g)
    ref = state_oracles.coherent_state(sys, g)
    overlap = np.vdot(got, ref)
    assert abs(abs(overlap) - 1.0) < 1e-12
    assert np.max(np.abs(got * (overlap / abs(overlap)) - ref)) < 1e-12


@pytest.mark.parametrize("g", [0.3 - 0.7j, 2.0 + 0j, kt.StereoCoord.infinity(), 1.0 + 0j, -1.0 + 0j])
def test_coherent_state_very_large_j(g):
    # log-form amplitudes stay finite where cos^(2j) and C(2j, k) overflow or underflow
    sys = kt.SpinSystem(5000.0)
    psi = kt.coherent_state(sys, g)
    assert np.all(np.isfinite(psi))
    prob = np.abs(psi) ** 2
    assert abs(prob.sum() - 1.0) < 1e-12
    assert abs(prob @ sys.m_values() / sys.j - kt.bloch_from_gamma(g).z) < 1e-10
