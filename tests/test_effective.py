"""BCH effective Hamiltonian: structure, limits, singularities, spectrum match."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kickedtop as kt
import spectrum_oracles
from conftest import rng
from kickedtop import effective
from kickedtop.effective import SingularMatrixElementError


def test_heff_structure(heff40):
    h = heff40
    assert np.max(np.abs(h - h.conj().T)) < 1e-12
    # tridiagonal: nothing beyond the first off-diagonals
    mask = np.tri(81, k=1) * np.tri(81, k=1).T
    assert np.max(np.abs(h * (1 - mask))) == 0.0
    # diagonal entries (kappa/2j) m^2
    m = 40.0 - np.arange(81)
    assert np.allclose(np.diag(h).real, 0.2 / 80.0 * m**2, atol=1e-15)


def test_kick_only_limit():
    ops = kt.build_operators(kt.SpinSystem(40.0))
    h = kt.build_effective_hamiltonian(ops, kt.KickedTopParams(p=0.1, kappa=1e-12))
    assert np.max(np.abs(h - 0.1 * ops.jx)) < 1e-10
    h0 = kt.build_effective_hamiltonian(ops, kt.KickedTopParams(p=0.1, kappa=0.0))
    assert np.max(np.abs(h0 - 0.1 * ops.jx)) < 1e-15


def test_twist_only_limit():
    ops = kt.build_operators(kt.SpinSystem(40.0))
    par = kt.KickedTopParams(p=0.0, kappa=0.2)
    h = kt.build_effective_hamiltonian(ops, par)
    m = 40.0 - np.arange(81)
    assert np.max(np.abs(h - np.diag(0.2 / 80.0 * m**2))) == 0.0
    eff = kt.effective_spectrum(h, par)
    assert np.allclose(np.sort(0.2 / 80.0 * m**2), eff.unfolded, atol=1e-15)


def test_kappa_continuity_to_kick_limit():
    ops = kt.build_operators(kt.SpinSystem(40.0))
    dists = []
    for kappa in 10.0 ** -np.arange(1, 9):
        h = kt.build_effective_hamiltonian(ops, kt.KickedTopParams(p=0.1, kappa=kappa))
        dists.append(np.max(np.abs(h - 0.1 * ops.jx)))
    assert all(a >= b for a, b in zip(dists, dists[1:]))
    # the diagonal (kappa/2j) m^2 term dominates the distance: 20*kappa at j=40
    assert dists[-1] < 1e-6


def test_singular_matrix_element():
    ops = kt.build_operators(kt.SpinSystem(40.0))
    kappa = float(2.0 * np.pi * 80.0 / 79.0)  # theta_m = 2 pi at m = 39
    with pytest.raises(SingularMatrixElementError) as exc:
        kt.build_effective_hamiltonian(ops, kt.KickedTopParams(p=0.1, kappa=kappa))
    assert exc.value.m == 39
    assert exc.value.l == 1
    assert isinstance(exc.value, ArithmeticError)


def test_effective_spectrum_invariants(heff40, par40):
    eff = kt.effective_spectrum(heff40, par40)
    assert np.all(np.diff(eff.unfolded) >= 0)
    assert np.all(eff.folded >= -np.pi) and np.all(eff.folded < np.pi)
    assert np.allclose(eff.folded, kt.fold_quasienergy(eff.unfolded, par40.omega), atol=1e-15)
    # eigendecomposition reconstructs H_E
    rec = (eff.modes * eff.unfolded) @ eff.modes.conj().T
    assert np.max(np.abs(rec - heff40)) < 1e-10
    resid = heff40 @ eff.modes - eff.modes * eff.unfolded
    assert np.max(np.abs(resid)) < 1e-10


def test_effective_spectrum_rejects_nonhermitian(heff40, par40):
    bad = heff40.copy()
    bad[0, 1] += 1e-3
    with pytest.raises(ValueError):
        kt.effective_spectrum(bad, par40)


@pytest.mark.parametrize("pos", [[(0, 2), (2, 0)], [(0, 2)], [(2, 0)], [(40, 42)], [(80, 0)], [(0, 80)], [(79, 77)]])
def test_effective_spectrum_rejects_nontridiagonal(heff40, par40, pos):
    # one element, or a Hermitian pair, just off the band or in a far corner
    bad = heff40.copy()
    for i, k in pos:
        bad[i, k] = 1e-3
    with pytest.raises(ValueError, match="not tridiagonal"):
        kt.effective_spectrum(bad, par40)


@settings(max_examples=40, deadline=None)
@given(
    j=st.integers(1, 60).map(lambda n: n / 2),
    p=st.floats(0.0, 0.3),
    kappa=st.floats(0.0, 1.0),
)
@example(j=7.0, p=0.0, kappa=0.6)  # diagonal: every gauge phase is 1
@example(j=12.0, p=0.2, kappa=0.0)  # H_E = p J_x
@example(j=0.5, p=0.3, kappa=1.0)
def test_effective_spectrum_matches_dense_eigh(j, p, kappa):
    ops = kt.build_operators(kt.SpinSystem(j))
    par = kt.KickedTopParams(p=p, kappa=kappa)
    h = kt.build_effective_hamiltonian(ops, par)
    eff = kt.effective_spectrum(h, par)
    vals, _ = spectrum_oracles.effective_spectrum(h)
    assert np.max(np.abs(eff.unfolded - vals)) < 1e-10
    v = eff.modes
    assert np.max(np.abs(h @ v - v * eff.unfolded)) < 1e-10
    assert np.max(np.abs(v.conj().T @ v - np.eye(ops.dim))) < 1e-10


def test_level_clustering_near_saddle(heff40, par40):
    # unfolded levels accumulate around E_S = j p = 4.0: the local spacing
    # there is far below the global mean spacing
    eff = kt.effective_spectrum(heff40, par40)
    e = eff.unfolded
    spacing = np.diff(e)
    centers = 0.5 * (e[1:] + e[:-1])
    near = np.abs(centers - 4.0) < 0.2
    assert spacing[near].min() < 0.25 * spacing.mean()


def test_heff_parity_symmetry(heff40, parity40):
    assert np.max(np.abs(heff40 @ parity40 - parity40 @ heff40)) < 1e-10


def test_fold_quasienergy():
    assert kt.fold_quasienergy(0.0, 2 * np.pi) == 0.0
    assert kt.fold_quasienergy(np.pi, 2 * np.pi) == -np.pi  # half-open zone
    assert abs(kt.fold_quasienergy(4.0, 2 * np.pi) - (4.0 - 2 * np.pi)) < 1e-15
    e = np.linspace(-3, 3, 17)
    for k in (-2, -1, 1, 3):
        assert np.allclose(
            kt.fold_quasienergy(e + k * 2 * np.pi, 2 * np.pi),
            kt.fold_quasienergy(e, 2 * np.pi),
            atol=1e-12,
        )
    with pytest.raises(ValueError):
        kt.fold_quasienergy(1.0, 0.0)


@settings(max_examples=200, deadline=None)
@given(e=st.floats(-1e3, 1e3), omega=st.floats(0.1, 10.0))
@example(e=-np.pi - 4e-16, omega=2 * np.pi)  # np.mod rounds up to omega here
@example(e=-np.pi, omega=2 * np.pi)
@example(e=np.pi, omega=2 * np.pi)
@example(e=3 * np.pi, omega=2 * np.pi)
@example(e=-3 * np.pi, omega=2 * np.pi)
@example(e=-0.5 - 1e-16, omega=1.0)
@example(e=1.5, omega=1.0)
def test_fold_quasienergy_half_open_zone(e, omega):
    f = kt.fold_quasienergy(e, omega)
    assert not isinstance(f, np.ndarray)  # scalars stay scalars
    assert -0.5 * omega <= f < 0.5 * omega
    k = np.round((e - f) / omega)
    assert abs(e - f - k * omega) <= 4 * np.spacing(abs(e) + omega)
    assert kt.fold_quasienergy(np.array([e]), omega)[0] == f


def test_circular_distance():
    om = 2 * np.pi
    assert abs(kt.circular_distance(-np.pi + 0.1, np.pi - 0.1, om) - 0.2) < 1e-12
    assert kt.circular_distance(0.3, 0.3, om) == 0.0
    g = np.random.default_rng(5).uniform(-np.pi, np.pi, size=(2, 50))
    d = kt.circular_distance(g[0], g[1], om)
    assert np.all(d <= np.pi + 1e-12)
    assert np.allclose(d, kt.circular_distance(g[1], g[0], om), atol=1e-15)


def test_match_exact_at_kappa_zero():
    ops = kt.build_operators(kt.SpinSystem(40.0))
    par = kt.KickedTopParams(p=0.1, kappa=0.0)
    spec = kt.diagonalize_floquet(kt.build_floquet(ops, par), par.T)
    eff = kt.effective_spectrum(kt.build_effective_hamiltonian(ops, par), par)
    rep = kt.match_spectra(spec, eff)
    assert rep.max_circular_distance < 1e-12
    assert sorted(rep.pairing) == list(range(81))


def test_match_accuracy_monotone_in_kappa():
    # BCH truncation error grows with kappa; frozen reference ratios at
    # j=40, p=0.1: 0.23% (kappa=0.05), 0.94% (0.1), 6.3% (0.2), 16% (0.4)
    ops = kt.build_operators(kt.SpinSystem(40.0))
    ratios = []
    for kappa in (0.05, 0.1, 0.2, 0.4):
        par = kt.KickedTopParams(p=0.1, kappa=kappa)
        spec = kt.diagonalize_floquet(kt.build_floquet(ops, par), par.T)
        eff = kt.effective_spectrum(kt.build_effective_hamiltonian(ops, par), par)
        rep = kt.match_spectra(spec, eff)
        ratios.append(rep.max_circular_distance / (par.omega / 81))
        assert rep.mean_circular_distance <= rep.max_circular_distance
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert ratios[0] < 0.01  # deep regular regime: well under 1% of mean spacing


def test_match_rejects_dimension_mismatch(spec40, par40):
    ops5 = kt.build_operators(kt.SpinSystem(5.0))
    eff = kt.effective_spectrum(kt.build_effective_hamiltonian(ops5, par40), par40)
    with pytest.raises(ValueError):
        kt.match_spectra(spec40, eff)


def test_match_pairing_is_nearest_alignment(spec40, heff40, par40):
    eff = kt.effective_spectrum(heff40, par40)
    rep = kt.match_spectra(spec40, eff)
    # pairing[i] gives the exact-spectrum index for folded effective value i
    d = kt.circular_distance(eff.folded, np.sort(spec40.quasienergies)[rep.pairing], par40.omega)
    assert abs(d.max() - rep.max_circular_distance) < 1e-15
    assert abs(d.mean() - rep.mean_circular_distance) < 1e-15


@pytest.mark.parametrize("rows", [1, 7, effective._MATCH_ROWS])
@pytest.mark.parametrize("n", [2, 81, 300])
def test_match_blocks_equal_one_table(monkeypatch, rows, n):
    # scoring the cyclic shifts block by block changes neither the winning
    # shift nor a single bit of the distances
    monkeypatch.setattr(effective, "_MATCH_ROWS", rows)
    g = rng(n)
    exact = kt.FloquetSpectrum(quasienergies=np.sort(g.uniform(-np.pi, np.pi, n)), modes=None)
    unfolded = np.sort(g.uniform(-9.0, 9.0, n))
    eff = kt.EffectiveSpectrum(unfolded, kt.fold_quasienergy(unfolded, 2 * np.pi), None, 2 * np.pi)
    rep = kt.match_spectra(exact, eff)
    _, pairing, d = spectrum_oracles.match_spectra(exact, eff)
    assert np.array_equal(rep.pairing, pairing)
    assert rep.max_circular_distance == float(d.max())
    assert rep.mean_circular_distance == float(d.mean())


def test_match_at_j5000_in_bounded_memory():
    # n = 10001: an n x n table would take 800 MB per array.  Each effective
    # value sits 0.3 spacings above its exact partner and the top one wraps
    # to the bottom of the zone, so the winning cyclic shift is 1
    import tracemalloc

    n = 10001
    g = rng(11)
    spacing = 2 * np.pi / n
    eps = -np.pi + spacing * (np.arange(n) + 0.75 + 0.2 * g.uniform(size=n))
    perm = g.permutation(n)
    folded = kt.fold_quasienergy(eps[perm] + 0.3 * spacing, 2 * np.pi)
    assert np.count_nonzero(folded < eps[perm]) == 1
    eff = kt.EffectiveSpectrum(None, folded, None, 2 * np.pi)
    exact = kt.FloquetSpectrum(quasienergies=eps, modes=None)
    tracemalloc.start()
    try:
        rep = kt.match_spectra(exact, eff)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(rep.pairing, perm)
    assert abs(rep.max_circular_distance - 0.3 * spacing) < 1e-12
    assert abs(rep.mean_circular_distance - 0.3 * spacing) < 1e-12
    assert peak < 100e6
