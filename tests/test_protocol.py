"""Mode magnetization, stroboscopic averaging, and the measurement protocol."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kickedtop as kt
import state_oracles
from conftest import rng


@pytest.fixture(scope="module")
def modemag40(spec40, ops40, heff40):
    return kt.mode_magnetization(spec40, ops40, heff40)


def test_mode_magnetization_ordering(modemag40):
    assert np.all(np.diff(modemag40.energies) > 0)
    assert len(modemag40.energies) == 81


def test_mode_magnetization_edges(modemag40):
    # lowest mode is localized at the landscape minimum (-1, 0, 0); the top
    # modes hug the maxima pair at x ~ 0.5
    assert modemag40.magnetizations[0] < -0.99
    assert abs(modemag40.magnetizations[-1] - 0.5) < 0.05
    assert modemag40.energies[0] > -4.1 and modemag40.energies[-1] < 5.1
    assert np.all(np.abs(modemag40.magnetizations) <= 1.0 + 1e-12)


@settings(max_examples=30, deadline=None)
@given(
    j=st.integers(1, 150).map(lambda n: n / 2),
    p=st.floats(0.0, 0.3),
    kappa=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(j=64.0, p=0.1, kappa=0.2, seed=0)  # 129 columns: two whole chunks of 64 and one column
@example(j=3.0, p=0.0, kappa=0.0, seed=1)  # H_E = 0: every energy ties
@example(j=0.5, p=0.0, kappa=0.375, seed=41)  # H_E a multiple of 1: every energy ties
def test_mode_magnetization_matches_dense_products(j, p, kappa, seed):
    # random complex columns stand in for the modes
    ops = kt.build_operators(kt.SpinSystem(j))
    h = kt.build_effective_hamiltonian(ops, kt.KickedTopParams(p=p, kappa=kappa))
    g = rng(seed)
    q = g.normal(size=(ops.dim, ops.dim)) + 1j * g.normal(size=(ops.dim, ops.dim))
    q /= np.linalg.norm(q, axis=0)
    mm = kt.mode_magnetization(kt.FloquetSpectrum(np.zeros(ops.dim), q), ops, h)
    energies = np.einsum("ia,ia->a", q.conj(), h @ q).real
    mags = np.einsum("ia,ia->a", q.conj(), ops.jx @ q).real / j
    assert np.max(np.abs(mm.energies - np.sort(energies))) < 1e-10
    # each (energy, magnetization) pair is a dense one; tied energies may
    # come in either order
    gap = np.maximum(np.abs(mm.energies[:, None] - energies), np.abs(mm.magnetizations[:, None] - mags))
    assert np.max(gap.min(axis=1)) < 1e-10


def test_mode_magnetization_rejects_nontridiagonal(spec40, ops40, heff40):
    h = heff40.copy()
    h[0, 2] = h[2, 0] = 1e-6
    with pytest.raises(ValueError, match="not tridiagonal"):
        kt.mode_magnetization(spec40, ops40, h)


def test_stroboscopic_norms(spec40, ops40, par40):
    # the stepping oracle keeps unit norm; the library rejects an
    # unnormalized state or batch column and a negative step count
    f = kt.build_floquet(ops40, par40)
    g = rng(3)
    psi0 = g.normal(size=81) + 1j * g.normal(size=81)
    psi0 /= np.linalg.norm(psi0)
    states = list(state_oracles.stroboscopic_evolve(psi0, f, 12))
    assert len(states) == 13
    assert np.allclose([np.linalg.norm(s) for s in states], 1.0, atol=1e-12)
    assert states[0] is psi0
    a = ops40.jx / ops40.j
    with pytest.raises(ValueError):
        kt.time_averaged_observable(2.0 * psi0, spec40, a, 1)
    with pytest.raises(ValueError):
        kt.time_averaged_observable(np.stack([psi0, 2.0 * psi0], axis=1), spec40, a, 1)
    with pytest.raises(ValueError):
        kt.time_averaged_observable(psi0, spec40, a, -1)


def test_time_average_matches_diagonal_ensemble(spec40, ops40):
    # off-diagonal terms dephase: the K-step average approaches the diagonal
    # ensemble of the initial state
    a = ops40.jx / ops40.j
    psi0 = kt.coherent_state(kt.SpinSystem(40.0), kt.StereoCoord(0.4 + 0.1j))
    got = kt.time_averaged_observable(psi0, spec40, a, 700)
    amp2 = np.abs(spec40.modes.conj().T @ psi0) ** 2
    diag = np.einsum("ia,ij,ja->a", spec40.modes.conj(), a, spec40.modes).real
    assert abs(got - amp2 @ diag) < 1e-2


def test_time_average_eigenstate_is_constant(spec40, ops40):
    a = ops40.jx / ops40.j
    mode = np.ascontiguousarray(spec40.modes[:, 17])
    got = kt.time_averaged_observable(mode, spec40, a, 40)
    expect = (mode.conj() @ (a @ mode)).real
    assert abs(got - expect) < 1e-12


def test_participation_ratio(spec40):
    assert abs(kt.participation_ratio(spec40.modes[:, 5].copy(), spec40.modes) - 1.0) < 1e-9
    m = 7
    psi = spec40.modes[:, :m].sum(axis=1) / np.sqrt(m)
    assert abs(kt.participation_ratio(psi, spec40.modes) - m) < 1e-9
    batch = np.stack([spec40.modes[:, 5], psi], axis=1)
    assert np.allclose(kt.participation_ratio(batch, spec40.modes), [1.0, m], atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    j=st.integers(1, 20).map(lambda n: n / 2),
    p=st.floats(0.0, 0.3),
    kappa=st.floats(0.0, 1.0),
    T=st.sampled_from([0.5, 1.0, 2.0]),
    steps=st.integers(0, 2000),
    n=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
@example(j=3.0, p=0.0, kappa=0.0, T=1.0, steps=2000, n=2, seed=0)  # F = 1: every pair degenerate
@example(j=3.0, p=0.0, kappa=0.7, T=2.0, steps=1, n=1, seed=1)  # twist only: +-m degenerate
@example(j=1.0, p=0.0, kappa=2.225073858507e-311, T=0.5, steps=0, n=1, seed=0)  # subnormal eps differences
@example(j=2.5, p=0.0, kappa=3e-310, T=1.0, steps=2000, n=2, seed=2)
def test_time_average_matches_stepping(j, p, kappa, T, steps, n, seed):
    # the closed-form Dirichlet sum over the Floquet expansion equals the
    # kick-by-kick average, for random normalized batches and observables
    ops = kt.build_operators(kt.SpinSystem(j))
    f = kt.build_floquet(ops, kt.KickedTopParams(p=p, kappa=kappa, T=T))
    spec = kt.diagonalize_floquet(f, T)
    g = rng(seed)
    psi = g.normal(size=(ops.dim, n)) + 1j * g.normal(size=(ops.dim, n))
    psi /= np.linalg.norm(psi, axis=0)
    h = g.normal(size=(ops.dim, ops.dim)) + 1j * g.normal(size=(ops.dim, ops.dim))
    for a in (ops.jx / j, (h + h.conj().T) / (2.0 * np.sqrt(ops.dim))):
        got = kt.time_averaged_observable(psi, spec, a, steps)
        assert got.shape == (n,)
        ref = [state_oracles.time_averaged_observable(psi[:, i], f, a, steps) for i in range(n)]
        assert np.max(np.abs(got - ref)) < 1e-10


def test_time_average_zone_edge_pair():
    # two quasienergies 1e-9 inside either edge of the zone are nearly
    # degenerate phases; the kernel must treat their difference as ~2e-9,
    # not ~2 pi, to stay accurate at large K
    g = rng(4)
    dim, steps = 6, 2000
    # eigenvectors: random bases of the even and odd combinations of
    # |m> and |-m>, so that the unitary is parity-symmetric
    half = dim // 2
    pairs = np.zeros((dim, dim))
    for k in range(half):
        pairs[[k, dim - 1 - k], k] = np.sqrt(0.5)
        pairs[[k, dim - 1 - k], half + k] = np.sqrt(0.5) * np.array([1.0, -1.0])
    q = np.zeros((dim, dim), dtype=complex)
    for cols in (slice(0, half), slice(half, dim)):
        q[cols, cols], _ = np.linalg.qr(g.normal(size=(half, half)) + 1j * g.normal(size=(half, half)))
    q = pairs @ q
    eps = np.array([-np.pi + 1e-9, np.pi - 1e-9, -1.0, 0.2, 0.5, 2.0])
    f = (q * np.exp(-1j * eps)) @ q.conj().T
    spec = kt.diagonalize_floquet(f, 1.0)
    assert spec.quasienergies[0] < -np.pi + 2e-9 and spec.quasienergies[-1] > np.pi - 2e-9
    psi = g.normal(size=dim) + 1j * g.normal(size=dim)
    psi /= np.linalg.norm(psi)
    h = g.normal(size=(dim, dim)) + 1j * g.normal(size=(dim, dim))
    a = h + h.conj().T
    got = kt.time_averaged_observable(psi, spec, a, steps)
    assert abs(got - state_oracles.time_averaged_observable(psi, f, a, steps)) < 1e-10


def test_run_protocol_validation(par40):
    with pytest.raises(ValueError):
        kt.run_protocol(par40, 10.0, "sideways", 5, 200)
    with pytest.raises(ValueError):
        kt.run_protocol(kt.KickedTopParams(p=0.1, kappa=0.05), 10.0, "S->m", 5, 200)
    with pytest.raises(ValueError):
        kt.run_protocol(par40, 10.0, "S->m", 1, 200)
    with pytest.raises(ValueError):
        kt.run_protocol(par40, 10.0, "S->m", 5, -1)
    with pytest.warns(UserWarning):
        kt.run_protocol(par40, 5.0, "S->m", 2, 10)


def test_run_protocol_descending_branch(par40):
    res = kt.run_protocol(par40, 10.0, "S->m", 5, 120)
    assert len(res) == 5
    e = [r.mean_quasienergy for r in res]
    # path sweeps from the saddle energy jp = 1 down to the minimum at -1
    assert abs(e[0] - 1.0) < 0.1
    assert abs(e[-1] + 1.0) < 0.1
    assert np.all(np.diff(e) < 0)
    for r in res:
        assert r.branch == "S->m"
        assert abs(r.bloch0.norm() - 1.0) < 1e-12
        assert -1.0 - 1e-9 <= r.xbar_quantum <= 1.0 + 1e-9
        assert r.participation_ratio >= 1.0
    # quantum and classical averages agree away from the unstable point
    for r in res[1:]:
        assert abs(r.xbar_quantum - r.xbar_classical) < 0.05
    assert res[-1].participation_ratio < 2.0  # near-minimum state is near a mode
