"""Mode magnetization, stroboscopic averaging, and the measurement protocol."""
import numpy as np
import pytest

import kickedtop as kt
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


def test_stroboscopic_norms(spec40, ops40, par40):
    f = kt.build_floquet(ops40, par40)
    g = rng(3)
    psi0 = g.normal(size=81) + 1j * g.normal(size=81)
    psi0 /= np.linalg.norm(psi0)
    states = list(kt.stroboscopic_evolve(psi0, f, 12))
    assert len(states) == 13
    assert np.allclose([np.linalg.norm(s) for s in states], 1.0, atol=1e-12)
    assert states[0] is psi0
    with pytest.raises(ValueError):
        next(kt.stroboscopic_evolve(2.0 * psi0, f, 1))


def test_time_average_matches_diagonal_ensemble(spec40, ops40, par40):
    # off-diagonal terms dephase: the K-step average approaches the diagonal
    # ensemble of the initial state
    f = kt.build_floquet(ops40, par40)
    a = ops40.jx / ops40.j
    psi0 = kt.coherent_state(kt.SpinSystem(40.0), kt.StereoCoord(0.4 + 0.1j))
    got = kt.time_averaged_observable(psi0, f, a, 700)
    amp2 = np.abs(spec40.modes.conj().T @ psi0) ** 2
    diag = np.einsum("ia,ij,ja->a", spec40.modes.conj(), a, spec40.modes).real
    assert abs(got - amp2 @ diag) < 1e-2


def test_time_average_eigenstate_is_constant(spec40, ops40, par40):
    f = kt.build_floquet(ops40, par40)
    a = ops40.jx / ops40.j
    mode = np.ascontiguousarray(spec40.modes[:, 17])
    got = kt.time_averaged_observable(mode, f, a, 40)
    expect = (mode.conj() @ (a @ mode)).real
    assert abs(got - expect) < 1e-12


def test_participation_ratio(spec40):
    assert abs(kt.participation_ratio(spec40.modes[:, 5].copy(), spec40.modes) - 1.0) < 1e-9
    m = 7
    psi = spec40.modes[:, :m].sum(axis=1) / np.sqrt(m)
    assert abs(kt.participation_ratio(psi, spec40.modes) - m) < 1e-9


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
