"""Quasienergy landscape: values, Riemannian derivatives, critical points,
stationary-phase DOQS, classical map."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import kickedtop as kt
import landscape_oracles
from conftest import rng

# frozen oracle values at j=40, p=0.1, kappa=0.2 (Newton tol 1e-12)
A_S = 0.039722586540572653
A_M_EACH = 0.022936926523306249
A_MIN = 0.022984810197250363
E_MAX = 5.002502362105111
EPS_S = -2.2831853071795862


def kappa_c(p):
    """The bifurcation: the positive root of kappa - p + p kappa^2 / 12."""
    return 6.0 * (np.sqrt(1.0 + p * p / 3.0) - 1.0) / p


def test_qel_anchor_values(par40):
    assert abs(kt.qel_value(kt.BlochVector(1.0, 0.0, 0.0), par40) - 0.1) < 1e-14
    assert abs(kt.qel_value(kt.BlochVector(-1.0, 0.0, 0.0), par40) + 0.1) < 1e-14
    assert abs(kt.qel_value(kt.BlochVector(0.0, 0.0, 1.0), par40) - 0.1) < 1e-14
    with pytest.raises(ValueError):
        kt.qel_value(kt.BlochVector(0.5, 0.0, 0.0), par40)


def test_qel_series_direct_continuity(par40):
    # the kernel switches to a series below |kappa Z| = 1e-2
    for z in (0.0499, 0.0501):
        r = kt.BlochVector(np.sqrt(1 - z * z), 0.0, z)
        lo = kt.qel_value(r, par40)
        hi = kt.qel_value(kt.BlochVector(np.sqrt(1 - (z + 2e-4) ** 2), 0.0, z + 2e-4), par40)
        assert abs(hi - lo) < 1e-5  # smooth across the switch


def test_qel_symmetry_y_z_flip(par40):
    g = rng(7)
    for _ in range(1000):
        v = g.normal(size=3)
        v /= np.linalg.norm(v)
        a = kt.qel_value(kt.BlochVector(*v), par40)
        b = kt.qel_value(kt.BlochVector(v[0], -v[1], -v[2]), par40)
        assert abs(a - b) < 1e-12


def test_qel_cotangent_pole():
    par = kt.KickedTopParams(p=0.1, kappa=2.0 * np.pi)
    with pytest.raises(kt.CotangentPoleError):
        kt.qel_value(kt.BlochVector(0.0, 0.0, 1.0), par)
    assert issubclass(kt.CotangentPoleError, ArithmeticError)


def _geodesic_derivatives(r, v, par, h):
    """First and second central differences of E_G along cos t r + sin t v."""
    e = [kt.qel_value(kt.BlochVector(*(np.cos(t) * r + np.sin(t) * v)), par) for t in (-h, 0.0, h)]
    return (e[2] - e[0]) / (2 * h), (e[2] - 2 * e[1] + e[0]) / (h * h)


@pytest.mark.parametrize("chart", ["primary", "antipodal"])
def test_grad_hess_vs_finite_differences(par40, chart):
    # along a unit-speed geodesic the first derivative is grad . v and the
    # second is v^t H_R v; the points are the centre and eight draws of the
    # stereographic chart, which the antipodal chart maps to -r, so the
    # chart poles (+-1, 0, 0) are ordinary points
    sign = 1.0 if chart == "primary" else -1.0
    g = rng(11)
    gammas = [0j] + [complex(u, v) for u, v in g.normal(scale=1.2, size=(8, 2))]
    for gamma in gammas:
        r = sign * kt.bloch_from_gamma(gamma).as_array()
        grad, hess, basis = kt.qel_grad_hess(r, par40)
        assert np.allclose(basis.T @ basis, np.eye(2), atol=1e-15)
        assert np.allclose(r @ basis, 0.0, atol=1e-15)
        fd_grad, fd_hess = [], np.empty((2, 2))
        for a in range(2):
            fd_grad.append(_geodesic_derivatives(r, basis[:, a], par40, 1e-5)[0])
            fd_hess[a, a] = _geodesic_derivatives(r, basis[:, a], par40, 1e-4)[1]
        diag_p = _geodesic_derivatives(r, (basis[:, 0] + basis[:, 1]) / np.sqrt(2), par40, 1e-4)[1]
        diag_m = _geodesic_derivatives(r, (basis[:, 0] - basis[:, 1]) / np.sqrt(2), par40, 1e-4)[1]
        fd_hess[0, 1] = fd_hess[1, 0] = 0.5 * (diag_p - diag_m)
        assert np.allclose(grad, fd_grad, rtol=1e-6, atol=1e-9)
        assert np.allclose(hess, fd_hess, rtol=1e-6, atol=1e-8)


def test_pole_is_critical(par40):
    x = np.array([1.0, 0.0, 0.0])
    grad, hess, _ = kt.qel_grad_hess(x, par40)
    assert np.max(np.abs(grad)) < 1e-14
    evals = np.linalg.eigvalsh(hess)
    assert evals[0] < 0 < evals[1]  # kappa > kappa_c: saddle
    grad, hess, _ = kt.qel_grad_hess(x, kt.KickedTopParams(p=0.1, kappa=0.05))
    assert np.max(np.abs(grad)) < 1e-14
    assert np.all(np.linalg.eigvalsh(hess) < 0)  # kappa < kappa_c: extremum


@pytest.mark.parametrize("p", [0.01, 0.1, 0.3])
@pytest.mark.parametrize("kappa", [0.05, 0.2, 0.9])
def test_det_at_pole_closed_form(p, kappa):
    # det H_R = -p (kappa - p + p kappa^2 / 12) at (1, 0, 0), since h''(0) = -1/6
    par = kt.KickedTopParams(p=p, kappa=kappa)
    det = np.linalg.det(kt.qel_grad_hess(np.array([1.0, 0.0, 0.0]), par)[1])
    assert abs(det + p * (kappa - p + p * kappa**2 / 12)) < 1e-15


def test_grad_hess_rejects(par40):
    with pytest.raises(ValueError):
        kt.qel_grad_hess(np.array([0.5, 0.0, 0.0]), par40)
    with pytest.raises(ValueError):
        kt.qel_grad_hess(np.array([0.0, 1.0 + 2e-9, 0.0]), par40)
    grad, _, _ = kt.qel_grad_hess(np.array([0.0, 1.0 + 1e-10, 0.0]), par40)
    assert grad.shape == (2,)


def test_census_above_and_below(cps40):
    assert cps40.regime == "above"
    assert sorted(c.kind for c in cps40.points) == ["maximum", "maximum", "minimum", "saddle"]
    low = kt.find_critical_points(kt.KickedTopParams(p=0.1, kappa=0.05), 40.0)
    assert low.regime == "below"
    kinds = sorted(c.kind for c in low.points)
    assert kinds == ["maximum", "minimum"]
    mx = low.by_kind("maximum")[0]
    assert abs(mx.bloch.x - 1.0) < 1e-9 and abs(mx.E_unfolded - 4.0) < 1e-9
    mn = low.minimum
    assert abs(mn.bloch.x + 1.0) < 1e-9 and abs(mn.E_unfolded + 4.0) < 1e-9
    assert mn.stereo.at_infinity


def test_census_flips_across_bifurcation():
    assert len(kt.find_critical_points(kt.KickedTopParams(p=0.1, kappa=0.09), 40.0).points) == 2
    assert len(kt.find_critical_points(kt.KickedTopParams(p=0.1, kappa=0.11), 40.0).points) == 4


@pytest.mark.parametrize("p", [0.01, 0.05, 0.1, 0.2, 0.3])
def test_census_at_kappa_c(p):
    # the saddle survives below kappa = p, down to kappa_c ~ p - p^3/12
    kc = kappa_c(p)
    above = kt.find_critical_points(kt.KickedTopParams(p=p, kappa=kc + 2e-6), 40.0)
    assert above.regime == "above" and len(above.points) == 4
    below = kt.find_critical_points(kt.KickedTopParams(p=p, kappa=kc - 2e-6), 40.0)
    assert below.regime == "below" and len(below.points) == 2


@pytest.mark.parametrize("p", [0.1, 0.3])
def test_census_at_kappa_equal_p(p):
    cps = kt.find_critical_points(kt.KickedTopParams(p=p, kappa=p), 40.0)
    assert cps.regime == "above"
    assert sorted(c.kind for c in cps.points) == ["maximum", "maximum", "minimum", "saddle"]


def test_bifurcation_rejected():
    with pytest.raises(kt.BifurcationError):
        kt.find_critical_points(kt.KickedTopParams(p=0.1, kappa=kappa_c(0.1)), 40.0)
    assert issubclass(kt.BifurcationError, ArithmeticError)


@pytest.mark.parametrize("p", [0.1, 0.3])
@pytest.mark.parametrize("offset", [-5e-7, 0.0, 5e-7])
def test_bifurcation_rejected_near_kappa_c(p, offset):
    with pytest.raises(kt.BifurcationError):
        kt.find_critical_points(kt.KickedTopParams(p=p, kappa=kappa_c(p) + offset), 40.0)


def test_saddle_and_minimum_locations(cps40):
    s = cps40.saddle
    assert abs(s.bloch.x - 1.0) < 1e-9 and abs(s.bloch.y) < 1e-9 and abs(s.bloch.z) < 1e-9
    assert abs(s.E_unfolded - 4.0) < 1e-9
    assert abs(s.eps_folded - EPS_S) < 1e-9
    assert s.beta == 0
    m = cps40.minimum
    assert m.stereo.at_infinity
    assert abs(m.E_unfolded + 4.0) < 1e-9
    assert m.beta == -2


def test_maxima_pair_symmetry(cps40):
    m1, m2 = cps40.maxima
    assert abs(m1.E_unfolded - m2.E_unfolded) < 1e-8
    assert abs(m1.amplitude - m2.amplitude) < 1e-8
    assert abs(m1.bloch.x - m2.bloch.x) < 1e-8
    assert abs(m1.bloch.y + m2.bloch.y) < 1e-8
    assert abs(m1.bloch.z + m2.bloch.z) < 1e-8
    assert abs(m1.E_unfolded - E_MAX) < 1e-9
    assert m1.beta == 2


def test_critical_gradients_vanish(cps40, par40):
    for c in cps40.points:
        grad, _, _ = kt.qel_grad_hess(c.bloch.as_array(), par40)
        assert np.linalg.norm(grad) < 1e-10


def test_amplitudes_and_dets(cps40):
    assert abs(cps40.saddle.amplitude - A_S) < 1e-9
    assert abs(cps40.minimum.amplitude - A_MIN) < 1e-9
    for m in cps40.maxima:
        assert abs(m.amplitude - A_M_EACH) < 1e-9
    for c in cps40.points:
        assert c.amplitude > 0
        if c.kind == "saddle":
            assert c.hessian_det < 0
        else:
            assert c.hessian_det > 0


def test_amplitude_scales_inverse_j(par40, cps40):
    cps80 = kt.find_critical_points(par40, 80.0)
    assert abs(cps80.saddle.amplitude - 0.5 * cps40.saddle.amplitude) < 1e-6 * A_S


def _assert_matches_charts(c, par, j, rtol):
    # each chart whose coordinate |gamma| <= 2 at the point gives the library
    # amplitude and index (farther out the conformal factor^4 buries det)
    amp, beta, det = kt.critical_amplitude(c.bloch.as_array(), par, j)
    g = c.stereo
    charts = []
    if not g.at_infinity and abs(g.gamma) <= 2.0:
        charts.append("primary")
    if g.at_infinity or abs(g.gamma) >= 0.5:
        charts.append("antipodal")
    for chart in charts:
        amp_c, beta_c, det_c, _ = landscape_oracles.chart_amplitude(c.stereo, par, j, chart=chart)
        assert abs(amp - amp_c) <= rtol * amp_c
        assert beta == beta_c == c.beta
        assert np.sign(det) == np.sign(det_c)
    return amp, det


def test_amplitude_chart_invariance(cps40, par40):
    for c in cps40.points:
        amp, det = _assert_matches_charts(c, par40, 40.0, 1e-12)
        assert amp == c.amplitude and det == c.hessian_det
    m1 = cps40.maxima[0]
    det_r = m1.hessian_det
    for chart in ("primary", "antipodal"):
        gamma = m1.stereo.gamma if chart == "primary" else -1.0 / m1.stereo.gamma.conjugate()
        det_c = landscape_oracles.chart_amplitude(m1.stereo, par40, 40.0, chart=chart)[2]
        assert det_c == pytest.approx((2.0 / (1.0 + abs(gamma) ** 2)) ** 4 * det_r, rel=1e-12)


def test_amplitude_degenerate_hessian(par40):
    # bisect the meridian gamma = u in [0.25, 0.5] for a point where det H_R vanishes
    def bloch_at(u):
        return kt.bloch_from_gamma(complex(u, 0.0)).as_array()

    def det_at(u):
        return float(np.linalg.det(kt.qel_grad_hess(bloch_at(u), par40)[1]))

    lo, hi = 0.25, 0.5
    assert det_at(lo) < 0 < det_at(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if det_at(mid) < 0:
            lo = mid
        else:
            hi = mid
        if abs(det_at(mid)) < 1e-15:
            break
    with pytest.raises(ArithmeticError):
        kt.critical_amplitude(bloch_at(mid), par40, 40.0)


@settings(max_examples=12, deadline=None)
@given(
    p=st.floats(0.01, 0.3),
    side=st.sampled_from([-1.0, 1.0]),
    frac=st.floats(0.0, 1.0),
    twice_j=st.integers(1, 1000),
)
def test_census_and_amplitudes_property(p, side, frac, twice_j):
    # kappa at a log-uniform distance in [1e-4, reach] from kappa_c, on
    # either side, with kappa in (0, 1]
    kc = kappa_c(p)
    reach = kc - 1e-3 if side < 0 else 1.0 - kc
    kappa = kc + side * 1e-4 * (reach / 1e-4) ** frac
    j = twice_j / 2
    par = kt.KickedTopParams(p=p, kappa=kappa)
    cps = kt.find_critical_points(par, j)
    kinds = ["maximum", "maximum", "minimum", "saddle"] if side > 0 else ["maximum", "minimum"]
    assert cps.regime == ("above" if side > 0 else "below")
    assert sorted(c.kind for c in cps.points) == kinds
    for c in cps.points:
        assert np.linalg.norm(kt.qel_grad_hess(c.bloch.as_array(), par)[0]) < 1e-10
        _assert_matches_charts(c, par, j, 1e-9)


def test_analytic_doqs_normalization(par40, cps40):
    eps_c = []
    for e in sorted(c.eps_folded for c in cps40.points):
        if not eps_c or e - eps_c[-1] > 1e-9:  # the maxima pair is degenerate
            eps_c.append(e)
    edges = [-np.pi] + [e for e in eps_c for _ in (0, 1)] + [np.pi]
    # integrate between 1e-8-exclusions of the critical energies; the excluded
    # mass is O(1e-7) from the integrable log
    total = 0.0
    delta = 1e-8
    for a, b in zip(edges[::2], edges[1::2]):
        lo = a + (delta if a in eps_c else 0.0)
        hi = b - (delta if b in eps_c else 0.0)
        val, err = quad(lambda e: kt.analytic_doqs(par40, 40.0, np.array([e])).rho[0], lo, hi, limit=400)
        total += val
    assert abs(total - 1.0) < 1e-6


def test_analytic_doqs_log_divergence_shape(par40):
    deltas = np.geomspace(1e-4, 1e-2, 25)
    vals = kt.analytic_doqs(par40, 40.0, EPS_S + deltas).rho
    resid = vals + A_S * np.log(deltas)
    assert np.all(np.isfinite(resid))
    assert np.ptp(resid) < 0.01  # bounded residual: pure log divergence


def test_analytic_doqs_divergence_is_exposed(par40):
    # the library does not clip: values grow without bound approaching the
    # saddle energy and are non-finite exactly on it (consumers mask)
    near = kt.analytic_doqs(par40, 40.0, EPS_S + np.array([1e-6, 1e-9, 1e-12])).rho
    assert np.all(np.isfinite(near)) and np.all(np.diff(near) > 0)
    assert near[-1] > 1.0
    with np.errstate(invalid="ignore"):
        at = kt.analytic_doqs(par40, 40.0, np.array([EPS_S])).rho[0]
    assert not np.isfinite(at)


def test_log_divergence_approx():
    assert kt.log_divergence_approx(1.0 + 0.5, 0.07, 0.5) == 0.0
    assert abs(kt.log_divergence_approx(1e-3, 0.0396, 0.0) - 0.2736) < 2e-4
    assert kt.log_divergence_approx(0.7, 0.04, 0.5) == pytest.approx(
        kt.log_divergence_approx(0.3, 0.04, 0.5), rel=1e-12
    )


def test_jump_magnitude(cps40):
    m = cps40.minimum
    assert abs(kt.jump_magnitude(m) - np.pi * A_MIN) < 1e-12
    assert kt.jump_magnitude(m) > 0
    for mx in cps40.maxima:
        assert abs(kt.jump_magnitude(mx) + np.pi * A_M_EACH) < 1e-12
    with pytest.raises(ValueError):
        kt.jump_magnitude(cps40.saddle)


def test_analytic_jump_consistency(par40, cps40):
    # differencing the analytic curve across each extremal energy reproduces
    # the jump; the smooth background cancels to first order
    off = 1e-4
    m = cps40.minimum
    d = kt.analytic_doqs(par40, 40.0, np.array([m.eps_folded + off, m.eps_folded - off])).rho
    expect = kt.jump_magnitude(m)
    assert abs((d[0] - d[1]) - expect) < 0.05 * abs(expect)
    mx1, mx2 = cps40.maxima
    d = kt.analytic_doqs(par40, 40.0, np.array([mx1.eps_folded + off, mx1.eps_folded - off])).rho
    expect = kt.jump_magnitude(mx1) + kt.jump_magnitude(mx2)  # degenerate pair
    assert abs((d[0] - d[1]) - expect) < 0.05 * abs(expect)


def test_classical_map_fixed_point(par40):
    g = kt.StereoCoord(0j)
    for _ in range(50):
        g = kt.classical_kick_map(g, par40)
    assert abs(g.gamma) < 1e-12
    r = kt.BlochVector(1.0, 0.0, 0.0)
    r = kt.classical_kick_map(r, par40)
    assert isinstance(r, kt.BlochVector)
    assert abs(r.x - 1.0) < 1e-15


def test_classical_map_twist_preserves_z():
    par = kt.KickedTopParams(p=0.0, kappa=0.7)
    r = kt.BlochVector(0.6, 0.0, 0.8)
    for _ in range(100):
        r = kt.classical_kick_map(r, par)
        assert abs(r.z - 0.8) < 1e-12


def test_classical_map_norm_preservation(par40):
    r = kt.BlochVector(0.36, 0.48, 0.8)
    for _ in range(100_000):
        r = kt.classical_kick_map(r, par40)
    assert abs(r.norm() - 1.0) < 1e-12


def _monodromy(par, h=1e-7):
    # linearize the map at (1,0,0) in the (y, z) tangent plane
    cols = []
    for dy, dz in ((h, 0.0), (0.0, h)):
        v = np.array([np.sqrt(1 - dy * dy - dz * dz), dy, dz])
        out = kt.classical_kick_map(kt.BlochVector(*v), par)
        cols.append([out.y / h, out.z / h])
    return np.array(cols).T


def test_stability_flip_across_bifurcation():
    lam = np.linalg.eigvals(_monodromy(kt.KickedTopParams(p=0.1, kappa=0.2)))
    assert np.max(np.abs(lam)) > 1.0 + 1e-4
    lam = np.linalg.eigvals(_monodromy(kt.KickedTopParams(p=0.1, kappa=0.05)))
    assert np.all(np.abs(np.abs(lam) - 1.0) < 1e-4)


def test_classical_time_average(par40):
    assert kt.classical_time_average(kt.StereoCoord(0j), par40, 500) == 1.0
    g = kt.StereoCoord(0.3 + 0.2j)
    x0 = kt.bloch_from_gamma(g).x
    assert abs(kt.classical_time_average(g, par40, 0) - x0) < 1e-15
    with pytest.raises(ValueError):
        kt.classical_time_average(g, par40, -1)
