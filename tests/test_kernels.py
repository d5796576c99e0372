"""Each kernel reproduces its per-element loop oracle bit for bit, and a batch
gives bit for bit what its rows give one at a time."""
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kernel_oracles as oracle
from conftest import rng
from kickedtop import _kernels
from kickedtop.landscape import _seed_grid

KAPPA, P = 0.2, 0.1


def test_orbit_mean_x_paths_agree():
    g = rng(5)
    r0 = g.normal(size=(8, 3))
    r0 /= np.linalg.norm(r0, axis=1, keepdims=True)
    a = _kernels.orbit_mean_x(r0, KAPPA, P, 500)
    b = oracle.orbit_mean_x(r0, KAPPA, P, 500)
    assert np.array_equal(a, b)


def test_qel_ambient_paths_agree():
    g = rng(6)
    pts = g.normal(size=(40, 3))
    pts[:10, 2] *= 1e-3  # |kappa z| < 1e-2: the series branch
    pts[10, 2] = 0.0
    batch = _kernels.qel_ambient(pts[:, 0], pts[:, 1], pts[:, 2], KAPPA, P)
    for i, (x, y, z) in enumerate(pts):
        b = oracle.qel_ambient(x, y, z, KAPPA, P)
        assert np.array_equal(_kernels.qel_ambient(x, y, z, KAPPA, P), b)
        assert np.array_equal([np.broadcast_to(v, len(pts))[i] for v in batch], b)


def test_newton_refine_paths_agree():
    hand = np.array([[0.9, 0.1, 0.2], [0.0, 0.5, 0.5], [-0.3, 0.3, 0.8]])
    hand /= np.linalg.norm(hand, axis=1, keepdims=True)
    # the full seed grid of the critical-point search, above and below kappa = p
    cases = [(hand, KAPPA, P, 60), (_seed_grid(), KAPPA, P, 100), (_seed_grid(), P, KAPPA, 100)]
    for seeds, kappa, p, maxit in cases:
        pts_a, ok_a = _kernels.newton_refine(seeds, kappa, p, 1e-12, maxit)
        pts_b, ok_b = oracle.newton_refine(seeds, kappa, p, 1e-12, maxit)
        assert np.array_equal(ok_a, ok_b)
        assert np.array_equal(pts_a, pts_b)


def test_trace_series_paths_agree():
    g = rng(8)
    tn = g.normal(size=40) + 1j * g.normal(size=40)
    grid = np.linspace(-np.pi, np.pi, 101)
    a = _kernels.trace_series_rho(tn, grid, 0.02, 1.0, 81.0)
    b = oracle.trace_series_rho(tn, grid, 0.02, 1.0, 81.0)
    assert np.array_equal(a, b)


def _stop_iteration(seeds, kappa, p):
    """Smallest maxit at which each seed reports convergence (101 if none)."""
    stop = np.full(len(seeds), 101)
    for k in range(100, -1, -1):
        stop[_kernels.newton_refine(seeds, kappa, p, 1e-12, k)[1] == 1] = k
    return stop


def test_newton_seeds_stop_at_own_iteration():
    crit, ok = _kernels.newton_refine(np.array([[0.9, 0.1, 0.2]]), KAPPA, P, 1e-12, 100)
    assert ok[0] == 1
    near = crit[0] + 1e-4
    seeds = np.array([crit[0], near / np.linalg.norm(near), [0.6, 0.0, 0.8], [0.0, 0.6, 0.8]])
    stop = _stop_iteration(seeds, KAPPA, P)
    # the converged point stops on its first check, the others later, each its own
    assert stop[0] == 1 and len(set(stop)) == len(stop) and stop.max() <= 100
    pts, ok = _kernels.newton_refine(seeds, KAPPA, P, 1e-12, 100)
    for i in range(len(seeds)):
        pts_i, ok_i = _kernels.newton_refine(seeds[i : i + 1], KAPPA, P, 1e-12, 100)
        assert np.array_equal(pts_i[0], pts[i]) and ok_i[0] == ok[i]


# -- batch = rows, over random batches ---------------------------------------

_kappas = st.floats(0.05, 1.0)
_ps = st.floats(0.05, 1.0)


@st.composite
def _unit_rows(draw, kappa):
    """(n, 3) unit vectors, some with |kappa z| < 1e-2 (the series branch of h)."""
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        phi = draw(st.floats(0.0, 2.0 * np.pi))
        if draw(st.booleans()):
            z = draw(st.floats(-0.9, 0.9)) * 1e-2 / kappa
        else:
            z = draw(st.floats(-1.0, 1.0))
        s = np.sqrt(1.0 - z * z)
        rows.append([s * np.cos(phi), s * np.sin(phi), z])
    return np.array(rows, dtype=float).reshape(-1, 3)


@st.composite
def _kernel_case(draw):
    kappa = draw(_kappas)
    return kappa, draw(_ps), draw(_unit_rows(kappa))


def _assert_rows(kernel, rows, *args):
    batch = kernel(rows, *args)
    for i in range(len(rows)):
        one = kernel(rows[i : i + 1], *args)
        if isinstance(batch, tuple):
            assert all(np.array_equal(b[i], o[0]) for b, o in zip(batch, one))
        else:
            assert np.array_equal(batch[i], one[0])
    return batch


_SERIES_SEEDS = np.array([[1.0, 0.0, 0.0], [0.6, 0.8, 0.0], [-0.8, 0.6, 0.004], [0.0, -1.0, -0.003]])
_SERIES_SEEDS /= np.linalg.norm(_SERIES_SEEDS, axis=1, keepdims=True)


@settings(max_examples=40, deadline=None)
@given(_kernel_case())
@example((KAPPA, P, np.empty((0, 3))))
@example((KAPPA, P, _SERIES_SEEDS))
@example((KAPPA, P, _seed_grid()[::97]))
def test_newton_batch_matches_rows(case):
    kappa, p, seeds = case
    pts, ok = _assert_rows(_kernels.newton_refine, seeds, kappa, p, 1e-12, 100)
    assert pts.shape == seeds.shape and ok.shape == (len(seeds),)


@settings(max_examples=40, deadline=None)
@given(_kernel_case(), st.integers(0, 50))
@example((KAPPA, P, np.empty((0, 3))), 10)
def test_orbit_batch_matches_rows(case, steps):
    kappa, p, r0 = case
    out = _assert_rows(_kernels.orbit_mean_x, r0, kappa, p, steps)
    assert out.shape == (len(r0),)


@settings(max_examples=40, deadline=None)
@given(_kernel_case())
@example((KAPPA, P, np.empty((0, 3))))
@example((KAPPA, P, _SERIES_SEEDS))
def test_qel_ambient_batch_matches_rows(case):
    kappa, p, r = case
    batch = _kernels.qel_ambient(r[:, 0], r[:, 1], r[:, 2], kappa, p)
    for i, (x, y, z) in enumerate(r):
        one = _kernels.qel_ambient(x, y, z, kappa, p)
        assert np.array_equal([np.broadcast_to(v, len(r))[i] for v in batch], one)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.complex_numbers(max_magnitude=10.0), max_size=30),
    st.lists(st.floats(-np.pi, np.pi), max_size=12),
    st.floats(0.0, 0.1),
)
def test_trace_series_batch_matches_rows(tn, grid, sigma):
    tn = np.array(tn, dtype=complex)
    grid = np.array(grid, dtype=float)
    rho = _assert_rows(lambda g: _kernels.trace_series_rho(tn, g, sigma, 1.0, 81.0), grid)
    assert rho.shape == grid.shape
