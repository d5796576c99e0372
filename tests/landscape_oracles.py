"""Stereographic-chart derivatives of the quasienergy landscape and the
chart form of the stationary-phase amplitude, the reference for
kickedtop.landscape's tangent-plane (Riemannian) derivatives.

The library differentiates E_G in an orthonormal tangent basis of the Bloch
sphere; here the same quantities come from the chain rule through the gamma
chart, A_c = 2 (1 + |gamma_c|^2)^-2 / (pi j sqrt|det H_chart|).  The chart is
conformal with factor 2 / (1 + |gamma|^2), so at a critical point
H_chart = (2 / (1 + |gamma|^2))^2 H_R and both forms give the same amplitude.
"""
import numpy as np

import kickedtop as kt
from kickedtop import _kernels


def chart_jacobians(u: float, v: float):
    """First and second derivatives of the chart map (u, v) -> (X, Y, Z)."""
    d = 1.0 + u * u + v * v
    d2 = d * d
    d3 = d2 * d
    jac = np.array(
        [
            [-4.0 * u / d2, -4.0 * v / d2],
            [-4.0 * u * v / d2, 2.0 / d - 4.0 * v * v / d2],
            [-2.0 / d + 4.0 * u * u / d2, 4.0 * u * v / d2],
        ]
    )
    hx = np.array(
        [
            [-4.0 / d2 + 16.0 * u * u / d3, 16.0 * u * v / d3],
            [16.0 * u * v / d3, -4.0 / d2 + 16.0 * v * v / d3],
        ]
    )
    hy = np.array(
        [
            [-4.0 * v / d2 + 16.0 * u * u * v / d3, -4.0 * u / d2 + 16.0 * u * v * v / d3],
            [-4.0 * u / d2 + 16.0 * u * v * v / d3, -12.0 * v / d2 + 16.0 * v**3 / d3],
        ]
    )
    hz = np.array(
        [
            [12.0 * u / d2 - 16.0 * u**3 / d3, 4.0 * v / d2 - 16.0 * u * u * v / d3],
            [4.0 * v / d2 - 16.0 * u * u * v / d3, 4.0 * u / d2 - 16.0 * u * v * v / d3],
        ]
    )
    return jac, (hx, hy, hz)


def chart_grad_hess(g, par: kt.KickedTopParams, chart: str = "primary"):
    """Gradient and Hessian of E_G in real chart coordinates (u, v).

    chart="primary" is the gamma chart centered at (1, 0, 0); "antipodal" is
    gamma' = -1/gamma*, centered at (-1, 0, 0), whose Bloch map is the point
    reflection of the primary one.  Derivatives are analytic via the chain
    rule on the ambient extension of E_G.
    """
    if isinstance(g, kt.StereoCoord):
        if g.at_infinity:
            raise ValueError("chart derivatives need a finite chart point; use the antipodal chart")
        gamma = g.gamma
    else:
        gamma = complex(g)
    u, v = gamma.real, gamma.imag
    sign = 1.0
    if chart == "antipodal":
        sign = -1.0
    elif chart != "primary":
        raise ValueError(f"unknown chart {chart!r}")
    r = sign * kt.bloch_from_gamma(kt.StereoCoord(gamma)).as_array()
    _, gx, gy, gz, hxz, hyz, hzz = _kernels.qel_ambient(r[0], r[1], r[2], par.kappa, par.p)
    grad_amb = np.array([gx, gy, gz])
    hess_amb = np.array([[0.0, 0.0, hxz], [0.0, 0.0, hyz], [hxz, hyz, hzz]])
    jac, (hx, hy, hz) = chart_jacobians(u, v)
    jac = sign * jac
    grad = jac.T @ grad_amb
    hess = jac.T @ hess_amb @ jac + sign * (gx * hx + gy * hy + gz * hz)
    return grad, hess


def chart_amplitude(g, par: kt.KickedTopParams, j: float, chart: str = None):
    """Stationary-phase amplitude and index at a critical chart point.

    A_c = 2 (1 + |gamma_c|^2)^-2 / (pi j sqrt(|det H|)) with the Hessian in
    real chart coordinates; beta = +2 / -2 / 0 for maximum / minimum / saddle.
    By default a point with |gamma| > 2 (and the point at infinity) is
    evaluated in the antipodal chart.  Returns
    (amplitude, beta, hessian_det, chart).
    """
    g = g if isinstance(g, kt.StereoCoord) else kt.StereoCoord(complex(g))
    if chart is None:
        chart = "antipodal" if (g.at_infinity or abs(g.gamma) > 2.0) else "primary"
    if chart == "antipodal":
        # gamma' = -1/gamma*; the chart's Bloch map is point-reflected
        gamma_c = 0j if g.at_infinity else -1.0 / g.gamma.conjugate()
    else:
        if g.at_infinity:
            raise ValueError("point at infinity requires the antipodal chart")
        gamma_c = g.gamma
    _, hess = chart_grad_hess(gamma_c, par, chart=chart)
    det = float(np.linalg.det(hess))
    if abs(det) < 1e-14:
        raise ArithmeticError(f"degenerate Hessian at gamma = {gamma_c}: |det| = {abs(det):.3e}")
    evals = np.linalg.eigvalsh(hess)
    if evals[0] > 0:
        beta = -2  # positive definite: minimum
    elif evals[1] < 0:
        beta = 2  # negative definite: maximum
    else:
        beta = 0
    amp = 2.0 / (1.0 + abs(gamma_c) ** 2) ** 2 / (np.pi * j * np.sqrt(abs(det)))
    return float(amp), int(beta), det, chart
