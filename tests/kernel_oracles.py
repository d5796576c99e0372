"""Per-element loop versions of the kernels in kickedtop._kernels.

These are the scalar loops the vectorized kernels were written from.  They
keep the same floating-point operations in the same order, one seed, orbit
or grid point at a time, so the kernels must reproduce them bit for bit.
"""
import numpy as np


def orbit_mean_x(r0, kappa, p, steps):
    """Time average of X over steps+1 stroboscopic points of the classical map.

    r0 is (n, 3) of unit Bloch vectors; one period is the twist (rotation
    about z by kappa*Z) followed by the kick (rotation about x by p), with a
    renormalization per period to hold |R| = 1.
    """
    n = r0.shape[0]
    out = np.empty(n)
    cp = np.cos(p)
    sp = np.sin(p)
    for i in range(n):
        x = r0[i, 0]
        y = r0[i, 1]
        z = r0[i, 2]
        acc = x
        for _ in range(steps):
            c = np.cos(kappa * z)
            s = np.sin(kappa * z)
            x, y = x * c - y * s, x * s + y * c
            y, z = y * cp - z * sp, z * cp + y * sp
            nrm = np.sqrt(x * x + y * y + z * z)
            x /= nrm
            y /= nrm
            z /= nrm
            acc += x
        out[i] = acc / (steps + 1)
    return out


def qel_ambient(x, y, z, kappa, p):
    """Value, gradient and Hessian of E_G extended to ambient (X, Y, Z).

    E_G = (kappa/2) Z^2 + p X h(kappa Z) - (kappa p / 2) Z Y with
    h(t) = (t/2) cot(t/2).  Series used for |t| < 1e-2 where the direct form
    cancels; the series truncation error there is below 1e-16.
    """
    t = kappa * z
    if abs(t) < 1e-2:
        t2 = t * t
        h = 1.0 - t2 / 12.0 - t2 * t2 / 720.0 - t2 * t2 * t2 / 30240.0
        h1 = -t / 6.0 - t * t2 / 180.0 - t * t2 * t2 / 5040.0
        h2 = -1.0 / 6.0 - t2 / 60.0 - t2 * t2 / 1008.0
    else:
        ct = np.cos(0.5 * t) / np.sin(0.5 * t)
        h = 0.5 * t * ct
        # h'(t) = ct/2 - t (1 + ct^2) / 4, h''(t) from differentiating again
        h1 = 0.5 * ct - 0.25 * t * (1.0 + ct * ct)
        h2 = -0.5 * (1.0 + ct * ct) + 0.25 * t * ct * (1.0 + ct * ct)
    val = 0.5 * kappa * z * z + p * x * h - 0.5 * kappa * p * z * y
    gx = p * h
    gy = -0.5 * kappa * p * z
    gz = kappa * z + p * x * kappa * h1 - 0.5 * kappa * p * y
    hxz = p * kappa * h1
    hyz = -0.5 * kappa * p
    hzz = kappa + p * x * kappa * kappa * h2
    return val, gx, gy, gz, hxz, hyz, hzz


def newton_refine(seeds, kappa, p, tol, maxit):
    """Riemannian Newton for critical points of E_G on the unit sphere.

    seeds is (n, 3); returns refined points (n, 3) and a uint8 convergence
    flag per seed (projected gradient norm < tol).  Steps are taken in the
    tangent plane and retracted by normalization, so the chart pole at
    (-1, 0, 0) needs no special casing.
    """
    n = seeds.shape[0]
    out = np.empty_like(seeds)
    ok = np.zeros(n, dtype=np.uint8)
    for i in range(n):
        x = seeds[i, 0]
        y = seeds[i, 1]
        z = seeds[i, 2]
        good = False
        for _ in range(maxit):
            _, gx, gy, gz, hxz, hyz, hzz = qel_ambient(x, y, z, kappa, p)
            # tangent basis: project out the least-aligned axis, complete by cross product
            if abs(x) <= abs(y) and abs(x) <= abs(z):
                ax, ay, az = 1.0, 0.0, 0.0
            elif abs(y) <= abs(z):
                ax, ay, az = 0.0, 1.0, 0.0
            else:
                ax, ay, az = 0.0, 0.0, 1.0
            d = ax * x + ay * y + az * z
            t1x = ax - d * x
            t1y = ay - d * y
            t1z = az - d * z
            t1n = np.sqrt(t1x * t1x + t1y * t1y + t1z * t1z)
            t1x /= t1n
            t1y /= t1n
            t1z /= t1n
            t2x = y * t1z - z * t1y
            t2y = z * t1x - x * t1z
            t2z = x * t1y - y * t1x
            g1 = t1x * gx + t1y * gy + t1z * gz
            g2 = t2x * gx + t2y * gy + t2z * gz
            if np.sqrt(g1 * g1 + g2 * g2) < tol:
                good = True
                break
            rg = x * gx + y * gy + z * gz
            # tangent Hessian: T^t (ambient Hessian) T - (r . grad) I
            # ambient Hessian has only xz, yz, zz nonzero entries
            ht1x = hxz * t1z
            ht1y = hyz * t1z
            ht1z = hxz * t1x + hyz * t1y + hzz * t1z
            ht2x = hxz * t2z
            ht2y = hyz * t2z
            ht2z = hxz * t2x + hyz * t2y + hzz * t2z
            h11 = t1x * ht1x + t1y * ht1y + t1z * ht1z - rg
            h12 = t1x * ht2x + t1y * ht2y + t1z * ht2z
            h22 = t2x * ht2x + t2y * ht2y + t2z * ht2z - rg
            det = h11 * h22 - h12 * h12
            if abs(det) < 1e-30:
                break
            s1 = (-g1 * h22 + g2 * h12) / det
            s2 = (-g2 * h11 + g1 * h12) / det
            sn = np.sqrt(s1 * s1 + s2 * s2)
            if sn > 0.5:
                s1 *= 0.5 / sn
                s2 *= 0.5 / sn
            x = x + s1 * t1x + s2 * t2x
            y = y + s1 * t1y + s2 * t2y
            z = z + s1 * t1z + s2 * t2z
            nrm = np.sqrt(x * x + y * y + z * z)
            x /= nrm
            y /= nrm
            z /= nrm
        out[i, 0] = x
        out[i, 1] = y
        out[i, 2] = z
        ok[i] = 1 if good else 0
    return out, ok


def trace_series_rho(tn, grid, sigma, T, dim):
    """Gaussian-damped trace series for the DOQS.

    rho(eps) = T/2pi + (T/(pi*dim)) * sum_n exp(-n^2 sigma^2/2) Re[t_n e^{i n eps T}]
    with tn = (t_1, ..., t_nmax) complex.
    """
    nmax = tn.shape[0]
    npts = grid.shape[0]
    rho = np.empty(npts)
    damp = np.empty(nmax)
    for m in range(nmax):
        nn = m + 1.0
        damp[m] = np.exp(-0.5 * nn * nn * sigma * sigma)
    base = T / (2.0 * np.pi)
    pref = T / (np.pi * dim)
    for k in range(npts):
        acc = 0.0
        for m in range(nmax):
            ph = (m + 1.0) * grid[k] * T
            acc += damp[m] * (tn[m].real * np.cos(ph) - tn[m].imag * np.sin(ph))
        rho[k] = base + pref * acc
    return rho
