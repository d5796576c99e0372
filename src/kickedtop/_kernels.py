"""Hot numerical loops, written once in numpy and vectorized over their batch axis.

Each kernel runs its independent rows (orbits, Newton seeds, grid points) side
by side as arrays and keeps the floating-point operations of the per-element
loop in the same order, so a batch gives bit for bit what its rows give one at
a time.  The loop versions live in tests/kernel_oracles.py as the reference.
"""
import numpy as np

__all__ = [
    "USING_NUMBA",
    "orbit_mean_x",
    "newton_refine",
    "trace_series_rho",
]

# the kernels are plain numpy; the name stays for tools that report it
USING_NUMBA = False


def orbit_mean_x(r0, kappa, p, steps):
    """Time average of X over steps+1 stroboscopic points of the classical map.

    r0 is (n, 3) of unit Bloch vectors; one period is the twist (rotation
    about z by kappa*Z) followed by the kick (rotation about x by p), with a
    renormalization per period to hold |R| = 1.
    """
    x, y, z = r0[:, 0], r0[:, 1], r0[:, 2]
    acc = x.copy()
    cp = np.cos(p)
    sp = np.sin(p)
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
    return acc / (steps + 1)


def qel_ambient(x, y, z, kappa, p):
    """Value, gradient and Hessian of E_G extended to ambient (X, Y, Z).

    E_G = (kappa/2) Z^2 + p X h(kappa Z) - (kappa p / 2) Z Y with
    h(t) = (t/2) cot(t/2).  Series used for |t| < 1e-2 where the direct form
    cancels; the series truncation error there is below 1e-16.  Takes scalars
    or arrays of one shape; hyz is the same for every point.
    """
    t = kappa * z
    small = np.abs(t) < 1e-2
    t2 = t * t
    hs = 1.0 - t2 / 12.0 - t2 * t2 / 720.0 - t2 * t2 * t2 / 30240.0
    hs1 = -t / 6.0 - t * t2 / 180.0 - t * t2 * t2 / 5040.0
    hs2 = -1.0 / 6.0 - t2 / 60.0 - t2 * t2 / 1008.0
    # the direct form at a stand-in t on the series rows, so it never divides by sin(0)
    td = np.where(small, 1.0, t)[()]
    ct = np.cos(0.5 * td) / np.sin(0.5 * td)
    # h'(t) = ct/2 - t (1 + ct^2) / 4, h''(t) from differentiating again
    hd = 0.5 * td * ct
    hd1 = 0.5 * ct - 0.25 * td * (1.0 + ct * ct)
    hd2 = -0.5 * (1.0 + ct * ct) + 0.25 * td * ct * (1.0 + ct * ct)
    h, h1, h2 = np.where(small, (hs, hs1, hs2), (hd, hd1, hd2))
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
    (-1, 0, 0) needs no special casing.  A seed stops at its own iteration:
    when it converges, or when its tangent Hessian is singular (|det| < 1e-30).
    """
    out = seeds.copy()
    x, y, z = out[:, 0], out[:, 1], out[:, 2]  # views: the updates below land in out
    ok = np.zeros(seeds.shape[0], dtype=np.uint8)
    live = np.arange(seeds.shape[0])
    for _ in range(maxit):
        if live.size == 0:
            break
        xs, ys, zs = x[live], y[live], z[live]
        _, gx, gy, gz, hxz, hyz, hzz = qel_ambient(xs, ys, zs, kappa, p)
        # tangent basis: project out the least-aligned axis, complete by cross product
        use_x = (np.abs(xs) <= np.abs(ys)) & (np.abs(xs) <= np.abs(zs))
        use_y = ~use_x & (np.abs(ys) <= np.abs(zs))
        ax = use_x.astype(float)
        ay = use_y.astype(float)
        az = (~use_x & ~use_y).astype(float)
        d = ax * xs + ay * ys + az * zs
        t1x = ax - d * xs
        t1y = ay - d * ys
        t1z = az - d * zs
        t1n = np.sqrt(t1x * t1x + t1y * t1y + t1z * t1z)
        t1x /= t1n
        t1y /= t1n
        t1z /= t1n
        t2x = ys * t1z - zs * t1y
        t2y = zs * t1x - xs * t1z
        t2z = xs * t1y - ys * t1x
        g1 = t1x * gx + t1y * gy + t1z * gz
        g2 = t2x * gx + t2y * gy + t2z * gz
        done = np.sqrt(g1 * g1 + g2 * g2) < tol
        ok[live[done]] = 1
        rg = xs * gx + ys * gy + zs * gz
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
        step = ~done & ~(np.abs(det) < 1e-30)
        g1, g2, h11, h12, h22, det = g1[step], g2[step], h11[step], h12[step], h22[step], det[step]
        s1 = (-g1 * h22 + g2 * h12) / det
        s2 = (-g2 * h11 + g1 * h12) / det
        sn = np.sqrt(s1 * s1 + s2 * s2)
        clip = sn > 0.5
        s1[clip] *= 0.5 / sn[clip]
        s2[clip] *= 0.5 / sn[clip]
        live = live[step]
        xn = xs[step] + s1 * t1x[step] + s2 * t2x[step]
        yn = ys[step] + s1 * t1y[step] + s2 * t2y[step]
        zn = zs[step] + s1 * t1z[step] + s2 * t2z[step]
        nrm = np.sqrt(xn * xn + yn * yn + zn * zn)
        x[live] = xn / nrm
        y[live] = yn / nrm
        z[live] = zn / nrm
    return out, ok


def trace_series_rho(tn, grid, sigma, T, dim):
    """Gaussian-damped trace series for the DOQS.

    rho(eps) = T/2pi + (T/(pi*dim)) * sum_n exp(-n^2 sigma^2/2) Re[t_n e^{i n eps T}]
    with tn = (t_1, ..., t_nmax) complex.  The terms are added one n at a
    time, in order, for all grid points at once.
    """
    nn = np.arange(1, tn.shape[0] + 1, dtype=float)
    damp = np.exp(-0.5 * nn * nn * sigma * sigma)
    acc = np.zeros(grid.shape[0])
    for m in range(tn.shape[0]):
        ph = (m + 1.0) * grid * T
        acc += damp[m] * (tn[m].real * np.cos(ph) - tn[m].imag * np.sin(ph))
    return T / (2.0 * np.pi) + T / (np.pi * dim) * acc
