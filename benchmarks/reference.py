"""Reference computations the benchmark checks pesinlab against.

Nothing here imports pesinlab.  The maps are written out again from their
definitions, the product24 certificates for unit windows (K = 1) come from
their closed forms, transits from a brute-force scan and weak-* moments from
direct character sums.  Each ``check_*`` function returns a list of problem
strings, empty when the output passes.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

SQRT5 = math.sqrt(5.0)
LAM_U = (3.0 + SQRT5) / 2.0          # eigenvalues of [[2, 1], [1, 1]]
LAM_S = (3.0 - SQRT5) / 2.0
LOG_U = math.log(LAM_U)
LOG_S = math.log(LAM_S)
LOG2 = math.log(2.0)
CAT = ((2, 1), (1, 1))

# Circle factor g(x) = x + B1/(2 pi) sin(2 pi x) + B2/(4 pi) sin(4 pi x), so
# g'(x) = 1 + B1 cos(2 pi x) + B2 cos(4 pi x).  g'(0) = 1/2 and
# g'(1/2) = LAM_U give 1 + B1 + B2 = 1/2 and 1 - B1 + B2 = LAM_U.
G_B2 = (LAM_U + 0.5) / 2.0 - 1.0
G_B1 = -0.5 - G_B2


def torus_diff(a, b):
    """Nearest-representative difference a - b, componentwise in [-1/2, 1/2)."""
    return np.mod(np.asarray(a, float) - np.asarray(b, float) + 0.5, 1.0) - 0.5


def torus_dist(a, b):
    d = torus_diff(a, b)
    return np.sqrt(np.sum(d * d, axis=-1))


def g(x):
    x = np.asarray(x, float)
    y = x + G_B1 / (2.0 * np.pi) * np.sin(2.0 * np.pi * x) \
        + G_B2 / (4.0 * np.pi) * np.sin(4.0 * np.pi * x)
    return np.mod(y, 1.0)


def g_prime(x):
    x = np.asarray(x, float)
    return 1.0 + G_B1 * np.cos(2.0 * np.pi * x) + G_B2 * np.cos(4.0 * np.pi * x)


def cat_step(pts):
    """The cat map on (..., 2) arrays, (y, z) -> (2y + z, y + z) mod 1.

    2y + z and y + z are rounded once, so orbits match any implementation
    that rounds the same sums once, bit for bit.
    """
    pts = np.asarray(pts, float)
    y, z = pts[..., 0], pts[..., 1]
    return np.stack([np.mod(2.0 * y + z, 1.0), np.mod(y + z, 1.0)], axis=-1)


def cat_orbit(p, n):
    """Forward cat orbit in plain floats: (n + 1, 2)."""
    y, z = float(p[0]), float(p[1])
    out = [(y, z)]
    for _ in range(n):
        y, z = (2.0 * y + z) % 1.0, (y + z) % 1.0
        out.append((y, z))
    return np.array(out)


def p24_step(pts):
    """product24 = g x cat on (..., 3) arrays."""
    pts = np.asarray(pts, float)
    return np.concatenate([g(pts[..., :1]), cat_step(pts[..., 1:])], axis=-1)


def p24_orbit(p, n):
    out = np.empty((n + 1, 3))
    out[0] = p
    for t in range(n):
        out[t + 1] = p24_step(out[t])
    return out


def circle_orbits(x0, n):
    """Circle coordinates of n + 1 orbit points for a batch of starts: (n + 1, B)."""
    out = np.empty((n + 1, len(x0)))
    out[0] = x0
    for t in range(n):
        out[t + 1] = g(out[t])
    return out


STEPS = {2: cat_step, 3: p24_step}


# --- product24 block certificates at K = 1, closed form ---------------------
#
# E = circle direction + cat stable direction and F = cat unstable direction,
# so every restricted product is diagonal: the E log norm over steps [s, s+n)
# is max(sum log g'(x_t), n LOG_S) and the F log minimal norm is n LOG_U.


class P24Slacks:
    """Membership slacks of a batch of product24 points at K = 1, horizon L."""

    def __init__(self, x_circle, L):
        logg = np.log(g_prime(circle_orbits(np.asarray(x_circle, float), L)))
        self.L = L
        self.e = np.maximum(logg, LOG_S)                    # steps 0..L
        n = np.arange(1, L + 1)[:, None]
        head_g = np.cumsum(logg[:L], axis=0)                # sum over t < n
        self.avg_e = np.cumsum(self.e[:L], axis=0) / n       # row n-1
        self.head = (np.maximum(head_g, n * LOG_S) - n * LOG_U) / n

    def slacks(self, k, zeta):
        """(contraction, expansion, domination) slacks, each (B,)."""
        sa = -zeta - self.avg_e[k - 1:].max(axis=0)
        window = (self.e[k:] - LOG_U).max(axis=0)
        sc = -2.0 * zeta - np.maximum(self.head[k - 1], window)
        sb = np.full_like(sa, LOG_U - zeta)
        return sa, sb, sc

    def passed(self, k, zeta, margin=0.0):
        """Pass mask; with margin > 0, also the mask of points whose worst
        slack is within margin of 0 (where rounding may decide)."""
        s = np.min(np.stack(self.slacks(k, zeta)), axis=0)
        return s >= 0.0, np.abs(s) < margin

    def min_block_index(self, zeta, margin=0.0):
        """Smallest passing k <= L // 2 per point (0 for none), and a mask of
        points where some k up to that index is within margin of passing."""
        out = np.zeros(self.e.shape[1], dtype=int)
        near = np.zeros(self.e.shape[1], dtype=bool)
        for k in range(1, self.L // 2 + 1):
            ok, close = self.passed(k, zeta, margin)
            todo = out == 0
            near |= todo & close
            out[todo & ok] = k
        return out, near


# --- exponents ------------------------------------------------------------

def p24_fixed_fiber_rates(fiber):
    """Closed-form mean_exponents rates at a fixed circle point (0 or 1/2)."""
    log_g = {0.0: math.log(0.5), 0.5: LOG_U}[fiber]
    e = max(log_g, LOG_S)
    return {"lambda_s_hat": e, "lambda_u_hat": LOG_U,
            "lambda_sup_s_hat": e, "lambda_sup_u_hat": LOG_U,
            "limdom_hat": e - LOG_U}


# --- shadowing ------------------------------------------------------------

def orbit_residual(points, periodic):
    """max |z_{j+1} - f(z_j)| over the solved orbit, with the benchmark's maps."""
    z = np.asarray(points, float)
    step = STEPS[z.shape[1]]
    nxt = np.roll(z, -1, axis=0) if periodic else z[1:]
    cur = z if periodic else z[:-1]
    return float(np.abs(torus_diff(nxt, step(cur))).max())


def chain_deviation(points, segments, periodic):
    """Worst distance between the solved orbit and the stored pseudo-orbit."""
    z = np.asarray(points, float)
    worst, c = 0.0, 0
    for seg in segments:
        idx = np.arange(c, c + len(seg))
        if periodic:
            idx %= len(z)
        worst = max(worst, float(torus_dist(z[idx], seg).max()))
        c += len(seg) - 1
    return worst


def dense_periodic_newton(segments):
    """One Newton step for a periodic cat chain, as a dense cyclic solve."""
    chain = np.vstack([seg[:-1] for seg in segments])
    p = len(chain)
    r = torus_diff(np.roll(chain, -1, axis=0), cat_step(chain)).ravel()
    m = np.zeros((2 * p, 2 * p))
    a = np.array(CAT, float)
    for j in range(p):
        m[2 * j:2 * j + 2, 2 * j:2 * j + 2] = -a
        nxt = 2 * ((j + 1) % p)
        m[2 * j:2 * j + 2, nxt:nxt + 2] += np.eye(2)
    return np.mod(chain + np.linalg.solve(m, -r).reshape(-1, 2), 1.0)


def _mat_pow(a, n):
    out = ((1, 0), (0, 1))
    for _ in range(n):
        out = tuple(tuple(sum(out[i][k] * a[k][j] for k in range(2))
                          for j in range(2)) for i in range(2))
    return out


def cat_periodic_orbit(m, period):
    """The cat orbit of the point z with (A^p - I) z = m, from exact rationals.

    Each of the ``period`` points is rounded once from its exact value, so
    the orbit is periodic to rounding, at any period.
    """
    m0, m1 = int(m[0]), int(m[1])
    ap = _mat_pow(CAT, period)
    a, b = ap[0][0] - 1, ap[0][1]
    c, d = ap[1][0], ap[1][1] - 1
    det = a * d - b * c
    z = (Fraction(d * m0 - b * m1, det), Fraction(-c * m0 + a * m1, det))
    pts = []
    for _ in range(period):
        pts.append([float(v % 1) for v in z])
        z = (2 * z[0] + z[1], z[0] + z[1])
    return np.array(pts)


def lattice_period(i, j, m):
    """Exact period of the lattice point (i, j) / 2^m under the cat map."""
    q = 2 ** m
    y, z, n = i, j, 0
    while True:
        y, z = (2 * y + z) % q, (y + z) % q
        n += 1
        if (y, z) == (i, j):
            return n


# --- specification --------------------------------------------------------

def uncovered(points, centers, radius):
    """Indices of points not strictly inside any ball of the cover."""
    pts = np.asarray(points, float)
    out = []
    for lo in range(0, len(pts), 256):
        d = torus_dist(pts[lo:lo + 256, None, :], centers[None, :, :])
        out.extend((lo + np.flatnonzero(~(d < radius).any(axis=1))).tolist())
    return out


def brute_transit(orbits, centers, radius, i, j, min_n, horizon):
    """Least n >= min_n with orbit[t] in ball j and orbit[t + n] in ball i,
    over all sample orbits (t + n <= horizon); None if no orbit has one."""
    best = None
    for orb in orbits:
        in_j = np.flatnonzero(torus_dist(orb, centers[j]) < radius)
        in_i = np.flatnonzero(torus_dist(orb, centers[i]) < radius)
        for t in in_j.tolist():
            for s in in_i.tolist():
                n = s - t
                if n >= min_n and s <= horizon and (best is None or n < best):
                    best = n
    return best


def character_grid(dim, degree):
    ks = np.stack(np.meshgrid(*[np.arange(-degree, degree + 1)] * dim,
                              indexing="ij"), axis=-1).reshape(-1, dim)
    return ks[np.any(ks != 0, axis=1)]


def character_sums(points, weights, ks):
    """sum_x w(x) exp(2 pi i k.x) for every k, accumulated in complex."""
    out = np.zeros(len(ks), dtype=complex)
    pts = np.asarray(points, float)
    for lo in range(0, len(pts), 2048):
        phase = np.exp(2j * np.pi * (pts[lo:lo + 2048] @ ks.T))
        out += weights[lo:lo + 2048] @ phase
    return out


def weak_star_distance(p1, w1, p2, w2, degree):
    ks = character_grid(p1.shape[1], degree)
    diff = character_sums(p1, w1, ks) - character_sums(p2, w2, ks)
    return float(max(np.abs(diff.real).max(), np.abs(diff.imag).max()))


# --- checks ---------------------------------------------------------------

def check_close(name, got, want, tol):
    if not abs(got - want) <= tol:
        return [f"{name}: got {got!r}, want {want!r} within {tol:g}"]
    return []


def check_shadow(points, segments, periodic, delta, tol):
    """Residual with the benchmark's maps below tol; deviation <= 20 delta."""
    bad = []
    res = orbit_residual(points, periodic)
    if not res < tol:
        bad.append(f"shadow residual {res:.3e} not below {tol:g}")
    dev = chain_deviation(points, segments, periodic)
    if not dev <= 20.0 * delta:
        bad.append(f"shadow deviation {dev:.3e} above 20 delta = {20 * delta:.3e}")
    return bad


def check_transit(orbits, centers, radius, i, j, x_ij, witness, min_n, horizon):
    """A recorded transit X[i, j] is realised by its witness and is minimal."""
    bad = []
    want = brute_transit(orbits, centers, radius, i, j, min_n, horizon)
    got = None if x_ij < 0 else int(x_ij)
    if got != want:
        bad.append(f"transit {j}->{i}: recorded {got}, brute-force scan {want}")
    if got is not None:
        if not torus_dist(witness, centers[j]) < radius:
            bad.append(f"transit {j}->{i}: witness outside ball {j}")
        end = cat_orbit(witness, got)[-1]
        if not torus_dist(end, centers[i]) < radius:
            bad.append(f"transit {j}->{i}: witness does not reach ball {i} in {got}")
    return bad
