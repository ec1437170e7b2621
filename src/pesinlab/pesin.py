"""Block membership certificates, parameter budgets, and block geometry.

A point belongs to the block with index k (at block size K and rate zeta)
when three families of inequalities hold from k onward: averaged contraction
of the E-restricted products forward, averaged expansion of the F-restricted
minimal norms backward, and domination of E by F both for the head products
and per window.  Certificates report the worst signed slack per family over
a finite horizon.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import systems as dyn
from .cocycle import OrbitData
from .errors import GeometryError
from .shadow import check_positive

__all__ = [
    "PesinParams",
    "BlockCertificate",
    "check_block_membership",
    "check_block_membership_many",
    "min_block_index",
    "HyperbolicityBudget",
    "budget_from_inputs",
    "mean_hyperbolicity_degree",
    "BlockGeometry",
    "min_block_scan_product24",
    "block_geometry_product24",
]


@dataclass(frozen=True)
class PesinParams:
    """Block size K, rate zeta, and block index k."""

    K: int
    zeta: float
    k: int

    def __post_init__(self):
        if self.K < 1 or self.k < 1:
            raise ValueError(f"need K >= 1 and k >= 1, got K={self.K}, k={self.k}")
        check_positive("zeta", self.zeta)


@dataclass(frozen=True)
class BlockCertificate:
    """Worst signed slack per condition family over the tested horizon.

    ``slack_contraction`` covers the forward E averages, ``slack_expansion``
    the backward F averages (None when the system has no inverse; such a
    certificate is marked partial), ``slack_domination`` both the head-ratio
    and per-window-ratio clauses.  All slacks are per-step log rates.
    """

    params: PesinParams
    horizon: int
    slack_contraction: float
    slack_expansion: float | None
    slack_domination: float
    partial: bool = False

    @property
    def passed(self):
        slacks = [self.slack_contraction, self.slack_domination]
        if self.slack_expansion is not None:
            slacks.append(self.slack_expansion)
        return all(s >= 0.0 for s in slacks)

    def to_dict(self):
        record = asdict(self)
        return {**record.pop("params"), **record, "passed": self.passed}


class _BlockTables:
    """Shared precomputation for membership checks on a batch of points.

    Holds, for every admissible (l, r) pair up to the horizon, the averaged
    forward E value, the averaged backward F value, the head ratio per k,
    and suffix extrema of each so that the slack at any k is a table lookup.
    """

    def __init__(self, system, xs, splitting, K, L):
        if K < 1 or L < 2:
            raise ValueError(f"need K >= 1 and horizon >= 2, got K={K}, L={L}")
        self.K, self.L = K, L
        self.invertible = system.invertible
        span = L * K + K
        data = OrbitData(system, xs, splitting, n_fwd=span,
                         n_back=span if system.invertible else 0)
        self.batch = data.batch
        block_e = data.block_logs("e", range(L * K + 1), K)   # start times 0..LK
        block_f = data.block_logs("f", range(L * K + 1), K)
        full_e = data.full_e_logs(span - 1)                   # lengths 0..LK+K-1
        full_f = data.full_f_logs(span - 1)

        B = self.batch
        ls = np.arange(1, L + 1)
        steps = ls[:, None, None] * K + np.arange(K)[None, :, None]  # (L, K, 1)

        # forward E averages: (full_e[r] + sum_{j<l} block_e[r+jK]) / (lK+r)
        a_num = np.empty((L, K, B))
        for r in range(K):
            a_num[:, r, :] = full_e[r] + np.cumsum(block_e[r::K][:L], axis=0)
        a_val = a_num / steps
        self._a_suf = np.flip(np.maximum.accumulate(np.flip(a_val, 0), 0), 0).max(axis=1)

        # head ratios (full products) per k: max over r of (full_e - full_f)/(kK+r)
        n_all = np.arange(1, span)
        c1 = (full_e[1:] - full_f[1:]) / n_all[:, None]
        self._c1_head = c1[K - 1:].reshape(L, K, B).max(axis=1)

        # per-window ratios at every raw step, suffix max over the start time
        c2 = (block_e - block_f) / K
        self._c2_suf = np.flip(np.maximum.accumulate(np.flip(c2, 0), 0), 0)

        if self.invertible:
            # backward F averages: (sum_{j<=l} block at -jK + remainder of
            # length r at -(lK+r)) / (lK+r)
            block_fb = data.block_logs("f", [-j * K for j in range(1, L + 1)], K)
            rs = np.arange(1, K)
            rem = data.block_logs("f", (-(ls[:, None] * K + rs)).ravel(),
                                  np.tile(rs, L))
            b_num = np.empty((L, K, B))
            b_num[:, 0, :] = np.cumsum(block_fb, axis=0)
            b_num[:, 1:, :] = b_num[:, :1, :] + rem.reshape(L, K - 1, B)
            b_val = b_num / steps
            self._b_suf = np.flip(np.minimum.accumulate(np.flip(b_val, 0), 0), 0).min(axis=1)
        else:
            self._b_suf = None

    def slacks(self, k, zeta):
        """Worst slacks (contraction, expansion, domination): arrays (batch,)
        for an int k, (len(k), batch) for an array of k."""
        ks = np.asarray(k)
        if not np.all((1 <= ks) & (ks <= self.L)):
            raise ValueError(f"need 1 <= k <= horizon, got k={k}, horizon={self.L}")
        sa = -zeta - self._a_suf[ks - 1]
        ratio = np.maximum(self._c1_head[ks - 1], self._c2_suf[ks * self.K])
        sc = -2.0 * zeta - ratio
        sb = self._b_suf[ks - 1] - zeta if self.invertible else None
        return sa, sb, sc

    def certificates(self, params):
        sa, sb, sc = self.slacks(params.k, params.zeta)
        return [
            BlockCertificate(
                params=params,
                horizon=self.L,
                slack_contraction=float(sa[b]),
                slack_expansion=None if sb is None else float(sb[b]),
                slack_domination=float(sc[b]),
                partial=not self.invertible,
            )
            for b in range(self.batch)
        ]

    def first_passing_k(self, zeta, k_max):
        """Smallest passing k per batch point (0 where none up to k_max)."""
        sa, sb, sc = self.slacks(np.arange(1, k_max + 1), zeta)
        ok = (sa >= 0.0) & (sc >= 0.0) & (True if sb is None else sb >= 0.0)
        return np.where(ok.any(axis=0), ok.argmax(axis=0) + 1, 0)


def check_block_membership(system, x, splitting, params, horizon):
    """Certificate for one point; see :class:`BlockCertificate`."""
    return check_block_membership_many(
        system, np.asarray(x, dtype=float)[None, :], splitting, params, horizon)[0]


def check_block_membership_many(system, xs, splitting, params, horizon):
    """Batched membership check: one certificate per row of ``xs``."""
    if horizon < params.k + 10:
        raise ValueError(
            f"horizon {horizon} too short for k={params.k}; need at least k + 10")
    tables = _BlockTables(system, xs, splitting, params.K, horizon)
    return tables.certificates(params)


def min_block_index(system, x, splitting, K, zeta, horizon):
    """Smallest k <= horizon/2 whose certificate passes, or None.

    Passing is monotone in k, so this is the block index of the point at
    the given horizon.
    """
    check_positive("zeta", zeta)
    tables = _BlockTables(system, np.asarray(x, dtype=float)[None, :],
                          splitting, K, horizon)
    k = int(tables.first_passing_k(zeta, horizon // 2)[0])
    return k if k else None


@dataclass(frozen=True)
class HyperbolicityBudget:
    """Admissible-rate arithmetic for a hyperbolic parameter set.

    ``beta = min(-lambda_s, lambda_u, dom_rate / S)`` caps the usable rate;
    ``chi = (beta + zeta) / 2`` sits strictly between the requested rate and
    the cap; ``K0`` is the least block size honoring the domination step.
    """

    lambda_s: float
    lambda_u: float
    S: int
    dom_rate: float
    alpha: float
    zeta: float
    beta: float
    chi: float
    K0: int


def budget_from_inputs(lambda_s, lambda_u, S, dom_rate, alpha, zeta):
    """Budget arithmetic from measured rates; zeta must lie in (0, beta).

    The least block size is 1 unless the domination step needs more.
    """
    if not (lambda_s < 0.0 < lambda_u):
        raise ValueError(f"need lambda_s < 0 < lambda_u, got {lambda_s}, {lambda_u}")
    if S < 1 or dom_rate <= 0.0 or alpha < 0.0:
        raise ValueError("need S >= 1, dom_rate > 0, alpha >= 0")
    beta = min(-lambda_s, lambda_u, dom_rate / S)
    if not 0.0 < zeta < beta:
        raise ValueError(f"zeta must lie in (0, {beta}), got {zeta}")
    chi = (beta + zeta) / 2.0
    K0 = 1 if S == 1 else math.ceil((S - 1) * (2.0 * beta + alpha) / (beta - zeta))
    return HyperbolicityBudget(
        lambda_s=lambda_s, lambda_u=lambda_u, S=S, dom_rate=dom_rate,
        alpha=alpha, zeta=zeta, beta=beta, chi=chi, K0=K0)


def mean_hyperbolicity_degree(system, x, splitting, K, horizon):
    """(tail max of forward E averages, tail min of backward F averages).

    Per-step rates over windows of length K; the point carries degree
    (K, zeta) when the first value is <= -zeta and the second >= zeta.  A
    system with no inverse has no backward data: the second value is None.
    """
    if K < 1 or horizon < 10:
        raise ValueError(f"need K >= 1 and horizon >= 10, got K={K}, horizon={horizon}")
    back = horizon * K if system.invertible else 0
    data = OrbitData(system, np.asarray(x, dtype=float)[None, :], splitting,
                     n_fwd=horizon * K, n_back=back)
    steps = np.arange(1, horizon + 1) * K
    tail = max(0, horizon // 2 - 1)
    fwd = data.block_logs("e", [j * K for j in range(horizon)], K)[:, 0]
    chi_e = float((np.cumsum(fwd) / steps)[tail:].max())
    if not back:
        return chi_e, None
    bwd = data.block_logs("f", [-j * K for j in range(1, horizon + 1)], K)[:, 0]
    return chi_e, float((np.cumsum(bwd) / steps)[tail:].min())


@dataclass(frozen=True)
class BlockGeometry:
    """Two-interval block slice across the expanding fiber circle.

    The passing set at index k is [0, a] union [b, 1] with a < 1/2 < b,
    up to the grid resolution.
    """

    k: int
    zeta: float
    a: float
    b: float
    grid_n: int
    horizon: int

    def to_dict(self):
        return asdict(self)


def min_block_scan_product24(x_values, zeta, horizon):
    """Vectorized minimal block index over circle fibers of the product system.

    Unit windows (K = 1).  Valid because the product structure makes every
    restricted norm a closed form: per-step E norms are max(g'(x_t), c) and
    F norms are constant, with c the contracting and 1/c the expanding rate
    of the area-preserving factor.  Returns inf where no index works within
    the horizon.
    """
    log_u = math.log(dyn.CAT_EXPANDING)
    log_s = math.log(dyn.CAT_CONTRACTING)
    if not 0.0 < zeta < log_u:
        raise ValueError(f"zeta must lie in (0, {log_u}), got {zeta}")
    if horizon < 4:
        raise ValueError(f"horizon too short: {horizon}")
    xs = np.atleast_1d(np.asarray(x_values, dtype=float))
    if not np.isfinite(xs).all():
        raise ValueError("x_values has a non-finite fiber")
    xs = dyn.wrap(xs)
    T = int(horizon)
    circle = dyn.CircleG()
    logg = np.log(circle.jacobian_many(dyn.orbit_many(circle, xs[:, None], T))[..., 0, 0])
    e = np.maximum(logg, log_s)                     # per-step E log norms
    ks = np.arange(1, T + 1)[:, None]

    # contraction: need sum_{t<l} e_t <= -zeta*l for every l in [k, horizon]
    s = np.cumsum(e[:T], axis=0)
    bad_a = s + zeta * ks > 0.0
    k_a = 1 + np.max(np.where(bad_a, ks, 0), axis=0)

    # per-step domination: e_t <= log_u - 2*zeta at every start t in [k, horizon]
    starts = np.arange(T + 1)[:, None]
    bad_c2 = e + 2.0 * zeta - log_u > 0.0
    k_c2 = 1 + np.max(np.where(bad_c2, starts, -1), axis=0)

    # head domination at n = k: max(G_k, k*log_s) - k*log_u + 2*zeta*k <= 0
    g_cum = np.cumsum(logg[:T], axis=0)
    c1_ok = np.maximum(g_cum, ks * log_s) - ks * (log_u - 2.0 * zeta) <= 0.0

    lower = np.maximum(k_a, k_c2)
    valid = c1_ok & (ks >= lower)
    first = np.argmax(valid, axis=0) + 1.0
    first[~valid.any(axis=0)] = np.inf
    return first


def block_geometry_product24(zeta, k, grid_n, horizon=200):
    """Geometry of the passing set across the expanding fiber circle.

    Sweeps an x-grid at unit windows and returns the two-interval form
    [0, a] union [b, 1]; raises GeometryError if the passing set is not of
    that form at this horizon (surfaced, not silently repaired).
    """
    if not 0.0 < zeta < math.log(2.0):
        raise ValueError(f"zeta must lie in (0, log 2), got {zeta}")
    if k < 1 or grid_n < 1000:
        raise ValueError(f"need k >= 1 and grid_n >= 1000, got k={k}, grid_n={grid_n}")
    grid = np.arange(grid_n) / grid_n
    min_k = min_block_scan_product24(grid, zeta, horizon)
    mask = min_k <= k
    flips = int(np.count_nonzero(mask[1:] != mask[:-1]))
    if not (mask[0] and mask[-1]) or flips != 2:
        raise GeometryError(
            f"passing set is not two intervals anchored at 0 and 1 "
            f"(k={k}, zeta={zeta}, {flips} sign changes)")
    a_idx = int(np.argmin(mask)) - 1          # last passing index of the prefix
    b_idx = grid_n - int(np.argmin(mask[::-1]))  # first passing index of the suffix
    a, b = float(grid[a_idx]), float(grid[b_idx])
    if not a < 0.5 < b:
        raise GeometryError(f"interval ends do not straddle 1/2: a={a}, b={b}")
    return BlockGeometry(k=k, zeta=zeta, a=a, b=b, grid_n=grid_n, horizon=horizon)
