"""Derivative cocycles along orbits: restricted norms, exponents, domination.

The splitting E + F is a constant field in the given coordinates (true for
every builtin system) and must be Df-invariant, so bundles are re-evaluated
at each orbit point rather than numerically transported; transporting a
non-dominant bundle is exponentially unstable.  With orthonormal bases, an
invariant bundle B gives Df^n B = B R(n-1)...R(0) with R(t) = B^T Df(f^t x) B,
so every restricted norm is a singular value of a forward product of small
matrices: the largest for operator norms on E, the smallest for minimal
norms on F.  The largest singular value needs no small direction, so the E
side cannot underflow, and no derivative is ever inverted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import systems as dyn
from .errors import (
    DegenerateSplittingError,
    DimensionMismatchError,
    NotInvertibleError,
    SingularRestrictionError,
)

__all__ = [
    "OrbitData",
    "log_norm_blocks",
    "MeanExponentReport",
    "mean_exponents",
    "mean_exponents_many",
    "LyapunovSpectrum",
    "lyapunov_spectrum",
    "subbundle_angle",
    "alpha_constant",
    "upgrade_limit_domination",
    "domination_upgrade_n0",
]


# Largest invariance defect max |C^T Df B| accepted, relative to the largest
# Jacobian entry along the orbit; C spans the orthogonal complement of B.
_INVARIANCE_TOL = 1e-9
# Rows per block of the prefix sum of step logs in OrbitData._full_logs.
_PREFIX_BLOCK = 128


def _sv(m, top):
    """Largest (``top``) or smallest singular value over the last two axes.

    2x2 matrices [[a, b], [c, d]] use closed forms: the largest is s =
    (hypot(a+d, b-c) + hypot(a-d, b+c)) / 2, within 2 ulp, the smallest
    |(a/s) d - (b/s) c|, within 3 eps s, and neither overflows where the
    entries do not; a diagonal takes max/min(|a|, |d|) exactly (LAPACK is an
    ulp off on ~5% of them).  LAPACK runs only for d >= 3.
    """
    if m.shape[-1] == 1:
        return np.abs(m[..., 0, 0])
    if m.shape[-1] > 2:
        sv = np.linalg.svd(m, compute_uv=False)
        return sv[..., 0] if top else sv[..., -1]
    a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    diag = (b == 0.0) & (c == 0.0)
    s = 0.5 * (np.hypot(a + d, b - c) + np.hypot(a - d, b + c))
    if top:
        return np.where(diag, np.maximum(np.abs(a), np.abs(d)), s)
    with np.errstate(invalid="ignore"):  # 0/0 only for a zero matrix, which is diagonal
        small = np.abs((a / s) * d - (b / s) * c)
    return np.where(diag, np.minimum(np.abs(a), np.abs(d)), small)


class OrbitData:
    """Restricted derivative cocycle along the orbits of a batch of points.

    Holds R_E(t) = E^T Df(f^t x) E and R_F(t) = F^T Df(f^t x) F, with E and
    F the orthonormalised bundle bases, for times t in [-n_back, n_fwd).
    Restricted norms are singular values of forward products of these
    matrices: :meth:`block_logs` multiplies them over windows,
    :meth:`full_e_logs` / :meth:`full_f_logs` from time 0.  Raises
    DegenerateSplittingError when Df moves a bundle off itself by more than
    _INVARIANCE_TOL of the largest Jacobian entry.
    """

    def __init__(self, system, xs, splitting, n_fwd, n_back=0):
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        if xs.shape[1] != system.dim:
            raise DimensionMismatchError(
                f"points of dimension {xs.shape[1]} for system of dimension {system.dim}")
        if splitting.dim != system.dim:
            raise DimensionMismatchError("splitting does not match system dimension")
        if n_back and not system.invertible:
            raise NotInvertibleError(f"{system.name} has no inverse for backward data")
        self.batch = xs.shape[0]
        self.n_fwd = int(n_fwd)
        self.n_back = int(n_back)

        pts = dyn.orbit_many(system, xs, self.n_fwd)
        pieces = [(slice(self.n_back, None), pts[:-1])]   # times 0..n_fwd-1
        if self.n_back:
            back = dyn.orbit_many_back(system, xs, self.n_back)
            pieces.append((slice(0, self.n_back), back[:0:-1]))  # times -n_back..-1

        bundles = splitting._frames
        self._r = {name: np.empty((self.n_back + self.n_fwd, self.batch)
                                  + (b.shape[1],) * 2)
                   for name, (b, _) in bundles.items()}
        defect = scale = 0.0
        for rows, at in pieces:
            if not len(at):
                continue
            jac = system.jacobian_many(at)
            scale = max(scale, float(jac.max()), -float(jac.min()))
            for name, (b, c) in bundles.items():
                image = jac @ b
                self._r[name][rows] = b.T @ image
                defect = max(defect, float(np.abs(c.T @ image).max(initial=0.0)))
        if defect > _INVARIANCE_TOL * scale:
            raise DegenerateSplittingError(
                f"splitting is not Df-invariant along the orbit: defect "
                f"{defect:.3e} against largest Jacobian entry {scale:.3e}")

    def block_logs(self, bundle, starts, lengths):
        """Restricted log norms over windows [t, t+g) at each start time t.

        ``lengths`` holds one window length g >= 1 per start, or a single
        length for every window.  Bundle 'e' gives log ||Df^g|E||, bundle
        'f' gives log m(Df^g|F), from the product R(t+g-1)...R(t).  Shape
        (len(starts), batch).  A window whose product vanishes or overflows
        raises SingularRestrictionError.
        """
        if bundle not in ("e", "f"):
            raise ValueError(f"bundle must be 'e' or 'f', got {bundle!r}")
        starts = np.asarray(starts, dtype=int)
        gs = np.asarray(lengths, dtype=int)
        if gs.ndim and gs.shape != starts.shape:
            raise ValueError(f"{gs.size} window lengths for {starts.size} starts")
        if starts.size == 0:
            return np.zeros((0, self.batch))
        # Longest windows first, so the ones still multiplying at step s are
        # a prefix; one length for every window needs no reordering.
        one = gs.ndim == 0
        order = slice(None) if one else np.argsort(-gs, kind="stable")
        g = [int(gs)] if one else gs[order]
        if g[-1] < 1:
            raise ValueError(f"window lengths must be >= 1, got {int(g[-1])}")
        if starts.min() < -self.n_back or (starts + gs).max() > self.n_fwd:
            raise ValueError("time outside the computed horizon")
        # live[s-1]: the number of windows longer than s
        live = [len(starts)] * (g[0] - 1) if one else \
            np.searchsorted(-g, -np.arange(1, g[0])).tolist()
        r = self._r[bundle]
        idx = starts[order] + self.n_back
        m = r[idx]
        with np.errstate(all="ignore"):  # a non-finite log raises below
            for s, n in enumerate(live, start=1):
                if n == len(idx):
                    m = r[idx + s] @ m
                else:
                    m[:n] = r[idx[:n] + s] @ m[:n]
            logs = np.log(_sv(m, top=bundle == "e"))
        if not one:
            logs[order] = logs.copy()   # back to the order of ``starts``
        finite = np.isfinite(logs)
        if not finite.all():
            i = int(np.argmin(finite.all(axis=1)))
            t = int(starts[i])
            end = t + int(np.broadcast_to(gs, starts.shape)[i])
            raise SingularRestrictionError(
                f"restricted product vanished or overflowed on the window [{t}, {end})")
        return logs

    def full_e_logs(self, n_max):
        """(n_max+1, batch) array of log ||Df^n|E(x)|| for n = 0..n_max."""
        return self._full_logs("e", n_max)

    def full_f_logs(self, n_max):
        """(n_max+1, batch) array of log m(Df^n|F(x)) for n = 0..n_max."""
        return self._full_logs("f", n_max)

    def _full_logs(self, bundle, n_max):
        """Log norms of R(n-1)...R(0) from one running product, rescaled to
        max-abs 1 at each step.  The largest singular value of a rescaled
        product is at least 1; a smallest one below the least normal float
        has lost its bits, and the caller must shorten the horizon.  A 1x1
        rescaled product is +-1, so its logs are the prefix sums alone.
        """
        if not 0 <= n_max <= self.n_fwd:
            raise ValueError(f"n_max must lie in [0, {self.n_fwd}], got {n_max}")
        r = self._r[bundle][self.n_back:self.n_back + n_max]
        if r.shape[-1] == 1:
            mags = np.abs(r[..., 0, 0])
            if np.any(mags == 0.0):
                raise SingularRestrictionError("restricted product vanished")
            logs = np.zeros((n_max + 1, self.batch))
        else:
            mats, mags = _rescaled_products(r)
            sv = _sv(mats, top=bundle == "e")
            if np.any(sv < np.finfo(float).tiny):
                raise SingularRestrictionError(
                    f"restricted product over {n_max} steps underflows the float "
                    "range; use a shorter horizon")
            logs = np.log(sv)
        logs[1:] += _prefix_sum(np.log(mags))
        return logs


def _rescaled_products(r):
    """Running products R(n-1)...R(0), n = 0..len(r), each divided by its
    max-abs entry, and those divisors.  A 2x2 bundle along one orbit runs in
    plain floats, where numpy's per-call overhead outweighs a 2x2 product.
    """
    n, batch, dim = r.shape[0], r.shape[1], r.shape[-1]
    if dim == 2 and batch == 1:
        p00, p01, p10, p11 = 1.0, 0.0, 0.0, 1.0
        prods, mags = [(p00, p01, p10, p11)], []
        for (a, b), (c, d) in r[:, 0].tolist():
            m00, m01 = a * p00 + b * p10, a * p01 + b * p11
            m10, m11 = c * p00 + d * p10, c * p01 + d * p11
            mag = max(abs(m00), abs(m01), abs(m10), abs(m11))
            if mag == 0.0:
                raise SingularRestrictionError("restricted product vanished")
            p00, p01, p10, p11 = m00 / mag, m01 / mag, m10 / mag, m11 / mag
            prods.append((p00, p01, p10, p11))
            mags.append(mag)
        return np.array(prods).reshape(n + 1, 1, 2, 2), np.array(mags).reshape(n, 1)
    mats = np.empty((n + 1, batch, dim, dim))
    mats[0] = np.eye(dim)
    mags = np.empty((n, batch))
    for t in range(n):
        m = r[t] @ mats[t]
        mag = np.abs(m).max(axis=(-2, -1))
        if np.any(mag == 0.0):
            raise SingularRestrictionError("restricted product vanished")
        np.divide(m, mag[:, None, None], out=mats[t + 1])
        mags[t] = mag
    return mats, mags


def _prefix_sum(a):
    """Prefix sums along axis 0, blocked: sequential within blocks of
    _PREFIX_BLOCK rows, then the running block totals are added.  A
    sequential sum's rounding grows with the length n; this one grows with
    _PREFIX_BLOCK + n / _PREFIX_BLOCK.  The first block's prefixes keep
    their bits.
    """
    n, rest = len(a), a.shape[1:]
    nb = -(-n // _PREFIX_BLOCK)
    blocks = np.zeros((nb * _PREFIX_BLOCK,) + rest)
    blocks[:n] = a
    blocks = np.cumsum(blocks.reshape((nb, _PREFIX_BLOCK) + rest), axis=1)
    offsets = np.zeros((nb,) + rest)
    np.cumsum(blocks[:-1, -1], axis=0, out=offsets[1:])
    return (blocks + offsets[:, None]).reshape((nb * _PREFIX_BLOCK,) + rest)[:n]


def log_norm_blocks(system, x, splitting, bundle, K, l, r, direction="fwd"):
    """Per-window log norms entering the block-averaged conditions.

    Forward: a remainder window of length r at time 0 (when r > 0), then
    windows of length K at times jK + r for j = 0..l-1.  Backward: the
    remainder window at time -(lK + r), then windows at times jK for
    j = -l..-1.  Bundle 'e' uses operator norms, 'f' minimal norms.  The
    entries are in ascending time order and sum to the full numerator of
    the corresponding averaged condition.
    """
    if direction not in ("fwd", "bwd"):
        raise ValueError(f"direction must be 'fwd' or 'bwd', got {direction!r}")
    if K < 1 or l < 0 or not 0 <= r < K:
        raise ValueError(f"need K >= 1, l >= 0, 0 <= r < K; got K={K}, l={l}, r={r}")
    span = l * K + r
    if direction == "fwd":
        data = OrbitData(system, x, splitting, n_fwd=span)
        first = 0
    else:
        data = OrbitData(system, x, splitting, n_fwd=0, n_back=span)
        first = -span
    starts = [first] * (r > 0) + [first + r + j * K for j in range(l)]
    lengths = [r] * (r > 0) + [K] * l
    return [float(v) for v in data.block_logs(bundle, starts, lengths)[:, 0]]


@dataclass(frozen=True)
class MeanExponentReport:
    """Finite-horizon exponent summary along one orbit.

    ``lambda_s_hat``/``lambda_u_hat`` are per-step exponents of the full
    products over horizon * block steps (operator norm on E, minimal norm
    on F); ``lambda_sup_s_hat``/``lambda_sup_u_hat`` are the per-step block
    Birkhoff means; ``limdom_hat`` is the largest per-step block domination
    ratio over the tail half-window, the finite surrogate for its limsup.
    """

    lambda_s_hat: float
    lambda_u_hat: float
    lambda_sup_s_hat: float
    lambda_sup_u_hat: float
    limdom_hat: float
    block: int
    horizon: int

    def to_dict(self):
        return {
            "lambda_s_hat": self.lambda_s_hat,
            "lambda_u_hat": self.lambda_u_hat,
            "lambda_sup_s_hat": self.lambda_sup_s_hat,
            "lambda_sup_u_hat": self.lambda_sup_u_hat,
            "limdom_hat": self.limdom_hat,
            "block": self.block,
            "horizon": self.horizon,
        }


def mean_exponents_many(system, xs, splitting, K, horizon):
    """Batched :func:`mean_exponents`; one report per row of ``xs``."""
    if K < 1 or horizon < 2:
        raise ValueError(f"need K >= 1 and horizon >= 2, got K={K}, horizon={horizon}")
    data = OrbitData(system, xs, splitting, n_fwd=horizon * K)
    starts = [j * K for j in range(horizon)]
    block_e = data.block_logs("e", starts, K)
    block_f = data.block_logs("f", starts, K)
    full_e = data.full_e_logs(horizon * K)[-1]
    full_f = data.full_f_logs(horizon * K)[-1]
    ratio = (block_e - block_f) / K
    steps = horizon * K
    return [
        MeanExponentReport(
            lambda_s_hat=float(full_e[b]) / steps,
            lambda_u_hat=float(full_f[b]) / steps,
            lambda_sup_s_hat=float(block_e[:, b].mean()) / K,
            lambda_sup_u_hat=float(block_f[:, b].mean()) / K,
            limdom_hat=float(ratio[horizon // 2:, b].max()),
            block=K,
            horizon=horizon,
        )
        for b in range(data.batch)
    ]


def mean_exponents(system, x, splitting, K, horizon):
    """Finite-horizon exponent report over ``horizon`` windows of length K."""
    return mean_exponents_many(system, np.asarray(x, dtype=float)[None, :],
                               splitting, K, horizon)[0]


@dataclass(frozen=True)
class LyapunovSpectrum:
    """Merged Lyapunov exponents, ascending, with multiplicities."""

    exponents: tuple
    multiplicities: tuple
    stable_index: int
    horizon: int
    values: tuple  # all d per-direction values, ascending, before merging


def _qr_logs(prods):
    """log |diag R| of the QR recursion P_i q_{i-1} = q_i R_i, q_0 = I."""
    n_chunks, d = prods.shape[:2]
    q = np.eye(d)
    logs = np.empty((n_chunks, d))
    for i in range(n_chunks):
        q, r = np.linalg.qr(prods[i] @ q)
        diag = np.abs(np.diag(r))
        if np.any(diag == 0.0):
            raise SingularRestrictionError("derivative product became singular")
        logs[i] = np.log(diag)
    return logs


def _qr_logs_2d(prods):
    """:func:`_qr_logs` for 2x2 factors, in plain floats.

    The first column of q_i is P_i q_{i-1} e_1 normalised, with |R_11| its
    length; q_i can be taken to be a rotation, so |R_11 R_22| = |det P_i|.
    For 2x2 factors the call overhead of np.linalg.qr dominates its work.
    """
    u0, u1 = 1.0, 0.0
    logs = []
    for (p00, p01), (p10, p11) in prods.tolist():
        a = p00 * u0 + p01 * u1
        c = p10 * u0 + p11 * u1
        r11 = math.hypot(a, c)
        r22 = abs(p00 * p11 - p01 * p10) / r11 if r11 else 0.0
        if r22 == 0.0:
            raise SingularRestrictionError("derivative product became singular")
        u0, u1 = a / r11, c / r11
        logs.append((math.log(r11), math.log(r22)))
    return np.array(logs)


def lyapunov_spectrum(system, x, horizon, chunk=8, merge_tol=1e-4):
    """Lyapunov exponents by QR reorthonormalization along the orbit.

    Jacobians are accumulated over short chunks before each QR step (the
    R-diagonals telescope to the same product), and the first 10% of the
    chunks are discarded as burn-in so the frame can align before averaging.
    """
    if horizon < 10:
        raise ValueError(f"horizon too short for a spectrum: {horizon}")
    chunk = max(1, min(int(chunk), horizon // 8))
    pts = dyn.orbit_points(system, x, horizon)
    jac = system.jacobian_many(pts[:-1])
    d = system.dim
    n_chunks = horizon // chunk
    used = n_chunks * chunk
    prods = jac[0:used:chunk].copy()
    for s in range(1, chunk):
        prods = jac[s:used:chunk] @ prods
    logs = _qr_logs_2d(prods) if d == 2 else _qr_logs(prods)
    burn = n_chunks // 10
    values = np.sort(logs[burn:].sum(axis=0) / ((n_chunks - burn) * chunk))
    groups = [[values[0]]]
    for v in values[1:]:
        if v - groups[-1][-1] <= merge_tol:
            groups[-1].append(v)
        else:
            groups.append([v])
    exps = tuple(float(np.mean(g)) for g in groups)
    mults = tuple(len(g) for g in groups)
    stable = sum(1 for e in exps if e < 0.0)  # index of the last negative exponent
    return LyapunovSpectrum(exps, mults, stable, horizon, tuple(float(v) for v in values))


def _chord(theta):
    """|u - v| for unit vectors at angle theta; 2 sin(theta/2) keeps the bits
    of small angles that sqrt(2 - 2 cos theta) cancels away."""
    return 2.0 * math.sin(0.5 * theta)


def _orth(a):
    """Orthonormal basis of the column span of ``a`` from its SVD, dropping
    singular values at most eps * max(a.shape) times the largest.  Returned
    in Fortran order, as scipy.linalg.orth does: a BLAS product rounds by
    its operands' layout, and this one gives scipy's bits.
    """
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    rank = int(np.sum(s > np.finfo(float).eps * max(a.shape) * s.max(initial=0.0)))
    return np.asfortranarray(u[:, :rank])


def _principal_angles(a, b):
    """Principal angles between the column spans of ``a`` and ``b``, descending.

    Knyazev and Argentati (SIAM J. Sci. Comput. 23, 2002), as in
    scipy.linalg.subspace_angles: cosines are the singular values of
    Qa^T Qb; where cos^2 >= 1/2 the angle is taken instead from the sines,
    the singular values of the part of one basis orthogonal to the other,
    which keep the bits of small angles.
    """
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("subspace bases must be finite")
    qa, qb = _orth(a), _orth(b)
    c = qa.T @ qb
    cos = np.linalg.svd(c, compute_uv=False)
    rest = qb - qa @ c if qa.shape[1] >= qb.shape[1] else qa - qb @ c.T
    sin = np.linalg.svd(rest, compute_uv=False)
    return np.where(cos ** 2 >= 0.5, np.arcsin(np.clip(sin, -1.0, 1.0)),
                    np.arccos(np.clip(cos[::-1], -1.0, 1.0)))


def subbundle_angle(splitting):
    """inf over unit u in E, v in F of |u - v|, via the smallest principal angle."""
    angles = _principal_angles(splitting.e_basis, splitting.f_basis)
    theta_min = float(angles[-1])  # angles come back in descending order
    if theta_min < 1e-9:
        raise DegenerateSplittingError(
            f"sub-bundles intersect (principal angle {theta_min:.3e})")
    return _chord(theta_min)


def alpha_constant(system, points):
    """max over the sample of log(||Df|| / m(Df)), the one-step norm spread."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    sv = np.linalg.svd(system.jacobian_many(pts), compute_uv=False)
    if np.any(sv[..., -1] <= 0.0):
        raise SingularRestrictionError("singular derivative in sample")
    return float(np.max(np.log(sv[..., 0]) - np.log(sv[..., -1])))


def upgrade_limit_domination(S, rate, k, q, alpha):
    """Coarsen a domination scale from step S to step kS + q.

    Returns (kS + q, k * rate - q * alpha / 2); the new rate must stay
    positive, which bounds how large a remainder q the scale can absorb.
    """
    if S < 1 or k < 1 or q < 0 or q >= max(S, 1):
        raise ValueError(f"need k >= 1 and 0 <= q < S, got S={S}, k={k}, q={q}")
    if rate <= 0.0 or alpha < 0.0:
        raise ValueError("rate must be positive and alpha nonnegative")
    new_rate = k * rate - q * alpha / 2.0
    if new_rate <= 0.0:
        raise ValueError(
            f"upgraded rate {new_rate} not positive; need k > q*alpha/(2*rate)")
    return k * S + q, new_rate


def domination_upgrade_n0(N, rate, gamma):
    """Least window count beyond which an N-step domination with defect
    gamma controls every longer window."""
    if N < 1 or rate <= 0.0 or gamma < 0.0:
        raise ValueError(f"need N >= 1, rate > 0, gamma >= 0; got {N}, {rate}, {gamma}")
    return int(math.floor(2.0 + N * (rate + gamma) / rate)) + 1
