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

import itertools
import math
from dataclasses import asdict, dataclass
from functools import reduce

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
    "MeanExponentReport",
    "mean_exponents",
    "mean_exponents_many",
    "LyapunovSpectrum",
    "lyapunov_spectrum",
]


# Largest invariance defect max |C^T Df B| accepted, relative to the largest
# Jacobian entry along the orbit; C spans the orthogonal complement of B.
_INVARIANCE_TOL = 1e-9
# Rows per block of the prefix sum of step logs in OrbitData._full_logs.
_PREFIX_BLOCK = 128
# Jacobians per row block in OrbitData.__init__: a long horizon's Jacobians
# and their images are never all in memory at once.
_RESTRICT_ROWS = 16384


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

    Holds R_E(t) = E^T Df(f^t x) E for t in [0, n_fwd) and R_F(t) =
    F^T Df(f^t x) F for t in [-n_back, n_fwd), E and F orthonormal bundle
    bases: blocks read E forward and F backward.  :meth:`block_logs`
    multiplies R over windows, :meth:`full_e_logs` / :meth:`full_f_logs`
    from time 0.  Where every frame column has exact zeros outside one of
    ``system.factors``, over which Df is block diagonal, each bundle is the
    sum of its per-factor sub-bundles, restricted apart; else the map is one
    factor.  Operator norms are the max over E's sub-bundles, minimal norms
    the min over F's.  Each factor is orbited alone, forward, and backward
    if F has a sub-bundle on it; one with a ``constant_jacobian`` is never
    orbited, its R taken from one Jacobian row (product24 orbits the circle
    alone).  R is formed in row blocks by one pair of 2-D GEMMs per
    sub-bundle, Df B and Q^T (Df B) with Q = [B | C]: R(t) on top, bit for
    bit B^T (Df B), C^T Df B below.  These are a one-factor R's sums less
    exact zeros, and log is monotone, so block logs keep their bits.
    Raises ValueError on a non-finite point, DegenerateSplittingError when
    Df moves a sub-bundle off itself by more than _INVARIANCE_TOL of the
    largest Jacobian entry, SingularRestrictionError on a non-finite
    Jacobian.
    """

    def __init__(self, system, xs, splitting, n_fwd, n_back=0):
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        if xs.shape[1] != system.dim:
            raise DimensionMismatchError(
                f"points of dimension {xs.shape[1]} for system of dimension {system.dim}")
        if not np.isfinite(xs).all():
            raise ValueError("points must have finite coordinates")
        if splitting.dim != system.dim:
            raise DimensionMismatchError("splitting does not match system dimension")
        if n_back and not system.invertible:
            raise NotInvertibleError(f"{system.name} has no inverse for backward data")
        self.batch = xs.shape[0]
        self.n_fwd = int(n_fwd)
        self.n_back = int(n_back)
        self._first = {"e": 0, "f": -self.n_back}

        layout = tuple((s, f.dim) for f, s in system.factors)
        if layout not in splitting._plans:
            splitting._plans[layout] = _subbundles(splitting._frames, layout)
        subs, runs = splitting._plans[layout]
        self._r = {name: [np.empty((self.n_fwd - self._first[name], self.batch, k, k))
                          for k in (b.shape[1] for _, b, _ in sub)]
                   for name, sub in subs.items()}
        defect = scale = 0.0
        for back, f, s, targets in runs:
            m = system if f is None else system.factors[f][0]
            const = m.constant_jacobian is not None
            if back and (const or not self.n_back):
                continue
            p, rs = xs[:, s:s + m.dim], [(self._r[n][j], b, qt) for n, j, b, qt in targets]
            if const:   # one Jacobian row gives R at every time
                t0, pts, rs = 0, p[:1], [(r, b, qt) for r, b, qt in rs if len(r)]
            elif back:
                t0, pts = -self.n_back, dyn.orbit_many_back(m, p, self.n_back)[:0:-1]
            else:
                t0, pts = 0, dyn.orbit_many(m, p, self.n_fwd)[:-1]
                rs = [(r[len(r) - self.n_fwd:], b, qt) for r, b, qt in rs]
            if not rs:
                continue
            pts = pts.reshape(-1, m.dim)
            for i in range(0, len(pts), _RESTRICT_ROWS):
                jac = m.jacobian_many(pts[i:i + _RESTRICT_ROWS])
                hi, lo = float(jac.max()), float(jac.min())   # numpy's max keeps NaN
                if not (math.isfinite(hi) and math.isfinite(lo)):
                    row = i + int(np.argmin(np.isfinite(jac).all(axis=(1, 2))))
                    raise SingularRestrictionError(
                        f"non-finite Jacobian at orbit time {row // self.batch + t0}")
                scale = max(scale, hi, -lo)
                for r, b, qt in rs:
                    n, k = b.shape
                    image = (jac.reshape(-1, n) @ b).reshape(-1, n, k)
                    out = (qt @ image.transpose(1, 0, 2).reshape(n, -1)).reshape(n, -1, k)
                    rows = r if const else r.reshape(-1, k, k)[i:i + len(jac)]
                    rows[...] = out[:k].swapaxes(0, 1)   # a constant R fills every time
                    if k < n:   # a sub-bundle that fills its factor has no defect
                        defect = max(defect, float(np.abs(out[k:]).max()))
        if defect > _INVARIANCE_TOL * scale:
            raise DegenerateSplittingError(
                f"splitting is not Df-invariant along the orbit: defect "
                f"{defect:.3e} against largest Jacobian entry {scale:.3e}")

    def block_logs(self, bundle, starts, lengths):
        """Restricted log norms over windows [t, t+g) at each start time t.

        ``lengths`` holds one window length g >= 1 per start, or a single
        length for every window.  Bundle 'e' gives log ||Df^g|E||, bundle
        'f' gives log m(Df^g|F), from the product R(t+g-1)...R(t); E has no
        backward data.  Shape (len(starts), batch).  A window whose product
        vanishes or overflows raises SingularRestrictionError.
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
        first = self._first[bundle]
        if starts.min() < first or (starts + gs).max() > self.n_fwd:
            raise ValueError(f"time outside bundle {bundle!r}'s horizon [{first}, {self.n_fwd})")
        # live[s-1]: the number of windows longer than s
        live = [len(starts)] * (g[0] - 1) if one else \
            np.searchsorted(-g, -np.arange(1, g[0])).tolist()
        idx = starts[order] - first
        top = bundle == "e"
        subs = []
        with np.errstate(all="ignore"):  # a non-finite log raises below
            for r in self._r[bundle]:
                mul = np.multiply if r.shape[-1] == 1 else np.matmul
                m = r[idx]
                for s, n in enumerate(live, start=1):
                    if n == len(idx):
                        m = mul(r[idx + s], m)
                    else:
                        m[:n] = mul(r[idx[:n] + s], m[:n])
                subs.append(np.log(_sv(m, top)))
        logs = reduce(np.maximum if top else np.minimum, subs)
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
        """Log norms of R(n-1)...R(0): per sub-bundle from one running
        product rescaled to max-abs 1 at each step, then the max (E) or min
        (F).  The largest singular value of a rescaled product is at least 1;
        a smallest one below the least normal float has lost its bits, and
        the caller must shorten the horizon.  A 1x1 rescaled product is +-1,
        so its logs are the prefix sums alone; against one diagonal 2x2
        product of two of them they differ by 2 eps a step of rescaling and
        the rounding of the two prefix sums."""
        if not 0 <= n_max <= self.n_fwd:
            raise ValueError(f"n_max must lie in [0, {self.n_fwd}], got {n_max}")
        top = bundle == "e"
        subs = []
        for r in self._r[bundle]:
            r, k = r[len(r) - self.n_fwd:][:n_max], r.shape[-1]
            if k == 1:
                mags, logs = np.abs(r[..., 0, 0]), np.zeros((n_max + 1, self.batch))
            else:
                mats = np.empty((n_max + 1,) + r.shape[1:])
                mats[0] = np.eye(k)
                mags = np.empty(r.shape[:2])
                with np.errstate(all="ignore"):   # a zero divisor raises below
                    for t in range(n_max):
                        m = r[t] @ mats[t]
                        mags[t] = np.abs(m).max(axis=(-2, -1))
                        np.divide(m, mags[t, :, None, None], out=mats[t + 1])
            if np.any(mags == 0.0):
                raise SingularRestrictionError("restricted product vanished")
            if k > 1:
                sv = _sv(mats, top)
                if np.any(sv < np.finfo(float).tiny):
                    raise SingularRestrictionError(
                        f"restricted product over {n_max} steps underflows the float "
                        "range; use a shorter horizon")
                logs = np.log(sv)
            logs[1:] += _prefix_sum(np.log(mags))
            subs.append(logs)
        return reduce(np.maximum if top else np.minimum, subs)


def _subbundles(frames, layout):
    """Sub-bundles and runs for a factor layout ((first coordinate, dim), ...).

    Each bundle's sub-bundles are (the factor's first coordinate, B, Q^T),
    B the bundle's frame columns on that factor, Q = [B | C] orthogonal.
    Runs are (backward, factor index, first coordinate, ((bundle, index, B,
    Q^T), ...)): forward on each factor, backward on each of F's.  A frame
    column not zero outside one factor makes the map one factor, index None.
    """
    owner = np.repeat(np.arange(len(layout)), [n for _, n in layout])
    subs, runs = {}, {}
    for name, b in frames.items():
        hosts = [set(owner[col != 0.0].tolist()) for col in b.T]
        if any(len(h) != 1 for h in hosts):
            return _subbundles(frames, ((0, len(owner)),))
        subs[name] = []
        for i, (s, n) in enumerate(layout):
            bi = b[s:s + n, [c for c, h in enumerate(hosts) if h == {i}]]
            if bi.size:
                ci = np.linalg.qr(bi, mode="complete")[0][:, bi.shape[1]:]
                qt = np.hstack([bi, ci]).T
                target = (name, len(subs[name]), bi, qt)
                subs[name].append((s, bi, qt))
                f = i if len(layout) > 1 else None
                runs.setdefault((False, f, s), []).append(target)
                if name == "f":
                    runs[True, f, s] = [target]
    return subs, [key + (tuple(t),) for key, t in runs.items()]


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
        return asdict(self)


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


def _qr_logs_2d(prods, n):
    """:func:`_qr_logs` for n 2x2 factors, in plain floats: ``prods`` holds
    all n, or one product taken n times.

    The first column of q_i is P_i q_{i-1} e_1 normalised, with |R_11| its
    length; q_i can be taken to be a rotation, so |R_11 R_22| = |det P_i|.
    For 2x2 factors the call overhead of np.linalg.qr dominates its work.

    With one product the step maps the state (u0, u1) alone to its logs and
    the next state, so once a state repeats the logs repeat with the cycle's
    period: the loop stops there and tiles the cycle over the remaining
    steps, which gives the full loop's logs element for element.  States
    that differ only in the sign of a zero (equal as dict keys) have the
    same logs, and their successors again differ at most so.
    """
    u0, u1 = 1.0, 0.0
    logs, first = [], {}
    one = len(prods) == 1
    steps = itertools.repeat(prods[0].tolist(), n) if one else prods.tolist()
    for (p00, p01), (p10, p11) in steps:
        if one:
            i = first.setdefault((u0, u1), len(logs))
            if i < len(logs):
                done = np.array(logs)
                return np.concatenate((done[:i], np.resize(done[i:], (n - i, 2))))
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
    """Lyapunov exponents by QR reorthonormalization along the orbit of each
    factor of ``system.factors``: a product's spectrum is its factors'.

    Jacobians are accumulated over short chunks before each QR step (the
    R-diagonals telescope to the same product), and the first 10% of the
    chunks are discarded as burn-in so the frame can align before averaging.
    A factor with a constant Jacobian is never orbited: its chunks share one
    product.  A 1-D factor needs no QR, a 2-D one takes plain-float steps,
    and with one shared product they stop at the first repeated frame.
    """
    if horizon < 10:
        raise ValueError(f"horizon too short for a spectrum: {horizon}")
    if not (int(chunk) >= 1 and 0.0 <= merge_tol < math.inf):
        raise ValueError(f"need chunk >= 1 and a finite merge_tol >= 0, got {chunk}, {merge_tol}")
    chunk = min(int(chunk), horizon // 8)
    x = dyn.as_point(x, system.dim)
    n_chunks = horizon // chunk
    burn = n_chunks // 10
    values = []
    for m, s in system.factors:
        p, d = x[s:s + m.dim], m.dim
        if m.constant_jacobian is not None:   # every chunk has the same product
            n, pts = 1, np.broadcast_to(p, (chunk, d))
        else:
            n, pts = n_chunks, m.orbit(p, horizon)[:n_chunks * chunk]
        jac = m.jacobian_many(pts).reshape(n, chunk, d, d)
        prods = jac[:, 0].copy()
        for t in range(1, chunk):
            prods = jac[:, t] @ prods
        if d == 2:
            logs = _qr_logs_2d(prods, n_chunks)
        else:
            prods = np.broadcast_to(prods, (n_chunks, d, d))
            if d == 1 and prods.all():   # a zero product raises in _qr_logs
                logs = np.log(np.abs(prods[:, 0]))
            else:
                logs = _qr_logs(prods)
        values.extend(logs[burn:].sum(axis=0) / ((n_chunks - burn) * chunk))
    values = np.sort(values)
    groups = np.split(values, np.flatnonzero(~(np.diff(values) <= merge_tol)) + 1)
    exps = tuple(float(np.mean(g)) for g in groups)
    mults = tuple(len(g) for g in groups)
    stable = sum(1 for e in exps if e < 0.0)  # index of the last negative exponent
    return LyapunovSpectrum(exps, mults, stable, horizon, tuple(float(v) for v in values))

