"""Pseudo-orbits, shadowing verification, and Newton orbit realization.

A pseudo-orbit is a chain of true orbit segments with small jumps at the
seams.  Closing and shadowing solve one orbit equation on the chain points
z_0, z_1, ...: z_{nxt[j]} = f(z_j) for j = 0..p-1, where p is the total
length and nxt[j] = (j + 1) mod len(z).  A periodic window has p points, so
the last step lands back on z_0; an open window has p + 1, so it lands on
the extra endpoint.  Each Newton step solves the block linearization
L delta = -r as delta = L^T (L L^T)^{-1} (-r): the exact solution when L is
square (a cycle), the minimum-norm one when it is one block short (an open
window).  An open window's L L^T is block tridiagonal and positive
definite, and a cycle's adds one wrap term of rank 2d, so one banded
Cholesky factor serves both.  A product solves each factor map's band on
its own, and a map with a constant Jacobian keeps one factor for all its
windows.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import systems as dyn
from ._serialize import fmt_float
from .errors import ConvergenceError, PseudoOrbitFormatError

__all__ = [
    "PseudoOrbit", "make_pseudo_orbit", "read_pseudo_orbit", "write_pseudo_orbit",
    "ShadowResult", "solve_shadow", "close_orbit", "ShadowingConstants",
    "estimate_shadowing_constant", "periodic_density_probe",
]

_MAX_TOTAL = 10 ** 6


def check_positive(name, value):
    """Reject a ``value`` of ``name`` that is NaN, not positive or infinite."""
    if not 0.0 < value < np.inf:
        raise ValueError(f"{name} must be finite and positive, got {value}")


@dataclass(frozen=True, eq=False)
class PseudoOrbit:
    """Chain of orbit segments with seam gaps below delta.

    Each segment is the (n_i + 1, d) array of points x_i, f(x_i), ...,
    f^{n_i}(x_i).  A periodic window represents one full period: the last
    seam wraps to the first segment.  With delta=None the gap bound is set
    just above the largest seam gap.  ``gaps`` holds the seam distances
    rho(end of segment i, start of segment i+1).
    """

    segments: tuple
    periodic: bool
    delta: float | None = None
    gaps: tuple = field(init=False, repr=False)

    def __post_init__(self):
        segs = tuple(np.asarray(s, dtype=float) for s in self.segments)
        object.__setattr__(self, "segments", segs)
        if not segs:
            raise ValueError("pseudo-orbit needs at least one segment")
        if self.delta is not None:
            check_positive("delta", self.delta)
        d = segs[0].shape[1] if segs[0].ndim == 2 else 0
        for i, s in enumerate(segs):
            if s.ndim != 2 or s.shape[1] != d or s.shape[0] < 2:
                raise ValueError("each segment must be an (n_i + 1, d) array, n_i >= 1")
            if not np.isfinite(s).all():
                raise ValueError(f"segment {i} has a non-finite coordinate")
        object.__setattr__(self, "gaps", _seam_gaps(segs, self.periodic))
        if self.delta is None:
            worst = max(self.gaps, default=0.0)
            object.__setattr__(self, "delta", max(worst * (1.0 + 1e-9), 1e-15))
        for i, gap in enumerate(self.gaps):
            if not gap < self.delta:
                raise ValueError(
                    f"seam {i} has gap {gap:.3e}, not below delta={self.delta:.3e}")

    @property
    def m(self):
        return len(self.segments)

    @property
    def dim(self):
        return self.segments[0].shape[1]

    @property
    def n_list(self):
        return tuple(len(s) - 1 for s in self.segments)

    @property
    def total_length(self):
        return sum(self.n_list)


def _seam_gaps(segments, periodic):
    """rho(end of segment i, start of segment i+1); the last seam of a
    periodic window wraps to segment 0, an open window has no last seam."""
    ends = np.array([s[-1] for s in segments])
    nexts = np.array([s[0] for s in segments[1:] + segments[:1]])
    gaps = dyn.torus_distance(ends, nexts).tolist()
    return tuple(gaps if periodic else gaps[:-1])


def make_pseudo_orbit(system, starts, n_list, periodic, delta=None):
    """Build a pseudo-orbit by iterating each start for its segment length.

    With delta=None the gap bound is set just above the largest seam gap.
    """
    starts = [np.asarray(x, dtype=float) for x in starts]
    if len(starts) != len(n_list):
        raise ValueError(f"{len(starts)} starts but {len(n_list)} lengths")
    if any(int(n) < 1 for n in n_list):
        raise ValueError(f"segment lengths must be >= 1, got {list(n_list)}")
    segs = tuple(dyn.orbit_points(system, x, int(n)) for x, n in zip(starts, n_list))
    return PseudoOrbit(segments=segs, periodic=bool(periodic),
                       delta=None if delta is None else float(delta))


def write_pseudo_orbit(pseudo, path):
    """Write the text form: header, then SEG blocks separated by blank lines."""
    lines = [
        f"PSEUDO d={pseudo.dim} periodic={int(pseudo.periodic)} "
        f"delta={fmt_float(pseudo.delta)}"
    ]
    for i, seg in enumerate(pseudo.segments):
        if i:
            lines.append("")
        lines.append(f"SEG n={len(seg) - 1}")
        for row in seg:
            lines.append(" ".join(fmt_float(v) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _header_fields(line):
    parts = line.split()
    if len(parts) != 4 or parts[0] != "PSEUDO":
        raise PseudoOrbitFormatError(f"bad header line: {line!r}")
    out = {}
    for tok in parts[1:]:
        key, _, val = tok.partition("=")
        out[key] = val
    if set(out) != {"d", "periodic", "delta"}:
        raise PseudoOrbitFormatError(f"bad header fields: {line!r}")
    return out


def read_pseudo_orbit(path):
    """Parse the text form written by :func:`write_pseudo_orbit`."""
    with open(path) as fh:
        raw = fh.read().splitlines()
    lines = [ln.strip() for ln in raw]
    if not lines:
        raise PseudoOrbitFormatError("empty pseudo-orbit file")
    head = _header_fields(lines[0])
    try:
        d = int(head["d"])
        periodic = int(head["periodic"])
        delta = float(head["delta"])
    except ValueError as exc:
        raise PseudoOrbitFormatError(f"bad header values: {lines[0]!r}") from exc
    if periodic not in (0, 1):
        raise PseudoOrbitFormatError(f"periodic must be 0 or 1, got {periodic}")

    segments = []
    pos = 1
    while pos < len(lines):
        if not lines[pos]:
            pos += 1
            continue
        if not lines[pos].startswith("SEG n="):
            raise PseudoOrbitFormatError(f"expected SEG line, got {lines[pos]!r}")
        try:
            n = int(lines[pos][len("SEG n="):])
        except ValueError as exc:
            raise PseudoOrbitFormatError(f"bad SEG line: {lines[pos]!r}") from exc
        if n < 1:
            raise PseudoOrbitFormatError(f"segment length must be >= 1, got {n}")
        block = lines[pos + 1: pos + n + 2]
        if len(block) < n + 1 or any(not ln for ln in block):
            raise PseudoOrbitFormatError(
                f"segment at line {pos + 1} truncated: need {n + 1} point lines")
        try:
            pts = np.array([[float(v) for v in ln.split()] for ln in block])
        except ValueError as exc:
            raise PseudoOrbitFormatError(
                f"non-numeric point in segment at line {pos + 1}") from exc
        if pts.shape[1] != d:
            raise PseudoOrbitFormatError(
                f"point dimension {pts.shape[1]} does not match header d={d}")
        segments.append(pts)
        pos += n + 2
    if not segments:
        raise PseudoOrbitFormatError("no segments in pseudo-orbit file")
    return PseudoOrbit(segments=tuple(segments), periodic=bool(periodic), delta=delta)


def _row_deviations(points, pseudo):
    """rho(points[chain time of the row], row) for every row of every
    segment, in order.  Row r of segment i is chain point r - i, so each
    segment's last row and the next segment's first row share a time."""
    rows = np.concatenate(pseudo.segments)
    lengths = [len(s) for s in pseudo.segments]
    chain = np.arange(len(rows)) - np.arange(pseudo.m).repeat(lengths)
    return dyn.torus_distance(points.take(chain, axis=0, mode="wrap"), rows)


def segment_deviations(points, pseudo):
    """Worst rho(points[(c_i + j) mod len(points)], point j of segment i).

    c_i is the chain time at which segment i starts.  The modulus wraps a
    periodic solution (one point per step) back to its first point and
    leaves a true orbit or an open solution (total_length + 1 points) as it
    is.  Segments are compared against their own stored rows, the data
    being shadowed, so no long re-iteration is involved.  Returns the
    per-segment maxima and the (segment, offset) of the first worst point.
    """
    dev = _row_deviations(points, pseudo)
    lengths = np.array([len(s) for s in pseudo.segments])
    first = np.cumsum(lengths) - lengths
    k = int(dev.argmax())
    i = int(first.searchsorted(k, side="right")) - 1
    return np.maximum.reduceat(dev, first), (i, k - int(first[i]))


@dataclass(frozen=True, eq=False)
class ShadowResult:
    """Solved orbit with its verified deviation and Newton diagnostics.

    ``points`` lists the solved orbit: one point per step for a periodic
    window (period = total length), plus the final endpoint when open.
    """

    points: np.ndarray
    periodic: bool
    period: int | None
    epsilon_achieved: float
    residual: float
    iterations: int

    @property
    def z(self):
        return self.points[0]

    def to_dict(self):
        return {**asdict(self), "points": self.points.tolist()}


def _residual(system, z, periodic):
    """Per-step defects z_{j+1} (-) f(z_j) along the chain z; a cycle's last
    step lands on z_0."""
    if periodic:
        return dyn.torus_diff(np.concatenate([z[1:], z[:1]]), system.step_many(z))
    return dyn.torus_diff(z[1:], system.step_many(z[:-1]))


def _normal_band(jac):
    """Upper band of an open window's L L^T, as LAPACK's pbtrf reads it.

    With A_j = jac[j], block row j of L holds -A_j in column j and I in
    column j + 1, so L L^T is block tridiagonal: A_j A_j^T + I on the
    diagonal and -A_{j+1}^T above it, 2d - 1 superdiagonals in all.  Entry
    (i, k), i <= k, sits at band[2d - 1 + i - k, k].
    """
    p, d = jac.shape[:2]
    band = np.zeros((2 * d, p, d))
    for a in range(d):
        for b in range(d):
            band[d - 1 + a - b, 1:, b] = -jac[1:, b, a]
            if a <= b:
                np.einsum("jk,jk->j", jac[:, a], jac[:, b],
                          out=band[2 * d - 1 + a - b, :, b])
    band[2 * d - 1] += 1.0
    return band.reshape(2 * d, p * d)


_CONSTANT_FACTORS = {}   # constant Jacobian's bytes -> factor of its longest open window


def _band_factor(band):
    """Upper Cholesky factor of a band laid out as :func:`_normal_band` does,
    from LAPACK's pbtrf; a band that is not positive definite raises
    LinAlgError."""
    from scipy.linalg.lapack import dpbtrf  # scipy's import time

    factor, info = dpbtrf(band)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor not positive definite")
    return factor


def _constant_factor(a, p):
    """Band factor of the p-step open window of the constant Jacobian a.

    The p-step window's L L^T is the leading p*d block of every longer
    window's, so its upper Cholesky factor is the leading p*d columns of
    theirs.  One factor per matrix is kept, refactored only when a longer
    window arrives: at most 2d x p*d floats for the longest p solved.
    Threads racing here at worst factor twice: each solves with the
    factor it holds, and a stored factor is never written to.
    """
    d, key = len(a), a.tobytes()
    factor = _CONSTANT_FACTORS.get(key)
    if factor is None or factor.shape[1] < p * d:
        factor = _band_factor(_normal_band(np.broadcast_to(a, (p, d, d))))
        _CONSTANT_FACTORS[key] = factor
    return factor[:, :p * d]


def _newton_step(jac, factor, rhs, periodic):
    """Solution delta = L^T y, (L L^T) y = rhs, of L delta = rhs, one row per
    chain point: exact for a cycle, minimum-norm for an open window.

    ``jac`` stacks the p Jacobians A_j, or just one when they are all the
    same; ``factor`` is the open band's Cholesky factor (:func:`_band_factor`).
    A cycle's L L^T is the open band plus the wrap blocks -A_0 at (0, p-1)
    and -A_0^T at (p-1, 0), i.e. U C U^T with U = [E_0, E_{p-1}] and
    C = [[0, -A_0], [-A_0^T, 0]]; Woodbury folds them into the band's
    factor: y = x - X (I + C U^T X)^{-1} C U^T x, where the band solves
    x = T^{-1} rhs and X = T^{-1} U.
    """
    from scipy.linalg.lapack import dpbtrs  # scipy's import time

    d = jac.shape[-1]
    p = len(rhs) // d
    if periodic:
        ends = np.array([*range(d), *range(p * d - d, p * d)])  # rows of E_0 and E_{p-1}
        b = np.zeros((p * d, 2 * d + 1), order="F")
        b[:, 0] = rhs
        b[ends, np.arange(1, 2 * d + 1)] = 1.0
        x, _ = dpbtrs(factor, b, overwrite_b=True)
        c = np.zeros((2 * d, 2 * d))
        c[:d, d:], c[d:, :d] = -jac[0], -jac[0].T
        cx = c @ x[ends]
        y = x[:, 0] - x[:, 1:] @ np.linalg.solve(np.eye(2 * d) + cx[:, 1:], cx[:, 0])
    else:
        y, _ = dpbtrs(factor, rhs)
    y = y.reshape(p, d)
    delta = np.zeros((p + (not periodic), d))
    delta[:p] = -np.einsum("jba,jb->ja", jac, y)
    delta[1:] += y[:len(delta) - 1]
    if periodic:
        delta[0] += y[-1]
    return delta


def _chain_step(system, z, rhs, periodic):
    """Newton correction of the chain z for the right-hand side rhs, one row
    per step, solved factor by factor.

    Df, and so L, is block diagonal over ``system.factors``, so each factor
    solves its own band.  A factor with a ``constant_jacobian`` reuses the
    cached factor of :func:`_constant_factor` and forms no Jacobian; any
    other factor is factored afresh.
    """
    p = len(rhs)
    steps = []
    for m, s in system.factors:
        cols = slice(s, s + m.dim)
        a = m.constant_jacobian
        if a is None:
            jac = m.jacobian_many(z[:p, cols])
            factor = _band_factor(_normal_band(jac))
        else:
            jac, factor = a[None], _constant_factor(a, p)
        steps.append(_newton_step(jac, factor, rhs[:, cols].ravel(), periodic))
    return np.concatenate(steps, axis=1)


def solve_shadow(system, pseudo, tol=1e-12, max_iter=50):
    """Newton realization of an orbit through the pseudo-orbit window.

    The unknowns are the chain points, seeded by the pseudo-orbit itself:
    one per step, plus the final endpoint when the window is open.  Each
    step is one banded Cholesky solve per factor map (:func:`_chain_step`).
    Raises ConvergenceError (with diagnostics attached) when the residual
    turns non-finite, has not halved over two steps or misses tol after
    max_iter, or a factorization fails; nothing is returned in that case.
    """
    check_positive("tol", tol)
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    if pseudo.total_length > _MAX_TOTAL:
        raise ValueError(f"window too long: {pseudo.total_length} > {_MAX_TOTAL}")
    if system.dim != pseudo.dim:
        raise ValueError(f"system dim {system.dim} != pseudo-orbit dim {pseudo.dim}")
    p = pseudo.total_length
    tail = [] if pseudo.periodic else [pseudo.segments[-1][-1:]]
    z = np.concatenate([s[:-1] for s in pseudo.segments] + tail, axis=0)

    history = []

    def failure(message):
        return ConvergenceError(message, result={"residual_history": history,
                                                 "iterations": it})

    for it in range(max_iter + 1):
        r = _residual(system, z, pseudo.periodic)
        res = float(np.abs(r).max())
        history.append(res)
        if res < tol:
            break
        if not np.isfinite(res):
            raise failure(f"non-finite Newton residual at iteration {it}")
        if len(history) >= 3 and not history[-1] <= 0.5 * history[-3]:
            raise failure(f"Newton residual stalled at iteration {it}: "
                          f"{history[-3]:.3e} -> {history[-1]:.3e} in two steps")
        if it == max_iter:
            raise failure(f"no convergence after {max_iter} iterations "
                          f"(residual {res:.3e}, tol {tol:.3e})")
        try:
            delta = _chain_step(system, z, -r, pseudo.periodic)
        except np.linalg.LinAlgError as exc:
            raise failure(f"Newton step failed at iteration {it}: {exc}") from exc
        z = dyn.wrap(z + delta)

    return ShadowResult(points=z, periodic=pseudo.periodic,
                        period=p if pseudo.periodic else None,
                        epsilon_achieved=float(_row_deviations(z, pseudo).max()),
                        residual=history[-1],
                        iterations=len(history) - 1)


def close_orbit(system, x, n, tol=1e-12):
    """Periodic orbit near an almost-returning segment (single-seam window)."""
    pseudo = make_pseudo_orbit(system, [x], [n], periodic=True)
    return solve_shadow(system, pseudo, tol=tol)


@dataclass(frozen=True)
class ShadowingConstants:
    """Empirical response of the solver to seam size.

    L_hat is the worst observed deviation-to-delta ratio; d0_hat the
    largest tested delta at which every trial converged.
    """

    L_hat: float
    d0_hat: float
    trials: int
    per_delta: tuple

    def to_dict(self):
        return asdict(self)


def _perturbed_chain(system, rng_spec, delta, length_range):
    """Open pseudo-orbit: true orbit pieces re-seeded with jumps of size delta/2."""
    rng = np.random.default_rng(rng_spec)
    lo, hi = length_range
    m = int(rng.integers(2, 6))
    lengths = rng.integers(lo, hi + 1, size=m)
    x = rng.random(system.dim)
    segs = []
    for n in lengths:
        seg = dyn.orbit_points(system, x, int(n))
        segs.append(seg)
        eta = rng.standard_normal(system.dim)
        eta *= 0.5 / np.linalg.norm(eta)
        x = dyn.wrap(seg[-1] + delta * eta)
    return PseudoOrbit(segments=tuple(segs), periodic=False,
                       delta=max(delta, 1e-15))


def estimate_shadowing_constant(system, deltas, trials, length_range,
                                seed=0, tol=1e-12):
    """Probe the linear response deviation ~ L * delta over random windows.

    For each trial index the segment lengths and jump directions are fixed
    across all deltas (only the jump size is scaled), so the per-trial
    ratios are directly comparable along the delta list.
    """
    deltas = [float(dv) for dv in deltas]
    if not all(0.0 <= dv < np.inf for dv in deltas):
        raise ValueError(f"deltas must be finite and nonnegative, got {deltas}")
    if any(a < b for a, b in zip(deltas, deltas[1:])):
        raise ValueError(f"deltas must be nonincreasing, got {deltas}")
    lo, hi = length_range
    if not (1 <= lo <= hi and trials >= 1):
        raise ValueError(f"need 1 <= lo <= hi and trials >= 1, got segment length range "
                         f"{length_range} and {trials} trials")

    per_delta = []
    L_hat = 0.0
    d0_hat = 0.0
    for dv in deltas:
        ratios = []
        converged = 0
        for t in range(trials):
            pseudo = _perturbed_chain(system, [seed, t], dv, (lo, hi))
            try:
                result = solve_shadow(system, pseudo, tol=tol)
            except ConvergenceError:
                continue
            converged += 1
            if dv > 0.0:
                ratios.append(result.epsilon_achieved / dv)
        if converged == trials and dv > 0.0:
            d0_hat = max(d0_hat, dv)
        if ratios:
            L_hat = max(L_hat, max(ratios))
        per_delta.append({"delta": dv, "converged": converged, "trials": trials,
                          "max_ratio": max(ratios) if ratios else 0.0})
    return ShadowingConstants(L_hat=L_hat, d0_hat=d0_hat,
                              trials=trials * len(deltas),
                              per_delta=tuple(per_delta))


def periodic_density_probe(system, sample, n_max, epsilon, gap_cap=0.05,
                           tol=1e-12, return_report=False):
    """Fraction of sample points with a certified periodic orbit within epsilon.

    Each point's best recurrence up to n_max seeds close_orbit; success
    means the solver converged and the periodic point lies within epsilon
    of the sample point.  Points with no recurrence gap up to gap_cap are
    skipped: they leave the denominator rather than count as failures.
    """
    sample = [np.asarray(x, dtype=float) for x in sample]
    if not sample:
        raise ValueError("sample must be nonempty")
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    check_positive("tol", tol)
    if not (epsilon > 0.0 and gap_cap > 0.0):
        raise ValueError(f"need epsilon, gap_cap, tol > 0, got {epsilon}, {gap_cap}, {tol}")
    outcomes = []
    for x in sample:
        orbit = dyn.orbit_points(system, x, int(n_max))
        dists = dyn.torus_distance(orbit[1:], x)
        n_best = int(np.argmin(dists)) + 1
        if float(dists[n_best - 1]) > gap_cap:
            outcomes.append("skipped")
            continue
        try:
            result = close_orbit(system, x, n_best, tol=tol)
        except ConvergenceError:
            outcomes.append("failed")
            continue
        near = float(dyn.torus_distance(result.z, x))
        outcomes.append("passed" if near <= epsilon else "failed")
    attempted = sum(o != "skipped" for o in outcomes)
    passed = sum(o == "passed" for o in outcomes)
    fraction = passed / attempted if attempted else 0.0
    if return_report:
        return fraction, {"fraction": fraction, "attempted": attempted,
                          "skipped": len(sample) - attempted, "outcomes": outcomes}
    return fraction
