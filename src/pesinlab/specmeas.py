"""Weak-specification machinery: covers, transits, gluing, periodic measures.

The pipeline mirrors the constructive route from recurrence to invariant
measures: cover the working region with small balls, record minimal transit
times between balls along sampled orbits, splice orbit segments into a
periodic pseudo-orbit using stored transit witnesses as connectors, shadow
it, and compare the resulting periodic measure with a Birkhoff target in
the weak-* sense via trigonometric test functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import systems as dyn
from .errors import DimensionMismatchError, UnresolvedTransitionError
from .shadow import PseudoOrbit, check_positive, solve_shadow

__all__ = [
    "Cover",
    "build_cover",
    "TransitionTable",
    "transition_times",
    "GluePlan",
    "glue_segments",
    "specification_shadow",
    "EmpiricalMeasure",
    "weak_star_distance",
    "measure_curve",
    "approximate_invariant_measure",
]


# Cap on the cells of a cover's grid index; coarser cells stay correct and
# only add candidates, while the CSR offsets stay small in any dimension.
_MAX_CELLS = 1 << 20


class _Grid:
    """Uniform grid index of torus points, cells strictly wider than ``radius``.

    A point within ``radius`` of another lies in one of the 3^d cells around
    the other's cell (mod n), so those cells hold every candidate.  Each
    cell keeps the items of those cells as one CSR list, so a query is one
    lookup of its own cell.  A list takes the cells at offsets
    product((0, 1, -1), repeat=d) in that order (each cell once when
    n <= 2) and each cell's items ascending.  Memory is O(n^d + 3^d items).
    """

    def __init__(self, points, radius):
        d = points.shape[1]
        n = int(1.0 / (radius * (1.0 + 1e-9)))
        self.n = n = max(1, min(n, int(_MAX_CELLS ** (1.0 / d) + 1e-9)))
        keys = self.keys(points)
        # numpy's stable sort of keys of 16 bits or less is a radix sort
        order = np.argsort(keys.astype(np.min_scalar_type(n ** d - 1)), kind="stable")
        count = np.bincount(keys, minlength=n ** d)
        occupied = np.flatnonzero(count)
        size = count[occupied]
        # listers[j, c]: the cell whose list holds occupied cell c at offset
        # j, c minus that offset.  For one j these cells are distinct, and
        # every list fills in j order.
        steps = np.unique(np.array([-1, 0, 1]) % n)
        listers = np.zeros((len(occupied), 1), dtype=np.int64)
        for a in range(d):
            back = (occupied[:, None, None] // n ** (d - 1 - a) - steps) % n
            listers = (listers[:, :, None] * n + back).reshape(len(occupied), -1)
        listers = listers.T
        length = np.zeros(n ** d, dtype=np.int64)
        at = np.empty_like(listers)
        for j, cells in enumerate(listers):
            at[j] = length[cells]
            length[cells] = at[j] + size
        self.start = np.zeros(n ** d + 1, dtype=np.int64)
        np.cumsum(length, out=self.start[1:])
        at += self.start[listers]
        self.items = np.empty(len(order) * len(listers), dtype=np.int64)
        self.items[_spans(at.ravel(), np.tile(size, len(listers)))] = np.tile(
            order, len(listers))

    def keys(self, points):
        """Cell index of wrapped points (x < 1 keeps x * n below n)."""
        cells = np.floor(dyn.wrap(points) * self.n).astype(np.int64)
        key = cells[:, 0]
        for a in range(1, cells.shape[1]):
            key = key * self.n + cells[:, a]
        return key

    def candidates(self, points):
        """(query index, item index) for every item near each query's cell."""
        key = self.keys(points)
        lo = self.start[key]
        cnt = self.start[key + 1] - lo
        return np.repeat(np.arange(len(points)), cnt), self.items[_spans(lo, cnt)]


def _spans(lo, cnt):
    """The ranges lo[k], ..., lo[k] + cnt[k] - 1, concatenated."""
    return np.arange(int(cnt.sum())) - np.repeat(np.cumsum(cnt) - cnt - lo, cnt)


@dataclass(frozen=True, eq=False)
class Cover:
    """Finite family of open balls with diameters below the mesh."""

    centers: np.ndarray
    radii: np.ndarray
    mesh: float
    _grid: _Grid = field(init=False, repr=False)

    def __post_init__(self):
        centers = _finite_rows(self.centers, "cover centers")
        radii = np.atleast_1d(np.asarray(self.radii, dtype=float))
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "radii", radii)
        if len(centers) != len(radii) or len(centers) == 0:
            raise ValueError("cover needs matching nonempty centers and radii")
        check_positive("mesh", self.mesh)
        if not np.all((radii > 0.0) & (radii <= self.mesh / 2.0)):
            raise ValueError("radii must lie in (0, mesh/2]")
        object.__setattr__(self, "_grid", _Grid(centers, float(radii.max())))

    @property
    def size(self):
        return len(self.centers)

    @property
    def dim(self):
        return self.centers.shape[1]

    def locate(self, points):
        """Index of the first ball strictly containing each point, else -1."""
        pts = _finite_rows(points, "points", self.dim)
        t, b = self.members(pts)
        out = np.full(len(pts), -1, dtype=np.int64)
        first = np.ones(len(t), dtype=bool)
        first[1:] = t[1:] != t[:-1]
        out[t[first]] = b[first]
        return out

    def members(self, points):
        """All (point index, ball index) membership pairs, point-major order."""
        pts = _finite_rows(points, "points", self.dim)
        t, b = self._grid.candidates(pts)
        dist = dyn.torus_distance(pts.take(t, axis=0), self.centers.take(b, axis=0))
        # compress: a boolean index of this many entries costs several times more
        key = np.compress(dist < self.radii.take(b), t * self.size + b)
        return np.divmod(np.sort(key), self.size)


def _finite_rows(values, what, dim=None):
    """``values`` as a float array of at least 2 axes, checked finite, and
    (count, dim) when ``dim`` is given."""
    pts = np.atleast_2d(np.asarray(values, dtype=float))
    if dim is not None and (pts.ndim != 2 or pts.shape[1] != dim):
        raise DimensionMismatchError(f"points of shape {pts.shape} for a cover of dimension {dim}")
    if not np.isfinite(pts).all():
        raise ValueError(f"{what} must be finite")
    return pts


# Samples per batch of build_cover's greedy and candidate pairs per run of
# its marking: large enough to share numpy's per-call cost among many
# centers, small enough that a batch's pairwise distances and a run's tests
# of samples an earlier center of the run covers stay cheap.
_BATCH = 32
_RUN_PAIRS = 4096


def build_cover(samples, delta):
    """Greedy cover: first uncovered sample becomes a center of radius delta/2.

    The greedy runs a batch at a time.  A batch is the first _BATCH
    uncovered samples, and a sample of it is a center iff no earlier center
    of the batch is within the radius.  Each distance is
    torus_distance(later sample, earlier one), the call that marks covered
    samples below, so these are the centers of the one-at-a-time greedy.
    The new centers' grid candidates are then tested in runs of consecutive
    centers, a run starting at the center that holds every _RUN_PAIRS-th
    candidate, and a run tests only the samples earlier runs left
    uncovered.  So sparse samples take one run per batch, while a center
    with that many candidates is a run of its own, as one at a time.
    """
    # a NaN is within no radius of any center, so it would stay uncovered
    pts = _finite_rows(samples, "samples")
    if len(pts) == 0:
        raise ValueError("samples must be nonempty")
    pts = dyn.wrap(pts)
    check_positive("delta", delta)
    radius = delta / 2.0
    grid = _Grid(pts, radius)
    centers = []
    uncovered = np.ones(len(pts), dtype=bool)
    idx = np.arange(min(len(pts), _BATCH))
    while idx.size:
        batch = pts[idx]
        # close[a, b] for a > b: the later sample a is within the radius of b
        close = dyn.torus_distance(batch[:, None], batch) < radius
        new, hit = [], np.zeros(len(batch), dtype=bool)
        for p in range(len(batch)):
            if not hit[p]:
                new.append(p)
                hit |= close[:, p]
        c = batch[new]
        centers.append(c)
        q, near = grid.candidates(c)
        cuts = np.append(np.unique(np.searchsorted(q, q[::_RUN_PAIRS])), len(q))
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            keep = uncovered[near[lo:hi]]
            run, owner = near[lo:hi][keep], q[lo:hi][keep]
            # take: fancy indexing of rows this narrow costs several times more
            dist = dyn.torus_distance(pts.take(run, axis=0), c.take(owner, axis=0))
            uncovered[run[dist < radius]] = False
        # every sample up to the batch's last is now covered
        rest = idx[-1] + 1
        idx = rest + np.flatnonzero(uncovered[rest:])[:_BATCH]
    centers = np.concatenate(centers)
    return Cover(centers=centers, radii=np.full(len(centers), radius), mesh=float(delta))


@dataclass(frozen=True, eq=False)
class TransitionTable:
    """Minimal observed transit times X[i, j] from ball j into ball i.

    Entries are -1 where no transit was observed within the horizon
    (unresolved: possibly an obstruction, possibly undersampling).  Witness
    points realize the recorded transits and seed connector segments.
    """

    X: np.ndarray
    witnesses: np.ndarray

    @property
    def resolved(self):
        return self.X >= 0

    @property
    def X1(self):
        return int(self._resolved_times().min())

    @property
    def X2(self):
        return int(self._resolved_times().max())

    def _resolved_times(self):
        if not self.resolved.any():
            raise ValueError("no resolved transitions")
        return self.X[self.resolved]


# Entries of one block of the last-visit table; a block holds
# max(1, _BLOCK_ENTRIES // m) source times for m balls.  Larger blocks save
# little time and raise peak memory.
_BLOCK_ENTRIES = 1 << 17
# Rows of a chunk of _running_min's scan.  A block holds about
# _BLOCK_ENTRIES entries whatever its shape, and 8 rows beat 4, 16 and 32
# on both `specify`'s 164 x 799 blocks and `measure`'s 3,276 x 40 ones.
_SCAN_ROWS = 8


def transition_times(system, cover, min_n, horizon, budget, seed=0):
    """Scan sampled orbits for the least transit >= min_n between ball pairs.

    Orbits are seeded independently from (seed, orbit index); the merge
    keeps the smallest transit per pair, breaking ties in favor of earlier
    orbits and earlier witness times, so growing the budget only refines.

    Each orbit is read through its last-visit table: L_j(u) is the last
    time <= u at which the orbit is in ball j.  The least transit j -> i
    is the minimum of s - L_j(s - min_n) over the hits (s, i): the times
    s >= min_n at which the orbit is in ball i.
    Every such candidate is a transit, and nothing is lost: if start t is
    optimal and s is the first time >= t + min_n in ball i, then
    t' = L_j(s - min_n) >= t is in ball j with the same first hit s, so
    s - t' <= s - t, and optimality forces t' = t.  So every least transit
    and its earliest start appear among the candidates.  An orbit costs
    O((horizon + hits) * m) time for m balls, where hits counts its
    (time, ball) memberships.  Memory is O(m^2 + block).  The table keeps
    8 (1 + d) bytes a ball pair: X, and the witnesses as d contiguous
    (m, m) columns behind the (m, m, d) view it returns.  An orbit adds, a
    pair, its key and the transit and start taken from it, 4 bytes each up
    to horizon 32,767 and 8 above it, a byte of mask and one 8-byte witness
    column at a time; a block of the last-visit table holds at most
    _BLOCK_ENTRIES entries of the keys' type.
    """
    if min_n < 1 or horizon < min_n:
        raise ValueError(f"need 1 <= min_n <= horizon, got {min_n}, {horizon}")
    if budget < 1:
        raise ValueError(f"need budget >= 1, got {budget}")
    _check_dimension(system, cover)
    m, d = cover.size, cover.dim
    unseen = horizon + 1
    X = np.full((m, m), unseen, dtype=np.int64)
    witnesses = np.full((d, m, m), np.nan)

    for orbit_idx in range(budget):
        rng = np.random.default_rng([seed, orbit_idx])
        orbit = dyn.orbit_points(system, rng.random(system.dim), horizon)
        key = _least_transit_keys(*cover.members(orbit), m, min_n, horizon)
        transit, start = np.divmod(key, horizon + 2)
        # ties keep the earlier orbit; a pair with no transit has transit
        # horizon + 1, which beats nothing
        better = transit < X
        np.copyto(X, transit, where=better)
        for a in range(d):
            np.copyto(witnesses[a], orbit[:, a].take(start), where=better)
    X[X == unseen] = -1
    return TransitionTable(X=X, witnesses=np.moveaxis(witnesses, 0, -1))


def _check_dimension(system, cover):
    if system.dim != cover.dim:
        raise DimensionMismatchError(
            f"system of dimension {system.dim} for a cover of dimension {cover.dim}")


def _least_transit_keys(t_mem, b_mem, m, min_n, horizon):
    """Least transit from ball j into ball i on one orbit, as key[i, j].

    The key packs transit * (horizon + 2) + start, so its minimum is the
    least transit and, among equal transits, the earliest start; a pair
    with no transit keeps (horizon + 1) * (horizon + 2).  The table holds
    -(horizon + 1) L (see ``transition_times``), so a candidate's key is
    its row plus s * (horizon + 2); it is a running minimum over source
    times u = s - min_n, built one block of rows at a time with the last
    row carried to the next block.  Before its first visit L_j holds the
    sentinel -(horizon + 1), scaled (horizon + 1)^2, so such a candidate
    has transit > horizon and never beats the initial key.  Once the last
    row is carried, row u of a block gets s * (horizon + 2) added once, so
    its gathered rows are the candidates, folded into key[i] in rounds,
    the r-th hit of every ball in round r, so no index repeats within a
    round.

    Keys and the table are int32 whenever the largest key fits, else int64.
    That key, s * (horizon + 2) + (horizon + 1)^2 at s = horizon, is
    2 horizon^2 + 4 horizon + 1, which is 2^31 - 1 at horizon 32,767; a
    table entry and each partial sum lie between -(horizon + 1)^2 and it.
    """
    span = horizon + 2
    fits = 2 * horizon * horizon + 4 * horizon + 1 <= np.iinfo(np.int32).max
    dtype = np.int32 if fits else np.int64
    key = np.full((m, m), (horizon + 1) * span, dtype=dtype)
    never = (horizon + 1) ** 2
    last = np.full(m, never, dtype=dtype)
    rows = max(1, _BLOCK_ENTRIES // m)
    sources = horizon - min_n + 1
    for u0 in range(0, sources, rows):
        u1 = min(u0 + rows, sources)
        a, b = np.searchsorted(t_mem, [u0, u1])
        L = np.full((u1 - u0, m), never, dtype=dtype)
        L[t_mem[a:b] - u0, b_mem[a:b]] = t_mem[a:b] * -(horizon + 1)
        np.minimum(L[0], last, out=L[0])
        _running_min(L)
        last = L[-1].copy()
        L += (np.arange(u0 + min_n, u1 + min_n) * span).astype(dtype)[:, None]

        a, b = np.searchsorted(t_mem, [u0 + min_n, u1 + min_n])
        s, i = t_mem[a:b], b_mem[a:b]
        by_ball = np.argsort(i, kind="stable")
        sorted_i = i[by_ball]
        rank = np.arange(len(i)) - np.searchsorted(sorted_i, sorted_i)
        order = by_ball[np.argsort(rank, kind="stable")]
        bounds = [0, *np.cumsum(np.bincount(rank)).tolist()]
        s, i = s[order], i[order]
        cand = L[s - (u0 + min_n)]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            rnd, balls = cand[lo:hi], i[lo:hi]
            np.minimum(rnd, key[balls], out=rnd)
            key[balls] = rnd
    return key


def _running_min(L):
    """In place, row r of L becomes the minimum of its rows 0..r.

    Chunks of _SCAN_ROWS rows are scanned side by side, the minimum of the
    earlier chunks is carried into each, and the rows after the last whole
    chunk follow one at a time.  np.minimum.accumulate along axis 0 takes
    up to twice as long.
    """
    c = _SCAN_ROWS
    k = len(L) // c
    chunks = L[:k * c].reshape(k, c, L.shape[1])
    for r in range(1, c):
        np.minimum(chunks[:, r], chunks[:, r - 1], out=chunks[:, r])
    if k > 1:
        carry = np.minimum.accumulate(chunks[:-1, -1], axis=0)
        np.minimum(chunks[1:], carry[:, None], out=chunks[1:])
    for r in range(max(k * c, 1), len(L)):
        np.minimum(L[r], L[r - 1], out=L[r])


@dataclass(frozen=True, eq=False)
class GluePlan:
    """Cyclic splice of orbit segments and transit connectors.

    ``pseudo``'s chain alternates segment i with the connector realizing
    the recorded transit from segment i's end ball to segment i+1's start
    ball (cyclically): chain[0::2] are the segments, chain[1::2] the
    connectors, and the plan's record is read from them.
    """

    pseudo: PseudoOrbit

    def to_dict(self):
        chain, steps = self.pseudo.segments, self.pseudo.n_list
        return {
            "period": self.pseudo.total_length,
            "delta": self.pseudo.delta,
            # chain time after segment i and its connector
            "c_times": np.cumsum(np.add(steps[0::2], steps[1::2])).tolist(),
            "segments": [{"x": x[0].tolist(), "n": len(x) - 1} for x in chain[0::2]],
            "connectors": [{"y": y[0].tolist(), "transit": len(y) - 1} for y in chain[1::2]],
        }


def glue_segments(system, segments, cover, table):
    """Assemble the periodic pseudo-orbit segment_1, connector_1, ....

    Endpoints of every segment must lie in the cover; consecutive gluing
    uses the stored witness of the transit from the end ball of segment i
    to the start ball of segment i+1 (cyclically).  Gaps stay below the
    cover mesh because seam partners share a ball.
    """
    if not segments:
        raise ValueError("need at least one segment")
    _check_dimension(system, cover)
    for _, n in segments:
        if n < 1:
            raise ValueError(f"segment length must be >= 1, got {n}")
    pieces = [dyn.orbit_points(system, np.asarray(x, dtype=float), int(n)) for x, n in segments]
    balls = cover.locate([p[k] for p in pieces for k in (0, -1)]).reshape(-1, 2)
    for b0, b1 in balls:
        if b0 < 0 or b1 < 0:
            raise ValueError(f"segment endpoint not covered (start ball {b0}, end ball {b1})")
    chain = []
    for pts, b_end, b_next in zip(pieces, balls[:, 1], np.roll(balls[:, 0], -1)):
        transit = int(table.X[b_next, b_end])
        if transit < 0:
            raise UnresolvedTransitionError(
                f"transit from ball {b_end} to ball {b_next} unresolved")
        chain += [pts, dyn.orbit_points(system, table.witnesses[b_next, b_end], transit)]
    return GluePlan(PseudoOrbit(segments=tuple(chain), periodic=True, delta=cover.mesh))


def specification_shadow(system, plan, tol=1e-12):
    """Shadow the glued plan into a genuine periodic orbit."""
    return solve_shadow(system, plan.pseudo, tol=tol)


@dataclass(frozen=True, eq=False)
class EmpiricalMeasure:
    """Finitely supported probability measure on the torus."""

    points: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        pts = _finite_rows(self.points, "support points")
        if len(pts) == 0:
            raise ValueError("measure needs at least one support point")
        pts = dyn.wrap(pts)
        object.__setattr__(self, "points", pts)
        if self.weights is None:
            w = np.full(len(pts), 1.0 / len(pts))
        else:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (len(pts),) or not np.all(w > 0.0):
                raise ValueError("weights must be positive, one per point")
            total = w.sum()
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"weights must sum to 1, got {total}")
            w = w / total
        object.__setattr__(self, "weights", w)

    @property
    def dim(self):
        return self.points.shape[1]

    @classmethod
    def from_orbit(cls, system, x, n):
        """Birkhoff measure of the first n orbit points of x."""
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        pts = dyn.orbit_points(system, np.asarray(x, dtype=float), int(n) - 1)
        return cls(points=pts)

    def character_moments(self, degree):
        """Moments sum_j w_j exp(2 pi i k.x_j), ||k||_inf <= degree, at [k + degree].

        z_a = exp(2 pi i x_a) is taken once per coordinate, its powers up to
        degree by complex products and the negative ones as conjugates; the
        weighted products of one power per coordinate are summed by one GEMM
        per chunk of 8192 points.  Each character value is within
        (2 pi + 3) dim degree eps of exact: z_a is within (2 pi + sqrt 2) eps
        and each of at most dim degree complex products adds sqrt(5)/2 eps.
        The sum adds a dot product's rounding, as a direct sum would.
        """
        D, d = int(degree), self.dim
        side = 2 * D + 1
        out = np.zeros((side ** (d - 1), side), dtype=complex)
        for lo in range(0, len(self.points), 8192):
            z = np.exp(2j * np.pi * self.points[lo:lo + 8192].T)
            n = z.shape[1]
            pw = np.empty((d, side, n), dtype=complex)   # pw[a, D + k] = z_a^k
            pw[:, D] = 1.0
            for k in range(D + 1, side):
                pw[:, k] = pw[:, k - 1] * z
            pw[:, :D] = pw[:, :D:-1].conj()
            lead = self.weights[None, lo:lo + 8192]
            for a in range(d - 1):
                lead = (lead[:, None, :] * pw[a]).reshape(-1, n)
            out += lead @ pw[-1].T
        return out.reshape((side,) * d)


def _moment_gap(mom1, mom2):
    """Max |Re|, |Im| difference of two moment grids, leaving out k = 0."""
    diff = mom1 - mom2
    diff.flat[diff.size // 2] = 0.0
    return float(max(np.abs(diff.real).max(), np.abs(diff.imag).max()))


def weak_star_distance(m1, m2, degree):
    """Max character-moment discrepancy over 0 < ||k||_inf <= degree.

    A pseudometric whose vanishing for all degrees is weak-* equality;
    Lebesgue has all nonzero moments equal to 0, giving clean anchors.
    """
    if m1.dim != m2.dim:
        raise DimensionMismatchError(f"measure dims {m1.dim} != {m2.dim}")
    if degree < 1:
        raise ValueError(f"need degree >= 1, got {degree}")
    return _moment_gap(m1.character_moments(degree), m2.character_moments(degree))


def measure_curve(system, target, delta, budgets, tol=1e-12, degree=3,
                  n_segments=3, min_n=2, horizon=4000, sample_orbits=4, seed=0):
    """Periodic approximants of a Birkhoff target: (measure, distance) per budget.

    Budget b cuts the first b steps of the target orbit into ``n_segments``
    consecutive segments, glues them through a mesh-delta cover of the
    target support and shadows the splice into a cycle.  The cover, the
    transition table and the target's moments do not depend on the budget,
    so they are built once, after every input is checked.  The weak-*
    distance need not fall as the budget grows: each budget cuts the target
    differently, so the solved cycles are not nested (see the README).
    """
    pts = target.points
    budgets = [int(b) for b in budgets]
    if not budgets or not 2 * n_segments <= min(budgets) <= max(budgets) < len(pts):
        raise ValueError(
            f"budgets must lie in [{2 * n_segments}, {len(pts) - 1}], got {budgets}")
    if degree < 1:
        raise ValueError(f"need degree >= 1, got {degree}")
    if sample_orbits < 1:
        raise ValueError(f"need sample_orbits >= 1, got {sample_orbits}")
    check_positive("delta", delta)
    check_positive("tol", tol)
    top = max(budgets)
    step_gap = dyn.torus_distance(system.step_many(pts[:top]), pts[1:top + 1])
    if float(np.max(step_gap)) > 1e-9:
        raise ValueError("target points are not a consecutive orbit of the system")

    cover = build_cover(pts, delta)
    table = transition_times(system, cover, min_n, horizon, sample_orbits, seed=seed)
    moments = target.character_moments(degree)
    curve = []
    for budget in budgets:
        cuts = np.unique(np.linspace(0, budget, n_segments + 1).astype(int))
        segments = [(pts[a], int(b - a)) for a, b in zip(cuts, cuts[1:])]
        plan = glue_segments(system, segments, cover, table)
        result = specification_shadow(system, plan, tol=tol)
        approx = EmpiricalMeasure(points=result.points)
        curve.append((approx, _moment_gap(moments, approx.character_moments(degree))))
    return curve


def approximate_invariant_measure(system, target, delta, budget, **options):
    """The one-budget :func:`measure_curve`: a (measure, distance) pair."""
    return measure_curve(system, target, delta, [budget], **options)[0]
