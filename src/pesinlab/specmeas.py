"""Weak-specification machinery: covers, transits, gluing, periodic measures.

The pipeline mirrors the constructive route from recurrence to invariant
measures: cover the working region with small balls, record minimal transit
times between balls along sampled orbits, splice orbit segments into a
periodic pseudo-orbit using stored transit witnesses as connectors, shadow
it, and compare the resulting periodic measure with a Birkhoff target in
the weak-* sense via trigonometric test functions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import systems as dyn
from ._serialize import fmt_float, write_csv
from .errors import DimensionMismatchError, UnresolvedTransitionError
from .shadow import PseudoOrbit, solve_shadow

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
    "approximate_invariant_measure",
    "transition_table_csv",
    "measure_csv",
]


# Cap on the cells of a cover's grid index; coarser cells stay correct and
# only add candidates, while the CSR offsets stay small in any dimension.
_MAX_CELLS = 1 << 20


class _Grid:
    """Uniform grid index of torus points, cells strictly wider than ``radius``.

    A point within ``radius`` of another lies in one of the 3^d cells around
    the other's cell (mod n), so those cells hold every candidate.  Items are
    stored sorted by cell (ascending index within a cell) with CSR offsets.
    """

    def __init__(self, points, radius):
        d = points.shape[1]
        n = int(1.0 / (radius * (1.0 + 1e-9)))
        self.n = max(1, min(n, int(_MAX_CELLS ** (1.0 / d) + 1e-9)))
        self.strides = self.n ** np.arange(d - 1, -1, -1, dtype=np.int64)
        steps = np.unique(np.array([-1, 0, 1]) % self.n)
        self.offsets = np.array(list(itertools.product(steps, repeat=d)))
        keys = self.cells(points) @ self.strides
        self.order = np.argsort(keys, kind="stable")
        self.start = np.searchsorted(keys[self.order],
                                     np.arange(self.n ** d + 1))

    def cells(self, points):
        """Cell coordinates of wrapped points (x < 1 keeps x * n below n)."""
        return np.floor(dyn.wrap(points) * self.n).astype(np.int64)

    def candidates(self, points):
        """(query index, item index) for every item near each query's cell."""
        near = (self.cells(points)[:, None, :] + self.offsets) % self.n
        keys = (near @ self.strides).ravel()
        lo = self.start[keys]
        cnt = self.start[keys + 1] - lo
        total = int(cnt.sum())
        first = np.cumsum(cnt) - cnt
        pos = np.arange(total) - np.repeat(first - lo, cnt)
        query = np.repeat(np.arange(len(points)), cnt.reshape(len(points), -1).sum(1))
        return query, self.order[pos]


@dataclass(frozen=True, eq=False)
class Cover:
    """Finite family of open balls with diameters below the mesh."""

    centers: np.ndarray
    radii: np.ndarray
    mesh: float
    _grid: _Grid = field(init=False, repr=False)

    def __post_init__(self):
        centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        radii = np.atleast_1d(np.asarray(self.radii, dtype=float))
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "radii", radii)
        if len(centers) != len(radii) or len(centers) == 0:
            raise ValueError("cover needs matching nonempty centers and radii")
        if not self.mesh > 0.0:
            raise ValueError(f"mesh must be positive, got {self.mesh}")
        if np.any(radii <= 0.0) or np.any(radii > self.mesh / 2.0):
            raise ValueError("radii must lie in (0, mesh/2]")
        object.__setattr__(self, "_grid", _Grid(centers, float(radii.max())))

    @property
    def size(self):
        return len(self.centers)

    def locate(self, points):
        """Index of the first ball strictly containing each point, else -1."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        t, b = self.members(pts)
        out = np.full(len(pts), -1, dtype=np.int64)
        first = np.ones(len(t), dtype=bool)
        first[1:] = t[1:] != t[:-1]
        out[t[first]] = b[first]
        return out

    def members(self, points):
        """All (point index, ball index) membership pairs, point-major order."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        t, b = self._grid.candidates(pts)
        diff = dyn.torus_diff(pts[t], self.centers[b])
        inside = np.linalg.norm(diff, axis=-1) < self.radii[b]
        key = np.sort(t[inside] * self.size + b[inside])
        return key // self.size, key % self.size


def build_cover(samples, delta):
    """Greedy cover: first uncovered sample becomes a center of radius delta/2."""
    pts = dyn.wrap(np.atleast_2d(np.asarray(samples, dtype=float)))
    if len(pts) == 0:
        raise ValueError("samples must be nonempty")
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    radius = delta / 2.0
    grid = _Grid(pts, radius)
    centers = []
    uncovered = np.ones(len(pts), dtype=bool)
    while uncovered.any():
        c = pts[int(np.argmax(uncovered))]
        centers.append(c)
        _, near = grid.candidates(c[None, :])
        near = near[uncovered[near]]
        dist = np.linalg.norm(dyn.torus_diff(pts[near], c), axis=-1)
        uncovered[near[dist < radius]] = False
    centers = np.array(centers)
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
    min_n: int
    horizon: int
    budget: int
    seed: int

    @property
    def resolved(self):
        return self.X >= 0

    @property
    def X1(self):
        if not self.resolved.any():
            raise ValueError("no resolved transitions")
        return int(self.X[self.resolved].min())

    @property
    def X2(self):
        if not self.resolved.any():
            raise ValueError("no resolved transitions")
        return int(self.X[self.resolved].max())


# Entries of one block of the last-visit table; a block holds
# max(1, _BLOCK_ENTRIES // m) source times for m balls.  Larger blocks save
# little time and raise peak memory.
_BLOCK_ENTRIES = 1 << 17


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
    O((horizon + hits) * m) time and O(m^2 + block) memory for m balls,
    where hits counts its (time, ball) memberships and a block of the
    table holds at most _BLOCK_ENTRIES entries.
    """
    if min_n < 1 or horizon < min_n:
        raise ValueError(f"need 1 <= min_n <= horizon, got {min_n}, {horizon}")
    if budget < 1:
        raise ValueError(f"need budget >= 1, got {budget}")
    m = cover.size
    d = cover.centers.shape[1]
    span = horizon + 2
    unseen = horizon + 1
    X = np.full((m, m), unseen, dtype=np.int64)
    witnesses = np.full((m * m, d), np.nan)

    for orbit_idx in range(budget):
        rng = np.random.default_rng([seed, orbit_idx])
        orbit = dyn.orbit_points(system, rng.random(system.dim), horizon)
        key = _least_transit_keys(*cover.members(orbit), m, min_n, horizon).ravel()
        # transit < X exactly when key < X * span; ties keep the earlier orbit
        better = key < X.ravel() * span
        key = key[better]
        X.ravel()[better] = key // span
        witnesses[better] = orbit[key % span]
    X[X == unseen] = -1
    return TransitionTable(X=X, witnesses=witnesses.reshape(m, m, d),
                           min_n=int(min_n), horizon=int(horizon),
                           budget=int(budget), seed=int(seed))


def _least_transit_keys(t_mem, b_mem, m, min_n, horizon):
    """Least transit from ball j into ball i on one orbit, as key[i, j].

    The key packs transit * (horizon + 2) + start, so its minimum is the
    least transit and, among equal transits, the earliest start; a pair
    with no transit keeps (horizon + 1) * (horizon + 2).  L (see
    ``transition_times``) is a running maximum over source times
    u = s - min_n, built one block of rows at a time with the last row
    carried to the next block.  Before its first visit L_j holds the
    sentinel -(horizon + 1), so such a candidate has transit > horizon and
    never beats the initial key.  A block's candidates are folded into
    key[i] in rounds, the r-th hit of every ball in round r, so no index
    repeats within a round.
    """
    span = horizon + 2
    key = np.full((m, m), (horizon + 1) * span, dtype=np.int64)
    last = np.full(m, -(horizon + 1), dtype=np.int32)
    rows = max(1, _BLOCK_ENTRIES // m)
    sources = horizon - min_n + 1
    for u0 in range(0, sources, rows):
        u1 = min(u0 + rows, sources)
        a, b = np.searchsorted(t_mem, [u0, u1])
        L = np.full((u1 - u0, m), -(horizon + 1), dtype=np.int32)
        L[t_mem[a:b] - u0, b_mem[a:b]] = t_mem[a:b]
        np.maximum(L[0], last, out=L[0])
        np.maximum.accumulate(L, axis=0, out=L)
        last = L[-1].copy()

        a, b = np.searchsorted(t_mem, [u0 + min_n, u1 + min_n])
        s, i = t_mem[a:b], b_mem[a:b]
        by_ball = np.argsort(i, kind="stable")
        sorted_i = i[by_ball]
        rank = np.arange(len(i)) - np.searchsorted(sorted_i, sorted_i)
        order = by_ball[np.argsort(rank, kind="stable")]
        bounds = np.cumsum(np.r_[0, np.bincount(rank)]).tolist()
        s, i = s[order], i[order]
        cand = np.multiply(L[s - (u0 + min_n)], -(horizon + 1), dtype=np.int64)
        cand += (s * span)[:, None]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            rnd, balls = cand[lo:hi], i[lo:hi]
            np.minimum(rnd, key[balls], out=rnd)
            key[balls] = rnd
    return key


@dataclass(frozen=True, eq=False)
class GluePlan:
    """Cyclic splice of orbit segments and transit connectors.

    The assembled pseudo-orbit alternates segment i with the connector
    realizing the recorded transit from segment i's end ball to segment
    i+1's start ball; c_times[i] is the chain time after segment i+1 and
    its connector.
    """

    segments: tuple
    connectors: tuple
    pseudo: PseudoOrbit
    period: int
    c_times: tuple
    delta: float

    def to_dict(self):
        return {
            "period": self.period,
            "delta": self.delta,
            "c_times": list(self.c_times),
            "segments": [
                {"x": [float(v) for v in x], "n": int(n)} for x, n in self.segments
            ],
            "connectors": [
                {"y": [float(v) for v in y], "transit": int(t)}
                for y, t in self.connectors
            ],
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
    seg_data = []
    for x, n in segments:
        if n < 1:
            raise ValueError(f"segment length must be >= 1, got {n}")
        pts = dyn.orbit_points(system, np.asarray(x, dtype=float), int(n))
        b0, b1 = cover.locate(np.array([pts[0], pts[-1]]))
        if b0 < 0 or b1 < 0:
            raise ValueError(
                f"segment endpoint not covered (start ball {b0}, end ball {b1})")
        seg_data.append((pts, int(b0), int(b1)))

    connectors = []
    chain = []
    for i, (pts, _, b_end) in enumerate(seg_data):
        b_next = seg_data[(i + 1) % len(seg_data)][1]
        transit = int(table.X[b_next, b_end])
        if transit < 0:
            raise UnresolvedTransitionError(
                f"transit from ball {b_end} to ball {b_next} unresolved")
        y = table.witnesses[b_next, b_end]
        conn = dyn.orbit_points(system, y, transit)
        connectors.append((y, transit))
        chain.extend([pts, conn])

    pseudo = PseudoOrbit(segments=tuple(chain), periodic=True, delta=cover.mesh)
    n_list = [n for _, n in segments]
    x_list = [t for _, t in connectors]
    c_times = np.cumsum([n + t for n, t in zip(n_list, x_list)])
    return GluePlan(
        segments=tuple((pts[0], len(pts) - 1) for pts, _, _ in seg_data),
        connectors=tuple(connectors),
        pseudo=pseudo,
        period=int(c_times[-1]),
        c_times=tuple(int(c) for c in c_times),
        delta=cover.mesh,
    )


def specification_shadow(system, plan, tol=1e-12):
    """Shadow the glued plan into a genuine periodic orbit."""
    result = solve_shadow(system, plan.pseudo, tol=tol)
    if result.period != plan.period:
        raise RuntimeError(
            f"solver period {result.period} != plan period {plan.period}")
    return result


@dataclass(frozen=True, eq=False)
class EmpiricalMeasure:
    """Finitely supported probability measure on the torus."""

    points: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        pts = dyn.wrap(np.atleast_2d(np.asarray(self.points, dtype=float)))
        object.__setattr__(self, "points", pts)
        if len(pts) == 0:
            raise ValueError("measure needs at least one support point")
        if self.weights is None:
            w = np.full(len(pts), 1.0 / len(pts))
        else:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (len(pts),) or np.any(w <= 0.0):
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

    def character_moments(self, freqs):
        """(cos, sin) moments of the characters exp(2 pi i k.x), k in freqs."""
        re = np.zeros(len(freqs))
        im = np.zeros(len(freqs))
        for lo in range(0, len(self.points), 8192):
            chunk = self.points[lo:lo + 8192]
            w = self.weights[lo:lo + 8192]
            phase = 2.0 * np.pi * chunk @ freqs.T
            re += w @ np.cos(phase)
            im += w @ np.sin(phase)
        return re, im


def _character_grid(dim, degree):
    rng = range(-degree, degree + 1)
    ks = np.array([k for k in itertools.product(rng, repeat=dim) if any(k)])
    return ks.astype(float)


def weak_star_distance(m1, m2, degree):
    """Max character-moment discrepancy over 0 < ||k||_inf <= degree.

    A pseudometric whose vanishing for all degrees is weak-* equality;
    Lebesgue has all nonzero moments equal to 0, giving clean anchors.
    """
    if m1.dim != m2.dim:
        raise DimensionMismatchError(f"measure dims {m1.dim} != {m2.dim}")
    if degree < 1:
        raise ValueError(f"need degree >= 1, got {degree}")
    freqs = _character_grid(m1.dim, int(degree))
    re1, im1 = m1.character_moments(freqs)
    re2, im2 = m2.character_moments(freqs)
    return float(max(np.abs(re1 - re2).max(), np.abs(im1 - im2).max()))


def approximate_invariant_measure(system, target, delta, budget, tol=1e-12,
                                  degree=3, n_segments=3, min_n=2,
                                  horizon=4000, sample_orbits=4, seed=0):
    """Periodic measure approximating a Birkhoff target, with its distance.

    Consumes the first ``budget`` steps of the target orbit, cuts them into
    ``n_segments`` consecutive segments, glues them through a mesh-delta
    cover of the target support, shadows the splice, and returns the
    periodic measure of the solved cycle together with its weak-*
    distance to the target.

    The distance need not fall as the budget grows: each budget cuts the
    target differently and glues through its own cover, so the solved
    cycles are not nested.  On the 20000-point cat orbit of
    (0.04432299121099936, 0.4717689954978974), with the defaults and seed
    0, budgets 1000, 3000 and 8000 give 0.04116, 0.04330 and 0.01289.
    """
    pts = target.points
    if budget < 2 * n_segments or budget >= len(pts):
        raise ValueError(
            f"budget must lie in [{2 * n_segments}, {len(pts) - 1}], got {budget}")
    step_gap = dyn.torus_distance(system.step_many(pts[:budget]), pts[1:budget + 1])
    if float(np.max(step_gap)) > 1e-9:
        raise ValueError("target points are not a consecutive orbit of the system")

    cuts = np.unique(np.linspace(0, budget, n_segments + 1).astype(int))
    segments = [(pts[a], int(b - a)) for a, b in zip(cuts, cuts[1:])]
    cover = build_cover(pts, delta)
    table = transition_times(system, cover, min_n, horizon, sample_orbits, seed=seed)
    plan = glue_segments(system, segments, cover, table)
    result = specification_shadow(system, plan, tol=tol)
    approx = EmpiricalMeasure(points=result.points)
    return approx, weak_star_distance(target, approx, degree)


def transition_table_csv(table, path):
    """CSV rows (i, j, X, resolved, witness coordinates)."""
    d = table.witnesses.shape[2]
    header = ["i", "j", "X", "resolved"] + [f"y{a}" for a in range(d)]
    rows = []
    for i in range(table.X.shape[0]):
        for j in range(table.X.shape[1]):
            ok = table.X[i, j] >= 0
            wit = [fmt_float(v) for v in table.witnesses[i, j]] if ok else [""] * d
            rows.append([i, j, int(table.X[i, j]), int(ok)] + wit)
    write_csv(path, header, rows)


def measure_csv(measure, path):
    """CSV rows (weight, support point coordinates)."""
    d = measure.dim
    header = ["weight"] + [f"x{a}" for a in range(d)]
    rows = [
        [fmt_float(w)] + [fmt_float(v) for v in p]
        for w, p in zip(measure.weights, measure.points)
    ]
    write_csv(path, header, rows)
