"""The benchmark's operations: three families of pesinlab calls and their checks.

Each family runs a fixed list of public calls on inputs drawn from the
round's generator, times every call, and checks every output against the
benchmark's own references (``reference.py``) or a property the method must
have.  A workload runs one family at full size and the other two at probe
size, in turns, so every run reports every end-to-end metric while the
focus family takes most of the time.

Full sizes follow the repository's own callers: the acceptance criteria in
``tests/test_acceptance.py`` and the defaults of the ``pesinlab`` command.
Where a 30-second run cannot hold the source size the size is cut, and the
README says by how much.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

import reference as ref

ZETA, K_BLOCK = 0.4, 2            # block rate and index, criterion 07
MEMBERSHIP_HORIZON = 120          # criteria 07 and 12
INDEX_HORIZON = 200               # criterion 05, `pesinlab classify`
SEGMENT_LENGTHS = tuple(range(2 * K_BLOCK, 41))   # criterion 07: 2kK..40
SLACK_TOL = 1e-9                  # program slacks vs closed form
FIBER0_FAULT_HORIZON = 2600       # beyond it lambda_s_hat at fiber 0 is wrong
SHADOW_DELTA, SHADOW_TOL = 1e-8, 1e-12
OPEN_CHAIN = (44, 44, 43)         # criterion 08
PERIODIC_CHAIN = (16, 2)          # criterion 08: period 16 in two pieces
CLOSING_SET = ((1, 3), (2, 12), (3, 16), (4, 16))   # criterion 09: (m, count)
MIN_N = 4                         # least transit, criterion 10 and `glue`
MEASURE_DELTA, MEASURE_DEGREE = 0.25, 3
# Criterion 11 bounds the distance by 0.05 at every budget of its one target.
# On random targets that holds from budget 8000 only: at 1000, 34 of 111
# targets were at 0.05 or above, and at 3000 the largest was 0.046.
BOUNDED_BUDGET = 8000
# `pesinlab measure` defaults: its budget sweep gets further from this
# target between budgets 1000 and 3000 (see the README); the inputs do not
# depend on the seed, so every round fails the same call.
MONOTONE_CASE = dict(start=(0.04432299121099936, 0.4717689954978974),
                     target=20_000, seed=0, budgets=(1000, 3000, 8000))


@dataclass(frozen=True)
class CertifySize:
    pool: int                     # random points, one membership call
    lengths: tuple                # segment lengths, in turn
    ends_per_length: int          # passing starts moved n steps, one call
    segments_per_length: int      # block-to-block segments checked
    block_index: int              # single-point min_block_index calls
    cat_horizon: int
    p24_horizon: int
    mean_exponents: tuple         # (fiber, horizon) per call


@dataclass(frozen=True)
class ShadowSize:
    sets: int                     # sets of chains and closings per round
    cat_open: int                 # per set
    cat_periodic: int
    p24_open: int                 # and criterion 09's 47 closings a set
    probe_trials: int


@dataclass(frozen=True)
class SpecifySize:
    pipelines: int                # glue pipelines per round
    mesh: float
    transit_horizon: int
    sample_orbits: int
    cover_orbit: int              # length of the extra orbit in the cover sample
    pair_sample: int              # random table entries checked by brute force
    target: int                   # length of the Birkhoff target orbit
    budgets: tuple
    measure_horizon: int
    measure_orbits: int
    monotone_case: bool           # run the fixed MONOTONE_CASE sweep


CERTIFY = {
    "full": CertifySize(pool=1000, lengths=SEGMENT_LENGTHS, ends_per_length=16,
                        segments_per_length=8, block_index=6,
                        cat_horizon=100_000, p24_horizon=10_000,
                        mean_exponents=((0.5, 100), (0.5, 200), (0.5, 300),
                                        (0.0, 300), (0.0, 1000), (0.0, 2000),
                                        (0.0, 4000), (0.0, 6000))),
    "probe": CertifySize(pool=300, lengths=SEGMENT_LENGTHS[::4], ends_per_length=16,
                         segments_per_length=2, block_index=2,
                         cat_horizon=20_000, p24_horizon=1_000,
                         mean_exponents=((0.5, 300), (0.0, 300))),
}
SHADOW = {
    "full": ShadowSize(sets=16, cat_open=75, cat_periodic=25, p24_open=25,
                       probe_trials=10),
    "probe": ShadowSize(sets=4, cat_open=8, cat_periodic=2, p24_open=2,
                        probe_trials=2),
}
SPECIFY = {
    "full": SpecifySize(pipelines=1, mesh=0.05, transit_horizon=10_000, sample_orbits=1,
                        cover_orbit=4000, pair_sample=64, target=20_000,
                        budgets=(1000, 3000, 8000),
                        measure_horizon=4000, measure_orbits=4, monotone_case=True),
    "probe": SpecifySize(pipelines=2, mesh=0.2, transit_horizon=1000, sample_orbits=2,
                         cover_orbit=1000, pair_sample=16, target=20_000,
                         budgets=(1000, 8000),
                         measure_horizon=1000, measure_orbits=2, monotone_case=False),
}


# On a shared virtual machine the speed of a core can swing by up to 2x with
# the load of other tenants, thread CPU time with it, and no statistic of
# raw times stays steady across such swings (see the README).  So every time
# is also taken in reference seconds: a fixed kernel with pesinlab's mix of
# small numpy calls and float loops is timed between calls, at least every
# CALIBRATE_EVERY seconds, and after the run each call's time is scaled by
# CALIBRATION_REF over the median kernel time within CALIBRATION_WINDOW
# seconds of the call, or within the call's own length if that is longer.
CALIBRATE_EVERY = 0.05
CALIBRATION_WINDOW = 0.25
CALIBRATION_MIN_SAMPLES = 5
CALIBRATION_REF = 3.0e-4          # kernel seconds at the reference speed
_CAL_X = np.linspace(0.0, 1.0, 192).reshape(64, 3)
_CAL_M = np.array([[2.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.5, 1.0]])


def calibration_kernel():
    """Fixed work: small-array matrix products and ufuncs, and float loops."""
    x, s = _CAL_X, 0.0
    for i in range(40):
        x = np.mod(x @ _CAL_M + 0.25, 1.0)
        y, z = float(x[i, 0]), float(x[i, 1])
        for _ in range(20):
            y, z = (2.0 * y + z) % 1.0, (y + z) % 1.0
        s += y * z
    return s


class Speed:
    """Kernel times along the run, and the reference-second scale they give."""

    def __init__(self):
        self.at = []              # perf_counter at the end of each kernel
        self.kernel_s = []
        self._sorted = None

    def tick(self):
        """Time the kernel unless it ran in the last CALIBRATE_EVERY seconds."""
        if self.at and time.perf_counter() - self.at[-1] < CALIBRATE_EVERY:
            return
        t0 = time.perf_counter()
        calibration_kernel()
        t1 = time.perf_counter()
        self.at.append(t1)
        self.kernel_s.append(t1 - t0)
        self._sorted = None

    def scale(self, t0, t1):
        """Reference seconds per second for a span [t0, t1]: CALIBRATION_REF
        over the median kernel time within max(CALIBRATION_WINDOW, t1 - t0)
        of the span, or of the CALIBRATION_MIN_SAMPLES kernels nearest to
        it.  A long call runs through many swings of speed, so its scale
        averages over a stretch as long as itself."""
        if self._sorted is None:
            self._sorted = np.array(self.at), np.array(self.kernel_s)
        at, ks = self._sorted
        window = max(CALIBRATION_WINDOW, t1 - t0)
        lo = int(np.searchsorted(at, t0 - window))
        hi = int(np.searchsorted(at, t1 + window, side="right"))
        while hi - lo < min(CALIBRATION_MIN_SAMPLES, len(at)):
            if lo > 0 and (hi == len(at) or t0 - at[lo - 1] < at[hi] - t1):
                lo -= 1
            else:
                hi += 1
        return CALIBRATION_REF / float(np.median(ks[lo:hi]))

    def ref_seconds(self, t0, t1):
        return (t1 - t0) * self.scale(t0, t1)


class Bench:
    """Run state: the library, its systems, call timings, counts and problems."""

    def __init__(self, pl, speed):
        self.pl = pl
        self.speed = speed
        self.cat = pl.systems.make_system("cat")
        self.p24 = pl.systems.make_system("product24")
        self.p24_split = pl.systems.reference_splitting(self.p24)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.calls = {}           # (metric, kind) -> [(work, start, end)]
        self.family_busy = {}     # family -> seconds per round
        self.round_busy = 0.0

    def call(self, metric, fn, *args, kind=None, work=1, **kwargs):
        """Time one library call, charged to ``metric``; counts one operation.

        Calls of one ``kind`` do the same work on each round's inputs.
        """
        self.attempted += 1
        self.speed.tick()
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.speed.tick()
            self.round_busy += t1 - t0
            key = (metric, kind or fn.__name__)
            self.calls.setdefault(key, []).append((work, t0, t1))

    def check(self, problems):
        self.problems.extend(problems)

    def typical(self, metrics, rounds):
        """(work, reference seconds) of the calls charged to ``metrics`` in a
        typical round: each kind of call as often as it runs per round, at
        its median.  Medians keep a burst of load, which hits a few calls,
        out of the figure."""
        work = seconds = 0.0
        for (metric, _), calls in self.calls.items():
            if metrics is None or metric in metrics:
                per_round = len(calls) / rounds
                work += per_round * statistics.median(c[0] for c in calls)
                seconds += per_round * statistics.median(
                    self.speed.ref_seconds(c[1], c[2]) for c in calls)
        return work, seconds

    def rate(self, metric, rounds):
        work, seconds = self.typical({metric}, rounds)
        return work / seconds


# --- certify: block certificates, segments, exponents ----------------------

def _ends(starts, ns):
    """Orbit ends f^n(x) with the benchmark's product24 map, batched."""
    cur, out = starts.copy(), starts.copy()
    for t in range(1, int(ns.max()) + 1):
        cur = ref.p24_step(cur)
        out[ns == t] = cur[ns == t]
    return out


def _check_membership(certs, xs):
    """Certificates against the closed-form K = 1 slacks."""
    tables = ref.P24Slacks(xs[:, 0], MEMBERSHIP_HORIZON)
    want = tables.slacks(K_BLOCK, ZETA)
    got = [np.array([getattr(c, f) for c in certs])
           for f in ("slack_contraction", "slack_expansion", "slack_domination")]
    bad = []
    for name, g_val, w_val in zip(("contraction", "expansion", "domination"), got, want):
        err = float(np.abs(g_val - w_val).max())
        if not err <= SLACK_TOL:
            bad.append(f"membership {name} slack off the closed form by {err:.3e}")
    ok, near = tables.passed(K_BLOCK, ZETA, SLACK_TOL)
    passed = np.array([c.passed for c in certs])
    wrong = int(np.count_nonzero((passed != ok) & ~near))
    if wrong:
        bad.append(f"membership verdict differs from the closed form on {wrong} points")
    return bad


def _certify(b, xs, params, kind):
    """One check_block_membership_many call; the pass mask."""
    certs = b.call("block_certs", b.pl.pesin.check_block_membership_many,
                   b.p24, xs, b.p24_split, params, MEMBERSHIP_HORIZON,
                   kind=kind, work=len(xs))
    b.check(_check_membership(certs, xs))
    return np.array([c.passed for c in certs])


def certify(b, rng, z):
    """Criterion 07's pipeline: certify a pool, move the passing points n
    steps, certify the ends, check the block-to-block segments; then
    min_block_index, the spectra and mean_exponents."""
    pl, p24, split = b.pl, b.p24, b.p24_split
    params = pl.pesin.PesinParams(K=1, zeta=ZETA, k=K_BLOCK)

    pool = rng.random((z.pool, 3))
    passed = _certify(b, pool, params, "pool")
    n_ends = z.ends_per_length * len(z.lengths)
    starts = pool[passed][:n_ends]
    if len(starts) < n_ends:
        raise RuntimeError(f"only {len(starts)} passing points for {n_ends} ends")
    ns = np.resize(np.array(z.lengths), n_ends)
    ends = _ends(starts, ns)
    end_passed = _certify(b, ends, params, "ends")
    yield

    # The same segments_per_length segments of every length each round,
    # repeating a length's passing segments if it has too few, so every
    # round checks the same mix of lengths.
    for n in z.lengths:
        both = np.flatnonzero(end_passed & (ns == n))
        if len(both) == 0:
            raise RuntimeError(f"no block-to-block segment of length {n}")
        part = pl.quasihyp.canonical_partition(n, K_BLOCK, 1)
        for i in np.resize(both, z.segments_per_length):
            cert = b.call("qh_segments", pl.quasihyp.check_quasi_hyperbolic,
                          p24, starts[i], n, split, ZETA, part, kind=f"length-{n}")
            if not (cert.passed and cert.e <= K_BLOCK + 1):
                b.check([f"segment of length {n} from a block point not "
                         f"quasi-hyperbolic (passed={cert.passed}, e={cert.e})"])

    yield

    xs = rng.random((z.block_index, 3))
    want, near = ref.P24Slacks(xs[:, 0], INDEX_HORIZON).min_block_index(ZETA, SLACK_TOL)
    for x, w, close in zip(xs, want, near):
        got = b.call("block_index", pl.pesin.min_block_index,
                     p24, x, split, 1, ZETA, INDEX_HORIZON)
        if not close and got != (int(w) or None):
            b.check([f"min_block_index {got}, closed form {int(w) or None}"])

    yield

    spec = b.call("exponent_steps", pl.cocycle.lyapunov_spectrum,
                  b.cat, rng.random(2), z.cat_horizon, kind="spectrum-cat",
                  work=z.cat_horizon)
    b.check(_check_exponents("cat", spec.exponents, (-ref.LOG_U, ref.LOG_U)))
    x0 = np.array([0.0, rng.random(), rng.random()])
    spec = b.call("exponent_steps", pl.cocycle.lyapunov_spectrum,
                  p24, x0, z.p24_horizon, kind="spectrum-product24",
                  work=z.p24_horizon)
    b.check(_check_exponents("product24", spec.exponents,
                             (-ref.LOG_U, -ref.LOG2, ref.LOG_U)))

    yield

    for fiber, horizon in z.mean_exponents:
        _mean_exponents(b, fiber, horizon)


def _check_exponents(name, got, want):
    if len(got) != len(want) or max(abs(g - w) for g, w in zip(got, want)) > 1e-8:
        return [f"{name} exponents {got}, want {want} to 1e-8"]
    return []


def _mean_exponents(b, fiber, horizon):
    """One mean_exponents call at a fixed fiber, against the closed forms.

    At fiber 0 beyond FIBER0_FAULT_HORIZON the program's lambda_s_hat is
    wrong (the backward product underflows); such a call that misses -log 2
    is a failed operation, not a wrong answer.  The input does not depend on
    the seed, so every round fails the same calls.
    """
    known_fault = fiber == 0.0 and horizon > FIBER0_FAULT_HORIZON
    x = np.array([fiber, 0.3, 0.7])
    try:
        rep = b.call("exponent_steps", b.pl.cocycle.mean_exponents,
                     b.p24, x, b.p24_split, 1, horizon,
                     kind=f"mean_exponents-{fiber}-{horizon}", work=horizon)
    except b.pl.PesinLabError:
        if not known_fault:
            raise
        b.failed += 1
        return
    want = ref.p24_fixed_fiber_rates(fiber)
    bad = ref.check_close(f"lambda_s_hat at fiber {fiber}, horizon {horizon}",
                          rep.lambda_s_hat, want["lambda_s_hat"], 1e-12)
    if bad and known_fault:
        b.failed += 1
    else:
        b.check(bad)
    for key in ("lambda_u_hat", "lambda_sup_s_hat", "lambda_sup_u_hat", "limdom_hat"):
        b.check(ref.check_close(f"{key} at fiber {fiber}, horizon {horizon}",
                                getattr(rep, key), want[key], 1e-12))


# --- shadow: Newton shadowing and closing ----------------------------------

_E_STABLE = np.array([1.0, ref.LAM_S - 2.0]) / np.linalg.norm([1.0, ref.LAM_S - 2.0])


def _open_chain(rng, orbit, x, lengths):
    """Orbit pieces joined by jumps of size in [0.1, 0.5] delta."""
    segs = []
    for n in lengths:
        seg = orbit(x, n)
        segs.append(seg)
        jump = rng.standard_normal(len(x))
        jump *= rng.uniform(0.1, 0.5) * SHADOW_DELTA / np.linalg.norm(jump)
        x = np.mod(seg[-1] + jump, 1.0)
    return segs


def _periodic_chain(rng, period, pieces):
    """A cat periodic orbit, cut into ``pieces`` segments whose starts are
    pushed along the stable direction by up to delta/2."""
    cycle = ref.cat_periodic_orbit(rng.integers(0, 1000, size=2), period)
    n = period // pieces
    segs = []
    for c in range(0, period, n):
        eta = rng.uniform(0.25, 0.5) * SHADOW_DELTA * rng.choice([-1.0, 1.0])
        segs.append(ref.cat_orbit(np.mod(cycle[c] + eta * _E_STABLE, 1.0), n))
    return segs


def _solve(b, kind, system, segs, periodic):
    po = b.pl.shadow.PseudoOrbit(segments=tuple(segs), periodic=periodic,
                                 delta=SHADOW_DELTA)
    points = po.total_length + (0 if periodic else 1)
    res = b.call("shadowed_points", b.pl.shadow.solve_shadow, system, po,
                 tol=SHADOW_TOL, kind=kind, work=points)
    b.check(ref.check_shadow(res.points, segs, periodic, SHADOW_DELTA, SHADOW_TOL))
    return res


def _dyadic_point(rng, m):
    """A perturbed point of the 2^-m lattice, not on a coarser one, and its
    exact period."""
    q = 2 ** m
    while True:
        i, j = (int(v) for v in rng.integers(0, q, size=2))
        if i % 2 or j % 2:
            break
    period = ref.lattice_period(i, j, m)
    u = rng.standard_normal(2)
    eta = 3e-7 / (ref.LAM_U ** period + 1.0)
    return np.mod(np.array([i, j]) / q + eta * u / np.linalg.norm(u), 1.0), period


def shadow(b, rng, z):
    """Sets of criterion 08's chains (75 open, 25 periodic), 25 open
    product24 chains and criterion 09's 47 closings, so that every kind
    recurs through the round; then the shadowing-constant probe."""
    pl = b.pl
    period, pieces = PERIODIC_CHAIN
    for _ in range(z.sets):
        for _ in range(z.cat_open):
            segs = _open_chain(rng, ref.cat_orbit, rng.random(2), OPEN_CHAIN)
            _solve(b, "cat-open", b.cat, segs, False)
        for _ in range(z.cat_periodic):
            segs = _periodic_chain(rng, period, pieces)
            res = _solve(b, f"cat-periodic-{period}", b.cat, segs, True)
            gap = float(ref.torus_dist(res.points, ref.dense_periodic_newton(segs)).max())
            if not gap < 1e-10:
                b.check([f"periodic chain of period {period}: {gap:.3e} from dense Newton"])
        for _ in range(z.p24_open):
            segs = _open_chain(rng, ref.p24_orbit, rng.random(3), OPEN_CHAIN)
            _solve(b, "product24-open", b.p24, segs, False)
        for m, count in CLOSING_SET:
            for _ in range(count):
                _close(b, rng, m)
        yield

    deltas = [1e-5, 1e-6, 1e-7]
    sc = b.call("shadow_probe", pl.shadow.estimate_shadowing_constant,
                b.cat, deltas, trials=z.probe_trials, length_range=(20, 50),
                seed=int(rng.integers(2 ** 31)))
    if any(row["converged"] != z.probe_trials for row in sc.per_delta) \
            or sc.d0_hat != deltas[0] or not 0.0 < sc.L_hat <= 20.0:
        b.check([f"shadowing-constant probe: {sc.to_dict()}"])


def _close(b, rng, m):
    """close_orbit on a perturbed point of the 2^-m lattice, against its
    exact lattice period."""
    y, period = _dyadic_point(rng, m)
    orb = ref.cat_orbit(y, 30)
    rho = ref.torus_dist(orb[1:], y)
    n = int(np.argmin(rho)) + 1
    if n != period or not rho[n - 1] < 1e-6:
        raise RuntimeError(f"dyadic input returns at {n}, lattice period {period}")
    res = b.call("closings", b.pl.shadow.close_orbit, b.cat, y, n, tol=SHADOW_TOL,
                 kind=f"close_orbit-m{m}")
    dev = float(ref.torus_dist(res.points, orb[:n]).max())
    res_err = ref.orbit_residual(res.points, True)
    if res.period != period or not dev < 1e-4 or not res_err < SHADOW_TOL:
        b.check([f"closing at period {period}: period {res.period}, "
                 f"deviation {dev:.3e}, residual {res_err:.3e}"])


# --- specify: covers, transits, gluing, periodic measures -------------------

def _glue_pipeline(b, rng, z):
    """build_cover, transition_times, glue_segments, specification_shadow."""
    pl = b.pl
    starts = rng.random((3, 2))
    lengths = rng.integers(20, 51, size=3)
    segments = [(starts[i], int(lengths[i])) for i in range(3)]
    samples = np.vstack([ref.cat_orbit(x, n) for x, n in segments]
                        + [ref.cat_orbit(rng.random(2), z.cover_orbit)])
    table_seed = int(rng.integers(2 ** 31))

    cover = b.call("glue", pl.specmeas.build_cover, samples, z.mesh)
    table = b.call("transit_steps", pl.specmeas.transition_times,
                   b.cat, cover, MIN_N, z.transit_horizon, z.sample_orbits,
                   seed=table_seed, work=z.sample_orbits * z.transit_horizon)
    plan = b.call("glue", pl.specmeas.glue_segments, b.cat, segments, cover, table)
    res = b.call("glue", pl.specmeas.specification_shadow, b.cat, plan)

    radius = z.mesh / 2.0
    if np.any(cover.radii != radius):
        b.check([f"cover radii differ from mesh/2 = {radius}"])
    missed = ref.uncovered(samples, cover.centers, radius)
    if missed:
        b.check([f"{len(missed)} cover samples outside every ball"])
    orbits = [ref.cat_orbit(np.random.default_rng([table_seed, k]).random(2),
                            z.transit_horizon) for k in range(z.sample_orbits)]
    used = [(_ball_of(cover, segments[(s + 1) % 3][0]),
             _ball_of(cover, ref.cat_orbit(*segments[s])[-1])) for s in range(3)]
    pairs = used + [tuple(int(v) for v in rng.integers(0, cover.size, size=2))
                    for _ in range(z.pair_sample)]
    for i, j in pairs:
        b.check(ref.check_transit(orbits, cover.centers, radius, i, j,
                                  table.X[i, j], table.witnesses[i, j],
                                  MIN_N, z.transit_horizon))
    total = int(lengths.sum())
    if not total + 3 * table.X1 <= res.period <= total + 3 * table.X2:
        b.check([f"glued period {res.period} outside [{total} + 3 X1, {total} + 3 X2]"
                 f" with X1={table.X1}, X2={table.X2}"])
    err = ref.orbit_residual(res.points, True)
    if not err < SHADOW_TOL:
        b.check([f"glued orbit residual {err:.3e}"])


def specify(b, rng, z):
    """Glue pipelines (criterion 10), then `pesinlab measure`'s budget sweep
    on a random target and, at full size, on MONOTONE_CASE."""
    pl = b.pl
    for _ in range(z.pipelines):
        _glue_pipeline(b, rng, z)
        yield

    target = pl.specmeas.EmpiricalMeasure(points=ref.cat_orbit(rng.random(2), z.target - 1))
    # The distance is not checked to fall as the budget grows on random
    # targets: for a few percent of them it does not, so that check would
    # fail some runs and not others.  MONOTONE_CASE checks it on fixed inputs.
    _measure_sweep(b, z, target, z.budgets, int(rng.integers(2 ** 31)), "budget")
    yield
    if z.monotone_case:
        case = MONOTONE_CASE
        target = pl.specmeas.EmpiricalMeasure(
            points=ref.cat_orbit(np.array(case["start"]), case["target"] - 1))
        dists = _measure_sweep(b, z, target, case["budgets"], case["seed"], "fixed")
        # Known fault, counted as failed: one operation per budget at which
        # the distance grows.
        b.failed += sum(d1 > d0 for d0, d1 in zip(dists, dists[1:]))


def _measure_sweep(b, z, target, budgets, seed, label):
    """approximate_invariant_measure at each budget; the distances."""
    dists = []
    for budget in budgets:
        approx, dist = b.call("measure", b.pl.specmeas.approximate_invariant_measure,
                              b.cat, target, delta=MEASURE_DELTA, budget=budget,
                              degree=MEASURE_DEGREE, seed=seed,
                              horizon=z.measure_horizon,
                              sample_orbits=z.measure_orbits, kind=f"{label}-{budget}")
        want = ref.weak_star_distance(target.points, target.weights,
                                      approx.points, approx.weights, MEASURE_DEGREE)
        b.check(ref.check_close(f"weak-* distance at budget {budget}", dist, want, 1e-12))
        if budget >= BOUNDED_BUDGET and not dist < 0.05:
            b.check([f"weak-* distance {dist:.4f} at budget {budget} not below 0.05"])
        if len(approx.points) < budget:
            b.check([f"periodic measure of {len(approx.points)} points for budget {budget}"])
        err = ref.orbit_residual(approx.points, True)
        if not err < SHADOW_TOL:
            b.check([f"measure orbit residual {err:.3e} at budget {budget}"])
        dists.append(dist)
    return dists


def _ball_of(cover, point):
    """Index of the first cover ball strictly containing ``point``."""
    inside = np.flatnonzero(ref.torus_dist(cover.centers, point) < cover.radii)
    return int(inside[0]) if inside.size else -1


FAMILIES = {"certify": (certify, CERTIFY), "shadow": (shadow, SHADOW),
            "specify": (specify, SPECIFY)}


def run_round(b, workload, seed, index):
    """One round: the workload's family at full size, the other two at probe
    size.  A family yields between stretches of its operations; the round
    runs one stretch of each family in turn, focus first, so that the probes
    recur through the round rather than sample one moment of it.  Family f
    of round r draws from ``default_rng([seed, r, f])``.  Returns the
    round's seconds in pesinlab."""
    b.round_busy = 0.0
    order = [workload] + [name for name in FAMILIES if name != workload]
    gens, busy = {}, dict.fromkeys(order, 0.0)
    for f, (name, (family, sizes)) in enumerate(FAMILIES.items()):
        gens[name] = family(b, np.random.default_rng([seed, index, f]),
                            sizes["full" if name == workload else "probe"])
    while gens:
        for name in [n for n in order if n in gens]:
            t0 = b.round_busy
            try:
                next(gens[name])
            except StopIteration:
                del gens[name]
            busy[name] += b.round_busy - t0
    for name, seconds in busy.items():
        b.family_busy.setdefault(name, []).append(seconds)
    return b.round_busy
