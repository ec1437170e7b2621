"""The benchmark's references against closed forms, and its checks against
wrong values.  Run from the repository root:

    python -m pytest -q benchmarks/tests
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

import reference as ref
import workloads as wl


# --- the benchmark's own maps ---------------------------------------------

def test_circle_factor_closed_forms():
    assert ref.g(0.0) == 0.0
    assert ref.g(0.5) == pytest.approx(0.5, abs=1e-16)
    assert ref.g_prime(0.0) == pytest.approx(0.5, abs=1e-15)
    assert ref.g_prime(0.5) == pytest.approx((3 + math.sqrt(5)) / 2, abs=1e-14)
    x = np.linspace(0.0, 1.0, 200_001)
    slope = ref.g_prime(x)
    assert slope.min() > 0.19                     # g is a diffeomorphism
    assert slope[:-1].mean() == pytest.approx(1.0, abs=1e-12)   # degree 1


def test_cat_map_closed_forms():
    assert ref.LAM_U * ref.LAM_S == pytest.approx(1.0, abs=1e-15)
    assert ref.LAM_U + ref.LAM_S == pytest.approx(3.0, abs=1e-15)
    rng = np.random.default_rng(0)
    pts = rng.random((1000, 2))
    want = np.mod(pts @ np.array([[2.0, 1.0], [1.0, 1.0]]).T, 1.0)
    assert np.array_equal(ref.cat_step(pts), want)
    orb = ref.cat_orbit(pts[0], 200)
    for t in range(200):
        assert np.array_equal(orb[t + 1], ref.cat_step(orb[t]))
    dyadic = ref.cat_orbit([3 / 64, 17 / 64], 100) * 64
    assert np.array_equal(dyadic, np.round(dyadic))


def test_lattice_periods_match_the_pisano_periods():
    # A = F^2 for the Fibonacci matrix F, whose period mod 2^m is 3 * 2^(m-1);
    # so A has order 3, 3, 6, 12 on the lattices 2^-m, m = 1..4.
    for m, order in ((1, 3), (2, 3), (3, 6), (4, 12)):
        q = 2 ** m
        periods = {ref.lattice_period(i, j, m)
                   for i in range(q) for j in range(q) if i % 2 or j % 2}
        assert max(periods) == order
        assert all(order % p == 0 for p in periods)


def test_periodic_orbit_from_exact_rationals_closes():
    for period in (16, 48):
        pts = ref.cat_periodic_orbit((123, 457), period)
        nxt = np.roll(pts, -1, axis=0)
        assert ref.torus_dist(nxt, ref.cat_step(pts)).max() < 1e-12


# --- closed-form product24 slacks at K = 1 ----------------------------------

def test_slacks_at_the_fixed_fibers():
    zeta, L = 0.4, 60
    t = ref.P24Slacks([0.0, 0.5], L)
    sa, sb, sc = t.slacks(3, zeta)
    log_half = math.log(0.5)
    assert sa[0] == pytest.approx(-zeta - log_half, abs=1e-14)
    assert sc[0] == pytest.approx(-2 * zeta - (log_half - ref.LOG_U), abs=1e-14)
    assert sa[1] == pytest.approx(-zeta - ref.LOG_U, abs=1e-14)
    assert sc[1] == pytest.approx(-2 * zeta, abs=1e-14)
    assert np.all(sb == ref.LOG_U - zeta)
    ok, _ = t.passed(3, zeta)
    assert ok.tolist() == [True, False]


def _slacks_by_loops(x, L, k, zeta):
    """The K = 1 slacks from their definitions, one sum at a time."""
    xs = [x]
    for _ in range(L):
        xs.append(float(ref.g(xs[-1])))
    logg = [math.log(float(ref.g_prime(v))) for v in xs]
    e = [max(v, ref.LOG_S) for v in logg]
    sa = -zeta - max(sum(e[:l]) / l for l in range(k, L + 1))
    head = (max(sum(logg[:k]), k * ref.LOG_S) - k * ref.LOG_U) / k
    window = max(e[t] - ref.LOG_U for t in range(k, L + 1))
    return sa, ref.LOG_U - zeta, -2 * zeta - max(head, window)


def test_slacks_match_their_definitions():
    rng = np.random.default_rng(3)
    xs = rng.random(20)
    t = ref.P24Slacks(xs, 40)
    for k in (1, 2, 7):
        got = np.stack(t.slacks(k, 0.3))
        for b, x in enumerate(xs):
            assert got[:, b] == pytest.approx(_slacks_by_loops(x, 40, k, 0.3), abs=1e-12)


def test_min_block_index_is_the_first_passing_k():
    rng = np.random.default_rng(4)
    t = ref.P24Slacks(rng.random(30), 80)
    first, _ = t.min_block_index(0.4)
    for b in range(30):
        passing = [k for k in range(1, 41) if t.passed(k, 0.4)[0][b]]
        assert first[b] == (passing[0] if passing else 0)


def test_membership_check_rejects_a_wrong_slack():
    rng = np.random.default_rng(5)
    xs = rng.random((50, 3))
    sa, sb, sc = ref.P24Slacks(xs[:, 0], wl.MEMBERSHIP_HORIZON).slacks(wl.K_BLOCK, wl.ZETA)

    def certs(shift):
        return [SimpleNamespace(slack_contraction=a + shift, slack_expansion=b,
                                slack_domination=c, passed=min(a + shift, b, c) >= 0)
                for a, b, c in zip(sa, sb, sc)]

    assert wl._check_membership(certs(0.0), xs) == []
    assert wl._check_membership(certs(1e-6), xs)


# --- exponents ------------------------------------------------------------

def test_fixed_fiber_rates():
    r0 = ref.p24_fixed_fiber_rates(0.0)
    assert r0["lambda_s_hat"] == pytest.approx(-math.log(2), abs=1e-15)
    assert r0["limdom_hat"] == pytest.approx(-math.log(3 + math.sqrt(5)), abs=1e-15)
    r_half = ref.p24_fixed_fiber_rates(0.5)
    assert r_half["lambda_s_hat"] == ref.LOG_U
    assert r_half["limdom_hat"] == 0.0
    assert ref.check_close("x", -0.8136, -math.log(2), 1e-12)


# --- shadowing ------------------------------------------------------------

def test_shadow_check_rejects_a_perturbed_residual():
    orb = ref.cat_orbit([0.1, 0.2], 30)
    segs = [orb[:11], orb[10:21], orb[20:]]
    assert ref.check_shadow(orb, segs, False, 1e-8, 1e-12) == []
    bad = orb.copy()
    bad[15, 0] += 1e-9
    # the jump enters z_15 - f(z_14) once and f(z_15) - z_16 as (2, 1) times it
    assert ref.orbit_residual(bad, False) == pytest.approx(2e-9, rel=1e-3)
    assert ref.check_shadow(bad, segs, False, 1e-8, 1e-12)
    far = np.mod(orb + 1e-6, 1.0)
    assert ref.check_shadow(orb, [np.mod(s + 1e-6, 1.0) for s in segs], False,
                            1e-8, 1e-12)
    assert ref.chain_deviation(far, segs, False) == pytest.approx(math.sqrt(2) * 1e-6)


def test_dense_newton_step_lands_on_the_periodic_orbit():
    cycle = ref.cat_periodic_orbit((5, 9), 16)
    segs = [ref.cat_orbit(np.mod(cycle[c] + 3e-9 * wl._E_STABLE, 1.0), 8) for c in (0, 8)]
    z = ref.dense_periodic_newton(segs)
    assert ref.orbit_residual(z, True) < 1e-12
    assert ref.torus_dist(z, cycle).max() < 1e-8


# --- specification ------------------------------------------------------------

def test_brute_force_transit_on_a_hand_made_orbit():
    centers = np.array([[0.1, 0.1], [0.6, 0.6], [0.3, 0.8]])
    orbit = np.tile(centers[2], (20, 1))
    orbit[[2, 10]] = centers[0]   # ball 0 (source j) at t = 2, 10
    orbit[[5, 13]] = centers[1]   # ball 1 (target i) at t = 5, 13
    assert ref.brute_transit([orbit], centers, 0.05, 1, 0, 3, 19) == 3
    assert ref.brute_transit([orbit], centers, 0.05, 1, 0, 4, 19) == 11
    assert ref.brute_transit([orbit], centers, 0.05, 1, 0, 4, 12) is None
    assert ref.uncovered(orbit, centers, 0.05) == []
    assert ref.uncovered([[0.9, 0.9]], centers, 0.05) == [0]


def test_transit_check_against_the_program_and_off_by_one():
    pesinlab = pytest.importorskip("pesinlab")
    cat = pesinlab.make_system("cat")
    mesh, min_n, horizon, budget, seed = 0.2, 4, 300, 2, 7
    cover = pesinlab.build_cover(ref.cat_orbit([0.3, 0.1], 500), mesh)
    table = pesinlab.transition_times(cat, cover, min_n, horizon, budget, seed=seed)
    orbits = [ref.cat_orbit(np.random.default_rng([seed, k]).random(2), horizon)
              for k in range(budget)]
    r = mesh / 2
    resolved = np.argwhere(table.X >= 0)[:40]
    assert len(resolved) == 40
    for i, j in resolved:
        args = (orbits, cover.centers, r, i, j)
        wit = table.witnesses[i, j]
        assert ref.check_transit(*args, table.X[i, j], wit, min_n, horizon) == []
        assert ref.check_transit(*args, table.X[i, j] + 1, wit, min_n, horizon)
        assert ref.check_transit(*args, table.X[i, j] - 1, wit, min_n, horizon)


def test_character_sums_closed_forms():
    ks = ref.character_grid(2, 1)
    assert len(ks) == 8 and not np.any(np.all(ks == 0, axis=1))
    x = np.array([[0.2, 0.7]])
    sums = ref.character_sums(x, np.ones(1), ks)
    phase = 2 * np.pi * (ks @ x[0])
    assert np.allclose(sums.real, np.cos(phase), atol=1e-15)
    assert np.allclose(sums.imag, np.sin(phase), atol=1e-15)
    # uniform lattice measures have every moment with 0 < |k|_inf < N equal to 0
    grid = lambda n: np.stack(np.meshgrid(np.arange(n) / n, np.arange(n) / n), -1).reshape(-1, 2)
    g8, g9 = grid(8), grid(9)
    assert ref.weak_star_distance(g8, np.full(64, 1 / 64), g9, np.full(81, 1 / 81), 3) < 1e-13
    y = np.array([[0.45, 0.05]])
    want = max(max(abs(math.cos(2 * math.pi * (k @ x[0])) - math.cos(2 * math.pi * (k @ y[0]))),
                   abs(math.sin(2 * math.pi * (k @ x[0])) - math.sin(2 * math.pi * (k @ y[0]))))
               for k in ks)
    got = ref.weak_star_distance(x, np.ones(1), y, np.ones(1), 1)
    assert got == pytest.approx(want, abs=1e-15)
    assert ref.check_close("d", got + 1e-9, want, 1e-12)
