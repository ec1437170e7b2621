"""Restricted-norm cocycle evaluation: oracles and spec invariants."""

import math

import numpy as np
import pytest

from pesinlab import systems as dyn
from pesinlab.cocycle import (
    _prefix_sum,
    OrbitData,
    alpha_constant,
    angle_report,
    domination_upgrade_n0,
    log_norm_blocks,
    lyapunov_spectrum,
    mean_exponents,
    mean_exponents_many,
    minimal_norm,
    operator_norm,
    orthonormalize,
    subbundle_angle,
    upgrade_limit_domination,
)
from pesinlab.errors import DegenerateSplittingError, SingularRestrictionError

from conftest import LOG2, LOG_3P5, LOG_U


def test_operator_and_minimal_norm_plain():
    A = np.array([[3.0, 0.0], [0.0, 0.5]])
    assert operator_norm(A) == pytest.approx(3.0)
    assert minimal_norm(A) == pytest.approx(0.5)
    e = np.array([[0.0], [1.0]])
    assert operator_norm(A, e) == pytest.approx(0.5)
    assert minimal_norm(A, e) == pytest.approx(0.5)


def test_orthonormalize_columns():
    q = orthonormalize(np.array([[2.0, 1.0], [0.0, 1.0], [0.0, 0.0]]))
    assert np.allclose(q.T @ q, np.eye(2), atol=1e-14)


def _dense_restricted(system, x, n):
    """Norms of Df^n restricted to E and F by direct dense products."""
    pts = dyn.orbit_points(system, x, n)
    split = dyn.reference_splitting(system)
    prod = np.eye(system.dim)
    for jac in system.jacobian_many(pts[:-1]):
        prod = jac @ prod
    return (operator_norm(prod, split.e_basis),
            minimal_norm(prod, split.f_basis))


def test_orbit_data_matches_dense_products(p24, p24_split):
    rng = np.random.default_rng(1)
    xs = rng.random((5, 3))
    data = OrbitData(p24, xs, p24_split, n_fwd=12, n_back=5)
    full_e = data.full_e_logs(12)
    full_f = data.full_f_logs(12)
    assert full_e.shape == full_f.shape == (13, 5)
    back_e = data.block_logs("e", [-5], 3)[0]   # window over times -5, -4, -3
    back_f = data.block_logs("f", [-5], 3)[0]
    for b, x in enumerate(xs):
        for n in (1, 4, 12):
            ne, nf = _dense_restricted(p24, x, n)
            assert full_e[n, b] == pytest.approx(math.log(ne), abs=1e-10)
            assert full_f[n, b] == pytest.approx(math.log(nf), abs=1e-10)
        back = dyn.orbit_points_back(p24, x, 5)
        prod = np.eye(3)
        for jac in p24.jacobian_many(back[5:2:-1]):
            prod = jac @ prod
        assert back_e[b] == pytest.approx(
            math.log(operator_norm(prod, p24_split.e_basis)), abs=1e-10)
        assert back_f[b] == pytest.approx(
            math.log(minimal_norm(prod, p24_split.f_basis)), abs=1e-10)


def _cat_composite(e_basis, f_basis):
    return dyn.make_system({
        "kind": "composite", "dim": 2,
        "map": ["(2*x0 + x1) % 1.0", "(x0 + x1) % 1.0"],
        "inverse": ["(x0 - x1) % 1.0", "(2*x1 - x0) % 1.0"],
        "jacobian": [["2.0", "1.0"], ["1.0", "1.0"]],
        "e_basis": e_basis, "f_basis": f_basis,
    })


def test_orbit_data_rejects_non_invariant_splitting(cat_split):
    good = _cat_composite(cat_split.e_basis.tolist(), cat_split.f_basis.tolist())
    OrbitData(good, np.array([0.2, 0.7]), good.splitting, n_fwd=5, n_back=5)
    coords = _cat_composite([[1.0], [0.0]], [[0.0], [1.0]])
    with pytest.raises(DegenerateSplittingError, match="invariant"):
        OrbitData(coords, np.array([0.2, 0.7]), coords.splitting, n_fwd=5)
    with pytest.raises(DegenerateSplittingError, match="invariant"):
        OrbitData(coords, np.array([0.2, 0.7]), coords.splitting, n_fwd=0, n_back=5)


@pytest.mark.parametrize("name", ["cat", "product24", "composite"])
def test_orbit_data_single_start_matches_batch_column(name, cat_split):
    # a batch of one runs the plain-float orbit kernels, a batch of three the
    # array steps; the restricted matrices must agree bit for bit, forward
    # and backward, also for a start given unwrapped
    if name == "composite":
        system = _cat_composite(cat_split.e_basis.tolist(), cat_split.f_basis.tolist())
        split = system.splitting
    else:
        system = dyn.make_system(name)
        split = dyn.reference_splitting(system)
    d = system.dim
    xs = np.vstack([[1.0, -0.25, 2.5][:d],
                    np.random.default_rng(8).random((2, d))])
    batch = OrbitData(system, xs, split, n_fwd=30, n_back=25)
    for i, x in enumerate(xs):
        one = OrbitData(system, x, split, n_fwd=30, n_back=25)
        for bundle in ("e", "f"):
            assert np.array_equal(one._r[bundle][:, 0], batch._r[bundle][:, i])


def test_log_norm_blocks_worked_example(p24, p24_split):
    # fiber 0: ||Df|E|| = max(1/2, lambda_s) = 1/2 at every step
    x = np.array([0.0, 0.3, 0.7])
    vals = log_norm_blocks(p24, x, p24_split, "e", K=1, l=3, r=0)
    assert len(vals) == 3
    assert np.allclose(vals, math.log(0.5), atol=1e-12)
    assert log_norm_blocks(p24, x, p24_split, "e", K=1, l=0, r=0) == []


def test_log_norm_blocks_remainder_and_sum(p24, p24_split):
    # remainder r sits at index 0; the list sums to the full window value
    x = np.array([0.0, 0.1, 0.9])
    vals = log_norm_blocks(p24, x, p24_split, "e", K=3, l=4, r=2)
    assert len(vals) == 5
    total = 3 * 4 + 2
    assert sum(vals) == pytest.approx(total * math.log(0.5), abs=1e-10)


def test_log_norm_blocks_backward_direction(cat, cat_split):
    x = np.array([0.2, 0.7])
    vals = log_norm_blocks(cat, x, cat_split, "f", K=2, l=3, r=1, direction="bwd")
    assert len(vals) == 4
    # constant cocycle: m(Df^K|F) = lambda_u^K on every block
    assert vals[0] == pytest.approx(1 * LOG_U, abs=1e-12)
    assert np.allclose(vals[1:], 2 * LOG_U, atol=1e-12)
    with pytest.raises(ValueError):
        log_norm_blocks(cat, x, cat_split, "f", K=2, l=3, r=1, direction="forward")


def test_submultiplicativity_restricted(p24, p24_split):
    # log||Df^(a+b)|E|| <= log||Df^b|E transported|| + log||Df^a|E|| + 1e-9
    rng = np.random.default_rng(7)
    for _ in range(25):
        x = rng.random(3)
        n = int(rng.integers(2, 21))
        a = int(rng.integers(1, n))
        b = n - a
        pts = dyn.orbit_points(p24, x, n)
        jacs = p24.jacobian_many(pts[:-1])
        prod_a = np.eye(3)
        for j in jacs[:a]:
            prod_a = j @ prod_a
        prod_b = np.eye(3)
        for j in jacs[a:]:
            prod_b = j @ prod_b
        e0 = p24_split.e_basis
        e_mid = orthonormalize(prod_a @ e0)
        lhs = math.log(operator_norm(prod_b @ prod_a, e0))
        rhs = math.log(operator_norm(prod_b, e_mid)) + \
            math.log(operator_norm(prod_a, e0))
        assert lhs <= rhs + 1e-9
        # m(AB) >= m(A) m(B) on the transported F bundle
        f0 = p24_split.f_basis
        f_mid = orthonormalize(prod_a @ f0)
        m_ab = math.log(minimal_norm(prod_b @ prod_a, f0))
        m_parts = math.log(minimal_norm(prod_b, f_mid)) + \
            math.log(minimal_norm(prod_a, f0))
        assert m_ab >= m_parts - 1e-9


def test_mean_exponents_cat_constant(cat, cat_split):
    rep = mean_exponents(cat, np.array([0.31, 0.77]), cat_split, K=1, horizon=50)
    assert rep.lambda_sup_s_hat == pytest.approx(-LOG_U, abs=1e-12)
    assert rep.lambda_sup_u_hat == pytest.approx(LOG_U, abs=1e-12)
    # E and F run through different product pipelines; symmetry to 1e-14
    assert rep.lambda_sup_s_hat == pytest.approx(-rep.lambda_sup_u_hat, abs=1e-14)
    assert rep.limdom_hat == pytest.approx(-2 * LOG_U, abs=1e-12)


def test_mean_exponents_fiber0(p24, p24_split):
    rep = mean_exponents(p24, np.array([0.0, 0.3, 0.7]), p24_split,
                         K=1, horizon=100)
    assert rep.lambda_sup_s_hat == pytest.approx(-LOG2, abs=1e-12)
    assert rep.lambda_sup_u_hat == pytest.approx(LOG_U, abs=1e-12)
    assert rep.limdom_hat == pytest.approx(-LOG_3P5, abs=1e-12)
    assert rep.lambda_s_hat == pytest.approx(-LOG2, abs=1e-10)
    assert rep.lambda_u_hat == pytest.approx(LOG_U, abs=1e-10)


def test_mean_exponents_fiber_half(p24, p24_split):
    rep = mean_exponents(p24, np.array([0.5, 0.3, 0.7]), p24_split,
                         K=1, horizon=100)
    assert abs(rep.limdom_hat) < 1e-12


def test_mean_exponents_fiber0_long_horizon(p24, p24_split):
    # the E product's small direction, (lambda_s / (1/2))^n, leaves the float
    # range long before 20000 steps; the top singular value does not need it
    rep = mean_exponents(p24, np.array([0.0, 0.3, 0.7]), p24_split,
                         K=1, horizon=20_000)
    assert rep.lambda_s_hat == pytest.approx(-LOG2, abs=1e-12)


def test_mean_exponents_fiber0_long_horizon_both_rates(p24, p24_split):
    # every step log is exact to an ulp; the prefix sum of 20000 of them
    # must not drift (a sequential cumsum is off by ~1e-13 here)
    rep = mean_exponents(p24, np.array([0.0, 0.3, 0.7]), p24_split,
                         K=1, horizon=20_000)
    assert rep.lambda_s_hat == pytest.approx(-LOG2, abs=1e-14)
    assert rep.lambda_u_hat == pytest.approx(LOG_U, abs=1e-14)


def test_prefix_sum_blocks():
    a = np.random.default_rng(0).standard_normal((300, 2))
    s = _prefix_sum(a)
    seq = np.cumsum(a, axis=0)
    # one block of 128 keeps the sequential sum's bits; later rows agree
    assert np.array_equal(s[:128], seq[:128])
    assert np.allclose(s, seq, rtol=0.0, atol=1e-12)
    assert _prefix_sum(np.zeros((0, 3))).shape == (0, 3)


def test_full_products_underflow_guard(p24, p24_split):
    # fiber 1/2 mixes +/- LOG_U on E; the operator norm stays exact
    rep = mean_exponents(p24, np.array([0.5, 0.3, 0.7]), p24_split,
                         K=1, horizon=2000)
    assert rep.lambda_s_hat == pytest.approx(LOG_U, abs=1e-12)
    # a 2-D F bundle at rates 4 and 1.1: the minimal norm's direction
    # shrinks by 1.1/4 a step relative to the rescaled product
    diag = dyn.make_system({
        "kind": "composite", "dim": 3,
        "map": ["(0.5*x0) % 1.0", "(4*x1) % 1.0", "(1.1*x2) % 1.0"],
        "jacobian": [["0.5", "0", "0"], ["0", "4", "0"], ["0", "0", "1.1"]],
        "e_basis": [[1.0], [0.0], [0.0]],
        "f_basis": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
    })
    x = np.array([0.1, 0.2, 0.3])
    rep = mean_exponents(diag, x, diag.splitting, K=1, horizon=500)
    assert rep.lambda_u_hat == pytest.approx(math.log(1.1), abs=1e-12)
    # at 560 steps that direction is subnormal but not yet 0
    assert 0.0 < (1.1 / 4.0) ** 560 < np.finfo(float).tiny
    with pytest.raises(SingularRestrictionError):
        mean_exponents(diag, x, diag.splitting, K=1, horizon=560)


def test_prop_25_1_constant_cocycle(cat, cat_split):
    rep = mean_exponents(cat, np.array([0.2, 0.9]), cat_split, K=2, horizon=60)
    assert rep.limdom_hat >= rep.lambda_sup_s_hat - rep.lambda_sup_u_hat - 1e-6


def test_prop_25_1_random_product24(p24, p24_split):
    # horizon 1e4 via the block tables; the inequality involves only
    # block quantities, and full-window products overrun the float range
    rng = np.random.default_rng(3)
    xs = rng.random((100, 3))
    horizon = 10_000
    data = OrbitData(p24, xs, p24_split, n_fwd=horizon)
    starts = np.arange(horizon)
    block_e = data.block_logs("e", starts, 1)
    block_f = data.block_logs("f", starts, 1)
    sup_s = block_e.mean(axis=0)
    sup_u = block_f.mean(axis=0)
    limdom = (block_e - block_f)[horizon // 2:].max(axis=0)
    assert np.all(limdom >= sup_s - sup_u - 1e-2)


def test_lyapunov_spectrum_cat(cat):
    spec = lyapunov_spectrum(cat, np.array([0.123, 0.456]), 2000)
    assert spec.exponents == pytest.approx((-LOG_U, LOG_U), abs=1e-6)
    assert sum(spec.values) == pytest.approx(0.0, abs=1e-8)
    assert spec.stable_index == 1


def test_lyapunov_spectrum_product24_fiber0(p24):
    spec = lyapunov_spectrum(p24, np.array([0.0, 0.3, 0.7]), 5000)
    assert spec.exponents == pytest.approx((-LOG_U, -LOG2, LOG_U), abs=1e-6)
    assert spec.multiplicities == (1, 1, 1)


def test_lyapunov_spectrum_rotation_zero():
    rot = dyn.make_system({
        "kind": "composite", "dim": 1,
        "map": ["(x0 + 0.381966) % 1.0"], "jacobian": [["1.0"]],
    })
    spec = lyapunov_spectrum(rot, np.array([0.2]), 500)
    assert spec.exponents == (0.0,)
    with pytest.raises(ValueError):
        lyapunov_spectrum(rot, np.array([0.2]), 5)


def test_subbundle_angle(cat_split):
    ortho = dyn.Splitting(np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]))
    assert subbundle_angle(ortho) == pytest.approx(math.sqrt(2.0))
    # symmetric matrix: eigenvectors orthogonal
    assert subbundle_angle(cat_split) == pytest.approx(math.sqrt(2.0), abs=1e-12)
    near = dyn.Splitting(np.array([[1.0], [0.0]]), np.array([[1.0], [1e-12]]))
    with pytest.raises(DegenerateSplittingError):
        subbundle_angle(near)


def test_prop_21_2_angle_bound(p24, p24_split):
    # points dominated at rate <= -2*lambda keep the angle above e0
    lam = 0.8
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rng.random(3) * np.array([0.2, 1.0, 1.0])  # stay clear of fiber 1/2
        rep = mean_exponents(p24, x, p24_split, K=1, horizon=60)
        if rep.limdom_hat <= -2 * lam + 1e-3:
            report = angle_report(p24, x, p24_split, S=1, samples=30)
            assert report.e0_hat >= 1.0
            assert min(report.tail_infimum) >= 1.0


def test_angle_report_validation(cat, cat_split):
    with pytest.raises(ValueError):
        angle_report(cat, np.array([0.1, 0.2]), cat_split, S=0, samples=5)
    rep = angle_report(cat, np.array([0.1, 0.2]), cat_split, S=2, samples=4)
    assert len(rep.angles) == 4 and rep.step == 2


def test_alpha_constant_oracles(cat, p24):
    pts = np.random.default_rng(2).random((50, 2))
    assert alpha_constant(cat, pts) == pytest.approx(2 * LOG_U, abs=1e-12)
    iso = dyn.make_system({
        "kind": "composite", "dim": 1,
        "map": ["(x0 + 0.25) % 1.0"], "jacobian": [["1.0"]],
    })
    assert alpha_constant(iso, np.array([[0.1], [0.5]])) == 0.0
    # product24 on a dense fiber grid: alpha = log(lambda_u / min g')
    xs = np.linspace(0.0, 1.0, 20001, endpoint=False)
    grid = np.column_stack([xs, np.full_like(xs, 0.3), np.full_like(xs, 0.6)])
    expect = LOG_U - math.log(float(dyn.g_prime(xs).min()))
    assert alpha_constant(p24, grid) == pytest.approx(expect, abs=1e-12)
    assert alpha_constant(p24, grid) == pytest.approx(2.622, abs=1e-3)


def test_upgrade_limit_domination_examples():
    assert upgrade_limit_domination(1, 0.8278, 3, 0, 1.0) == (3, pytest.approx(2.4834))
    assert upgrade_limit_domination(4, 0.5, 1, 0, 2.0) == (4, 0.5)
    assert upgrade_limit_domination(2, 1.0, 2, 1, 1.0) == (5, pytest.approx(1.5))
    with pytest.raises(ValueError):
        upgrade_limit_domination(2, 0.1, 1, 1, 5.0)  # k too small
    with pytest.raises(ValueError):
        upgrade_limit_domination(2, 1.0, 1, 2, 1.0)  # q >= S


def test_domination_upgrade_n0_examples():
    assert domination_upgrade_n0(1, 2.5, 0.0) == 4
    assert domination_upgrade_n0(5, 1.0, 1.0) == 13
    assert domination_upgrade_n0(3, 0.5, 0.25) == 7
    with pytest.raises(ValueError):
        domination_upgrade_n0(3, 0.0, 0.1)


def test_mean_exponents_many_matches_single(p24, p24_split):
    xs = np.random.default_rng(4).random((4, 3))
    reps = mean_exponents_many(p24, xs, p24_split, K=2, horizon=30)
    solo = mean_exponents(p24, xs[2], p24_split, K=2, horizon=30)
    assert reps[2].limdom_hat == solo.limdom_hat
    assert reps[2].lambda_sup_s_hat == solo.lambda_sup_s_hat
