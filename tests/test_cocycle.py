"""Restricted-norm cocycle evaluation: oracles and spec invariants."""

import math
from decimal import Decimal, localcontext
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pesinlab import cocycle, systems as dyn
from pesinlab.cocycle import (
    _prefix_sum,
    _sv,
    OrbitData,
    lyapunov_spectrum,
    mean_exponents,
    mean_exponents_many,
)
from pesinlab.errors import DegenerateSplittingError, SingularRestrictionError
from pesinlab.pesin import PesinParams, check_block_membership_many, min_block_index
from pesinlab.quasihyp import canonical_partition, check_quasi_hyperbolic
from pesinlab.systems import orthonormalize

from conftest import LOG2, LOG_3P5, LOG_U


def operator_norm(jac, basis=None):
    """Oracle: largest singular value of ``jac`` on the span of ``basis``."""
    m = jac if basis is None else jac @ orthonormalize(basis)
    return float(np.linalg.svd(m, compute_uv=False)[0])


def minimal_norm(jac, basis=None):
    """Oracle: smallest singular value of ``jac`` on the span of ``basis``."""
    m = jac if basis is None else jac @ orthonormalize(basis)
    return float(np.linalg.svd(m, compute_uv=False)[-1])


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
    fwd_e = data.block_logs("e", [2], 3)[0]     # window over times 2, 3, 4
    back_f = data.block_logs("f", [-5], 3)[0]   # window over times -5, -4, -3
    for b, x in enumerate(xs):
        for n in (1, 4, 12):
            ne, nf = _dense_restricted(p24, x, n)
            assert full_e[n, b] == pytest.approx(math.log(ne), abs=1e-10)
            assert full_f[n, b] == pytest.approx(math.log(nf), abs=1e-10)
        prod = np.eye(3)
        for jac in p24.jacobian_many(dyn.orbit_points(p24, x, 5)[2:5]):
            prod = jac @ prod
        assert fwd_e[b] == pytest.approx(
            math.log(operator_norm(prod, p24_split.e_basis)), abs=1e-10)
        back = dyn.orbit_many_back(p24, [x], 5)[:, 0]
        prod = np.eye(3)
        for jac in p24.jacobian_many(back[5:2:-1]):
            prod = jac @ prod
        assert back_f[b] == pytest.approx(
            math.log(minimal_norm(prod, p24_split.f_basis)), abs=1e-10)


_WINDOW_SYSTEMS = {name: dyn.make_system(name) for name in ("cat", "product24", "circle-g")}
# circle-g is 1-D and has no splitting; E = F = its tangent line, given as
# the orthonormal frames OrbitData reads, keeps its varying 1x1 cocycle
_WHOLE_LINE = SimpleNamespace(dim=1, _frames=dict.fromkeys("ef", np.ones((1, 1))),
                              _plans={})


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(_WINDOW_SYSTEMS)), batch=st.sampled_from([1, 3]),
       seed=st.integers(0, 2 ** 32 - 1),
       windows=st.lists(st.tuples(st.integers(-12, 12), st.integers(1, 12)),
                        min_size=1, max_size=10))
def test_block_logs_mixed_lengths_match_single_windows(name, batch, seed, windows):
    system = _WINDOW_SYSTEMS[name]
    split = _WHOLE_LINE if system.dim == 1 else dyn.reference_splitting(system)
    xs = np.random.default_rng(seed).random((batch, system.dim))
    data = OrbitData(system, xs, split, n_fwd=36, n_back=12)
    for bundle, shift in (("e", 12), ("f", 0)):   # E has no backward data
        starts, lengths = zip(*[(t + shift, g) for t, g in windows])
        logs = data.block_logs(bundle, starts, lengths)
        assert logs.shape == (len(windows), batch)
        for row, t, g in zip(logs, starts, lengths):
            assert np.array_equal(row, data.block_logs(bundle, [t], g)[0])


@pytest.mark.parametrize("starts, lengths", [
    ([0], 0), ([0, 1], [3, 0]), ([8], 3), ([0, 8], [2, 3]), ([-5], [2]), ([0, 1], [3]),
])
def test_block_logs_reject_empty_and_out_of_horizon_windows(cat, cat_split,
                                                            starts, lengths):
    data = OrbitData(cat, np.array([[0.2, 0.7]]), cat_split, n_fwd=10, n_back=4)
    with pytest.raises(ValueError, match="window lengths|horizon"):
        data.block_logs("e", starts, lengths)


def _piece_logs_by_length(system, x, splitting, partition):
    """Per-piece E and F log norms with one block_logs call per gap length:
    check_quasi_hyperbolic's reading before windows carried their own
    lengths."""
    times = np.asarray(partition.times)
    starts, gaps = times[:-1], np.diff(times)
    data = OrbitData(system, np.asarray(x, dtype=float)[None, :], splitting,
                     n_fwd=int(times[-1]))
    a = np.empty(len(gaps))
    b = np.empty(len(gaps))
    for g in np.unique(gaps):
        sel = np.flatnonzero(gaps == g)
        at = starts[sel].tolist()
        a[sel] = data.block_logs("e", at, int(g))[:, 0]
        b[sel] = data.block_logs("f", at, int(g))[:, 0]
    return a, b


@pytest.mark.parametrize("k, K", [(2, 1), (2, 3)])
def test_quasi_hyperbolic_slacks_match_per_length_reading(p24, p24_split, k, K):
    # criterion 07's segment lengths 2kK..40 (k = 2, K = 1), and K = 3
    rng = np.random.default_rng(77)
    zeta = 0.4
    for n in range(2 * k * K, 41):
        x = rng.random(3)
        part = canonical_partition(n, k, K)
        a, b = _piece_logs_by_length(p24, x, p24_split, part)
        times = np.asarray(part.times, dtype=float)
        gaps = np.diff(times)
        cert = check_quasi_hyperbolic(p24, x, n, p24_split, zeta, part)
        assert cert.slack_prefix == tuple(-zeta - np.cumsum(a) / times[1:])
        assert cert.slack_suffix == tuple(
            np.cumsum(b[::-1])[::-1] / (times[-1] - times[:-1]) - zeta)
        assert cert.slack_ratio == tuple(-2.0 * zeta - (a - b) / gaps)


def _cat_composite(e_basis, f_basis, jacobian00="2.0"):
    return dyn.make_system({
        "kind": "composite", "dim": 2,
        "map": ["(2*x0 + x1) % 1.0", "(x0 + x1) % 1.0"],
        "inverse": ["(x0 - x1) % 1.0", "(2*x1 - x0) % 1.0"],
        "jacobian": [[jacobian00, "1.0"], ["1.0", "1.0"]],
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
            for solo, many in zip(one._r[bundle], batch._r[bundle], strict=True):
                assert np.array_equal(solo[:, 0], many[:, i])


def test_block_logs_worked_example(p24, p24_split):
    # fiber 0: ||Df|E|| = max(1/2, lambda_s) = 1/2 at every step
    data = OrbitData(p24, np.array([0.0, 0.3, 0.7]), p24_split, n_fwd=3)
    vals = data.block_logs("e", [0, 1, 2], 1)[:, 0]
    assert np.allclose(vals, math.log(0.5), atol=1e-12)
    assert data.block_logs("e", [], 1).shape == (0, 1)


def test_block_logs_remainder_and_sum(p24, p24_split):
    # a remainder window of length 2 at time 0, then four of length 3; the
    # windows sum to the full window value
    data = OrbitData(p24, np.array([0.0, 0.1, 0.9]), p24_split, n_fwd=14)
    vals = data.block_logs("e", [0, 2, 5, 8, 11], [2, 3, 3, 3, 3])
    assert vals.shape == (5, 1)
    assert vals.sum() == pytest.approx(14 * math.log(0.5), abs=1e-10)


def test_block_logs_backward_windows(cat, cat_split):
    # the remainder window of length 1 at time -7, then three of length 2
    data = OrbitData(cat, np.array([0.2, 0.7]), cat_split, n_fwd=0, n_back=7)
    vals = data.block_logs("f", [-7, -6, -4, -2], [1, 2, 2, 2])[:, 0]
    # constant cocycle: m(Df^K|F) = lambda_u^K on every block
    assert vals[0] == pytest.approx(1 * LOG_U, abs=1e-12)
    assert np.allclose(vals[1:], 2 * LOG_U, atol=1e-12)
    with pytest.raises(ValueError, match="bundle must be"):
        data.block_logs("forward", [-2], 2)


def test_block_logs_e_has_no_backward_data(p24, p24_split):
    data = OrbitData(p24, np.array([0.2, 0.3, 0.7]), p24_split, n_fwd=6, n_back=6)
    assert data.block_logs("f", [-6], 6).shape == (1, 1)
    with pytest.raises(ValueError, match=r"bundle 'e''s horizon \[0, 6\)"):
        data.block_logs("e", [-1], 2)


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
    # range long before 20000 steps; the top singular value does not need it,
    # nor do E's two 1x1 sub-bundles, alone or in a batch
    rep = mean_exponents(p24, np.array([0.0, 0.3, 0.7]), p24_split,
                         K=1, horizon=20_000)
    assert rep.lambda_s_hat == pytest.approx(-LOG2, abs=1e-12)
    xs = np.array([[0.0, 0.3, 0.7], [0.0, 0.6, 0.1]])
    for rep in mean_exponents_many(p24, xs, p24_split, K=1, horizon=20_000):
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


@pytest.mark.parametrize("kwargs", [
    {"chunk": 0}, {"chunk": -3}, {"merge_tol": math.nan}, {"merge_tol": -1.0},
    {"merge_tol": math.inf},
])
def test_lyapunov_spectrum_rejects_bad_chunk_or_merge_tol(p24, kwargs):
    with pytest.raises(ValueError, match="chunk >= 1 and a finite merge_tol >= 0"):
        lyapunov_spectrum(p24, np.array([0.5, 0.3, 0.7]), 10_000, **kwargs)


@settings(max_examples=12, deadline=None)
@given(start=st.tuples(*[st.floats(0.0, 1.0, exclude_max=True)] * 3),
       horizon=st.integers(10_000, 20_000))
def test_factor_spectra_match_whole_map_qr(p24, start, horizon):
    # the 3-D QR of product24's whole-map chunk products, with the chunking
    # and burn-in of lyapunov_spectrum, against its spectra factor by factor
    chunk, x = 8, np.array(start)
    n_chunks = horizon // chunk
    pts = dyn.orbit_points(p24, x, horizon)[:n_chunks * chunk]
    jac = dyn.Product24().jacobian_many(pts).reshape(n_chunks, chunk, 3, 3)
    prods = jac[:, 0].copy()
    for t in range(1, chunk):
        prods = jac[:, t] @ prods
    logs = cocycle._qr_logs(prods)
    burn = n_chunks // 10
    want = np.sort(logs[burn:].sum(axis=0) / ((n_chunks - burn) * chunk))
    spec = lyapunov_spectrum(p24, x, horizon, chunk=chunk)
    assert np.abs(np.array(spec.values) - want).max() <= 1e-8


def test_cat_factor_is_never_iterated(monkeypatch, cat, p24, p24_split):
    # the cat map's Jacobian is one matrix, so no certificate or spectrum
    # orbits it, forward or backward
    xs = np.random.default_rng(25).random((20, 3))
    calls = [
        lambda: check_block_membership_many(p24, xs, p24_split, PesinParams(1, 0.4, 2), 60),
        lambda: check_quasi_hyperbolic(p24, xs[0], 20, p24_split, 0.4,
                                       canonical_partition(20, 2, 1)),
        lambda: min_block_index(p24, xs[1], p24_split, 1, 0.4, 60),
        lambda: mean_exponents(p24, xs[2], p24_split, 1, 300),
        lambda: lyapunov_spectrum(cat, xs[3, 1:], 2000),
        lambda: lyapunov_spectrum(p24, xs[4], 2000),
    ]
    want = [repr(call()) for call in calls]

    def refuse(*args):
        raise AssertionError("the cat map was iterated")

    for name in ("orbit", "step_many", "inverse_many"):
        monkeypatch.setattr(dyn.CatMap, name, refuse)
    assert [repr(call()) for call in calls] == want


def test_mean_exponents_many_matches_single(p24, p24_split):
    xs = np.random.default_rng(4).random((4, 3))
    reps = mean_exponents_many(p24, xs, p24_split, K=2, horizon=30)
    solo = mean_exponents(p24, xs[2], p24_split, K=2, horizon=30)
    assert reps[2].limdom_hat == solo.limdom_hat
    assert reps[2].lambda_sup_s_hat == solo.lambda_sup_s_hat


def _sv_exact(m):
    """Largest and smallest singular value of each 2x2 matrix, from the
    closed form evaluated in 50-digit decimal arithmetic."""
    out = []
    with localcontext() as ctx:
        ctx.prec = 50
        for (a, b), (c, d) in m.tolist():
            a, b, c, d = map(Decimal, (a, b, c, d))
            top = (((a + d) ** 2 + (b - c) ** 2).sqrt()
                   + ((a - d) ** 2 + (b + c) ** 2).sqrt()) / 2
            out.append((top, abs(a * d - b * c) / top if top else Decimal(0)))
    return out


_EPS = np.finfo(float).eps
_SUBNORMAL = np.finfo(float).smallest_subnormal
_unit = st.floats(-2.0, 2.0, allow_subnormal=False)


def _stack(entries, scale=1.0):
    return st.lists(entries, min_size=1, max_size=6).map(
        lambda ms: np.array(ms, dtype=float).reshape(-1, 2, 2) * scale)


_random_2x2 = st.tuples(*[_unit] * 4)
_near_singular_2x2 = st.builds(
    lambda u0, u1, v0, v1, k, e: tuple(
        np.outer([u0, u1], [v0, v1]).ravel() + 10.0 ** k * np.array(e)),
    _unit, _unit, _unit, _unit, st.integers(-17, -8), st.tuples(*[_unit] * 4))


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    _stack(_random_2x2),
    st.integers(-300, 300).flatmap(lambda k: _stack(_random_2x2, 10.0 ** k)),
    _stack(_near_singular_2x2),
    st.integers(-300, 300).flatmap(lambda k: _stack(_near_singular_2x2, 10.0 ** k)),
))
def test_sv_closed_form_2x2(m):
    # against the decimal value: the largest within 4 ulp, the smallest
    # within 4 eps times the largest (plus 4 subnormal steps, the absolute
    # spacing of floats below the normal range); LAPACK's own error on 2x2
    # input reaches 8 ulp of the largest, so against np.linalg.svd the
    # allowance adds that
    top, low = _sv(m, top=True), _sv(m, top=False)
    lapack = np.linalg.svd(m, compute_uv=False)
    for i, (ref_top, ref_low) in enumerate(_sv_exact(m)):
        ulp = np.spacing(float(ref_top))
        low_tol = 4 * _EPS * float(ref_top) + 4 * _SUBNORMAL
        assert abs(Decimal(float(top[i])) - ref_top) <= 4 * Decimal(float(ulp))
        assert abs(Decimal(float(low[i])) - ref_low) <= Decimal(low_tol)
        assert abs(top[i] - lapack[i, 0]) <= 12 * ulp
        assert abs(low[i] - lapack[i, 1]) <= 2 * low_tol


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(-1e300, 1e300), st.floats(-1e300, 1e300)),
                min_size=1, max_size=6))
def test_sv_diagonal_exact(diagonals):
    a, d = np.array(diagonals).T
    m = np.zeros((len(a), 2, 2))
    m[:, 0, 0], m[:, 1, 1] = a, d
    assert np.array_equal(_sv(m, top=True), np.maximum(np.abs(a), np.abs(d)))
    assert np.array_equal(_sv(m, top=False), np.minimum(np.abs(a), np.abs(d)))


def _full_logs_loop(data, bundle, n_max):
    """The per-step loop that OrbitData._full_logs replaced, kept as its
    oracle: one numpy product, max-abs rescale and zero check per step, and
    LAPACK singular values (the absolute value for 1x1 bundles), per
    sub-bundle; the max over E's sub-bundles, the min over F's."""
    pick = np.maximum if bundle == "e" else np.minimum
    return pick.reduce([_sub_full_logs_loop(data, r[len(r) - data.n_fwd:], bundle, n_max)
                        for r in data._r[bundle]])


def _sub_full_logs_loop(data, r, bundle, n_max):
    dim = r.shape[-1]
    mats = np.empty((n_max + 1, data.batch, dim, dim))
    mats[0] = np.eye(dim)
    mags = np.empty((n_max, data.batch))
    for n in range(n_max):
        m = r[n] @ mats[n]
        mag = np.abs(m).max(axis=(-2, -1))
        if np.any(mag == 0.0):
            raise SingularRestrictionError("restricted product vanished")
        np.divide(m, mag[:, None, None], out=mats[n + 1])
        mags[n] = mag
    if dim == 1:
        sv = np.abs(mats[..., 0, 0])
    else:
        sv = np.linalg.svd(mats, compute_uv=False)[..., 0 if bundle == "e" else -1]
    scale = np.zeros((n_max + 1, data.batch))
    scale[1:] = _prefix_sum(np.log(mags))
    return scale + np.log(sv)


def _full(data, bundle, n_max):
    return data.full_e_logs(n_max) if bundle == "e" else data.full_f_logs(n_max)


@pytest.mark.parametrize("name,bundle", [("cat", "e"), ("cat", "f"), ("product24", "f")])
@pytest.mark.parametrize("batch", [1, 5])
def test_full_logs_1x1_matches_loop(name, bundle, batch):
    system = dyn.make_system(name)
    split = dyn.reference_splitting(system)
    xs = np.random.default_rng(11).random((batch, system.dim))
    data = OrbitData(system, xs, split, n_fwd=300, n_back=7)
    for n_max in (0, 1, 128, 300):
        assert np.array_equal(_full(data, bundle, n_max),
                              _full_logs_loop(data, bundle, n_max))


def _rotated_p24_split(theta):
    # the same E plane as the reference splitting, in a basis turned by
    # theta, so that R_E is a full 2x2 matrix
    split = dyn.reference_splitting(dyn.make_system("product24"))
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    return dyn.Splitting(split.e_basis @ rot, split.f_basis)


@pytest.mark.parametrize("theta", [0.0, 0.3, 1.1])
def test_full_logs_single_start_2x2_matches_batch(p24, theta):
    split = _rotated_p24_split(theta)
    for x in np.random.default_rng(12).random((4, 3)):
        one = OrbitData(p24, x, split, n_fwd=400)
        two = OrbitData(p24, np.vstack([x, x]), split, n_fwd=400)
        for bundle in ("e", "f"):
            solo, pair = _full(one, bundle, 400)[:, 0], _full(two, bundle, 400)
            assert np.array_equal(pair[:, 0], pair[:, 1])
            if theta == 0.0:   # diagonal factors
                assert np.array_equal(solo, pair[:, 0])
            else:
                ulps = np.abs(solo - pair[:, 0]) / np.spacing(np.abs(pair[:, 0]))
                assert ulps.max() <= 4
            # the 2x2 path also matches the per-step LAPACK loop
            assert np.allclose(solo, _full_logs_loop(one, bundle, 400)[:, 0],
                               rtol=1e-14, atol=1e-13)


def test_mean_exponents_many_matches_single_starts(p24, p24_split):
    xs = np.random.default_rng(13).random((8, 3))
    reps = mean_exponents_many(p24, xs, p24_split, K=3, horizon=200)
    for x, rep in zip(xs, reps):
        solo = mean_exponents(p24, x, p24_split, K=3, horizon=200).to_dict()
        for key, value in rep.to_dict().items():
            assert abs(value - solo[key]) <= 1e-15, key


def _vanishing(dim):
    # x0 doubles (F); every other coordinate maps x -> x^2 / 2, whose
    # derivative vanishes at 0, so at x = (0.1, 0, ...) the E product is 0
    return dyn.make_system({
        "kind": "composite", "dim": dim,
        "map": ["(2*x0) % 1.0"] + [f"(0.5*x{i}*x{i}) % 1.0" for i in range(1, dim)],
        "jacobian": [["2" if j == 0 else "0" for j in range(dim)]] + [
            [f"x{i}" if j == i else "0" for j in range(dim)] for i in range(1, dim)],
        "e_basis": np.eye(dim)[:, 1:].tolist(),
        "f_basis": np.eye(dim)[:, :1].tolist(),
    })


@pytest.mark.parametrize("dim", [2, 3, 4])   # E is 1x1, 2x2 and 3x3
@pytest.mark.parametrize("batch", [1, 2])
def test_full_logs_zero_guard_every_path(dim, batch):
    system = _vanishing(dim)
    x = np.zeros(dim)
    x[0] = 0.1
    data = OrbitData(system, np.tile(x, (batch, 1)), system.splitting, n_fwd=5)
    assert np.all(np.isfinite(data.full_f_logs(5)))
    with pytest.raises(SingularRestrictionError, match="vanished"):
        data.full_e_logs(5)
    with pytest.raises(SingularRestrictionError, match="vanished"):
        _full_logs_loop(data, "e", 5)
    with pytest.raises(SingularRestrictionError, match=r"on the window \[0, 1\)"):
        data.block_logs("e", [0, 1], 1)


def test_full_logs_underflow_guard_batched():
    # test_full_products_underflow_guard's 2-D F bundle, two starts at once
    diag = dyn.make_system({
        "kind": "composite", "dim": 3,
        "map": ["(0.5*x0) % 1.0", "(4*x1) % 1.0", "(1.1*x2) % 1.0"],
        "jacobian": [["0.5", "0", "0"], ["0", "4", "0"], ["0", "0", "1.1"]],
        "e_basis": [[1.0], [0.0], [0.0]],
        "f_basis": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
    })
    xs = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
    data = OrbitData(diag, xs, diag.splitting, n_fwd=560)
    assert data.full_f_logs(500)[-1] == pytest.approx(500 * math.log(1.1), abs=1e-10)
    with pytest.raises(SingularRestrictionError, match="underflows"):
        data.full_f_logs(560)


def test_block_logs_raise_when_a_window_product_vanishes():
    # E is the x1 axis, where Df = x1 = 0; every window product on E is 0
    system = _vanishing(2)
    x = np.array([0.1, 0.0])
    data = OrbitData(system, x, system.splitting, n_fwd=5)
    with pytest.raises(SingularRestrictionError, match="vanished"):
        data.block_logs("e", [0, 1, 2], 1)
    with pytest.raises(SingularRestrictionError, match="vanished"):
        check_quasi_hyperbolic(system, x, 10, system.splitting, 0.4,
                               canonical_partition(10, 2, 1))
    assert data.block_logs("f", [0, 1, 3], [1, 2, 2])[:, 0] == \
        pytest.approx([math.log(2.0), 2 * math.log(2.0), 2 * math.log(2.0)])


def _stacked_restriction(system, xs, splitting, n_fwd, n_back):
    """Oracle: R(t) = B^T (Df B) as stacked matmuls over the forward and the
    backward piece of the horizon, each taken whole."""
    pts = dyn.orbit_many(system, xs, n_fwd)
    pieces = [(slice(n_back, None), pts[:-1])]
    if n_back:
        pieces.append((slice(0, n_back), dyn.orbit_many_back(system, xs, n_back)[:0:-1]))
    out = {}
    for name, b in splitting._frames.items():
        out[name] = np.empty((n_back + n_fwd, len(xs)) + (b.shape[1],) * 2)
        for rows, at in pieces:
            out[name][rows] = b.T @ (system.jacobian_many(at) @ b)
    return out


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(_WINDOW_SYSTEMS)), batch=st.sampled_from([1, 3]),
       seed=st.integers(0, 2 ** 32 - 1), n_fwd=st.integers(5, 30),
       n_back=st.sampled_from([0, 5, 12]), rows=st.sampled_from([1, 2, 4, 16384]))
def test_row_blocked_restriction_matches_stacked_matmuls(name, batch, seed, n_fwd,
                                                          n_back, rows):
    # blocks of at most 4 Jacobians put a block boundary inside each piece,
    # some of them between the starts of one orbit time
    system = _WINDOW_SYSTEMS[name]
    split = _WHOLE_LINE if system.dim == 1 else dyn.reference_splitting(system)
    xs = np.random.default_rng(seed).random((batch, system.dim))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cocycle, "_RESTRICT_ROWS", rows)
        data = OrbitData(system, xs, split, n_fwd=n_fwd, n_back=n_back)
    want = _stacked_restriction(system, xs, split, n_fwd, n_back)
    for bundle in ("e", "f"):
        # E keeps times 0.. only; each sub-bundle is one diagonal block of
        # the whole bundle's R, and the blocks off the diagonal are 0
        full = want[bundle][n_back if bundle == "e" else 0:]
        a = 0
        for sub in data._r[bundle]:
            k = sub.shape[-1]
            assert np.array_equal(sub, full[..., a:a + k, a:a + k])
            assert not full[..., a:a + k, a + k:].any() and not full[..., a + k:, a:a + k].any()
            a += k
        assert a == full.shape[-1]


def test_defect_in_a_later_row_block_is_caught(monkeypatch, cat, cat_split):
    # the Jacobian leaves the cat matrix at one orbit point, time 10 of 12:
    # with blocks of 4 Jacobians only the third block sees the defect
    x = np.array([0.2, 0.7])
    late = dyn.orbit_points(cat, x, 12)[10]

    class ShearAtOnePoint(dyn.CatMap):
        def jacobian_many(self, pts):
            jac = super().jacobian_many(pts)
            jac[(pts == late).all(axis=-1), 0, 1] += 0.5
            return jac

    class SameJacobian(dyn.CatMap):
        pass

    # a new Jacobian does not inherit the cat map's constant one
    assert ShearAtOnePoint.constant_jacobian is None
    assert SameJacobian.constant_jacobian is dyn.CatMap.constant_jacobian
    monkeypatch.setattr(cocycle, "_RESTRICT_ROWS", 4)
    system = ShearAtOnePoint()
    OrbitData(system, x, cat_split, n_fwd=10)
    with pytest.raises(DegenerateSplittingError,
                       match=r"^splitting is not Df-invariant along the orbit: defect "
                             r"\S+ against largest Jacobian entry 2\.000e\+00$"):
        OrbitData(system, x, cat_split, n_fwd=12)


@pytest.mark.filterwarnings("ignore:invalid value encountered in sqrt")
def test_non_finite_jacobian_raises(monkeypatch, cat_split):
    # sqrt(x0 - 0.5) is NaN where x0 < 0.5; Python's max would drop the NaN
    # from the invariance check and leave NaN logs
    system = _cat_composite(cat_split.e_basis.tolist(), cat_split.f_basis.tolist(),
                            jacobian00="2.0 + 0*sqrt(x0 - 0.5)")
    x = np.array([0.6, 0.7])   # x0 at times 0, 1, 2, 3: 0.6, 0.9, 0.1, 0.4
    with pytest.raises(SingularRestrictionError, match=r"non-finite Jacobian at orbit time 2$"):
        OrbitData(system, x, system.splitting, n_fwd=10)
    monkeypatch.setattr(cocycle, "_RESTRICT_ROWS", 2)   # times 2 and 3 form the second block
    with pytest.raises(SingularRestrictionError, match=r"non-finite Jacobian at orbit time 2$"):
        OrbitData(system, x, system.splitting, n_fwd=10)
    # x0 at times -3, -2, -1 from (0.2, 0.7): 0.4, 0.3, 0.5
    with pytest.raises(SingularRestrictionError, match=r"non-finite Jacobian at orbit time -3$"):
        OrbitData(system, np.array([0.2, 0.7]), system.splitting, n_fwd=0, n_back=3)


_P24, _CAT = dyn.make_system("product24"), dyn.make_system("cat")


@pytest.mark.parametrize("call", [
    # the cat block's Jacobian is constant, so these used to pass
    lambda: check_block_membership_many(_P24, [[0.1, math.inf, 0.3]],
                                        dyn.reference_splitting(_P24), PesinParams(1, 0.4, 3), 60),
    lambda: check_quasi_hyperbolic(_CAT, [math.nan, 0.1], 10, dyn.reference_splitting(_CAT),
                                   0.2, canonical_partition(10, 2, 1)),
    lambda: lyapunov_spectrum(_CAT, [math.nan, 0.1], 100),
    # a NaN circle coordinate used to raise SingularRestrictionError
    lambda: OrbitData(_P24, [[math.nan, 0.3, 0.7], [0.1, 0.3, 0.7]],
                      dyn.reference_splitting(_P24), n_fwd=10, n_back=10),
], ids=["membership-inf", "segment-nan", "spectrum-nan", "circle-nan"])
def test_non_finite_start_is_bad_input(call):
    with pytest.raises(ValueError, match="finite coordinate"):
        call()


def test_block_logs_raise_when_a_window_product_overflows(p24, p24_split):
    # at fiber 1/2 both the circle and the cat direction expand by
    # (3 + sqrt5)/2 a step: 800 steps leave the float range on E (2x2) and F
    data = OrbitData(p24, np.array([0.5, 0.3, 0.7]), p24_split, n_fwd=800)
    assert np.allclose(data.block_logs("f", [0], 700), 700 * LOG_U, rtol=1e-13)
    for bundle in ("e", "f"):
        with pytest.raises(SingularRestrictionError, match=r"overflowed on the window \[0, 800\)"):
            data.block_logs(bundle, [0], 800)
        # a mixed-length call names the first overflowing window by its own length
        with pytest.raises(SingularRestrictionError, match=r"overflowed on the window \[0, 800\)"):
            data.block_logs(bundle, [0, 0], [10, 800])
        with pytest.raises(SingularRestrictionError, match=r"overflowed on the window \[0, 750\)"):
            data.block_logs(bundle, [0, 0, 0], [10, 750, 800])


def test_splitting_frames_computed_once(p24, p24_split):
    frames = p24_split._frames
    assert p24_split._frames is frames
    assert not p24_split.e_basis.flags.writeable and not p24_split.f_basis.flags.writeable
    for b in frames.values():
        assert not b.flags.writeable
    # the sub-bundles and their runs are built on the first OrbitData and
    # then reused
    OrbitData(p24, np.array([0.2, 0.3, 0.7]), p24_split, n_fwd=3, n_back=3)
    plan = p24_split._plans[((0, 1), (1, 2))]
    OrbitData(p24, np.array([0.4, 0.3, 0.7]), p24_split, n_fwd=3, n_back=3)
    assert p24_split._plans[((0, 1), (1, 2))] is plan
    subs, runs = plan
    # E on the circle (first coordinate 0) and on the cat factor (1), F on
    # the cat factor
    assert [(s, b.shape) for s, b, _ in subs["e"]] == [(0, (1, 1)), (1, (2, 1))]
    assert [(s, b.shape) for s, b, _ in subs["f"]] == [(1, (2, 1))]
    # forward: the circle carries E's first sub-bundle, the cat factor E's
    # second and F's; backward: the cat factor carries F's
    assert [(back, f, s, [(name, j) for name, j, _, _ in targets])
            for back, f, s, targets in runs] == [
        (False, 0, 0, [("e", 0)]), (False, 1, 1, [("e", 1), ("f", 0)]),
        (True, 1, 1, [("f", 0)])]
    for _, b, qt in subs["e"] + subs["f"]:
        n, k = b.shape
        assert np.array_equal(qt[:k], b.T)   # Q = [B | C]
        assert np.allclose(qt @ qt.T, np.eye(n), atol=1e-15)
    # two columns 1e-13 apart pass the transversality test (matrix_rank)
    # but not orthonormalize's, so the splitting itself is rejected
    e = np.array([[1.0, 1.0], [0.0, 1e-13], [0.0, 0.0]])
    with pytest.raises(DegenerateSplittingError, match="rank deficient"):
        dyn.Splitting(e, np.array([[0.0], [0.0], [1.0]]))


class _OneFactorP24(dyn.TorusMap):
    """product24 restricted as one factor: the whole-map oracle of the
    per-factor restriction."""

    dim, name = 3, "product24-one-factor"
    _map = dyn.Product24()

    def step_many(self, pts):
        return self._map.step_many(pts)

    def inverse_many(self, pts):
        return self._map.inverse_many(pts)

    def jacobian_many(self, pts):
        return self._map.jacobian_many(pts)

    def orbit(self, p, n):
        return self._map.orbit(p, n)


_ONE_FACTOR_P24 = _OneFactorP24()


@settings(max_examples=40, deadline=None)
@given(batch=st.sampled_from([1, 3]), seed=st.integers(0, 2 ** 32 - 1),
       n_back=st.sampled_from([0, 12]), rows=st.sampled_from([1, 4, 16384]),
       windows=st.lists(st.tuples(st.integers(-12, 12), st.integers(1, 12)),
                        min_size=1, max_size=10))
def test_factor_block_logs_match_one_factor_oracle(p24, p24_split, batch, seed, n_back,
                                                   rows, windows):
    xs = np.random.default_rng(seed).random((batch, 3))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cocycle, "_RESTRICT_ROWS", rows)
        data = OrbitData(p24, xs, p24_split, n_fwd=36, n_back=n_back)
        oracle = OrbitData(_ONE_FACTOR_P24, xs, p24_split, n_fwd=36, n_back=n_back)
    assert [r.shape[-1] for r in data._r["e"]] == [1, 1]
    assert [r.shape[-1] for r in oracle._r["e"]] == [2]
    for bundle in ("e", "f"):
        shift = 12 if bundle == "e" or not n_back else 0
        starts, lengths = zip(*[(t + shift, g) for t, g in windows])
        assert np.array_equal(data.block_logs(bundle, starts, lengths),
                              oracle.block_logs(bundle, starts, lengths))


@pytest.mark.parametrize("batch", [1, 4])
def test_factor_full_logs_within_prefix_sum_bound(p24, p24_split, batch):
    # two 1x1 prefix sums against the oracle's diagonal 2x2 running product:
    # 2 eps a step of rescaling, and the rounding of both prefix sums
    n = 3000
    xs = np.random.default_rng(21).random((batch, 3))
    xs[0, 0] = 0.0
    data = OrbitData(p24, xs, p24_split, n_fwd=n)
    oracle = OrbitData(_ONE_FACTOR_P24, xs, p24_split, n_fwd=n)
    steps = np.abs(np.log(np.abs(np.stack([r[..., 0, 0] for r in data._r["e"]])))).max(axis=0)
    size = np.zeros((n + 1, batch))
    size[1:] = np.cumsum(steps, axis=0)
    m = np.arange(n + 1)[:, None]
    bound = 2 * m * _EPS + 2 * (cocycle._PREFIX_BLOCK + m / cocycle._PREFIX_BLOCK) * _EPS * size
    assert np.all(np.abs(data.full_e_logs(n) - oracle.full_e_logs(n)) <= bound)
    assert np.array_equal(data.full_f_logs(n), oracle.full_f_logs(n))


def test_rotated_e_basis_takes_one_factor_path(p24, p24_split):
    split = _rotated_p24_split(0.3)
    xs = np.random.default_rng(22).random((60, 3))
    data = OrbitData(p24, xs, split, n_fwd=4, n_back=4)
    assert [r.shape[-1] for r in data._r["e"]] == [2]
    params = PesinParams(K=1, zeta=0.4, k=3)
    turned = check_block_membership_many(p24, xs, split, params, 60)
    ref = check_block_membership_many(p24, xs, p24_split, params, 60)
    for a, b in zip(turned, ref, strict=True):
        for key in ("slack_contraction", "slack_expansion", "slack_domination"):
            assert abs(getattr(a, key) - getattr(b, key)) <= 1e-12


class _ShearedCat(dyn.CatMap):
    def jacobian_many(self, pts):
        jac = super().jacobian_many(pts)
        jac[..., 0, 1] += 0.5
        return jac


class _ShearedP24(dyn.Product24):
    """product24 with its cat block sheared: F leaves itself within the cat
    factor, forward and backward."""

    factors = ((dyn.CircleG(), 0), (_ShearedCat(), 1))


def test_defect_within_a_factor_is_caught(p24_split):
    x = np.array([0.2, 0.3, 0.7])
    # the product's own Jacobian carries its factor's sheared block
    jac = _ShearedP24().jacobian_many(np.vstack([x, x]))
    assert (jac[:, 1:, 1:] == [[2.0, 1.5], [1.0, 1.0]]).all()
    with pytest.raises(DegenerateSplittingError, match="invariant"):
        OrbitData(_ShearedP24(), x, p24_split, n_fwd=5)
    with pytest.raises(DegenerateSplittingError, match="invariant"):
        OrbitData(_ShearedP24(), x, p24_split, n_fwd=0, n_back=5)


def test_non_finite_circle_jacobian_names_its_time(p24, p24_split):
    xs = np.random.default_rng(23).random((3, 3))
    at = dyn.orbit_points(p24, xs[1], 4)[3, 0]

    class NanAtOnePoint(dyn.CircleG):
        def jacobian_many(self, pts):
            jac = super().jacobian_many(pts)
            jac[pts[..., 0] == at, 0, 0] = np.nan
            return jac

    class NanProduct(dyn.Product24):
        factors = ((NanAtOnePoint(), 0), (dyn.CatMap(), 1))

    for batch in (xs[1:2], xs):
        with pytest.raises(SingularRestrictionError,
                           match=r"non-finite Jacobian at orbit time 3$"):
            OrbitData(NanProduct(), batch, p24_split, n_fwd=10, n_back=10)
