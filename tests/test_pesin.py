"""Block certificates, minimal block index, budgets, block geometry."""

import math
import warnings

import numpy as np
import pytest

from pesinlab import systems as dyn
from pesinlab.errors import GeometryError
from pesinlab.pesin import (
    PesinParams,
    block_geometry_product24,
    budget_from_inputs,
    check_block_membership,
    check_block_membership_many,
    mean_hyperbolicity_degree,
    min_block_index,
    min_block_scan_product24,
)

from conftest import LOG2, LOG_3P5, LOG_U

# frozen from the closed-form rates at the fiber-0 fixed point
SLACK_A = LOG2 - 0.4
SLACK_B = LOG_U - 0.4
SLACK_C = LOG2 + LOG_U - 0.8


def test_params_validation():
    with pytest.raises(ValueError):
        PesinParams(K=0, zeta=0.4, k=1)
    with pytest.raises(ValueError):
        PesinParams(K=1, zeta=0.0, k=1)
    with pytest.raises(ValueError):
        PesinParams(K=1, zeta=0.4, k=0)


@pytest.mark.parametrize("zeta", [0.0, -0.1, np.inf, np.nan])
def test_zeta_must_be_finite_and_positive(p24, p24_split, zeta):
    # an infinite zeta used to run every certificate and fail at printing
    with pytest.raises(ValueError, match="zeta must be finite and positive"):
        PesinParams(K=1, zeta=zeta, k=1)
    with pytest.raises(ValueError, match="zeta must be finite and positive"):
        min_block_index(p24, np.array([0.1, 0.3, 0.7]), p24_split, 1, zeta, 40)


def test_worked_example_fiber0(p24, p24_split):
    cert = check_block_membership(p24, np.array([0.0, 0.3, 0.7]), p24_split,
                                  PesinParams(K=1, zeta=0.4, k=1), horizon=200)
    assert cert.passed and not cert.partial
    assert cert.slack_contraction == pytest.approx(SLACK_A, abs=1e-12)
    assert cert.slack_expansion == pytest.approx(SLACK_B, abs=1e-12)
    assert cert.slack_domination == pytest.approx(SLACK_C, abs=1e-12)
    d = cert.to_dict()
    assert d["passed"] is True and d["k"] == 1 and d["K"] == 1


def test_fiber_half_never_passes(p24, p24_split):
    for k in (1, 5, 20):
        cert = check_block_membership(p24, np.array([0.5, 0.3, 0.7]), p24_split,
                                      PesinParams(K=1, zeta=0.4, k=k), horizon=120)
        assert not cert.passed


def test_horizon_too_short(p24, p24_split):
    with pytest.raises(ValueError):
        check_block_membership(p24, np.array([0.0, 0.3, 0.7]), p24_split,
                               PesinParams(K=1, zeta=0.4, k=30), horizon=35)


def test_membership_monotone_in_k_and_zeta(p24, p24_split):
    rng = np.random.default_rng(9)
    xs = rng.random((200, 3))
    horizon = 120

    def passes(k, zeta):
        certs = check_block_membership_many(
            p24, xs, p24_split, PesinParams(K=1, zeta=zeta, k=k), horizon)
        return np.array([c.passed for c in certs])

    p_k3 = passes(3, 0.4)
    p_k8 = passes(8, 0.4)
    p_k20 = passes(20, 0.4)
    assert not np.any(p_k3 & ~p_k8), "passing must be monotone in k"
    assert not np.any(p_k8 & ~p_k20)
    p_weak = passes(3, 0.2)
    assert not np.any(p_k3 & ~p_weak), "passing must be monotone in zeta"


def test_min_block_index_frozen_fibers(p24, p24_split):
    # closed-form fiber scan and the generic certificate path agree
    expected = {0.3: 2, 0.45: 8, 0.48: 14, 0.499: 31, 0.52: 14, 0.7: 2}
    scan = min_block_scan_product24(sorted(expected), 0.4, 120)
    for xv, got in zip(sorted(expected), scan):
        assert got == expected[xv], xv
        gen = min_block_index(p24, np.array([xv, 0.11, 0.83]), p24_split,
                              K=1, zeta=0.4, horizon=120)
        assert gen == expected[xv], xv


@pytest.mark.parametrize("system, K", [("product24", 1), ("product24", 2), ("cat", 3)])
def test_min_block_index_is_the_first_passing_certificate(system, K):
    # fibers 0.5 and 0.49 never pass or pass late; k runs up to horizon/2
    system = dyn.make_system(system)
    split = dyn.reference_splitting(system)
    xs = np.random.default_rng(9).random((6, system.dim))
    xs[:2, 0] = 0.5, 0.49
    for zeta in (0.2, 0.4, 0.6):
        passed = np.array([[c.passed for c in check_block_membership_many(
            system, xs, split, PesinParams(K=K, zeta=zeta, k=k), 60)] for k in range(1, 31)])
        want = [int(np.argmax(p)) + 1 if p.any() else None for p in passed.T]
        assert [min_block_index(system, x, split, K, zeta, 60) for x in xs] == want


def test_min_block_index_deep_fiber(p24, p24_split):
    assert min_block_scan_product24([0.49], 0.4, 200)[0] == 18
    assert min_block_index(p24, np.array([0.49, 0.2, 0.6]), p24_split,
                           K=1, zeta=0.4, horizon=200) == 18


def test_min_block_index_none_at_half(p24, p24_split):
    assert min_block_index(p24, np.array([0.5, 0.3, 0.7]), p24_split,
                           K=1, zeta=0.4, horizon=100) is None
    assert min_block_scan_product24([0.5], 0.4, 100)[0] == math.inf


@pytest.mark.parametrize("fibers", [[np.nan], [np.inf], [0.2, -np.inf, 0.4]])
def test_scan_rejects_a_non_finite_fiber(fibers):
    # NaN used to read as a fiber that never enters a block (inf), and inf
    # warned in the reduction mod 1 and then did the same
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite"):
            min_block_scan_product24(fibers, 0.4, 100)


def test_scan_matches_generic_random_fibers(p24, p24_split):
    rng = np.random.default_rng(21)
    xs = rng.random(20)
    scan = min_block_scan_product24(xs, 0.4, 100)
    for xv, sc in zip(xs, scan):
        gen = min_block_index(p24, np.array([xv, rng.random(), rng.random()]),
                              p24_split, K=1, zeta=0.4, horizon=100)
        assert (math.inf if gen is None else gen) == sc


def test_budget_product24_rates():
    bud = budget_from_inputs(lambda_s=-LOG2, lambda_u=LOG_U, S=1,
                             dom_rate=0.5 * LOG_3P5, alpha=2 * LOG_U, zeta=0.3)
    assert bud.beta == LOG2  # min() hands back the input float unchanged
    assert bud.zeta < bud.chi < bud.beta
    assert bud.K0 == 1


def test_budget_zeta_range():
    kw = dict(lambda_s=-LOG2, lambda_u=LOG_U, S=1,
              dom_rate=0.5 * LOG_3P5, alpha=2 * LOG_U)
    budget_from_inputs(zeta=LOG2 - 1e-9, **kw)
    for bad in (0.0, LOG2, LOG2 + 0.1, -0.2):
        with pytest.raises(ValueError):
            budget_from_inputs(zeta=bad, **kw)


def test_budget_block_size_step():
    bud = budget_from_inputs(lambda_s=-1.0, lambda_u=1.0, S=3,
                             dom_rate=2.4, alpha=0.5, zeta=0.3)
    assert bud.beta == pytest.approx(0.8)
    assert bud.K0 == math.ceil(2 * (1.6 + 0.5) / (0.8 - 0.3))
    with pytest.raises(ValueError):
        budget_from_inputs(lambda_s=0.1, lambda_u=1.0, S=1,
                           dom_rate=1.0, alpha=0.0, zeta=0.1)


def test_mean_hyperbolicity_degree(cat, cat_split, p24, p24_split):
    lo, hi = mean_hyperbolicity_degree(cat, np.array([0.2, 0.7]), cat_split,
                                       K=2, horizon=100)
    assert lo == pytest.approx(-LOG_U, abs=1e-12)
    assert hi == pytest.approx(LOG_U, abs=1e-12)
    lo24, hi24 = mean_hyperbolicity_degree(p24, np.array([0.0, 0.2, 0.7]),
                                           p24_split, K=1, horizon=100)
    assert lo24 == pytest.approx(-LOG2, abs=1e-12)
    assert hi24 == pytest.approx(LOG_U, abs=1e-12)
    # with no inverse there is no backward F average
    forward = dyn.make_system({
        "kind": "composite", "dim": 2, "map": ["(2*x0 + x1) % 1.0", "(x0 + x1) % 1.0"],
        "jacobian": [["2.0", "1.0"], ["1.0", "1.0"]],
        "e_basis": cat_split.e_basis.tolist(), "f_basis": cat_split.f_basis.tolist()})
    lo, hi = mean_hyperbolicity_degree(forward, np.array([0.2, 0.7]), forward.splitting,
                                       K=2, horizon=100)
    assert lo == pytest.approx(-LOG_U, abs=1e-12) and hi is None


def test_mean_hyperbolicity_degree_never_forms_long_products():
    # F is a 2-D bundle at rates 4 and 1.1, whose restricted product
    # underflows after about 560 steps; the degree at K = 2 and horizon 512
    # spans 1024 steps, but reads only length-K windows
    diag = dyn.make_system({
        "kind": "composite", "dim": 3,
        "map": ["(0.5*x0) % 1.0", "(4*x1) % 1.0", "(1.1*x2) % 1.0"],
        "jacobian": [["0.5", "0", "0"], ["0", "4", "0"], ["0", "0", "1.1"]],
        "e_basis": [[1.0], [0.0], [0.0]],
        "f_basis": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]})
    lo, hi = mean_hyperbolicity_degree(diag, np.array([0.1, 0.2, 0.3]), diag.splitting,
                                       K=2, horizon=512)
    assert lo == pytest.approx(-LOG2, abs=1e-12) and hi is None


def test_block_geometry_two_intervals():
    geo = block_geometry_product24(zeta=0.4, k=5, grid_n=2000, horizon=120)
    assert 0.0 < geo.a < 0.5 < geo.b < 1.0
    d = geo.to_dict()
    assert d["k"] == 5 and d["grid_n"] == 2000


def test_block_geometry_monotone_in_k():
    ks = (1, 2, 5, 10, 20)
    geos = [block_geometry_product24(zeta=0.4, k=k, grid_n=2000, horizon=120)
            for k in ks]
    a_vals = [g.a for g in geos]
    b_vals = [g.b for g in geos]
    assert a_vals == sorted(a_vals), "left endpoint nondecreasing in k"
    assert b_vals == sorted(b_vals, reverse=True), "right endpoint nonincreasing"


def test_block_geometry_validation():
    with pytest.raises(ValueError):
        block_geometry_product24(zeta=LOG2, k=3, grid_n=2000)
    with pytest.raises(ValueError):
        block_geometry_product24(zeta=0.4, k=3, grid_n=500)
    assert issubclass(GeometryError, RuntimeError)


def test_partial_certificate_without_inverse(cat_split):
    half_open = dyn.make_system({
        "kind": "composite", "dim": 2,
        "map": ["(2*x0 + x1) % 1.0", "(x0 + x1) % 1.0"],
        "jacobian": [["2.0", "1.0"], ["1.0", "1.0"]],
        "e_basis": cat_split.e_basis.tolist(),
        "f_basis": cat_split.f_basis.tolist(),
    })
    cert = check_block_membership(half_open, np.array([0.2, 0.7]), cat_split,
                                  PesinParams(K=1, zeta=0.5, k=1), horizon=60)
    assert cert.partial and cert.slack_expansion is None
    assert cert.passed  # conditions (a) and (c) certified forward-only
    assert cert.to_dict()["slack_expansion"] is None


def test_many_matches_single(p24, p24_split):
    xs = np.random.default_rng(12).random((6, 3))
    params = PesinParams(K=2, zeta=0.3, k=2)
    certs = check_block_membership_many(p24, xs, p24_split, params, 80)
    solo = check_block_membership(p24, xs[3], p24_split, params, 80)
    assert certs[3].slack_contraction == solo.slack_contraction
    assert certs[3].slack_domination == solo.slack_domination
    assert certs[3].passed == solo.passed
