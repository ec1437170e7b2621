"""Canonical partitions and quasi-hyperbolic certificates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pesinlab import quasihyp
from pesinlab import systems as dyn
from pesinlab.quasihyp import (
    PartitionScheme,
    canonical_partition,
    check_qh_pseudo_orbit,
    check_quasi_hyperbolic,
)
from pesinlab.shadow import make_pseudo_orbit

from conftest import LOG_U


def test_worked_partition():
    p = canonical_partition(41, 3, 4)
    assert p.times == (0, 13, 17, 21, 25, 29, 41)
    assert p.m == 6
    assert p.max_gap == 13


def test_partition_minimal_window():
    p = canonical_partition(24, 3, 4)
    assert p.times == (0, 12, 24) and p.m == 2
    with pytest.raises(ValueError):
        canonical_partition(23, 3, 4)


def test_partition_gap_bound_exhaustive():
    # max gap <= (k+1)K for every n <= 500; positive remainder when enough
    # blocks remain; first and last pieces pinned, interior gaps exactly K
    for K in range(1, 11):
        for k in range(1, 6):
            for n in range(2 * k * K, 501):
                p = canonical_partition(n, k, K)
                q = n % K
                if q == 0 and n // K - 1 >= 2 * k:
                    q = K
                assert p.max_gap <= (k + 1) * K, (n, k, K)
                assert p.times[1] == k * K + q
                assert p.gaps[-1] == k * K
                assert all(g == K for g in p.gaps[1:-1])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 60), st.integers(1, 12), st.integers(0, 5000))
def test_partition_closed_form_property(K, k, extra):
    n = 2 * k * K + extra
    p = canonical_partition(n, k, K)
    l, q = divmod(n, K)
    if q == 0 and l - 1 >= 2 * k:
        l, q = l - 1, K
    assert n == l * K + q and (1 <= q <= K or n == 2 * k * K)
    assert p.times[0] == 0 and p.times[-1] == n and p.m == l - 2 * k + 2
    assert p.gaps[0] == k * K + q and p.gaps[-1] == k * K
    assert all(g == K for g in p.gaps[1:-1])
    assert p.max_gap <= (k + 1) * K
    interior = [(k + i - 1) * K + q for i in range(1, p.m)]
    assert list(p.times[1:-1]) == interior


def test_partition_scheme_validation():
    with pytest.raises(ValueError):
        PartitionScheme(times=(1, 5, 9))   # must start at 0
    with pytest.raises(ValueError):
        PartitionScheme(times=(0, 5, 5))   # strictly increasing
    p = PartitionScheme(times=(0, 4, 7, 12))
    assert p.gaps == (4, 3, 5) and p.max_gap == 5 and p.n == 12


def test_cat_certificate_slacks(cat, cat_split):
    part = canonical_partition(30, 2, 3)
    cert = check_quasi_hyperbolic(cat, np.array([0.2, 0.7]), 30, cat_split,
                                  0.5, part)
    assert part.times == (0, 9, 12, 15, 18, 21, 24, 30)  # q = K = 3
    assert cert.passed and cert.e == 9 and cert.q_dim == 1
    assert min(cert.slack_prefix) == pytest.approx(LOG_U - 0.5, abs=1e-12)
    assert min(cert.slack_suffix) == pytest.approx(LOG_U - 0.5, abs=1e-12)
    assert min(cert.slack_ratio) == pytest.approx(2 * LOG_U - 1.0, abs=1e-12)
    d = cert.to_dict()
    assert d["passed"] is True and len(d["slack_ratio"]) == part.m


@pytest.mark.parametrize("zeta", [0.0, np.inf, np.nan])
def test_segment_check_rejects_a_bad_zeta(cat, cat_split, zeta):
    with pytest.raises(ValueError, match="zeta must be finite and positive"):
        check_quasi_hyperbolic(cat, np.array([0.2, 0.7]), 30, cat_split, zeta,
                               canonical_partition(30, 2, 3))


def test_product24_fiber_certificates(p24, p24_split):
    part = canonical_partition(24, 2, 3)
    good = check_quasi_hyperbolic(p24, np.array([0.0, 0.3, 0.6]), 24,
                                  p24_split, 0.4, part)
    assert good.passed
    bad = check_quasi_hyperbolic(p24, np.array([0.5, 0.3, 0.6]), 24,
                                 p24_split, 0.05, part)
    assert not bad.passed
    assert max(bad.slack_ratio) < 0.0  # expanding fiber kills domination


def test_concatenation_refinement(cat, cat_split, p24, p24_split):
    # two passing windows concatenate: the refined union passes inequality (3)
    cases = [
        (cat, cat_split, np.array([0.2, 0.7]), 0.5, 18, 24),
        (p24, p24_split, np.array([0.3, 0.25, 0.85]), 0.3, 20, 16),
    ]
    for system, split, x, zeta, n1, n2 in cases:
        k, K = 2, 3
        p1 = canonical_partition(n1, k, K)
        p2 = canonical_partition(n2, k, K)
        mid = dyn.orbit_points(system, x, n1)[-1]
        c1 = check_quasi_hyperbolic(system, x, n1, split, zeta, p1)
        c2 = check_quasi_hyperbolic(system, mid, n2, split, zeta, p2)
        assert c1.passed and c2.passed
        union = PartitionScheme(times=p1.times + tuple(n1 + t for t in p2.times[1:]))
        joint = check_quasi_hyperbolic(system, x, n1 + n2, split, zeta, union)
        assert min(joint.slack_ratio) >= 0.0


def test_pseudo_orbit_exact_split(cat, cat_split):
    x0 = np.array([0.2, 0.7])
    mid = dyn.orbit_points(cat, x0, 20)[-1]
    pseudo = make_pseudo_orbit(cat, [x0, mid], [20, 20], periodic=False)
    rep = check_qh_pseudo_orbit(cat, pseudo, cat_split, 0.5, None, 1e-9, k=2, K=3)
    assert rep["passed"] is True
    assert rep["e"] == 9  # defaults to (k+1)K
    assert rep["gaps"] == [0.0]
    assert rep["first_failed_segment"] is None and rep["first_failed_seam"] is None


@pytest.mark.parametrize("delta", [-1.0, 0.0, np.inf, np.nan])
def test_pseudo_orbit_check_rejects_a_bad_delta(cat, cat_split, monkeypatch, delta):
    # the bound is checked before any segment is certified
    x0 = np.array([0.2, 0.7])
    mid = dyn.orbit_points(cat, x0, 20)[-1]
    pseudo = make_pseudo_orbit(cat, [x0, mid], [20, 20], periodic=False)

    def certify(*args):
        raise AssertionError("certified a segment under a bad delta")

    monkeypatch.setattr(quasihyp, "check_quasi_hyperbolic", certify)
    with pytest.raises(ValueError, match="delta must be finite and positive"):
        check_qh_pseudo_orbit(cat, pseudo, cat_split, 0.5, None, delta, k=2, K=3)


@pytest.mark.parametrize("e", [-1, 0, 0.5, np.nan])
def test_pseudo_orbit_check_rejects_a_bad_e(cat, cat_split, monkeypatch, e):
    # every partition has a gap of at least 1, so an e below 1 fails every
    # segment; it is bad input, checked before any segment is certified
    x0 = np.array([0.2, 0.7])
    mid = dyn.orbit_points(cat, x0, 20)[-1]
    pseudo = make_pseudo_orbit(cat, [x0, mid], [20, 20], periodic=False)

    def certify(*args):
        raise AssertionError("certified a segment under a bad e")

    monkeypatch.setattr(quasihyp, "check_quasi_hyperbolic", certify)
    with pytest.raises(ValueError, match="e must be at least 1"):
        check_qh_pseudo_orbit(cat, pseudo, cat_split, 0.5, e, None, k=2, K=3)


def test_pseudo_orbit_gap_detected(cat, cat_split):
    x0 = np.array([0.2, 0.7])
    mid = dyn.orbit_points(cat, x0, 20)[-1]
    pseudo = make_pseudo_orbit(cat, [x0, dyn.wrap(mid + 2e-9)], [20, 20], periodic=False)
    rep = check_qh_pseudo_orbit(cat, pseudo, cat_split, 0.5, None, 1e-9, k=2, K=3)
    assert rep["passed"] is False and rep["first_failed_seam"] == 0
    assert rep["first_failed_segment"] is None
    assert rep["gaps"][0] > 1e-9
    with pytest.raises(ValueError, match="at least one segment"):
        make_pseudo_orbit(cat, [], [], periodic=False)


def test_pseudo_orbit_segment_failure_reported(p24, p24_split):
    # second segment sits on the expanding fiber: certificate fails there
    good = np.array([0.0, 0.3, 0.6])
    half = np.array([0.5, 0.3, 0.6])
    end = dyn.orbit_points(p24, good, 24)[-1]
    pseudo = make_pseudo_orbit(p24, [good, half], [24, 24], periodic=False)
    rep = check_qh_pseudo_orbit(p24, pseudo, p24_split, 0.4, None,
                                float(dyn.torus_distance(end, half)) + 1e-9,
                                k=2, K=3)
    assert rep["passed"] is False
    assert rep["segment_pass"] == [True, False]
    assert rep["first_failed_segment"] == 1 and rep["first_failed_seam"] is None


def test_pseudo_orbit_seam_failure_not_a_segment(cat, cat_split):
    # both segments pass; only seam 0 (gap 0.2236) exceeds delta
    pseudo = make_pseudo_orbit(cat, [np.array([0.1, 0.2]), np.array([0.5, 0.5])],
                               [10, 10], periodic=False)
    rep = check_qh_pseudo_orbit(cat, pseudo, cat_split, 0.4, None, 1e-3, k=1, K=1)
    assert rep["passed"] is False
    assert rep["segment_pass"] == [True, True]
    assert rep["gaps"][0] == pytest.approx(0.2236, abs=1e-4)
    assert rep["first_failed_seam"] == 0
    assert rep["first_failed_segment"] is None


def test_pseudo_orbit_periodic_wrap_seam_checked(cat, cat_split):
    # seam 0 is exact; the wrap seam from the last segment's end back to
    # the first start (gap 0.2302) exceeds delta
    x0 = np.array([0.1234, 0.777])
    mid = dyn.orbit_points(cat, x0, 12)[-1]
    pseudo = make_pseudo_orbit(cat, [x0, mid], [12, 12], periodic=True)
    rep = check_qh_pseudo_orbit(cat, pseudo, cat_split, 0.5, None, 1e-6, k=1, K=1)
    assert rep["passed"] is False
    assert rep["segment_pass"] == [True, True]
    assert rep["gaps"][0] == 0.0
    assert rep["gaps"][1] == pytest.approx(0.2302, abs=1e-4)
    assert rep["first_failed_seam"] == 1 and rep["first_failed_segment"] is None
    # delta=None takes the chain's own bound, which every seam is below
    rep = check_qh_pseudo_orbit(cat, pseudo, cat_split, 0.5, None, None, k=1, K=1)
    assert rep["passed"] is True and rep["delta"] == pseudo.delta

