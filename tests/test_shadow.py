"""Pseudo-orbits, Newton shadowing, closing, and probe utilities."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pesinlab import systems as dyn
from pesinlab.errors import ConvergenceError, PseudoOrbitFormatError
from pesinlab.shadow import (
    PseudoOrbit,
    _newton_matrix,
    close_orbit,
    estimate_shadowing_constant,
    make_pseudo_orbit,
    periodic_density_probe,
    read_pseudo_orbit,
    solve_shadow,
    verify_shadowing,
    write_pseudo_orbit,
)


def test_pseudo_orbit_validation(cat):
    x0 = np.array([0.1, 0.2])
    seg = dyn.orbit_points(cat, x0, 5)
    far = dyn.orbit_points(cat, np.array([0.7, 0.9]), 5)
    with pytest.raises(ValueError):
        PseudoOrbit(segments=(seg, far), periodic=False, delta=1e-9)
    po = PseudoOrbit(segments=(seg, far), periodic=False, delta=0.9)
    assert po.m == 2 and po.dim == 2 and po.total_length == 10
    assert po.n_list == (5, 5)
    with pytest.raises(ValueError):
        PseudoOrbit(segments=(seg[:1],), periodic=False, delta=0.5)


def test_make_pseudo_orbit_auto_delta(cat):
    x0 = np.array([0.1, 0.2])
    end = dyn.orbit_points(cat, x0, 6)[-1]
    x1 = dyn.wrap(end + np.array([5e-7, 0.0]))
    po = make_pseudo_orbit(cat, [x0, x1], [6, 4], periodic=False)
    assert po.delta == pytest.approx(5e-7, rel=1e-6)
    assert po.gaps[0] < po.delta
    # a periodic window adds the seam from the last end back to x0
    cyc = make_pseudo_orbit(cat, [x0, x1], [6, 4], periodic=True)
    wrap_gap = float(dyn.torus_distance(cyc.segments[-1][-1], x0))
    assert cyc.gaps == (po.gaps[0], wrap_gap) and wrap_gap > 1e-3
    assert cyc.delta == pytest.approx(wrap_gap, rel=1e-6)
    with pytest.raises(ValueError):
        PseudoOrbit(segments=cyc.segments, periodic=True, delta=po.delta)
    with pytest.raises(ValueError):
        close_orbit(cat, x0, 0)


def _worst_by_loop(system, x, pseudo):
    """Worst rho(f^{c_i+j}(x), point j of segment i), first (i, j) on ties."""
    orbit = dyn.orbit_points(system, x, pseudo.total_length)
    worst, where, c = 0.0, (0, 0), 0
    for i, seg in enumerate(pseudo.segments):
        for j, row in enumerate(seg):
            dev = float(dyn.torus_distance(orbit[c + j], row))
            if dev > worst:
                worst, where = dev, (i, j)
        c += len(seg) - 1
    return worst, where


def test_verify_and_solve_exact_orbit(cat):
    x0 = np.array([0.1234, 0.777])
    mid = dyn.orbit_points(cat, x0, 6)[-1]
    po = make_pseudo_orbit(cat, [x0, mid], [6, 7], periodic=False)
    assert verify_shadowing(cat, x0, po, 1e-12) == (True, 0.0, (0, 0))
    res = solve_shadow(cat, po)
    assert res.iterations == 0 and res.epsilon_achieved == 0.0
    assert res.period is None and not res.periodic
    bad = dyn.wrap(x0 + 2e-6)
    bad_ok, bad_dev, where = verify_shadowing(cat, bad, po, 1e-6)
    assert not bad_ok and bad_dev > 1e-6
    # the perturbation grows by lambda_u per step: worst at the last point
    assert where == (1, 7)
    assert (bad_dev, where) == _worst_by_loop(cat, bad, po)


def test_verify_consistency_after_solve(cat):
    # solved point re-verifies at its own epsilon over short windows
    rng = np.random.default_rng(8)
    wheres = []
    for trial in range(5):
        x0 = rng.random(2)
        end = dyn.orbit_points(cat, x0, 4)[-1]
        x1 = dyn.wrap(end + 1e-8 * rng.standard_normal(2))
        po = make_pseudo_orbit(cat, [x0, x1], [4, 4], periodic=False)
        res = solve_shadow(cat, po)
        ok, dev, where = verify_shadowing(cat, res.z, po, res.epsilon_achieved + 1e-12)
        assert ok, (trial, dev, res.epsilon_achieved)
        assert (dev, where) == _worst_by_loop(cat, res.z, po)
        wheres.append(where)
    # the worst point sits on one side of the seam or the other
    assert wheres == [(0, 4), (1, 0), (0, 4), (1, 0), (0, 4)]


def _close_oracle_points(cat, x, n):
    """Fixed point of the closing step in closed form: (A^n - I) w = gap."""
    A = np.array([[2.0, 1.0], [1.0, 1.0]])
    seg = dyn.orbit_points(cat, x, n)
    gap = dyn.torus_diff(seg[0], seg[-1]).ravel()
    w = np.linalg.solve(np.linalg.matrix_power(A, n) - np.eye(2), gap)
    pts = [dyn.wrap(seg[j] + np.linalg.matrix_power(A, j) @ w) for j in range(n)]
    return np.array(pts)


def test_close_orbit_matches_linear_oracle(cat):
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.random(2)
        n = int(rng.integers(4, 12))
        res = close_orbit(cat, x, n)
        oracle = _close_oracle_points(cat, x, n)
        assert res.period == n
        assert float(np.max(dyn.torus_distance(res.points, oracle))) < 1e-10
        assert res.residual < 1e-12


def test_close_orbit_rational_point_is_fixed(cat):
    # (1/5, 2/5) is periodic already; closing returns it unchanged
    orb = dyn.orbit_points(cat, np.array([0.2, 0.4]), 60)
    d = dyn.torus_distance(orb[1:], np.array([0.2, 0.4]))
    p_true = int(np.argmin(d)) + 1
    assert d[p_true - 1] < 1e-12
    res = close_orbit(cat, np.array([0.2, 0.4]), p_true)
    assert res.epsilon_achieved < 1e-12 and res.residual < 1e-13


def test_periodicity_forward_return_short(cat):
    rng = np.random.default_rng(14)
    for p in (3, 5, 8, 10):
        x = rng.random(2)
        orb = dyn.orbit_points(cat, x, p)
        d = dyn.torus_distance(orb[1:], x)
        n = int(np.argmin(d)) + 1
        res = close_orbit(cat, x, n)
        ret = dyn.orbit_points(cat, res.z, res.period)[-1]
        # forward iteration amplifies roundoff by lambda_u^p: short p only
        assert float(dyn.torus_distance(ret, res.z)) < 1e-10


def test_periodicity_cyclic_defect_all_lengths(cat):
    rng = np.random.default_rng(15)
    for p in (12, 30, 60):
        x = rng.random(2)
        res = close_orbit(cat, x, p)
        defect = np.abs(dyn.torus_diff(np.roll(res.points, -1, axis=0),
                                       cat.step_many(res.points))).max()
        assert float(defect) < 1e-11


def _chain_rows(pseudo):
    rows = [seg[:-1] for seg in pseudo.segments]
    if not pseudo.periodic:
        rows.append(pseudo.segments[-1][-1:])
    return np.vstack(rows)


def _dense_cat_matrix(p, n_points):
    """Dense linearized cat orbit equation: block row j holds -A in column j
    and I in column (j + 1) mod n_points (both in column 0 when it is 1)."""
    A = np.array([[2.0, 1.0], [1.0, 1.0]])
    J = np.zeros((2 * p, 2 * n_points))
    for j in range(p):
        k = (j + 1) % n_points
        J[2 * j:2 * j + 2, 2 * j:2 * j + 2] -= A
        J[2 * j:2 * j + 2, 2 * k:2 * k + 2] += np.eye(2)
    return J


def _dense_newton_step(cat, pseudo):
    """One Newton step on the chain, dense algebra: square solve for a
    cycle, minimum norm for an open chain."""
    z = _chain_rows(pseudo)
    p = pseudo.total_length
    J = _dense_cat_matrix(p, len(z))
    nxt = [(j + 1) % len(z) for j in range(p)]
    r = dyn.torus_diff(z[nxt], cat.step_many(z[:p])).ravel()
    if pseudo.periodic:
        delta = np.linalg.solve(J, -r)
    else:
        delta = J.T @ np.linalg.solve(J @ J.T, -r)
    return dyn.wrap(z + delta.reshape(-1, 2))


def test_open_window_min_norm_oracle(cat):
    rng = np.random.default_rng(23)
    for _ in range(3):
        x0 = rng.random(2)
        end = dyn.orbit_points(cat, x0, 7)[-1]
        x1 = dyn.wrap(end + 1e-6 * rng.standard_normal(2))
        po = make_pseudo_orbit(cat, [x0, x1], [7, 6], periodic=False)
        res = solve_shadow(cat, po)
        oracle = _dense_newton_step(cat, po)
        assert float(np.max(dyn.torus_distance(res.points, oracle))) < 1e-10


@pytest.mark.parametrize("starts, lengths", [
    ([[1e-7, -2e-7]], [1]),                     # p = 1: both blocks in column 0
    ([[0.2 + 3e-7, 0.4 - 1e-7]], [2]),          # p = 2, one segment
    ([[0.2 + 3e-7, 0.4 - 1e-7], [0.8 - 2e-7, 0.6 + 1e-7]], [1, 1]),  # p = 2, two seams
])
def test_short_cycle_dense_oracle(cat, starts, lengths):
    # the cat map is linear mod 1, so one exact Newton step solves the cycle;
    # 0 is its fixed point and (1/5, 2/5) has period 2
    po = make_pseudo_orbit(cat, [dyn.wrap(np.array(x)) for x in starts], lengths,
                           periodic=True)
    z = _chain_rows(po)
    nxt = np.arange(1, len(z) + 1) % len(z)
    assert np.array_equal(_newton_matrix(cat, z, nxt).toarray(),
                          _dense_cat_matrix(len(z), len(z)))
    res = solve_shadow(cat, po)
    assert res.period == len(z) == sum(lengths)
    assert float(np.max(dyn.torus_distance(res.points,
                                           _dense_newton_step(cat, po)))) < 1e-12
    assert res.residual < 1e-12


def test_file_roundtrip(cat, tmp_path):
    x0 = np.array([0.1234, 0.777])
    mid = dyn.orbit_points(cat, x0, 6)[-1]
    po = make_pseudo_orbit(cat, [x0, mid], [6, 7], periodic=False)
    path = tmp_path / "po.txt"
    write_pseudo_orbit(po, path)
    back = read_pseudo_orbit(path)
    assert back.periodic == po.periodic and back.delta == po.delta
    assert all(np.array_equal(a, b) for a, b in zip(back.segments, po.segments))
    write_pseudo_orbit(back, tmp_path / "po2.txt")
    assert (tmp_path / "po.txt").read_text() == (tmp_path / "po2.txt").read_text()


_EDGE_VALUES = [0.0, float(np.nextafter(1.0, 0.0)), 5e-324, 1e-310,
                float(np.nextafter(2.2250738585072014e-308, 0.0))]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_file_roundtrip_bit_exact(data):
    d = data.draw(st.integers(1, 3))
    value = st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.sampled_from(_EDGE_VALUES))
    segments = [np.array(data.draw(st.lists(st.lists(value, min_size=d, max_size=d),
                                            min_size=2, max_size=6)))
                for _ in range(data.draw(st.integers(1, 4)))]
    po = PseudoOrbit(segments=tuple(segments), periodic=data.draw(st.booleans()))
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "po.txt"), Path(tmp, "po2.txt")
        write_pseudo_orbit(po, first)
        back = read_pseudo_orbit(first)
        write_pseudo_orbit(back, second)
        assert first.read_text() == second.read_text()
    assert back.dim == d and back.periodic == po.periodic and back.delta == po.delta
    assert len(back.segments) == len(segments)
    assert all(np.array_equal(a, b) for a, b in zip(back.segments, segments))


@pytest.mark.parametrize("text", [
    "SEG n=1\n0 0\n0 0\n",                                  # missing header
    "PSEUDO dim=2 periodic=1 delta=0.5\nSEG n=1\n0 0\n0 0\n",  # bad field name
    "PSEUDO d=2 periodic=1\nSEG n=1\n0 0\n0 0\n",           # missing delta
    "PSEUDO d=2 periodic=1 delta=0.5\nSEG n=2\n0 0\n0 0\n",  # short segment
    "PSEUDO d=2 periodic=1 delta=0.5\nSEG n=1\n0 0\n0 0 0\n",  # wrong dim
    "PSEUDO d=2 periodic=1 delta=0.5\nSEG n=x\n0 0\n0 0\n",  # bad count
])
def test_malformed_files(tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(PseudoOrbitFormatError):
        read_pseudo_orbit(path)


def test_read_rejects_gap_violation(tmp_path):
    # well-formed file whose seam exceeds the declared delta
    path = tmp_path / "wide.txt"
    path.write_text("PSEUDO d=2 periodic=0 delta=1e-09\n"
                    "SEG n=1\n0 0\n0.1 0.1\n\n"
                    "SEG n=1\n0.5 0.5\n0.6 0.6\n")
    with pytest.raises(ValueError):
        read_pseudo_orbit(path)


def test_solve_shadow_length_cap(cat):
    big = np.zeros((1_000_002, 2))
    po = PseudoOrbit(segments=(big,), periodic=False, delta=0.5)
    with pytest.raises(ValueError):
        solve_shadow(cat, po)


def test_divergence_reports_diagnostics(p24):
    rng = np.random.default_rng(0)
    po = make_pseudo_orbit(p24, [rng.random(3) for _ in range(3)],
                           [6, 6, 6], periodic=True)
    with pytest.raises(ConvergenceError) as err:
        solve_shadow(p24, po, max_iter=1)
    info = err.value.result
    assert info["iterations"] == 1
    assert len(info["residual_history"]) >= 1


def test_estimate_shadowing_constant(cat):
    sc = estimate_shadowing_constant(cat, [1e-6, 5e-7, 1e-7], trials=5,
                                     length_range=(4, 9), seed=11)
    assert sc.d0_hat == 1e-6
    assert 0.4 <= sc.L_hat <= 1.0
    ratios = [row["max_ratio"] for row in sc.per_delta]
    # linear response: halving delta moves the ratio by well under 10%
    for a, b in zip(ratios, ratios[1:]):
        assert b <= a * 1.1
    assert all(row["converged"] == 5 for row in sc.per_delta)
    with pytest.raises(ValueError):
        estimate_shadowing_constant(cat, [1e-7, 1e-6], trials=2,
                                    length_range=(4, 9))


def test_density_probe_rational_sample(cat):
    sample = [np.array([i / 7, j / 7]) for i in range(1, 4) for j in range(1, 3)]
    frac, rep = periodic_density_probe(cat, sample, n_max=60, epsilon=1e-2,
                                       return_report=True)
    assert frac == 1.0
    assert rep["attempted"] + rep["skipped"] == len(sample)


def test_density_probe_skip_semantics(cat):
    sample = [np.array([i / 7, j / 7]) for i in range(1, 4) for j in range(1, 3)]
    frac, rep = periodic_density_probe(cat, sample, n_max=60, epsilon=1e-2,
                                       domain=lambda x: x[0] < 0.3,
                                       return_report=True)
    assert rep["skipped"] == sum(1 for x in sample if x[0] >= 0.3)
    assert frac == 1.0  # skipped points leave the denominator
    with pytest.raises(ValueError):
        periodic_density_probe(cat, [], n_max=10, epsilon=1e-2)
    with pytest.raises(ValueError):
        periodic_density_probe(cat, sample, n_max=0, epsilon=1e-2)


def test_shadow_result_serialization(cat):
    res = close_orbit(cat, np.array([0.31, 0.57]), 9)
    d = res.to_dict()
    assert d["periodic"] is True and d["period"] == 9
    assert len(d["points"]) == 9
    assert np.array_equal(res.z, res.points[0])
