"""Pseudo-orbits, Newton shadowing, closing, and probe utilities."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pesinlab import systems as dyn
from pesinlab.errors import ConvergenceError, PseudoOrbitFormatError
from pesinlab.shadow import (
    PseudoOrbit,
    _newton_step,
    _normal_band,
    _residual,
    close_orbit,
    estimate_shadowing_constant,
    make_pseudo_orbit,
    periodic_density_probe,
    read_pseudo_orbit,
    solve_shadow,
    verify_shadowing,
    write_pseudo_orbit,
)
from pesinlab.specmeas import EmpiricalMeasure, TransitionTable, build_cover, glue_segments


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


def _dense_matrix(jac, n_points):
    """Dense linearized orbit equation: block row j holds -jac[j] in column j
    and I in column (j + 1) mod n_points (both in column 0 when it is 1)."""
    p, d = jac.shape[:2]
    J = np.zeros((d * p, d * n_points))
    for j in range(p):
        k = (j + 1) % n_points
        J[d * j:d * j + d, d * j:d * j + d] -= jac[j]
        J[d * j:d * j + d, d * k:d * k + d] += np.eye(d)
    return J


def _dense_newton_step(system, pseudo):
    """One Newton step on the chain, dense algebra: square solve for a
    cycle, minimum norm for an open chain."""
    z = _chain_rows(pseudo)
    p = pseudo.total_length
    J = _dense_matrix(system.jacobian_many(z[:p]), len(z))
    nxt = [(j + 1) % len(z) for j in range(p)]
    r = dyn.torus_diff(z[nxt], system.step_many(z[:p])).ravel()
    if pseudo.periodic:
        delta = np.linalg.solve(J, -r)
    else:
        delta = J.T @ np.linalg.solve(J @ J.T, -r)
    return dyn.wrap(z + delta.reshape(z.shape))


def test_open_window_min_norm_oracle():
    rng = np.random.default_rng(23)
    for system in map(dyn.make_system, ["cat", "product24", "circle-g"]):
        for _ in range(3):
            x0 = rng.random(system.dim)
            end = dyn.orbit_points(system, x0, 7)[-1]
            x1 = dyn.wrap(end + 1e-6 * rng.standard_normal(system.dim))
            po = make_pseudo_orbit(system, [x0, x1], [7, 6], periodic=False)
            res = solve_shadow(system, po)
            assert res.iterations >= 1
            oracle = _dense_newton_step(system, po)
            assert float(np.max(dyn.torus_distance(res.points, oracle))) < 1e-10


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(["cat", "p24", "random"]), p=st.integers(1, 40),
       d=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1), periodic=st.booleans())
@example(name="random", p=1, d=1, seed=0, periodic=False)  # a 1 x 1 system
@example(name="random", p=1, d=2, seed=1, periodic=True)  # wrap blocks on the diagonal
@example(name="random", p=2, d=2, seed=2, periodic=True)  # and above it
def test_normal_band_dense_oracle(cat, p24, name, p, d, seed, periodic):
    # the band read back as a matrix is the open window's L L^T, and every
    # entry outside the upper band, including the unread corner, is zero;
    # the random Jacobians expand, as the built-in ones do, but are not
    # symmetric
    rng = np.random.default_rng(seed)
    if name == "random":
        jac = 4.0 * np.eye(d) + rng.uniform(-1.0, 1.0, size=(p, d, d))
    else:
        system = cat if name == "cat" else p24
        jac, d = system.jacobian_many(rng.random((p, system.dim))), system.dim
    L = _dense_matrix(jac, p + 1)
    n, u = p * d, 2 * d - 1
    want = np.zeros((u + 1, n))
    for k in range(n):
        for i in range(max(0, k - u), k + 1):
            want[u + i - k, k] = L[i] @ L[k]
    band = _normal_band(jac)
    assert band.shape == want.shape
    # entries are at most 76 in size; the two sums may round differently
    np.testing.assert_allclose(band, want, rtol=1e-15, atol=1e-13)
    # and the step is the dense solution of L delta = rhs, square for a
    # cycle and minimum-norm for an open window, to the accuracy the
    # conditioning of L L^T allows (product24's fiber is near-neutral, so
    # its condition number reaches ~1e7 at p = 40)
    rhs = rng.standard_normal(n)
    if periodic:
        L = _dense_matrix(jac, p)
        step = np.linalg.solve(L, rhs)
    else:
        step = L.T @ np.linalg.solve(L @ L.T, rhs)
    got = _newton_step(jac, rhs, periodic).ravel()
    bound = 16 * np.finfo(float).eps * np.linalg.cond(L @ L.T)
    assert np.abs(got - step).max() <= bound * np.abs(step).max()


def _newton_matrix(system, z, nxt):
    """Sparse linearized orbit equation at z: block row j holds -Df(z_j) in
    column j and I in column nxt[j] (both in column 0 for a 1-point cycle)."""
    from scipy import sparse

    p, d = len(nxt), z.shape[1]
    data = np.empty((p, 2, d, d))
    data[:, 0] = -system.jacobian_many(z[:p])
    data[:, 1] = np.eye(d)
    indices = np.column_stack([np.arange(p), nxt]).astype(np.int32).ravel()
    indptr = np.arange(0, 2 * p + 1, 2, dtype=np.int32)
    return sparse.bsr_matrix((data.reshape(2 * p, d, d), indices, indptr),
                             shape=(p * d, len(z) * d)).tocsr()


def _spsolve_step(system, z, nxt, rhs):
    """Newton step through a sparse LU: of the square L for a cycle, of
    L L^T for the minimum-norm open-window step.  The oracle for the
    banded Cholesky step."""
    from scipy.sparse.linalg import spsolve

    mat = _newton_matrix(system, z, nxt)
    if len(nxt) == len(z):
        return spsolve(mat.tocsc(), rhs).reshape(z.shape)
    return (mat.T @ spsolve((mat @ mat.T).tocsc(), rhs)).reshape(z.shape)


@pytest.mark.parametrize("name", ["cat", "product24"])
def test_min_norm_step_matches_spsolve(name):
    # 200 random windows of each kind: 2-5 segments of length 1-199 joined
    # by jumps of 1e-7, with the endpoint of an open window moved as far (a
    # cycle's wrap seam is as wide as the random starts make it), plus one-
    # and two-step windows, where the band is wider than the matrix and a
    # cycle's wrap blocks land on or beside the diagonal.
    # The normal equations solve a cycle to cond(L)^2 eps, not cond(L) eps
    # as the LU does: product24's fiber can be near-neutral, and its worst
    # cycle here (p = 1, cond(L) = 545) differs by 2.2e-11, 0.34 cond(L)^2
    # eps; the cat map's cycles are uniformly hyperbolic.
    bounds = {False: 1e-15, True: {"cat": 2e-15, "product24": 5e-11}[name]}
    system = dyn.make_system(name)
    rng = np.random.default_rng(7)
    for periodic in (False, True):
        windows = [[1], [2], [1, 1]] + [
            list(rng.integers(1, 200, size=rng.integers(2, 6))) for _ in range(200)]
        worst = 0.0
        for lengths in windows:
            x, segs = rng.random(system.dim), []
            for n in lengths:
                segs.append(dyn.orbit_points(system, x, int(n)))
                x = dyn.wrap(segs[-1][-1] + 1e-7 * rng.standard_normal(system.dim))
            z = _chain_rows(PseudoOrbit(segments=tuple(segs), periodic=periodic))
            if not periodic:
                z[-1] = x
            p = sum(lengths)
            nxt = np.arange(1, p + 1) % len(z)
            rhs = -_residual(system, z, nxt).ravel()
            got = _newton_step(system.jacobian_many(z[:p]), rhs, periodic)
            want = _spsolve_step(system, z, nxt, rhs)
            assert np.abs(want).max() > 0.0
            worst = max(worst, float(np.abs(got - want).max() / np.abs(want).max()))
        assert worst <= bounds[periodic], (periodic, worst)


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


class _StubCat:
    """Cat map steps beside a chosen Jacobian; ``nan_step`` spoils the steps."""

    dim = 2

    def __init__(self, jacobian, nan_step=False):
        self.jacobian = np.asarray(jacobian, dtype=float)
        self.nan_step = nan_step

    def step_many(self, pts):
        out = dyn.make_system("cat").step_many(pts)
        return np.full_like(out, np.nan) if self.nan_step else out

    def jacobian_many(self, pts):
        return np.broadcast_to(self.jacobian, pts.shape[:-1] + (2, 2)).copy()


def _jumped_chain(periodic):
    cat = dyn.make_system("cat")
    x0 = np.array([0.3, 0.6])
    x1 = dyn.wrap(dyn.orbit_points(cat, x0, 5)[-1] + 1e-8)
    return make_pseudo_orbit(cat, [x0, x1], [5, 5], periodic=periodic)


@pytest.mark.parametrize("periodic", [False, True])
def test_non_finite_residual_fails_fast(periodic):
    po = _jumped_chain(periodic)
    with pytest.raises(ConvergenceError, match="non-finite Newton residual at iteration 0"):
        solve_shadow(_StubCat([[2.0, 1.0], [1.0, 1.0]], nan_step=True), po)
    # a NaN Jacobian spoils the first correction, so the next residual is NaN
    with pytest.raises(ConvergenceError, match="iteration 1") as err:
        solve_shadow(_StubCat([[np.nan, 1.0], [1.0, 1.0]]), po)
    history = err.value.result["residual_history"]
    assert err.value.result["iterations"] == 1
    assert len(history) == 2 and np.isfinite(history[0]) and np.isnan(history[1])


@pytest.mark.parametrize("periodic", [False, True])
def test_failed_band_factorization_is_convergence_error(periodic):
    # A = [[2^30, 0], [2^30, 0]]: A A^T + I rounds to the singular
    # 2^60 [[1, 1], [1, 1]], so the Cholesky factorization stops; a cycle
    # factors the same band before its wrap term is folded in
    with pytest.raises(ConvergenceError, match="Newton step failed at iteration 0") as err:
        solve_shadow(_StubCat([[2.0 ** 30, 0.0], [2.0 ** 30, 0.0]]), _jumped_chain(periodic))
    assert isinstance(err.value.__cause__, np.linalg.LinAlgError)
    assert err.value.result["iterations"] == 0
    assert len(err.value.result["residual_history"]) == 1


def test_stalled_newton_fails_fast():
    # f(x) = x + 1/2 with a Jacobian of 0: each step swaps the two seam
    # defects of the period-2 chain, so the residual stays at 1e-3 and the
    # solve stops once two steps have not halved it
    system = dyn.make_system({"kind": "composite", "dim": 1,
                              "map": ["(x0 + 0.5) % 1.0"], "jacobian": [["0"]]})
    po = make_pseudo_orbit(system, [[0.1], [0.601]], [1, 1], periodic=True)
    with pytest.raises(ConvergenceError, match="stalled at iteration 2") as err:
        solve_shadow(system, po)
    assert err.value.result["iterations"] == 2
    np.testing.assert_allclose(err.value.result["residual_history"], [1e-3] * 3, rtol=1e-9)


def _glue_pieces(cat):
    """A one-ball cover, a table with one transit and the plan gluing the
    fixed point 0 to itself."""
    cover = build_cover([[0.0, 0.0]], 0.2)
    table = TransitionTable(X=np.array([[3]]), witnesses=np.zeros((1, 1, 2)),
                            min_n=2, horizon=10, budget=1, seed=0)
    return cover, table, glue_segments(cat, [(np.zeros(2), 5)], cover, table)


def test_array_holding_dataclasses_compare_by_identity(cat):
    # equal-content instances compare unequal instead of raising on their arrays
    po, twin = _jumped_chain(False), _jumped_chain(False)
    res, res_twin = solve_shadow(cat, po), solve_shadow(cat, twin)
    split, split_twin = dyn.reference_splitting(cat), dyn.reference_splitting(cat)
    measure, measure_twin = (EmpiricalMeasure(points=np.zeros((3, 2))) for _ in range(2))
    pairs = [(po, twin), (res, res_twin), (split, split_twin), (measure, measure_twin)]
    pairs += zip(_glue_pieces(cat), _glue_pieces(cat))  # cover, table, plan
    for a, b in pairs:
        assert a == a and a != b
        assert len({a, b}) == 2


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
