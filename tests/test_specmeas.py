"""Covers, transition tables, orbit gluing, and weak-* measure distance."""

import dataclasses
import itertools
import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pesinlab import specmeas
from pesinlab import systems as dyn
from pesinlab.errors import DimensionMismatchError, UnresolvedTransitionError
from pesinlab.shadow import close_orbit
from pesinlab.specmeas import (
    Cover,
    EmpiricalMeasure,
    TransitionTable,
    approximate_invariant_measure,
    build_cover,
    glue_segments,
    measure_curve,
    specification_shadow,
    transition_times,
    weak_star_distance,
)


def _grid_points(n):
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.column_stack([i.ravel(), j.ravel()]) / n


def test_build_cover_basics():
    cov = build_cover([[0.3, 0.4]], 0.1)
    assert cov.size == 1 and cov.radii[0] == 0.05
    dup = build_cover([[0.3, 0.4]] * 7 + [[0.9, 0.9]], 0.1)
    assert dup.size == 2
    with pytest.raises(ValueError):
        build_cover(np.zeros((0, 2)), 0.1)
    with pytest.raises(ValueError):
        build_cover([[0.0, 0.0]], 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_build_cover_rejects_non_finite_samples(bad):
    # a NaN sample is within no ball; unchecked, the greedy loop never ends
    with pytest.raises(ValueError, match="finite"):
        build_cover([[bad, 0.1], [0.2, 0.3]], 0.1)


def test_cover_validation():
    with pytest.raises(ValueError):
        Cover(centers=[[0.0, 0.0]], radii=[0.2], mesh=0.1)  # radius > mesh/2
    # an infinite mesh used to pass, and build_cover made one ball of it
    with pytest.raises(ValueError, match="mesh must be finite and positive"):
        Cover(centers=[[0.0, 0.0]], radii=[0.2], mesh=np.inf)
    with pytest.raises(ValueError, match="delta must be finite and positive"):
        build_cover([[0.0, 0.0], [0.5, 0.5]], np.inf)
    with pytest.raises(ValueError):
        Cover(centers=[[0.0, 0.0]], radii=[0.0], mesh=0.1)
    with pytest.raises(ValueError):
        Cover(centers=[[0.0, 0.0], [0.5, 0.5]], radii=[0.05], mesh=0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_cover_rejects_non_finite_centers_and_radii(bad):
    # a NaN center would build its grid cell from an invalid integer cast
    with pytest.raises(ValueError, match="centers must be finite"):
        Cover(centers=[[bad, 0.1], [0.5, 0.5]], radii=[0.05, 0.05], mesh=0.1)
    with pytest.raises(ValueError, match="radii"):
        Cover(centers=[[0.1, 0.1], [0.5, 0.5]], radii=[0.05, bad], mesh=0.1)


def test_cover_covers_its_samples_and_locate():
    pts = _grid_points(40)
    cov = build_cover(pts, 0.1)
    labels = cov.locate(pts)
    assert np.all(labels >= 0)
    # locate picks the first ball among all memberships
    t_mem, b_mem = cov.members(pts)
    first = {}
    for t, b in zip(t_mem, b_mem):
        first.setdefault(int(t), int(b))
    assert all(first[int(t)] == int(l) for t, l in enumerate(labels))
    # a point farther than every radius from every center is unlocated
    lonely = build_cover([[0.0, 0.0]], 0.1)
    assert lonely.locate([[0.5, 0.5]])[0] == -1


def _dense_members(centers, radii, pts):
    diff = dyn.torus_diff(pts[:, None, :], centers[None, :, :])
    return np.nonzero(np.linalg.norm(diff, axis=-1) < radii)


def _dense_cover_centers(samples, delta):
    pts = dyn.wrap(samples)
    centers = []
    uncovered = np.ones(len(pts), dtype=bool)
    while uncovered.any():
        c = pts[int(np.argmax(uncovered))]
        centers.append(c)
        idx = np.flatnonzero(uncovered)
        near = np.linalg.norm(dyn.torus_diff(pts[idx], c), axis=-1) < delta / 2.0
        uncovered[idx[near]] = False
    return np.array(centers)


_coord = st.one_of(st.floats(-0.3, 1.3, allow_nan=False),
                   st.sampled_from([0.0, 1.0, -0.2, 0.5, float(np.nextafter(1.0, 0.0))]))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cover_grid_matches_dense_scan(data):
    d = data.draw(st.integers(1, 3))
    mesh = data.draw(st.one_of(st.floats(0.04, 1.5), st.sampled_from([2 / 3, 0.7, 1.2])))
    m = data.draw(st.integers(1, 25))
    centers = np.array(data.draw(st.lists(st.lists(_coord, min_size=d, max_size=d),
                                          min_size=m, max_size=m)))
    fracs = data.draw(st.lists(st.one_of(st.floats(0.05, 1.0), st.just(1.0)),
                               min_size=m, max_size=m))
    radii = np.array(fracs) * mesh / 2.0
    cover = Cover(centers=centers, radii=radii, mesh=mesh)

    # cell edges k/n of the index, ball boundaries, then arbitrary points
    n = max(1, int(1.0 / (radii.max() * (1.0 + 1e-9))))
    edges = np.arange(n + 1) / n
    special = [np.resize(np.roll(edges, a), d) for a in range(n + 1)]
    special += [centers[i] + radii[i] * np.eye(d)[0] for i in range(m)]
    special += [np.full(d, np.nextafter(1.0, 0.0))]
    pts = np.vstack(special + data.draw(st.lists(
        st.lists(_coord, min_size=d, max_size=d), max_size=40)))

    t, b = cover.members(pts)
    t_ref, b_ref = _dense_members(cover.centers, cover.radii, pts)
    assert np.array_equal(t, t_ref) and np.array_equal(b, b_ref)
    first = np.full(len(pts), -1)
    for tt, bb in zip(t_ref[::-1], b_ref[::-1]):
        first[tt] = bb
    assert np.array_equal(cover.locate(pts), first)

    built = build_cover(pts, mesh)
    assert np.array_equal(built.centers, _dense_cover_centers(pts, mesh))


def test_cover_grid_radius_just_above_a_cell_width():
    # 1/r lies just below 5, so the index needs 4 cells per axis: with 5,
    # the point at 0.4 would sit two cells from the center yet inside r
    r = 0.2 * (1.0 + 5e-10)
    cover = Cover(centers=[[0.19999999999]], radii=[r], mesh=2.0 * r)
    pts = np.array([[0.4], [0.0], [0.6]])
    assert np.array_equal(cover.locate(pts), [0, 0, -1])
    assert build_cover(pts[::-1], 2.0 * r).size == 2


def _expanded_candidates(items, queries, n):
    """Pairs of the per-query 3^d expansion: each query's cell plus every
    offset in product((0, 1, -1)) mod n, then that cell's items ascending."""
    d = items.shape[1]
    strides = n ** np.arange(d - 1, -1, -1)
    offsets = list(itertools.product(np.unique(np.array([-1, 0, 1]) % n), repeat=d))
    item_keys = np.floor(dyn.wrap(items) * n).astype(np.int64) @ strides
    pairs = []
    for q, cell in enumerate(np.floor(dyn.wrap(queries) * n).astype(np.int64)):
        for offset in offsets:
            key = ((cell + offset) % n) @ strides
            pairs += [(q, int(it)) for it in np.flatnonzero(item_keys == key)]
    return pairs


@pytest.mark.parametrize("radius, n", [(0.6, 1), (0.4, 2), (0.3, 3), (0.07, 14)])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_grid_candidates_match_per_query_expansion(d, radius, n):
    rng = np.random.default_rng([d, n])
    items = rng.random((40, d)) * 1.4 - 0.2
    items[:5] = np.arange(5)[:, None] / n            # on cell edges
    items[5:10] = items[10:15]                        # duplicates
    queries = np.vstack([rng.random((30, d)) * 1.4 - 0.2, items[:5], [[0.0] * d]])
    grid = specmeas._Grid(items, radius)
    assert grid.n == n
    q, it = grid.candidates(queries)
    pairs = list(zip(q.tolist(), it.tolist()))
    assert pairs == _expanded_candidates(items, queries, n)
    # with n <= 2 the offsets repeat cells mod n; each pair still comes once
    assert len(set(pairs)) == len(pairs)
    empty = grid.candidates(np.zeros((0, d)))
    assert empty[0].size == 0 and empty[1].size == 0


@pytest.mark.parametrize("empty", [[], [[]], np.zeros((0, 2)), np.zeros((3, 0))])
def test_no_points_is_bad_input(empty):
    # np.atleast_2d([]) is one row of no coordinates: build_cover divided by
    # the dimension 0, and a measure took it for one point of dimension 0
    with pytest.raises(ValueError, match="samples must be nonempty"):
        build_cover(empty, 0.1)
    with pytest.raises(ValueError, match="measure needs at least one support point"):
        EmpiricalMeasure(points=empty)
    with pytest.raises(ValueError, match="matching nonempty centers and radii"):
        Cover(centers=empty, radii=[0.05] * len(empty), mesh=0.1)


def test_cover_members_and_locate_of_no_points():
    # a list of no points is zero points of the cover's dimension, not the
    # one point of no coordinates that np.atleast_2d([]) makes of it
    cover = build_cover(np.random.default_rng(1).random((50, 2)), 0.2)
    for empty in (np.zeros((0, 2)), [], (), np.zeros(0)):
        t, b = cover.members(empty)
        assert t.shape == b.shape == (0,)
        located = cover.locate(empty)
        assert located.shape == (0,) and located.dtype == np.int64


def test_cover_lookups_of_a_point_without_coordinates_are_dimension_errors():
    cover = build_cover(np.random.default_rng(1).random((50, 2)), 0.2)
    for lookup in (cover.members, cover.locate):
        with pytest.raises(DimensionMismatchError, match=r"points of shape \(1, 0\)"):
            lookup([[]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cover_members_and_locate_reject_non_finite_points(bad):
    cover = build_cover(np.random.default_rng(1).random((50, 2)), 0.2)
    pts = np.array([[0.1, 0.2], [bad, 0.3]])
    with pytest.raises(ValueError, match="points must be finite"):
        cover.members(pts)
    with pytest.raises(ValueError, match="points must be finite"):
        cover.locate(pts)


@pytest.mark.parametrize("shape", [(4, 3), (4, 1), (2, 4, 2)])
def test_cover_members_and_locate_reject_other_dimensions(shape):
    cover = build_cover(np.random.default_rng(1).random((50, 2)), 0.2)
    pts = np.full(shape, 0.25)
    message = re.escape(f"points of shape {shape} for a cover of dimension 2")
    with pytest.raises(DimensionMismatchError, match=message):
        cover.members(pts)
    with pytest.raises(DimensionMismatchError, match=message):
        cover.locate(pts)


def _cover_samples(case):
    """Several hundred to a few thousand samples, so greedy batches end at
    many places."""
    rng = np.random.default_rng(5)
    if case == "sparse":          # few samples a cell: one run a batch
        return rng.random((2000, 2)), 0.05
    if case == "dense":           # every sample a candidate of every center
        return rng.random((3000, 2)), 0.5
    if case == "lattice-below":   # spacing 1/60 < radius: few centers
        return _grid_points(60)[rng.permutation(3600)], 0.1
    if case == "lattice-above":   # spacing 1/25 > radius: each sample a center
        return _grid_points(25), 0.05
    if case == "cell-edges":      # coordinates k/(3n), on the edges k/n too
        n = int(1.0 / (0.1 * (1.0 + 1e-9)))   # the grid's cells per axis
        return _grid_points(3 * n)[rng.permutation(9 * n * n)], 0.2
    if case == "duplicates":      # each sample up to five times, shuffled
        pts = rng.random((300, 2))
        return rng.permutation(np.repeat(pts, rng.integers(1, 6, 300), axis=0)), 0.1
    if case == "radius-just-above-width":   # 1/r just below 5: four cells
        r = 0.2 * (1.0 + 5e-10)
        return np.concatenate([rng.random((600, 1)), np.arange(20)[:, None] / 4]), 2 * r
    if case == "3d":
        return rng.random((1500, 3)) * 1.4 - 0.2, 0.3
    raise ValueError(case)


_COVER_CASES = ["sparse", "dense", "lattice-below", "lattice-above", "cell-edges",
                "duplicates", "radius-just-above-width", "3d"]


@pytest.mark.parametrize("batch, run_pairs", [(None, None), (1, 1), (3, 7), (200, 50)])
@pytest.mark.parametrize("case", _COVER_CASES)
def test_cover_across_batches_matches_dense_scan(case, batch, run_pairs):
    pts, mesh = _cover_samples(case)
    sizes = {"_BATCH": batch or specmeas._BATCH,
             "_RUN_PAIRS": run_pairs or specmeas._RUN_PAIRS}
    with mock.patch.multiple(specmeas, **sizes):
        cover = build_cover(pts, mesh)
    expected = _dense_cover_centers(pts, mesh)
    assert np.array_equal(cover.centers, expected)
    assert len(expected) > 1


def _brute_transits(system, cover, min_n, horizon, budget, seed):
    """Least transit per ball pair by scanning every start time of every orbit."""
    m, d = cover.size, cover.centers.shape[1]
    X = np.full((m, m), -1)
    W = np.full((m, m, d), np.nan)
    for k in range(budget):
        x = np.random.default_rng([seed, k]).random(system.dim)
        orbit = dyn.orbit_points(system, x, horizon)
        inside = np.zeros((horizon + 1, m), dtype=bool)
        inside[_dense_members(cover.centers, cover.radii, orbit)] = True
        for i in range(m):
            for j in range(m):
                for t in range(horizon - min_n + 1):
                    if not inside[t, j]:
                        continue
                    hits = np.flatnonzero(inside[t + min_n:, i])
                    if hits.size and (X[i, j] < 0 or hits[0] + min_n < X[i, j]):
                        X[i, j] = hits[0] + min_n
                        W[i, j] = orbit[t]
    return X, W


# A dyadic rotation is exact in floats, so equal transits recur at many
# start times and in every orbit: the earliest orbit and start must win.
_ROTATION = dyn.make_system({"kind": "composite", "dim": 1,
                             "map": ["(x0 + 0.125) % 1.0"], "jacobian": [["1.0"]]})


def test_transition_sweep_matches_brute_force(cat):
    cases = [
        (_ROTATION, Cover(centers=[[0.05], [0.3], [0.55], [0.61], [1.0]],
                    radii=[0.06, 0.08, 0.04, 0.05, 0.02], mesh=0.2), 3, 60, 3, 4),
        (cat, build_cover(np.random.default_rng(8).random((60, 2)), 0.3), 3, 120, 3, 11),
        (cat, build_cover([[0.0, 0.0], [0.5, 0.5]], 0.2), 2, 200, 3, 1),
    ]
    for system, cover, min_n, horizon, budget, seed in cases:
        table = transition_times(system, cover, min_n, horizon, budget, seed=seed)
        X, W = _brute_transits(system, cover, min_n, horizon, budget, seed)
        assert np.array_equal(table.X, X)
        assert np.array_equal(table.witnesses, W, equal_nan=True)
        assert (X >= 0).any()


def _check_blocked_table(system, cover, min_n, horizon, budget, seed, rows):
    """transition_times with blocks of ``rows`` source times equals brute force."""
    with mock.patch.object(specmeas, "_BLOCK_ENTRIES", rows * cover.size):
        table = transition_times(system, cover, min_n, horizon, budget, seed=seed)
    X, W = _brute_transits(system, cover, min_n, horizon, budget, seed)
    assert np.array_equal(table.X, X)
    assert np.array_equal(table.witnesses, W, equal_nan=True)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_transition_blocks_match_brute_force(cat, data):
    d = data.draw(st.sampled_from([1, 2]))
    system = _ROTATION if d == 1 else cat
    mesh = data.draw(st.floats(0.05, 0.6))
    m = data.draw(st.integers(1, 6))
    centers = data.draw(st.lists(st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d),
                                 min_size=m, max_size=m))
    fracs = data.draw(st.lists(st.floats(0.1, 1.0), min_size=m, max_size=m))
    cover = Cover(centers=centers, radii=np.array(fracs) * mesh / 2.0, mesh=mesh)
    min_n = data.draw(st.integers(1, 8))
    horizon = min_n + data.draw(st.one_of(st.just(0), st.integers(0, 40)))
    budget = data.draw(st.integers(1, 3))
    seed = data.draw(st.integers(0, 2 ** 16))
    # 4, 5, 8, 9, 16, 17: chunk tails and boundaries of the running minimum
    rows = data.draw(st.sampled_from([1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 10 ** 6]))
    _check_blocked_table(system, cover, min_n, horizon, budget, seed, rows)


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_transition_blocks_edge_cases(cat, rows):
    # a ball first visited after the first block, so its later transits
    # need the carried row; a block with no hits; min_n = horizon
    cover = Cover(centers=[[0.05], [0.3]], radii=[0.04, 0.04], mesh=0.1)
    orbit = dyn.orbit_points(_ROTATION, np.random.default_rng([4, 0]).random(1), 40)
    t_mem, b_mem = cover.members(orbit)
    assert t_mem[b_mem == 1].min() >= rows
    starts = np.arange(0, 40 - 3 + 1, rows) + 3
    assert (np.searchsorted(t_mem, starts) == np.searchsorted(t_mem, starts + rows)).any()
    _check_blocked_table(_ROTATION, cover, 3, 40, 2, 4, rows)
    sampled = build_cover(np.random.default_rng(8).random((60, 2)), 0.3)
    _check_blocked_table(cat, sampled, 5, 5, 3, 11, rows)
    _check_blocked_table(cat, sampled, 7, 30, 3, 11, rows)


@pytest.mark.parametrize("horizon, dtype", [(32_767, np.int32), (32_768, np.int64)])
def test_transit_keys_at_the_int32_bound(horizon, dtype):
    # The largest key, 2 h^2 + 4 h + 1, is 2^31 - 1 at h = 32,767.  Ball 1
    # is never visited, so every hit of ball 0 at a time near h forms that
    # largest candidate from ball 1; wrapped around, it would turn X[0, 1]
    # from -1 into a transit.
    x0 = np.random.default_rng([3, 0]).random(1)[0]
    cover = Cover(centers=[[x0 + 0.25], [x0 + 0.0625]], radii=[0.01, 0.01], mesh=0.02)
    table = transition_times(_ROTATION, cover, 5, horizon, 1, seed=3)
    X, W = _brute_transits(_ROTATION, cover, 5, horizon, 1, 3)
    assert np.array_equal(table.X, X) and X[0, 0] == 8 and X[0, 1] == -1
    assert np.array_equal(table.witnesses, W, equal_nan=True)
    orbit = dyn.orbit_points(_ROTATION, np.array([x0]), horizon)
    keys = specmeas._least_transit_keys(*cover.members(orbit), 2, 5, horizon)
    assert keys.dtype == dtype and keys.min() >= 0


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_running_min_matches_accumulate(data):
    rows, m = data.draw(st.integers(1, 300)), data.draw(st.integers(1, 60))
    dtype = data.draw(st.sampled_from([np.int32, np.int64]))
    chunk = data.draw(st.sampled_from([1, 2, 5, specmeas._SCAN_ROWS]))
    info = np.iinfo(dtype)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    L = rng.integers(info.min, info.max, (rows, m), dtype=dtype, endpoint=True)
    # sentinels at both extremes, over whole rows, columns and at random
    L[rng.random((rows, m)) < data.draw(st.floats(0.0, 1.0))] = info.max
    L[rng.random((rows, m)) < data.draw(st.floats(0.0, 0.1))] = info.min
    L[rng.integers(0, rows)] = info.max
    L[:, rng.integers(0, m)] = info.max
    expected = np.minimum.accumulate(L, axis=0)
    with mock.patch.object(specmeas, "_SCAN_ROWS", chunk):
        specmeas._running_min(L)
    assert L.dtype == dtype and np.array_equal(L, expected)


def test_transition_times_rejects_another_dimension(p24):
    cover = build_cover(np.random.default_rng(1).random((50, 2)), 0.2)
    with pytest.raises(DimensionMismatchError, match="system of dimension 3 .*dimension 2"):
        transition_times(p24, cover, 2, 50, 1)


def test_glue_rejects_another_dimension(cat, p24):
    cover = build_cover(np.random.default_rng(1).random((50, 2)), 0.2)
    table = transition_times(cat, cover, 2, 100, 1)
    with pytest.raises(DimensionMismatchError, match="system of dimension 3 .*dimension 2"):
        glue_segments(p24, [(np.array([0.1, 0.2, 0.3]), 5)], cover, table)


def test_fixed_point_self_transit(cat):
    cov = build_cover([[0.0, 0.0]], 0.2)
    table = transition_times(cat, cov, 2, 10000, 3, seed=1)
    # near the fixed point the least return >= min_n is min_n itself
    assert table.X[0, 0] == 2
    assert np.all(np.isfinite(table.witnesses[0, 0]))


def test_transition_table_resolved_and_refinement(cat):
    rng = np.random.default_rng(3)
    cov = build_cover(rng.random((2000, 2)), 0.25)
    t2 = transition_times(cat, cov, 4, 10000, 2, seed=7)
    assert t2.resolved.all()
    assert t2.X1 >= 4 and t2.X2 >= t2.X1
    # budget growth only refines; this configuration is already saturated
    t4 = transition_times(cat, cov, 4, 10000, 4, seed=7)
    assert np.array_equal(t2.X, t4.X)
    assert np.array_equal(t2.witnesses, t4.witnesses, equal_nan=True)


def test_transition_times_validation(cat):
    cov = build_cover([[0.0, 0.0]], 0.2)
    with pytest.raises(ValueError):
        transition_times(cat, cov, 0, 10, 1)
    with pytest.raises(ValueError):
        transition_times(cat, cov, 5, 4, 1)
    with pytest.raises(ValueError):
        transition_times(cat, cov, 2, 10, 0)


def test_glue_unresolved_transit_raises(cat):
    cov = build_cover([[0.0, 0.0]], 0.2)
    empty = TransitionTable(X=np.array([[-1]]), witnesses=np.full((1, 1, 2), np.nan))
    with pytest.raises(UnresolvedTransitionError):
        glue_segments(cat, [(np.array([0.0, 0.0]), 5)], cov, empty)
    with pytest.raises(ValueError):
        empty.X1  # nothing resolved


def test_glue_and_specification_shadow(cat):
    rng = np.random.default_rng(3)
    cov = build_cover(rng.random((2000, 2)), 0.25)
    table = transition_times(cat, cov, 4, 10000, 2, seed=7)
    segs = [(rng.random(2), 20), (rng.random(2), 25)]
    plan = glue_segments(cat, segs, cov, table)
    rec = plan.to_dict()
    transits = [c["transit"] for c in rec["connectors"]]
    assert len(transits) == 2 and rec["period"] == 45 + sum(transits)
    assert 45 + 2 * table.X1 <= rec["period"] <= 45 + 2 * table.X2
    assert rec["c_times"][-1] == rec["period"] == plan.pseudo.total_length
    assert plan.pseudo.periodic and plan.pseudo.delta == cov.mesh
    assert max(plan.pseudo.gaps) < cov.mesh
    res = specification_shadow(cat, plan)
    assert res.period == rec["period"] and res.residual < 1e-12


@pytest.mark.parametrize("name, mesh, lengths", [
    ("cat", 0.25, [20, 25]),
    ("cat", 0.2, [1, 7, 30]),
    ("cat", 0.3, [12]),
    ("product24", 0.5, [10, 15, 5]),
    ("product24", 0.3, [40, 3]),
])
def test_glue_plan_record_reads_its_chain(name, mesh, lengths):
    # a plan is its pseudo-orbit: segment i, then the connector from its end
    # ball to the next segment's start ball, found with one locate call
    system = dyn.make_system(name)
    # segments and cover from one orbit past its first 300 steps, a region
    # product24's sample orbits keep returning to
    rng = np.random.default_rng([len(lengths), 5])
    orbit = dyn.orbit_points(system, rng.random(system.dim), 3000)
    segs = [(orbit[500 + 400 * k], n) for k, n in enumerate(lengths)]
    cov = build_cover(orbit[300:], mesh)
    table = transition_times(system, cov, 2, 3000, 2, seed=1)
    with mock.patch.object(Cover, "locate", autospec=True, side_effect=Cover.locate) as locate:
        plan = glue_segments(system, segs, cov, table)
    assert locate.call_count == 1
    assert [f.name for f in dataclasses.fields(plan)] == ["pseudo"]
    rec, chain = plan.to_dict(), plan.pseudo.segments
    assert len(chain) == 2 * len(segs) and plan.pseudo.periodic
    assert rec["delta"] == plan.pseudo.delta == mesh
    assert rec["c_times"][-1] == rec["period"] == plan.pseudo.total_length
    assert rec["c_times"] == np.cumsum([s["n"] + c["transit"] for s, c in
                                        zip(rec["segments"], rec["connectors"])]).tolist()
    for k, (x, n) in enumerate(segs):
        seg, conn = chain[2 * k], chain[2 * k + 1]
        assert rec["segments"][k] == {"x": seg[0].tolist(), "n": len(seg) - 1}
        assert rec["connectors"][k] == {"y": conn[0].tolist(), "transit": len(conn) - 1}
        assert np.array_equal(seg, dyn.orbit_points(system, x, n))
        end, nxt = cov.locate([seg[-1], chain[(2 * k + 2) % len(chain)][0]])
        assert rec["connectors"][k]["transit"] == table.X[nxt, end]
        assert np.array_equal(conn[0], table.witnesses[nxt, end])
    assert json.loads(json.dumps(rec)) == rec  # plain values: json rejects numpy ints


def test_glue_rejects_uncovered_endpoint(cat):
    cov = build_cover([[0.0, 0.0]], 0.2)
    table = transition_times(cat, cov, 2, 10000, 3, seed=1)
    with pytest.raises(ValueError):
        glue_segments(cat, [(np.array([0.5, 0.5]), 5)], cov, table)
    with pytest.raises(ValueError):
        glue_segments(cat, [], cov, table)
    with pytest.raises(ValueError):
        glue_segments(cat, [(np.array([0.0, 0.0]), 0)], cov, table)
    # every length is checked before any orbit or lookup
    with pytest.raises(ValueError, match="segment length must be >= 1, got 0"):
        glue_segments(cat, [(np.array([0.5, 0.5]), 5), (np.array([0.0, 0.0]), 0)], cov, table)


def test_weak_star_grid_anchors():
    m10 = EmpiricalMeasure(points=_grid_points(10))
    m64 = EmpiricalMeasure(points=_grid_points(64))
    assert weak_star_distance(m10, m10, 5) == 0.0
    # nonzero characters of degree < N average to zero on an N-grid
    assert weak_star_distance(m10, m64, 3) < 1e-12
    with pytest.raises(ValueError):
        weak_star_distance(m10, m64, 0)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_character_moments_match_direct_sums(data):
    # the reference takes cos and sin of each phase 2 pi k.x in extended
    # precision, so its own error is far below the float64 bound
    d = data.draw(st.integers(1, 3))
    degree = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, 40))
    unit = st.floats(0.0, 1.0, exclude_max=True)
    pts = np.array(data.draw(st.lists(st.lists(unit, min_size=d, max_size=d),
                                      min_size=n, max_size=n)))
    weights = None
    if data.draw(st.booleans()):
        weights = np.array(data.draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n)))
        weights /= weights.sum()
    m = EmpiricalMeasure(points=pts, weights=weights)
    moments = m.character_moments(degree)
    assert moments.shape == (2 * degree + 1,) * d
    ks = np.array(list(np.ndindex(moments.shape)), dtype=np.longdouble) - degree
    phase = 2 * np.arccos(np.longdouble(-1)) * (m.points.astype(np.longdouble) @ ks.T)
    w = m.weights.astype(np.longdouble)
    exact = w @ np.cos(phase) + 1j * (w @ np.sin(phase))
    # docstring bound per character value, plus the rounding of an n-term sum
    bound = ((2 * np.pi + 3) * d * degree + n) * np.finfo(float).eps
    assert np.abs(moments.ravel() - exact).max() <= bound


def test_weak_star_birkhoff_near_lebesgue(cat):
    orb = EmpiricalMeasure.from_orbit(cat, np.array([0.123, 0.456]), 20000)
    grid = EmpiricalMeasure(points=_grid_points(64))
    assert weak_star_distance(orb, grid, 3) < 0.05


def test_weak_star_metric_axioms():
    rng = np.random.default_rng(42)
    for _ in range(50):
        ms = [EmpiricalMeasure(points=rng.random((50, 2))) for _ in range(3)]
        d01 = weak_star_distance(ms[0], ms[1], 2)
        d10 = weak_star_distance(ms[1], ms[0], 2)
        d02 = weak_star_distance(ms[0], ms[2], 2)
        d12 = weak_star_distance(ms[1], ms[2], 2)
        assert d01 == d10
        assert d02 <= d01 + d12 + 1e-12
        assert d01 > 0.0


def test_weak_star_dimension_mismatch():
    m2 = EmpiricalMeasure(points=[[0.1, 0.2]])
    m3 = EmpiricalMeasure(points=[[0.1, 0.2, 0.3]])
    with pytest.raises(DimensionMismatchError):
        weak_star_distance(m2, m3, 2)


def test_periodic_measure_pushforward_invariant(cat):
    res = close_orbit(cat, np.array([0.37, 0.61]), 24)
    mu = EmpiricalMeasure(points=res.points)
    push = EmpiricalMeasure(points=cat.step_many(res.points))
    # the support is permuted by the map, so the measure is unchanged
    assert weak_star_distance(mu, push, 4) < 1e-10


def test_empirical_measure_validation():
    with pytest.raises(ValueError):
        EmpiricalMeasure(points=np.zeros((0, 2)))
    with pytest.raises(ValueError):
        EmpiricalMeasure(points=[[0.1, 0.2], [0.3, 0.4]], weights=[0.5, -0.5])
    with pytest.raises(ValueError):
        EmpiricalMeasure(points=[[0.1, 0.2], [0.3, 0.4]], weights=[0.7, 0.6])
    m = EmpiricalMeasure(points=[[0.1, 0.2], [0.3, 0.4]], weights=[0.25, 0.75])
    assert m.weights.sum() == pytest.approx(1.0)
    assert m.dim == 2
    with pytest.raises(ValueError):
        EmpiricalMeasure.from_orbit(None, np.zeros(2), 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_empirical_measure_rejects_non_finite_input(bad):
    # a NaN support point made every weak-* distance NaN, and a NaN weight
    # passed both the sign and the sum test
    with pytest.raises(ValueError, match="support points must be finite"):
        EmpiricalMeasure(points=[[0.1, bad], [0.3, 0.4]])
    with pytest.raises(ValueError, match="weights"):
        EmpiricalMeasure(points=[[0.1, 0.2]], weights=[bad])
    with pytest.raises(ValueError, match="weights"):
        EmpiricalMeasure(points=[[0.1, 0.2], [0.3, 0.4]], weights=[1.0, bad])


def test_approximate_invariant_measure(cat):
    rng = np.random.default_rng(5)
    target = EmpiricalMeasure.from_orbit(cat, rng.random(2), 20000)
    approx, dist = approximate_invariant_measure(cat, target, delta=0.25,
                                                 budget=1200, seed=13)
    assert len(approx.points) >= 1000
    assert dist < 0.05
    with pytest.raises(ValueError):
        approximate_invariant_measure(cat, target, delta=0.25, budget=3)


def test_measure_curve_matches_separate_calls(cat):
    target = EmpiricalMeasure.from_orbit(cat, np.array([0.3141, 0.2718]), 4000)
    opts = dict(delta=0.25, horizon=1000, sample_orbits=2, seed=13)
    curve = measure_curve(cat, target, budgets=[800, 1600, 800], **opts)
    for budget, (approx, dist) in zip([800, 1600, 800], curve):
        alone, alone_dist = approximate_invariant_measure(cat, target, budget=budget, **opts)
        assert np.array_equal(approx.points, alone.points)
        assert dist == alone_dist
    with pytest.raises(ValueError):
        measure_curve(cat, target, 0.25, [])
