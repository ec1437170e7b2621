"""Torus maps, splittings, and orbit helpers."""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pesinlab import systems as dyn
from pesinlab.errors import (
    DegenerateSplittingError,
    DimensionMismatchError,
    UnsupportedSystemError,
)

from conftest import LOG_U


def test_wrap_and_torus_diff():
    assert dyn.wrap(np.array([1.25, -0.25])) == pytest.approx([0.25, 0.75])
    # representative difference lies in [-1/2, 1/2)
    d = dyn.torus_diff(np.array([0.05, 0.0]), np.array([0.95, 0.5]))
    assert d == pytest.approx([0.1, -0.5])
    assert dyn.torus_distance(np.array([0.05, 0.9]), np.array([0.95, 0.1])) \
        == pytest.approx(np.hypot(0.1, 0.2))


def test_torus_distance_batched():
    a = np.array([[0.1, 0.2], [0.9, 0.9]])
    assert dyn.torus_distance(a, np.array([0.1, 0.2])) == pytest.approx(
        [0.0, np.hypot(0.2, 0.3)])


def test_cat_matrix_and_eigenstructure(cat, cat_split):
    A = cat.jacobian_many(np.zeros((1, 2)))[0]
    assert np.array_equal(A, [[2.0, 1.0], [1.0, 1.0]])
    lam = (3.0 + np.sqrt(5.0)) / 2.0
    assert np.allclose(A @ cat_split.f_basis, lam * cat_split.f_basis)
    assert np.allclose(A @ cat_split.e_basis, cat_split.e_basis / lam)
    assert abs(np.log(lam) - LOG_U) < 1e-15


def test_cat_step_and_inverse(cat):
    x = np.array([[0.3, 0.4]])
    y = cat.step_many(x)
    assert y[0] == pytest.approx([0.0, 0.7])
    assert dyn.torus_distance(cat.inverse_many(y), x)[0] < 1e-14


def test_g_map_fixed_points():
    # contracting fixed point at 0, expanding at 1/2, both exact
    assert np.array_equal(dyn.g_map(np.array([0.0, 0.5])), [0.0, 0.5])
    assert dyn._g_orbit1(0.5, 1000)[-1] == 0.5
    # an orbit attracted to 0 from below reaches it rather than stalling under 1
    assert dyn._g_orbit1(1.0 - 1e-12, 100)[-1] == 0.0
    assert dyn.g_prime(np.array([0.0]))[0] == pytest.approx(0.5)
    assert dyn.g_prime(np.array([0.5]))[0] == pytest.approx(np.exp(LOG_U))


def test_g_inverse_roundtrip():
    x = np.linspace(0.0, 1.0, 41, endpoint=False)
    y = dyn.g_map(x)
    assert np.max(np.abs(dyn.g_inverse(y) - x)) < 1e-15
    # g(g^-1(y)) = y to rounding level of a unit-scale argument
    y = np.random.default_rng(3).random(20_000)
    back = dyn.g_map(dyn.g_inverse(y))
    assert np.max(np.abs(dyn.torus_diff(back[:, None], y[:, None]))) <= 4e-16
    # the fixed points invert exactly, so repeated inversion stays on them
    assert np.array_equal(dyn.g_inverse(np.array([0.0, 0.5])), [0.0, 0.5])


def test_g_prime_positive_circle_diffeo():
    x = np.linspace(0.0, 1.0, 10001, endpoint=False)
    gp = dyn.g_prime(x)
    assert gp.min() > 0.0
    # degree one: lift increases by exactly 1 over a period
    lift = dyn.g_map_lift(np.array([0.0, 1.0]))
    assert lift[1] - lift[0] == pytest.approx(1.0)


def test_product24_structure(p24):
    x = np.array([[0.2, 0.3, 0.4]])
    y = p24.step_many(x)
    assert y[0, 0] == pytest.approx(float(dyn.g_map(np.array([0.2]))[0]))
    assert y[0, 1:] == pytest.approx(dyn.make_system("cat").step_many(x[:, 1:])[0])
    jac = p24.jacobian_many(x)[0]
    assert jac[0, 1] == jac[0, 2] == jac[1, 0] == jac[2, 0] == 0.0
    assert dyn.torus_distance(p24.inverse_many(y), x)[0] < 1e-14


def test_orbit_points_shapes(cat):
    x = np.array([0.1, 0.2])
    orb = dyn.orbit_points(cat, x, 5)
    assert orb.shape == (6, 2)
    assert np.array_equal(orb[0], x)
    assert dyn.torus_distance(orb[3], cat.step_many(orb[2:3]))[0] < 1e-15
    back = dyn.orbit_many_back(cat, [x], 4)[:, 0]
    assert back.shape == (5, 2)
    assert dyn.torus_distance(cat.step_many(back[1:2]), x)[0] < 1e-14


def test_orbit_many_matches_single(cat):
    xs = np.random.default_rng(0).random((7, 2))
    batch = dyn.orbit_many(cat, xs, 6)
    for i, x in enumerate(xs):
        assert np.allclose(batch[:, i], dyn.orbit_points(cat, x, 6))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("orbit", [dyn.orbit_many, dyn.orbit_many_back])
@pytest.mark.parametrize("n_starts", [1, 2, 5])
def test_orbit_many_rejects_a_non_finite_start(cat, orbit, n_starts, bad):
    # a batch of two or more used to carry a NaN start through every step
    starts = np.random.default_rng(3).random((n_starts, 2))
    starts[-1, 1] = bad
    with pytest.raises(ValueError, match="non-finite coordinate"):
        orbit(cat, starts, 4)


def test_cat_orbit_matches_generic_step_loop(cat):
    starts = [[0.123, 0.456], [np.sqrt(2.0) - 1.0, np.sqrt(3.0) - 1.0],
              [0.0, 0.0], [0.25, 0.5], [3 / 1024, 1001 / 1024]]
    for p in starts:
        p = dyn.as_point(p)
        orb = cat.orbit(p, 500)
        assert np.array_equal(orb, dyn.TorusMap.orbit(cat, p, 500))
    # dyadic starts stay exactly on their lattice
    assert np.array_equal(orb * 1024, np.round(orb * 1024))


# Coordinates for the kernel properties: the fixed points of g, the last
# float below 1, and arbitrary values, wrapped or not (-2**-70 % 1.0 is 1.0).
_EDGES = [0.0, 0.5, float(np.nextafter(1.0, 0.0)), float(np.nextafter(0.5, 0.0))]
_unit = st.one_of(st.sampled_from(_EDGES),
                  st.floats(0.0, 1.0, exclude_max=True, allow_subnormal=False))
_coord = st.one_of(_unit, st.just(-2.0 ** -70),
                   st.floats(-3.0, 3.0, allow_subnormal=False))
_KERNEL_SYSTEMS = [dyn.CatMap(), dyn.CircleG(), dyn.Product24()]


def test_math_trig_matches_numpy():
    # _g_orbit1 relies on math.sin returning np.sin's bits at the arguments
    # it passes: t = 2 pi x in [0, 2 pi) and 2t in [0, 4 pi)
    t = 2.0 * math.pi * np.random.default_rng(4).random(200_000)
    for arg in (t, 2.0 * t):
        assert np.array_equal(np.sin(arg), [math.sin(v) for v in arg.tolist()])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_orbit_kernels_match_step_loops(data):
    system = data.draw(st.sampled_from(_KERNEL_SYSTEMS))
    p = dyn.as_point(data.draw(st.lists(_unit, min_size=system.dim,
                                        max_size=system.dim)))
    n = data.draw(st.integers(0, 60))
    assert np.array_equal(system.orbit(p, n), dyn.TorusMap.orbit(system, p, n))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_orbit_points_of_unwrapped_starts_match_step_loops(data):
    system = data.draw(st.sampled_from(_KERNEL_SYSTEMS))
    x = data.draw(st.lists(_coord, min_size=system.dim, max_size=system.dim))
    p = dyn.as_point(x)
    assert np.array_equal(dyn.orbit_points(system, x, 20),
                          dyn.TorusMap.orbit(system, p, 20))
    assert np.array_equal(dyn.orbit_many_back(system, [x], 20)[:, 0],
                          dyn.orbit_many_back(system, [p, p], 20)[:, 1])
    assert np.array_equal(dyn.orbit_many(system, [x], 20)[:, 0],
                          dyn.orbit_many(system, [x, x], 20)[:, 1])


@given(_coord)
def test_scalar_circle_functions_match_arrays(y):
    assert dyn._g_orbit1(y, 1)[1] == dyn.g_map(np.array([y]))[0]


@given(_coord)
def test_g_inverse_is_a_right_inverse(y):
    back = dyn.g_map(dyn.g_inverse(np.array([y])))
    assert abs(dyn.torus_diff(back, dyn.wrap([y]))[0]) <= 4e-16


@given(st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=3).flatmap(
    lambda a: st.tuples(st.just(a), st.lists(st.floats(-4.0, 4.0),
                                             min_size=len(a), max_size=len(a)))))
def test_torus_diff_in_half_open_interval(ab):
    d = dyn.torus_diff(*ab)
    assert np.all((-0.5 <= d) & (d < 0.5))


# The kernels reduce mod 1 as x - floor(x).  These are the numpy mod forms
# they replaced, kept as oracles: the new forms must give their bits.
def _mod_wrap(x):
    r = np.mod(np.asarray(x, dtype=float), 1.0)
    return np.where(r == 1.0, 0.0, r)


def _mod_torus_diff(a, b):
    return np.mod(np.asarray(a, dtype=float) - np.asarray(b, dtype=float) + 0.5, 1.0) - 0.5


def _mod_cospi(t):
    r = np.mod(np.asarray(t, dtype=float), 2.0)
    r = np.where(r > 1.0, 2.0 - r, r)
    sign = np.where(r > 0.5, -1.0, 1.0)
    r = np.where(r > 0.5, 1.0 - r, r)
    return sign * np.cos(np.pi * r)


def _mod_g_prime(x):
    x = np.asarray(x, dtype=float)
    return 1.0 + dyn.G_B1 * _mod_cospi(2.0 * x) + dyn.G_B2 * _mod_cospi(4.0 * x)


def _mod_g_map(x):
    return _mod_wrap(dyn.g_map_lift(np.mod(x, 1.0)))


def _mod_g_inverse(y):
    y = np.mod(np.asarray(y, dtype=float), 1.0)
    w = np.interp(y, dyn._G_TABLE_Y, dyn._G_TABLE_X)
    slope = _mod_g_prime(w)
    for _ in range(4):
        w = w - (dyn.g_map_lift(w) - y) / slope
    w = np.clip(w, 0.0, 1.0)
    w = np.where(y == 0.0, 0.0, w)
    w = np.where(y == 0.5, 0.5, w)
    return _mod_wrap(w)


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


# Signed zeros and subnormals, values within 1e-16 of an integer (and the
# floats next to it, where x - floor(x) rounds up to 1 from below 0), the
# largest magnitudes and 2^53, beyond which every float is an integer.
_MOD_EDGES = [v for k in range(-3, 4) for v in (
    float(k), k + 1e-16, k - 1e-16, float(np.nextafter(k, -4.0)), float(np.nextafter(k, 4.0)))] + [
    -0.0, 5e-324, -5e-324, 2.0 ** -54, -2.0 ** -54, 2.0 ** -53, -2.0 ** -53,
    0.5, float(np.nextafter(0.5, 1.0)), 1e308, -1e308, 2.0 ** 53, -2.0 ** 53,
    2.0 ** 53 - 1.0, 2.0 ** 52 + 0.5, -(2.0 ** 52 + 0.5)]
_finite = st.one_of(st.sampled_from(_MOD_EDGES), st.floats(allow_nan=False, allow_infinity=False))
# a - b + 1/2 must stay finite, or both forms return NaN under an overflow warning
_half_range = st.one_of(st.sampled_from([v for v in _MOD_EDGES if abs(v) < 8e307]),
                        st.floats(-8e307, 8e307))
_shapes = hnp.array_shapes(min_dims=1, max_dims=2, max_side=5)


@given(_finite)
def test_frac_is_numpy_mod_bit_for_bit(x):
    assert _same_bits(dyn._frac(x), np.mod(x, 1.0))
    assert _same_bits(dyn._frac(np.array([x, -x])), np.mod(np.array([x, -x]), 1.0))


@given(_finite)
def test_cospi_is_its_mod_form_bit_for_bit(t):
    # -5e-324 is the one input where t - 2 floor(t/2) differs from numpy's
    # t mod 2 (t/2 rounds to -0), and the output still agrees there
    small = abs(t) < 4e307   # 4t stays finite
    arr = np.array([t, -t, 2.0 * t, 4.0 * t] if small else [t, -t])
    assert _same_bits(dyn._cospi(arr), _mod_cospi(arr))
    if small:
        assert _same_bits(dyn.g_prime(arr[:2]), _mod_g_prime(arr[:2]))


def test_cospi_at_the_edges():
    edges = np.array(_MOD_EDGES)
    assert _same_bits(dyn._cospi(edges), _mod_cospi(edges))
    assert _same_bits(dyn._cospi(-5e-324), _mod_cospi(-5e-324))
    assert dyn._cospi(-5e-324) == 1.0


@settings(deadline=None)
@given(hnp.arrays(np.float64, _shapes, elements=_finite))
def test_wrap_is_its_mod_form_bit_for_bit(x):
    assert _same_bits(dyn.wrap(x), _mod_wrap(x))
    assert np.all((0.0 <= dyn.wrap(x)) & (dyn.wrap(x) < 1.0))


@settings(deadline=None)
@given(_shapes.flatmap(lambda shape: st.tuples(
    hnp.arrays(np.float64, shape, elements=_half_range),
    hnp.arrays(np.float64, shape, elements=_half_range))))
def test_torus_diff_and_distance_are_their_mod_forms_bit_for_bit(ab):
    a, b = ab
    d = dyn.torus_diff(a, b)
    assert _same_bits(d, _mod_torus_diff(a, b))
    assert np.all((-0.5 <= d) & (d < 0.5))
    assert _same_bits(dyn.torus_distance(a, b), np.linalg.norm(_mod_torus_diff(a, b), axis=-1))
    # points against one point, as the cover lookups call it
    c = b[0] if b.ndim == 2 else b
    assert _same_bits(dyn.torus_distance(a, c), np.linalg.norm(_mod_torus_diff(a, c), axis=-1))


def test_torus_diff_range_is_half_open():
    # a - b + 1/2 = -2^-53 here, exactly; x - floor(x) rounds up to 1 only
    # for x in [-2^-54, 0), which a - b + 1/2 cannot reach, so +1/2 never
    # comes out
    a, b = np.array([0.0]), np.array([np.nextafter(0.5, 1.0)])
    assert dyn.torus_diff(a, b)[0] == 0.5 - 2.0 ** -53
    assert _same_bits(dyn.torus_diff(a, b), _mod_torus_diff(a, b))
    assert dyn.torus_diff(np.array([0.0]), np.array([0.5]))[0] == -0.5


def test_circle_kernels_give_the_mod_forms_bits():
    rng = np.random.default_rng(26)
    x = np.concatenate([rng.random(4000), rng.uniform(-3.0, 3.0, 4000),
                        [v for v in _MOD_EDGES if abs(v) < 4.0]])
    assert _same_bits(dyn.g_map(x), _mod_g_map(x))
    assert _same_bits(dyn.g_inverse(x), _mod_g_inverse(x))
    assert _same_bits(dyn.g_prime(x), _mod_g_prime(x))


def test_no_numpy_mod_in_the_source():
    # every kernel reduces with _frac; a config formula's mod stays numpy's
    src = Path(dyn.__file__).parent
    hits = [f"{path.name}:{i}" for path in sorted(src.glob("*.py"))
            for i, line in enumerate(path.read_text().splitlines(), 1) if "np.mod(" in line]
    assert hits == []
    assert dyn._FORMULA_FUNCS["mod"] is np.mod


def test_make_system_names():
    assert isinstance(dyn.make_system("cat"), dyn.CatMap)
    assert isinstance(dyn.make_system("product24"), dyn.Product24)
    assert isinstance(dyn.make_system("circle-g"), dyn.CircleG)
    with pytest.raises(UnsupportedSystemError):
        dyn.make_system("henon")
    with pytest.raises(UnsupportedSystemError):
        dyn.make_system(42)


def test_make_system_composite_dict():
    spec = {
        "kind": "composite",
        "dim": 1,
        "map": ["(x0 + 0.25) % 1.0"],
        "jacobian": [["1.0"]],
        "inverse": ["(x0 - 0.25) % 1.0"],
    }
    rot = dyn.make_system(spec)
    assert rot.dim == 1
    assert rot.step_many(np.array([[0.9]]))[0, 0] == pytest.approx(0.15)
    assert rot.inverse_many(np.array([[0.15]]))[0, 0] == pytest.approx(0.9)


def test_composite_formulas_match_numpy():
    xs = np.random.default_rng(2).random((200, 2))
    m = dyn.make_system({
        "kind": "composite", "dim": 2,
        "map": ["where(x0 < 0.5, 2*x0, 2 - 2*x0) + sin(2*pi*x1)/8",
                "mod(-x1**2 + abs(x0 - x1) // 0.25, 1.0)"],
        "jacobian": [["sqrt(x0) + exp(-x1) + log(1 + x0)", "cos(x1) * tan(x0)"],
                     ["floor(x0*4) + (x0 >= x1)", "1/3"]],
    })
    x0, x1 = xs[:, 0], xs[:, 1]
    want = np.column_stack([np.where(x0 < 0.5, 2 * x0, 2 - 2 * x0)
                            + np.sin(2 * np.pi * x1) / 8,
                            np.mod(-x1 ** 2 + np.abs(x0 - x1) // 0.25, 1.0)])
    assert np.array_equal(m.step_many(xs), dyn.wrap(want))
    jac = m.jacobian_many(xs)
    assert np.array_equal(jac[:, 0, 0], np.sqrt(x0) + np.exp(-x1) + np.log(1 + x0))
    assert np.array_equal(jac[:, 1, 0], np.floor(x0 * 4) + (x0 >= x1))
    assert np.all(jac[:, 1, 1] == 1 / 3)


_CAT_SPEC = {
    "kind": "composite", "dim": 2,
    "map": ["(2*x0 + x1) % 1.0", "(x0 + x1) % 1.0"],
    "inverse": ["(x0 - x1) % 1.0", "(2*x1 - x0) % 1.0"],
    "jacobian": [["2.0", "1.0"], ["1.0", "1.0"]],
}
_NO_INVERSE = {k: v for k, v in _CAT_SPEC.items() if k != "inverse"}


@pytest.mark.parametrize("spec, key", [
    # the first eleven used to build a map: without an inverse, the builtin
    # with the key ignored, an inverse broadcast from one formula or none at
    # all, no splitting, a 2-D map, a 1-D map and a 0-D map; the last two
    # were rejected without naming the key
    ({**_NO_INVERSE, "invers": _CAT_SPEC["inverse"]}, "invers"),
    ({"kind": "cat", "dim": 2}, "dim"),
    ({"kind": "circle-g", "inverse": ["x0"]}, "inverse"),
    ({"kind": "product24", "e_basis": [[1.0]]}, "e_basis"),
    ({**_CAT_SPEC, "inverse": ["x0 - x1"]}, "inverse"),
    ({**_CAT_SPEC, "inverse": []}, "inverse"),
    ({**_CAT_SPEC, "e_basis": [[1.0], [0.0]]}, "e_basis"),
    ({**_CAT_SPEC, "f_basis": [[0.0], [1.0]]}, "f_basis"),
    ({**_CAT_SPEC, "dim": 2.5}, "dim"),
    ({**_CAT_SPEC, "dim": True}, "dim"),
    ({**_CAT_SPEC, "dim": 0}, "dim"),
    ({**_CAT_SPEC, "jacobian": [["2.0", "1.0"], ["1.0"]]}, "jacobian[1]"),
    (_NO_INVERSE | {"dim": 2, "map": _CAT_SPEC["map"][:1]}, "map"),
])
def test_composite_config_rejects_a_bad_key(spec, key):
    with pytest.raises(ValueError, match=re.escape(repr(key))):
        dyn.make_system(spec)


def test_composite_inverse_is_checked_per_coordinate():
    # "inverse": ["x0 - x1"] used to broadcast to both coordinates: (0.85, 0.85)
    cat = dyn.make_system(_CAT_SPEC)
    back = dyn.orbit_many_back(cat, [[0.1, 0.25]], 1)[1, 0]
    assert back == pytest.approx([0.85, 0.4], abs=1e-15)
    assert dyn.make_system({**_CAT_SPEC, "dim": 2.0}).dim == 2   # a whole number passes


def test_composite_jacobian_matches_numpy_per_entry():
    # constant and point-dependent entries over a (4, 250, 3) batch, bit for bit
    pts = np.random.default_rng(6).random((4, 250, 3))
    rows = [["2.0", "x0*x1", "0"], ["sin(2*pi*x2)", "1/3", "exp(-x0)"],
            ["x2**2", "-1", "where(x1 < 0.5, x0, 1.0)"]]
    jac = dyn.make_system({"dim": 3, "map": ["x0", "x1", "x2"], "jacobian": rows}
                          ).jacobian_many(pts)
    x0, x1, x2 = pts[..., 0], pts[..., 1], pts[..., 2]
    want = [[2.0, x0 * x1, 0.0], [np.sin(2 * np.pi * x2), 1 / 3, np.exp(-x0)],
            [x2 ** 2, -1.0, np.where(x1 < 0.5, x0, 1.0)]]
    assert jac.shape == (4, 250, 3, 3) and jac.flags.c_contiguous
    for i in range(3):
        for j in range(3):
            assert np.array_equal(jac[..., i, j], np.broadcast_to(want[i][j], pts.shape[:-1]))


@pytest.mark.parametrize("formula", [
    "np.save('owned.npy', x0)",
    "().__class__.__bases__",
    "(lambda: 0)()",
    "x0.real",
    "x0[0]",
    "[x0 for _ in range(2)]",
    "__import__('os')",
    "open('owned.txt', 'w')",
    "np",
    "sin",
    "sin(x=x0)",
    "'text'",
    "x0 < x1 < 1",
    "x2",
    "x0 +",
    pytest.param("+".join(["x0"] * 3000), id="x0+...+x0"),
])
def test_composite_formula_whitelist(formula, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError):
        dyn.make_system({"kind": "composite", "dim": 2, "map": [formula, "x1"],
                         "jacobian": [["1", "0"], ["0", "1"]]})
    assert not any(tmp_path.iterdir())


def test_splitting_validation():
    with pytest.raises(DegenerateSplittingError):
        dyn.Splitting(np.array([[1.0], [0.0]]), np.array([[2.0], [0.0]]))
    with pytest.raises(DimensionMismatchError):
        dyn.Splitting(np.eye(3)[:, :1], np.eye(2)[:, :1])
    s = dyn.Splitting(np.array([[3.0], [0.0]]), np.array([[0.0], [5.0]]))
    assert np.linalg.norm(s.e_basis) == pytest.approx(1.0)
    assert s.e_basis.shape == s.f_basis.shape == (2, 1) and s.dim == 2


def test_reference_splitting_invariance(p24, p24_split):
    # Df maps E to E and F to F at every point (constant bundles)
    x = np.array([0.37, 0.61, 0.18])
    jac = p24.jacobian_many(x[None])[0]
    for basis in (p24_split.e_basis, p24_split.f_basis):
        img = jac @ basis
        proj = basis @ np.linalg.lstsq(basis, img, rcond=None)[0]
        assert np.max(np.abs(img - proj)) < 1e-12


def test_as_point_validation():
    with pytest.raises(ValueError):
        dyn.as_point(np.array([[0.1, 0.2]]), dim=2)
    with pytest.raises(DimensionMismatchError):
        dyn.as_point(np.array([0.1, 0.2, 0.3]), dim=2)


def test_product24_kernels_are_its_factors_kernels():
    p24, circle, cat = dyn.Product24(), dyn.CircleG(), dyn.CatMap()
    pts = np.random.default_rng(5).random((4, 250, 3))
    pts[0, :3] = [[0.0, 0.5, 0.25], [0.5, 0.0, 0.0], [np.nextafter(1.0, 0.0), 0.1, 0.9]]
    for kernel in ("step_many", "inverse_many"):
        want = np.concatenate([getattr(circle, kernel)(pts[..., :1]),
                               getattr(cat, kernel)(pts[..., 1:])], axis=-1)
        assert np.array_equal(getattr(p24, kernel)(pts), want)
    jac = p24.jacobian_many(pts)
    assert np.array_equal(jac[..., :1, :1], circle.jacobian_many(pts[..., :1]))
    assert np.array_equal(jac[..., 1:, 1:], cat.jacobian_many(pts[..., 1:]))
    assert not jac[..., :1, 1:].any() and not jac[..., 1:, :1].any()
    for p in pts[0, :20]:
        want = np.column_stack([circle.orbit(p[:1], 40), cat.orbit(p[1:], 40)])
        assert np.array_equal(p24.orbit(p, 40), want)
