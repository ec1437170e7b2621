"""Torus maps, their derivatives, and invariant splittings.

Points on the d-torus are numpy arrays with coordinates in [0, 1).  Distances
use nearest-representative differences and the flat Euclidean norm.  Three
systems are built in:

* ``CatMap``      -- the linear automorphism (y, z) |-> (2y + z, y + z) on T^2.
* ``CircleG``     -- a circle diffeomorphism with an attracting fixed point at
                     0 (slope 1/2) and a repelling one at 1/2 (slope (3+sqrt5)/2).
* ``Product24``   -- CircleG x CatMap on T^3.

``CompositeMap`` compiles and checks user-supplied coordinate formulas with
analytic Jacobians, as read from CLI config files.
"""

from __future__ import annotations

import ast
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateSplittingError,
    DimensionMismatchError,
    NotInvertibleError,
    UnsupportedSystemError,
)

__all__ = [
    "Splitting",
    "TorusMap",
    "CatMap",
    "CircleG",
    "Product24",
    "CompositeMap",
    "make_system",
    "wrap",
    "torus_diff",
    "torus_distance",
    "orbit_points",
    "reference_splitting",
]

_SQRT5 = math.sqrt(5.0)

CAT_MATRIX = np.array([[2.0, 1.0], [1.0, 1.0]])
CAT_INVERSE = np.array([[1.0, -1.0], [-1.0, 2.0]])
# Eigenvalues of the symmetric matrix above.
CAT_EXPANDING = (3.0 + _SQRT5) / 2.0
CAT_CONTRACTING = (3.0 - _SQRT5) / 2.0

# Circle factor: g(x) = x + (B1/2pi) sin(2pi x) + (B2/4pi) sin(4pi x).
# The coefficients pin g'(0) = 1/2 and g'(1/2) = (3+sqrt5)/2 with unit mean
# slope; g' stays positive (minimum ~0.1902), so g is a diffeomorphism.
G_B1 = -(2.0 + _SQRT5) / 4.0
G_B2 = _SQRT5 / 4.0
_G_C1 = G_B1 / (2.0 * math.pi)
_G_C2 = G_B2 / (4.0 * math.pi)


def _cospi(t):
    """cos(pi t), exact +-1 at integer t.

    r = t - 2 floor(t/2) is numpy's t mod 2 bit for bit (see _frac), except
    at t = -5e-324, where t/2 rounds to -0 and r is t, not 2.0; cos(pi r)
    is 1 either way.  Each np.minimum picks what the fold's comparison
    picked: 2 - r only for r > 1 and 1 - r only for r > 1/2, both exact
    there (Sterbenz).
    """
    t = np.asarray(t, dtype=float)
    r = t - 2.0 * np.floor(0.5 * t)
    r = np.minimum(r, 2.0 - r)  # cos is even around t = 1
    c = np.cos(np.pi * np.minimum(r, 1.0 - r))
    return np.where(r > 0.5, -c, c)  # and odd around t = 1/2


def g_map(x):
    return wrap(g_map_lift(_frac(x)))


def g_prime(x):
    x = np.asarray(x, dtype=float)
    return 1.0 + G_B1 * _cospi(2.0 * x) + G_B2 * _cospi(4.0 * x)


def g_inverse(y):
    """Inverse of the circle factor: table seed, then Newton polish.

    The seed interpolates a monotone table of the lift on 4097 nodes and is
    within ~1e-7 of the root.  Newton keeps the slope taken at the seed; it
    then gains a factor max|g''| / min g' * 1e-7 < 1e-5 per step, so two
    steps reach rounding level; four are taken while the last bit settles.
    The fixed points 0 and 1/2 are snapped exactly so repeated inversion
    stays on them.
    """
    y = _frac(y)
    w = np.interp(y, _G_TABLE_Y, _G_TABLE_X)
    slope = g_prime(w)
    for _ in range(4):
        w = w - (g_map_lift(w) - y) / slope
    w = np.clip(w, 0.0, 1.0)
    w = np.where(y == 0.0, 0.0, w)
    w = np.where(y == 0.5, 0.5, w)
    return wrap(w)


def g_map_lift(x):
    """Lift of g to [0, 1] without the final wrap (monotone on [0, 1]).

    In plain trig, with t = 2 pi x: sin(t) is exactly 0 at x = 0, and at
    x = 1/2 both |C1 sin(pi)| and |C2 sin(2 pi)| in floats are below half
    an ulp of 1/2, so g fixes 0 and 1/2 exactly.  2t is exact.
    """
    x = np.asarray(x, dtype=float)
    t = 2.0 * np.pi * x
    return x + _G_C1 * np.sin(t) + _G_C2 * np.sin(2.0 * t)


# Nodes x_i and values g(x_i) of the lift; g is increasing, so (y_i, x_i)
# tabulates the inverse for the Newton seed in g_inverse.
_G_TABLE_X = np.linspace(0.0, 1.0, 4097)
_G_TABLE_Y = g_map_lift(_G_TABLE_X)


# Plain-float kernel for single-start circle orbits, where numpy's per-call
# overhead outweighs the work.  It repeats g_map operation for operation:
# Python's float % 1.0 gives _frac's bits, and math.sin must return np.sin's bits,
# which tests/test_systems.py checks on the arguments the kernel passes.

def _g_orbit1(x, n):
    """[x, g(x), ..., g^n(x)] for one float: g_map's step, wrap included,
    as one loop of plain-float operations in the same order."""
    xs, sin, two_pi = [x], math.sin, 2.0 * math.pi
    for _ in range(n):
        x %= 1.0
        t = two_pi * x
        x = (x + _G_C1 * sin(t) + _G_C2 * sin(2.0 * t)) % 1.0
        xs.append(0.0 if x == 1.0 else x)
    return xs


def _frac(x):
    """x - floor(x) in a new array, with one temporary: numpy's x mod 1 bit
    for bit at a fraction of its cost.  numpy takes the exact fmod(x, 1),
    which is x - floor(x) for x >= 0; for x < 0 it adds 1, one rounding of
    the real x - floor(x), as the subtraction is.  Both give +0.0 at integers.
    """
    x = np.asarray(x, dtype=float)
    r = np.floor(x, out=np.empty(x.shape))
    return np.subtract(x, r, out=r)


def wrap(x):
    """Reduce coordinates to [0, 1); x - floor(x) rounds up to 1.0 for tiny negatives."""
    r = _frac(x)
    r[r == 1.0] = 0.0
    return r


def as_point(coords, dim=None):
    p = np.atleast_1d(np.asarray(coords, dtype=float))
    if p.ndim != 1:
        raise DimensionMismatchError(f"point must be 1-d, got shape {p.shape}")
    if dim is not None and p.shape[0] != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {p.shape[0]}")
    if not all(map(math.isfinite, p.tolist())):
        raise ValueError(f"point has a non-finite coordinate: {p.tolist()}")
    return wrap(p)


def torus_diff(a, b):
    """Nearest-representative difference a - b, componentwise in [-1/2, 1/2).

    Half-open: x - floor(x) rounds up to 1 only for x in [-2^-54, 0), and
    a - b + 1/2 never lands there; it is exact for a - b in [-1, -1/4], and
    at least 1/4 from 0 outside it.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[-1] != b.shape[-1]:
        raise DimensionMismatchError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return _frac(a - b + 0.5) - 0.5


def torus_distance(a, b):
    """Flat metric on the torus (Euclidean norm of the nearest difference):
    the sum np.linalg.norm(d, axis=-1) takes, without its wrapper.  numpy
    adds fewer than 8 terms in coordinate order, so those are summed column
    by column, at a fraction of the reduce's cost on short rows."""
    d = torus_diff(a, b)
    sq = d * d
    if sq.shape[-1] >= 8:
        return np.sqrt(np.add.reduce(sq, axis=-1))
    total = sq[..., 0]
    for k in range(1, sq.shape[-1]):
        total = total + sq[..., k]
    return np.sqrt(total)


class TorusMap:
    """Common interface for the dynamical systems in this package."""

    dim: int
    name: str
    invertible: bool = True
    constant_jacobian = None   # Df at every point, if it does not depend on the point

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "jacobian_many" in vars(cls) and "constant_jacobian" not in vars(cls):
            cls.constant_jacobian = None   # a new Jacobian is not the parent's constant

    @property
    def factors(self):
        """(factor map, first coordinate) pairs, in coordinate order, over
        which the Jacobian is block diagonal; by default the map alone.  The
        cocycle reads every Jacobian and backward orbit from a factor map,
        and Product24's kernels run its factors', so a product changes a
        block by changing its factor."""
        return ((self, 0),)

    def step_many(self, pts):
        raise NotImplementedError

    def inverse_many(self, pts):
        raise NotImplementedError

    def jacobian_many(self, pts):
        raise NotImplementedError

    def orbit(self, p, n):
        """Forward orbit of a wrapped start p as an (n+1, d) array."""
        return _orbit_many(self, p, n, None, self.step_many)[:, 0]

    def _check(self, pts):
        pts = np.asarray(pts, dtype=float)
        if pts.shape[-1] != self.dim:
            raise DimensionMismatchError(
                f"{self.name} expects dimension {self.dim}, got {pts.shape[-1]}")
        return pts


class CatMap(TorusMap):
    """Hyperbolic automorphism (y, z) |-> (2y + z, y + z) mod 1."""

    dim = 2
    name = "cat"
    constant_jacobian = CAT_MATRIX

    def step_many(self, pts):
        return wrap(self._check(pts) @ CAT_MATRIX.T)

    def inverse_many(self, pts):
        return wrap(self._check(pts) @ CAT_INVERSE.T)

    def jacobian_many(self, pts):
        jac = np.empty(self._check(pts).shape[:-1] + (2, 2))
        jac[...] = CatMap.constant_jacobian
        return jac

    def orbit(self, p, n):
        # Plain floats skip the per-step numpy overhead.  2y + z and y + z
        # round once, as in the matrix product, and % 1.0 of a value >= 0 is
        # the exact x - floor(x) that wrap applies, so the points equal
        # step()'s bit for bit (dyadic starts stay on their lattice).
        y, z = float(p[0]), float(p[1])
        pts = [(y, z)]
        for _ in range(n):
            y, z = (2.0 * y + z) % 1.0, (y + z) % 1.0
            pts.append((y, z))
        return np.array(pts)


class CircleG(TorusMap):
    """The circle factor g alone, as a 1-dimensional system."""

    dim = 1
    name = "circle-g"

    def step_many(self, pts):
        return g_map(self._check(pts))

    def inverse_many(self, pts):
        return g_inverse(self._check(pts))

    def jacobian_many(self, pts):
        return g_prime(self._check(pts))[..., None]

    def orbit(self, p, n):
        return np.array(_g_orbit1(float(p[0]), n))[:, None]


class Product24(TorusMap):
    """CircleG x CatMap on T^3 = S^1 x T^2; every kernel runs its factors'."""

    dim = 3
    name = "product24"
    factors = ((CircleG(), 0), (CatMap(), 1))

    def step_many(self, pts):
        return self._by_factor(pts, "step_many")

    def inverse_many(self, pts):
        return self._by_factor(pts, "inverse_many")

    def jacobian_many(self, pts):
        pts = self._check(pts)
        jac = np.zeros(pts.shape[:-1] + (self.dim, self.dim))
        for m, s in self.factors:
            jac[..., s:s + m.dim, s:s + m.dim] = m.jacobian_many(pts[..., s:s + m.dim])
        return jac

    def orbit(self, p, n):
        return np.concatenate([m.orbit(p[s:s + m.dim], n) for m, s in self.factors], axis=1)

    def _by_factor(self, pts, kernel):
        pts = self._check(pts)
        out = np.empty_like(pts)
        for m, s in self.factors:
            out[..., s:s + m.dim] = getattr(m, kernel)(pts[..., s:s + m.dim])
        return out


_FORMULA_FUNCS = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp, "log": np.log,
    "sqrt": np.sqrt, "abs": np.abs, "mod": np.mod, "floor": np.floor,
    "where": np.where,
}
_FORMULA_CONSTS = {"pi": np.float64(np.pi)}
_FORMULA_OPS = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
    ast.Div: operator.truediv, ast.FloorDiv: operator.floordiv,
    ast.Mod: operator.mod, ast.Pow: operator.pow,
    ast.UAdd: operator.pos, ast.USub: operator.neg,
    ast.Lt: operator.lt, ast.LtE: operator.le, ast.Gt: operator.gt,
    ast.GtE: operator.ge, ast.Eq: operator.eq, ast.NotEq: operator.ne,
}


def _compile_formula(text, dim):
    """Compile one config formula into a function of the coordinate list.

    Only numeric constants, ``pi``, the coordinates x0..x{dim-1}, arithmetic,
    unary and single comparison operators and calls of ``_FORMULA_FUNCS`` are
    accepted; anything else (attributes, subscripts, lambdas, other names)
    raises ValueError, so a config file cannot reach arbitrary code.
    """
    coords = {f"x{i}": i for i in range(dim)}

    def build(node):
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            value = np.float64(node.value)
            return lambda xs: value
        if isinstance(node, ast.Name) and node.id in coords:
            i = coords[node.id]
            return lambda xs: xs[i]
        if isinstance(node, ast.Name) and node.id in _FORMULA_CONSTS:
            value = _FORMULA_CONSTS[node.id]
            return lambda xs: value
        if isinstance(node, ast.BinOp) and type(node.op) in _FORMULA_OPS:
            op, left, right = _FORMULA_OPS[type(node.op)], build(node.left), build(node.right)
            return lambda xs: op(left(xs), right(xs))
        if isinstance(node, ast.UnaryOp) and type(node.op) in _FORMULA_OPS:
            op, arg = _FORMULA_OPS[type(node.op)], build(node.operand)
            return lambda xs: op(arg(xs))
        if (isinstance(node, ast.Compare) and len(node.ops) == 1
                and type(node.ops[0]) in _FORMULA_OPS):
            op = _FORMULA_OPS[type(node.ops[0])]
            left, right = build(node.left), build(node.comparators[0])
            return lambda xs: op(left(xs), right(xs))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _FORMULA_FUNCS and not node.keywords
                and not any(isinstance(a, ast.Starred) for a in node.args)):
            fn, args = _FORMULA_FUNCS[node.func.id], [build(a) for a in node.args]
            return lambda xs: fn(*(a(xs) for a in args))
        what = (node.id if isinstance(node, ast.Name)
                else f"call of {ast.unparse(node.func)}" if isinstance(node, ast.Call)
                else type(node).__name__)
        raise ValueError(f"formula {text!r}: {what} is not allowed")

    try:
        return build(ast.parse(str(text).strip(), mode="eval").body)
    except SyntaxError as exc:
        raise ValueError(f"formula {text!r}: {exc.msg}") from None
    except (RecursionError, MemoryError):
        raise ValueError(f"formula {str(text)[:40]!r}...: nested too deeply") from None


class CompositeMap(TorusMap):
    """User-defined map from coordinate formula strings in x0..x{d-1}:
    ``map`` and ``inverse`` give one per coordinate, ``jacobian`` a d x d grid
    of analytic derivatives, and ``e_basis`` with ``f_basis`` pins a reference
    splitting.  A bad field is a ValueError that names it."""

    name = "composite"

    def __init__(self, dim, map, jacobian, inverse=None, e_basis=None, f_basis=None,
                 name=None):
        if not (isinstance(dim, (int, float)) and not isinstance(dim, bool)
                and dim % 1 == 0 and dim >= 1):
            raise UnsupportedSystemError(f"composite 'dim' must be an integer >= 1, got {dim!r}")
        self.dim = d = int(dim)
        self._map = [_compile_formula(t, d) for t in _entries("map", map, d)]
        self._jacobian = [_compile_formula(t, d)
                          for i, row in enumerate(_entries("jacobian", jacobian, d))
                          for t in _entries(f"jacobian[{i}]", row, d)]
        self.invertible = inverse is not None
        self._inverse = None if inverse is None else [
            _compile_formula(t, d) for t in _entries("inverse", inverse, d)]
        if (e_basis is None) != (f_basis is None):
            raise UnsupportedSystemError(
                f"composite {'e_basis' if f_basis is None else 'f_basis'!r} needs its partner")
        self.splitting = None if e_basis is None else Splitting(
            _entries("e_basis", e_basis, d), _entries("f_basis", f_basis, d))
        self.name = str(name or self.name)

    def step_many(self, pts):
        return wrap(self._run(self._map, self._check(pts)))

    def inverse_many(self, pts):
        if not self.invertible:
            raise NotInvertibleError(f"{self.name} has no inverse map")
        return wrap(self._run(self._inverse, self._check(pts)))

    def jacobian_many(self, pts):
        pts = self._check(pts)
        return self._run(self._jacobian, pts).reshape(pts.shape[:-1] + (self.dim, self.dim))

    def _run(self, code, pts):
        """The compiled formulas ``code`` at ``pts``, on a last axis; a constant broadcasts."""
        xs = [pts[..., i] for i in range(self.dim)]
        out = np.empty(pts.shape[:-1] + (len(code),))
        for k, f in enumerate(code):
            out[..., k] = f(xs)
        return out


def _entries(key, value, dim):
    """``value``, a list of one entry per coordinate; else bad input naming ``key``."""
    if not isinstance(value, (list, tuple)) or len(value) != dim:
        raise DimensionMismatchError(f"composite {key!r} needs {dim} entries, got {value!r}")
    return value


_BUILTINS = {"cat": CatMap, "circle-g": CircleG, "product24": Product24}
_COMPOSITE_KEYS = ("dim", "map", "jacobian", "inverse", "e_basis", "f_basis", "name")


def make_system(spec):
    """Create a system from a name ('cat', 'circle-g', 'product24') or config dict."""
    if isinstance(spec, TorusMap):
        return spec
    spec = {"kind": spec} if isinstance(spec, str) else spec
    if not isinstance(spec, dict):
        raise UnsupportedSystemError(f"cannot build a system from {type(spec).__name__}")
    kind = spec.get("kind", "composite")
    rest = {key: value for key, value in spec.items() if key != "kind"}
    if kind == "composite":
        unknown = sorted(rest.keys() - set(_COMPOSITE_KEYS), key=str)
        missing = [key for key in ("dim", "map", "jacobian") if key not in rest]
        if unknown or missing:
            raise UnsupportedSystemError(f"composite config has unknown keys {unknown}" if unknown
                                         else f"composite config missing key {missing[0]!r}")
        return CompositeMap(**rest)
    if not (isinstance(kind, str) and kind in _BUILTINS):
        raise UnsupportedSystemError(f"unknown system {kind!r}; choose from {sorted(_BUILTINS)}")
    if rest:
        raise UnsupportedSystemError(
            f"system {kind!r} takes no other keys, got {sorted(rest, key=str)}")
    return _BUILTINS[kind]()


@dataclass(frozen=True, eq=False)
class Splitting:
    """A direct-sum splitting E + F of the tangent space, unit basis columns.

    ``e_basis`` is (d, dim E), ``f_basis`` is (d, dim F) with
    dim E + dim F = d and E, F transverse.  ``_frames`` maps 'e' and 'f' to
    an orthonormal basis of the bundle, read-only; ``_plans`` caches the
    cocycle's sub-bundles and their runs per factor layout.  A numerically
    rank-deficient bundle basis raises DegenerateSplittingError, from orthonormalize.
    """

    e_basis: np.ndarray
    f_basis: np.ndarray
    _frames: dict = field(init=False, repr=False)
    _plans: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        e = np.atleast_2d(np.asarray(self.e_basis, dtype=float))
        f = np.atleast_2d(np.asarray(self.f_basis, dtype=float))
        if e.shape[0] != f.shape[0]:
            raise DimensionMismatchError("E and F live in different ambient dimensions")
        d = e.shape[0]
        if e.shape[1] + f.shape[1] != d:
            raise DimensionMismatchError(
                f"dim E + dim F = {e.shape[1]} + {f.shape[1]} != ambient {d}")
        norms_e = np.linalg.norm(e, axis=0)
        norms_f = np.linalg.norm(f, axis=0)
        if np.any(norms_e == 0.0) or np.any(norms_f == 0.0):
            raise DegenerateSplittingError("zero basis vector in splitting")
        e = e / norms_e
        f = f / norms_f
        e.flags.writeable = f.flags.writeable = False  # _frames holds their QRs
        if np.linalg.matrix_rank(np.hstack([e, f])) != d:
            raise DegenerateSplittingError("E and F are not transverse")
        frames = {"e": orthonormalize(e), "f": orthonormalize(f)}
        frames["e"].flags.writeable = frames["f"].flags.writeable = False
        object.__setattr__(self, "e_basis", e)
        object.__setattr__(self, "f_basis", f)
        object.__setattr__(self, "_frames", frames)

    @property
    def dim(self):
        return self.e_basis.shape[0]


def orthonormalize(basis):
    """Orthonormal basis with the same span; rejects rank-deficient input."""
    b = np.atleast_2d(np.asarray(basis, dtype=float))
    if b.shape[0] < b.shape[1]:
        raise DimensionMismatchError(f"basis of shape {b.shape} has too many columns")
    q, r = np.linalg.qr(b)
    if np.any(np.abs(np.diag(r)) < 1e-12 * max(1.0, float(np.abs(b).max()))):
        raise DegenerateSplittingError("basis is numerically rank deficient")
    return q


def reference_splitting(system):
    """The natural invariant splitting of a builtin hyperbolic system, or the
    one a composite system's config pins; constant in coordinates."""
    if isinstance(system, CatMap):
        e = np.array([[(1.0 - _SQRT5) / 2.0], [1.0]])
        f = np.array([[1.0], [(_SQRT5 - 1.0) / 2.0]])
        return Splitting(e, f)
    if isinstance(system, Product24):   # the circle axis joins the cat map's E
        cat = reference_splitting(CatMap())
        return Splitting(np.block([[1.0, 0.0], [np.zeros((2, 1)), cat.e_basis]]),
                         np.vstack([[0.0], cat.f_basis]))
    if isinstance(system, CompositeMap) and system.splitting is not None:
        return system.splitting
    raise UnsupportedSystemError(
        f"no reference splitting defined for system {system.name!r}")


def orbit_points(system, p, n):
    """Forward orbit as an (n+1, d) array; points wrapped into [0, 1)."""
    return system.orbit(as_point(p, system.dim), n)


def orbit_many(system, starts, n):
    """Forward orbits of a batch of starts: (n+1, B, d)."""
    return _orbit_many(system, starts, n, system.orbit, system.step_many)


def orbit_many_back(system, starts, n):
    """Backward orbits of a batch of starts: row t holds f^{-t}, (n+1, B, d)."""
    return _orbit_many(system, starts, n, None, system.inverse_many)


def _orbit_many(system, starts, n, orbit, step_many):
    """A batch of one runs the system's single-start kernel ``orbit``, if
    given; otherwise ``step_many`` steps all starts at once."""
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    if len(starts) == 1 and orbit:
        return orbit(as_point(starts[0], system.dim), n)[:, None]
    if not np.isfinite(starts).all():
        raise ValueError("starts have a non-finite coordinate")
    out = np.empty((n + 1,) + starts.shape)
    out[0] = wrap(starts)
    for t in range(n):
        out[t + 1] = step_many(out[t])
    return out
