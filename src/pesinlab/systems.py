"""Torus maps, their derivatives, and invariant splittings.

Points on the d-torus are numpy arrays with coordinates in [0, 1).  Distances
use nearest-representative differences and the flat Euclidean norm.  Three
systems are built in:

* ``CatMap``      -- the linear automorphism (y, z) |-> (2y + z, y + z) on T^2.
* ``CircleG``     -- a circle diffeomorphism with an attracting fixed point at
                     0 (slope 1/2) and a repelling one at 1/2 (slope (3+sqrt5)/2).
* ``Product24``   -- CircleG x CatMap on T^3.

``CompositeMap`` wraps user-supplied coordinate formulas with analytic
Jacobians, as read from CLI config files.
"""

from __future__ import annotations

import ast
import bisect
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
    "orthonormalize",
    "TorusMap",
    "CatMap",
    "CircleG",
    "Product24",
    "CompositeMap",
    "make_system",
    "as_point",
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


def _sinpi(t):
    """sin(pi t), exact 0 at integer t (unlike sin(pi * t) in floats)."""
    r = np.mod(np.asarray(t, dtype=float), 2.0)
    sign = np.where(r > 1.0, -1.0, 1.0)
    r = np.where(r > 1.0, r - 1.0, r)
    r = np.where(r > 0.5, 1.0 - r, r)  # exact reflection
    return sign * np.sin(np.pi * r)


def _cospi(t):
    """cos(pi t), exact +-1 at integer t."""
    r = np.mod(np.asarray(t, dtype=float), 2.0)
    r = np.where(r > 1.0, 2.0 - r, r)  # cos is even around t = 1
    sign = np.where(r > 0.5, -1.0, 1.0)
    r = np.where(r > 0.5, 1.0 - r, r)
    return sign * np.cos(np.pi * r)


def g_map(x):
    return wrap(g_map_lift(np.mod(x, 1.0)))


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
    y = np.mod(np.asarray(y, dtype=float), 1.0)
    scalar = y.ndim == 0
    y = np.atleast_1d(y)
    w = np.interp(y, _G_TABLE_Y, _G_TABLE_X)
    slope = g_prime(w)
    for _ in range(4):
        w = w - (g_map_lift(w) - y) / slope
    w = np.clip(w, 0.0, 1.0)
    w = np.where(y == 0.0, 0.0, w)
    w = np.where(y == 0.5, 0.5, w)
    w = wrap(w)
    return float(w[0]) if scalar else w


def g_map_lift(x):
    """Lift of g to [0, 1] without the final wrap (monotone on [0, 1])."""
    x = np.asarray(x, dtype=float)
    return x + _G_C1 * _sinpi(2.0 * x) + _G_C2 * _sinpi(4.0 * x)


# Nodes x_i and values g(x_i) of the lift; g is increasing, so (y_i, x_i)
# tabulates the inverse for the Newton seed in g_inverse.
_G_TABLE_X = np.linspace(0.0, 1.0, 4097)
_G_TABLE_Y = g_map_lift(_G_TABLE_X)


# Plain-float twins of the circle functions above, for single-start orbits,
# where numpy's per-call overhead outweighs the work.  Each repeats its array
# twin operation for operation: Python's float % is numpy's mod, and
# math.sin/math.cos must return np.sin/np.cos's bits.  tests/test_systems.py
# checks both, so a numpy build whose trig differs fails there.

def _wrap1(x):
    r = x % 1.0
    return 0.0 if r == 1.0 else r


def _sinpi1(t):
    r = t % 2.0
    sign = 1.0
    if r > 1.0:
        sign, r = -1.0, r - 1.0
    if r > 0.5:
        r = 1.0 - r
    return sign * math.sin(math.pi * r)


def _cospi1(t):
    r = t % 2.0
    if r > 1.0:
        r = 2.0 - r
    sign = 1.0
    if r > 0.5:
        sign, r = -1.0, 1.0 - r
    return sign * math.cos(math.pi * r)


def _g_lift1(x):
    return x + _G_C1 * _sinpi1(2.0 * x) + _G_C2 * _sinpi1(4.0 * x)


def _g_prime1(x):
    return 1.0 + G_B1 * _cospi1(2.0 * x) + G_B2 * _cospi1(4.0 * x)


def _g_map1(x):
    return _wrap1(_g_lift1(x % 1.0))


_G_NODES_X = _G_TABLE_X.tolist()
_G_NODES_Y = _G_TABLE_Y.tolist()
# The slope past the last node is 0, so y = 1.0 (what y % 1.0 gives for a
# tiny negative y) seeds at x = 1, as np.interp does at the right end.
_G_NODE_SLOPES = (np.diff(_G_TABLE_X) / np.diff(_G_TABLE_Y)).tolist() + [0.0]


def _g_inverse1(y):
    """g_inverse of one float.  The seed is np.interp's formula on the
    node pair bracketing y (the table runs from g(0) = 0 to g(1) = 1)."""
    y = y % 1.0
    j = bisect.bisect_right(_G_NODES_Y, y) - 1
    w = _G_NODE_SLOPES[j] * (y - _G_NODES_Y[j]) + _G_NODES_X[j]
    slope = _g_prime1(w)
    for _ in range(4):
        w = w - (_g_lift1(w) - y) / slope
    w = min(max(w, 0.0), 1.0)
    if y == 0.0 or y == 0.5:
        w = y
    return _wrap1(w)


def _iterate1(fn, x, n):
    """[x, fn(x), ..., fn^n(x)] for one float x."""
    xs = [x]
    for _ in range(n):
        x = fn(x)
        xs.append(x)
    return xs


def wrap(x):
    """Reduce coordinates to [0, 1); mod can round up to 1.0 for tiny negatives."""
    r = np.mod(np.asarray(x, dtype=float), 1.0)
    return np.where(r == 1.0, 0.0, r)


def as_point(coords, dim=None):
    p = np.atleast_1d(np.asarray(coords, dtype=float))
    if p.ndim != 1:
        raise DimensionMismatchError(f"point must be 1-d, got shape {p.shape}")
    if dim is not None and p.shape[0] != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {p.shape[0]}")
    return wrap(p)


def torus_diff(a, b):
    """Nearest-representative difference a - b, componentwise in [-1/2, 1/2)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[-1] != b.shape[-1]:
        raise DimensionMismatchError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return np.mod(a - b + 0.5, 1.0) - 0.5


def torus_distance(a, b):
    """Flat metric on the torus (Euclidean norm of the nearest difference)."""
    return np.linalg.norm(torus_diff(a, b), axis=-1)


class TorusMap:
    """Common interface for the dynamical systems in this package."""

    dim: int
    name: str
    invertible: bool = True

    def step(self, p):
        return self.step_many(np.asarray(p, dtype=float)[None, :])[0]

    def inverse_step(self, p):
        return self.inverse_many(np.asarray(p, dtype=float)[None, :])[0]

    def step_many(self, pts):
        raise NotImplementedError

    def inverse_many(self, pts):
        raise NotImplementedError

    def jacobian_many(self, pts):
        raise NotImplementedError

    def orbit(self, p, n):
        """Forward orbit of a wrapped start p as an (n+1, d) array."""
        pts = np.empty((n + 1, self.dim))
        pts[0] = p
        for t in range(n):
            pts[t + 1] = self.step(pts[t])
        return pts

    def orbit_back(self, p, n):
        """Backward orbit of a wrapped start p: row t holds f^{-t}(p)."""
        pts = np.empty((n + 1, self.dim))
        pts[0] = p
        for t in range(n):
            pts[t + 1] = self.inverse_step(pts[t])
        return pts

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

    def step_many(self, pts):
        return wrap(self._check(pts) @ CAT_MATRIX.T)

    def inverse_many(self, pts):
        return wrap(self._check(pts) @ CAT_INVERSE.T)

    def jacobian_many(self, pts):
        pts = self._check(pts)
        return np.broadcast_to(CAT_MATRIX, pts.shape[:-1] + (2, 2)).copy()

    def orbit(self, p, n):
        # Plain floats skip the per-step numpy overhead.  2y + z and y + z
        # round once, as in the matrix product, and % 1.0 of a value >= 0 is
        # the exact fmod that wrap applies, so the points equal step()'s bit
        # for bit (dyadic starts stay on their lattice).
        y, z = float(p[0]), float(p[1])
        pts = [(y, z)]
        for _ in range(n):
            y, z = (2.0 * y + z) % 1.0, (y + z) % 1.0
            pts.append((y, z))
        return np.array(pts)

    def orbit_back(self, p, n):
        # y - z and 2z - y round once, as in the matrix product with
        # CAT_INVERSE; they can be negative, so each is wrapped as wrap does.
        y, z = float(p[0]), float(p[1])
        pts = [(y, z)]
        for _ in range(n):
            y, z = _wrap1(y - z), _wrap1(2.0 * z - y)
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
        pts = self._check(pts)
        return g_prime(pts)[..., None]

    def orbit(self, p, n):
        return np.array(_iterate1(_g_map1, float(p[0]), n))[:, None]

    def orbit_back(self, p, n):
        return np.array(_iterate1(_g_inverse1, float(p[0]), n))[:, None]


class Product24(TorusMap):
    """Product of the circle factor with the cat map on T^3 = S^1 x T^2."""

    dim = 3
    name = "product24"

    def step_many(self, pts):
        pts = self._check(pts)
        out = np.empty_like(pts)
        out[..., 0] = g_map(pts[..., 0])
        out[..., 1:] = wrap(pts[..., 1:] @ CAT_MATRIX.T)
        return out

    def inverse_many(self, pts):
        pts = self._check(pts)
        out = np.empty_like(pts)
        out[..., 0] = g_inverse(pts[..., 0])
        out[..., 1:] = wrap(pts[..., 1:] @ CAT_INVERSE.T)
        return out

    def jacobian_many(self, pts):
        pts = self._check(pts)
        n = pts.shape[:-1]
        jac = np.zeros(n + (3, 3))
        jac[..., 0, 0] = g_prime(pts[..., 0])
        jac[..., 1:, 1:] = CAT_MATRIX
        return jac

    # The factors are independent, so an orbit is the circle orbit of x0
    # beside the cat orbit of (x1, x2).
    def orbit(self, p, n):
        return np.column_stack((_CIRCLE.orbit(p[:1], n), _CAT.orbit(p[1:], n)))

    def orbit_back(self, p, n):
        return np.column_stack((_CIRCLE.orbit_back(p[:1], n),
                                _CAT.orbit_back(p[1:], n)))


_CIRCLE, _CAT = CircleG(), CatMap()


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
    """User-defined map given by per-coordinate callables.

    ``forward`` and ``inverse`` take and return (..., d) arrays of wrapped
    coordinates; ``jacobian_fn`` returns a (..., d, d) stack of analytic
    derivatives.  ``splitting`` may pin a reference splitting for the
    certificate machinery.
    """

    name = "composite"

    def __init__(self, dim, forward, jacobian_fn, inverse=None, splitting=None,
                 name=None):
        self.dim = int(dim)
        self._forward = forward
        self._jacobian = jacobian_fn
        self._inverse = inverse
        self.invertible = inverse is not None
        self.splitting = splitting
        if name:
            self.name = str(name)

    def step_many(self, pts):
        return wrap(self._forward(self._check(pts)))

    def inverse_many(self, pts):
        if self._inverse is None:
            raise NotInvertibleError(f"{self.name} has no inverse map")
        return wrap(self._inverse(self._check(pts)))

    def jacobian_many(self, pts):
        pts = self._check(pts)
        jac = np.asarray(self._jacobian(pts), dtype=float)
        want = pts.shape[:-1] + (self.dim, self.dim)
        return np.broadcast_to(jac, want).copy() if jac.shape != want else jac

    @classmethod
    def from_expressions(cls, dim, map_exprs, jac_exprs, inverse_exprs=None,
                         e_basis=None, f_basis=None, name=None):
        """Build a system from coordinate formula strings in x0..x{d-1}."""
        dim = int(dim)
        if len(map_exprs) != dim:
            raise DimensionMismatchError("need one map formula per coordinate")
        if len(jac_exprs) != dim or any(len(row) != dim for row in jac_exprs):
            raise DimensionMismatchError("jacobian formulas must form a d x d grid")

        def compile_all(exprs):
            return [_compile_formula(e, dim) for e in exprs]

        map_code = compile_all(map_exprs)
        jac_code = [compile_all(row) for row in jac_exprs]
        inv_code = compile_all(inverse_exprs) if inverse_exprs else None

        def run(code_list, pts):
            xs = [pts[..., i] for i in range(dim)]
            return np.stack([np.broadcast_to(np.asarray(f(xs), dtype=float),
                                             pts.shape[:-1]) for f in code_list],
                            axis=-1)

        forward = lambda pts: run(map_code, pts)
        inverse = (lambda pts: run(inv_code, pts)) if inv_code else None

        def jacobian_fn(pts):
            return np.stack([run(row, pts) for row in jac_code], axis=-2)

        splitting = None
        if e_basis is not None and f_basis is not None:
            splitting = Splitting(np.asarray(e_basis, float), np.asarray(f_basis, float))
        return cls(dim, forward, jacobian_fn, inverse=inverse,
                   splitting=splitting, name=name)


_BUILTINS = {"cat": CatMap, "circle-g": CircleG, "product24": Product24}


def make_system(spec):
    """Create a system from a name ('cat', 'circle-g', 'product24') or config dict."""
    if isinstance(spec, TorusMap):
        return spec
    if isinstance(spec, str):
        try:
            return _BUILTINS[spec]()
        except KeyError:
            raise UnsupportedSystemError(
                f"unknown system {spec!r}; choose from {sorted(_BUILTINS)}") from None
    if isinstance(spec, dict):
        kind = spec.get("kind", "composite")
        if kind in _BUILTINS:
            return _BUILTINS[kind]()
        if kind != "composite":
            raise UnsupportedSystemError(f"unknown system kind {kind!r}")
        try:
            return CompositeMap.from_expressions(
                spec["dim"], spec["map"], spec["jacobian"],
                inverse_exprs=spec.get("inverse"),
                e_basis=spec.get("e_basis"), f_basis=spec.get("f_basis"),
                name=spec.get("name"))
        except KeyError as missing:
            raise UnsupportedSystemError(f"composite config missing key {missing}") from None
    raise UnsupportedSystemError(f"cannot build a system from {type(spec).__name__}")


@dataclass(frozen=True, eq=False)
class Splitting:
    """A direct-sum splitting E + F of the tangent space, unit basis columns.

    ``e_basis`` is (d, dim E), ``f_basis`` is (d, dim F) with
    dim E + dim F = d and E, F transverse.  ``_frames`` maps 'e' and 'f' to
    (B, Q), read-only: an orthonormal basis B of the bundle and the square
    orthogonal Q = [B | C], C spanning its complement.  A numerically
    rank-deficient bundle basis raises DegenerateSplittingError, from orthonormalize.
    """

    e_basis: np.ndarray
    f_basis: np.ndarray
    _frames: dict = field(init=False, repr=False)

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
        frames = {}
        for name, basis in (("e", e), ("f", f)):
            b = orthonormalize(basis)
            q = np.hstack([b, np.linalg.qr(b, mode="complete")[0][:, b.shape[1]:]])
            b.flags.writeable = q.flags.writeable = False
            frames[name] = b, q
        object.__setattr__(self, "e_basis", e)
        object.__setattr__(self, "f_basis", f)
        object.__setattr__(self, "_frames", frames)

    @property
    def dim(self):
        return self.e_basis.shape[0]

    @property
    def dim_e(self):
        return self.e_basis.shape[1]

    @property
    def dim_f(self):
        return self.f_basis.shape[1]


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
    if isinstance(system, Product24):
        e2 = np.array([(1.0 - _SQRT5) / 2.0, 1.0])
        e2 = e2 / np.linalg.norm(e2)
        f2 = np.array([1.0, (_SQRT5 - 1.0) / 2.0])
        f2 = f2 / np.linalg.norm(f2)
        e = np.zeros((3, 2))
        e[0, 0] = 1.0
        e[1:, 1] = e2
        f = np.zeros((3, 1))
        f[1:, 0] = f2
        return Splitting(e, f)
    if isinstance(system, CompositeMap) and system.splitting is not None:
        return system.splitting
    raise UnsupportedSystemError(
        f"no reference splitting defined for system {system.name!r}")


def orbit_points(system, p, n):
    """Forward orbit as an (n+1, d) array; points wrapped into [0, 1)."""
    return system.orbit(as_point(p, system.dim), n)


def orbit_points_back(system, p, n):
    """Backward orbit: row t holds f^{-t}(p), t = 0..n."""
    return system.orbit_back(as_point(p, system.dim), n)


def orbit_many(system, starts, n):
    """Forward orbits of a batch of starts: (n+1, B, d)."""
    return _orbit_many(system, starts, n, system.orbit, system.step_many)


def orbit_many_back(system, starts, n):
    """Backward orbits of a batch of starts: row t holds f^{-t}, (n+1, B, d)."""
    return _orbit_many(system, starts, n, system.orbit_back, system.inverse_many)


def _orbit_many(system, starts, n, orbit, step_many):
    """A batch of one runs the system's single-start kernel; a larger batch
    steps all starts at once."""
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    if len(starts) == 1:
        return orbit(as_point(starts[0], system.dim), n)[:, None]
    out = np.empty((n + 1,) + starts.shape)
    out[0] = wrap(starts)
    for t in range(n):
        out[t + 1] = step_many(out[t])
    return out
