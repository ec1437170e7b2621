"""Command-line front end: batch runs over the library with JSON/CSV output.

A run is configured by an optional JSON file (``--config``) plus flag
overrides; flags win.  Floats print with 17 significant digits and every
random draw is seeded, so identical configuration gives byte-identical
output.  Exit status: 0 on success, 1 when a solver or probe fails
numerically, 2 on bad input.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import cocycle, pesin, quasihyp, shadow, specmeas
from . import systems as dyn
from ._serialize import csv_text, dumps, fmt_float
from .errors import PesinLabError

# sqrt(2)-1, sqrt(3)-1, sqrt(5)-2: fixed generic base point per dimension
_DEFAULT_COORDS = (0.41421356237309515, 0.73205080756887729, 0.23606797749978969)

_DEFAULTS = {
    "exponents": {"system": "cat", "point": None, "fiber": None, "horizon": 100000,
                  "samples": 1, "seed": 0, "chunk": 8, "merge_tol": 1e-4},
    "classify": {"system": "product24", "point": None, "fiber": None, "K": 1,
                 "zeta": 0.4, "k": 1, "horizon": 200, "grid": 0, "points": None,
                 "samples": 0, "seed": 0, "geometry": False},
    "domination": {"system": "product24", "point": None, "fiber": None,
                   "K": 1, "horizon": 300},
    "partition": {"n": None, "k": None, "K": None},
    "qh-check": {"system": "cat", "file": None, "zeta": None, "k": 1, "K": 1,
                 "e": None, "delta": None},
    "shadow": {"system": "cat", "file": None, "tol": 1e-12, "max_iter": 50},
    "close": {"system": "cat", "point": None, "n": None, "tol": 1e-12},
    "glue": {"system": "cat", "mesh": 0.1, "min_n": 4, "horizon": 10000,
             "budget": 4, "seed": 0, "segments": 3, "len_min": 20, "len_max": 50,
             "cover_samples": 4000, "tol": 1e-12, "starts": None, "lengths": None},
    "measure": {"system": "cat", "point": None, "target_n": 20000, "delta": 0.25,
                "budgets": (1000, 3000, 8000), "degree": 3, "seed": 0,
                "n_segments": 3, "min_n": 2, "horizon": 4000, "sample_orbits": 4,
                "tol": 1e-12},
    "probe-L": {"system": "cat", "deltas": (1e-5, 1e-6, 1e-7), "trials": 10,
                "len_min": 20, "len_max": 50, "seed": 0, "tol": 1e-12},
    "probe-per": {"system": "cat", "samples": 100, "n_max": 30, "epsilon": 1e-2,
                  "gap_cap": 0.05, "seed": 0, "tol": 1e-12},
}

# Type of each option (of its entries, for a list): its default's, or the
# one given here where the default is None.
_TYPES = {key: type(v[0] if isinstance(v, tuple) else v) for spec in _DEFAULTS.values()
          for key, v in spec.items() if v is not None}
_TYPES.update(n=int, e=int, lengths=int, point=float, fiber=float, starts=float)
_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number"}


def _fits(value, kind):
    """Whether a config value (a list entry by entry) fits an option of type
    ``kind``: a bool only for a switch; a number or text, whole for an int."""
    if isinstance(value, list) and kind is not bool:
        return all(_fits(v, kind) for v in value)
    return isinstance(value, bool) == (kind is bool) and not (
        kind in (int, float) and not isinstance(value, (int, float, str))
        or kind is int and isinstance(value, float) and not value.is_integer())


def _numbers(value, kind=float):
    """A JSON list or comma-separated text as a list of ``kind``."""
    if isinstance(value, (list, tuple)):
        return [kind(v) for v in value]
    return [kind(tok) for tok in str(value).split(",") if tok.strip()]


def _point_rows(value):
    """Parse 'x,y;x,y;...' (or a nested list) into an (m, d) array."""
    if isinstance(value, (list, tuple)):
        return np.asarray(value, dtype=float)
    rows = [_numbers(tok) for tok in str(value).split(";") if tok.strip()]
    return np.asarray(rows, dtype=float)


def _finite(flag, values):
    """``values`` as a float array; a NaN or infinite coordinate is bad input."""
    x = np.asarray(values, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError(f"{flag} has a non-finite coordinate")
    return x


def _fiber(opt):
    fiber = float(opt["fiber"])
    _finite("--fiber", fiber)
    return fiber % 1.0


def _positive_int(name, value):
    value = int(value)
    if value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value}")
    return value


def _require(opt, key, flag):
    if opt.get(key) is None:
        raise ValueError(f"missing required option {flag}")
    return opt[key]


def _resolve_point(opt, system):
    """One base point from --point / --fiber / the per-dimension default."""
    d = system.dim
    if opt.get("point") is not None:
        x = _finite("--point", _numbers(opt["point"]))
        if x.shape != (d,):
            raise ValueError(f"--point needs {d} coordinates, got {x.size}")
        return dyn.wrap(x)
    x = np.array(_DEFAULT_COORDS[:d], dtype=float)
    if opt.get("fiber") is not None:
        if d < 2:
            raise ValueError("--fiber needs a system with a fiber coordinate")
        x[0] = _fiber(opt)
    return x


def _jsonl(records):
    return "".join(dumps(rec) + "\n" for rec in records)


def cmd_exponents(opt):
    system = dyn.make_system(opt["system"])
    horizon = _positive_int("--horizon", opt["horizon"])
    samples = _positive_int("--samples", opt["samples"])
    if samples == 1:
        points = [_resolve_point(opt, system)]
    else:
        rng = np.random.default_rng([int(opt["seed"]), 0])
        pts = rng.random((samples, system.dim))
        if opt.get("fiber") is not None:
            pts[:, 0] = _fiber(opt)
        points = list(pts)
    rows = []
    for s, x in enumerate(points):
        spec = cocycle.lyapunov_spectrum(system, x, horizon,
                                         chunk=int(opt["chunk"]),
                                         merge_tol=float(opt["merge_tol"]))
        for value, mult in zip(spec.exponents, spec.multiplicities):
            rows.append((s, value, mult))
    return csv_text(("sample", "exponent", "multiplicity"), rows)


def _classify_points(opt, system):
    grid = int(opt["grid"])
    if opt.get("points") is not None:
        pts = _finite("--points", np.loadtxt(opt["points"], delimiter=",", ndmin=2))
        if pts.shape[1] != system.dim:
            raise ValueError(
                f"points file has {pts.shape[1]} columns, system needs {system.dim}")
        return pts
    if grid > 0:
        if system.dim < 2:
            raise ValueError("--grid sweeps the fiber coordinate of a product system")
        pts = np.tile(np.array(_DEFAULT_COORDS[:system.dim]), (grid, 1))
        pts[:, 0] = (np.arange(grid) + 0.5) / grid
        return pts
    samples = int(opt["samples"])
    if samples > 0:
        rng = np.random.default_rng([int(opt["seed"]), 0])
        return rng.random((samples, system.dim))
    return np.atleast_2d(_resolve_point(opt, system))


def cmd_classify(opt):
    system = dyn.make_system(opt["system"])
    splitting = dyn.reference_splitting(system)
    params = pesin.PesinParams(K=int(opt["K"]), zeta=float(opt["zeta"]),
                               k=int(opt["k"]))
    horizon = _positive_int("--horizon", opt["horizon"])
    points = _classify_points(opt, system)

    chi_e, chi_f = pesin.mean_hyperbolicity_degree(
        system, points[0], splitting, params.K, 512)
    beta_hat = -chi_e if chi_f is None else min(-chi_e, chi_f)   # no inverse: E alone
    if params.zeta >= beta_hat:
        print(f"warning: zeta = {fmt_float(params.zeta)} >= estimated budget "
              f"beta = {fmt_float(beta_hat)}; no block can certify this rate",
              file=sys.stderr)

    certs = pesin.check_block_membership_many(system, points, splitting,
                                              params, horizon)
    records = [{"point": [float(v) for v in x], **cert.to_dict()}
               for x, cert in zip(points, certs)]
    if opt["geometry"]:
        if not isinstance(system, dyn.Product24):
            raise ValueError("--geometry is defined for the product24 system")
        geo = pesin.block_geometry_product24(
            params.zeta, params.k, grid_n=max(int(opt["grid"]), 1000),
            horizon=horizon, K=params.K)
        records.append({"geometry": geo.to_dict()})
    return _jsonl(records)


def cmd_domination(opt):
    system = dyn.make_system(opt["system"])
    splitting = dyn.reference_splitting(system)
    x = _resolve_point(opt, system)
    horizon = _positive_int("--horizon", opt["horizon"])
    report = cocycle.mean_exponents(system, x, splitting, int(opt["K"]), horizon)
    return dumps(report.to_dict()) + "\n"


def cmd_partition(opt):
    n = _positive_int("--n", _require(opt, "n", "--n"))
    k = _positive_int("--k", _require(opt, "k", "--k"))
    K = _positive_int("--K", _require(opt, "K", "--K"))
    part = quasihyp.canonical_partition(n, k, K)
    return dumps({"n": n, "k": k, "K": K, "m": part.m,
                  "max_gap": part.max_gap, "times": list(part.times)}) + "\n"


def cmd_qh_check(opt):
    system = dyn.make_system(opt["system"])
    pseudo = shadow.read_pseudo_orbit(_require(opt, "file", "--file"))
    if pseudo.dim != system.dim:
        raise ValueError(
            f"pseudo-orbit dimension {pseudo.dim} != system dimension {system.dim}")
    zeta = float(_require(opt, "zeta", "--zeta"))
    e = None if opt.get("e") is None else int(opt["e"])
    delta = None if opt.get("delta") is None else float(opt["delta"])
    _, report = quasihyp.check_qh_pseudo_orbit(
        system, pseudo, dyn.reference_splitting(system), zeta, e, delta,
        int(opt["k"]), int(opt["K"]))
    return dumps(report) + "\n"


def cmd_shadow(opt):
    system = dyn.make_system(opt["system"])
    pseudo = shadow.read_pseudo_orbit(_require(opt, "file", "--file"))
    result = shadow.solve_shadow(system, pseudo, tol=float(opt["tol"]),
                                 max_iter=int(opt["max_iter"]))
    return dumps(result.to_dict()) + "\n"


def cmd_close(opt):
    system = dyn.make_system(opt["system"])
    _require(opt, "point", "--point")
    x = _resolve_point(opt, system)
    n = _positive_int("--n", _require(opt, "n", "--n"))
    result = shadow.close_orbit(system, x, n, tol=float(opt["tol"]))
    return dumps(result.to_dict()) + "\n"


def cmd_glue(opt):
    system = dyn.make_system(opt["system"])
    shadow.check_tol(float(opt["tol"]))   # before the cover and the table are built
    mesh = float(opt["mesh"])
    if not 0.0 < mesh < np.inf:
        raise ValueError(f"--mesh must be finite and positive, got {mesh}")
    d = system.dim
    rng = np.random.default_rng([int(opt["seed"]), 0])
    m = _positive_int("--segments", opt["segments"])
    lo, hi = int(opt["len_min"]), int(opt["len_max"])

    starts = rng.random((m, d)) if opt.get("starts") is None \
        else _finite("--starts", _point_rows(opt["starts"]))
    lengths = rng.integers(lo, hi + 1, size=m) if opt.get("lengths") is None \
        else np.asarray(_numbers(opt["lengths"], int))
    if starts.shape != (m, d) or lengths.shape != (m,):
        raise ValueError(f"need {m} starts of dimension {d} and {m} lengths")

    segments = [(starts[i], int(lengths[i])) for i in range(m)]
    pieces = [dyn.orbit_points(system, x, n) for x, n in segments]
    pieces.append(dyn.orbit_points(system, rng.random(d),
                                   _positive_int("--cover-samples",
                                                 opt["cover_samples"])))
    cover = specmeas.build_cover(np.vstack(pieces), mesh)
    table = specmeas.transition_times(system, cover, int(opt["min_n"]),
                                      int(opt["horizon"]), int(opt["budget"]),
                                      seed=int(opt["seed"]))
    plan = specmeas.glue_segments(system, segments, cover, table)
    result = specmeas.specification_shadow(system, plan, tol=float(opt["tol"]))

    total = int(sum(n for _, n in segments))
    lo_p, hi_p = total + m * table.X1, total + m * table.X2
    return dumps({
        "period": result.period,
        "period_bounds": [lo_p, hi_p],
        "within_bounds": bool(lo_p <= result.period <= hi_p),
        "epsilon_achieved": result.epsilon_achieved,
        "residual": result.residual,
        "iterations": result.iterations,
        "z": [float(v) for v in result.z],
        # worst distance from the solved cycle to each glued-in segment; the
        # plan's chain alternates segments and connectors
        "deviations": [float(v) for v in
                       shadow.segment_deviations(result.points, plan.pseudo)[0][0::2]],
        "plan": plan.to_dict(),
    }) + "\n"


def cmd_measure(opt):
    system = dyn.make_system(opt["system"])
    x0 = _resolve_point(opt, system)
    target_n = _positive_int("--target-n", opt["target_n"])
    target = specmeas.EmpiricalMeasure.from_orbit(system, x0, target_n)
    budgets = _numbers(opt["budgets"], int)
    curve = specmeas.measure_curve(
        system, target, float(opt["delta"]), budgets, tol=float(opt["tol"]),
        **{k: int(opt[k]) for k in ("degree", "n_segments", "min_n", "horizon",
                                    "sample_orbits", "seed")})
    rows = [(b, len(m.points), dist) for b, (m, dist) in zip(budgets, curve)]
    return csv_text(("budget", "period", "distance"), rows)


def cmd_probe_l(opt):
    system = dyn.make_system(opt["system"])
    constants = shadow.estimate_shadowing_constant(
        system, _numbers(opt["deltas"]), _positive_int("--trials", opt["trials"]),
        (int(opt["len_min"]), int(opt["len_max"])),
        seed=int(opt["seed"]), tol=float(opt["tol"]))
    return dumps(constants.to_dict()) + "\n"


def cmd_probe_per(opt):
    system = dyn.make_system(opt["system"])
    rng = np.random.default_rng([int(opt["seed"]), 0])
    sample = rng.random((_positive_int("--samples", opt["samples"]), system.dim))
    _, report = shadow.periodic_density_probe(
        system, sample, _positive_int("--n-max", opt["n_max"]),
        float(opt["epsilon"]), gap_cap=float(opt["gap_cap"]),
        tol=float(opt["tol"]), return_report=True)
    return dumps(report) + "\n"


_COMMANDS = {
    "exponents": cmd_exponents,
    "classify": cmd_classify,
    "domination": cmd_domination,
    "partition": cmd_partition,
    "qh-check": cmd_qh_check,
    "shadow": cmd_shadow,
    "close": cmd_close,
    "glue": cmd_glue,
    "measure": cmd_measure,
    "probe-L": cmd_probe_l,
    "probe-per": cmd_probe_per,
}


def _add_flags(sub, spec):
    """One --flag per default key; unset flags stay out of the namespace."""
    for key, default in spec.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(default, bool):
            sub.add_argument(flag, dest=key, action="store_true",
                             default=argparse.SUPPRESS)
        elif isinstance(default, int):
            sub.add_argument(flag, dest=key, type=int, default=argparse.SUPPRESS)
        elif isinstance(default, float):
            sub.add_argument(flag, dest=key, type=float, default=argparse.SUPPRESS)
        else:
            sub.add_argument(flag, dest=key, default=argparse.SUPPRESS)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pesinlab",
        description="Block certificates, shadowing, and specification gluing "
                    "for torus maps.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file with option defaults")
    common.add_argument("--out", help="output file (default: stdout)")
    subs = parser.add_subparsers(dest="cmd", required=True)
    for name, spec in _DEFAULTS.items():
        sub = subs.add_parser(name, parents=[common])
        _add_flags(sub, spec)
    return parser


def _resolve_options(args):
    defaults = _DEFAULTS[args.cmd]
    merged = dict(defaults)
    if args.config:
        with open(args.config) as fh:
            try:
                cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"config {args.config}: {exc}") from None
        if not isinstance(cfg, dict):
            raise ValueError(f"config {args.config}: expected a JSON object")
        unknown = set(cfg) - set(defaults)
        if unknown:
            raise ValueError(f"config {args.config}: unknown keys {sorted(unknown)}")
        for key, value in cfg.items():
            kind = _TYPES.get(key)
            if not (value is None and defaults[key] is None or _fits(value, kind)):
                raise ValueError(f"config {args.config}: {key} must be "
                                 f"{_TYPE_NAMES.get(kind, 'text')}, got {json.dumps(value)}")
        merged.update(cfg)
    for key, value in vars(args).items():
        if key not in ("cmd", "config", "out"):
            merged[key] = value
    return merged


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        opt = _resolve_options(args)
        text = _COMMANDS[args.cmd](opt)
    except (PesinLabError, ValueError, OSError) as exc:
        if isinstance(exc, RuntimeError):   # the numerical failures
            print(f"pesinlab {args.cmd}: numerical failure: {exc}", file=sys.stderr)
            return 1
        print(f"pesinlab {args.cmd}: error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
