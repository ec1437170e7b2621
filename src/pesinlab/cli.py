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
# one given here where the default is None; a system is a name or the JSON
# object of a composite map.
_TYPES = {key: type(v[0] if isinstance(v, tuple) else v) for spec in _DEFAULTS.values()
          for key, v in spec.items() if v is not None}
_TYPES.update(n=int, e=int, lengths=int, point=float, fiber=float, starts=float,
              file=str, points=str, system=(str, dict))
_LISTS = {"budgets", "deltas", "lengths", "point"}
_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number", str: "text",
               (str, dict): "text or a JSON object"}


def _scalar(value, kind):
    """A flag's text or a config value as ``kind``: a switch takes a bool
    alone, a number a number or its text, and an int a whole one."""
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, (int, float, str)) \
            or kind is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(value)
    return kind(value)


def _parse(key, value):
    """Option ``key``'s value as its type: a list option is a list or
    comma-separated text, and --starts rows of them separated by ';'."""
    kind = _TYPES[key]
    if kind in (str, (str, dict)):   # a file name, or a system's name or object
        if not isinstance(value, kind):
            raise ValueError(value)
        return value
    if key == "starts":
        rows = value.split(";") if isinstance(value, str) else value
        return [_parse("point", row) for row in rows if str(row).strip()]
    if key in _LISTS:
        items = value if isinstance(value, (list, tuple)) else str(value).split(",")
        return [_scalar(v, kind) for v in items if str(v).strip()]
    return _scalar(value, kind)


def _finite(flag, values):
    """``values`` as a float array; a NaN or infinite coordinate is bad input."""
    x = np.asarray(values, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError(f"{flag} has a non-finite coordinate")
    return x


def _positive_int(name, value):
    if value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value}")
    return value


def _require(opt, key, flag):
    if opt.get(key) is None:
        raise ValueError(f"missing required option {flag}")
    return opt[key]


def _points(opt, system, samples=0):
    """A command's base points as an (m, d) array.

    ``--points`` (a CSV file), ``--grid`` (that many fibers at the default
    point), ``samples`` seeded uniform draws and ``--point`` each choose the
    points, and at most one may be given; with none, the one point is the
    fixed default, which exists in dimension 3 or less.  ``--fiber`` then
    sets coordinate 0 of every point; beside ``--grid`` or ``--points``,
    which set it themselves, it is bad input.
    """
    d, grid, fiber = system.dim, opt.get("grid", 0), opt.get("fiber")
    chosen = [flag for flag, given in (("--points", opt.get("points") is not None),
                                       ("--grid", grid > 0), ("--samples", samples > 0),
                                       ("--point", opt.get("point") is not None)) if given]
    if len(chosen) > 1:
        raise ValueError(f"{chosen[0]} and {chosen[1]} both choose the points; give one")
    if fiber is not None and chosen[:1] in (["--points"], ["--grid"]):
        raise ValueError(f"--fiber and {chosen[0]} both set coordinate 0; give one")
    if chosen == ["--points"]:
        pts = _finite("--points", np.loadtxt(opt["points"], delimiter=",", ndmin=2))
        if pts.shape[1] != d:
            raise ValueError(f"points file has {pts.shape[1]} columns, system needs {d}")
        return pts
    if d < 2 and grid > 0:
        raise ValueError("--grid sweeps the fiber coordinate of a product system")
    if d < 2 and fiber is not None:
        raise ValueError("--fiber needs a system with a fiber coordinate")
    if d > len(_DEFAULT_COORDS) and (grid > 0 or not chosen):
        need = "--points" if grid > 0 else "--point"
        raise ValueError(f"no default point in dimension {d}; give {need}")
    pts = np.array([_DEFAULT_COORDS[:d]])
    if grid > 0:
        pts = np.repeat(pts, grid, axis=0)
        pts[:, 0] = (np.arange(grid) + 0.5) / grid
    elif samples > 0:
        pts = np.random.default_rng([opt["seed"], 0]).random((samples, d))
    elif opt.get("point") is not None:
        pts = _finite("--point", opt["point"])[None]
        if pts.shape != (1, d):
            raise ValueError(f"--point needs {d} coordinates, got {pts.size}")
        pts = dyn.wrap(pts)
    if fiber is not None:
        pts[:, 0] = dyn.wrap(_finite("--fiber", [fiber]))
    return pts


def _jsonl(records):
    return "".join(dumps(rec) + "\n" for rec in records)


def cmd_exponents(opt, system):
    horizon = _positive_int("--horizon", opt["horizon"])
    samples = _positive_int("--samples", opt["samples"])
    rows = []
    for s, x in enumerate(_points(opt, system, samples if samples > 1 else 0)):
        spec = cocycle.lyapunov_spectrum(system, x, horizon, chunk=opt["chunk"],
                                         merge_tol=opt["merge_tol"])
        rows += [(s, value, mult) for value, mult in zip(spec.exponents, spec.multiplicities)]
    return csv_text(("sample", "exponent", "multiplicity"), rows)


def cmd_classify(opt, system):
    splitting = dyn.reference_splitting(system)
    params = pesin.PesinParams(K=opt["K"], zeta=opt["zeta"], k=opt["k"])
    horizon = _positive_int("--horizon", opt["horizon"])
    points = _points(opt, system, opt["samples"])
    if opt["geometry"] and not isinstance(system, dyn.Product24):
        raise ValueError("--geometry is defined for the product24 system")
    if opt["geometry"] and params.K != 1:
        raise ValueError(f"--geometry needs --K 1 (unit windows), got --K {params.K}")

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
        geo = pesin.block_geometry_product24(
            params.zeta, params.k, grid_n=max(opt["grid"], 1000), horizon=horizon)
        records.append({"geometry": geo.to_dict()})
    return _jsonl(records)


def cmd_domination(opt, system):
    splitting = dyn.reference_splitting(system)
    x = _points(opt, system)[0]
    horizon = _positive_int("--horizon", opt["horizon"])
    report = cocycle.mean_exponents(system, x, splitting, opt["K"], horizon)
    return dumps(report.to_dict()) + "\n"


def cmd_partition(opt, system):
    n = _positive_int("--n", _require(opt, "n", "--n"))
    k = _positive_int("--k", _require(opt, "k", "--k"))
    K = _positive_int("--K", _require(opt, "K", "--K"))
    part = quasihyp.canonical_partition(n, k, K)
    return dumps({"n": n, "k": k, "K": K, "m": part.m,
                  "max_gap": part.max_gap, "times": list(part.times)}) + "\n"


def cmd_qh_check(opt, system):
    pseudo = shadow.read_pseudo_orbit(_require(opt, "file", "--file"))
    if pseudo.dim != system.dim:
        raise ValueError(
            f"pseudo-orbit dimension {pseudo.dim} != system dimension {system.dim}")
    report = quasihyp.check_qh_pseudo_orbit(
        system, pseudo, dyn.reference_splitting(system), _require(opt, "zeta", "--zeta"),
        opt["e"], opt["delta"], opt["k"], opt["K"])
    return dumps(report) + "\n"


def cmd_shadow(opt, system):
    pseudo = shadow.read_pseudo_orbit(_require(opt, "file", "--file"))
    result = shadow.solve_shadow(system, pseudo, tol=opt["tol"], max_iter=opt["max_iter"])
    return dumps(result.to_dict()) + "\n"


def cmd_close(opt, system):
    _require(opt, "point", "--point")
    x = _points(opt, system)[0]
    n = _positive_int("--n", _require(opt, "n", "--n"))
    result = shadow.close_orbit(system, x, n, tol=opt["tol"])
    return dumps(result.to_dict()) + "\n"


def cmd_glue(opt, system):
    # both before the cover and the table are built
    shadow.check_positive("tol", opt["tol"])
    shadow.check_positive("--mesh", opt["mesh"])
    d = system.dim
    rng = np.random.default_rng([opt["seed"], 0])
    m = _positive_int("--segments", opt["segments"])

    starts = rng.random((m, d)) if opt["starts"] is None else _finite("--starts", opt["starts"])
    lengths = rng.integers(opt["len_min"], opt["len_max"] + 1, size=m) \
        if opt["lengths"] is None else np.asarray(opt["lengths"])
    if starts.shape != (m, d) or lengths.shape != (m,):
        raise ValueError(f"need {m} starts of dimension {d} and {m} lengths")

    segments = [(starts[i], int(lengths[i])) for i in range(m)]
    pieces = [dyn.orbit_points(system, x, n) for x, n in segments]
    pieces.append(dyn.orbit_points(system, rng.random(d),
                                   _positive_int("--cover-samples", opt["cover_samples"])))
    cover = specmeas.build_cover(np.vstack(pieces), opt["mesh"])
    table = specmeas.transition_times(system, cover, opt["min_n"], opt["horizon"],
                                      opt["budget"], seed=opt["seed"])
    plan = specmeas.glue_segments(system, segments, cover, table)
    result = specmeas.specification_shadow(system, plan, tol=opt["tol"])

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
        # worst distance from the solved cycle to each glued-in segment, the
        # chain's even pieces (see GluePlan)
        "deviations": [float(v) for v in
                       shadow.segment_deviations(result.points, plan.pseudo)[0][0::2]],
        "plan": plan.to_dict(),
    }) + "\n"


def cmd_measure(opt, system):
    x0 = _points(opt, system)[0]
    target_n = _positive_int("--target-n", opt["target_n"])
    target = specmeas.EmpiricalMeasure.from_orbit(system, x0, target_n)
    curve = specmeas.measure_curve(
        system, target, opt["delta"], opt["budgets"], tol=opt["tol"],
        **{k: opt[k] for k in ("degree", "n_segments", "min_n", "horizon",
                               "sample_orbits", "seed")})
    rows = [(b, len(m.points), dist) for b, (m, dist) in zip(opt["budgets"], curve)]
    return csv_text(("budget", "period", "distance"), rows)


def cmd_probe_l(opt, system):
    constants = shadow.estimate_shadowing_constant(
        system, opt["deltas"], _positive_int("--trials", opt["trials"]),
        (opt["len_min"], opt["len_max"]), seed=opt["seed"], tol=opt["tol"])
    return dumps(constants.to_dict()) + "\n"


def cmd_probe_per(opt, system):
    rng = np.random.default_rng([opt["seed"], 0])
    sample = rng.random((_positive_int("--samples", opt["samples"]), system.dim))
    _, report = shadow.periodic_density_probe(
        system, sample, _positive_int("--n-max", opt["n_max"]), opt["epsilon"],
        gap_cap=opt["gap_cap"], tol=opt["tol"], return_report=True)
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
    """One --flag per default key, taking text that :func:`_resolve_options`
    parses (a switch takes none); unset flags stay out of the namespace."""
    for key, default in spec.items():
        sub.add_argument("--" + key.replace("_", "-"), dest=key, default=argparse.SUPPRESS,
                         action="store_true" if isinstance(default, bool) else "store")


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
    """The defaults, then the --config object, then the flags, each value
    parsed once to its option's type."""
    defaults = _DEFAULTS[args.cmd]
    cfg = {}
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
    flags = {key: v for key, v in vars(args).items() if key not in ("cmd", "config", "out")}
    opt = {}
    for where, values in (("", defaults), (f"config {args.config}: ", cfg), ("--", flags)):
        for key, value in values.items():
            try:
                opt[key] = value if value is None and defaults[key] is None else _parse(key, value)
            except (ValueError, OverflowError):   # float() of a huge int overflows
                name = key.replace("_", "-") if where == "--" else key
                raise ValueError(f"{where}{name} must be {_TYPE_NAMES[_TYPES[key]]}, "
                                 f"got {json.dumps(value)}") from None
    return opt


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        opt = _resolve_options(args)
        system = dyn.make_system(opt["system"]) if "system" in opt else None
        text = _COMMANDS[args.cmd](opt, system)
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
