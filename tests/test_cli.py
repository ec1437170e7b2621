"""Command-line interface: option resolution, output formats, exit codes."""

import json
import os
import re
import shlex
import shutil
import subprocess
import sys

import numpy as np
import pytest

import pesinlab
from pesinlab import cli, errors, specmeas
from pesinlab import systems as dyn
from pesinlab.cli import main
from pesinlab.shadow import make_pseudo_orbit, write_pseudo_orbit

LOG_U = np.log((3.0 + np.sqrt(5.0)) / 2.0)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PYPROJECT = os.path.join(ROOT, "pyproject.toml")


def _rows(csv_text):
    lines = csv_text.strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_exponents_cat(capsys):
    rc = main(["exponents", "--system", "cat", "--horizon", "3000"])
    assert rc == 0
    header, rows = _rows(capsys.readouterr().out)
    assert header == ["sample", "exponent", "multiplicity"]
    vals = sorted(float(r[1]) for r in rows)
    assert vals[0] == pytest.approx(-LOG_U, abs=1e-8)
    assert vals[1] == pytest.approx(LOG_U, abs=1e-8)


def test_exponents_samples_and_bad_horizon(capsys):
    rc = main(["exponents", "--system", "cat", "--horizon", "500",
               "--samples", "3", "--seed", "5"])
    assert rc == 0
    _, rows = _rows(capsys.readouterr().out)
    assert [r[0] for r in rows] == ["0", "0", "1", "1", "2", "2"]
    rc = main(["exponents", "--horizon", "0"])
    assert rc == 2
    assert "horizon" in capsys.readouterr().err


def test_partition_json(capsys):
    rc = main(["partition", "--n", "41", "--k", "3", "--K", "4"])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["times"] == [0, 13, 17, 21, 25, 29, 41]
    assert rec["m"] == 6 and rec["max_gap"] == 13
    assert main(["partition", "--k", "3", "--K", "4"]) == 2  # --n missing


@pytest.mark.parametrize("name", errors.__all__)
def test_exit_status_follows_the_error_type(name, capsys, monkeypatch):
    # a numerical failure is a RuntimeError (exit 1), bad input a ValueError (2)
    cls = getattr(errors, name)
    assert issubclass(cls, (RuntimeError, ValueError)) or cls is errors.PesinLabError

    def fail(opt, system):
        raise cls("injected")

    monkeypatch.setitem(cli._COMMANDS, "partition", fail)
    numerical = issubclass(cls, RuntimeError)
    assert main(["partition", "--n", "9", "--k", "1", "--K", "1"]) == (1 if numerical else 2)
    kind = "numerical failure" if numerical else "error"
    assert capsys.readouterr().err == f"pesinlab partition: {kind}: injected\n"


def test_qh_check_pass_and_fail(tmp_path, capsys, cat, p24):
    x0 = np.array([0.1234, 0.777])
    mid = dyn.orbit_points(cat, x0, 12)[-1]
    po = make_pseudo_orbit(cat, [x0, mid], [12, 12], periodic=False)
    path = tmp_path / "cat.txt"
    write_pseudo_orbit(po, path)
    rc = main(["qh-check", "--system", "cat", "--file", str(path),
               "--zeta", "0.5"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["passed"] is True
    assert rep["first_failed_segment"] is None and rep["first_failed_seam"] is None

    bad = np.array([0.5, 0.3, 0.6])
    mid = dyn.orbit_points(p24, bad, 12)[-1]
    po = make_pseudo_orbit(p24, [bad, mid], [12, 12], periodic=False)
    path = tmp_path / "p24.txt"
    write_pseudo_orbit(po, path)
    rc = main(["qh-check", "--system", "product24", "--file", str(path),
               "--zeta", "0.4"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["passed"] is False


def test_qh_check_periodic_wrap_seam(tmp_path, capsys, cat):
    # seam 0 is exact; the wrap seam back to the first start is 0.2302
    x0 = np.array([0.1234, 0.777])
    mid = dyn.orbit_points(cat, x0, 12)[-1]
    po = make_pseudo_orbit(cat, [x0, mid], [12, 12], periodic=True)
    path = tmp_path / "cycle.txt"
    write_pseudo_orbit(po, path)
    rc = main(["qh-check", "--system", "cat", "--file", str(path),
               "--zeta", "0.5", "--delta", "1e-6"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["passed"] is False
    assert rep["segment_pass"] == [True, True]
    assert rep["gaps"][0] == 0 and rep["gaps"][1] == pytest.approx(0.2302, abs=1e-4)
    assert rep["first_failed_seam"] == 1 and rep["first_failed_segment"] is None


def test_shadow_command_and_exit_codes(tmp_path, capsys, cat, p24):
    rng = np.random.default_rng(1)
    x0 = rng.random(2)
    end = dyn.orbit_points(cat, x0, 8)[-1]
    x1 = dyn.wrap(end + np.array([1e-8, -1e-8]))
    po = make_pseudo_orbit(cat, [x0, x1], [8, 8], periodic=True)
    path = tmp_path / "po.txt"
    write_pseudo_orbit(po, path)
    rc = main(["shadow", "--file", str(path)])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["periodic"] is True and rec["epsilon_achieved"] <= 20 * po.delta

    bad = tmp_path / "bad.txt"
    bad.write_text("SEG n=1\n0 0\n0 0\n")
    assert main(["shadow", "--file", str(bad)]) == 2
    assert main(["shadow", "--file", str(tmp_path / "absent.txt")]) == 2

    wild = make_pseudo_orbit(p24, [rng.random(3) for _ in range(3)],
                             [6, 6, 6], periodic=True)
    wild_path = tmp_path / "wild.txt"
    write_pseudo_orbit(wild, wild_path)
    rc = main(["shadow", "--system", "product24", "--file", str(wild_path),
               "--max-iter", "1"])
    assert rc == 1
    assert "numerical failure" in capsys.readouterr().err


def test_shadow_bad_max_iter_and_delta_exit_2(tmp_path, capsys, cat):
    # a negative --max-iter used to run no iteration and end in an
    # IndexError traceback; a delta=inf header let a 0.28 seam jump through
    x0 = np.array([0.3, 0.6])
    x1 = dyn.wrap(dyn.orbit_points(cat, x0, 5)[-1] + 1e-8)
    path = tmp_path / "chain.txt"
    write_pseudo_orbit(make_pseudo_orbit(cat, [x0, x1], [5, 5], periodic=False), path)
    assert main(["shadow", "--file", str(path), "--max-iter", "-1"]) == 2
    assert "max_iter must be >= 0" in capsys.readouterr().err
    wide = tmp_path / "wide.txt"
    wide.write_text("PSEUDO d=2 periodic=0 delta=inf\n"
                    "SEG n=1\n0.1 0.1\n0.3 0.2\n\n"
                    "SEG n=1\n0.5 0.4\n0.7 0.3\n")
    assert main(["shadow", "--file", str(wide)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "delta must be finite and positive" in captured.err


@pytest.mark.parametrize("delta", ["-1", "0", "inf", "nan"])
def test_qh_check_bad_delta_exits_2(tmp_path, capsys, cat, delta):
    # -1 used to print passed: false with exit 0; inf and nan ran every
    # certificate and then failed to serialize
    x0 = np.array([0.1234, 0.777])
    mid = dyn.orbit_points(cat, x0, 12)[-1]
    path = tmp_path / "cat.txt"
    write_pseudo_orbit(make_pseudo_orbit(cat, [x0, mid], [12, 12], periodic=False), path)
    assert main(["qh-check", "--file", str(path), "--zeta", "0.5", "--delta", delta]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "delta must be finite and positive" in captured.err


@pytest.mark.parametrize("e", ["-1", "0"])
def test_qh_check_bad_e_exits_2(tmp_path, capsys, cat, e):
    # both used to print passed: false with exit 0
    x0 = np.array([0.1234, 0.777])
    mid = dyn.orbit_points(cat, x0, 12)[-1]
    path = tmp_path / "cat.txt"
    write_pseudo_orbit(make_pseudo_orbit(cat, [x0, mid], [12, 12], periodic=False), path)
    assert main(["qh-check", "--file", str(path), "--zeta", "0.5", "--e", e]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "e must be at least 1" in captured.err


@pytest.mark.filterwarnings("ignore:divide by zero")
@pytest.mark.parametrize("jacobian, message", [
    # A A^T + I rounds to a singular matrix: the band factorization fails
    ([["1073741824", "0"], ["1073741824", "0"]], "Newton step failed"),
    ([["log(0*x0)", "0"], ["0", "1"]], "non-finite Newton residual"),
])
def test_shadow_numerical_breakdown_exits_1(tmp_path, capsys, cat, jacobian, message):
    cfg = tmp_path / "broken.json"
    cfg.write_text(json.dumps({"system": {
        "kind": "composite", "dim": 2,
        "map": ["(2*x0 + x1) % 1.0", "(x0 + x1) % 1.0"], "jacobian": jacobian}}))
    x0 = np.array([0.3, 0.6])
    x1 = dyn.wrap(dyn.orbit_points(cat, x0, 5)[-1] + 1e-8)
    path = tmp_path / "chain.txt"
    write_pseudo_orbit(make_pseudo_orbit(cat, [x0, x1], [5, 5], periodic=False), path)
    assert main(["shadow", "--config", str(cfg), "--file", str(path)]) == 1
    err = capsys.readouterr().err
    assert "numerical failure" in err and message in err


def test_stalled_newton_exits_1(tmp_path, capsys):
    # a Jacobian of 0 for f(x) = x + 1/2 leaves the residual of this
    # period-2 chain at 1e-3: the solve stops at iteration 2
    spec = {"kind": "composite", "dim": 1, "map": ["(x0 + 0.5) % 1.0"], "jacobian": [["0"]]}
    cfg = tmp_path / "stalled.json"
    cfg.write_text(json.dumps({"system": spec}))
    path = tmp_path / "cycle.txt"
    write_pseudo_orbit(make_pseudo_orbit(dyn.make_system(spec), [[0.1], [0.601]], [1, 1],
                                         periodic=True), path)
    assert main(["shadow", "--config", str(cfg), "--file", str(path)]) == 1
    err = capsys.readouterr().err
    assert "numerical failure" in err and "stalled at iteration 2" in err


def test_close_command(capsys):
    rc = main(["close", "--point", "0.31,0.57", "--n", "9"])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["period"] == 9 and rec["residual"] < 1e-12
    assert main(["close", "--n", "9"]) == 2  # --point missing


_GLUE_ARGV = ["glue", "--mesh", "0.2", "--segments", "2", "--len-min", "10", "--len-max", "15",
              "--cover-samples", "2000", "--horizon", "5000", "--budget", "4", "--seed", "0"]


def test_glue_command(capsys):
    rc = main(_GLUE_ARGV)
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["within_bounds"] is True
    lo, hi = rec["period_bounds"]
    assert lo <= rec["period"] <= hi
    assert rec["residual"] < 1e-12
    assert max(rec["deviations"]) < 0.2
    assert len(rec["plan"]["segments"]) == 2


# `glue`'s whole record of _GLUE_ARGV, byte for byte: the plan's part is
# read from its glued chain
_GLUE_RECORD = (
    '{"deviations": [0.038819125949727147, 0.15885162851253726], '
    '"epsilon_achieved": 0.15885162851253726, "iterations": 1, "period": 33, '
    '"period_bounds": [33, 33], "plan": {"c_times": [15, 33], '
    '"connectors": [{"transit": 4, "y": [0.65600393355858921, 0.17663244675487499]}, '
    '{"transit": 4, "y": [0.56565291794164052, 0.26073354904344104]}], '
    '"delta": 0.20000000000000001, "period": 33, "segments": [{"n": 11, '
    '"x": [0.63696168732145431, 0.26978671376387031]}, {"n": 14, '
    '"x": [0.040973523936194689, 0.016527635528529094]}]}, '
    '"residual": 2.2204460492503131e-16, "within_bounds": true, '
    '"z": [0.65736951599731819, 0.23676482604924429]}\n'
)


def test_glue_command_record_is_byte_identical(capsys):
    assert main(_GLUE_ARGV) == 0
    assert capsys.readouterr().out == _GLUE_RECORD


def test_measure_command(capsys):
    rc = main(["measure", "--budgets", "800,1600", "--target-n", "4000",
               "--seed", "13"])
    assert rc == 0
    header, rows = _rows(capsys.readouterr().out)
    assert header == ["budget", "period", "distance"]
    assert [int(r[0]) for r in rows] == [800, 1600]
    assert all(int(r[1]) >= 500 and np.isfinite(float(r[2])) for r in rows)


@pytest.mark.parametrize("flags", [
    ["--degree", "0"], ["--budgets", ""], ["--budgets", "5"], ["--budgets", "1000,4000"],
    ["--delta", "0"], ["--delta", "nan"], ["--delta", "inf"], ["--tol", "nan"], ["--tol", "0"],
    ["--sample-orbits", "0"],
])
def test_measure_rejects_bad_input_before_the_cover(capsys, monkeypatch, flags):
    def no_cover(*args, **kwargs):
        raise AssertionError("cover built before the input was checked")

    monkeypatch.setattr(specmeas, "build_cover", no_cover)
    assert main(["measure", "--budgets", "1000", "--target-n", "4000"] + flags) == 2
    out, err = capsys.readouterr()
    assert out == "" and "error:" in err
    # the message names the input, not a parameter of a helper
    assert "budget >=" not in err
    if flags[0] == "--sample-orbits":
        assert "sample_orbits" in err


@pytest.mark.parametrize("tol", ["nan", "0", "-1e-12", "inf"])
@pytest.mark.parametrize("argv", [
    ["close", "--point", "0.3,0.5", "--n", "9"],
    ["shadow", "--file", "{file}"],
    ["glue", "--mesh", "0.2", "--horizon", "2000", "--cover-samples", "1000"],
    ["measure", "--budgets", "1000", "--target-n", "4000"],
    ["probe-L", "--deltas", "1e-6", "--trials", "2", "--len-min", "5", "--len-max", "9"],
    ["probe-per", "--samples", "5"],
    ["probe-per", "--samples", "5", "--gap-cap", "1e-9"],   # every point skipped
])
def test_bad_tol_exits_2(tmp_path, capsys, monkeypatch, cat, argv, tol):
    # a NaN tolerance used to read as a stalled Newton solve (exit 1); glue
    # and measure reject it before they build a cover
    def no_cover(*args, **kwargs):
        raise AssertionError("cover built before the tolerance was checked")

    monkeypatch.setattr(specmeas, "build_cover", no_cover)
    path = tmp_path / "chain.txt"
    write_pseudo_orbit(make_pseudo_orbit(cat, [[0.1, 0.2]], [6], periodic=False), path)
    assert main([str(path) if a == "{file}" else a for a in argv] + [f"--tol={tol}"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "tol" in err and str(float(tol)) in err


@pytest.mark.parametrize("mesh", ["inf", "nan", "0"])
def test_glue_bad_mesh_exits_2_before_the_cover(capsys, monkeypatch, mesh):
    # an infinite mesh used to build a one-ball cover and its transition
    # table, then fail in the glued pseudo-orbit with a message naming delta
    def no_cover(*args, **kwargs):
        raise AssertionError("cover built before the mesh was checked")

    monkeypatch.setattr(specmeas, "build_cover", no_cover)
    assert main(["glue", "--mesh", mesh]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "--mesh must be finite and positive" in err


@pytest.mark.parametrize("argv, named", [
    (["classify", "--zeta", "inf"], "zeta must be finite and positive"),
    (["qh-check", "--file", "{file}", "--zeta", "inf"], "zeta must be finite and positive"),
    (["probe-L", "--deltas", "inf"], "deltas must be finite and nonnegative"),
    (["probe-L", "--deltas", "1e-6,nan"], "deltas must be finite and nonnegative"),
])
def test_non_finite_zeta_or_deltas_exits_2(tmp_path, capsys, cat, argv, named):
    # classify and qh-check used to run every certificate and then fail to
    # print an infinite slack; probe-L failed on a non-finite chain point
    path = tmp_path / "cat.txt"
    write_pseudo_orbit(make_pseudo_orbit(cat, [[0.1234, 0.777]], [12], periodic=False), path)
    assert main([str(path) if a == "{file}" else a for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"error: {named}" in err


@pytest.mark.parametrize("flags", [
    ["--epsilon", "nan"], ["--epsilon", "0"], ["--gap-cap", "nan"], ["--gap-cap=-0.1"],
])
def test_probe_per_bad_epsilon_or_gap_cap_exits_2(capsys, flags):
    # a NaN epsilon used to print "fraction": 0 with exit 0
    assert main(["probe-per", "--samples", "5"] + flags) == 2
    out, err = capsys.readouterr()
    assert out == "" and "need epsilon, gap_cap, tol > 0" in err


def test_probe_commands(capsys):
    rc = main(["probe-L", "--deltas", "1e-6,5e-7", "--trials", "3",
               "--len-min", "5", "--len-max", "9", "--seed", "11"])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["d0_hat"] == 1e-6 and 0.0 < rec["L_hat"] < 10.0
    assert len(rec["per_delta"]) == 2

    rc = main(["probe-per", "--samples", "5", "--n-max", "20", "--seed", "2"])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["attempted"] + rec["skipped"] == 5


def test_classify_records_and_budget_warning(capsys):
    rc = main(["classify", "--fiber", "0.0", "--zeta", "0.3",
               "--horizon", "120"])
    assert rc == 0
    out, err = capsys.readouterr()
    rec = json.loads(out)
    assert rec["passed"] is True and "zeta" not in err

    rc = main(["classify", "--fiber", "0.0", "--zeta", "0.9",
               "--horizon", "120"])
    assert rc == 0
    _, err = capsys.readouterr()
    assert "warning" in err and "beta" in err


def test_classify_grid(capsys):
    rc = main(["classify", "--grid", "4", "--horizon", "120"])
    assert rc == 0
    recs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(recs) == 4
    fibers = [rec["point"][0] for rec in recs]
    assert fibers == [0.125, 0.375, 0.625, 0.875]


@pytest.mark.parametrize("argv, cfg, flags", [
    (["classify", "--grid", "2", "--point", "0.1,0.2,0.3"], None, ("--grid", "--point")),
    (["exponents", "--system", "product24", "--samples", "2", "--point", "0.1,0.2,0.3"],
     None, ("--samples", "--point")),
    (["classify", "--samples", "3", "--points", "{file}"], None, ("--points", "--samples")),
    (["classify", "--grid", "2", "--fiber", "0.3"], None, ("--fiber", "--grid")),
    (["classify", "--points", "{file}", "--fiber", "0.3"], None, ("--fiber", "--points")),
    (["classify"], {"grid": 3, "fiber": 0.2}, ("--fiber", "--grid")),
])
def test_two_inputs_for_the_points_exit_2(tmp_path, capsys, argv, cfg, flags):
    # each used to exit 0 with one of the two inputs silently dropped
    path = tmp_path / "points.csv"
    path.write_text("0.1,0.2,0.3\n")
    if cfg is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        argv = argv + ["--config", str(tmp_path / "cfg.json")]
    assert main([str(path) if a == "{file}" else a for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and all(flag in err for flag in flags)


def test_fiber_sets_coordinate_0_of_the_chosen_points(capsys):
    # domination used to read --point and drop --fiber, and classify
    # --samples dropped it too
    assert main(["domination", "--point", "0.1,0.2,0.3", "--fiber", "0.4"]) == 0
    with_fiber = capsys.readouterr().out
    assert main(["domination", "--point", "0.4,0.2,0.3"]) == 0
    assert capsys.readouterr().out == with_fiber
    assert main(["classify", "--samples", "2", "--fiber", "0.3", "--horizon", "120"]) == 0
    recs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [rec["point"][0] for rec in recs] == [0.3, 0.3]
    assert recs[0]["point"][1:] != recs[1]["point"][1:]
    # a fiber that rounds to 1 mod 1 is the point 0, inside [0, 1)
    assert main(["classify", "--fiber=-1e-20", "--horizon", "120"]) == 0
    assert json.loads(capsys.readouterr().out)["point"][0] == 0.0


def test_exponents_one_sample_is_the_base_point(capsys):
    assert main(["exponents", "--point", "0.2,0.3", "--horizon", "500"]) == 0
    one = capsys.readouterr().out
    assert main(["exponents", "--samples", "1", "--point", "0.2,0.3", "--horizon", "500"]) == 0
    assert capsys.readouterr().out == one


def test_classify_geometry_needs_unit_windows(capsys):
    # block_geometry_product24 sweeps unit windows alone
    assert main(["classify", "--geometry", "--K", "2", "--horizon", "120"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "error: --geometry needs --K 1" in err


def test_classify_rejects_non_invariant_splitting(tmp_path, capsys):
    # cat map with the coordinate splitting, which Df does not preserve
    cfg = tmp_path / "coords.json"
    cfg.write_text(json.dumps({"system": {
        "kind": "composite", "dim": 2,
        "map": ["(2*x0 + x1) % 1.0", "(x0 + x1) % 1.0"],
        "inverse": ["(x0 - x1) % 1.0", "(2*x1 - x0) % 1.0"],
        "jacobian": [["2.0", "1.0"], ["1.0", "1.0"]],
        "e_basis": [[1.0], [0.0]], "f_basis": [[0.0], [1.0]],
    }, "point": "0.2,0.7"}))
    assert main(["classify", "--config", str(cfg)]) == 2
    assert "not Df-invariant" in capsys.readouterr().err


def test_rank_deficient_bundle_basis_exits_2(tmp_path, capsys):
    # E columns 1e-13 apart pass the transversality test but not
    # orthonormalize's, so building the system rejects the config, even
    # for a command that never reads the splitting
    cfg = tmp_path / "near.json"
    cfg.write_text(json.dumps({"system": {
        "kind": "composite", "dim": 3,
        "map": ["(0.5*x0) % 1.0", "(4*x1) % 1.0", "(2*x2) % 1.0"],
        "jacobian": [["0.5", "0", "0"], ["0", "4", "0"], ["0", "0", "2"]],
        "e_basis": [[1.0, 1.0], [0.0, 1e-13], [0.0, 0.0]],
        "f_basis": [[0.0], [0.0], [1.0]],
    }, "point": "0.1,0.2,0.3"}))
    assert main(["exponents", "--config", str(cfg), "--horizon", "100"]) == 2
    assert "rank deficient" in capsys.readouterr().err


def test_underflowing_restricted_product_exits_1(tmp_path, capsys):
    # F is a 2-D bundle at rates 4 and 1.1: after 560 steps the rescaled
    # minimal direction is subnormal, a numerical failure, not bad input
    cfg = tmp_path / "diag.json"
    cfg.write_text(json.dumps({"system": {
        "kind": "composite", "dim": 3,
        "map": ["(0.5*x0) % 1.0", "(4*x1) % 1.0", "(1.1*x2) % 1.0"],
        "jacobian": [["0.5", "0", "0"], ["0", "4", "0"], ["0", "0", "1.1"]],
        "e_basis": [[1.0], [0.0], [0.0]],
        "f_basis": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
    }, "point": "0.1,0.2,0.3"}))
    assert main(["domination", "--config", str(cfg), "--horizon", "500"]) == 0
    capsys.readouterr()
    assert main(["domination", "--config", str(cfg), "--horizon", "560"]) == 1
    assert "numerical failure" in capsys.readouterr().err


def test_vanishing_window_product_exits_1(tmp_path, capsys):
    # Df on E (the x1 axis) is x1, which is 0 along the orbit of (0.1, 0):
    # every block norm on E is log 0, a numerical failure
    system = {
        "kind": "composite", "dim": 2,
        "map": ["(2*x0) % 1.0", "(0.5*x1*x1) % 1.0"],
        "jacobian": [["2", "0"], ["0", "x1"]],
        "e_basis": [[0.0], [1.0]], "f_basis": [[1.0], [0.0]],
    }
    cfg = tmp_path / "vanish.json"
    cfg.write_text(json.dumps({"system": system}))
    po = make_pseudo_orbit(dyn.make_system(system), [np.array([0.1, 0.0])], [10],
                           periodic=False)
    path = tmp_path / "vanish.txt"
    write_pseudo_orbit(po, path)
    rc = main(["qh-check", "--config", str(cfg), "--file", str(path), "--zeta", "0.4"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "numerical failure" in err and "vanished" in err


def test_classify_without_inverse_prints_partial_certificates(tmp_path, capsys, cat):
    # the zeta warning reads the forward rate alone; it used to ask for
    # backward data and exit 1
    split = dyn.reference_splitting(cat)
    cfg = tmp_path / "forward.json"
    cfg.write_text(json.dumps({"system": {
        "kind": "composite", "dim": 2,
        "map": ["(2*x0 + x1) % 1.0", "(x0 + x1) % 1.0"],
        "jacobian": [["2.0", "1.0"], ["1.0", "1.0"]],
        "e_basis": split.e_basis.tolist(), "f_basis": split.f_basis.tolist(),
    }, "point": "0.2,0.7"}))
    assert main(["classify", "--config", str(cfg)]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["partial"] is True and rec["slack_expansion"] is None


@pytest.mark.filterwarnings("ignore:invalid value encountered in sqrt")
def test_non_finite_jacobian_exits_1(tmp_path, capsys, cat):
    # the Jacobian is NaN where x0 < 0.5; the invariance check must not pass
    # it on as NaN logs, which read as a vanished window product
    split = dyn.reference_splitting(cat)
    cfg = tmp_path / "nan.json"
    cfg.write_text(json.dumps({"system": {
        "kind": "composite", "dim": 2,
        "map": ["(2*x0 + x1) % 1.0", "(x0 + x1) % 1.0"],
        "inverse": ["(x0 - x1) % 1.0", "(2*x1 - x0) % 1.0"],
        "jacobian": [["2.0 + 0*sqrt(x0 - 0.5)", "1.0"], ["1.0", "1.0"]],
        "e_basis": split.e_basis.tolist(), "f_basis": split.f_basis.tolist(),
    }, "point": "0.6,0.7"}))
    assert main(["classify", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert re.search(r"numerical failure: non-finite Jacobian at orbit time -?\d+$", err)


@pytest.mark.parametrize("argv, text, named", [
    (["exponents", "--point", "nan,0.2"], None, "--point"),
    (["classify", "--point", "nan,0.3,0.4"], None, "--point"),
    (["domination", "--fiber", "nan"], None, "--fiber"),
    (["glue", "--starts", "nan,0.1;0.2,0.3;0.4,0.5"], None, "--starts"),
    (["measure", "--point", "nan,0.2"], None, "--point"),
    (["classify", "--points", "{file}"], "nan,0.3,0.4\n", "--points"),
    (["shadow", "--file", "{file}"],
     "PSEUDO d=2 periodic=0 delta=0.5\nSEG n=1\nnan 0.2\n0.3 0.4\n", "segment 0"),
    (["shadow", "--file", "{file}"],
     "PSEUDO d=2 periodic=0 delta=0.5\nSEG n=1\n0.1 0.2\ninf 0.4\n", "segment 0"),
])
def test_non_finite_point_exits_2(tmp_path, capsys, argv, text, named):
    # unchecked, a NaN start prints exponents, fails as a numerical error,
    # or never returns (the cover of glue and measure)
    path = tmp_path / "input.txt"
    if text is not None:
        path.write_text(text)
    assert main([str(path) if a == "{file}" else a for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"error: {named} has a non-finite coordinate" in err


def test_composite_formula_injection_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "evil.json"
    cfg.write_text(json.dumps({"system": {
        "kind": "composite", "dim": 2,
        "map": ["np.save('owned.npy', x0)", "x1"],
        "jacobian": [["1", "0"], ["0", "1"]],
    }, "point": "0.2,0.7"}))
    assert main(["exponents", "--config", str(cfg)]) == 2
    assert "not allowed" in capsys.readouterr().err
    assert not (tmp_path / "owned.npy").exists()


def test_composite_config_with_a_bad_key_exits_2(tmp_path, capsys):
    # a typo in "inverse" used to build the map without one, with exit 0
    cfg = tmp_path / "typo.json"
    cfg.write_text(json.dumps({"system": {
        "kind": "composite", "dim": 2,
        "map": ["(2*x0 + x1) % 1.0", "(x0 + x1) % 1.0"],
        "invers": ["(x0 - x1) % 1.0", "(2*x1 - x0) % 1.0"],
        "jacobian": [["2.0", "1.0"], ["1.0", "1.0"]],
    }, "point": "0.2,0.7"}))
    assert main(["exponents", "--config", str(cfg), "--horizon", "100"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "unknown keys ['invers']" in err


@pytest.mark.parametrize("flags", [
    ["--merge-tol", "inf"], ["--merge-tol", "nan"], ["--merge-tol=-1"], ["--chunk", "0"],
])
def test_exponents_bad_chunk_or_merge_tol_exits_2(capsys, flags):
    # each used to exit 0: inf merged all three exponents into one, nan and
    # -1 split the double one, and chunk 0 ran with chunk 1
    argv = ["exponents", "--system", "product24", "--point", "0.5,0.3,0.7",
            "--horizon", "10000"]
    assert main(argv + flags) == 2
    out, err = capsys.readouterr()
    assert out == "" and "need chunk >= 1 and a finite merge_tol >= 0" in err


def test_domination_command(capsys):
    rc = main(["domination", "--system", "cat", "--horizon", "200"])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["limdom_hat"] == pytest.approx(-2.0 * LOG_U, abs=1e-10)


def test_config_resolution(tmp_path, capsys):
    cfg = tmp_path / "close.json"
    cfg.write_text(json.dumps({"point": "0.31,0.57", "n": 9}))
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["close", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["close", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert capsys.readouterr().out == ""  # --out suppresses stdout

    # explicit flag beats the config value
    assert main(["close", "--config", str(cfg), "--n", "12"]) == 0
    assert json.loads(capsys.readouterr().out)["period"] == 12

    cfg.write_text(json.dumps({"point": "0.31,0.57", "n": 9, "bogus": 1}))
    assert main(["close", "--config", str(cfg)]) == 2
    assert "bogus" in capsys.readouterr().err

    cfg.write_text("{not json")
    assert main(["close", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("argv, cfg, why", [
    (["partition"], {"n": 41.9, "k": 3, "K": 4}, "n must be an integer, got 41.9"),
    (["partition"], {"n": 41, "k": True, "K": 4}, "k must be an integer, got true"),
    (["classify"], {"geometry": "no"}, 'geometry must be true or false, got "no"'),
    (["measure"], {"budgets": [1000.9]}, "budgets must be an integer, got [1000.9]"),
    (["exponents"], {"horizon": None}, "horizon must be an integer, got null"),
    (["exponents"], {"horizon": "12x"}, 'horizon must be an integer, got "12x"'),
    (["domination"], {"fiber": [0.1]}, "fiber must be a number, got [0.1]"),
])
def test_config_value_of_wrong_type_exits_2(tmp_path, capsys, argv, cfg, why):
    # each used to be coerced (n = 41, k = 1, the geometry sweep on, budget
    # 1000) or to end in a traceback (null)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(argv + ["--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"error: config {path}: {why}" in err


@pytest.mark.parametrize("argv, cfg, why", [
    (["qh-check"], {"file": 0, "zeta": 0.5}, "file must be text, got 0"),
    (["shadow"], {"file": ["a.txt"]}, 'file must be text, got ["a.txt"]'),
    (["classify"], {"points": 1}, "points must be text, got 1"),
    (["exponents"], {"system": 3}, "system must be text or a JSON object, got 3"),
    (["exponents"], {"system": ["cat"]}, 'system must be text or a JSON object, got ["cat"]'),
])
def test_text_option_of_wrong_type_exits_2(tmp_path, capsys, monkeypatch, argv, cfg, why):
    # "file": 0 used to open file descriptor 0, standard input
    real_open = open

    def no_descriptor(file, *args, **kwargs):
        assert not isinstance(file, int), f"opened file descriptor {file}"
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", no_descriptor)
    monkeypatch.setattr(sys, "stdin", None)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(argv + ["--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"pesinlab {argv[0]}: error: config {path}: {why}\n"


_DIAGONAL_4D = {"kind": "composite", "dim": 4,
                "map": ["(0.5*x0) % 1.0", "(2*x1) % 1.0", "(3*x2) % 1.0", "(4*x3) % 1.0"],
                "jacobian": [["0.5", "0", "0", "0"], ["0", "2", "0", "0"],
                             ["0", "0", "3", "0"], ["0", "0", "0", "4"]],
                "e_basis": [[1.0], [0.0], [0.0], [0.0]],
                "f_basis": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}


@pytest.mark.parametrize("argv, need", [
    (["exponents"], "--point"),
    (["exponents", "--fiber", "0.3"], "--point"),
    (["measure"], "--point"),
    (["classify", "--grid", "2"], "--points"),
])
def test_no_default_point_in_dimension_4(tmp_path, capsys, argv, need):
    # the default point has 3 coordinates; a 4-D system used to fail with
    # "expected dimension 4, got 3", naming no input
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"system": _DIAGONAL_4D}))
    assert main(argv + ["--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"pesinlab {argv[0]}: error: no default point in dimension 4; give {need}\n"


def test_4d_system_runs_at_a_given_point(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"system": _DIAGONAL_4D, "point": "0.1,0.2,0.3,0.4"}))
    assert main(["exponents", "--config", str(path), "--horizon", "200"]) == 0
    _, rows = _rows(capsys.readouterr().out)
    assert sorted(float(r[1]) for r in rows) == pytest.approx(np.log([0.5, 2.0, 3.0, 4.0]))
    # seeded samples need no default point
    path.write_text(json.dumps({"system": _DIAGONAL_4D}))
    assert main(["exponents", "--config", str(path), "--samples", "2", "--horizon", "50"]) == 0
    assert {r[0] for r in _rows(capsys.readouterr().out)[1]} == {"0", "1"}


@pytest.mark.parametrize("argv, why", [
    (["exponents", "--horizon", "x"], '--horizon must be an integer, got "x"'),
    (["exponents", "--merge-tol", "abc"], '--merge-tol must be a number, got "abc"'),
    (["partition", "--n", "4.5", "--k", "1", "--K", "1"], '--n must be an integer, got "4.5"'),
    (["measure", "--budgets", "1000,x"], '--budgets must be an integer, got "1000,x"'),
])
def test_flag_value_of_wrong_type_exits_2(capsys, argv, why):
    # a flag's text is parsed as a config value is, and named the same way
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"pesinlab {argv[0]}: error: {why}\n"


def test_readme_commands_parse():
    # parsing runs no command: each line of the README's command block
    # names a command, its flags and values of their types
    with open(os.path.join(ROOT, "README.md")) as fh:
        block = re.search(r"## Command line.*?```sh\n(.*?)```", fh.read(), re.S).group(1)
    lines = [shlex.split(line) for line in block.splitlines() if line.startswith("pesinlab ")]
    assert len(lines) == 10
    parser = cli.build_parser()
    for line in lines:
        opt = cli._resolve_options(parser.parse_args(line[1:]))
        assert set(opt) == set(cli._DEFAULTS[line[1]])


def _console_script_target():
    """Module and function named by the ``pesinlab`` console-script entry."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["pesinlab"]
    return entry.split(":")


def _source_env():
    """Environment for a child process that imports pesinlab from where
    this test imported it, so no install is needed."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(pesinlab.__file__)))
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def test_console_script_roundtrip():
    # Run the entry point as the generated wrapper does.
    module, func = _console_script_target()
    wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "partition", "--n", "24", "--k", "3", "--K", "4"],
        capture_output=True, text=True, env=_source_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["times"] == [0, 12, 24]


_IMPORT_PROBE = """
import contextlib, io, json, sys
import pesinlab, pesinlab.cli

def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

with contextlib.redirect_stdout(io.StringIO()):
    rc_partition = pesinlab.cli.main(["partition", "--n", "24", "--k", "3", "--K", "4"])
    before = loaded()
    rc_close = pesinlab.cli.main(["close", "--point", "0.31,0.57", "--n", "9"])
print(json.dumps([rc_partition, before, rc_close, loaded()]))
"""


def test_import_is_numpy_only():
    # scipy is imported by the Newton solve alone, so a fresh process that
    # imports pesinlab and runs a command without one never loads it; the
    # solve itself needs scipy.linalg and none of scipy.sparse
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE],
                          capture_output=True, text=True, env=_source_env())
    assert proc.returncode == 0, proc.stderr
    rc_partition, before, rc_close, after = json.loads(proc.stdout)
    assert rc_partition == 0 and before == []
    assert rc_close == 0 and "scipy.linalg" in after
    assert not [m for m in after if m.startswith("scipy.sparse")], after


@pytest.mark.skipif(shutil.which("pesinlab") is None,
                    reason="no pesinlab executable on PATH (package not installed)")
def test_installed_console_script_roundtrip():
    proc = subprocess.run(
        ["pesinlab", "partition", "--n", "24", "--k", "3", "--K", "4"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["times"] == [0, 12, 24]
