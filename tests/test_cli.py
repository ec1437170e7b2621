"""Command-line interface: option resolution, output formats, exit codes."""

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import pesinlab
from pesinlab import systems as dyn
from pesinlab.cli import main
from pesinlab.shadow import make_pseudo_orbit, write_pseudo_orbit

LOG_U = np.log((3.0 + np.sqrt(5.0)) / 2.0)
PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "pyproject.toml")


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


def test_glue_command(capsys):
    rc = main(["glue", "--mesh", "0.2", "--segments", "2", "--len-min", "10",
               "--len-max", "15", "--cover-samples", "2000",
               "--horizon", "5000", "--budget", "4", "--seed", "0"])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["within_bounds"] is True
    lo, hi = rec["period_bounds"]
    assert lo <= rec["period"] <= hi
    assert rec["residual"] < 1e-12
    assert max(rec["deviations"]) < 0.2
    assert len(rec["plan"]["segments"]) == 2


def test_measure_command(capsys):
    rc = main(["measure", "--budgets", "800,1600", "--target-n", "4000",
               "--seed", "13"])
    assert rc == 0
    header, rows = _rows(capsys.readouterr().out)
    assert header == ["budget", "period", "distance"]
    assert [int(r[0]) for r in rows] == [800, 1600]
    assert all(int(r[1]) >= 500 and np.isfinite(float(r[2])) for r in rows)


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
