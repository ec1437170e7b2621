"""pesinlab benchmark: one workload, one seed, a fixed time, one JSON result.

    python3 benchmarks/run.py --workload certify --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports pesinlab from its
``src`` directory, never an installed copy.  The run repeats whole rounds of
the workload until ``--seconds`` have passed; before each round (and at
least five times) a fresh process imports pesinlab and builds the systems,
which gives ``setup_s``.  Every output is checked; the last line of stdout
is the result object.  With ``--trace 1`` the run wraps pesinlab's public
functions in spans and reports per-layer figures instead of end-to-end
ones.  Result and trace files go to ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROCESSES = 5               # at least; one more runs before each round
SETUP_CODE = (
    "import pesinlab as pl\n"
    "systems = [pl.make_system(n) for n in ('cat', 'circle-g', 'product24')]\n"
    "splits = [pl.reference_splitting(s) for s in systems if s.name != 'circle-g']\n"
    "print(pl.__file__)\n"
)
WORKLOADS = ("certify", "shadow", "specify")


def child_env():
    env = dict(os.environ)
    env.update({var: BLAS_THREADS for var in BLAS_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def time_setup(speed, trace):
    """Start and end of one fresh setup process; with trace, its
    -X importtime figures (pesinlab, scipy) too."""
    import spans

    cmd = [sys.executable] + (["-X", "importtime"] if trace else []) + ["-c", SETUP_CODE]
    speed.tick()
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=120)
    span = (t0, time.perf_counter())
    speed.tick()
    if proc.returncode != 0:
        raise RuntimeError(f"setup process failed:\n{proc.stderr}")
    if Path(proc.stdout.strip()).resolve().parent.parent != SRC.resolve():
        raise RuntimeError(f"setup imported pesinlab from {proc.stdout.strip()}")
    return span, spans.parse_importtime(proc.stderr) if trace else None


def git_commit():
    """Commit of a git checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref_name = head[5:]
        ref_file = git / ref_name
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref_name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_facts(np, scipy):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "commit": git_commit(),
    }


def end_to_end(b, setup, rounds, specify_size):
    """The end-to-end metrics; times are those of a typical round (see
    ``Bench.typical``), setup_s the median fresh process."""
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "setup_s": ("s", statistics.median(setup)),
        "wall_s": ("s", b.typical(None, rounds)[1]),
        "peak_rss_mb": ("MB", rss_mb),
        "glue_s": ("s", b.typical({"glue", "transit_steps"}, rounds)[1]
                   / specify_size.pipelines),
    }
    calls, seconds = b.typical({"measure"}, rounds)
    values["measure_s"] = ("s", seconds / calls)
    for metric in ("block_certs", "qh_segments", "block_index", "exponent_steps",
                   "shadowed_points", "closings", "transit_steps"):
        values[f"{metric}_per_s"] = ("1/s", b.rate(metric, rounds))
    return {k: {"value": v, "unit": u} for k, (u, v) in values.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "pesinlab" / "__init__.py").is_file():
        print(f"run.py: no pesinlab sources at {SRC}; run from a pesinlab checkout",
              file=sys.stderr)
        return 2

    # BLAS pools read these once, when numpy loads.
    os.environ.update({var: BLAS_THREADS for var in BLAS_VARS})
    sys.path.insert(0, str(SRC))
    import numpy as np
    import scipy

    import pesinlab
    import spans
    import workloads as wl

    if Path(pesinlab.__file__).resolve().parent.parent != SRC.resolve():
        print(f"run.py: imported pesinlab from {pesinlab.__file__}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install(pesinlab)

    speed = wl.Speed()
    b = wl.Bench(pesinlab, speed)
    rounds_busy, setups = [], []
    t_start = time.perf_counter()
    t_end = t_start + args.seconds
    while True:
        setups.append(time_setup(speed, args.trace))
        if tracer:
            tracer.round = len(rounds_busy)
        rounds_busy.append(wl.run_round(b, args.workload, args.seed, len(rounds_busy)))
        if time.perf_counter() >= t_end:
            break
    while len(setups) < SETUP_PROCESSES:
        setups.append(time_setup(speed, args.trace))
    setup = [speed.ref_seconds(*span) for span, _ in setups]
    rounds = len(rounds_busy)

    if tracer:
        metrics = tracer.per_round(rounds)
        for name, column in zip(spans.IMPORT_METRICS, zip(*(i for _, i in setups))):
            metrics[name] = {"value": statistics.median(column), "unit": "s"}
    else:
        size = "full" if args.workload == "specify" else "probe"
        metrics = end_to_end(b, setup, rounds, wl.SPECIFY[size])

    correct = not b.problems
    result = {"correct": correct, "attempted": b.attempted, "failed": b.failed,
              "metrics": metrics}
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_facts(np, scipy),
        "rounds": rounds, "round_busy_s": rounds_busy, "setup_s": setup,
        "typical_round_ref_s": b.typical(None, rounds)[1],
        "family_busy_s": b.family_busy,
        "calibration_kernel_s": speed.kernel_s,
        "calibration_kernel_at": [round(t - t_start, 6) for t in speed.at],
        "call_spans": {f"{m}:{k}": [[round(c[1] - t_start, 6), round(c[2] - t_start, 6)]
                                    for c in calls]
                       for (m, k), calls in b.calls.items()},
        "problems": b.problems[:50], **result,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        tracer.write(out_dir / f"{stem}.trace.jsonl")

    for problem in b.problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {rounds} rounds, median round "
          f"{statistics.median(rounds_busy):.4f} s in pesinlab, "
          f"{b.failed} of {b.attempted} operations failed")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
