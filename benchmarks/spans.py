"""Spans and counters around pesinlab's public functions, for traced runs.

``install(pesinlab)`` replaces the functions and methods listed in
``LAYERS`` with wrappers that record one span per call (name, start, end,
parent span, round) and add counts taken from the call's arguments or
result.  Spans nest; each layer is charged its self time, the span's length
less the part its child spans cover.  Spans stay in memory and are written
out when the run ends.  The program itself is not changed.
"""

from __future__ import annotations

import json
import math
import time


def _count(metric, amount):
    """Hook adding ``amount(result, args)`` to one counter after a call returns."""
    return lambda result, args: {} if result is None else {metric: amount(result, args)}


def _shadow_counts(result, args):
    if result is None:  # ConvergenceError
        return {"shadow.attempted": 1}
    return {"shadow.attempted": 1, "shadow.converged": 1,
            "shadow.newton_iterations": result.iterations,
            "shadow.points_solved": len(result.points)}


def _transit_counts(result, args):
    if result is None:
        return {}
    return {"specmeas.transit_pairs": result.X.size,
            "specmeas.transit_pairs_resolved": int((result.X >= 0).sum())}


_steps = _count("systems.orbit_steps", lambda r, a: a[2])
_batch_steps = _count("systems.orbit_steps", lambda r, a: a[2] * r.shape[1])
_inverted = _count("systems.inverse_points", lambda r, a: math.prod(r.shape[:-1]))

# (module, class, attribute, self-time metric, count hook).  A class of None
# patches a module-level function, in its module and in every pesinlab
# module that imported it by name.  Hooks get (result or None, args).
LAYERS = [
    ("systems", "TorusMap", "orbit", "systems.orbit_s", _steps),
    ("systems", "CatMap", "orbit", "systems.orbit_s", _steps),
    ("systems", None, "orbit_many", "systems.orbit_s", _batch_steps),
    ("systems", "CatMap", "inverse_many", "systems.inverse_s", _inverted),
    ("systems", "CircleG", "inverse_many", "systems.inverse_s", _inverted),
    ("systems", "Product24", "inverse_many", "systems.inverse_s", _inverted),
    ("systems", "CatMap", "jacobian_many", "systems.jacobian_s", None),
    ("systems", "CircleG", "jacobian_many", "systems.jacobian_s", None),
    ("systems", "Product24", "jacobian_many", "systems.jacobian_s", None),
    ("cocycle", "OrbitData", "__init__", "cocycle.orbit_data_s", None),
    ("cocycle", "OrbitData", "block_logs", "cocycle.block_logs_s", None),
    ("cocycle", "OrbitData", "full_e_logs", "cocycle.full_e_logs_s", None),
    ("cocycle", "OrbitData", "full_f_logs", "cocycle.full_f_logs_s", None),
    ("cocycle", None, "lyapunov_spectrum", "cocycle.spectrum_s", None),
    ("cocycle", None, "mean_exponents_many", "cocycle.mean_exponents_s", None),
    ("pesin", None, "check_block_membership_many", "pesin.membership_s",
     _count("pesin.certificates", lambda r, a: len(r))),
    ("pesin", None, "min_block_index", "pesin.block_index_s", None),
    ("quasihyp", None, "check_quasi_hyperbolic", "quasihyp.check_s",
     _count("quasihyp.segments", lambda r, a: 1)),
    ("shadow", None, "solve_shadow", "shadow.solve_s", _shadow_counts),
    ("shadow", None, "close_orbit", "shadow.close_s", None),
    ("specmeas", None, "build_cover", "specmeas.cover_s",
     _count("specmeas.cover_balls", lambda r, a: r.size)),
    ("specmeas", "Cover", "members", "specmeas.members_s", None),
    ("specmeas", "Cover", "locate", "specmeas.locate_s", None),
    ("specmeas", None, "transition_times", "specmeas.transit_s", _transit_counts),
    ("specmeas", None, "glue_segments", "specmeas.glue_s", None),
    ("specmeas", "EmpiricalMeasure", "character_moments", "specmeas.moments_s", None),
]

TIME_METRICS = sorted({layer[3] for layer in LAYERS})
COUNT_METRICS = [
    "systems.orbit_steps", "systems.inverse_points", "pesin.certificates",
    "quasihyp.segments", "shadow.newton_iterations", "shadow.points_solved",
    "shadow.converged", "shadow.attempted", "specmeas.cover_balls",
    "specmeas.transit_pairs", "specmeas.transit_pairs_resolved",
]
IMPORT_METRICS = ["import.pesinlab_s", "import.scipy_s"]
MODULES = ["systems", "cocycle", "pesin", "quasihyp", "shadow", "specmeas"]


class Tracer:
    """Collects spans and counts; ``round`` tags the spans of each round."""

    def __init__(self):
        self.spans = []          # (id, parent, name, start, end, round)
        self.self_time = dict.fromkeys(TIME_METRICS, 0.0)
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self.round = 0
        self._stack = []         # [span id, child seconds]

    def wrap(self, fn, metric, hook):
        tracer = self

        def traced(*args, **kwargs):
            sid = len(tracer.spans)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            tracer.spans.append(None)
            frame = [sid, 0.0]
            tracer._stack.append(frame)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.self_time[metric] += (t1 - t0) - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += t1 - t0
                tracer.spans[sid] = (sid, parent, metric, t0, t1, tracer.round)
                if hook is not None:
                    for name, amount in hook(result, args).items():
                        tracer.counts[name] += amount

        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self, pesinlab):
        mods = {name: getattr(pesinlab, name) for name in MODULES}
        for mod_name, owner, attr, metric, hook in LAYERS:
            mod = mods[mod_name]
            if owner is not None:
                cls = getattr(mod, owner)
                setattr(cls, attr, self.wrap(cls.__dict__[attr], metric, hook))
                continue
            orig = getattr(mod, attr)
            traced = self.wrap(orig, metric, hook)
            for other in [pesinlab, *mods.values()]:
                if getattr(other, attr, None) is orig:
                    setattr(other, attr, traced)

    def per_round(self, rounds):
        """Self seconds and counts per round, as benchmark metrics."""
        out = {m: {"value": v / rounds, "unit": "s"} for m, v in self.self_time.items()}
        out.update({m: {"value": v / rounds, "unit": "count"}
                    for m, v in self.counts.items()})
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1, rnd in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1, "round": rnd}) + "\n")


def parse_importtime(stderr):
    """(pesinlab cumulative seconds, scipy seconds) from ``python -X importtime``.

    scipy's time is the sum of the self times of every scipy module, so it
    counts each module once whichever package imported it first.
    """
    pesinlab_us, scipy_us = None, 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        try:
            self_us, cum_us = int(parts[0]), int(parts[1])
        except ValueError:
            continue  # the header line
        name = parts[2].strip()
        if name == "pesinlab":
            pesinlab_us = cum_us
        elif name == "scipy" or name.startswith("scipy."):
            scipy_us += self_us
    if pesinlab_us is None:
        raise RuntimeError("pesinlab missing from -X importtime output")
    return pesinlab_us * 1e-6, scipy_us * 1e-6
