"""Seeded input generation for the qmotion benchmark.

Everything a run feeds the program is drawn here from the workload seed and
written to an inputs directory: one JSON config per scenario, the jet sets
of the library batches, and ``plan.json``, which lists the ops of one pass
of the workload mix with the checks each op's output must pass.  The
module uses only the standard library and numpy, so the orchestrating
process can read a plan without importing qmotion.

(a, b) states are drawn as the CLI's ``_random_state`` draws them:
a = +-U(0.5, 2), b = U(-1, 1).
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

WORKLOADS = ("trajectory", "sweep", "identities")
SIZES = ("full", "smoke")

UNIT_ENERGY = 0.5            # hbar = mu = 1, E = 1/2 unless a config says otherwise
DRIFT_TOL_REL = 1e-8         # acceptance criterion 6: H drift <= 1e-8 E
BOHM_TOL = 1e-8              # acceptance criterion 6: Bohm gap (newton law)
FREE_X_TOL = 1e-6            # acceptance criterion 1: x(T) against the closed form
MOMENTUM_TOL = 1e-10         # acceptance criterion 8
CANONICAL_TOL = 1e-10        # acceptance criterion 9
TURN_TOL = 1e-9              # acceptance criterion 10
CANONICAL_LATTICE = {"alpha00": 0.5, "beta00": 0.0,
                     "alpha20": 0.625, "beta20": -0.25}
MAX_SWEEP_WORKERS = 4        # the sweep pool follows nproc, capped for memory


def draw_state(rng: np.random.Generator) -> tuple[float, float]:
    a = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
    return float(a), float(rng.uniform(-1.0, 1.0))


def draw_jets(rng: np.random.Generator, count: int) -> list[list[float]]:
    """Order-5 motion jets: xd = +-U(0.5, 2), every other entry U(-1, 1)."""
    out = []
    for _ in range(count):
        coeffs = rng.uniform(-1.0, 1.0, 6)
        coeffs[1] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        out.append([float(c) for c in coeffs])
    return out


def free_x_of_time(a: float, b: float, t: float, energy: float = UNIT_ENERGY
                   ) -> float:
    """Position of the free first-order law after time t from x = 0.

    Inverts a sqrt(2E) t = F(x) - F(0) with
    F(u) = (a^2+b^2+1) u/2 + (1+b^2-a^2) sin(2ku)/(4k) - a b cos(2ku)/(2k),
    k = sqrt(2E) (hbar = mu = 1), by bisection.  It is the benchmark's own
    oracle for the integrated free run.
    """
    k = math.sqrt(2.0 * energy)

    def elapsed(u):
        f = ((a * a + b * b + 1.0) * u / 2.0
             + (1.0 + b * b - a * a) * math.sin(2.0 * k * u) / (4.0 * k)
             - a * b * math.cos(2.0 * k * u) / (2.0 * k))
        f0 = -a * b / (2.0 * k)
        return (f - f0) / (a * k)

    step = math.copysign(1.0, a)
    lo, hi = 0.0, step
    while elapsed(hi) < t:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if elapsed(mid) < t:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sweep_workers() -> int:
    try:
        n = len(os.sched_getaffinity(0))
    except AttributeError:
        n = os.cpu_count() or 1
    return max(1, min(n, MAX_SWEEP_WORKERS))


# ---------------------------------------------------------------------------
# op and check records (plain dicts, so a plan is one JSON document)

def _op(name, argv=None, *, batch=None, checks=(), expect_rc=(0,),
        known_defect=None, outputs=(), argv_warm=None):
    op = {"name": name, "argv": argv, "batch": batch, "checks": list(checks),
          "expect_rc": list(expect_rc), "outputs": list(outputs)}
    if known_defect:
        op["known_defect"] = known_defect
    if argv_warm is not None:
        op["argv_warm"] = argv_warm
    return op


def _write_config(dirpath, name, doc) -> str:
    path = os.path.join(dirpath, name + ".json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# trajectory

_TRAJ_SIZES = {
    # span and sample count per scenario group; "states" seeded states per
    # (potential, law) op type
    "full": {"seeded": (10.0, 256), "barrier_legacy": (40.0, 400),
             "barrier_velocity": (8.0, 256), "edge": (50.0, 256),
             "states": 2, "cold_runs": 5, "min_passes": 1},
    "smoke": {"seeded": (1.0, 16), "barrier_legacy": (40.0, 400),
              "barrier_velocity": (1.0, 16), "edge": (50.0, 16),
              "states": 1, "cold_runs": 1, "min_passes": 1},
}

_HARMONIC = {"kind": "harmonic", "stiffness": 1.0}
_NUMEROV = (("domain", [-3.0, 3.0]), ("grid_step", 1e-3))
BASELINE_STATE = (1.4, 0.3)   # the ROADMAP baseline's harmonic config
COLD_SWEEP_A = (1.4, -0.8)    # a values of the sweep's cold command


def _tabulated_harmonic() -> dict:
    xs = np.linspace(-3.5, 3.5, 141)
    return {"kind": "tabulated", "xs": [float(x) for x in xs],
            "vs": [float(0.5 * x * x) for x in xs]}


def stratified_states(rng: np.random.Generator, count: int
                      ) -> list[tuple[float, float]]:
    """``count`` states with |a| and b each stratified into ``count`` equal
    bins (a Latin hypercube): every state is still a = +-U(0.5, 2),
    b = U(-1, 1), but a set covers the state space evenly, so the cost of
    a pass depends little on the seed."""
    ua = (rng.permutation(count) + rng.uniform(size=count)) / count
    ub = (rng.permutation(count) + rng.uniform(size=count)) / count
    sign = rng.choice([-1.0, 1.0], size=count)
    return [(float(sg * (0.5 + 1.5 * x)), float(-1.0 + 2.0 * y))
            for sg, x, y in zip(sign, ua, ub)]


def _trajectory_plan(rng, size, inputs, outdir):
    sz = _TRAJ_SIZES[size]
    ops = []

    def scenario(name, potential, a, b, law, span, run_extra=(), checks=(),
                 x_last=None, **kw):
        t1, samples = span
        out = os.path.join(outdir, name + ".csv")
        doc = {"potential": potential, "quantum": {"a": a, "b": b},
               "run": {"law": law, "t1": t1, "samples": samples,
                       **dict(run_extra)},
               "output": {"path": out, "format": "both"}}
        cfg = _write_config(inputs, name, doc)
        summary = out + ".json"
        all_checks = list(checks)
        if x_last is not None:
            all_checks.append({"kind": "summary_close", "file": summary,
                               "key": "x_last", "value": x_last,
                               "tol": FREE_X_TOL})
        if law in ("velocity", "newton"):
            all_checks.append({"kind": "summary_max", "file": summary,
                               "key": "max_energy_drift_abs",
                               "max": DRIFT_TOL_REL * UNIT_ENERGY})
        if law == "newton":
            all_checks.append({"kind": "summary_max", "file": summary,
                               "key": "max_bohm_gap_rel", "max": BOHM_TOL})
        # a run that exits non-zero writes nothing, so it has no outputs
        outputs = [out, summary] if kw.get("expect_rc", (0,)) == (0,) else []
        ops.append(_op(name, ["trajectory", "--config", cfg],
                       checks=all_checks, outputs=outputs, **kw))

    span = sz["seeded"]
    op_types = [("free", {"kind": "free"}, law, ())
                for law in ("velocity", "newton", "legacy")]
    op_types += [("harmonic", _HARMONIC, law, _NUMEROV)
                 for law in ("velocity", "newton", "legacy")]
    op_types += [("tabulated", _tabulated_harmonic(), law, _NUMEROV)
                 for law in ("velocity", "legacy")]
    for pot_name, potential, law, extra in op_types:
        for k, (a, b) in enumerate(stratified_states(rng, sz["states"])):
            x_last = (free_x_of_time(a, b, span[0])
                      if (pot_name, law) == ("free", "velocity") else None)
            scenario(f"{pot_name}{k}-{law}", potential, a, b, law, span,
                     extra, x_last=x_last)
    scenario("harmonic-baseline-velocity", _HARMONIC, *BASELINE_STATE,
             "velocity", span, _NUMEROV)
    barrier = {"kind": "linear", "slope": 0.5}
    scenario("barrier-legacy", barrier, 1.0, 0.0, "legacy",
             sz["barrier_legacy"], (("domain", [-2.0, 6.0]),),
             checks=[{"kind": "turning_point", "value": 1.0,
                      "tol": TURN_TOL}])
    scenario("barrier-velocity", barrier, 1.0, 0.0, "velocity",
             sz["barrier_velocity"], (("domain", [-2.0, 6.0]),))
    scenario("domain-edge", barrier, 1.0, 0.0, "velocity", sz["edge"],
             (("domain", [-2.0, 3.0]),), expect_rc=(0, 3),
             known_defect={"rc": 3, "stderr": "outside solved domain",
                           "note": "a run reaching the pair's domain edge "
                           "exits 3 and writes no CSV (ROADMAP item 3 ii)"})

    ref = next(op for op in ops if op["name"] == "harmonic-baseline-velocity")
    cold_out = os.path.join(outdir, "cold.csv")
    cold = {"argv": ref["argv"] + ["--out", cold_out],
            "outputs": [cold_out, cold_out + ".json"],
            "same_as": ref["name"], "runs": sz["cold_runs"]}
    return ops, cold, []


# ---------------------------------------------------------------------------
# sweep

_SWEEP_SIZES = {
    "full": {"a": 4, "b": 3, "energy": [0.5, 0.8], "grid_step": 2.5e-4,
             "cold_runs": 5, "min_passes": 2},
    "smoke": {"a": 2, "b": 1, "energy": [0.5], "grid_step": 1e-3,
              "cold_runs": 1, "min_passes": 1},
}


def _sweep_plan(rng, size, inputs, outdir):
    """The timed sweep runs serially: the process pool spreads the cells
    over cores whose speeds change independently (see calibrate.py), so
    its times cannot be scaled.  The warm-up pass runs the same sweep over
    the pool, and every timed run must match its output byte for byte."""
    sz = _SWEEP_SIZES[size]
    # each axis stratified as in stratified_states: a cell's cost depends
    # strongly on its (a, b), so plain draws would make a sweep's cost
    # vary with the seed by a fifth
    a_list = [a for a, _ in stratified_states(rng, sz["a"])]
    b_list = [b for _, b in stratified_states(rng, sz["b"])]
    run = {"law": "velocity", "t1": 0.5, "samples": 16,
           "domain": [-6.0, 6.0], "grid_step": sz["grid_step"]}

    def sweep(name, a, b):
        doc = {"potential": _HARMONIC, "run": run,
               "sweep": {"a": a, "b": b, "energy": sz["energy"]}}
        out = os.path.join(outdir, name + ".csv")
        argv = ["sweep", "--config", _write_config(inputs, name, doc),
                "--out", out, "--workers"]
        cells = len(a) * len(b) * len(sz["energy"])
        check = {"kind": "sweep_rows", "file": out, "rows": cells,
                 "column": "max_energy_drift_rel", "max": DRIFT_TOL_REL}
        return argv, out, cells, check

    argv, out, cells, check = sweep("sweep", a_list, b_list)
    op = _op("sweep", argv + ["1"], checks=[check], outputs=[out],
             argv_warm=argv + [str(sweep_workers())])
    op["cells"] = cells
    # the cold command sweeps fixed states, so its cost does not follow the seed
    argv, out, _, check = sweep("sweep-cold", list(COLD_SWEEP_A),
                                [BASELINE_STATE[1]])
    cold_op = _op("sweep-cold", argv + ["1"], checks=[check], outputs=[out])
    cold = {"argv": cold_op["argv"], "outputs": [out],
            "same_as": "sweep-cold", "runs": sz["cold_runs"]}
    return [op], cold, [cold_op]


# ---------------------------------------------------------------------------
# identities

_ID_SIZES = {
    "full": {"master": 1000, "levels": 4, "momenta_jets": 200,
             "canonical_jets": 100, "cold_runs": 7, "min_passes": 3},
    "smoke": {"master": 50, "levels": 2, "momenta_jets": 10,
              "canonical_jets": 5, "cold_runs": 1, "min_passes": 1},
}


def _identities_plan(rng, size, inputs, outdir, seed):
    sz = _ID_SIZES[size]
    s = str(seed)
    jets_path = os.path.join(inputs, "jets.json")
    with open(jets_path, "w") as fh:
        json.dump({"momenta": draw_jets(rng, sz["momenta_jets"]),
                   "canonical": draw_jets(rng, sz["canonical_jets"])}, fh)
        fh.write("\n")
    master = ["verify", "master", "--samples", str(sz["master"]), "--seed", s]
    ops = [
        _op("verify-master", master),
        _op("verify-master-perturbed", master + ["--perturb", "alpha20=0.635"],
            expect_rc=(1,)),
        _op("coefficients", ["coefficients", "--levels", str(sz["levels"]),
                             "--seed", s],
            checks=[{"kind": "stdout_contains", "text": "unique: True"},
                    {"kind": "lattice", "entries": CANONICAL_LATTICE}]),
    ]
    for i in (1, 2, 3):
        for pot in ("free", "linear", "harmonic"):
            # the naive canonical route is inconsistent for i = 1 unless V is flat
            consistent = i != 1 or pot == "free"
            ops.append(_op(
                f"demo-i{i}-{pot}",
                ["demo", "linear-term", "--i", str(i), "--potential", pot,
                 "--seed", s],
                checks=[{"kind": "stdout_contains",
                         "text": f"consistent: {consistent}"}]))
    ops.append(_op("momenta-batch",
                   batch={"fn": "momenta", "jets": jets_path, "set": "momenta"},
                   checks=[{"kind": "batch_max", "max": MOMENTUM_TOL}]))
    for lam in (0.5, 1e-3, 1e-6):
        ops.append(_op(f"canonical-batch-lam{lam:g}",
                       batch={"fn": "canonical", "lam": lam,
                              "jets": jets_path, "set": "canonical"},
                       checks=[{"kind": "batch_max", "max": CANONICAL_TOL}]))
    cold = {"argv": master, "outputs": [], "same_as": "verify-master",
            "runs": sz["cold_runs"]}
    return ops, cold, []


# ---------------------------------------------------------------------------

def generate(workload: str, seed: int, size: str, inputs: str, outdir: str
             ) -> dict:
    """Write every input of one run under ``inputs`` and return the plan.

    ``outdir`` is where the program is told to write its outputs.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    os.makedirs(inputs, exist_ok=True)
    os.makedirs(outdir, exist_ok=True)
    rng = np.random.default_rng(seed)
    if workload == "trajectory":
        ops, cold, warm_ops = _trajectory_plan(rng, size, inputs, outdir)
    elif workload == "sweep":
        ops, cold, warm_ops = _sweep_plan(rng, size, inputs, outdir)
    else:
        ops, cold, warm_ops = _identities_plan(rng, size, inputs, outdir,
                                               seed)
    sizes = {"trajectory": _TRAJ_SIZES, "sweep": _SWEEP_SIZES,
             "identities": _ID_SIZES}[workload][size]
    plan = {"workload": workload, "seed": seed, "size": size,
            "min_passes": sizes["min_passes"], "ops": ops,
            "warm_ops": warm_ops, "cold": cold}
    with open(os.path.join(inputs, "plan.json"), "w") as fh:
        json.dump(plan, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return plan
