"""Command-line front end: scenarios, verification suites, demos, sweeps.

Scenario parameters live in a JSON config document with sections
``potential``, ``physics``, ``quantum``, ``run``, ``output`` (and
``sweep`` for grid runs); unknown sections or keys are rejected before
any computation starts.  A key the document leaves out takes its default
from one place: ``ScenarioConfig`` for ``run`` keys, this module's table
for the physics and quantum values the library has no default for.  Exit
codes:
0 success, 1 a verification residual exceeded its tolerance, 2
configuration error (a bad option, config document or sweep axis, or a
file that cannot be read or written), 3 numerical failure.  A trajectory
that reaches the edge of the solved domain before t1 writes its samples
up to the edge, then exits 3.  ``--law`` is checked where ``run.law`` is,
by ``ScenarioConfig``, so an unknown law is a configuration error.

A subcommand loads only the modules it runs: ``trajectory``, ``sweep``
and ``demo legacy-stall`` never import the kinetic series or the
higher-derivative mechanics, and ``verify master``, ``coefficients`` and
``demo linear-term`` never import the laws of motion, the integrator, the
root finder or the reduced action.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from typing import TYPE_CHECKING

import numpy as np

from .jets import JetDomainError, SingularityError
from .schrodinger import PhysParams, PotentialModel, SchrodingerError, solve_pair

# The other modules are imported inside the functions that run them, so that
# a process loads only its own command's half of the package.
if TYPE_CHECKING:
    from . import trajectory as traj
    from .kinetic_series import KineticCoefficients

__all__ = ["ConfigError", "entry", "load_config", "run", "scenario_from_config"]


class ConfigError(ValueError):
    """Bad config document: unknown keys, missing values, wrong types."""


_SCHEMA = {
    "potential": {"kind", "slope", "stiffness", "csv", "xs", "vs"},
    "physics": {"hbar", "mu", "energy"},
    "quantum": {"a", "b"},
    "run": {"law", "x_start", "t0", "t1", "samples", "domain", "grid_step"},
    "output": {"path", "format"},
    "sweep": {"a", "b", "energy"},
}

def load_config(path) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    for section, body in doc.items():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section {section!r}")
        if not isinstance(body, dict):
            raise ConfigError(f"section {section!r} must be an object")
        bad = set(body) - _SCHEMA[section]
        if bad:
            raise ConfigError(
                f"unknown keys in section {section!r}: {sorted(bad)}")
    return doc


def _potential_from(cfg: dict) -> PotentialModel:
    kind = cfg.get("kind", "free")
    if kind == "free":
        return PotentialModel.free()
    if kind == "linear":
        return PotentialModel.linear(float(cfg.get("slope", 1.0)))
    if kind == "harmonic":
        return PotentialModel.harmonic(float(cfg.get("stiffness", 1.0)))
    if kind == "tabulated":
        if "csv" in cfg:
            return PotentialModel.from_csv(cfg["csv"])
        return PotentialModel.tabulated(cfg.get("xs", ()), cfg.get("vs", ()))
    raise ConfigError(f"unknown potential kind {kind!r}")


# the physics and quantum values the library has no default for, taken when
# a document leaves them out (b defaults to 0 in QuantumStateParams)
_DEFAULTS = {"physics": {"hbar": 1.0, "mu": 1.0, "energy": 0.5},
             "quantum": {"a": 1.0}}

# how each key is read; a run key the document leaves out takes the
# ScenarioConfig default
_CASTS = {**dict.fromkeys(("hbar", "mu", "energy", "a", "b", "x_start",
                           "grid_step"), float),
          "samples": int,
          "domain": lambda v: None if v is None else tuple(v)}


def _read(doc: dict, section: str) -> dict:
    """The section's keys over its ``_DEFAULTS``, each read by its cast
    (``run``'s t0, t1 and law are read apart)."""
    body = {**_DEFAULTS.get(section, {}), **doc.get(section, {})}
    return {k: _CASTS[k](v) for k, v in body.items() if k in _CASTS}


def scenario_from_config(doc: dict, law: str | None = None) -> traj.ScenarioConfig:
    from . import trajectory as traj
    from .reduced_action import QuantumStateParams, StateParamError

    try:
        potential = _potential_from(doc.get("potential", {}))
        params = PhysParams(**_read(doc, "physics"))
        q = QuantumStateParams(**_read(doc, "quantum"))
        run = doc.get("run", {})
        kw = _read(doc, "run")
        if "t0" in run or "t1" in run:
            t0, t1 = traj.ScenarioConfig.t_span
            kw["t_span"] = (float(run.get("t0", t0)), float(run.get("t1", t1)))
        if law is not None or "law" in run:
            kw["law"] = run["law"] if law is None else law
        return traj.ScenarioConfig(potential=potential, params=params, q=q,
                                   **kw)
    except (ValueError, TypeError, KeyError, OverflowError, SchrodingerError,
            StateParamError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad scenario configuration: {exc}") from exc


def _check_writable(path) -> None:
    """Raise ConfigError unless ``path`` can be opened for writing: an
    existing file that may be written, or a new name in a directory that
    may be written.  Nothing is created or truncated, so a command checks
    its outputs before any work."""
    if not isinstance(path, str):
        raise ConfigError(f"output path must be a string, got {path!r}")
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        problem = "it is a directory"
    elif not os.path.isdir(parent):
        problem = f"no directory {parent}"
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        problem = "permission denied"
    else:
        return
    raise ConfigError(f"cannot write output {path}: {problem}")


def _doc_for(args) -> dict:
    """The --config document, or an empty one (every key at its default)."""
    if getattr(args, "config", None):
        return load_config(args.config)
    return {}


def _say(args, *parts) -> None:
    if not args.quiet:
        print(*parts)


def _random_state(rng):
    from .reduced_action import QuantumStateParams

    a = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
    return QuantumStateParams(a=float(a), b=float(rng.uniform(-1.0, 1.0)))


# ---------------------------------------------------------------------------
# subcommands

def _cmd_trajectory(args) -> int:
    from . import trajectory as traj

    doc = _doc_for(args)
    s = scenario_from_config(doc, law=args.law)
    path = args.out or doc.get("output", {}).get("path")
    if path is None:
        raise ConfigError("trajectory needs an output path "
                          "(output.path in the config or --out)")
    fmt = doc.get("output", {}).get("format", "csv")
    if fmt not in ("csv", "json", "both"):
        raise ConfigError(f"unknown output format {fmt!r}")
    _check_writable(path)
    if fmt == "both":
        _check_writable(path + ".json")
    try:
        result, report = traj.run_scenario(s)
    except traj.DomainEdgeError as exc:
        # the samples up to the edge are written, then the run exits 3
        _write_run(args, s, fmt, path, exc.partial)
        raise
    if report is not None and report.stalled:
        _say(args, f"legacy law stalled near x = {report.x_stall:.9g} "
                   f"(turning point {report.x_turn})")
    _write_run(args, s, fmt, path, result)
    return 0


def _write_run(args, s: traj.ScenarioConfig, fmt: str, path: str,
               result: traj.TrajectoryResult) -> None:
    from . import trajectory as traj

    note = s.pair.truncation_note()
    if note:
        print(note, file=sys.stderr)
    if fmt in ("csv", "both"):
        traj.write_csv(result.samples, path)
        _say(args, f"wrote {len(result.samples)} samples to {path}")
    if fmt in ("json", "both"):
        jpath = path if fmt == "json" else path + ".json"
        traj.write_summary(result, jpath)
        _say(args, f"wrote summary to {jpath}")


def _cmd_verify_qshje(args) -> int:
    from .reduced_action import qshje_residual

    rng = np.random.default_rng(args.seed)
    params = PhysParams(hbar=1.0, mu=1.0, energy=0.5)
    cases = (("free", solve_pair(PotentialModel.free(), params, (-8.0, 8.0)),
              6.0, 1e-10),
             ("harmonic", solve_pair(PotentialModel.harmonic(1.0), params,
                                     (-3.0, 3.0), grid_step=1e-3), 2.5, 1e-6))
    ok = True
    for name, pair, span, tol in cases:
        worst = 0.0
        for _ in range(args.samples):
            q = _random_state(rng)
            xs = rng.uniform(-span, span, size=25)
            # np.maximum carries a NaN residual through to a failed check
            worst = np.maximum(worst, np.max(qshje_residual(pair, q, xs)))
        _say(args, f"{name} pair: max residual {worst:.3e} (tol {tol:.1e})")
        ok &= bool(worst <= tol)
    return 0 if ok else 1


_PERTURB_NAMES = ("alpha", "beta")


def _apply_perturbations(c: KineticCoefficients, specs) -> KineticCoefficients:
    for spec in specs or ():
        try:
            name, raw = spec.split("=", 1)
            value = float(raw)
            base = name.rstrip("0123456789")
            digits = name[len(base):]
            if base not in _PERTURB_NAMES or len(digits) != 2:
                raise ValueError
            n, k = int(digits[0]), int(digits[1])
        except ValueError:
            raise ConfigError(
                f"bad --perturb {spec!r}; expected e.g. alpha20=0.7")
        if base == "alpha":
            c = c.with_entry(n, k, alpha=value)
        else:
            c = c.with_entry(n, k, beta=value)
    return c


def _cmd_verify_master(args) -> int:
    from .kinetic_series import (KineticCoefficients, master_residual,
                                 sample_jet_block)

    rng = np.random.default_rng(args.seed)
    c = _apply_perturbations(KineticCoefficients.canonical(), args.perturb)
    params = PhysParams(hbar=1.0, mu=1.0, energy=0.5)
    tol = 1e-10
    jets = sample_jet_block(rng, args.samples)
    worst = float(np.max(master_residual(c, jets, params)))
    _say(args, f"master residual over {args.samples} jets: "
               f"max {worst:.3e} (tol {tol:.1e})")
    return 0 if worst <= tol else 1


def _cmd_verify_conservation(args) -> int:
    from . import trajectory as traj

    doc = _doc_for(args)
    rng = np.random.default_rng(args.seed)
    base = scenario_from_config(doc)
    base.build_pair()  # shared: it depends on neither (a, b) nor law
    drift_tol = max(1e-8 * abs(base.params.energy), 1e-10)
    bohm_tol = 1e-8
    ok = True
    for idx in range(args.samples):
        q = _random_state(rng)
        for law in ("velocity", "newton"):
            s = dataclasses.replace(base, q=q, law=law)
            summary = traj.summarize(traj.run_scenario(s)[0])
            drift = summary["max_energy_drift_abs"]
            bohm = summary["max_bohm_gap_rel"]
            good = drift <= drift_tol and bohm <= bohm_tol
            line = (f"({q.a:+.3f},{q.b:+.3f}) {law:8s} "
                    f"H drift {drift:.2e}  Bohm gap {bohm:.2e}")
            if s.potential.kind == "free":
                pd = summary["max_principal_drift_rel"]
                good &= pd <= bohm_tol
                line += f"  P drift {pd:.2e}"
            _say(args, line + ("" if good else "  <-- FAIL"))
            ok &= good
    return 0 if ok else 1


def _cmd_coefficients(args) -> int:
    from .kinetic_series import determine_coefficients

    c, report = determine_coefficients(levels=args.levels, seed=args.seed)
    if not args.quiet:
        print(report.summary())
        print("determined lattice:")
        for (n, k), (al, be) in sorted(c.entries.items()):
            print(f"  alpha{n}{k} = {al:.12g}   beta{n}{k} = {be:.12g}")
        print(f"unique: {report.unique}")
    return 0


def _cmd_demo_linear_term(args) -> int:
    from .mechanics import linear_term_demo

    # unit stiffness for the harmonic potential, and the constant f = 1/2
    potential = _potential_from({"kind": args.potential, "slope": args.slope})
    report = linear_term_demo(args.i, 0.5, potential, args.lam, seed=args.seed)
    _say(args, report.summary())
    return 0


def _cmd_demo_legacy_stall(args) -> int:
    from . import trajectory as traj

    doc = _doc_for(args)
    if "potential" not in doc or doc["potential"].get("kind") == "free":
        doc["potential"] = {"kind": "linear", "slope": 0.5}
        doc.setdefault("run", {})
        doc["run"].setdefault("domain", [-2.0, 6.0])
        try:
            t1 = float(doc["run"].get("t1", 0.0))
        except (ValueError, TypeError, OverflowError) as exc:
            raise ConfigError(f"bad scenario configuration: {exc}") from exc
        doc["run"]["t1"] = max(40.0, t1)
    s = scenario_from_config(doc, law="legacy")
    _, report = traj.run_scenario(s)
    _say(args, f"legacy law on {s.potential.kind} potential, "
               f"E = {s.params.energy:g}:")
    _say(args, f"  stalled: {report.stalled}")
    for note in report.notes:
        _say(args, f"  {note}")
    # the same scenario and pair under the first-order law
    rv, _ = traj.run_scenario(dataclasses.replace(s, law="velocity"))
    vmin = min(abs(p.xdot) for p in rv.samples)
    _say(args, f"  first-order action-gradient law over the same span: "
               f"x reaches {rv.samples[-1].x:.6g}, min |xd| = {vmin:.6g}")
    return 0


# the summary keys a sweep row carries after its a, b and energy
_SWEEP_KEYS = ("x_last", "max_energy_drift_rel", "max_bohm_gap_rel",
               "min_abs_xdot", "energy_conserved")


def _sweep_group(task):
    """Run the sweep cells ``[(idx, a, b), ...]`` that share one energy.

    The solution pair depends on the energy but not on (a, b), so the
    energy's cells are states of one scenario, read from the document with
    the first cell's (a, b), and share its pair.  ``trajectory.state_maxima``
    runs them under the scenario's law.  Each cell's state is checked in
    grid order, and an invalid one is reported once the cells before it
    have run, as running the cells one at a time would.  Returns the
    ``(idx, row)`` pairs and the pair's truncation note (None unless the
    cells' march met the overflow cap).
    """
    from . import trajectory as traj
    from .reduced_action import StateParamError

    doc, energy, cells = task
    _, a, b = cells[0]
    s = scenario_from_config({
        **doc, "physics": {**doc.get("physics", {}), "energy": energy},
        "quantum": {**doc.get("quantum", {}), "a": a, "b": b}})
    states, invalid = [], None
    for _, a, b in cells:
        try:
            states.append(dataclasses.replace(s.q, a=a, b=b))
        except StateParamError as exc:
            invalid = ConfigError(f"bad scenario configuration: {exc}")
            break
    maxima = traj.state_maxima(s, states)
    if invalid is not None:
        raise invalid
    values = zip(*(maxima[key] for key in _SWEEP_KEYS))
    rows = [(idx, (a, b, energy, *v)) for (idx, a, b), v in zip(cells, values)]
    return rows, s.pair.truncation_note()


def _sweep_axis(grid: dict, key: str, default) -> list:
    """The sweep axis ``key``: a non-empty JSON list of numbers, or
    [default] when the section leaves it out."""
    if key not in grid:
        values = [default]
    else:
        values = grid[key]
        if not (isinstance(values, list)
                and all(type(v) in (int, float) for v in values)):
            raise ConfigError(f"sweep axis {key!r} must be a list of "
                              f"numbers, got {values!r}")
        if not values:
            raise ConfigError(f"sweep axis {key!r} is empty, so the sweep "
                              "has no cells")
    try:
        return [float(v) for v in values]
    except OverflowError as exc:
        raise ConfigError(f"sweep axis {key!r}: {exc}") from exc


def _cmd_sweep(args) -> int:
    """One CSV row per (a, b, E) cell, in grid order.

    Only a, b and E vary between cells, so each distinct energy is one
    task that holds all of its cells and builds one solution pair (see
    ``_sweep_group``).  Under ``--workers N``, min(N, energies) processes
    run the tasks; the rows do not depend on N.  A pair whose march met the
    overflow cap is reported on stderr once per energy, in the order the
    energies first appear.  When several cells fail, the error raised
    first in this energy-major order is the one reported.  An empty axis,
    or an ``--out`` that cannot be written, is a configuration error found
    before any cell runs.
    """
    doc = _doc_for(args)
    grid = doc.get("sweep")
    if not grid:
        raise ConfigError("sweep needs a 'sweep' section with value lists")
    a_list = _sweep_axis(grid, "a", 1.0)
    b_list = _sweep_axis(grid, "b", 0.0)
    e_list = _sweep_axis(grid, "energy", doc.get("physics", {}).get(
        "energy", _DEFAULTS["physics"]["energy"]))
    if args.out:
        _check_writable(args.out)
    # repr(E) -> (E, its cells (idx, a, b) in grid order); repr keeps 0.0
    # and -0.0 apart, which print differently
    groups = {}
    idx = 0
    for a in a_list:
        for b in b_list:
            for energy in e_list:
                groups.setdefault(repr(energy), (energy, []))[1].append(
                    (idx, a, b))
                idx += 1
    tasks = [(doc, energy, cells) for energy, cells in groups.values()]
    workers = min(args.workers, len(tasks))
    if workers > 1:
        # trajectory is loaded before the pool forks, so that its workers
        # inherit it instead of each compiling it again; concurrent.futures
        # is imported here so that no other command loads it
        from . import trajectory  # noqa: F401
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_sweep_group, tasks))
    else:
        done = [_sweep_group(task) for task in tasks]
    rows = [None] * idx
    for group_rows, note in done:
        if note:
            print(note, file=sys.stderr)
        for i, row in group_rows:
            rows[i] = row
    # energy_conserved, the last column and the one bool, prints as 0 or 1
    fmt = ",".join(["%.17g"] * (2 + len(_SWEEP_KEYS)) + ["%d"])
    lines = [",".join(("a", "b", "energy") + _SWEEP_KEYS)]
    lines += [fmt % row for row in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        _say(args, f"wrote {len(rows)} sweep rows to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# parser plumbing

def _add_common(p: argparse.ArgumentParser, seeded: bool = True) -> None:
    """--quiet, and --seed for the subcommands that draw random samples."""
    if seeded:
        p.add_argument("--seed", type=int, default=20260823,
                       help="random seed for sampled checks")
    p.add_argument("--quiet", action="store_true",
                   help="suppress informational output")


def _positive_int(text: str) -> int:
    """argparse type of a sample or worker count: a check over no samples
    would pass having checked nothing, and a sweep needs a worker, so a
    count below 1 is a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing keeps its
    results in a fresh namespace per call, so the parser holds no state of
    a run."""
    parser = argparse.ArgumentParser(
        prog="qmotion",
        description="Quantum trajectory laws: runs, verifications, demos.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trajectory", help="integrate one scenario to CSV/JSON")
    p.add_argument("--config", required=True)
    p.add_argument("--law")
    p.add_argument("--out", help="override output.path")
    _add_common(p, seeded=False)
    p.set_defaults(func=_cmd_trajectory)

    v = sub.add_parser("verify", help="verification suites")
    vsub = v.add_subparsers(dest="suite", required=True)

    p = vsub.add_parser("qshje", help="stationary action equation residuals")
    p.add_argument("--samples", type=_positive_int, default=5,
                   help="number of random (a, b) states per potential")
    _add_common(p)
    p.set_defaults(func=_cmd_verify_qshje)

    p = vsub.add_parser("master", help="kinetic-series master identity")
    p.add_argument("--samples", type=_positive_int, default=1000)
    p.add_argument("--perturb", action="append", metavar="NAME=VALUE",
                   help="override a lattice entry, e.g. alpha20=0.7")
    _add_common(p)
    p.set_defaults(func=_cmd_verify_master)

    p = vsub.add_parser("conservation", help="energy/Bohm/momentum drift")
    p.add_argument("--config")
    p.add_argument("--samples", type=_positive_int, default=3,
                   help="number of random (a, b) states")
    _add_common(p)
    p.set_defaults(func=_cmd_verify_conservation)

    p = sub.add_parser("coefficients", help="determine the kinetic lattice")
    p.add_argument("--levels", type=int, default=2)
    _add_common(p)
    p.set_defaults(func=_cmd_coefficients)

    d = sub.add_parser("demo", help="demonstration reports")
    dsub = d.add_subparsers(dest="which", required=True)

    p = dsub.add_parser("linear-term",
                        help="first-order Lagrangian with a linear velocity term")
    p.add_argument("--i", type=int, default=2, help="velocity exponent")
    p.add_argument("--lam", type=float, default=0.0, help="regulator strength")
    p.add_argument("--potential", choices=("free", "linear", "harmonic"),
                   default="harmonic")
    p.add_argument("--slope", type=float, default=1.0)
    _add_common(p)
    p.set_defaults(func=_cmd_demo_linear_term)

    p = dsub.add_parser("legacy-stall",
                        help="legacy law freezing at a classical turning point")
    p.add_argument("--config")
    _add_common(p, seeded=False)
    p.set_defaults(func=_cmd_demo_legacy_stall)

    p = sub.add_parser("sweep", help="grid over (a, b, E) with one row per cell")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.add_argument("--workers", type=_positive_int, default=1)
    _add_common(p, seeded=False)
    p.set_defaults(func=_cmd_sweep)

    return parser


def _numerical_failures() -> tuple:
    """The exception classes that ``run`` reports as numerical failures
    (exit 3).  Their modules are imported only when an exception reaches
    ``run``, since Python evaluates an ``except`` expression only then."""
    from .kinetic_series import DeterminationError, LatticeError
    from .ode import IntegrationFailure
    from .rootfind import BracketError, RootConvergenceError
    from .trajectory import VelocityFloorError

    return (IntegrationFailure, VelocityFloorError, DeterminationError,
            SingularityError, JetDomainError, LatticeError, BracketError,
            RootConvergenceError, SchrodingerError, ZeroDivisionError)


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _numerical_failures() as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        # precondition violations from scenario plumbing are usage errors,
        # and every file the command opens is named by the user
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(run())


if __name__ == "__main__":
    entry()
