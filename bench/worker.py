"""Benchmark worker: runs in a fresh interpreter with qmotion importable.

    worker.py setup --workload W --seed N --size S --dir D
    worker.py serve --plan P [--spans S]

``setup`` imports ``qmotion.cli`` and writes the seeded inputs of one run
(the benchmark's set-up).  ``serve`` loads a plan and then runs passes of
its ops in-process, one per command read from standard input:

    warm-pass    one pass of the mix, with each op's ``argv_warm`` if it
                 has one (the sweep's process pool)
    pass         one pass of the mix
    probed-pass  one pass with each op under a calibration probe
                 (calibrate.py), replying reference-machine times too
    traced-pass  one pass with the layer tracer installed
    reference    the digests of each op's first output
    finish       reply with the run's totals and exit

Each reply is one JSON line on standard output.  Every op's output is
checked.  The ops themselves never write to standard output: anything the
program prints is captured, and stray writes to the file descriptor go to
standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from calibrate import Probe  # noqa: E402

_TURN = re.compile(r"\(turning point ([^)]*)\)")
_LATTICE = re.compile(r"^\s*(alpha\d\d) = (\S+)\s+(beta\d\d) = (\S+)\s*$")


def digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(len(c).to_bytes(8, "little"))
        h.update(c)
    return h.hexdigest()


def read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class Runner:
    """Runs ops and checks their outputs; keeps the first output of each op
    so that every repeat can be compared with it byte for byte."""

    def __init__(self, plan: dict):
        import qmotion.cli
        from qmotion import kinetic_series, mechanics
        from qmotion.jets import Jet
        from qmotion.schrodinger import PhysParams

        self._cli = qmotion.cli
        self._ks = kinetic_series
        self._mech = mechanics
        self._unit = PhysParams(hbar=1.0, mu=1.0, energy=workloads.UNIT_ENERGY)
        self._jets = {}
        for op in plan["ops"]:
            b = op["batch"]
            if b and b["jets"] not in self._jets:
                with open(b["jets"]) as fh:
                    sets = json.load(fh)
                self._jets[b["jets"]] = {k: [Jet(tuple(c)) for c in v]
                                         for k, v in sets.items()}
        self.tracer = None
        self.reference: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    # -- one op ----------------------------------------------------------

    def _batch(self, b: dict):
        jets = self._jets[b["jets"]][b["set"]]
        unit, mech, ks = self._unit, self._mech, self._ks
        if b["fn"] == "momenta":
            L = mech.quantum_lagrangian(unit)
            c = ks.KineticCoefficients.canonical()
            return [(tuple(mech.momenta(L, j)),
                     tuple(ks.series_momenta(c, j, unit))) for j in jets]
        c = ks.KineticCoefficients.canonical()
        return [mech.canonical_consistency(c, j, unit, b["lam"]).max_ratio
                for j in jets]

    def run(self, op: dict, argv: list | None) -> tuple[float, str]:
        """Run one op; return (wall seconds, status).  The status is "ok",
        "known" for the exit the plan documents as a known defect, or
        "failed"."""
        out, err = io.StringIO(), io.StringIO()
        rc, value, error = None, None, None
        if self.tracer is not None:
            self.tracer.op_id = self.attempted
        t0 = time.perf_counter()
        try:
            if argv is not None:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    rc = self._cli.run(argv)
            else:
                value = self._batch(op["batch"])
                rc = 0
        except Exception as exc:  # an op that raises is a failed op
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        if self.tracer is not None:
            self.tracer.op_id = -1
        self.attempted += 1
        known = op.get("known_defect")
        if not error and known and rc == known["rc"]:
            if known["stderr"] in err.getvalue():
                return wall, "known"
            error = f"exit {rc} without the known defect's message"
        problem = error or self._check(op, rc, out.getvalue(), value)
        if problem:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{op['name']}: {problem}"
                                     + (f" [{err.getvalue().strip()}]"
                                        if err.getvalue() else ""))
            return wall, "failed"
        return wall, "ok"

    def _check(self, op, rc, stdout, value) -> str | None:
        if rc not in op["expect_rc"]:
            return f"exit {rc}, expected {op['expect_rc']}"
        for c in op["checks"]:
            problem = self._check_one(c, stdout, value)
            if problem:
                return problem
        files = [read_bytes(p) for p in op["outputs"]]
        if value is not None:
            stdout = repr(value)
        ref = {"rc": rc, "files": digest(*files),
               "stdout": digest(stdout.encode())}
        first = self.reference.setdefault(op["name"], ref)
        if first != ref:
            return "output differs from the first run of this op"
        return None

    @staticmethod
    def _check_one(c: dict, stdout: str, value) -> str | None:
        kind = c["kind"]
        if kind in ("summary_max", "summary_close"):
            with open(c["file"]) as fh:
                got = json.load(fh)[c["key"]]
            if kind == "summary_max" and not got <= c["max"]:
                return f"{c['key']} = {got:.3e} > {c['max']:.1e}"
            if kind == "summary_close" and not abs(got - c["value"]) <= c["tol"]:
                return (f"{c['key']} = {got!r}, expected {c['value']!r} "
                        f"within {c['tol']:.0e}")
        elif kind == "turning_point":
            m = _TURN.search(stdout)
            if not m or not abs(float(m.group(1)) - c["value"]) <= c["tol"]:
                return f"no stall line with turning point {c['value']}"
        elif kind == "stdout_contains":
            if c["text"] not in (ln.strip() for ln in stdout.splitlines()):
                return f"output lacks the line {c['text']!r}"
        elif kind == "lattice":
            got = {}
            for line in stdout.splitlines():
                m = _LATTICE.match(line)
                if m:
                    got[m.group(1)] = float(m.group(2))
                    got[m.group(3)] = float(m.group(4))
            if got != c["entries"]:
                return f"lattice {got} is not {c['entries']}"
        elif kind == "sweep_rows":
            with open(c["file"]) as fh:
                lines = fh.read().splitlines()
            col = lines[0].split(",").index(c["column"])
            rows = [ln.split(",") for ln in lines[1:]]
            if len(rows) != c["rows"]:
                return f"{len(rows)} sweep rows, expected {c['rows']}"
            worst = max(float(r[col]) for r in rows)
            if not worst <= c["max"]:
                return f"{c['column']} = {worst:.3e} > {c['max']:.1e}"
        elif kind == "batch_max":
            if value and isinstance(value[0], tuple):
                a = np.array([v[0] for v in value])
                b = np.array([v[1] for v in value])
                worst = float(np.max(np.abs(a - b)
                                     / np.maximum(np.abs(b), 1e-30)))
            else:
                worst = max(value)
            if not worst <= c["max"]:
                return f"batch maximum {worst:.3e} > {c['max']:.1e}"
        else:
            return f"unknown check {kind!r}"
        return None

    def run_pass(self, ops, argv_key: str = "argv", probe: bool = False
                 ) -> dict:
        """Run every op of the mix once, in order.  With ``probe`` each op
        runs under a calibration probe, its wall time excludes the probe's
        kernel runs, and ``scaled`` holds its reference-machine time."""
        walls, scaled, status, names = [], [], [], []
        for op in ops:
            argv = op.get(argv_key, op["argv"])
            if probe:
                with Probe() as p:
                    wall, st = self.run(op, argv)
                scaled.append(p.scaled(wall))
                wall -= p.inside
            else:
                wall, st = self.run(op, argv)
            walls.append(wall)
            status.append(st)
            names.append(op["name"])
        done = {"walls": walls, "status": status, "names": names}
        if probe:
            done["scaled"] = scaled
        return done


def _rss_mb() -> float:
    """Peak resident memory of this process plus its largest child."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) / 1024.0


def serve(plan_path: str, spans: str | None) -> None:
    replies = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    with open(plan_path) as fh:
        plan = json.load(fh)
    ops = plan["ops"]
    runner = Runner(plan)
    tracer, traced_ops, traced_wall = None, 0, 0.0

    def reply(obj) -> None:
        replies.write(json.dumps(obj) + "\n")
        replies.flush()

    reply({"ready": True})
    for line in sys.stdin:
        cmd = line.strip()
        if cmd == "warm-pass":
            reply(runner.run_pass(ops + plan["warm_ops"], "argv_warm"))
        elif cmd == "pass":
            reply(runner.run_pass(ops))
        elif cmd == "probed-pass":
            reply(runner.run_pass(ops, probe=True))
        elif cmd == "traced-pass":
            if tracer is None:
                from tracer import Tracer

                tracer = Tracer().install()
                runner.tracer = tracer
            done = runner.run_pass(ops)
            traced_ops += len(done["walls"])
            traced_wall += sum(done["walls"])
            reply(done)
        elif cmd == "reference":
            reply(runner.reference)
        elif cmd == "finish":
            result = {"attempted": runner.attempted, "failed": runner.failed,
                      "failures": runner.failures, "peak_rss_mb": _rss_mb()}
            if tracer is not None:
                from tracer import layer_metrics

                tracer.uninstall()
                result["layers"] = layer_metrics(tracer, traced_ops,
                                                 traced_wall)
                if spans:
                    tracer.save(spans)
            reply(result)
            return
        else:
            raise SystemExit(f"unknown command {cmd!r}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    s = sub.add_parser("setup")
    s.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--size", default="full", choices=workloads.SIZES)
    s.add_argument("--dir", required=True)
    v = sub.add_parser("serve")
    v.add_argument("--plan", required=True)
    v.add_argument("--spans", help="write the traced spans here (.npz)")
    args = ap.parse_args(argv)
    if args.mode == "setup":
        import qmotion.cli  # noqa: F401  (the import is part of set-up)

        workloads.generate(args.workload, args.seed, args.size,
                           os.path.join(args.dir, "inputs"),
                           os.path.join(args.dir, "out"))
        return 0
    serve(args.plan, args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
