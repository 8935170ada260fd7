"""Seeded end-to-end benchmark of the qmotion CLI and library.

    python3 bench/run.py --workload trajectory|sweep|identities --seed N
                         --seconds S --trace 0|1 [--size full|smoke]

Run from the root of a source checkout (the one holding ``src/qmotion``).
A run takes three kinds of sample:

- set-up: fresh interpreters that import ``qmotion.cli`` and write the
  seeded inputs (``bench/worker.py setup``); the first, untimed one writes
  the inputs the run uses;
- in-process passes: a worker interpreter (``bench/worker.py serve``) runs
  the workload's ops as a closed loop with one client, after one untimed
  warm-up pass, until the passes hold at least S seconds of op time;
- cold CLI: the workload's representative command, each time in a fresh
  ``python -m qmotion.cli`` process, checked against the in-process output.

The three kinds are spread evenly over the run instead of taken one after
the other.  Each timed event runs under a calibration probe
(``calibrate.py``), and the gated times are reference-machine times: the
host's cores flip between a fast and a 1.6 times slower state as other
tenants load them, and the probe measures the state the event ran in.  The
gated figures are medians (of the set-up spawns, of the cold runs, and of
each op's timed runs); the report gives the raw wall-clock figures beside
them.  Every op's output is checked.

With ``--trace 1`` there is no set-up or cold CLI sampling: the worker runs
untraced passes, then traced passes (S/2 seconds of op time each), and the
run reports per-layer metrics.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it are a readable report with the environment stamp and
the metrics the JSON line does not carry.  Scratch files live under
``.bench_work/`` in the checkout and are removed at exit; span dumps of
traced runs are kept in ``.bench_work/spans/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import calibrate  # noqa: E402
import workloads  # noqa: E402
from worker import digest, read_bytes  # noqa: E402

SETUP_SPAWNS = {"full": 4, "smoke": 1}   # timed set-up spawns, after one untimed
SPAWN_TIMEOUT_S = 120
WORKER_TIMEOUT_S = 165
TRACE_COUNTS = ("ode.steps", "ode.rhs_calls", "schrodinger.builds",
                "schrodinger.evals", "reduced_action.s0p_calls", "jets.ops",
                "trajectory.samples")


class BenchError(RuntimeError):
    """The benchmark could not run to the end (not a program defect)."""


# ---------------------------------------------------------------------------
# environment stamp

def _loadavg() -> str:
    try:
        with open("/proc/loadavg") as fh:
            return " ".join(fh.read().split()[:3])
    except OSError:
        return "n/a"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "not installed"


def environment() -> dict:
    return {"python": platform.python_version(),
            "numpy": _version("numpy"), "scipy": _version("scipy"),
            "nproc": os.cpu_count(), "cpu": _cpu_model()}


# ---------------------------------------------------------------------------
# child processes

def _child_env(work: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = os.path.join(work, "tmp")
    return env


def _spawn(args, work) -> tuple[float, float, subprocess.CompletedProcess]:
    """Run ``python ARGS`` to the end under a calibration probe; return
    (wall seconds less the probe's kernel runs, reference-machine seconds,
    process)."""
    samples_path = os.path.join(work, "probe.json")
    cmd = [sys.executable, os.path.join(BENCH_DIR, "calibrate.py"),
           samples_path, *args]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=work, env=_child_env(work),
                              capture_output=True, text=True,
                              timeout=SPAWN_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(args[:3])} ... timed out") from exc
    wall = time.perf_counter() - t0
    try:
        with open(samples_path) as fh:
            samples = json.load(fh)
        os.remove(samples_path)
    except (OSError, ValueError) as exc:
        raise BenchError(f"{' '.join(args[:3])} ... left no probe samples: "
                         f"{proc.stderr.strip()[-2000:]}") from exc
    inside = sum(samples)
    return wall - inside, calibrate.scaled(wall, samples, inside), proc


def _worker_args(*args) -> list[str]:
    return [os.path.join(BENCH_DIR, "worker.py"), *args]


class Worker:
    """One ``worker.py serve`` process, driven one command at a time and
    killed if it outlives its deadline."""

    def __init__(self, work: str, plan_path: str, spans=None):
        cmd = [sys.executable, *_worker_args("serve", "--plan", plan_path)]
        if spans:
            cmd += ["--spans", spans]
        self._err = open(os.path.join(work, "worker.err"), "w+")
        self.proc = subprocess.Popen(cmd, cwd=work, env=_child_env(work),
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE,
                                     stderr=self._err, text=True)
        self._timer = threading.Timer(WORKER_TIMEOUT_S, self.proc.kill)
        self._timer.start()

    def ask(self, cmd: str | None = None) -> dict:
        if cmd is not None:
            self.proc.stdin.write(cmd + "\n")
            self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            self._err.seek(0)
            raise BenchError("worker stopped: " + self._err.read()[-2000:])
        return json.loads(line)

    def passes_until(self, cmd: str, seconds: float, done=None) -> list[dict]:
        """Whole passes until they hold ``seconds`` of op time (at least
        one pass)."""
        done = list(done or [])
        while not done or sum(sum(p["walls"]) for p in done) < seconds:
            done.append(self.ask(cmd))
        return done

    def close(self) -> None:
        self._timer.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for fh in (self.proc.stdin, self.proc.stdout, self._err):
            fh.close()


class Setup:
    """Fresh set-up spawns.  Spawn 0 is untimed and writes the inputs the
    run uses; every later spawn must write the same plan."""

    def __init__(self, args, work: str):
        self.args, self.work = args, work
        self.walls: list[float] = []
        self.times: list[float] = []          # reference-machine seconds
        self.plan_text = self._spawn(0)[2]

    def _spawn(self, k: int) -> tuple[float, float, str]:
        d = os.path.join(self.work, f"setup{k}")
        wall, scaled, proc = _spawn(_worker_args(
            "setup", "--workload", self.args.workload, "--seed",
            str(self.args.seed), "--size", self.args.size, "--dir", d),
            self.work)
        if proc.returncode != 0:
            raise BenchError(f"set-up spawn exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}")
        with open(os.path.join(d, "inputs", "plan.json")) as fh:
            text = fh.read().replace(d, os.path.join(self.work, "setup0"))
        return wall, scaled, text

    def timed(self) -> None:
        k = len(self.times) + 1
        wall, scaled, text = self._spawn(k)
        if text != self.plan_text:
            raise BenchError("set-up spawns wrote different inputs "
                             "from the same seed")
        self.walls.append(wall)
        self.times.append(scaled)
        shutil.rmtree(os.path.join(self.work, f"setup{k}"))


class Cold:
    """The representative command in fresh CLI processes; each run must exit
    0 and reproduce the output of the in-process op it names."""

    def __init__(self, spec: dict, work: str, reference: dict):
        self.spec, self.work, self.reference = spec, work, reference
        self.walls: list[float] = []
        self.times: list[float] = []          # reference-machine seconds
        self.problems: list[str] = []

    def run(self) -> None:
        spec = self.spec
        wall, scaled, proc = _spawn(["-m", "qmotion.cli", *spec["argv"]],
                                    self.work)
        self.walls.append(wall)
        self.times.append(scaled)
        ref = self.reference.get(spec["same_as"])
        problem = None
        if proc.returncode != 0:
            problem = f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
        elif ref is None:
            problem = "no in-process reference output to compare with"
        elif spec["outputs"]:
            if digest(*map(read_bytes, spec["outputs"])) != ref["files"]:
                problem = "output differs from the in-process run"
        elif digest(proc.stdout.encode()) != ref["stdout"]:
            problem = "output differs from the in-process run"
        if problem:
            self.problems.append(f"cold {' '.join(spec['argv'][:2])}: "
                                 f"{problem}")


# ---------------------------------------------------------------------------
# the two kinds of run

def _merge(passes: list[dict]) -> dict:
    return {k: [v for p in passes for v in p[k]]
            for k in ("walls", "scaled", "status", "names") if k in passes[0]}


def _spread_evenly(counts: dict) -> list[str]:
    """Interleave ``counts[kind]`` events of each kind so that every kind
    is spread evenly over the sequence."""
    keyed = [((i + 0.5) / n, order, kind)
             for order, (kind, n) in enumerate(counts.items())
             for i in range(n)]
    return [kind for _, _, kind in sorted(keyed)]


def run_untraced(args, work: str) -> tuple[dict, dict, dict]:
    setup = Setup(args, work)
    plan = json.loads(setup.plan_text)
    plan_path = os.path.join(work, "setup0", "inputs", "plan.json")
    worker = Worker(work, plan_path)
    try:
        worker.ask()                                  # qmotion imported
        worker.ask("warm-pass")
        cold = Cold(plan["cold"], work, worker.ask("reference"))
        timed: list[dict] = []
        for kind in _spread_evenly({"pass": plan["min_passes"],
                                    "setup": SETUP_SPAWNS[args.size],
                                    "cold": plan["cold"]["runs"]}):
            if kind == "pass":
                timed.append(worker.ask("probed-pass"))
            elif kind == "setup":
                setup.timed()
            else:
                cold.run()
        timed = worker.passes_until("probed-pass", args.seconds, timed)
        res = worker.ask("finish")
    finally:
        worker.close()
    res["timed"] = _merge(timed)
    res["passes"] = len(timed)
    res["attempted"] += len(cold.times)
    res["failed"] += len(cold.problems)
    res["failures"] += cold.problems
    metrics, extra = e2e_metrics(plan, res, setup, cold)
    extra["cold_cli_command"] = "python -m qmotion.cli " + " ".join(
        os.path.relpath(a, work) if os.path.isabs(a) else a
        for a in plan["cold"]["argv"])
    extra["samples"] = (f"{len(setup.times)} set-up spawns, "
                        f"{len(timed)} timed passes, "
                        f"{len(cold.times)} cold CLI runs")
    return res, metrics, extra


def run_traced(args, work: str) -> tuple[dict, dict, dict]:
    inputs = os.path.join(work, "setup0", "inputs")
    workloads.generate(args.workload, args.seed, args.size, inputs,
                       os.path.join(work, "setup0", "out"))
    spans = os.path.join(ROOT, ".bench_work", "spans")
    os.makedirs(spans, exist_ok=True)
    worker = Worker(work, os.path.join(inputs, "plan.json"),
                    spans=os.path.join(
                        spans, f"{args.workload}-seed{args.seed}.npz"))
    try:
        worker.ask()
        worker.ask("pass")                            # warm-up
        untraced = _merge(worker.passes_until("pass", args.seconds / 2))
        traced = _merge(worker.passes_until("traced-pass", args.seconds / 2))
        res = worker.ask("finish")
    finally:
        worker.close()
    res["traced"] = traced
    metrics = {k: (v, _layer_unit(k)) for k, v in res["layers"].items()}
    metrics["trace.overhead_ratio"] = (
        sum(_op_times(untraced, "walls"))
        / sum(_op_times(traced, "walls")), "ratio")
    extra = {"samples": f"{len(untraced['walls'])} untraced ops, "
                        f"{len(traced['walls'])} traced ops",
             "exact_counts": json.dumps(
                 {k: res["layers"][k] for k in TRACE_COUNTS})}
    return res, metrics, extra


# ---------------------------------------------------------------------------
# metrics and report

def _op_times(phase: dict, key: str) -> list[float]:
    """Each op's median time over its runs in the phase that met their
    expectation; ``key`` is "scaled" (reference-machine) or "walls"."""
    runs: dict[str, list[float]] = {}
    for name, t, st in zip(phase["names"], phase[key], phase["status"]):
        if st != "failed":
            runs.setdefault(name, []).append(t)
    return [statistics.median(v) for v in runs.values()]


def _tail(values_ms: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten ops beyond it, as (percentile,
    value); None when there are fewer than 11 ops."""
    n = len(values_ms)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values_ms)[n - 11]


def e2e_metrics(plan, res, setup: Setup, cold: Cold) -> tuple[dict, dict]:
    """(gated metrics for the JSON line, extra metrics for the report).

    Times are reference-machine seconds (see calibrate.py); the report
    gives the raw wall-clock figures beside them."""
    t = res["timed"]
    scaled_ms = [w * 1e3 for w in t["scaled"]]
    ops = _op_times(t, "scaled")
    raw = _op_times(t, "walls")
    m = {"setup_s": (statistics.median(setup.times), "s"),
         "cold_cli_s": (statistics.median(cold.times), "s"),
         "ops_per_s": (len(ops) / sum(ops), "1/s"),
         "peak_rss_mb": (res["peak_rss_mb"], "MB")}
    extra = {"op_p50_ms": (f"{statistics.median(ops) * 1e3:.4f} ms (median "
                           f"over the {len(ops)} ops of a pass of each op's "
                           "median timed run)")}
    tail = _tail(scaled_ms)
    if tail:
        extra["op_tail_ms"] = (f"{tail[1]:.4f} ms (p{tail[0]:.0f} of "
                               f"{len(scaled_ms)} timed ops)")
    else:
        extra["op_tail_ms"] = f"omitted: {len(scaled_ms)} timed ops < 11"
    extra["wall_clock"] = (
        f"setup {statistics.median(setup.walls):.4f} s, cold CLI "
        f"{statistics.median(cold.walls):.4f} s, ops "
        f"{len(raw) / sum(raw):.4f} 1/s (unscaled)")
    speed = [x / w for x, w in zip(t["scaled"], t["walls"]) if w > 0]
    extra["machine_speed"] = (
        f"{statistics.median(speed):.4f} x the reference machine (median "
        "over the timed ops)")
    if plan["workload"] == "sweep":
        cells = plan["ops"][0]["cells"]
        extra["cells_per_s"] = f"{cells * m['ops_per_s'][0]:.4f} 1/s"
    return m, extra


def _layer_unit(name: str) -> str:
    suffix = name.rsplit("_", 1)[-1]
    if suffix in ("ms", "us"):
        return suffix
    if name.endswith(("ratio", "coverage")):
        return "ratio"
    return "count"


def _report(args, env, load0, load1, metrics, extra, phase, failures
            ) -> list[str]:
    lines = [f"# qmotion benchmark: workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds} trace={args.trace} size={args.size}",
             "# env: " + json.dumps(env, sort_keys=True),
             f"# loadavg start {load0} | end {load1}"]
    for name, (value, unit) in metrics.items():
        lines.append(f"{name:34s} {value:14.6g} {unit}")
    status = phase["status"]
    bad = len(status) - status.count("ok")
    lines.append(f"{'fail_frac':34s} {bad / len(status):14.6g} (failed "
                 f"{status.count('failed')} + known defects "
                 f"{status.count('known')} of {len(status)} measured ops)")
    for name in sorted({n for n, st in zip(phase["names"], status)
                        if st == "known"}):
        lines.append(f"# known defect: {name} exited as its plan documents")
    for k, v in extra.items():
        lines.append(f"# {k}: {v}")
    for f in failures:
        lines.append(f"# FAILED {f}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=workloads.SIZES, default="full",
                    help="smoke: tiny inputs, for the benchmark's self-test")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "qmotion", "cli.py")):
        print(f"error: no qmotion sources under {ROOT}/src", file=sys.stderr)
        return 2
    work = os.path.join(ROOT, ".bench_work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(os.path.join(work, "tmp"))
    env = environment()
    load0 = _loadavg()
    try:
        run = run_traced if args.trace else run_untraced
        res, metrics, extra = run(args, work)
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    load1 = _loadavg()
    phase = res["traced"] if args.trace else res["timed"]
    for line in _report(args, env, load0, load1, metrics, extra, phase,
                        res["failures"]):
        print(line)
    failed = res["failed"]
    print(json.dumps({
        "correct": failed == 0, "attempted": res["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
