"""Machine-speed calibration of the benchmark's timings.

The benchmark's host is a few cores of a shared machine.  Each core flips,
sometimes several times a second and sometimes after half a minute, between
a fast state and one about 1.6 times slower, as other tenants load it; CPU
time slows as much as wall time, and the two cores flip independently.  So
a timed event runs under a ``Probe``: every ``INTERVAL_S`` seconds a signal
handler runs a fixed 1 ms kernel of interpreter and small-array numpy work
(the mix the program runs), on the core and in the state the event is
running in.  The event's time less the time of the kernel runs inside it,
scaled by ``REF_S`` over the mean kernel time, is its time on a reference
machine that runs the kernel in ``REF_S`` seconds.  The kernel lives in the
benchmark, so a change to the program moves scaled times exactly as it
moves wall times.

    python3 bench/calibrate.py OUT -m MODULE [ARG ...]
    python3 bench/calibrate.py OUT SCRIPT [ARG ...]

runs a module or script as ``__main__`` under a probe (as ``python -m``
or ``python SCRIPT`` would) and writes the kernel times to OUT (JSON)
when it ends, so that a process spawn can be scaled too.
"""

from __future__ import annotations

import json
import os
import runpy
import signal
import statistics
import sys
import time

import numpy as np

REF_S = 1e-3                  # the kernel's time on the reference machine
INTERVAL_S = 0.02
_X = np.linspace(-1.0, 1.0, 64)


def _kernel() -> float:
    s, t = 0.0, (0.5, 0.25, 0.125)
    for i in range(4000):         # tuple churn and float arithmetic, as in Jet
        t = (t[1], t[2], t[0] * 0.5 + i * 1e-9)
        s += t[0] * t[1]
    for _ in range(50):           # small numpy calls, as in the pair evaluations
        s += float(np.dot(np.sin(_X), _X))
    return s


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


class Probe:
    """Context manager that samples the kernel once on entry, every
    ``INTERVAL_S`` seconds inside, and once on exit."""

    def __init__(self):
        self.samples: list[float] = []
        self.inside = 0.0             # kernel time spent inside the block

    def _tick(self, signum, frame) -> None:
        self.samples.append(kernel_seconds())

    def __enter__(self) -> "Probe":
        self.samples = [kernel_seconds()]
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.inside = sum(self.samples[1:])
        self.samples.append(kernel_seconds())
        return False

    def scaled(self, wall: float) -> float:
        """Reference-machine time of ``wall`` seconds measured inside the
        block."""
        return scaled(wall, self.samples, self.inside)


def scaled(wall: float, samples: list[float], inside: float) -> float:
    """Reference-machine time of ``wall`` seconds that held ``inside``
    seconds of kernel runs, with ``samples`` the kernel times."""
    return (wall - inside) * REF_S / statistics.mean(samples)


def main(argv: list[str]) -> int:
    out, target, args = argv[0], argv[1], argv[2:]
    if target == "-m":
        target, args = args[0], args[1:]
    probe = Probe()
    code = 0
    try:
        with probe:
            sys.argv = [target, *args]
            if argv[1] == "-m":
                runpy.run_module(target, run_name="__main__", alter_sys=True)
            else:
                sys.path.insert(0, os.path.dirname(os.path.abspath(target)))
                runpy.run_path(target, run_name="__main__")
    except SystemExit as exc:
        code = exc.code
    finally:
        with open(out, "w") as fh:
            json.dump(probe.samples, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
