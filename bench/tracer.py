"""Span tracing of qmotion's layers from outside the package.

``Tracer.install()`` replaces the public functions of every layer module,
and the per-point methods named in ``SPANNED_METHODS``, by wrappers that
record one span per call: name, start, end, parent span and op id.  A
function is replaced in its defining module and in every qmotion module
that imported it by name.  The ``rhs`` handed to ``ode.integrate_ivp`` is
wrapped as the span ``trajectory.rhs``.  ``Jet``/``Dual`` operator methods
are counted but not spanned.  The time of unspanned code (other methods,
operators, numpy and scipy) belongs to the innermost open span.

Spans are kept in flat arrays and written out by ``save``; per-layer
metrics are derived from them by ``layer_metrics``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("cli", "trajectory", "ode", "reduced_action", "schrodinger",
          "jets", "kinetic_series", "mechanics", "rootfind")
_COUNTED_CLASSES = ("Jet", "Dual")
_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
              "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__pow__")
SPANNED_METHODS = {("schrodinger", "SolutionPair"): ("eval01", "phi_jets"),
                   ("ode", "DenseSolution"): ("__call__",)}
RHS = "trajectory.rhs"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._jet_ops = [0]
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _intern(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.names)
            self.names.append(label)
        return self._ids[label]

    def wrap(self, label: str, fn, on_return=None):
        nid = self._intern(label)
        name_id, parent, op = self.name_id, self.parent, self.op
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(out)
            return out

        return traced

    def _counted(self, fn):
        box = self._jet_ops

        @functools.wraps(fn)
        def counted(*args):
            box[0] += 1
            return fn(*args)

        return counted

    def _wrap_integrate(self, fn):
        counts = self.counts

        def integrate_ivp(rhs, *args, **kwargs):
            counts["ode.integrations"] += 1
            try:
                sol = fn(self.wrap(RHS, rhs), *args, **kwargs)
            except Exception as exc:
                partial = getattr(exc, "partial", None)
                if partial is not None:
                    counts["ode.steps"] += partial.n_steps
                raise
            counts["ode.steps"] += sol.n_steps
            return sol

        return self.wrap("ode.integrate_ivp", functools.wraps(fn)(integrate_ivp))

    def _on_return(self, layer: str, name: str):
        counts = self.counts
        if layer == "trajectory" and name in ("integrate_velocity_law",
                                              "integrate_newton_law"):
            return lambda res: counts.update({"trajectory.samples":
                                              len(res.samples)})
        if layer == "trajectory" and name == "integrate_legacy_law":
            return lambda res: counts.update({"trajectory.samples":
                                              len(res[0].samples)})
        if layer == "kinetic_series" and name == "determine_coefficients":
            return lambda res: counts.update({"kinetic_series.levels":
                                              len(res[1].levels)})
        return None

    # -- patching ----------------------------------------------------------

    def _setattr(self, owner, name, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> "Tracer":
        modules = {layer: importlib.import_module(f"qmotion.{layer}")
                   for layer in LAYERS}
        importers = [m for n, m in sys.modules.items()
                     if m is not None and (n == "qmotion"
                                           or n.startswith("qmotion."))]
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) \
                        != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    if layer == "ode" and name == "integrate_ivp":
                        new = self._wrap_integrate(obj)
                    else:
                        new = self.wrap(f"{layer}.{name}", obj,
                                        self._on_return(layer, name))
                    for imp in importers:
                        for attr, val in list(vars(imp).items()):
                            if val is obj:
                                self._setattr(imp, attr, new)
                elif inspect.isclass(obj):
                    self._patch_class(layer, obj)
        return self

    def _patch_class(self, layer: str, cls) -> None:
        if cls.__name__ in _COUNTED_CLASSES:
            for name in _OPERATORS:
                if name in cls.__dict__:
                    self._setattr(cls, name, self._counted(cls.__dict__[name]))
            return
        for name in SPANNED_METHODS.get((layer, cls.__name__), ()):
            self._setattr(cls, name, self.wrap(f"{layer}.{cls.__name__}.{name}",
                                               cls.__dict__[name]))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict:
        return {"names": np.array(self.names),
                "name_id": np.frombuffer(self.name_id, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "op": np.frombuffer(self.op, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())

    @property
    def jet_ops(self) -> int:
        return self._jet_ops[0]


def layer_metrics(tracer: Tracer, n_ops: int, op_wall_s: float) -> dict:
    """Per-op and per-call layer metrics of a traced phase of ``n_ops`` ops
    whose summed wall time is ``op_wall_s``."""
    a = tracer.arrays()
    names = list(a["names"])
    dur = a["end"] - a["start"]
    parent = a["parent"]
    child = np.zeros_like(dur)
    nested = parent >= 0
    np.add.at(child, parent[nested], dur[nested])
    self_time = dur - child
    layer_of = np.array([LAYERS.index(n.split(".", 1)[0]) for n in names],
                        dtype=np.int64)
    span_layer = layer_of[a["name_id"]] if len(names) else np.zeros(0, int)
    self_by_layer = np.bincount(span_layer, weights=self_time,
                                minlength=len(LAYERS))
    total_by_name = np.bincount(a["name_id"], weights=dur,
                                minlength=len(names))
    calls_by_name = np.bincount(a["name_id"], minlength=len(names))

    def total(label):
        return float(total_by_name[names.index(label)]) if label in names else 0.0

    def calls(label):
        return int(calls_by_name[names.index(label)]) if label in names else 0

    def per_call_us(label):
        n = calls(label)
        return total(label) / n * 1e6 if n else 0.0

    counts = tracer.counts
    m = {f"{layer}.self_ms": float(self_by_layer[i]) / n_ops * 1e3
         for i, layer in enumerate(LAYERS)}
    rhs_calls = calls(RHS)
    attempts = (rhs_calls - 2 * counts["ode.integrations"]) / 6.0
    levels = counts["kinetic_series.levels"]
    m.update({
        "trajectory.rhs_us": per_call_us(RHS),
        "trajectory.state_jet_us": per_call_us("trajectory.state_jet_from_x"),
        "trajectory.observables_us": per_call_us("trajectory.observables"),
        "trajectory.samples": counts["trajectory.samples"] / n_ops,
        "trajectory.write_ms": (total("trajectory.write_csv")
                                + total("trajectory.write_summary"))
        / n_ops * 1e3,
        "ode.steps": counts["ode.steps"] / n_ops,
        "ode.rhs_calls": rhs_calls / n_ops,
        "ode.accept_ratio": counts["ode.steps"] / attempts if attempts > 0 else 0.0,
        "ode.dense_us": per_call_us("ode.DenseSolution.__call__"),
        "reduced_action.s0p_us": per_call_us("reduced_action.s0p_jet"),
        "reduced_action.s0p_calls": calls("reduced_action.s0p_jet") / n_ops,
        "schrodinger.build_ms": per_call_us("schrodinger.solve_pair") / 1e3,
        "schrodinger.builds": calls("schrodinger.solve_pair") / n_ops,
        "schrodinger.eval_us": per_call_us("schrodinger.SolutionPair.eval01"),
        "schrodinger.evals": calls("schrodinger.SolutionPair.eval01") / n_ops,
        "jets.flow_us": per_call_us("jets.flow_jet"),
        "jets.ops": tracer.jet_ops / n_ops,
        "kinetic_series.master_us": per_call_us("kinetic_series.master_residual"),
        "kinetic_series.level_ms": (total("kinetic_series.determine_coefficients")
                                    / levels * 1e3 if levels else 0.0),
        "kinetic_series.series_momenta_us":
            per_call_us("kinetic_series.series_momenta"),
        "mechanics.momenta_us": per_call_us("mechanics.momenta"),
        "mechanics.canonical_us": per_call_us("mechanics.canonical_consistency"),
        "rootfind.calls": sum(calls(n) for n in names
                              if n.startswith("rootfind.")) / n_ops,
        "trace.self_coverage": float(self_time.sum()) / op_wall_s
        if op_wall_s > 0 else 0.0,
    })
    return m
