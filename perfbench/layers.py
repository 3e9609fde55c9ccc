"""Per-layer tracing from outside the program.

Each hook point is a module attribute that the calling module looks up at
call time (``gaspower.cweno.solve_multi_junction`` is the junction solver as
``cweno`` sees it). The tracer swaps a recording wrapper in for the original
and swaps it back afterwards; nothing in the package changes.

Spans (name, start, end, parent) are kept in memory and written out at the
end of a run; self times are derived from them. Hot leaf functions (the
pressure-law methods and the rarefaction integral) only bump counters,
because a span per call would cost more than the call.

A hook point that no longer exists, for example after a rename, is recorded
as missing and the metrics that depend on it are reported as absent.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from pathlib import Path

import numpy as np

STATIONARY = "coupling.find_stationary_state"


def _size(args, kwargs, result):
    return {"elements": int(np.size(args[0]))}


def _unknowns(args, kwargs, result):
    return {"unknowns": int(args[0].shape[0])}


def _iterations(args, kwargs, result):
    return {"iterations": int(result.iterations)}


def _bytes(args, kwargs, result):
    return {"bytes": sum(Path(p).stat().st_size for p in result)}


# (layer name, module, attribute path, extra counters taken from each call)
SPAN_HOOKS = (
    ("friction.colebrook", "gaspower.friction", "colebrook_friction_factor", _size),
    ("friction.source_with_derivatives", "gaspower.friction",
     "FrictionModel.source_with_derivatives", None),
    ("ibox.spsolve", "gaspower.ibox", "spsolve", _unknowns),
    ("ibox.ibox_step", "gaspower.driver", "ibox_step", None),
    ("ibox.ibox_step", "gaspower.coupling", "ibox_step", None),
    ("cweno.cweno3_step", "gaspower.driver", "cweno3_step", None),
    ("riemann.solve_multi_junction", "gaspower.cweno", "solve_multi_junction", None),
    ("riemann.rho_min", "gaspower.riemann", "rho_min", None),
    ("network.apply_boundary", "gaspower.cweno", "apply_boundary", None),
    ("coupling.cosim_step", "gaspower.driver", "cosim_step", None),
    ("coupling.link_max_extraction", "gaspower.coupling", "link_max_extraction", None),
    ("powerflow.solve_newton", "gaspower.coupling", "solve_newton", _iterations),
    ("powerflow.solve_newton", "gaspower.driver", "solve_newton", _iterations),
    (STATIONARY, "gaspower.driver", "find_stationary_state", None),
    ("scenario.load_scenario", "gaspower.scenario", "load_scenario", None),
    ("output.write_timeseries", "gaspower.output", "write_timeseries", _bytes),
)
COUNT_HOOKS = (
    ("laxcurves.rarefaction_integral", "gaspower.laxcurves", "rarefaction_integral"),
)
LAW_METHODS = ("p", "dp", "d2p", "d3p", "c", "rho_from_pressure", "power_form")

# Per-layer metrics: name -> (unit, layers whose hook points it needs).
METRICS = {
    "friction.colebrook.calls": ("count", ("friction.colebrook",)),
    "friction.colebrook.time_s": ("s", ("friction.colebrook",)),
    "friction.colebrook.elements": ("count", ("friction.colebrook",)),
    "friction.source_with_derivatives.calls": ("count", ("friction.source_with_derivatives",)),
    "friction.source_with_derivatives.time_s": ("s", ("friction.source_with_derivatives",)),
    "ibox.spsolve.calls": ("count", ("ibox.spsolve",)),
    "ibox.spsolve.time_s": ("s", ("ibox.spsolve",)),
    "ibox.spsolve.unknowns": ("count", ("ibox.spsolve",)),
    "ibox.newton_per_step": ("iter/step", ("ibox.spsolve", "ibox.ibox_step")),
    "ibox.ibox_step.calls": ("count", ("ibox.ibox_step",)),
    "ibox.ibox_step.time_s": ("s", ("ibox.ibox_step",)),
    "ibox.ibox_step.self_s": ("s", ("ibox.ibox_step",)),
    "cweno.cweno3_step.calls": ("count", ("cweno.cweno3_step",)),
    "cweno.cweno3_step.time_s": ("s", ("cweno.cweno3_step",)),
    "cweno.cweno3_step.self_s": ("s", ("cweno.cweno3_step",)),
    "riemann.solve_multi_junction.calls": ("count", ("riemann.solve_multi_junction",)),
    "riemann.solve_multi_junction.time_s": ("s", ("riemann.solve_multi_junction",)),
    "riemann.rho_min.calls": ("count", ("riemann.rho_min",)),
    "riemann.rho_min.time_s": ("s", ("riemann.rho_min",)),
    "laxcurves.rarefaction_integral.calls": ("count", ("laxcurves.rarefaction_integral",)),
    "pressure.law.calls": ("count", ("pressure.law",)),
    "pressure.law.time_s": ("s", ("pressure.law",)),
    "network.apply_boundary.calls": ("count", ("network.apply_boundary",)),
    "network.apply_boundary.time_s": ("s", ("network.apply_boundary",)),
    "coupling.cosim_step.self_s": ("s", ("coupling.cosim_step",)),
    "coupling.link_max_extraction.calls": ("count", ("coupling.link_max_extraction",)),
    "coupling.link_max_extraction.time_s": ("s", ("coupling.link_max_extraction",)),
    "powerflow.solve_newton.calls": ("count", ("powerflow.solve_newton",)),
    "powerflow.solve_newton.time_s": ("s", ("powerflow.solve_newton",)),
    "powerflow.solve_newton.iterations": ("count", ("powerflow.solve_newton",)),
    "coupling.find_stationary_state.time_s": ("s", (STATIONARY,)),
    "coupling.find_stationary_state.ibox_steps": ("count", (STATIONARY, "ibox.ibox_step")),
    "scenario.load_scenario.time_s": ("s", ("scenario.load_scenario",)),
    "output.write_timeseries.time_s": ("s", ("output.write_timeseries",)),
    "output.write_timeseries.bytes": ("count", ("output.write_timeseries",)),
}


def _resolve(module_name: str, path: str):
    """(owner object, attribute name), or None when the hook point is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Span and counter recorder for one traced simulation at a time."""

    def __init__(self):
        self.active = False
        self.missing: list[str] = []
        self._installed: list[tuple[object, str, object]] = []
        self._present: set[str] = set()
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._law_depth = 0

    # -- wrappers -----------------------------------------------------------

    def _bump(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def _span_wrapper(self, name, inner, extra):
        def wrapper(*args, **kwargs):
            if not self.active:
                return inner(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = inner(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            if extra is not None:
                for key, amount in extra(args, kwargs, result).items():
                    self._bump(f"{name}.{key}", amount)
            return result

        return wrapper

    def _count_wrapper(self, name, inner):
        def wrapper(*args, **kwargs):
            if self.active:
                self._bump(f"{name}.calls", 1)
            return inner(*args, **kwargs)

        return wrapper

    def _law_wrapper(self, inner):
        # Only calls from outside the law count; p' inside c() does not.
        def wrapper(*args, **kwargs):
            if not self.active or self._law_depth:
                return inner(*args, **kwargs)
            self._law_depth += 1
            start = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                self._law_depth -= 1
                self._bump("pressure.law.calls", 1)
                self._bump("pressure.law.time_s", time.perf_counter() - start)

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Swap the wrappers in; missing hook points are remembered."""
        self.missing = []
        self._present = {"pressure.law"}
        for name, module, path, extra in SPAN_HOOKS:
            self._swap(name, module, path, lambda f, n=name, e=extra:
                       self._span_wrapper(n, f, e))
        for name, module, path in COUNT_HOOKS:
            self._swap(name, module, path, lambda f, n=name: self._count_wrapper(n, f))

    def _swap(self, name, module, path, make) -> None:
        target = _resolve(module, path)
        if target is None:
            self.missing.append(f"{module}.{path}")
            return
        owner, attr = target
        original = getattr(owner, attr)
        self._installed.append((owner, attr, original))
        setattr(owner, attr, make(original))
        self._present.add(name)

    def wrap_law(self, law) -> None:
        """Wrap the public methods of the pressure-law object of a run."""
        for method in LAW_METHODS:
            inner = getattr(law, method, None)
            if callable(inner):
                setattr(law, method, self._law_wrapper(inner))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the recorded simulation.

        ``ibox.ibox_step.*`` and ``ibox.newton_per_step`` cover the steps the
        driver makes; the steps of the stationary start are counted in
        ``coupling.find_stationary_state.ibox_steps``. Every other metric
        covers the whole simulation.
        """
        n = len(self.spans)
        child_time = [0.0] * n
        in_setup = [False] * n
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += end - start
                in_setup[i] = in_setup[parent]
            in_setup[i] = in_setup[i] or name == STATIONARY
        totals: dict[tuple[str, bool], list[float]] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            entry = totals.setdefault((name, in_setup[i]), [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_time[i]

        def total(name, phases=(True, False)):
            """(calls, time, self time) of a layer in the given phases."""
            rows = [totals.get((name, setup), (0, 0.0, 0.0)) for setup in phases]
            return [sum(column) for column in zip(*rows)]

        values: dict[str, float] = {}
        for name in ("friction.colebrook", "friction.source_with_derivatives",
                     "ibox.spsolve", "cweno.cweno3_step",
                     "riemann.solve_multi_junction", "riemann.rho_min",
                     "network.apply_boundary", "coupling.link_max_extraction",
                     "powerflow.solve_newton", "coupling.cosim_step", STATIONARY,
                     "scenario.load_scenario", "output.write_timeseries"):
            calls, busy, own = total(name)
            values[f"{name}.calls"] = calls
            values[f"{name}.time_s"] = busy
            values[f"{name}.self_s"] = own
        calls, busy, own = total("ibox.ibox_step", (False,))
        values["ibox.ibox_step.calls"] = calls
        values["ibox.ibox_step.time_s"] = busy
        values["ibox.ibox_step.self_s"] = own
        run_solves = total("ibox.spsolve", (False,))[0]
        values["ibox.newton_per_step"] = run_solves / calls if calls else 0.0
        values[f"{STATIONARY}.ibox_steps"] = total("ibox.ibox_step", (True,))[0]
        solves = values["ibox.spsolve.calls"]
        values["ibox.spsolve.unknowns"] = (
            self.counters.get("ibox.spsolve.unknowns", 0) / solves if solves else 0)
        for key in ("friction.colebrook.elements", "powerflow.solve_newton.iterations",
                    "output.write_timeseries.bytes", "laxcurves.rarefaction_integral.calls",
                    "pressure.law.calls", "pressure.law.time_s"):
            values[key] = self.counters.get(key, 0)
        return {name: values[name] for name, (_, needs) in METRICS.items()
                if all(layer in self._present for layer in needs)}

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over repeated traced simulations."""
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def count_metrics(values: dict[str, float]) -> dict[str, float]:
    """The metrics that must repeat exactly for the same inputs."""
    return {k: v for k, v in values.items() if METRICS[k][0] != "s"}
