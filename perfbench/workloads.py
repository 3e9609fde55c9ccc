"""The four benchmark workloads: seeded inputs, one simulation, its gate.

Every workload is a batch simulation driven through ``gaspower.driver``. The
benchmark draws the inputs from a seed and hands the program only those
inputs: a scenario dict for ``scenario_from_dict`` or a scenario file for
``load_scenario``. Each simulation is checked against a correctness gate
after the timed region has closed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from importlib.resources import files
from pathlib import Path

import numpy as np
import yaml

import gaspower.driver
import gaspower.output
import gaspower.scenario
from gaspower.laxcurves import GasState
from gaspower.pressure import parse_law
from gaspower.riemann import max_extraction, sample_solution, solve_gas_power_junction
from speed import SpeedProbe

L1_BOUND = 2e-2             # acceptance criterion 04
DRIFT_BOUND = 1e-6          # acceptance criterion 09, pre-ramp drift
MONOTONE_SLACK = 1e-9       # acceptance criterion 09, relative to the range
JUMP_BOUND = 1e-10          # flux jump at the linked junction vs. the draw
MISMATCH_BOUND = 1e-8       # power-flow mismatch [p.u.]
RAMP_START = 3600.0         # N5 demand ramp of gaslib9.scn
# 360 steps of 30 s: the quiet first hour, the ramp and 1.5 h of relaxation.
# The quiet steps need no Newton iteration and take a fifth of the time of
# the others; keeping them at a third of all steps keeps the median step off
# the boundary between the two kinds.
COSIM_T_END = 10800.0
COSIM_DT = 30.0
COSIM_SIGNS = (("P@slack", +1), ("epsilon@S4", +1), ("q@S5", +1),
               ("pressure@S20", -1), ("pressure@S25", -1))


class SetupDone(Exception):
    """Raised by the step timer to stop a set-up-only probe at its first step."""


class StepTimer:
    """Times each call of the stepper that ``gaspower.driver`` looks up.

    The first call marks the end of set-up. In a set-up-only probe it raises
    :class:`SetupDone` instead of stepping. Between steps it lets the speed
    probe run its kernel, outside the timed step.
    """

    def __init__(self, stepper_name: str, speed: SpeedProbe):
        self.stepper_name = stepper_name
        self.speed = speed
        self.inner = None
        self.first_call: float | None = None
        self.probe_spent_at_first = 0.0
        self.spans: list[tuple[float, float]] = []    # (start, end) of each step
        self.setup_only = False

    def reset(self, setup_only: bool = False) -> None:
        self.first_call = None
        self.spans = []
        self.setup_only = setup_only

    def __call__(self, *args, **kwargs):
        start = time.perf_counter()
        if self.first_call is None:
            self.first_call = start
            self.probe_spent_at_first = self.speed.spent
            if self.setup_only:
                raise SetupDone
        result = self.inner(*args, **kwargs)
        self.spans.append((start, time.perf_counter()))
        self.speed.maybe_probe()
        return result

    def install(self) -> None:
        self.inner = getattr(gaspower.driver, self.stepper_name)
        setattr(gaspower.driver, self.stepper_name, self)

    def uninstall(self) -> None:
        setattr(gaspower.driver, self.stepper_name, self.inner)


@dataclass
class SimRecord:
    """Timings and gate outcome of one simulation (or set-up-only probe).

    ``setup_s``, ``run_s`` and ``step_s`` are scaled to the reference speed
    (see speed.py); the ``wall_`` fields are the unscaled wall times.
    """

    setup_s: float | None
    wall_setup_s: float | None = None
    run_s: float | None = None
    wall_run_s: float | None = None
    step_s: list[float] = field(default_factory=list)
    ok: bool = False
    reason: str = ""
    l1_err: float | None = None
    t_final: float | None = None


class Workload:
    name: str
    stepper: str            # attribute of gaspower.driver that advances a step
    n_steps: int            # steps a simulation must take
    probe_size = 500        # array length of the speed probe's kernel

    def generate(self, rng: np.random.Generator, workdir: Path):
        """Draw the inputs of one simulation."""
        raise NotImplementedError

    def run(self, inputs, workdir: Path):
        """Parse the inputs; returns (scenario, callable that simulates it)."""
        raise NotImplementedError

    def gate(self, result, inputs) -> tuple[bool, str, float | None]:
        """(passed, reason, l1_err) for a finished simulation."""
        raise NotImplementedError


class JunctionWorkload(Workload):
    """Two-pipe junction benchmark with seeded data and extraction."""

    half_length = 0.25

    def __init__(self, name: str, law: str, scheme: str, dx: float, dt: float,
                 t_end: float = 0.1):
        self.name = name
        self.t_end = t_end
        self.law = law
        self.scheme = scheme
        self.dx = dx
        self.dt = dt
        self.stepper = "cweno3_step" if scheme == "cweno3" else "ibox_step"
        self.n_steps = int(round(self.t_end / dt))
        # The box scheme works on all 2 * (nodes) unknowns of a pipe at once.
        self.probe_size = 10000 if scheme == "ibox" else 500

    def generate(self, rng, workdir):
        rho_l, q_l, rho_r, q_r = np.array([4.0, 1.0, 3.0, -1.0]) * rng.uniform(
            0.9, 1.1, 4)
        left, right = GasState(float(rho_l), float(q_l)), GasState(float(rho_r), float(q_r))
        eps_max = max_extraction(left, right, parse_law(self.law))
        eps = float(rng.uniform(0.0, 0.9)) * eps_max
        return {
            "name": self.name,
            "pressure_law": self.law,
            "friction": {"enabled": False},
            "gas_nodes": ["INLET", "JUNCTION", "OUTLET"],
            "pipes": [
                {"id": "LEFT", "from": "INLET", "to": "JUNCTION",
                 "length": self.half_length},
                {"id": "RIGHT", "from": "JUNCTION", "to": "OUTLET",
                 "length": self.half_length},
            ],
            "initial": [{"pipe": "LEFT", "rho": left.rho, "q": left.q},
                        {"pipe": "RIGHT", "rho": right.rho, "q": right.q}],
            "boundary": [
                {"node": "INLET", "kind": "state", "rho": left.rho, "q": left.q},
                {"node": "OUTLET", "kind": "state", "rho": right.rho, "q": right.q},
            ],
            "extraction": [{"node": "JUNCTION", "epsilon": eps}],
            "numerics": {"scheme": self.scheme, "dt": self.dt, "dx": self.dx,
                         "t_end": self.t_end},
            "outputs": {"profiles": [{"time": self.t_end}]},
        }

    def run(self, inputs, workdir):
        scenario = gaspower.scenario.scenario_from_dict(inputs, origin=self.name)
        return scenario, lambda: gaspower.driver.run_gas_simulation(scenario)

    def gate(self, result, inputs):
        sim = result.sim
        if abs(sim.t - self.t_end) > 1e-9 * self.t_end:
            return False, f"final time {sim.t!r} != {self.t_end!r}", None
        by_pipe = {p.quantity.split(":")[0]: p for p in result.profiles}
        left_p, right_p = by_pipe["rho@LEFT"], by_pipe["rho@RIGHT"]
        left, right = (GasState(i["rho"], i["q"]) for i in inputs["initial"])
        eps = inputs["extraction"][0]["epsilon"]
        sol = solve_gas_power_junction(left, right, eps, sim.law)
        x = np.concatenate([left_p.x - self.half_length, right_p.x])
        rho = np.concatenate([left_p.rho, right_p.rho])
        exact = np.array([sample_solution(sol, xi).rho for xi in x / self.t_end])
        dx = sim.grids[0].dx
        l1 = float(np.sum(np.abs(rho - exact)) * dx)
        if not l1 <= L1_BOUND:
            return False, f"L1 error {l1:.3e} above {L1_BOUND:g}", l1
        return True, "", l1


class CosimWorkload(Workload):
    """gaslib9 co-simulation with a seeded end demand of the N5 ramp."""

    name = "cosim-gaslib9"
    stepper = "cosim_step"
    n_steps = int(round(COSIM_T_END / COSIM_DT))

    def generate(self, rng, workdir):
        template = files("gaspower") / "scenarios" / "gaslib9.scn"
        raw = yaml.safe_load(template.read_text())
        raw["numerics"]["t_end"] = COSIM_T_END
        raw["numerics"]["dt"] = COSIM_DT
        p_end = float(rng.uniform(-1.9, -1.7))
        for schedule in raw["schedules"]:
            if schedule["bus"] == "N5":
                schedule["P"] = [schedule["P"][0], p_end]
                schedule["Q"] = [schedule["Q"][0], p_end / 3.0]
        path = workdir / "gaslib9-seeded.scn"
        path.write_text(yaml.safe_dump(raw, sort_keys=False))
        return path

    def run(self, path, workdir):
        scenario = gaspower.scenario.load_scenario(path)

        def simulate():
            result = gaspower.driver.run_cosim(scenario)
            gaspower.output.write_timeseries(result.outputs, workdir / "series")
            return result

        return scenario, simulate

    def gate(self, result, inputs):
        sim = result.sim
        if abs(sim.t - COSIM_T_END) > 1e-9 * COSIM_T_END:
            return False, f"final time {sim.t!r} != {COSIM_T_END!r}", None
        series = {s.quantity: (np.array(s.times), np.array(s.values))
                  for s in result.series}
        for name, (ts, vs) in series.items():
            mask = ts <= RAMP_START
            drift = np.max(np.abs(vs[mask] - vs[0])) / max(abs(vs[0]), 1e-30)
            if not drift <= DRIFT_BOUND:
                return False, f"{name} drifted {drift:.2e} before the ramp", None
        for name, sign in COSIM_SIGNS:
            ts, vs = series[name]
            window = vs[ts >= RAMP_START]
            scale = max(float(np.ptp(window)), 1e-30)
            worst = float(np.min(np.diff(window) * sign))
            if not worst >= -MONOTONE_SLACK * scale:
                return False, f"{name}: non-monotone step {worst:.3e}", None
        junction = next(j for j in sim.junctions if j.node == "S4")
        jump = 0.0
        for port in junction.ports:
            state = sim.grids[port.pipe_index].end_state(port.end)
            jump += state.q if port.end == "end" else -state.q
        eps_final = float(series["epsilon@S4"][1][-1])
        if not abs(jump - eps_final) <= JUMP_BOUND * max(1.0, eps_final):
            return False, f"flux jump {jump!r} != draw {eps_final!r}", None
        worst_pf = max(pf.mismatch_norm for _, pf in result.power_history)
        if not worst_pf <= MISMATCH_BOUND:
            return False, f"power-flow mismatch {worst_pf:.2e}", None
        return True, "", None


WORKLOADS = {
    w.name: w for w in (
        CosimWorkload(),
        # t_end 0.05 instead of criterion 04's 0.1: the Newton iterations per
        # step change by up to a third between inputs, so a run takes the
        # median of several shorter simulations.
        JunctionWorkload("ibox-fine", "gamma(1.0,1.4)", "ibox", 5e-5, 5e-4, t_end=0.05),
        JunctionWorkload("cweno-junction-gamma", "gamma(1.0,1.4)", "cweno3",
                         5e-4, 5e-5),
        JunctionWorkload("cweno-junction-sumgamma", "sum_gamma", "cweno3",
                         5e-4, 5e-5),
    )
}
