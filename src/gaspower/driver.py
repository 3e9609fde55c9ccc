"""Build runnable simulations from scenarios and drive them to completion."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .coupling import (
    DemandSchedule,
    GasPowerLink,
    cosim_step,
    find_stationary_state,
    link_junction,
    update_extraction,
)
from .cweno import cweno3_step
from .errors import SchemaError
from .friction import FrictionModel
from .ibox import ibox_step
from .network import (
    BoundaryCondition,
    GasSimulation,
    Junction,
    JunctionPort,
    Pipe,
    PipeGrid,
    constant,
)
from .output import ProfileOutput, TimeSeriesOutput
from .powerflow import Bus, PowerGrid, TransmissionLine, solve_newton
from .scenario import POWER_PROBES, Scenario


def _series_function(value: tuple):
    """Turn a boundary value spec into a function of time."""
    if len(value) >= 1 and isinstance(value[0], tuple):
        times, vals = map(np.array, zip(*value))
        return lambda t: float(np.interp(t, times, vals))
    return constant(float(value[0]))


def _stationary_seed(scenario: Scenario) -> float:
    """Seed of the steady-state steps: the first pressure or density boundary."""
    for bc in scenario.boundaries:
        if bc.kind == "pressure":
            return scenario.law.rho_from_pressure(_series_function(bc.value)(0.0))
        if bc.kind == "density":
            return _series_function(bc.value)(0.0)
    return 1.0


def build_gas_simulation(scenario: Scenario) -> GasSimulation:
    """Instantiate grids, junction topology and boundaries for a scenario.

    Checks are the parse's: a pipe end at no boundary, junction or draw is
    left uncovered, and ``GasSimulation`` refuses it. A ``Scenario`` built
    without the parse that leaves a pipe with no initial state and
    stationary_init off is a ``SchemaError`` naming the pipe."""
    num = scenario.numerics
    staggering = "cells" if num.scheme == "cweno3" else "nodes"
    initial = {i.pipe: i for i in scenario.initial}
    rho_seed = _stationary_seed(scenario) if scenario.stationary_init else None
    ratio = {(c.node, c.pipe): c.ratio for c in scenario.compressors}
    draw = {e.node: e.epsilon for e in scenario.extractions}
    if scenario.coupling is not None:
        draw.setdefault(scenario.coupling.gas_node, 0.0)
    boundary_nodes = {b.node for b in scenario.boundaries}

    grids = []
    ends_at: dict[str, list[JunctionPort]] = {}    # junction ports by node
    boundary_end: dict[str, tuple[int, str]] = {}  # the first end at a boundary node
    for k, spec in enumerate(scenario.pipes):
        pipe = Pipe(spec.id, spec.from_node, spec.to_node,
                    spec.length, spec.diameter, spec.roughness)
        grid = PipeGrid(pipe, num.intervals(spec.length), scenario.law,
                        staggering=staggering)
        init = initial.get(spec.id)
        if init is not None:
            grid.fill(init.rho, init.q)
        elif rho_seed is not None:
            grid.fill(rho_seed, 0.0)
        else:
            raise SchemaError(f"pipe {spec.id!r} has no initial state and "
                              f"stationary_init is off")
        grids.append(grid)
        for node, end in ((spec.from_node, "start"), (spec.to_node, "end")):
            if node in boundary_nodes:
                boundary_end.setdefault(node, (k, end))
            else:
                ends_at.setdefault(node, []).append(
                    JunctionPort(k, end, ratio.get((node, spec.id), 1.0)))

    return GasSimulation(
        grids=grids,
        junctions=[Junction(node, ports, extraction=draw.get(node, 0.0))
                   for node, ports in sorted(ends_at.items())
                   if len(ports) >= 2 or node in draw],
        boundaries={
            boundary_end[bc.node]: BoundaryCondition(
                bc.kind, constant(bc.value) if bc.kind == "state"
                else _series_function(bc.value))
            for bc in scenario.boundaries if bc.node in boundary_end},
        friction=FrictionModel(eta=scenario.friction.eta,
                               enabled=scenario.friction.enabled),
    )


def build_power_grid(scenario: Scenario) -> PowerGrid:
    if not scenario.buses:
        raise SchemaError("scenario has no power grid")
    buses = [
        Bus(id=b.id, kind=b.type, P=b.P, Q=b.Q, V=b.V,
            phi=b.phi if b.phi is not None else 0.0, G=b.G, B=b.B)
        for b in scenario.buses
    ]
    lines = [TransmissionLine(l.from_bus, l.to_bus, l.G, l.B)
             for l in scenario.lines]
    return PowerGrid(buses, lines)


def build_link(scenario: Scenario, sim: GasSimulation) -> GasPowerLink:
    c = scenario.coupling
    if c is None:
        raise SchemaError("scenario has no coupling section")
    junction = link_junction(sim, c.gas_node)
    area = sim.grids[junction.ports[0].pipe_index].pipe.area
    return GasPowerLink(gas_node=c.gas_node, power_bus=c.power_bus,
                        a0=c.a0, a1=c.a1, a2=c.a2, rho0=c.rho0, area=area)


class _ProbeSet:
    """Resolve 'kind@where' quantity ids against the simulation objects."""

    def __init__(self, scenario: Scenario, sim: GasSimulation,
                 grid: PowerGrid | None):
        self.sim = sim
        self.grid = grid
        self.series = [TimeSeriesOutput(q) for q in scenario.outputs.series]
        self._gas_port: dict[str, tuple[int, str]] = {}
        for junction in sim.junctions:
            port = junction.ports[0]
            self._gas_port[junction.node] = (port.pipe_index, port.end)
        for (pipe_index, end) in sim.boundaries:
            g = sim.grids[pipe_index]
            node = g.pipe.node_from if end == "start" else g.pipe.node_to
            self._gas_port[node] = (pipe_index, end)
        self.pf = None      # power-flow solution that P/Q/V/phi probes read

    def sample(self, t: float) -> None:
        for out in self.series:
            out.append(t, self._evaluate(out.quantity))

    def _evaluate(self, quantity: str) -> float:
        if "@" not in quantity:
            raise SchemaError(f"output quantity {quantity!r} is not kind@where")
        kind, where = quantity.split("@", 1)
        if kind in ("pressure", "rho", "q", "inflow"):
            if where not in self._gas_port:
                raise SchemaError(f"no gas node {where!r} for probe {quantity!r}")
            pipe_index, end = self._gas_port[where]
            grid = self.sim.grids[pipe_index]
            state = grid.end_state(end)
            if kind == "pressure":
                return float(self.sim.law.p(state.rho))
            if kind == "rho":
                return state.rho
            return state.q
        if kind == "epsilon":
            for junction in self.sim.junctions:
                if junction.node == where:
                    return junction.extraction
            raise SchemaError(f"no junction {where!r} for probe {quantity!r}")
        if kind in POWER_PROBES:
            if self.grid is None or self.pf is None:
                raise SchemaError(f"probe {quantity!r} needs a power grid")
            if where == "slack":
                k = self.grid.slack_index
            else:
                k = self.grid.index(where)
            return float(getattr(self.pf, kind)[k])
        raise SchemaError(f"unknown probe kind {kind!r} in {quantity!r}")


@dataclass
class RunResult:
    series: list[TimeSeriesOutput]
    profiles: list[ProfileOutput]
    sim: GasSimulation
    power_history: list | None = None
    max_mass_defect: float = 0.0    # largest |mass defect| of the run's steps

    @property
    def outputs(self):
        return list(self.series) + list(self.profiles)


def _take_profiles(scenario: Scenario, sim: GasSimulation, t: float,
                   dt: float, collected: list, seen: set) -> None:
    for spec in scenario.outputs.profiles:
        key = (spec.time, spec.pipe)
        if abs(t - spec.time) > 0.5 * dt * (1.0 + 1e-9) or key in seen:
            continue
        seen.add(key)
        for grid in sim.grids:
            if spec.pipe is not None and grid.pipe.id != spec.pipe:
                continue
            collected.append(ProfileOutput(
                quantity=f"rho@{grid.pipe.id}:t={spec.time:g}",
                x=grid.x.copy(), rho=grid.rho.copy(),
            ))


def _run(scenario: Scenario, sim: GasSimulation, probes: _ProbeSet,
         power_step=None, pf=None) -> RunResult:
    """Step ``sim`` to t_end, sampling probes and capturing profiles.

    ``power_step(t, dt, stepper=, warm=)`` advances one coupled step and
    returns its power-flow solution and step record; ``pf`` is the
    solution at t=0.
    """
    stepper = cweno3_step if scenario.numerics.scheme == "cweno3" else ibox_step
    dt = scenario.numerics.dt
    n_steps = int(round(scenario.numerics.t_end / dt))
    every = max(1, int(round((scenario.numerics.sample_every or dt) / dt)))

    profiles: list[ProfileOutput] = []
    seen: set = set()
    history = []
    max_defect = 0.0
    for k in range(n_steps + 1):   # k = 0 records the initial state
        if k > 0:
            if power_step is None:
                record = stepper(sim, dt)
            else:
                pf, record = power_step(sim.t, dt, stepper=stepper, warm=pf)
            max_defect = max(max_defect, abs(record.mass_defect))
        probes.pf = pf
        if k % every == 0 or k == n_steps:
            probes.sample(sim.t)
            history.append((sim.t, pf))
        _take_profiles(scenario, sim, sim.t, dt, profiles, seen)
    return RunResult(series=probes.series, profiles=profiles, sim=sim,
                     power_history=history if power_step else None,
                     max_mass_defect=max_defect)


def run_gas_simulation(scenario: Scenario) -> RunResult:
    """Gas-only run of a scenario with the configured scheme. A probe of the
    power flow, which this run does not solve, is a ``SchemaError`` naming
    it before anything is built."""
    for k, probe in enumerate(scenario.outputs.series):
        if probe.partition("@")[0] in POWER_PROBES:
            raise SchemaError(f"{scenario.name}.outputs.series[{k}]: probe {probe!r} "
                              f"needs a power grid, and a gas-only run solves none")
    sim = build_gas_simulation(scenario)
    if scenario.stationary_init:
        find_stationary_state(sim)
    return _run(scenario, sim, _ProbeSet(scenario, sim, None))


def run_powerflow(scenario: Scenario):
    grid = build_power_grid(scenario)
    return solve_newton(grid)


def run_cosim(scenario: Scenario) -> RunResult:
    """Coupled gas/power run: stationary gas start, scheduled demands."""
    sim = build_gas_simulation(scenario)
    grid = build_power_grid(scenario)
    link = build_link(scenario, sim)
    schedules = [DemandSchedule(s.bus, s.times, s.P, s.Q)
                 for s in scenario.schedules]

    # Initial condition: power flow at t=0 fixes the extraction, then the gas
    # network is brought to the matching steady state.
    pf = update_extraction(sim, grid, link, schedules, 0.0)
    if scenario.stationary_init:
        find_stationary_state(sim)
    power_step = partial(cosim_step, sim, grid, link, schedules)
    return _run(scenario, sim, _ProbeSet(scenario, sim, grid), power_step, pf)
