"""Gas-to-power link and the quasi-static co-simulation loop.

A gas-fired generator at the slack bus draws the volumetric gas flow

    heat_rate(P) = a0 + a1 P + a2 P^2      [m^3/s at reference density rho0]

for the slack real power P [p.u.]. Converted through rho0 / A (pipe
cross-section) this becomes the momentum-flux extraction applied at the
linked gas junction. Electric transients are fast compared to the gas
dynamics, so the power flow is re-solved once per gas time step with frozen
demand schedules. The resulting extraction is a number that the
co-simulation sets on the linked junction before each gas step, which reads
it as a constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConvergenceError, InvalidDemandError
from .ibox import ibox_step
from .network import GasSimulation, Junction, StepRecord
from .powerflow import PowerFlowSolution, PowerGrid, solve_newton
from .riemann import junction_max_extraction

# Stationary start: size of its box steps [s] and their budget.
STATIONARY_DT = 1e9
STATIONARY_MAX_STEPS = 20


@dataclass
class GasPowerLink:
    """Connection between a gas junction and the slack bus."""

    gas_node: str
    power_bus: str
    a0: float
    a1: float
    a2: float
    rho0: float            # reference density of the volumetric flow [kg/m^3]
    area: float            # cross-section of the junction pipes [m^2]

    def __post_init__(self):
        if self.rho0 <= 0.0 or self.area <= 0.0:
            raise ConfigError("link needs positive reference density and area")

    def extraction(self, power: float) -> float:
        """Momentum-flux extraction of the generator at real power ``power``."""
        return heat_rate(power, self) * self.rho0 / self.area


def heat_rate(power: float, link: GasPowerLink) -> float:
    """Volumetric gas consumption of the generator at real power ``power``."""
    value = link.a0 + link.a1 * power + link.a2 * power * power
    if value < 0.0:
        raise ConfigError(
            f"heat rate {value:g} is negative at P={power:g}; "
            f"coefficients ({link.a0}, {link.a1}, {link.a2}) are inconsistent"
        )
    return value


@dataclass(frozen=True)
class DemandSchedule:
    """Piecewise-linear (P, Q) demand trajectory of one bus."""

    bus: str
    times: tuple[float, ...]
    p_values: tuple[float, ...]
    q_values: tuple[float, ...]

    def __post_init__(self):
        if len(self.times) != len(self.p_values) or len(self.times) != len(self.q_values):
            raise ConfigError(f"schedule for {self.bus}: length mismatch")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ConfigError(
                f"schedule for {self.bus}: breakpoints must strictly increase"
            )

    def at(self, t: float) -> tuple[float, float]:
        p = float(np.interp(t, self.times, self.p_values))
        q = float(np.interp(t, self.times, self.q_values))
        return p, q


def link_junction(sim: GasSimulation, node: str) -> Junction:
    """The junction of ``sim`` at gas node ``node``."""
    for junction in sim.junctions:
        if junction.node == node:
            return junction
    raise ConfigError(f"gas node {node!r} is not a junction of the network")


def link_max_extraction(sim: GasSimulation, junction: Junction) -> float:
    """Largest extraction the junction supports for the current end states."""
    ports_in = [p for p in junction.ports if p.end == "end"]
    ports_out = [p for p in junction.ports if p.end == "start"]
    data_in = [sim.grids[p.pipe_index].end_state("end") for p in ports_in]
    data_out = [sim.grids[p.pipe_index].end_state("start") for p in ports_out]
    return junction_max_extraction(
        data_in, data_out, sim.law,
        in_pressure_ratios=[p.pressure_ratio for p in ports_in],
        out_pressure_ratios=[p.pressure_ratio for p in ports_out],
    )


def update_extraction(sim: GasSimulation, grid: PowerGrid, link: GasPowerLink,
                      schedules: list[DemandSchedule], t: float,
                      warm: PowerFlowSolution | None = None) -> PowerFlowSolution:
    """Set the demands at ``t``, solve the power flow and set the
    generator's extraction on the linked junction.

    The power flow starts flat unless ``warm`` gives a previous solution.
    """
    for schedule in schedules:
        bus = grid.buses[grid.index(schedule.bus)]
        bus.P, bus.Q = schedule.at(t)

    pf = solve_newton(grid, initial=warm if warm is not None else "flat")
    link_junction(sim, link.gas_node).extraction = link.extraction(
        float(pf.P[grid.slack_index]))
    return pf


def cosim_step(sim: GasSimulation, grid: PowerGrid, link: GasPowerLink,
               schedules: list[DemandSchedule], t: float, dt: float,
               stepper=ibox_step,
               warm: PowerFlowSolution | None = None
               ) -> tuple[PowerFlowSolution, StepRecord]:
    """One coupled step: demands -> power flow -> extraction -> gas step.

    Returns the power-flow solution used during the step and the gas
    step's record. Aborts with
    ``InvalidDemandError`` when the converted extraction exceeds what the
    linked junction can physically supply.
    """
    pf = update_extraction(sim, grid, link, schedules, t, warm)
    junction = link_junction(sim, link.gas_node)
    eps_q = junction.extraction
    eps_cap = link_max_extraction(sim, junction)
    if eps_q >= eps_cap:
        raise InvalidDemandError(
            f"generator at {link.gas_node} needs extraction {eps_q:g} "
            f"but the junction supports at most {eps_cap:g} "
            f"(slack P = {pf.P[grid.slack_index]:g} p.u. at t = {t:g})",
            epsilon_max=eps_cap,
        )
    return pf, stepper(sim, dt)


def find_stationary_state(sim: GasSimulation) -> None:
    """Solve the steady box equations by box steps of ``STATIONARY_DT``.

    A box step of any size leaves a state unchanged exactly when that state
    solves the discrete steady equations: the time terms cancel and the rest
    of the residual is dt times the steady residual. So the steps stop at
    the first one that leaves the state bit for bit unchanged, whose residual
    already meets the box scheme's Newton tolerance. Boundary data must be
    constant in time. The simulation clock is reset to zero afterwards.
    """
    current = sim.state_vector()
    for _ in range(STATIONARY_MAX_STEPS):
        previous = current
        ibox_step(sim, STATIONARY_DT)
        current = sim.state_vector()
        if np.array_equal(current, previous):
            sim.t = 0.0
            return
    change = np.abs(current - previous)
    # The state vector holds all densities, then all momenta.
    variable, entry = divmod(int(np.argmax(change)), sim.state.shape[1])
    pipe, node = sim.locate(entry)
    raise ConvergenceError(
        f"no stationary state within {STATIONARY_MAX_STEPS} steps "
        f"(last change {float(np.max(change)):.3e}); largest change at "
        f"pipe {pipe} node {node} ({'q' if variable else 'rho'})"
    )
