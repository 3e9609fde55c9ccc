"""Heat rate, demand schedules, stationary initialization, coupled stepping."""

import inspect
import math
import warnings
from importlib.resources import files

import numpy as np
import pytest

import gaspower.cweno
from gaspower import coupling
from gaspower.coupling import (
    DemandSchedule,
    GasPowerLink,
    cosim_step,
    find_stationary_state,
    heat_rate,
    link_max_extraction,
    update_extraction,
)
from gaspower.cweno import cweno3_step
from gaspower.driver import build_gas_simulation, build_link, build_power_grid
from gaspower.errors import ConfigError, ConvergenceError, InvalidDemandError
from gaspower.friction import FrictionModel
from gaspower.ibox import ibox_step
from gaspower.network import (
    BoundaryCondition,
    GasSimulation,
    Junction,
    JunctionPort,
    Pipe,
    PipeGrid,
    constant,
)
from gaspower.powerflow import Bus, PowerGrid, TransmissionLine
from gaspower.pressure import IsothermalLaw
from gaspower.riemann import junction_traces
from gaspower.scenario import load_scenario


def _link(a0=2.0, a1=5.0, a2=10.0):
    return GasPowerLink("J", "S", a0=a0, a1=a1, a2=a2, rho0=0.785,
                        area=math.pi * 0.09)


def test_heat_rate_values():
    link = _link()
    assert heat_rate(0.0, link) == 2.0
    assert heat_rate(1.0, link) == 17.0
    assert heat_rate(0.5, link) == 7.0


def test_negative_heat_rate_is_a_configuration_error():
    link = _link(a0=0.0, a1=-10.0, a2=0.0)
    with pytest.raises(ConfigError):
        heat_rate(1.0, link)


def test_schedule_interpolation_and_validation():
    sched = DemandSchedule("N5", (3600.0, 5400.0), (-0.9, -1.8), (-0.3, -0.6))
    assert sched.at(0.0) == (-0.9, -0.3)         # clamped before the ramp
    assert sched.at(4500.0) == (pytest.approx(-1.35), pytest.approx(-0.45))
    assert sched.at(9000.0) == (-1.8, -0.6)      # clamped after
    with pytest.raises(ConfigError):
        DemandSchedule("N5", (1.0, 1.0), (0.0, 0.0), (0.0, 0.0))
    with pytest.raises(ConfigError):
        DemandSchedule("N5", (1.0,), (0.0, 0.0), (0.0,))


def _small_network(law, eps=20.0, staggering="nodes"):
    """60-bar feed, one extraction junction, fixed outflow; SI-scale."""
    a = PipeGrid(Pipe("A", "src", "J", 2000.0, diameter=0.6, roughness=5e-5),
                 8, law, staggering=staggering)
    b = PipeGrid(Pipe("B", "J", "snk", 2000.0, diameter=0.6, roughness=5e-5),
                 8, law, staggering=staggering)
    rho0 = 60e5 / 340.0**2
    a.fill(rho0, 0.0)
    b.fill(rho0, 0.0)
    return GasSimulation(
        grids=[a, b],
        junctions=[Junction("J", [JunctionPort(0, "end"), JunctionPort(1, "start")],
                            extraction=eps)],
        boundaries={(0, "start"): BoundaryCondition("pressure", constant(60e5)),
                    (1, "end"): BoundaryCondition("flow", constant(100.0))},
        friction=FrictionModel(),
    )


def test_stationary_state_satisfies_steady_balance():
    """After the march, the momentum is uniform per pipe and the momentum
    flux gradient balances the friction source (independent residual)."""
    law = IsothermalLaw(340.0)
    sim = _small_network(law)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        find_stationary_state(sim)
    for grid in sim.grids:
        assert np.max(np.abs(np.diff(grid.q))) < 1e-8  # continuity: q_x = 0
        p = np.asarray(law.p(grid.rho))
        flux_q = p + grid.q**2 / grid.rho
        gradient = np.diff(flux_q) / grid.dx
        s = sim.friction.source(grid.rho, grid.q, grid.pipe.diameter,
                                grid.pipe.roughness)
        s_mid = 0.5 * (s[:-1] + s[1:])
        assert np.max(np.abs(gradient - s_mid)) < 1e-6 * np.max(np.abs(s_mid))
    # junction draw shows up in the flow split
    assert sim.grids[0].q[0] - sim.grids[1].q[0] == pytest.approx(20.0, abs=1e-8)


def test_frictionless_equal_ends_stay_uniform():
    law = IsothermalLaw(340.0)
    grid = PipeGrid(Pipe("P", "a", "b", 1000.0), 10, law,
                    staggering="nodes").fill(50.0, 0.0)
    sim = GasSimulation(
        grids=[grid],
        boundaries={(0, "start"): BoundaryCondition("pressure",
                                                    constant(float(law.p(50.0)))),
                    (0, "end"): BoundaryCondition("flow", constant(0.0))},
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        find_stationary_state(sim)
    assert np.max(np.abs(grid.rho - 50.0)) < 1e-10
    assert np.max(np.abs(grid.q)) < 1e-10


def test_stationary_march_reports_its_step_budget(monkeypatch):
    """The march has no tuning parameters; an exhausted budget still names
    the step count, the last rate and the tolerance."""
    assert list(inspect.signature(find_stationary_state).parameters) == ["sim"]
    monkeypatch.setattr(coupling, "STATIONARY_MAX_STEPS", 1)
    sim = _small_network(IsothermalLaw(340.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ConvergenceError,
                           match=r"no stationary state within 1 steps \(last change .*\)"):
            find_stationary_state(sim)


def _coupled_fixture(staggering="nodes"):
    law = IsothermalLaw(340.0)
    sim = _small_network(law, eps=0.0, staggering=staggering)
    grid = PowerGrid(
        [Bus("S", "slack", V=1.0, phi=0.0, G=0.0, B=-10.0),
         Bus("L", "PQ", P=-0.5, Q=-0.1, G=0.0, B=-10.0)],
        [TransmissionLine("S", "L", 0.0, 10.0)],
    )
    link = GasPowerLink("J", "S", a0=2.0, a1=5.0, a2=10.0, rho0=0.785,
                        area=sim.grids[0].pipe.area)
    return sim, grid, link


def test_constant_demand_cosim_is_stationary():
    sim, grid, link = _coupled_fixture()
    pf, _ = cosim_step(sim, grid, link, [], 0.0, 1.0)  # sets the extraction
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        find_stationary_state(sim)
    before = sim.state_vector()
    hours = 0.5
    steps = 30
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for k in range(steps):
            pf, _ = cosim_step(sim, grid, link, [], sim.t,
                               hours * 3600.0 / steps, warm=pf)
    drift = np.max(np.abs(sim.state_vector() - before) / np.maximum(1.0, np.abs(before)))
    print(f"\n  cosim drift over {hours} h: {drift:.2e}")
    assert drift < 1e-8 * hours


def test_scheduled_demand_feeds_the_gas_extraction():
    sim, grid, link = _coupled_fixture()
    schedules = [DemandSchedule("L", (0.0, 3600.0), (-0.5, -1.5), (-0.1, -0.3))]
    junction = sim.junctions[0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pf0, _ = cosim_step(sim, grid, link, schedules, 0.0, 60.0)
        eps0 = junction.extraction
        pf1, _ = cosim_step(sim, grid, link, schedules, 3600.0, 60.0, warm=pf0)
        eps1 = junction.extraction
    assert pf1.P[0] > pf0.P[0]
    assert eps1 > eps0
    expected = heat_rate(float(pf1.P[0]), link) * link.rho0 / link.area
    assert eps1 == pytest.approx(expected, rel=1e-12)


def test_coupled_cweno_stages_solve_at_the_power_flow_extraction(monkeypatch):
    """A coupled CWENO3 step hands the extraction of its power flow, bit for
    bit, to the junction solve of each of its three stages, and its record
    closes the mass balance."""
    sim, grid, link = _coupled_fixture(staggering="cells")
    draws = []

    def recording(rho, q, n_in, epsilon, law):
        draws.append(epsilon)
        return junction_traces(rho, q, n_in, epsilon, law)

    monkeypatch.setattr(gaspower.cweno, "junction_traces", recording)
    dt = 0.4 * float(np.min(sim.layout.pipe_dx)) / sim.max_wavespeed()
    pf, record = cosim_step(sim, grid, link, [], 0.0, dt, stepper=cweno3_step)
    draw = link.extraction(float(pf.P[grid.slack_index]))
    assert draw > 0.0
    assert draws == [draw] * 3
    assert sim.junctions[0].extraction == draw
    assert record.mass_change == pytest.approx(record.expected_mass_change, abs=1e-10)


def test_infeasible_demand_aborts_with_diagnostic():
    sim, grid, link = _coupled_fixture()
    hopeless = GasPowerLink("J", "S", a0=5e4, a1=0.0, a2=0.0, rho0=0.785,
                            area=link.area)
    cap = link_max_extraction(sim, sim.junctions[0])
    with pytest.raises(InvalidDemandError) as info:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cosim_step(sim, grid, hopeless, [], 0.0, 60.0)
    assert info.value.epsilon_max == pytest.approx(cap, rel=1e-12)


def test_stationary_march_names_the_largest_change(monkeypatch):
    monkeypatch.setattr(coupling, "STATIONARY_MAX_STEPS", 1)
    sim = _small_network(IsothermalLaw(340.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ConvergenceError,
                           match=r"; largest change at pipe [AB] node \d+ \((rho|q)\)$"):
            find_stationary_state(sim)


def _gaslib9_at_t0():
    """gaslib9 holding the extraction of its t = 0 power flow, as a coupled
    run starts it."""
    scn = load_scenario(files("gaspower") / "scenarios" / "gaslib9.scn")
    sim = build_gas_simulation(scn)
    schedules = [DemandSchedule(s.bus, s.times, s.P, s.Q) for s in scn.schedules]
    update_extraction(sim, build_power_grid(scn), build_link(scn, sim),
                      schedules, 0.0)
    return sim


@pytest.mark.parametrize("dt", [1.0, 3600.0, 1e9])
@pytest.mark.parametrize("network", ["small", "gaslib9"])
def test_stationary_state_is_a_fixed_point_of_the_box_step(network, dt):
    """The stationary start solves the steady box equations, so a box step
    of any size leaves it bit for bit unchanged."""
    if network == "small":
        sim = _small_network(IsothermalLaw(340.0))
    else:
        sim = _gaslib9_at_t0()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        find_stationary_state(sim)
        before = sim.state_vector()
        ibox_step(sim, dt)
    assert sim.state_vector().tobytes() == before.tobytes()


def _flow_only_network(q_in, q_out):
    """Two pipes through a plain junction, with flow boundaries at both ends."""
    law = IsothermalLaw(340.0)
    grids = [PipeGrid(Pipe(pid, a, b, 2000.0, diameter=0.6, roughness=5e-5),
                      8, law, staggering="nodes").fill(60e5 / 340.0**2, 0.0)
             for pid, a, b in (("A", "in", "J"), ("B", "J", "out"))]
    return GasSimulation(
        grids=grids,
        junctions=[Junction("J", [JunctionPort(0, "end"), JunctionPort(1, "start")])],
        boundaries={(0, "start"): BoundaryCondition("flow", constant(q_in)),
                    (1, "end"): BoundaryCondition("flow", constant(q_out))},
        friction=FrictionModel(),
    )


def test_balanced_flow_only_network_keeps_its_mass():
    """Without a pressure or density boundary the steady state is the one
    that holds the initial mass, which the box steps conserve."""
    sim = _flow_only_network(100.0, 100.0)
    mass = sim.total_mass()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        find_stationary_state(sim)
    assert sim.t == 0.0
    assert np.all(sim.state[1] == 100.0)
    assert sim.total_mass() == pytest.approx(mass, rel=1e-14)


def test_unbalanced_flow_only_network_has_no_stationary_state():
    sim = _flow_only_network(100.0, 90.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ConvergenceError,
                           match=rf"within {coupling.STATIONARY_MAX_STEPS} steps "
                                 r".*; largest change at pipe [AB] node \d+"):
            find_stationary_state(sim)
