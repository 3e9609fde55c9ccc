"""Implicit box scheme: fixed points, the discrete relation, ODE limit."""

import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import gaspower.friction
from gaspower.errors import ConvergenceError
from gaspower.friction import FrictionModel, colebrook_friction_factor
from gaspower.ibox import _Assembler, ibox_step
from gaspower.laxcurves import GasState
from gaspower.network import (
    BoundaryCondition,
    GasSimulation,
    Junction,
    JunctionPort,
    Pipe,
    PipeGrid,
    constant,
    flux,
)
from gaspower.riemann import solve_gas_power_junction


def _quiet_step(sim, dt):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ibox_step(sim, dt)


def test_stationary_frictionless_state_is_a_fixed_point(unit_isothermal):
    grid = PipeGrid(Pipe("P", "a", "b", 1.0), 50, unit_isothermal,
                    staggering="nodes").fill(2.0, 0.3)
    sim = GasSimulation(
        grids=[grid],
        boundaries={(0, "start"): BoundaryCondition("density", constant(2.0)),
                    (0, "end"): BoundaryCondition("flow", constant(0.3))},
    )
    for _ in range(5):
        _quiet_step(sim, 0.1)
    assert np.max(np.abs(grid.rho - 2.0)) < 1e-12
    assert np.max(np.abs(grid.q - 0.3)) < 1e-12


def test_discrete_relation_holds_cellwise(benchmark_law):
    """After one step the returned state satisfies the box relation."""
    grid = PipeGrid(Pipe("P", "a", "b", 1.0), 30, benchmark_law,
                    staggering="nodes")
    grid.set_profile(lambda x: 2.0 + 0.2 * np.sin(2 * np.pi * x),
                     lambda x: 0.1 * np.cos(2 * np.pi * x))
    rho_old, q_old = grid.rho.copy(), grid.q.copy()
    sim = GasSimulation(
        grids=[grid],
        boundaries={(0, "start"): BoundaryCondition("density", constant(2.0)),
                    (0, "end"): BoundaryCondition("flow", constant(0.1))},
    )
    dt = 0.05
    _quiet_step(sim, dt)
    r = dt / grid.dx
    f_rho_new, f_q_new = flux(grid.rho, grid.q, benchmark_law)
    lhs_rho = 0.5 * (grid.rho[:-1] + grid.rho[1:])
    rhs_rho = 0.5 * (rho_old[:-1] + rho_old[1:]) - r * np.diff(f_rho_new)
    assert np.max(np.abs(lhs_rho - rhs_rho)) < 1e-9
    lhs_q = 0.5 * (grid.q[:-1] + grid.q[1:])
    rhs_q = 0.5 * (q_old[:-1] + q_old[1:]) - r * np.diff(f_q_new)
    assert np.max(np.abs(lhs_q - rhs_q)) < 1e-9


def test_uniform_state_with_linear_drag_follows_the_ode(unit_isothermal):
    """Periodic pipe + uniform state reduce the scheme to implicit Euler on
    q' = -k q; compare against a tightly integrated ODE solution."""
    k = 0.7

    def drag(x, t, rho, q):
        return np.zeros_like(np.asarray(rho)), -k * np.asarray(q)

    grid = PipeGrid(Pipe("P", "a", "b", 1.0), 3, unit_isothermal,
                    staggering="nodes").fill(2.0, 0.5)
    sim = GasSimulation(grids=[grid], periodic=True, extra_source=drag)
    dt = 2e-3
    for _ in range(500):
        _quiet_step(sim, dt)
    reference = solve_ivp(lambda t, y: [-k * y[0]], [0.0, 1.0], [0.5],
                          rtol=1e-12, atol=1e-14).y[0, -1]
    print(f"\n  ibox q={grid.q[0]:.8f} ode q={reference:.8f}")
    assert np.max(np.abs(grid.rho - 2.0)) < 1e-12
    assert grid.q[0] == pytest.approx(reference, rel=1e-3)


def test_junction_traces_match_the_wave_curve_solution(benchmark_law):
    """With resolved data the implicit junction nodes land on the same
    coupling state the wave-curve solver predicts."""
    n = 400
    a = PipeGrid(Pipe("L", "in", "j", 0.1), n, benchmark_law,
                 staggering="nodes").fill(4.0, 1.0)
    b = PipeGrid(Pipe("R", "j", "out", 0.1), n, benchmark_law,
                 staggering="nodes").fill(3.0, -1.0)
    sim = GasSimulation(
        grids=[a, b],
        junctions=[Junction("j", [JunctionPort(0, "end"), JunctionPort(1, "start")],
                            extraction=constant(1.75))],
        boundaries={(0, "start"): BoundaryCondition("state", constant((4.0, 1.0))),
                    (1, "end"): BoundaryCondition("state", constant((3.0, -1.0)))},
    )
    for _ in range(20):
        _quiet_step(sim, 2.5e-3)
    exact = solve_gas_power_junction(GasState(4.0, 1.0), GasState(3.0, -1.0),
                                     1.75, benchmark_law)
    assert a.rho[-1] == pytest.approx(exact.left_trace.rho, rel=2e-3)
    assert a.q[-1] == pytest.approx(exact.left_trace.q, rel=2e-3)
    assert b.q[0] == pytest.approx(exact.right_trace.q, rel=5e-3)
    # coupling conditions hold exactly at the discrete level
    assert a.rho[-1] == pytest.approx(b.rho[0], rel=1e-12)
    assert a.q[-1] - b.q[0] == pytest.approx(1.75, abs=1e-9)


def test_newton_failure_is_reported(unit_isothermal):
    grid = PipeGrid(Pipe("P", "a", "b", 1.0), 10, unit_isothermal,
                    staggering="nodes").fill(1.0, 0.0)
    sim = GasSimulation(
        grids=[grid],
        boundaries={(0, "start"): BoundaryCondition("density", constant(1.0)),
                    (0, "end"): BoundaryCondition("flow", constant(0.99))},
    )
    # An outflow at the sonic limit of the curve has no sub-sonic match.
    with pytest.raises(ConvergenceError):
        for _ in range(5):
            _quiet_step(sim, 0.5)


def test_one_friction_solve_per_assembly(monkeypatch, unit_isothermal):
    """All pipes share one Colebrook solve per residual/Jacobian assembly."""
    geometry = ((0.5, 1e-5), (1.0, 0.0), (0.3, 2e-3))
    grids = [PipeGrid(Pipe(f"P{i}", f"a{i}", f"b{i}", 1000.0, diameter=d,
                           roughness=k), 8, unit_isothermal,
                      staggering="nodes").fill(2.0, 0.1 * (i + 1))
             for i, (d, k) in enumerate(geometry)]
    boundaries = {}
    for i, grid in enumerate(grids):
        boundaries[(i, "start")] = BoundaryCondition("density", constant(2.0))
        boundaries[(i, "end")] = BoundaryCondition("flow", constant(grid.q[-1]))
    sim = GasSimulation(grids=grids, boundaries=boundaries,
                        friction=FrictionModel())
    calls = []

    def counted(*args):
        calls.append(np.size(args[0]))
        return colebrook_friction_factor(*args)

    monkeypatch.setattr(gaspower.friction, "colebrook_friction_factor", counted)
    asm = _Assembler(sim, 1.0, 1.0)
    asm.assemble(asm.pack(), with_jacobian=True)
    assert calls == [27]
    asm.assemble(asm.pack(), with_jacobian=False)
    assert calls == [27, 27]
