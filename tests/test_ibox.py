"""Implicit box scheme: fixed points, the discrete relation, ODE limit."""

import gc
import math
import warnings
import weakref
from importlib.resources import files

import numpy as np
import pytest
import scipy.linalg.lapack
import scipy.sparse
import scipy.sparse.linalg
from scipy.integrate import solve_ivp

import gaspower.friction
import gaspower.ibox
from gaspower.coupling import DemandSchedule, GasPowerLink, cosim_step
from gaspower.driver import build_gas_simulation
from gaspower.errors import ConvergenceError, DomainError, InvalidDemandError
from gaspower.friction import FrictionModel, colebrook_friction_factor
from gaspower.ibox import _Assembler, ibox_step, spsolve
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
from gaspower.powerflow import Bus, PowerGrid, TransmissionLine
from gaspower.riemann import junction_max_extraction, solve_gas_power_junction
from gaspower.scenario import load_scenario


def _quiet_step(sim, dt):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return ibox_step(sim, dt)


def _uniform_frictionless_flow(law):
    grid = PipeGrid(Pipe("P", "a", "b", 1.0), 50, law,
                    staggering="nodes").fill(2.0, 0.3)
    return GasSimulation(
        grids=[grid],
        boundaries={(0, "start"): BoundaryCondition("density", constant(2.0)),
                    (0, "end"): BoundaryCondition("flow", constant(0.3))},
    )


def test_stationary_frictionless_state_is_a_fixed_point(unit_isothermal):
    sim = _uniform_frictionless_flow(unit_isothermal)
    grid = sim.grids[0]
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
                            extraction=1.75)],
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
    # An outflow beyond the sonic limit of the curve has no sub-sonic match:
    # the stalled step names it with the one-port maximum of the state at rest.
    with pytest.raises(InvalidDemandError,
                       match=r"^t=0\.5, pipe P end: outflow 0\.99 is at or above "
                             r"the boundary maximum 0\.367879$") as info:
        for _ in range(5):
            _quiet_step(sim, 0.5)
    assert info.value.epsilon_max == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_newton_failure_at_a_pipe_start_outflow_is_reported(unit_isothermal):
    """An outflow through a pipe start is the one-port junction of the
    mirrored end state: the stalled step names it with that junction's
    maximum for the step's starting state."""
    grid = PipeGrid(Pipe("P", "a", "b", 1.0), 10, unit_isothermal,
                    staggering="nodes").fill(1.0, 0.2)
    sim = GasSimulation(
        grids=[grid],
        boundaries={(0, "start"): BoundaryCondition("flow", constant(-0.99)),
                    (0, "end"): BoundaryCondition("density", constant(1.0))},
    )
    with pytest.raises(InvalidDemandError) as info:
        for _ in range(5):
            _quiet_step(sim, 0.5)
    # A failed step leaves the network at its starting state.
    rho, q = float(grid.rho[0]), float(grid.q[0])
    eps_max = junction_max_extraction([GasState(rho, 0.0 - q)], [], unit_isothermal)
    assert info.value.epsilon_max == eps_max
    assert str(info.value) == (f"t={sim.t + 0.5:g}, pipe P start: outflow 0.99 is at "
                               f"or above the boundary maximum {eps_max:g}")


def test_a_stall_below_the_outflow_maximum_stays_a_convergence_failure(unit_isothermal):
    """0.36 is below the one-port maximum 1/e of the state at rest, so the
    stalled step is not a demand error: it names its worst row."""
    grid = PipeGrid(Pipe("P", "a", "b", 1.0), 10, unit_isothermal,
                    staggering="nodes").fill(1.0, 0.0)
    sim = GasSimulation(
        grids=[grid],
        boundaries={(0, "start"): BoundaryCondition("density", constant(1.0)),
                    (0, "end"): BoundaryCondition("flow", constant(0.36))},
    )
    with pytest.raises(ConvergenceError, match=r"^box-scheme Newton stalled at t=0 "
                                               r".*pipe P node 9-10 \(momentum\)$"):
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
    asm.jacobian(asm.x_old)
    assert calls == [27]
    asm.residual(asm.x_old)
    assert calls == [27, 27]


def _three_pipe_network(law):
    """Pipes 0 -> 1 through a junction with extraction and a compressor on
    port 1, and an isolated pipe 2: pressure, flow, density and state ends,
    Colebrook friction and a state-dependent extra source."""
    pipes = [Pipe("P0", "in", "j", 1000.0, diameter=0.5, roughness=1e-4),
             Pipe("P1", "j", "out", 800.0, diameter=0.5, roughness=1e-4),
             Pipe("P2", "a", "b", 600.0, diameter=0.3, roughness=2e-3)]
    grids = [PipeGrid(p, 6, law, staggering="nodes") for p in pipes]
    for i, grid in enumerate(grids):
        s = grid.x / grid.pipe.length
        grid.rho[:] = 2.0 + 0.1 * i + 0.05 * np.sin(3.0 * s)
        grid.q[:] = 1.5 - 0.2 * i + 0.1 * np.cos(2.0 * s)

    def extra(x, t, rho, q):
        return 1e-4 * np.sin(x / 300.0) * rho * q, -1e-3 * (1.0 + t) * rho * q

    return GasSimulation(
        grids=grids,
        junctions=[Junction("j", [JunctionPort(0, "end"),
                                  JunctionPort(1, "start", pressure_ratio=1.05)],
                            extraction=0.3)],
        boundaries={(0, "start"): BoundaryCondition("pressure", constant(2.5)),
                    (1, "end"): BoundaryCondition("flow", constant(1.2)),
                    (2, "start"): BoundaryCondition("density", constant(2.2)),
                    (2, "end"): BoundaryCondition("state", constant((2.1, 1.1)))},
        friction=FrictionModel(),
        extra_source=extra,
    )


def _periodic_pipe(law):
    grid = PipeGrid(Pipe("P", "a", "b", 1.0), 7, law, staggering="nodes")
    grid.set_profile(lambda x: 2.0 + 0.2 * np.sin(2 * np.pi * x),
                     lambda x: 0.4 + 0.1 * np.cos(2 * np.pi * x))

    def drag(x, t, rho, q):
        return np.zeros_like(rho), -0.7 * q * rho

    return GasSimulation(grids=[grid], periodic=True, extra_source=drag)


@pytest.mark.parametrize("build", [_three_pipe_network, _periodic_pipe])
def test_jacobian_matches_central_differences_of_the_residual(build, benchmark_law):
    """Every entry of the fixed pattern, and no other, carries the slope."""
    asm = _Assembler(build(benchmark_law), 0.5, 0.5)
    x = asm.x_old * (1.0 + 1e-3 * np.sin(np.arange(asm.size)))
    jac = asm.jacobian(x).toarray()
    fd = np.empty_like(jac)
    for j in range(x.size):
        h = 1e-6 * max(1.0, abs(x[j]))
        e = np.zeros_like(x)
        e[j] = h
        fd[:, j] = (asm.residual(x + e)[0] - asm.residual(x - e)[0]) / (2.0 * h)
    np.testing.assert_allclose(jac, fd, rtol=1e-6, atol=1e-9 * np.abs(jac).max())


def test_jacobian_only_before_a_newton_step(monkeypatch, benchmark_law,
                                            unit_isothermal):
    counts = {"jacobian": 0, "spsolve": 0}
    jacobian, spsolve = _Assembler.jacobian, gaspower.ibox.spsolve

    def counted_jacobian(self, x):
        counts["jacobian"] += 1
        return jacobian(self, x)

    def counted_spsolve(*args):
        counts["spsolve"] += 1
        return spsolve(*args)

    monkeypatch.setattr(_Assembler, "jacobian", counted_jacobian)
    monkeypatch.setattr(gaspower.ibox, "spsolve", counted_spsolve)
    sim = _three_pipe_network(benchmark_law)
    for _ in range(3):
        _quiet_step(sim, 0.5)
    assert counts["spsolve"] > 3
    assert counts["jacobian"] == counts["spsolve"]

    # Nothing to solve at the frictionless fixed point: no Jacobian at all.
    counts.update(jacobian=0, spsolve=0)
    _quiet_step(_uniform_frictionless_flow(unit_isothermal), 0.1)
    assert counts == {"jacobian": 0, "spsolve": 0}


def test_mass_balance_closes_at_every_step(benchmark_law):
    """Mass change = dt * area * (inflow - outflow - extraction), step by step."""
    pipe = Pipe("L", "in", "j", 1.0, diameter=0.5)
    a = PipeGrid(pipe, 40, benchmark_law, staggering="nodes").fill(4.0, 1.0)
    b = PipeGrid(Pipe("R", "j", "out", 1.5, diameter=0.5), 60, benchmark_law,
                 staggering="nodes").fill(3.0, 0.2)
    eps = 0.35
    sim = GasSimulation(
        grids=[a, b],
        junctions=[Junction("j", [JunctionPort(0, "end"), JunctionPort(1, "start")],
                            extraction=eps)],
        boundaries={(0, "start"): BoundaryCondition("pressure", constant(6.0)),
                    (1, "end"): BoundaryCondition("flow", constant(0.5))},
        friction=FrictionModel(eta=1e-3),
    )
    dt = 0.02
    for _ in range(20):
        before = sim.total_mass()
        record = _quiet_step(sim, dt)
        after = sim.total_mass()
        expected = dt * pipe.area * (a.q[0] - b.q[-1] - eps)
        assert abs(expected) > 1e-4 * after
        assert after - before == pytest.approx(expected, abs=1e-12 * after)
        # The step's own record agrees with this oracle.
        assert record.mass_change == after - before
        assert record.expected_mass_change == pytest.approx(expected,
                                                            abs=1e-12 * after)


def test_cosim_step_record_closes_on_the_compressor_network(benchmark_law):
    """A coupled step returns the box step's record: on the three-pipe
    network with its compressor and the generator's draw at the junction,
    the mass change is the boundary flows minus the draw, step by step."""
    sim = _three_pipe_network(benchmark_law)
    sim.extra_source = None     # its density source is not a boundary flow
    grid = PowerGrid([Bus("S", "slack", V=1.0, phi=0.0, G=0.0, B=-10.0),
                      Bus("L", "PQ", P=-0.5, Q=-0.1, G=0.0, B=-10.0)],
                     [TransmissionLine("S", "L", 0.0, 10.0)])
    area = sim.grids[0].pipe.area
    link = GasPowerLink("j", "S", a0=0.05, a1=0.2, a2=0.1, rho0=1.0, area=area)
    schedules = [DemandSchedule("L", (0.0, 5.0), (-0.2, -0.8), (-0.05, -0.2))]
    p0, p1, p2 = sim.grids
    dt, pf = 0.5, None
    for _ in range(10):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pf, record = cosim_step(sim, grid, link, schedules, sim.t, dt, warm=pf)
        mass = sim.total_mass()
        draw = sim.junctions[0].extraction
        assert draw > 0.4
        expected = dt * (area * (p0.q[0] - p1.q[-1] - draw)
                         + p2.pipe.area * (p2.q[0] - p2.q[-1]))
        assert abs(record.mass_defect) <= 1e-12 * mass
        assert record.expected_mass_change == pytest.approx(expected,
                                                            abs=1e-12 * mass)


def _random_network(rng, law, pipes, junctions, ends, periodic=False):
    """``pipes`` pipes with random grids and states, the given junctions,
    and a boundary at every end that no junction takes: of the kind that
    ``ends`` maps it to, else of a random kind."""
    grids = []
    for i in range(pipes):
        pipe = Pipe(f"P{i}", f"a{i}", f"b{i}", float(rng.uniform(200.0, 900.0)),
                    diameter=0.5, roughness=1e-4)
        grid = PipeGrid(pipe, int(rng.integers(3, 12)), law, staggering="nodes")
        grid.rho[:] = rng.uniform(1.8, 2.6, grid.x.size)
        grid.q[:] = rng.uniform(0.2, 0.8, grid.x.size)
        if periodic:
            grid.rho[-1], grid.q[-1] = grid.rho[0], grid.q[0]
        grids.append(grid)
    covered = {(p.pipe_index, p.end) for j in junctions for p in j.ports}
    boundaries = {}
    if not periodic:
        for i in range(pipes):
            for end in ("start", "end"):
                if (i, end) in covered:
                    continue
                kind = ends.get((i, end)) or str(rng.choice(
                    ["pressure", "density", "flow", "state"]))
                k = 0 if end == "start" else -1
                rho, q = float(grids[i].rho[k]), float(grids[i].q[k])
                value = {"pressure": float(law.p(rho)), "density": rho,
                         "flow": q, "state": (rho, q)}[kind]
                boundaries[(i, end)] = BoundaryCondition(kind, constant(value))
    return GasSimulation(grids=grids, junctions=junctions, boundaries=boundaries,
                         friction=FrictionModel(), periodic=periodic)


def _port(i, end, ratio=1.0):
    return JunctionPort(i, end, pressure_ratio=ratio)


def _chain(k):
    return {"pipes": k, "junctions": [Junction(f"j{i}", [_port(i, "end"),
                                                         _port(i + 1, "start")])
                                      for i in range(k - 1)]}


# pipes 0 and 1 merge into pipe 2 through a compressor on the outgoing port
_TEE = {"pipes": 3, "junctions": [Junction(
    "j", [_port(0, "end"), _port(1, "end"), _port(2, "start", 1.05)],
    extraction=0.2)]}
# pipe 0 feeds two parallel pipes 1 and 2 that rejoin into pipe 3
_LOOP = {"pipes": 4, "junctions": [
    Junction("a", [_port(0, "end"), _port(1, "start"), _port(2, "start")]),
    Junction("b", [_port(1, "end"), _port(2, "end"), _port(3, "start")],
             extraction=0.1)]}
_NETWORKS = (
    [pytest.param({**_chain(k), "seed": s}, id=f"chain{k}-seed{s}")
     for k in (1, 2, 3, 4) for s in (0, 1)]
    + [pytest.param({**_TEE, "seed": s}, id=f"tee-seed{s}") for s in (0, 1)]
    + [pytest.param({**_LOOP, "seed": s}, id=f"loop-seed{s}") for s in (0, 1)]
    + [pytest.param({"pipes": 1, "junctions": [], "periodic": True, "seed": 0},
                    id="periodic")]
    + [pytest.param({"pipes": 1, "junctions": [], "seed": 2,
                     "ends": {(0, "start"): start, (0, "end"): end}},
                    id=f"{start}-{end}")
       for start in ("pressure", "density", "flow", "state")
       for end in ("pressure", "density", "flow", "state")]
)


@pytest.mark.parametrize("network", _NETWORKS)
def test_banded_solve_matches_scipy(network, benchmark_law):
    """The banded LU in the layout's ordering solves the Newton system of
    every network shape as SciPy's sparse direct solve does."""
    rng = np.random.default_rng(network["seed"])
    sim = _random_network(rng, benchmark_law, network["pipes"],
                          network["junctions"], network.get("ends", {}),
                          network.get("periodic", False))
    asm = _Assembler(sim, 0.5, 0.5)
    x = asm.x_old * rng.uniform(0.99, 1.01, asm.size)
    jac, rhs = asm.jacobian(x), asm.residual(x)[0]
    assert jac.shape == (asm.size, asm.size)
    reference = scipy.sparse.linalg.spsolve(
        scipy.sparse.csr_matrix(jac.toarray()), rhs)
    solution = gaspower.ibox.spsolve(jac, rhs)
    assert np.max(np.abs(solution - reference)) <= 1e-12 * np.max(np.abs(reference))


@pytest.mark.parametrize("network", _NETWORKS)
def test_step_record_closes_the_mass_balance(network, benchmark_law):
    """On every network shape, friction on and the periodic pipe included,
    each step's mass change is the telescoped box mass rows to 1e-12 of the
    mass; on the periodic pipe nothing is expected to enter or leave."""
    rng = np.random.default_rng(network["seed"])
    periodic = network.get("periodic", False)
    sim = _random_network(rng, benchmark_law, network["pipes"],
                          network["junctions"], network.get("ends", {}),
                          periodic)
    for _ in range(10):
        record = _quiet_step(sim, 0.5)
        assert abs(record.mass_defect) <= 1e-12 * sim.total_mass()
        assert (record.expected_mass_change == 0.0) == periodic


def _assert_no_shared_work_array(first, second):
    for name in ("storage", "values", "work"):
        assert not np.shares_memory(getattr(first, name), getattr(second, name))


def test_layout_is_built_once_per_network_layout(benchmark_law):
    """A simulation builds its band layout at its first step, and every
    later step and assembler of it reuses that one object; two simulations
    of one network layout share no work array, another boundary kind gives
    another boundary column, and a finished simulation that is dropped
    frees its layout with it, with no garbage collection needed."""
    def two_pipes(outflow="flow"):
        return _random_network(np.random.default_rng(3), benchmark_law,
                               **_chain(2), ends={(0, "start"): "density",
                                                  (1, "end"): outflow})

    def run(sim):
        assert sim.scheme_layout is None
        layouts = []
        for _ in range(3):
            _quiet_step(sim, 0.5)
            layouts.append(sim.scheme_layout)
        layouts.append(_Assembler(sim, 0.5, sim.t + 0.5).layout)
        assert all(layout is layouts[0] for layout in layouts)
        return layouts[0]

    first = run(two_pipes())
    _assert_no_shared_work_array(first, run(two_pipes()))
    density_end = _Assembler(two_pipes("density"), 0.5, 0.5).layout
    assert density_end.bc_cols.tolist() != first.bc_cols.tolist()

    def run_and_drop():
        sim = two_pipes()
        return weakref.ref(sim), weakref.ref(run(sim))

    gc.disable()
    try:
        refs = run_and_drop()
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


def test_bandwidth_of_the_bundled_and_benchmark_networks(benchmark_law):
    """The ordering keeps gaslib9, loop included, in a narrow band and the
    two-pipe junction pentadiagonal."""
    scenario = load_scenario(files("gaspower") / "scenarios" / "gaslib9.scn")
    layout = _Assembler(build_gas_simulation(scenario), 60.0, 60.0).layout
    assert layout.kl <= 8 and layout.ku <= 8
    # the two-pipe junction of the fine benchmark: 2 x 5000 intervals
    grids = [PipeGrid(Pipe(name, a, b, 0.25), 5000, benchmark_law,
                      staggering="nodes").fill(3.0, 0.5)
             for name, a, b in (("L", "in", "j"), ("R", "j", "out"))]
    sim = GasSimulation(
        grids=grids,
        junctions=[Junction("j", [JunctionPort(0, "end"), JunctionPort(1, "start")],
                            extraction=0.5)],
        boundaries={(0, "start"): BoundaryCondition("state", constant((3.0, 0.5))),
                    (1, "end"): BoundaryCondition("state", constant((3.0, 0.0)))},
    )
    layout = _Assembler(sim, 5e-4, 5e-4).layout
    assert (layout.size, layout.kl, layout.ku) == (20004, 2, 2)


def test_singular_jacobian_is_a_convergence_error(benchmark_law):
    """With zero ratios in the assembled junction (ports reject them, so they
    are set on the assembler) the pressure row vanishes; the zero pivot is
    reported with the time, the pipe and the node."""
    sim = _random_network(
        np.random.default_rng(4), benchmark_law, 2,
        [Junction("j", [_port(0, "end"), _port(1, "start")])], {})
    asm = _Assembler(sim, 0.5, 0.5)
    asm.junctions = [(row, bases, [0.0] * len(ratios), signs, eps)
                     for row, bases, ratios, signs, eps in asm.junctions]
    x = asm.x_old
    with pytest.raises(ConvergenceError,
                       match=r"singular .* t=0, pipe P[01] node \d+ \((rho|q)\)"):
        spsolve(asm.jacobian(x), -asm.residual(x)[0])


@pytest.mark.parametrize("ratio", [0.0, -1.05, math.nan, math.inf])
def test_junction_port_rejects_bad_compressor_ratios(ratio):
    with pytest.raises(DomainError, match=r"pipe 3 start: .*ratio"):
        JunctionPort(3, "start", ratio)


def test_jacobian_reuses_the_friction_factor_of_the_same_iterate(
        monkeypatch, benchmark_law):
    """After a residual at the same iterate the Jacobian skips its Colebrook
    solve, computes no Reynolds numbers and no drag, and is bit for bit the
    one built from scratch. After a residual elsewhere, also at the same
    momenta but other densities (S depends on them), it evaluates again."""
    asm = _Assembler(_three_pipe_network(benchmark_law), 0.5, 0.5)
    x = asm.x_old
    y = x * (1.0 + 1e-3 * np.cos(np.arange(asm.size)))
    fresh = asm.jacobian(y).toarray()
    same_q = y.copy()
    same_q[0::2] = x[0::2]
    assert np.all(same_q[0::2] != y[0::2])
    calls, evaluations = [], []

    def counted(*args):
        calls.append(1)
        return colebrook_friction_factor(*args)

    terms = FrictionModel.terms

    def counted_terms(self, *args):
        # The Reynolds numbers, the drag and S of one iterate.
        evaluations.append(1)
        return terms(self, *args)

    monkeypatch.setattr(gaspower.friction, "colebrook_friction_factor", counted)
    monkeypatch.setattr(FrictionModel, "terms", counted_terms)
    asm.residual(x)
    np.testing.assert_array_equal(asm.jacobian(y).toarray(), fresh)
    assert len(calls) == len(evaluations) == 2
    asm.residual(y)
    np.testing.assert_array_equal(asm.jacobian(y).toarray(), fresh)
    assert len(calls) == len(evaluations) == 3
    asm.residual(same_q)
    np.testing.assert_array_equal(asm.jacobian(y).toarray(), fresh)
    assert len(calls) == len(evaluations) == 5


def _reference_assembly(sim, dt, x):
    """Residual, scale and dense Jacobian of one box step at ``x`` by
    gathering both nodes of every neighbour pair, row kind by row kind."""
    law, h = sim.law, 0.5 * dt
    nodes = sim.layout
    active = int(nodes.offsets[-1]) - sim.periodic
    a = np.arange(active)
    if sim.periodic:
        b = np.roll(a, -1)
    else:
        a = np.delete(a, nodes.offsets[1:] - 1)
        b = a + 1
    r = dt / nodes.dx[a]
    x_old = sim.state[:, :active].T.ravel()
    xs, d, k = nodes.x[:active], nodes.diameter[:active], nodes.roughness[:active]
    rho, q = x[0::2], x[1::2]

    def extra(rho, q):
        return [np.asarray(v, dtype=float)
                for v in sim.extra_source(xs, sim.t + dt, rho, q)]

    s = sim.friction.source(rho, q, d, k)
    g_r, g_q = np.zeros_like(rho), s
    if sim.extra_source is not None:
        e_r, e_q = extra(rho, q)
        g_r, g_q = e_r, s + e_q
    _, ds_drho, ds_dq = sim.friction.source_with_derivatives(rho, q, d, k)
    dgr_r = dgr_q = np.zeros_like(rho)
    dgq_r, dgq_q = ds_drho, ds_dq
    if sim.extra_source is not None:
        hr = 1e-7 * np.maximum(1.0, np.abs(rho))
        hq = 1e-7 * np.maximum(1.0, np.abs(q))
        (er2, eq2), (er3, eq3) = extra(rho + hr, q), extra(rho, q + hq)
        dgr_r, dgr_q = (er2 - e_r) / hr, (er3 - e_r) / hq
        dgq_r, dgq_q = ds_drho + (eq2 - e_q) / hr, ds_dq + (eq3 - e_q) / hq

    residual, scale = np.empty(x.size), np.empty(x.size)
    fq = np.asarray(law.p(rho), dtype=float) + q * (q / rho)
    for kind, (u, f, g) in enumerate(((rho, q, g_r), (q, fq, g_q))):
        u_old = x_old[kind::2]
        box = slice(kind, 2 * a.size, 2)
        residual[box] = (0.5 * (u[a] + u[b]) - 0.5 * (u_old[a] + u_old[b])
                         + r * (f[b] - f[a]) - h * (g[a] + g[b]))
        scale[box] = (0.5 * (np.abs(u[a]) + np.abs(u[b])
                             + np.abs(u_old[a]) + np.abs(u_old[b]))
                      + r * (np.abs(f[a]) + np.abs(f[b]))
                      + h * (np.abs(g[a]) + np.abs(g[b])))
    a21, a22 = law.dp(rho) - (q / rho) ** 2, 2.0 * (q / rho)
    jac = np.zeros((x.size, x.size))
    for kind, vals in enumerate((
            (0.5 - h * dgr_r[a], -r - h * dgr_q[a],
             0.5 - h * dgr_r[b], r - h * dgr_q[b]),
            (-r * a21[a] - h * dgq_r[a], 0.5 - r * a22[a] - h * dgq_q[a],
             r * a21[b] - h * dgq_r[b], 0.5 + r * a22[b] - h * dgq_q[b]))):
        rows = 2 * np.arange(a.size) + kind
        for col, val in zip((2 * a, 2 * a + 1, 2 * b, 2 * b + 1), vals):
            jac[rows, col] = val

    def column(pipe, end):
        return 2 * (nodes.offsets[pipe] if end == "start"
                    else min(nodes.offsets[pipe + 1], active) - 1)

    row = 2 * a.size
    for (pipe, end), bc in sim.boundaries.items():
        value, col = bc.value(sim.t + dt), column(pipe, end)
        if bc.kind == "pressure":
            value = law.rho_from_pressure(value)
        elif bc.kind == "flow" or (bc.kind == "state" and end == "end"):
            col += 1
        if bc.kind == "state":
            value = value[col % 2]
        residual[row] = x[col] - float(value)
        scale[row] = abs(x[col]) + abs(float(value))
        jac[row, col] = 1.0
        row += 1
    for junction in sim.junctions:
        cols = [column(p.pipe_index, p.end) for p in junction.ports]
        p = np.array([float(law.p(x[c])) * port.pressure_ratio
                      for c, port in zip(cols, junction.ports)])
        dp = np.array([float(law.dp(x[c])) * port.pressure_ratio
                       for c, port in zip(cols, junction.ports)])
        for i in range(1, p.size):
            residual[row], scale[row] = p[i] - p[0], abs(p[i]) + abs(p[0])
            jac[row, cols[i]], jac[row, cols[0]] = dp[i], -dp[0]
            row += 1
        eps = junction.extraction
        total, s = -eps, abs(eps)
        for c, port in zip(cols, junction.ports):
            sign = 1.0 if port.end == "end" else -1.0
            total += sign * x[c + 1]
            s += abs(x[c + 1])
            jac[row, c + 1] = sign
        residual[row], scale[row] = total, s
        row += 1
    return residual, scale, jac


def _assert_assembly_matches_the_reference(sim):
    asm = _Assembler(sim, 0.5, 0.5)
    for x in (asm.x_old, asm.x_old * (1.0 + 1e-3 * np.sin(np.arange(asm.size)))):
        residual, scale, jac = _reference_assembly(sim, 0.5, x)
        got = asm.residual(x)
        np.testing.assert_array_equal(got[0], residual)
        np.testing.assert_array_equal(got[1], scale)
        np.testing.assert_array_equal(asm.jacobian(x).toarray(), jac)


@pytest.mark.parametrize("build", [_three_pipe_network, _periodic_pipe,
                                   _uniform_frictionless_flow])
def test_assembly_matches_the_pairwise_gather_bit_for_bit(build, benchmark_law):
    """Residual, scale and Jacobian assembled on consecutive node pairs equal
    the neighbour-pair gathers exactly, friction and extra sources included."""
    _assert_assembly_matches_the_reference(build(benchmark_law))


@pytest.mark.parametrize("network", _NETWORKS)
def test_assembly_of_random_networks_matches_the_pairwise_gather(network,
                                                                 benchmark_law):
    rng = np.random.default_rng(network["seed"])
    _assert_assembly_matches_the_reference(_random_network(
        rng, benchmark_law, network["pipes"], network["junctions"],
        network.get("ends", {}), network.get("periodic", False)))


def test_one_band_buffer_per_step_is_rewritten_and_kept_by_the_solve(
        benchmark_law):
    """Jacobians built in turn on one assembler share its band storage; each
    holds exactly, and solves exactly as, a fresh assembler's Jacobian, and
    the LU leaves the storage as it was."""
    sim = _three_pipe_network(benchmark_law)
    asm = _Assembler(sim, 0.5, 0.5)
    x = asm.x_old
    y = x * (1.0 + 1e-3 * np.cos(np.arange(asm.size)))
    rhs = -asm.residual(x)[0]
    bands = []
    for point in (x, y, x):
        jac = asm.jacobian(point)
        kept = jac.band.copy()
        solution = spsolve(jac, rhs)
        np.testing.assert_array_equal(jac.band, kept)
        fresh = _Assembler(sim, 0.5, 0.5).jacobian(point)
        np.testing.assert_array_equal(jac.band, fresh.band)
        np.testing.assert_array_equal(solution, spsolve(fresh, rhs))
        bands.append(jac.band)
    assert all(np.shares_memory(bands[0], band) for band in bands[1:])


def test_steps_of_a_layout_build_their_jacobians_in_its_band(monkeypatch,
                                                            benchmark_law):
    """The Jacobians of consecutive steps are views of one band storage,
    the layout's, and no step allocates another."""
    jacobians = []
    build = _Assembler.jacobian

    def recording(self, x):
        jacobians.append(build(self, x))
        return jacobians[-1]

    monkeypatch.setattr(_Assembler, "jacobian", recording)
    sim = _three_pipe_network(benchmark_law)
    firsts = []
    for _ in range(2):
        built = len(jacobians)
        _quiet_step(sim, 0.5)
        firsts.append(jacobians[built])
    layout = firsts[0].layout
    assert firsts[1].layout is layout
    assert np.shares_memory(firsts[0].band, firsts[1].band)
    assert all(np.shares_memory(jac.band, layout.storage) for jac in jacobians)


def test_the_lu_factors_in_the_layout_work_array(monkeypatch, benchmark_law):
    """``spsolve`` copies the band into the layout's work array and LAPACK
    factors it there in place."""
    factors = []
    dgbsv = scipy.linalg.lapack.dgbsv

    def recording(*args, **kwargs):
        result = dgbsv(*args, **kwargs)
        factors.append(result[0])
        return result

    monkeypatch.setattr(scipy.linalg.lapack, "dgbsv", recording)
    asm = _Assembler(_three_pipe_network(benchmark_law), 0.5, 0.5)
    x = asm.x_old
    spsolve(asm.jacobian(x), -asm.residual(x)[0])
    (lu,) = factors
    assert np.shares_memory(lu, asm.layout.work)


def test_simulations_of_one_layout_stepped_in_turn_match_each_run_alone(
        benchmark_law):
    """Two simulations of one network layout each hold their own work
    arrays; stepped in turn, each ends bit for bit where it ends when run
    alone."""
    def pair():
        first, second = (_three_pipe_network(benchmark_law) for _ in range(2))
        second.state[0] *= 1.01
        return first, second

    alone = []
    for k in range(2):
        sim = pair()[k]
        for _ in range(4):
            _quiet_step(sim, 0.5)
        alone.append(sim.state.copy())
    in_turn = pair()
    for _ in range(4):
        for sim in in_turn:
            _quiet_step(sim, 0.5)
    for sim, state in zip(in_turn, alone):
        np.testing.assert_array_equal(sim.state, state)
    assert not np.array_equal(alone[0], alone[1])
    _assert_no_shared_work_array(*(sim.scheme_layout for sim in in_turn))


def test_every_row_names_its_place(benchmark_law):
    """Pair rows name their pipe and nodes, boundary rows the pipe end and
    variable, junction rows the junction."""
    asm = _Assembler(_three_pipe_network(benchmark_law), 0.5, 0.5)
    places = [asm.place(row) for row in range(asm.size)]
    assert places[:2] == ["pipe P0 node 0-1 (mass)", "pipe P0 node 0-1 (momentum)"]
    assert places[12] == "pipe P1 node 0-1 (mass)"
    assert places[35] == "pipe P2 node 5-6 (momentum)"
    assert places[36:] == ["pipe P0 start (rho boundary)", "pipe P1 end (q boundary)",
                           "pipe P2 start (rho boundary)", "pipe P2 end (q boundary)",
                           "junction j (pressure)", "junction j (mass)"]
    periodic = _Assembler(_periodic_pipe(benchmark_law), 0.5, 0.5)
    assert periodic.place(periodic.size - 1) == "pipe P node 6-7 (momentum)"


def test_newton_failures_name_the_row_of_the_largest_residual(
        monkeypatch, benchmark_law, unit_isothermal):
    """A step cut off after one iteration, and a line search that stalls,
    name the time and the place of the worst row: junction, pipe end or
    pipe nodes."""
    def outflow(law, q):
        grid = PipeGrid(Pipe("P", "a", "b", 1.0), 10, law,
                        staggering="nodes").fill(1.0, 0.0)
        return GasSimulation(
            grids=[grid],
            boundaries={(0, "start"): BoundaryCondition("density", constant(1.0)),
                        (0, "end"): BoundaryCondition("flow", constant(q))})

    # These outflows are beyond their maxima, which a failed step names
    # first; without that check the stalls name their worst rows.
    with monkeypatch.context() as patch:
        patch.setattr(_Assembler, "unreachable_demand", lambda self: None)
        for sim, message in (
                (outflow(benchmark_law, 5.0), r"pipe P end \(q boundary\)"),
                (outflow(unit_isothermal, 0.99), r"pipe P node 9-10 \(momentum\)")):
            with pytest.raises(ConvergenceError,
                               match=r"stalled at t=\S+ \(scaled residual .*\); "
                                     rf"largest residual at {message}$"):
                for _ in range(5):
                    _quiet_step(sim, 0.5)

    monkeypatch.setattr(gaspower.ibox, "NEWTON_MAXITER", 1)
    with pytest.raises(ConvergenceError,
                       match=r"did not converge within 1 iterations at t=0 "
                             r"\(scaled residual .*\); largest residual at "
                             r"junction j \(pressure\)$"):
        _quiet_step(_three_pipe_network(benchmark_law), 0.5)
