"""Acceptance suite: one test per shipped criterion, with pass/fail lines.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
verdicts as they complete. The heavy coupled-network criterion takes about
two minutes; the whole module stays within a few minutes.
"""

import dataclasses
import functools
import math
import time
import warnings
from importlib.resources import files

import numpy as np
import pytest

from gaspower.cweno import cweno3_step
from gaspower.driver import (
    build_power_grid,
    run_cosim,
    run_gas_simulation,
)
from gaspower.errors import NoSolutionError
from gaspower.ibox import ibox_step
from gaspower.laxcurves import GasState, Side, WaveType, rho_min
from gaspower.network import (
    BoundaryCondition,
    GasSimulation,
    Junction,
    JunctionPort,
    Pipe,
    PipeGrid,
    constant,
)
from gaspower.powerflow import solve_newton
from gaspower.pressure import (
    GammaLaw,
    GeneralizedGammaLaw,
    IsothermalLaw,
    check_sufficient_conditions,
    parse_law,
)
from gaspower.riemann import (
    sample_solution,
    solve_gas_power_junction,
    solve_interface,
    wave_thresholds,
)
from gaspower.scenario import load_scenario

BUNDLED = files("gaspower") / "scenarios"
BENCH_LAW = GammaLaw(1.0, 1.4)
BENCH_LEFT = GasState(4.0, 1.0)
BENCH_RIGHT = GasState(3.0, -1.0)
HALF_LENGTH = 0.25

_shared: dict = {}  # cross-criterion measurements (mass defects from runs)


def criterion(number: int, title: str):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number:2d} [{title}]: FAIL")
                raise
            print(f"\nACCEPTANCE {number:2d} [{title}]: PASS")
            return out

        return run

    return wrap


def _benchmark_sim(eps, n_per_pipe, staggering):
    left = PipeGrid(Pipe("L", "in", "j", HALF_LENGTH), n_per_pipe, BENCH_LAW,
                    staggering=staggering).fill(4.0, 1.0)
    right = PipeGrid(Pipe("R", "j", "out", HALF_LENGTH), n_per_pipe, BENCH_LAW,
                     staggering=staggering).fill(3.0, -1.0)
    return GasSimulation(
        grids=[left, right],
        junctions=[Junction("j", [JunctionPort(0, "end"), JunctionPort(1, "start")],
                            extraction=eps)],
        boundaries={(0, "start"): BoundaryCondition("state", constant((4.0, 1.0))),
                    (1, "end"): BoundaryCondition("state", constant((3.0, -1.0)))},
    )


def _exact_profile(eps, x_global, t):
    sol = solve_gas_power_junction(BENCH_LEFT, BENCH_RIGHT, eps, BENCH_LAW)
    return np.array([sample_solution(sol, xi).rho for xi in x_global / t])


@criterion(1, "junction thresholds of the two-state benchmark")
def test_criterion_01_thresholds():
    start = time.perf_counter()
    eps_ss, eps_rs, eps_max = wave_thresholds(BENCH_LEFT, BENCH_RIGHT, BENCH_LAW)
    elapsed = time.perf_counter() - start
    assert eps_ss == pytest.approx(0.57877, rel=1e-3)
    assert eps_rs == pytest.approx(3.0594, rel=1e-3)
    assert eps_max == pytest.approx(4.3892, rel=1e-3)
    assert elapsed < 1.0, f"threshold computation took {elapsed:.3f}s"


@criterion(2, "admissibility densities of the benchmark data")
def test_criterion_02_admissibility_densities():
    assert rho_min(BENCH_LEFT, Side.IN, BENCH_LAW) == pytest.approx(1.8819,
                                                                    rel=1e-3)
    assert rho_min(BENCH_RIGHT, Side.OUT, BENCH_LAW) == pytest.approx(1.5041,
                                                                      rel=1e-3)


@criterion(3, "wave structures across the extraction range")
def test_criterion_03_wave_structures():
    expected = {
        0.25: (WaveType.SHOCK, WaveType.SHOCK),
        1.75: (WaveType.RAREFACTION, WaveType.SHOCK),
        3.25: (WaveType.RAREFACTION, WaveType.RAREFACTION),
    }
    for eps, waves in expected.items():
        sol = solve_gas_power_junction(BENCH_LEFT, BENCH_RIGHT, eps, BENCH_LAW)
        assert sol.wave_pair == waves, f"eps={eps}"


@criterion(4, "both schemes reproduce the exact self-similar profiles")
def test_criterion_04_scheme_cross_validation():
    start = time.perf_counter()
    t_end = 0.1
    mass_defects = []
    report = []
    for eps in (0.25, 1.75, 3.25):
        explicit = _benchmark_sim(eps, int(round(HALF_LENGTH / 5e-4)), "cells")
        steps = int(round(t_end / 5e-5))
        for _ in range(steps):
            record = cweno3_step(explicit, 5e-5)
            mass_defects.append(abs(record.mass_defect))

        implicit = _benchmark_sim(eps, int(round(HALF_LENGTH / 5e-5)), "nodes")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for _ in range(int(round(t_end / 5e-4))):
                ibox_step(implicit, 5e-4)

        x_cells = np.concatenate([explicit.grids[0].x - HALF_LENGTH,
                                  explicit.grids[1].x])
        rho_cells = np.concatenate([explicit.grids[0].rho,
                                    explicit.grids[1].rho])
        x_nodes = np.concatenate([implicit.grids[0].x - HALF_LENGTH,
                                  implicit.grids[1].x])
        rho_nodes = np.concatenate([implicit.grids[0].rho,
                                    implicit.grids[1].rho])

        exact_cells = _exact_profile(eps, x_cells, t_end)
        exact_nodes = _exact_profile(eps, x_nodes, t_end)
        dx_c = explicit.grids[0].dx
        dx_n = implicit.grids[0].dx
        l1_explicit = float(np.sum(np.abs(rho_cells - exact_cells)) * dx_c)
        l1_implicit = float(np.sum(np.abs(rho_nodes - exact_nodes)) * dx_n)
        rho_nodes_on_cells = np.interp(x_cells, x_nodes, rho_nodes)
        l1_cross = float(np.sum(np.abs(rho_cells - rho_nodes_on_cells)) * dx_c)
        report.append((eps, l1_explicit, l1_implicit, l1_cross))
        assert l1_explicit <= 2e-2, f"eps={eps}: explicit L1 {l1_explicit:.3e}"
        assert l1_implicit <= 2e-2, f"eps={eps}: implicit L1 {l1_implicit:.3e}"
        assert l1_cross <= 2e-2, f"eps={eps}: cross L1 {l1_cross:.3e}"
    elapsed = time.perf_counter() - start
    _shared["benchmark_mass_defects"] = mass_defects
    for eps, a, b, c in report:
        print(f"\n  eps={eps}: L1(cweno3)={a:.2e} L1(ibox)={b:.2e} "
              f"L1(cross)={c:.2e}")
    print(f"  criterion 4 runtime {elapsed:.1f}s")
    assert elapsed < 120.0, f"cross-validation took {elapsed:.1f}s"


@criterion(5, "empirical convergence orders on a smooth solution")
def test_criterion_05_convergence_orders():
    two_pi = 2.0 * math.pi
    law = IsothermalLaw(1.0)

    def make_fields(speed):
        def exact_rho(x, t):
            return 2.0 + 0.3 * np.sin(two_pi * (x - speed * t))

        def exact_q(x, t):
            return 0.2 + 0.1 * np.cos(two_pi * (x - speed * t))

        def source(x, t, rho, q):
            ph = two_pi * (x - speed * t)
            r, qq = exact_rho(x, t), exact_q(x, t)
            r_t = -two_pi * speed * 0.3 * np.cos(ph)
            r_x = two_pi * 0.3 * np.cos(ph)
            q_t = two_pi * speed * 0.1 * np.sin(ph)
            q_x = -two_pi * 0.1 * np.sin(ph)
            return (r_t + q_x,
                    q_t + r_x + 2.0 * (qq / r) * q_x - (qq / r) ** 2 * r_x)

        return exact_rho, exact_q, source

    # explicit scheme on a periodic pipe, cell-average data
    exact_rho, exact_q, source = make_fields(0.5)
    errors = []
    for n in (50, 100, 200):
        grid = PipeGrid(Pipe("P", "a", "b", 1.0), n, law)
        h = grid.dx / (2.0 * math.sqrt(3.0))
        grid.rho[:] = 0.5 * (exact_rho(grid.x - h, 0.0) + exact_rho(grid.x + h, 0.0))
        grid.q[:] = 0.5 * (exact_q(grid.x - h, 0.0) + exact_q(grid.x + h, 0.0))
        sim = GasSimulation(grids=[grid], periodic=True, extra_source=source)
        steps = int(round(0.5 / (0.3 * grid.dx)))
        dt = 0.5 / steps
        for _ in range(steps):
            cweno3_step(sim, dt)
        avg = 0.5 * (exact_rho(grid.x - h, sim.t) + exact_rho(grid.x + h, sim.t))
        errors.append(float(np.sum(np.abs(grid.rho - avg)) * grid.dx))
    explicit_orders = [math.log2(errors[k] / errors[k + 1]) for k in range(2)]

    # implicit scheme on a bounded pipe with exact boundary data
    exact_rho, exact_q, source = make_fields(0.1)
    errors = []
    for n in (40, 80, 160):
        grid = PipeGrid(Pipe("P", "a", "b", 1.0), n, law, staggering="nodes")
        grid.set_profile(lambda x: exact_rho(x, 0.0), lambda x: exact_q(x, 0.0))
        sim = GasSimulation(
            grids=[grid],
            boundaries={
                (0, "start"): BoundaryCondition(
                    "density", lambda t: float(exact_rho(0.0, t))),
                (0, "end"): BoundaryCondition(
                    "flow", lambda t: float(exact_q(1.0, t))),
            },
            extra_source=source,
        )
        dt = 2.0 * grid.dx
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for _ in range(int(round(0.5 / dt))):
                ibox_step(sim, dt)
        errors.append(float(np.sum(np.abs(grid.rho - exact_rho(grid.x, sim.t)))
                            * grid.dx))
    implicit_orders = [math.log2(errors[k] / errors[k + 1]) for k in range(2)]

    print(f"\n  explicit orders {explicit_orders}, implicit orders "
          f"{implicit_orders}")
    assert min(explicit_orders) >= 2.5
    assert min(implicit_orders) >= 1.0


@criterion(6, "interface solvability across the admissible exponent range")
def test_criterion_06_generalized_exponents():
    rng = np.random.default_rng(2024)
    for delta in (-2.0, -1.0, 0.0, 1.0, 2.0):
        law = GeneralizedGammaLaw(1.0, delta)
        for _ in range(1000):
            rho_l, rho_r = rng.uniform(0.2, 5.0, 2)
            f_l, f_r = rng.uniform(-0.95, 0.95, 2)
            left = GasState(rho_l, f_l * float(law.c(rho_l)) * rho_l)
            right = GasState(rho_r, f_r * float(law.c(rho_r)) * rho_r)
            sol = solve_interface(left, right, law)
            scale = max(1.0, abs(sol.left_trace.q))
            assert abs(sol.flux_residual()) < 1e-9 * scale

    for delta in (2.2, -2.2):
        law = GeneralizedGammaLaw(1.0, delta)
        c1 = float(law.c(1.0))
        if delta > 2.0:
            u = -0.5 * (1.0 + 2.0 / delta) * c1
        else:
            u = 0.5 * (math.sqrt(-1.0 / (delta + 1.0)) + 1.0) * c1
        left = GasState(1.0, u)
        right = GasState(1.0, -u)
        assert left.is_subsonic(law)
        with pytest.raises(NoSolutionError):
            solve_interface(left, right, law)


@criterion(7, "pressure-law checker and the four-law pipe comparison")
def test_criterion_07_pressure_law_quartet():
    quartet = {
        "gamma(0.7142857142857143,1.4)": parse_law("gamma(0.7142857142857143,1.4)"),
        "inverse": parse_law("inverse"),
        "log": parse_law("log"),
        "sum_gamma": parse_law("sum_gamma"),
    }
    for name, law in quartet.items():
        assert check_sufficient_conditions(law).valid, name
    assert not check_sufficient_conditions(GammaLaw(1.0, 3.5)).valid

    base = load_scenario(BUNDLED / "pressure_laws.scn")
    profiles = {}
    mass_defects = []
    for name, law in quartet.items():
        scenario = dataclasses.replace(base, law=law)
        result = run_gas_simulation(scenario)  # raises if any step leaves
        by_name = {p.quantity: p for p in result.profiles}  # the sub-sonic set
        profiles[name] = by_name["rho@PIPE:t=0.25"].rho
        assert result.sim.t == pytest.approx(0.5, abs=1e-12)
        mass_defects.append(result.max_mass_defect)
    _shared["quartet_mass_defects"] = mass_defects

    names = list(profiles)
    dx = 1e-3
    worst = math.inf
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            distance = float(np.sum(np.abs(profiles[names[i]]
                                           - profiles[names[j]])) * dx)
            worst = min(worst, distance)
            assert distance > 1e-3, (names[i], names[j], distance)
    print(f"\n  smallest pairwise profile distance: {worst:.2e}")


@criterion(8, "nine-bus power flow from a flat start")
def test_criterion_08_power_flow():
    grid = build_power_grid(load_scenario(BUNDLED / "gaslib9.scn"))
    solution = solve_newton(grid)
    print(f"\n  converged in {solution.iterations} iterations, "
          f"|mismatch| = {solution.mismatch_norm:.2e}")
    assert solution.iterations <= 10
    assert solution.mismatch_norm <= 1e-8
    assert solution.V[0] == 1.0 and solution.phi[0] == 0.0
    assert solution.V[1] == 1.0 and solution.V[2] == 1.0


@criterion(9, "coupled network scenario: stationarity and monotone response")
def test_criterion_09_coupled_scenario():
    start = time.perf_counter()
    scenario = load_scenario(BUNDLED / "gaslib9.scn")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = run_cosim(scenario)
    elapsed = time.perf_counter() - start
    series = {s.quantity: (np.array(s.times), np.array(s.values))
              for s in result.series}
    ramp_start, ramp_end = 3600.0, 5400.0
    t_end = scenario.numerics.t_end

    # before the ramp every monitored quantity sits on the stationary state
    for name, (ts, vs) in series.items():
        mask = ts <= ramp_start
        reference = vs[0]
        drift = np.max(np.abs(vs[mask] - reference)) / max(abs(reference), 1e-30)
        assert drift <= 1e-6, f"{name} drifted {drift:.2e} before the ramp"

    # monotone response from the ramp onset to the new plateau
    slack = 1e-9
    for name, sign in (("P@slack", +1), ("epsilon@S4", +1), ("q@S5", +1),
                       ("pressure@S20", -1), ("pressure@S25", -1)):
        ts, vs = series[name]
        window = ts >= ramp_start
        deltas = np.diff(vs[window]) * sign
        scale = max(np.max(vs[window]) - np.min(vs[window]), 1e-30)
        assert np.min(deltas) >= -slack * scale, (
            f"{name}: non-monotone step {np.min(deltas):.3e}"
        )

    # the final state is stationary again
    for name, (ts, vs) in series.items():
        mask = ts >= t_end - 3600.0
        drift = (np.max(vs[mask]) - np.min(vs[mask])) / max(abs(vs[-1]), 1e-30)
        assert drift <= 1e-6, f"{name}: final-hour drift {drift:.2e}"

    # coupling consistency: the flux jump at the linked junction equals the
    # converted heat-rate draw
    sim = result.sim
    link_junction = next(j for j in sim.junctions if j.node == "S4")
    jump = 0.0
    for port in link_junction.ports:
        end_state = sim.grids[port.pipe_index].end_state(port.end)
        jump += end_state.q if port.end == "end" else -end_state.q
    eps_final = series["epsilon@S4"][1][-1]
    assert jump == pytest.approx(eps_final, abs=1e-10 * max(1.0, eps_final))

    print(f"\n  coupled run {elapsed:.1f}s, slack P "
          f"{series['P@slack'][1][0]:.4f} -> {series['P@slack'][1][-1]:.4f}")
    assert elapsed < 300.0, f"coupled scenario took {elapsed:.1f}s"


@criterion(10, "discrete conservation: mass per step and junction solves")
def test_criterion_10_conservation():
    defects = list(_shared.get("benchmark_mass_defects", []))
    defects += list(_shared.get("quartet_mass_defects", []))
    if not defects:
        sim = _benchmark_sim(1.75, 200, "cells")
        for _ in range(200):
            record = cweno3_step(sim, 5e-5)
            defects.append(abs(record.mass_defect))
    worst = max(defects)
    print(f"\n  worst per-step mass defect over {len(defects)} steps and runs: "
          f"{worst:.2e}")
    assert worst <= 1e-10

    rng = np.random.default_rng(99)
    worst_flux = 0.0
    for _ in range(200):
        rho_l, rho_r = rng.uniform(0.5, 6.0, 2)
        left = GasState(rho_l, rng.uniform(-0.9, 0.9) * rho_l
                        * float(BENCH_LAW.c(rho_l)))
        right = GasState(rho_r, rng.uniform(-0.9, 0.9) * rho_r
                         * float(BENCH_LAW.c(rho_r)))
        cap = wave_thresholds(left, right, BENCH_LAW)[2]
        eps = rng.uniform(0.0, max(0.0, 0.9 * cap))
        sol = solve_gas_power_junction(left, right, eps, BENCH_LAW)
        assert sol.left_trace.rho == sol.right_trace.rho  # pressure equality
        scale = max(1.0, abs(sol.left_trace.q) + abs(sol.right_trace.q))
        worst_flux = max(worst_flux, abs(sol.flux_residual()) / scale)
    print(f"  worst junction flux residual (flux-scaled): {worst_flux:.2e}")
    assert worst_flux <= 1e-10
