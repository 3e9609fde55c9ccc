"""Explicit scheme: exactness, stability guard, conservation, accuracy."""

import math

import numpy as np
import pytest

import gaspower.cweno
from gaspower.cweno import cweno3_step
from gaspower.errors import CflViolationError, DomainError
from gaspower.friction import FrictionModel
from gaspower.network import (
    BoundaryCondition,
    GasSimulation,
    Junction,
    JunctionPort,
    Pipe,
    PipeGrid,
    constant,
)
from gaspower.pressure import IsothermalLaw, parse_law
from gaspower.riemann import junction_traces, sample_solution, solve_gas_power_junction


def _junction_sim(law, eps, n=60, length=0.25, left=(4.0, 1.0), right=(3.0, -1.0)):
    a = PipeGrid(Pipe("L", "in", "j", length), n, law).fill(*left)
    b = PipeGrid(Pipe("R", "j", "out", length), n, law).fill(*right)
    return GasSimulation(
        grids=[a, b],
        junctions=[Junction("j", [JunctionPort(0, "end"), JunctionPort(1, "start")],
                            extraction=eps)],
        boundaries={(0, "start"): BoundaryCondition("state", constant(left)),
                    (1, "end"): BoundaryCondition("state", constant(right))},
    )


@pytest.mark.parametrize("extraction", [constant(0.5), "0.5", None, [0.5]],
                         ids=["callable", "string", "none", "list"])
def test_junction_extraction_must_be_a_real_number(benchmark_law, extraction):
    """A junction's extraction is checked at build, where the error names the
    junction, and not at the first stage."""
    with pytest.raises(DomainError, match=r"^junction j: extraction must be a real number, "):
        _junction_sim(benchmark_law, extraction)


def test_junction_extraction_is_stored_as_a_float(benchmark_law):
    for given in (1, np.float64(0.5), np.int64(2), math.inf):
        extraction = _junction_sim(benchmark_law, given).junctions[0].extraction
        assert type(extraction) is float and extraction == given


def test_nan_extraction_fails_at_the_first_stage_naming_the_junction(benchmark_law):
    sim = _junction_sim(benchmark_law, math.nan)
    with pytest.raises(DomainError, match=r"^t=0, junction j: extraction must be a number "
                                          r"above -inf, got nan$"):
        cweno3_step(sim, 1e-4)


def test_constant_state_is_preserved(unit_isothermal):
    sim = _junction_sim(unit_isothermal, 0.0, left=(2.0, 0.2), right=(2.0, 0.2))
    for _ in range(20):
        cweno3_step(sim, 1e-3)
    for grid, (rho0, q0) in zip(sim.grids, ((2.0, 0.2), (2.0, 0.2))):
        assert np.max(np.abs(grid.rho - rho0)) < 1e-14
        assert np.max(np.abs(grid.q - q0)) < 1e-14


def test_cfl_violation_raises(unit_isothermal):
    sim = _junction_sim(unit_isothermal, 0.0, left=(2.0, 0.2), right=(2.0, 0.2))
    dx = sim.grids[0].dx
    with pytest.raises(CflViolationError):
        cweno3_step(sim, dx)  # wave speed ~1.1, CFL limit is 0.45 dx


@pytest.mark.parametrize("pipe_index", [0, 1])
def test_cfl_check_rejects_nan_state(unit_isothermal, pipe_index):
    sim = _junction_sim(unit_isothermal, 0.0, left=(2.0, 0.2), right=(2.0, 0.2))
    sim.grids[pipe_index].q[5] = math.nan
    with pytest.raises(CflViolationError, match="max wavespeed nan"):
        cweno3_step(sim, 1e-4)


def test_mass_balance_closes_every_step(benchmark_law):
    """Interior mass change equals the weighted boundary fluxes minus the
    junction draw, step by step."""
    sim = _junction_sim(benchmark_law, 1.75, n=80)
    dt = 0.45 * sim.grids[0].dx / sim.max_wavespeed() * 0.8
    for _ in range(25):
        record = cweno3_step(sim, dt)
        assert record.mass_change == pytest.approx(record.expected_mass_change,
                                                   abs=1e-10)


def test_junction_draw_reduces_total_mass(benchmark_law):
    sim = _junction_sim(benchmark_law, 1.75, n=80)
    area = sim.grids[0].pipe.area
    m0 = sim.total_mass()
    dt = 5e-4
    steps = 40
    for _ in range(steps):
        cweno3_step(sim, dt)
    # far-field boundary fluxes: F_rho = q at the held states
    boundary_net = (1.0 - (-1.0)) * area * dt * steps
    drawn = 1.75 * area * dt * steps
    assert sim.total_mass() - m0 == pytest.approx(boundary_net - drawn, abs=1e-9)


def test_smooth_convergence_is_third_order():
    """Manufactured travelling wave on a periodic pipe: order close to 3."""
    law = IsothermalLaw(1.0)
    two_pi = 2.0 * math.pi

    def exact_rho(x, t):
        return 2.0 + 0.3 * np.sin(two_pi * (x - 0.5 * t))

    def exact_q(x, t):
        return 0.2 + 0.1 * np.cos(two_pi * (x - 0.5 * t))

    def source(x, t, rho, q):
        ph = two_pi * (x - 0.5 * t)
        r, qq = exact_rho(x, t), exact_q(x, t)
        r_t = -two_pi * 0.5 * 0.3 * np.cos(ph)
        r_x = two_pi * 0.3 * np.cos(ph)
        q_t = two_pi * 0.5 * 0.1 * np.sin(ph)
        q_x = -two_pi * 0.1 * np.sin(ph)
        return r_t + q_x, q_t + r_x + 2.0 * (qq / r) * q_x - (qq / r) ** 2 * r_x

    def cell_average(f, x, dx, t):
        h = dx / (2.0 * math.sqrt(3.0))
        return 0.5 * (f(x - h, t) + f(x + h, t))

    errors = []
    for n in (40, 80, 160):
        grid = PipeGrid(Pipe("P", "a", "b", 1.0), n, law)
        grid.rho[:] = cell_average(exact_rho, grid.x, grid.dx, 0.0)
        grid.q[:] = cell_average(exact_q, grid.x, grid.dx, 0.0)
        sim = GasSimulation(grids=[grid], periodic=True, extra_source=source)
        steps = int(round(0.4 / (0.3 * grid.dx)))
        dt = 0.4 / steps
        for _ in range(steps):
            cweno3_step(sim, dt)
        err = np.sum(np.abs(grid.rho
                            - cell_average(exact_rho, grid.x, grid.dx, sim.t)))
        errors.append(err * grid.dx)
    orders = [math.log2(errors[k] / errors[k + 1]) for k in range(2)]
    print(f"\n  cweno3 L1 errors {errors} orders {orders}")
    assert min(orders) >= 2.5


def test_step_aborts_on_supersonic_result(unit_isothermal):
    # An enormous extraction drives the junction close to the admissibility
    # limit; here we force it directly by corrupting a cell.
    sim = _junction_sim(unit_isothermal, 0.0, left=(2.0, 0.2), right=(2.0, 0.2))
    sim.grids[0].q[10] = 5.0
    with pytest.raises(Exception):
        cweno3_step(sim, 1e-4)


def test_node_grids_are_a_domain_error(benchmark_law):
    a = PipeGrid(Pipe("L", "in", "j", 0.25), 20, benchmark_law).fill(4.0, 1.0)
    b = PipeGrid(Pipe("R", "j", "out", 0.25), 20, benchmark_law,
                 staggering="nodes").fill(3.0, -1.0)
    sim = GasSimulation(
        grids=[a, b],
        junctions=[Junction("j", [JunctionPort(0, "end"), JunctionPort(1, "start")])],
        boundaries={(0, "start"): BoundaryCondition("state", constant((4.0, 1.0))),
                    (1, "end"): BoundaryCondition("state", constant((3.0, -1.0)))},
        t=0.5,
    )
    with pytest.raises(DomainError, match=r"pipe R: .*'nodes'.* at t=0\.5"):
        cweno3_step(sim, 1e-4)


# Pipes of the unequal network: id, length, diameter, roughness, cells.
# T1 and T2 meet at a junction and so share a cross-section; S stands alone.
_UNEQUAL = (("T1", 0.3, 0.5, 1e-3, 17), ("T2", 0.55, 0.5, 4e-4, 23),
            ("S", 0.2, 0.8, 0.0, 11))


def _unequal_network(law, order=(0, 1, 2), constant_state=None, friction=True):
    """Two pipes joined at a junction with a 1.05 compressor and an
    extraction, and one stand-alone pipe, listed in ``order``.

    With ``constant_state`` every cell and boundary holds that state and the
    junction has unit ratios and no extraction."""
    grids = []
    for k in order:
        pid, length, diameter, roughness, n = _UNEQUAL[k]
        grid = PipeGrid(Pipe(pid, "a", "b", length, diameter, roughness), n, law)
        if constant_state is None:
            grid.set_profile(lambda x, k=k: 2.5 + 0.3 * np.sin(7.0 * x + k),
                             lambda x, k=k: 0.3 + 0.1 * np.cos(5.0 * x - k))
        else:
            grid.fill(*constant_state)
        grids.append(grid)
    at = {k: i for i, k in enumerate(order)}
    if constant_state is None:
        ratio, draw = 1.05, 0.2
        ends = {(0, "start"): BoundaryCondition("pressure", constant(float(law.p(2.6)))),
                (1, "end"): BoundaryCondition("flow", constant(0.25)),
                (2, "start"): BoundaryCondition("state", constant((2.4, 0.35))),
                (2, "end"): BoundaryCondition("density", constant(2.5))}
    else:
        ratio, draw = 1.0, 0.0
        ends = {key: BoundaryCondition("state", constant(constant_state))
                for key in ((0, "start"), (1, "end"), (2, "start"), (2, "end"))}
    return GasSimulation(
        grids=grids,
        junctions=[Junction("j", [JunctionPort(at[0], "end", ratio),
                                  JunctionPort(at[1], "start")], extraction=draw)],
        boundaries={(at[k], end): bc for (k, end), bc in ends.items()},
        friction=FrictionModel(eta=1e-4, enabled=friction),
    )


@pytest.mark.parametrize("order", [(2, 0, 1), (1, 2, 0), (0, 2, 1)])
def test_pipe_order_does_not_change_the_result(benchmark_law, order):
    """The stacked network array holds the pipes in list order; permuting the
    list must not let a stencil or a flux reach across a seam between pipes."""
    reference = _unequal_network(benchmark_law)
    permuted = _unequal_network(benchmark_law, order)
    for _ in range(20):
        cweno3_step(reference, 2e-3)
        cweno3_step(permuted, 2e-3)
    for i, k in enumerate(order):
        assert permuted.grids[i].pipe.id == reference.grids[k].pipe.id
        assert permuted.grids[i].rho.tobytes() == reference.grids[k].rho.tobytes()
        assert permuted.grids[i].q.tobytes() == reference.grids[k].q.tobytes()


def test_mass_balance_closes_on_unequal_pipes(benchmark_law):
    sim = _unequal_network(benchmark_law)
    for _ in range(25):
        record = cweno3_step(sim, 2e-3)
        assert record.mass_change == pytest.approx(record.expected_mass_change,
                                                   abs=1e-10)


def test_constant_state_is_preserved_on_unequal_pipes(benchmark_law):
    sim = _unequal_network(benchmark_law, constant_state=(2.0, 0.2), friction=False)
    for _ in range(20):
        cweno3_step(sim, 2e-3)
    for grid in sim.grids:
        assert np.max(np.abs(grid.rho - 2.0)) < 1e-14
        assert np.max(np.abs(grid.q - 0.2)) < 1e-14


def test_junction_injection_matches_the_exact_solution(benchmark_law,
                                                       benchmark_states, monkeypatch):
    """A negative extraction injects gas at the junction: the run stays within
    criterion 04's L1 bound of the exact solution, and every stage's traces,
    from the float junction entry as ``cweno`` sees it, balance the injected
    flux."""
    eps, t_end, dt = -1.0, 0.1, 2e-4
    solves = []

    def recording(rho, q, n_in, epsilon, law):
        found = junction_traces(rho, q, n_in, epsilon, law)
        solves.append((n_in, epsilon, found))
        return found

    monkeypatch.setattr(gaspower.cweno, "junction_traces", recording)
    sim = _junction_sim(benchmark_law, eps, n=125)
    steps = int(round(t_end / dt))
    for _ in range(steps):
        cweno3_step(sim, dt)
    assert len(solves) == 3 * steps
    for n_in, epsilon, found in solves:
        assert found is not None
        momenta = found[1]
        scale = max(1.0, sum(abs(q) for q in momenta))
        assert abs(sum(momenta[:n_in]) - sum(momenta[n_in:]) - epsilon) <= 1e-14 * scale

    exact = solve_gas_power_junction(*benchmark_states, eps, benchmark_law)
    x = np.concatenate([sim.grids[0].x - sim.grids[0].pipe.length, sim.grids[1].x])
    rho = np.concatenate([sim.grids[0].rho, sim.grids[1].rho])
    rho_exact = np.array([sample_solution(exact, xi).rho for xi in x / t_end])
    assert exact.rho_star > max(state.rho for state in benchmark_states)
    assert float(np.sum(np.abs(rho - rho_exact)) * sim.grids[0].dx) <= 2e-2


def test_cell_layout_is_built_once_per_network_layout(benchmark_law):
    gaspower.cweno._layout.cache_clear()
    for _ in range(2):
        sim = _unequal_network(benchmark_law)
        for _ in range(3):
            cweno3_step(sim, 2e-3)
    info = gaspower.cweno._layout.cache_info()
    assert (info.misses, info.hits) == (1, 5)


def test_junction_wiring_gets_its_own_cell_layout(benchmark_law):
    """Networks with the same cell counts but other junction wiring take
    their own layout: each solves its own junction. The wired network is
    the reference one with its pipes listed in another order."""
    def network(order):
        # Pipe 0 feeds pipe 1 at a junction with a draw; pipe 2 stands alone.
        at = {k: i for i, k in enumerate(order)}
        grids = [PipeGrid(Pipe(f"P{k}", "a", "b", 0.3), 20, benchmark_law).set_profile(
            lambda x, k=k: 2.5 + 0.3 * np.sin(7.0 * x + k),
            lambda x, k=k: 0.3 + 0.1 * np.cos(5.0 * x - k)) for k in order]
        ends = ((0, "start"), (1, "end"), (2, "start"), (2, "end"))
        return GasSimulation(
            grids=grids,
            junctions=[Junction("j", [JunctionPort(at[0], "end"),
                                      JunctionPort(at[1], "start")],
                                extraction=0.2)],
            boundaries={(at[k], end): BoundaryCondition("state", constant((2.5, 0.3)))
                        for k, end in ends})

    gaspower.cweno._layout.cache_clear()
    reference, rewired = network((0, 1, 2)), network((2, 0, 1))
    for _ in range(10):
        cweno3_step(reference, 2e-3)
        cweno3_step(rewired, 2e-3)
    assert gaspower.cweno._layout.cache_info().misses == 2
    for i, k in enumerate((2, 0, 1)):
        assert rewired.grids[i].rho.tobytes() == reference.grids[k].rho.tobytes()
        assert rewired.grids[i].q.tobytes() == reference.grids[k].q.tobytes()


def _reconstruct_oracle(v, eps, layout):
    """The CWENO3 edges as weighted sums of the three candidates' edges."""
    vm = np.take(v, layout.left, axis=1)
    vp = np.take(v, layout.right, axis=1)
    slope_l = v - vm
    slope_r = vp - v
    p1 = 0.5 * (vp - vm)
    p2 = 0.5 * (vp - 2.0 * v + vm)

    is_l = slope_l**2
    is_r = slope_r**2
    is_c = p1 * p1 + (13.0 / 3.0) * p2 * p2
    a_l = 0.25 / (eps + is_l) ** 2
    a_r = 0.25 / (eps + is_r) ** 2
    a_c = 0.50 / (eps + is_c) ** 2
    total = a_l + a_c + a_r
    w_l, w_c, w_r = a_l / total, a_c / total, a_r / total

    h_l, h_r, h_c, p3 = 0.5 * slope_l, 0.5 * slope_r, 0.5 * p1, p2 / 3.0
    right = w_l * (v + h_l) + w_r * (v + h_r) + w_c * (v + h_c + p3)
    left = w_l * (v - h_l) + w_r * (v - h_r) + w_c * (v - h_c + p3)
    left[:, layout.ends] = right[:, layout.ends] = v[:, layout.ends]
    return left, right


def _llf_flux_oracle(u_m, u_p, law):
    """(f_m + f_p) / 2 - alpha (u_p - u_m) / 2 with f = (q, p + q^2 / rho)."""
    lam_m = np.abs(u_m[1] / u_m[0]) + law.c(u_m[0])
    lam_p = np.abs(u_p[1] / u_p[0]) + law.c(u_p[0])
    alpha = np.maximum(lam_m, lam_p)
    f_m = np.array([u_m[1], law.p(u_m[0]) + u_m[1] ** 2 / u_m[0]])
    f_p = np.array([u_p[1], law.p(u_p[0]) + u_p[1] ** 2 / u_p[0]])
    return 0.5 * (f_m + f_p) - 0.5 * alpha * (u_p - u_m)


def _jumpy_rows(rng, n):
    """Stacked rows, piecewise smooth with jumps of up to 1e3 between cells."""
    jumps = np.where(rng.random((2, n)) < 0.15,
                     rng.uniform(-1e3, 1e3, (2, n)), 0.0).cumsum(axis=1)
    return jumps + rng.uniform(0.5, 5.0, (2, n)) + np.sin(np.arange(n) / 3.0)


@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("seed", range(5))
def test_reconstruction_matches_the_weighted_candidate_sums(seed, periodic):
    """v + e +- s is the weighted sum of the candidates' edges up to
    rounding: within 1e-14 of max|v| on random jumpy data."""
    rng = np.random.default_rng(seed)
    counts = (53,) if periodic else (17, 23, 1, 11)
    layout = gaspower.cweno._layout(counts, periodic)
    v = _jumpy_rows(rng, sum(counts))
    eps = np.repeat(rng.uniform(1e-3, 1e-1, len(counts)) ** 2, counts)
    scale = np.max(np.abs(v))
    assert scale > 100.0
    for got, expected in zip(gaspower.cweno._reconstruct(v, eps, layout),
                             _reconstruct_oracle(v, eps, layout)):
        assert np.max(np.abs(got - expected)) <= 1e-14 * scale


def test_reconstruction_of_constant_rows_is_exact():
    layout = gaspower.cweno._layout((17, 23, 11), False)
    v = np.empty((2, 51))
    v[0], v[1] = 2.0 / 3.0, -0.1
    eps = np.full(51, 1e-4)
    for edge in gaspower.cweno._reconstruct(v, eps, layout):
        assert edge.tobytes() == v.tobytes()


def test_llf_flux_is_the_two_call_form_bit_for_bit():
    """One ``p_and_c`` call on both sides gives the per-side calls' flux."""
    law = parse_law("sum_gamma")
    rng = np.random.default_rng(8)
    rho = rng.uniform(0.5, 5.0, (2, 200))
    u_m = np.array([rho[0], rng.uniform(-0.5, 0.5, 200) * rho[0]])
    u_p = np.array([rho[1], rng.uniform(-0.5, 0.5, 200) * rho[1]])
    p_m, c_m = law.p_and_c(u_m[0])
    p_p, c_p = law.p_and_c(u_p[0])
    v_m, v_p = u_m[1] / u_m[0], u_p[1] / u_p[0]
    expected = u_m - u_p
    expected *= np.maximum(np.abs(v_m) + c_m, np.abs(v_p) + c_p)
    expected[0] += u_m[1] + u_p[1]
    expected[1] += p_m + u_m[1] * v_m + p_p + u_p[1] * v_p
    expected *= 0.5
    assert gaspower.cweno._llf_flux(u_m, u_p, law).tobytes() == expected.tobytes()


@pytest.mark.parametrize("spec", ["gamma(1.0,1.4)", "sum_gamma", "isothermal(1.0)"])
def test_llf_flux_matches_the_flux_average_form(spec):
    law = parse_law(spec)
    rng = np.random.default_rng(7)
    rho = rng.uniform(0.5, 5.0, (2, 200))
    u_m = np.array([rho[0], rng.uniform(-0.5, 0.5, 200) * rho[0]])
    u_p = np.array([rho[1], rng.uniform(-0.5, 0.5, 200) * rho[1]])
    got = gaspower.cweno._llf_flux(u_m, u_p, law)
    expected = _llf_flux_oracle(u_m, u_p, law)
    np.testing.assert_allclose(got, expected, rtol=1e-14, atol=1e-14)
