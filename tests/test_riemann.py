"""Junction solvers: interface problems, extractions, thresholds, sampling."""

import math

import numpy as np
import pytest

import gaspower.riemann
from gaspower.errors import DomainError, InvalidDemandError, NoSolutionError
from gaspower.laxcurves import GasState, WaveType, lambda1, lambda2
from gaspower.pressure import GeneralizedGammaLaw, IsothermalLaw
from gaspower.riemann import (
    junction_max_extraction,
    junction_traces,
    max_extraction,
    sample_solution,
    solve_gas_power_junction,
    solve_interface,
    solve_multi_junction,
    wave_thresholds,
)


def isothermal_curves(c):
    """Closed-form curve pair for p = c^2 rho, independent of the solver.

    Used as a brute-force oracle: the rarefaction integral of a constant
    sound speed is c*ln(rho_ref/rho) and the shock auxiliary is
    c^2 * rho (rho - rho_ref)^2 / rho_ref.
    """

    def left(rho, s):
        u = s.q / s.rho
        if rho <= s.rho:
            return rho * (u + c * np.log(s.rho / rho))
        return rho * u - np.sqrt(c * c * rho / s.rho) * (rho - s.rho)

    def right(rho, s):
        u = s.q / s.rho
        if rho <= s.rho:
            return rho * (u - c * np.log(s.rho / rho))
        return rho * u + np.sqrt(c * c * rho / s.rho) * (rho - s.rho)

    return left, right


# -- interface problems ---------------------------------------------------------


def test_symmetric_data_is_a_fixed_point(benchmark_law):
    state = GasState(2.5, 0.0)
    sol = solve_interface(state, state, benchmark_law)
    assert sol.rho_star == pytest.approx(2.5, rel=1e-12)
    assert sol.left_trace.q == pytest.approx(0.0, abs=1e-12)
    assert sol.admissible


def test_benchmark_interface_is_double_shock(benchmark_law, benchmark_states):
    left, right = benchmark_states
    sol = solve_interface(left, right, benchmark_law)
    assert sol.rho_star > max(left.rho, right.rho)
    assert sol.wave_pair == (WaveType.SHOCK, WaveType.SHOCK)


def test_interface_matches_dense_scan_oracle():
    """The positive-to-negative crossing of L_l - L_r on a 10^6-point grid
    brackets the solver's root (the curve gap also vanishes towards vacuum,
    so the crossing - not the global |gap| minimum - is the solution)."""
    law = IsothermalLaw(1.0)
    lax_l, lax_r = isothermal_curves(1.0)
    rng = np.random.default_rng(23)
    for _ in range(5):
        rho_l, rho_r = rng.uniform(0.5, 3.0, 2)
        u_l = rng.uniform(-0.9, 0.9)
        u_r = rng.uniform(-0.9, 0.9)
        left = GasState(rho_l, u_l * rho_l)
        right = GasState(rho_r, u_r * rho_r)
        grid = np.geomspace(1e-3, 1e3, 1_000_001)
        gap = np.array([lax_l(r, left) - lax_r(r, right) for r in grid[::1000]])
        coarse = grid[::1000]
        downs = np.nonzero((gap[:-1] > 0.0) & (gap[1:] <= 0.0))[0]
        assert downs.size == 1
        lo, hi = coarse[downs[0]], coarse[downs[0] + 1]
        fine = np.linspace(lo, hi, 1001)
        gap_fine = np.array([lax_l(r, left) - lax_r(r, right) for r in fine])
        k = int(np.nonzero(np.diff(np.sign(gap_fine)))[0][0])
        sol = solve_interface(left, right, law)
        assert fine[k] <= sol.rho_star <= fine[k + 1]


def test_interface_conservation_invariants(benchmark_law):
    rng = np.random.default_rng(31)
    for _ in range(200):
        rho_l, rho_r = rng.uniform(0.3, 6.0, 2)
        left = GasState(rho_l, rng.uniform(-0.9, 0.9) * rho_l
                        * float(benchmark_law.c(rho_l)))
        right = GasState(rho_r, rng.uniform(-0.9, 0.9) * rho_r
                         * float(benchmark_law.c(rho_r)))
        sol = solve_interface(left, right, benchmark_law)
        assert sol.left_trace.rho == sol.right_trace.rho == sol.rho_star
        assert abs(sol.flux_residual()) <= 1e-10 * max(1.0, abs(sol.left_trace.q))


# -- prescribed extraction -------------------------------------------------------


def test_zero_extraction_reduces_to_interface(benchmark_law, benchmark_states):
    left, right = benchmark_states
    a = solve_interface(left, right, benchmark_law)
    b = solve_gas_power_junction(left, right, 0.0, benchmark_law)
    assert a.rho_star == b.rho_star
    assert a.wave_pair == b.wave_pair


@pytest.mark.parametrize("eps, waves", [
    (0.25, (WaveType.SHOCK, WaveType.SHOCK)),
    (1.75, (WaveType.RAREFACTION, WaveType.SHOCK)),
    (3.25, (WaveType.RAREFACTION, WaveType.RAREFACTION)),
])
def test_benchmark_wave_structures(benchmark_law, benchmark_states, eps, waves):
    left, right = benchmark_states
    sol = solve_gas_power_junction(left, right, eps, benchmark_law)
    assert sol.wave_pair == waves
    assert sol.admissible
    assert abs(sol.flux_residual()) < 1e-10


def test_nan_extraction_is_a_domain_error(benchmark_law, benchmark_states):
    left, right = benchmark_states
    with pytest.raises(DomainError, match="extraction must be a number above -inf"):
        solve_multi_junction([left], [right], math.nan, benchmark_law)
    with pytest.raises(InvalidDemandError):
        solve_multi_junction([left], [right], math.inf, benchmark_law)


def test_excessive_demand_carries_the_supremum(benchmark_law, benchmark_states):
    left, right = benchmark_states
    with pytest.raises(InvalidDemandError) as info:
        solve_gas_power_junction(left, right, 4.5, benchmark_law)
    assert info.value.epsilon_max == pytest.approx(4.3892, rel=1e-3)


def test_extraction_monotonicity(benchmark_law, benchmark_states):
    """Larger draws shift the junction density downwards."""
    left, right = benchmark_states
    eps_values = np.linspace(0.0, 4.3, 20)
    stars = [solve_gas_power_junction(left, right, e, benchmark_law).rho_star
             for e in eps_values]
    assert np.all(np.diff(stars) < 0.0)


def test_eigenvalue_sign_chain(benchmark_law, benchmark_states):
    left, right = benchmark_states
    law = benchmark_law
    for eps in (0.0, 0.6, 1.75, 3.25, 4.2):
        sol = solve_gas_power_junction(left, right, eps, law)
        v_l, v_r = sol.left_trace, sol.right_trace
        assert lambda1(v_r, law) <= lambda1(v_l, law) <= 0.0
        assert 0.0 <= lambda2(v_r, law) <= lambda2(v_l, law)


def test_traces_satisfy_coupling_conditions(benchmark_law, benchmark_states):
    left, right = benchmark_states
    sol = solve_gas_power_junction(left, right, 1.75, benchmark_law)
    p_in = float(benchmark_law.p(sol.left_trace.rho))
    p_out = float(benchmark_law.p(sol.right_trace.rho))
    assert p_in == pytest.approx(p_out, rel=1e-14)
    assert sol.left_trace.q - sol.right_trace.q == pytest.approx(1.75, abs=1e-12)


# -- thresholds -----------------------------------------------------------------


def test_benchmark_thresholds(benchmark_law, benchmark_states):
    left, right = benchmark_states
    eps_ss, eps_rs, eps_max = wave_thresholds(left, right, benchmark_law)
    assert eps_ss == pytest.approx(0.57877, rel=1e-3)
    assert eps_rs == pytest.approx(3.0594, rel=1e-3)
    assert eps_max == pytest.approx(4.3892, rel=1e-3)


def test_thresholds_collapse_for_equal_data(benchmark_law):
    state = GasState(2.0, 0.5)
    eps_ss, eps_rs, eps_max = wave_thresholds(state, state, benchmark_law)
    assert eps_ss == pytest.approx(0.0, abs=1e-12)
    assert eps_rs == pytest.approx(0.0, abs=1e-12)
    assert eps_max > 0.0


def test_thresholds_decrease_in_their_density_arguments(benchmark_law):
    # The curve gap decreases beyond the junction floor, so thresholds
    # evaluated at larger densities are smaller. Below the floor the table
    # rows degenerate and no ordering is claimed.
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(80):
        rho_l, rho_r = rng.uniform(0.5, 5.0, 2)
        left = GasState(rho_l, rng.uniform(-0.8, 0.8) * rho_l
                        * float(benchmark_law.c(rho_l)))
        right = GasState(rho_r, rng.uniform(-0.8, 0.8) * rho_r
                         * float(benchmark_law.c(rho_r)))
        eps_ss, eps_rs, eps_max = wave_thresholds(left, right, benchmark_law)
        floor = solve_interface(left, right, benchmark_law).rho_min_junction
        if floor < min(rho_l, rho_r):
            checked += 1
            assert eps_ss <= eps_rs + 1e-12
            assert eps_rs <= eps_max + 1e-12
    assert checked > 20  # the generic case must actually be exercised


def test_max_extraction_benchmark(benchmark_law, benchmark_states):
    left, right = benchmark_states
    assert max_extraction(left, right, benchmark_law) == pytest.approx(4.3892,
                                                                       rel=1e-3)


def test_max_extraction_isothermal_scan(unit_isothermal):
    """Supremum of the curve gap over admissible densities, by brute force."""
    state = GasState(1.0, 0.0)
    lax_l, lax_r = isothermal_curves(1.0)
    floor = math.exp(-1.0)  # curve-slope root for this datum
    grid = np.linspace(floor, 10.0, 400_001)
    gap = np.array([lax_l(r, state) - lax_r(r, state) for r in grid])
    assert gap[0] == pytest.approx(2.0 / math.e, rel=1e-9)  # decreasing branch top
    found = max_extraction(state, state, unit_isothermal)
    assert found == pytest.approx(2.0 / math.e, rel=1e-10)
    assert found == pytest.approx(float(np.max(gap)), rel=1e-4)


def test_demands_below_supremum_are_solvable(unit_isothermal):
    state = GasState(1.0, 0.0)
    cap = max_extraction(state, state, unit_isothermal)
    for eps in np.linspace(0.0, 0.999, 12) * cap:
        sol = solve_gas_power_junction(state, state, float(eps), unit_isothermal)
        assert sol.admissible


# -- multi-pipe junctions ---------------------------------------------------------


def test_single_in_single_out_equals_interface(benchmark_law, benchmark_states):
    left, right = benchmark_states
    multi = solve_multi_junction([left], [right], 0.0, benchmark_law)
    pair = solve_interface(left, right, benchmark_law)
    assert multi.rho_star == pytest.approx(pair.rho_star, rel=1e-14)


def test_benchmark_small_extraction_through_multi(benchmark_law, benchmark_states):
    left, right = benchmark_states
    sol = solve_multi_junction([left], [right], 0.25, benchmark_law)
    assert sol.incoming_waves == (WaveType.SHOCK,)
    assert sol.outgoing_waves == (WaveType.SHOCK,)


def test_two_in_one_out_against_scalar_scan(unit_isothermal):
    """Root of the summed curve gap, bracketed on a dense grid."""
    state = GasState(1.0, 0.0)
    lax_l, lax_r = isothermal_curves(1.0)
    grid = np.linspace(0.5, 5.0, 2_000_001)

    def total(r):
        return 2.0 * lax_l(r, state) - lax_r(r, state)

    coarse = grid[::1000]
    vals = np.array([total(r) for r in coarse])
    k = int(np.nonzero(np.diff(np.sign(vals)))[0][0])
    sol = solve_multi_junction([state, state], [state], 0.0, unit_isothermal)
    assert coarse[k] <= sol.rho_star <= coarse[k + 1]
    q_in = sum(v.q for v in sol.incoming_traces)
    q_out = sum(v.q for v in sol.outgoing_traces)
    assert q_in == pytest.approx(q_out, abs=1e-12)
    assert len({v.rho for v in sol.incoming_traces + sol.outgoing_traces}) == 1


def test_junction_invariants_for_random_multiway(benchmark_law):
    rng = np.random.default_rng(41)
    law = benchmark_law
    for _ in range(30):
        n_in = int(rng.integers(1, 4))
        n_out = int(rng.integers(1, 4))
        mk = lambda: GasState(r := rng.uniform(1.5, 4.0),
                              rng.uniform(-0.3, 0.3) * r * float(law.c(r)))
        incoming = [mk() for _ in range(n_in)]
        outgoing = [mk() for _ in range(n_out)]
        sol = solve_multi_junction(incoming, outgoing, 0.0, law)
        scale = max(1.0, sum(abs(v.q) for v in sol.incoming_traces))
        assert abs(sol.flux_residual()) <= 1e-10 * scale
        densities = {v.rho for v in sol.incoming_traces + sol.outgoing_traces}
        assert len(densities) == 1


def test_compressor_ratio_port(unit_isothermal):
    """A boosted port keeps mass conservation and the pressure ratio."""
    state = GasState(1.0, 0.1)
    sol = solve_multi_junction([state], [GasState(1.0, 0.1)], 0.0,
                               unit_isothermal, in_pressure_ratios=[1.05])
    p_in = float(unit_isothermal.p(sol.incoming_traces[0].rho))
    p_junction = float(unit_isothermal.p(sol.rho_star))
    assert 1.05 * p_in == pytest.approx(p_junction, rel=1e-12)
    assert abs(sol.flux_residual()) < 1e-12


@pytest.mark.parametrize("ratios", [
    [0.0, 1.0], [-1.0, 1.0], [math.nan, 1.0], [1.0, math.inf],
    [1.0], [1.2], [], [1.0, 1.0, 1.0],
])
@pytest.mark.parametrize("side", ["in", "out"])
@pytest.mark.parametrize("entry", [solve_multi_junction, junction_max_extraction])
def test_malformed_compressor_ratios_are_domain_errors(unit_isothermal, entry, side,
                                                       ratios):
    """Ratios are None (all ones) or one positive, finite number per port;
    anything else is a DomainError that names the side and the port count."""
    states = [GasState(1.0, 0.1), GasState(1.2, -0.05)]
    args = (states, states, 0.0) if entry is solve_multi_junction else (states, states)
    with pytest.raises(DomainError, match=rf"^{side}\w+ pressure ratios must be 2 "):
        entry(*args, unit_isothermal, **{f"{side}_pressure_ratios": ratios})


# -- non-existence --------------------------------------------------------------


@pytest.mark.parametrize("delta", [2.2, -2.2])
def test_adversarial_states_have_no_intersection(delta):
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


# -- self-similar sampling --------------------------------------------------------


@pytest.mark.parametrize("rho, q, eps, message", [
    ([4.0, 0.0], [1.0, -1.0], 0.5, r"density must be positive, got 0\.0"),
    ([4.0, -3.0], [1.0, -1.0], 0.5, r"density must be positive, got -3\.0"),
    ([4.0, math.nan], [1.0, -1.0], 0.5, r"density must be positive, got nan"),
    ([4.0, 3.0], [1.0, -9.0], 0.5, r"outgoing state 0 \(3, -9\) is not sub-sonic"),
    ([4.0, 3.0], [math.nan, -1.0], 0.5, r"incoming state 0 \(4, nan\) is not sub-sonic"),
    ([4.0, 3.0], [1.0, -1.0], -math.inf, "extraction must be a number above -inf"),
    ([4.0, 3.0], [1.0, -1.0], math.nan, "extraction must be a number above -inf"),
    ([], [], 0.5, "junction needs at least one pipe"),
])
def test_float_junction_entry_raises_what_the_general_solver_raises(
        benchmark_law, rho, q, eps, message):
    """The float entry rejects data that the general solver, given the same
    data as states, rejects with a ``DomainError``: same class, same message."""
    n_in = min(1, len(rho))
    with pytest.raises(DomainError, match=message) as general:
        states = [GasState(*v) for v in zip(rho, q)]
        solve_multi_junction(states[:n_in], states[n_in:], eps, benchmark_law)
    with pytest.raises(DomainError) as lean:
        junction_traces(rho, q, n_in, eps, benchmark_law)
    assert type(lean.value) is type(general.value)
    assert str(lean.value) == str(general.value)


def _no_solve(*args, **kwargs):
    raise AssertionError("a junction solve ran")


@pytest.mark.parametrize("entry", [
    pytest.param(lambda law: solve_multi_junction(
        [GasState(math.inf, 1.0)], [GasState(3.0, -1.0)], 0.5, law), id="GasState"),
    pytest.param(lambda law: junction_traces([math.inf, 3.0], [1.0, -1.0], 1, 0.5, law),
                 id="junction_traces"),
])
def test_infinite_density_is_refused_before_any_solve(benchmark_law, entry,
                                                      monkeypatch):
    """An infinite port density is a ``DomainError`` that names it, raised
    by the state and by the float entry's port check before any root search."""
    monkeypatch.setattr(gaspower.riemann, "_newton", _no_solve)
    monkeypatch.setattr(gaspower.riemann, "brentq", _no_solve)
    with pytest.raises(DomainError, match=r"^density must be finite, got inf$"):
        entry(benchmark_law)


def test_float_junction_entry_runs_newton_once_near_the_supremum(
        benchmark_law, benchmark_states, monkeypatch):
    """Just below the supremum Newton's method declines the benchmark junction;
    the float entry then goes on to the bracketed search without running
    Newton again, and answers with the general solver's rho* and trace
    momenta bit for bit."""
    left, right = benchmark_states
    eps = (1.0 - 1e-7) * max_extraction(left, right, benchmark_law)
    newton, answers = gaspower.riemann._newton, []

    def counting(*args):
        answers.append(newton(*args))
        return answers[-1]

    monkeypatch.setattr(gaspower.riemann, "_newton", counting)
    rho_star, momenta = junction_traces([left.rho, right.rho], [left.q, right.q], 1,
                                        eps, benchmark_law)
    assert answers == [None]
    sol = solve_multi_junction([left], [right], eps, benchmark_law)
    assert answers == [None, None]
    assert rho_star.hex() == sol.rho_star.hex()
    assert [m.hex() for m in momenta] == [sol.left_trace.q.hex(), sol.right_trace.q.hex()]


def test_sampling_far_field(benchmark_law, benchmark_states):
    left, right = benchmark_states
    sol = solve_gas_power_junction(left, right, 1.75, benchmark_law)
    assert sample_solution(sol, -1e9) == left
    assert sample_solution(sol, 1e9) == right


def test_sampling_straddles_the_junction(benchmark_law, benchmark_states):
    left, right = benchmark_states
    sol = solve_gas_power_junction(left, right, 1.75, benchmark_law)
    just_left = sample_solution(sol, -1e-12)
    just_right = sample_solution(sol, 1e-12)
    assert just_left.rho == pytest.approx(sol.left_trace.rho, rel=1e-12)
    assert just_left.q == pytest.approx(sol.left_trace.q, rel=1e-12)
    assert just_right.q == pytest.approx(sol.right_trace.q, rel=1e-12)
    # exactly on the stationary jump: right-side state by convention
    assert sample_solution(sol, 0.0).q == pytest.approx(sol.right_trace.q,
                                                        rel=1e-12)


def test_sampling_shock_speed_is_rankine_hugoniot(benchmark_law, benchmark_states):
    left, right = benchmark_states
    sol = solve_gas_power_junction(left, right, 0.25, benchmark_law)  # s-s
    v_l = sol.left_trace
    speed = (v_l.q - left.q) / (v_l.rho - left.rho)
    ahead = sample_solution(sol, speed - 1e-9)
    behind = sample_solution(sol, speed + 1e-9)
    assert ahead == left
    assert behind.rho == pytest.approx(v_l.rho, rel=1e-12)
    # exactly on the shock: right-side state
    assert sample_solution(sol, speed).rho == pytest.approx(v_l.rho, rel=1e-12)


def test_sampling_rarefaction_fan_is_continuous(benchmark_law, benchmark_states):
    left, right = benchmark_states
    sol = solve_gas_power_junction(left, right, 3.25, benchmark_law)  # r-r
    xis = np.linspace(-2.5, 2.5, 801)
    rho = np.array([sample_solution(sol, x).rho for x in xis])
    jumps = np.abs(np.diff(rho))
    assert np.max(jumps) < 0.02  # no order-one discontinuity inside the fans


def test_sampling_rejects_multiway(benchmark_law):
    state = GasState(2.0, 0.0)
    sol = solve_multi_junction([state, state], [state], 0.0, benchmark_law)
    with pytest.raises(DomainError):
        sample_solution(sol, 0.0)
