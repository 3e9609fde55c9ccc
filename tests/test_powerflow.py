"""Admittance assembly, mismatch equations, and the Newton power flow."""

from importlib.resources import files

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaspower.driver import build_power_grid
from gaspower.errors import ConvergenceError, DomainError
from gaspower.powerflow import (
    NEWTON_TOL,
    Bus,
    PowerGrid,
    TransmissionLine,
    build_admittance,
    injections,
    mismatch,
    solve_newton,
)
from gaspower.scenario import load_scenario

# Nine-bus benchmark: diagonal entries are node records, off-diagonals come
# from the lines (so the diagonals include the line-charging contribution).
NINE_BUS = [
    Bus("N1", "slack", V=1.0, phi=0.0, G=0.0, B=-17.3611),
    Bus("N2", "PV", P=1.63, V=1.0, G=0.0, B=-16.0),
    Bus("N3", "PV", P=0.85, V=1.0, G=0.0, B=-17.0648),
    Bus("N4", "PQ", P=0.0, Q=0.0, G=3.3074, B=-39.3089),
    Bus("N5", "PQ", P=-0.9, Q=-0.3, G=3.2242, B=-15.8409),
    Bus("N6", "PQ", P=0.0, Q=0.0, G=2.4371, B=-32.1539),
    Bus("N7", "PQ", P=-1.0, Q=-0.35, G=2.7722, B=-23.3032),
    Bus("N8", "PQ", P=0.0, Q=0.0, G=2.8047, B=-35.4456),
    Bus("N9", "PQ", P=-1.25, Q=-0.5, G=2.5528, B=-17.3382),
]
NINE_LINES = [
    TransmissionLine("N1", "N4", 0.0, 17.3611),
    TransmissionLine("N4", "N5", -1.9422, 10.5107),
    TransmissionLine("N5", "N6", -1.282, 5.5882),
    TransmissionLine("N3", "N6", 0.0, 17.0648),
    TransmissionLine("N6", "N7", -1.1551, 9.7843),
    TransmissionLine("N7", "N8", -1.6171, 13.698),
    TransmissionLine("N8", "N2", 0.0, 16.0),
    TransmissionLine("N8", "N9", -1.1876, 5.9751),
    TransmissionLine("N9", "N4", -1.3652, 11.6041),
]


def nine_bus_grid():
    return PowerGrid([Bus(**vars(b)) for b in NINE_BUS], list(NINE_LINES))


# -- admittance -----------------------------------------------------------------


def test_admittance_entries_from_tables():
    y = build_admittance(NINE_BUS, NINE_LINES)
    assert y[0, 3] == pytest.approx(0.0 + 17.3611j)
    assert y[0, 0] == pytest.approx(0.0 - 17.3611j)
    assert y[3, 4] == pytest.approx(-1.9422 + 10.5107j)


def test_admittance_is_symmetric():
    y = build_admittance(NINE_BUS, NINE_LINES)
    assert np.allclose(y, y.T)


def test_admittance_without_lines_is_diagonal():
    y = build_admittance(NINE_BUS, [])
    assert np.count_nonzero(y - np.diag(np.diag(y))) == 0


def test_duplicate_line_rejected():
    with pytest.raises(DomainError):
        build_admittance(NINE_BUS, NINE_LINES
                         + [TransmissionLine("N4", "N1", 0.0, 1.0)])


def test_duplicate_line_is_rejected_when_the_grid_is_built():
    with pytest.raises(DomainError,
                       match="duplicate transmission line between N4 and N1"):
        PowerGrid([Bus(**vars(b)) for b in NINE_BUS],
                  NINE_LINES + [TransmissionLine("N4", "N1", 0.0, 1.0)])


# -- grid validation -------------------------------------------------------------


def test_exactly_one_slack_required():
    with pytest.raises(DomainError):
        PowerGrid([Bus("A", "PQ", P=0.0, Q=0.0)], [])
    with pytest.raises(DomainError):
        PowerGrid([Bus("A", "slack", V=1.0), Bus("B", "slack", V=1.0)], [])


def test_bus_field_requirements():
    with pytest.raises(DomainError):
        Bus("A", "PQ", P=1.0)        # Q missing
    with pytest.raises(DomainError):
        Bus("A", "PV", P=1.0)        # |V| missing
    with pytest.raises(DomainError):
        Bus("A", "hub", P=1.0)       # unknown kind


# -- mismatch --------------------------------------------------------------------


def test_flat_two_bus_network_has_zero_mismatch():
    grid = PowerGrid(
        [Bus("S", "slack", V=1.0, phi=0.0, G=0.0, B=-10.0),
         Bus("L", "PQ", P=0.0, Q=0.0, G=0.0, B=-10.0)],
        [TransmissionLine("S", "L", 0.0, 10.0)],
    )
    residual = mismatch((np.ones(2), np.zeros(2)), grid)
    assert np.max(np.abs(residual)) < 1e-14


def _listed_mismatch(state, grid):
    """The mismatch formed bus by bus from the bus records, as an oracle."""
    vmag, phi = state
    y = build_admittance(grid.buses, grid.lines)
    p_calc, q_calc = injections(y, vmag, phi)
    dp = [p_calc[k] - grid.buses[k].P
          for k, b in enumerate(grid.buses) if b.kind != "slack"]
    dq = [q_calc[k] - grid.buses[k].Q
          for k, b in enumerate(grid.buses) if b.kind == "PQ"]
    return np.array(dp + dq)


def test_mismatch_matches_the_bus_by_bus_form_bit_for_bit():
    grid = nine_bus_grid()
    rng = np.random.default_rng(7)
    for _ in range(20):
        vmag = 1.0 + 0.1 * rng.uniform(-1, 1, 9)
        phi = 0.3 * rng.uniform(-1, 1, 9)
        grid.buses[int(rng.integers(1, 9))].P = float(rng.uniform(-2, 2))
        fast = mismatch((vmag, phi), grid)
        assert fast.tobytes() == _listed_mismatch((vmag, phi), grid).tobytes()


def test_converged_solution_has_tiny_mismatch():
    grid = nine_bus_grid()
    sol = solve_newton(grid)
    residual = mismatch((sol.V, sol.phi), grid)
    assert np.max(np.abs(residual)) < 1e-8


def test_jacobian_matches_finite_differences():
    from gaspower.powerflow import _jacobian, build_admittance

    grid = nine_bus_grid()
    y = build_admittance(grid.buses, grid.lines)
    rng = np.random.default_rng(2)
    vmag = 1.0 + 0.05 * rng.uniform(-1, 1, 9)
    phi = 0.1 * rng.uniform(-1, 1, 9)
    pvpq = list(range(1, 9))
    pq = list(range(3, 9))
    jac = _jacobian(y, vmag, phi, pvpq, pq)

    def residual(x):
        v = vmag.copy()
        ph = phi.copy()
        ph[pvpq] = x[:len(pvpq)]
        v[pq] = x[len(pvpq):]
        return mismatch((v, ph), grid)

    x0 = np.concatenate([phi[pvpq], vmag[pq]])
    fd = np.empty_like(jac)
    h = 1e-6
    for k in range(x0.size):
        xp, xm = x0.copy(), x0.copy()
        xp[k] += h
        xm[k] -= h
        fd[:, k] = (residual(xp) - residual(xm)) / (2 * h)
    assert np.max(np.abs(jac - fd)) / np.max(np.abs(fd)) < 1e-5


# -- Newton solve ----------------------------------------------------------------


def test_nine_bus_converges_fast_from_flat():
    sol = solve_newton(nine_bus_grid())
    print(f"\n  nine-bus: {sol.iterations} iterations, "
          f"mismatch {sol.mismatch_norm:.2e}, slack P {sol.P[0]:.4f}")
    assert sol.iterations <= 10
    assert sol.mismatch_norm <= 1e-8


def test_fixed_quantities_are_exact():
    sol = solve_newton(nine_bus_grid())
    assert sol.V[0] == 1.0 and sol.phi[0] == 0.0    # slack pins both
    assert sol.V[1] == 1.0 and sol.V[2] == 1.0      # PV magnitudes
    assert sol.P[1] == 1.63 and sol.P[2] == 0.85    # PV active set-points


def test_zero_load_pure_susceptance_network_is_flat():
    buses = [Bus("S", "slack", V=1.0, phi=0.0, G=0.0, B=-4.0),
             Bus("A", "PQ", P=0.0, Q=0.0, G=0.0, B=-7.0),
             Bus("B", "PQ", P=0.0, Q=0.0, G=0.0, B=-3.0)]
    lines = [TransmissionLine("S", "A", 0.0, 4.0),
             TransmissionLine("A", "B", 0.0, 3.0)]
    sol = solve_newton(PowerGrid(buses, lines))
    assert sol.iterations == 0
    assert np.allclose(sol.V, 1.0) and np.allclose(sol.phi, 0.0)


def test_heavier_demand_raises_slack_power():
    light = solve_newton(nine_bus_grid())
    grid = nine_bus_grid()
    n5 = grid.buses[4]
    n5.P, n5.Q = -1.8, -0.6
    heavy = solve_newton(grid)
    assert heavy.P[0] > light.P[0]


def test_warm_start_reuses_previous_solution():
    grid = nine_bus_grid()
    cold = solve_newton(grid)
    warm = solve_newton(grid, initial=cold)
    assert warm.iterations <= 1
    assert np.allclose(warm.phi, cold.phi, atol=1e-10)


def test_set_points_changed_between_solves_are_honoured():
    """P and Q of a PQ bus and |V| of a PV bus set after a solve are met by
    the next one, bit for bit as on a grid built with them."""
    grid = nine_bus_grid()
    first = solve_newton(grid)
    n5, n2 = grid.buses[4], grid.buses[1]
    n5.P, n5.Q, n2.V = -1.4, -0.45, 1.02
    changed = solve_newton(grid)
    built = nine_bus_grid()
    built.buses[4].P, built.buses[4].Q, built.buses[1].V = -1.4, -0.45, 1.02
    reference = solve_newton(built)
    assert (changed.P[4], changed.Q[4], changed.V[1]) == (-1.4, -0.45, 1.02)
    assert changed.P[0] > first.P[0]
    for name in ("P", "Q", "V", "phi"):
        assert getattr(changed, name).tobytes() == getattr(reference, name).tobytes()
    assert np.max(np.abs(mismatch((changed.V, changed.phi), grid))) <= NEWTON_TOL


def test_warm_start_from_another_grid_is_a_domain_error():
    two = PowerGrid([Bus("S", "slack", V=1.0, G=0.0, B=-4.0),
                     Bus("A", "PQ", P=-0.5, Q=-0.1, G=0.0, B=-4.0)],
                    [TransmissionLine("S", "A", 0.0, 4.0)])
    three = PowerGrid([Bus("S", "slack", V=1.0, G=0.0, B=-8.0),
                       Bus("A", "PQ", P=-0.5, Q=-0.1, G=0.0, B=-7.0),
                       Bus("B", "PQ", P=-0.2, Q=0.0, G=0.0, B=-3.0)],
                      [TransmissionLine("S", "A", 0.0, 4.0),
                       TransmissionLine("A", "B", 0.0, 3.0),
                       TransmissionLine("S", "B", 0.0, 4.0)])
    with pytest.raises(DomainError,
                       match=r"buses \['S', 'A'\] .* buses \['S', 'A', 'B'\]"):
        solve_newton(three, initial=solve_newton(two))


def test_global_angle_shift_preserves_the_flows():
    """Re-fixing the slack angle shifts all angles but no physical quantity."""
    base = solve_newton(nine_bus_grid())
    shifted_grid = nine_bus_grid()
    shift = 0.3
    shifted_grid.buses[0].phi = shift
    shifted = solve_newton(shifted_grid)
    assert np.allclose(shifted.phi - base.phi, shift, atol=1e-9)
    assert np.allclose(shifted.V, base.V, atol=1e-10)
    assert np.allclose(shifted.P, base.P, atol=1e-8)
    assert np.allclose(shifted.Q, base.Q, atol=1e-8)


def test_divergence_is_reported():
    grid = nine_bus_grid()
    grid.buses[4].P = -80.0  # hopeless demand
    with pytest.raises(ConvergenceError):
        solve_newton(grid)


def test_nan_demand_is_not_reported_as_converged():
    grid = nine_bus_grid()
    grid.buses[4].P = float("nan")
    with pytest.raises(ConvergenceError,
                       match=r"mismatch is not finite at bus N5 after 0 iterations"):
        solve_newton(grid)


def test_isolated_bus_is_a_convergence_error():
    buses = [Bus("S", "slack", V=1.0, phi=0.0, G=0.0, B=-4.0),
             Bus("A", "PQ", P=-0.5, Q=-0.1, G=0.0, B=-4.0),
             Bus("I", "PQ", P=-0.5, Q=-0.1)]
    grid = PowerGrid(buses, [TransmissionLine("S", "A", 0.0, 4.0)])
    with pytest.raises(ConvergenceError, match=r"singular in iteration 1$"):
        solve_newton(grid)


GASLIB9 = load_scenario(files("gaspower") / "scenarios" / "gaslib9.scn")
GASLIB9_PQ = [b.id for b in GASLIB9.buses if b.type == "PQ"]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(scales=st.lists(st.floats(0.0, 2.0), min_size=len(GASLIB9_PQ),
                       max_size=len(GASLIB9_PQ)),
       warm=st.booleans())
def test_solutions_meet_the_mismatch_tolerance(scales, warm):
    """From flat and warm starts, the returned voltages of the gaslib9 grid
    with scaled PQ loads meet the set-points to NEWTON_TOL."""
    grid = build_power_grid(GASLIB9)
    initial = solve_newton(grid) if warm else "flat"
    for bus_id, scale in zip(GASLIB9_PQ, scales):
        bus = grid.buses[grid.index(bus_id)]
        bus.P *= scale
        bus.Q *= scale
    sol = solve_newton(grid, initial)
    assert np.max(np.abs(mismatch((sol.V, sol.phi), grid))) <= NEWTON_TOL
    for k, bus in enumerate(grid.buses):
        if bus.kind == "PQ":
            assert (sol.P[k], sol.Q[k]) == (bus.P, bus.Q)
