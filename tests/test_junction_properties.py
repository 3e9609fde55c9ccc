"""Junction guarantees checked as properties over random sub-sonic data.

Laws: the four of the pressure-law benchmark, the isothermal law and two
combinations without a power form, one of them with mixed exponents. Each
datum is (rho, u/c) with rho in [0.2, 5] and |u| <= 0.9 c; a port datum
adds a compressor pressure ratio. Runs are derandomized so that the suite is
repeatable.
"""

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from gaspower.errors import (
    GasPowerError,
    InadmissibleError,
    InvalidDemandError,
    NoSolutionError,
)
from gaspower.laxcurves import GasState
from gaspower.pressure import parse_law
from gaspower.riemann import (
    junction_max_extraction,
    junction_traces,
    max_extraction,
    solve_gas_power_junction,
    solve_multi_junction,
)

LAWS = {spec: parse_law(spec) for spec in (
    "gamma(0.7142857142857143,1.4)", "inverse", "log", "sum_gamma", "isothermal(1.0)",
    "linear_combination(1*gamma(1,3),2*log)",
    "linear_combination(1.0*generalized(1.0,-1.99),1.0*gamma(1,1.4))",
)}

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.filter_too_much])

laws = st.sampled_from(sorted(LAWS))
datum = st.tuples(st.floats(0.2, 5.0), st.floats(-0.9, 0.9))
data = st.lists(datum, min_size=1, max_size=2)


def _states(law, points):
    return [GasState(rho, m * rho * float(law.c(rho))) for rho, m in points]


def _momentum_scale(law, states):
    """rho c bounds |q| of a sub-sonic state; it sets the momentum scale."""
    return max(s.rho * float(law.c(s.rho)) for s in states)


def _solve_strict(left, right, eps, law):
    return solve_multi_junction([left], [right], eps, law)


@PROPERTY
@given(spec=laws, incoming=data, outgoing=data, eps=st.floats(0.0, 1.0))
def test_traces_share_the_pressure_and_balance_the_flux(spec, incoming, outgoing, eps):
    law = LAWS[spec]
    data_in, data_out = _states(law, incoming), _states(law, outgoing)
    try:
        sol = solve_multi_junction(data_in, data_out, eps, law)
    except GasPowerError:
        assume(False)
    traces = sol.incoming_traces + sol.outgoing_traces
    assert {v.rho for v in traces} == {sol.rho_star}
    scale = _momentum_scale(law, data_in + data_out + list(traces))
    assert abs(sol.flux_residual()) <= 1e-13 * scale


@PROPERTY
@given(spec=laws, left=datum, right=datum,
       frac=st.one_of(st.just(0.0), st.floats(0.0, 1.2)))
def test_admissible_exactly_above_the_junction_minimal_density(spec, left, right, frac):
    law = LAWS[spec]
    (left,), (right,) = _states(law, [left]), _states(law, [right])
    eps = frac * max(max_extraction(left, right, law), 0.0)
    try:
        sol = solve_gas_power_junction(left, right, eps, law)
    except (InvalidDemandError, NoSolutionError):
        assume(False)
    assert sol.admissible == (sol.rho_star > sol.rho_min_junction)


@PROPERTY
@given(spec=laws, left=datum, right=datum,
       fracs=st.tuples(st.floats(0.0, 0.999), st.floats(0.0, 0.999)))
def test_junction_density_decreases_as_the_extraction_grows(spec, left, right, fracs):
    law = LAWS[spec]
    (left,), (right,) = _states(law, [left]), _states(law, [right])
    cap = max_extraction(left, right, law)
    assume(cap > 0.0)
    lo, hi = sorted(fracs)
    rho_lo = solve_gas_power_junction(left, right, lo * cap, law).rho_star
    rho_hi = solve_gas_power_junction(left, right, hi * cap, law).rho_star
    assert rho_lo >= rho_hi
    if hi - lo > 1e-9:
        assert rho_lo > rho_hi


@PROPERTY
@given(spec=laws, left=datum, right=datum,
       frac=st.one_of(st.just(1.0), st.floats(1e-6, 2.0)))
def test_invalid_demand_exactly_at_and_above_the_supremum(spec, left, right, frac):
    law = LAWS[spec]
    (left,), (right,) = _states(law, [left]), _states(law, [right])
    cap = max_extraction(left, right, law)
    assume(cap > 0.0)
    eps = frac * cap
    for solve in (solve_gas_power_junction, _solve_strict):
        if eps >= cap:
            with pytest.raises(InvalidDemandError) as info:
                solve(left, right, eps, law)
            assert info.value.epsilon_max == cap
        else:
            assert solve(left, right, eps, law).admissible


port = st.tuples(st.floats(0.2, 5.0), st.floats(-0.9, 0.9), st.sampled_from((1.05, 0.97, 1.0)))
ports = st.lists(port, min_size=1, max_size=2)


def _solve_or_error(incoming, outgoing, eps, law, in_ratios, out_ratios):
    try:
        return solve_multi_junction(incoming, outgoing, eps, law,
                                    in_pressure_ratios=in_ratios,
                                    out_pressure_ratios=out_ratios)
    except GasPowerError as err:
        return type(err)


@PROPERTY
@given(spec=laws, incoming=ports, outgoing=ports, compressors=st.booleans(),
       frac=st.one_of(st.just(0.0), st.floats(0.0, 0.99)))
def test_the_reflected_junction_has_the_mirrored_solution(spec, incoming, outgoing,
                                                          compressors, frac):
    """Swapping incoming and outgoing pipes and mirroring their data mirrors
    the traces and keeps rho*, the supremum and the admissibility."""
    law = LAWS[spec]
    data_in = _states(law, [(rho, m) for rho, m, _ in incoming])
    data_out = _states(law, [(rho, m) for rho, m, _ in outgoing])
    r_in = [r if compressors else 1.0 for _, _, r in incoming]
    r_out = [r if compressors else 1.0 for _, _, r in outgoing]
    ref_in = [s.mirrored() for s in data_out]
    ref_out = [s.mirrored() for s in data_in]
    cap = junction_max_extraction(data_in, data_out, law,
                                  in_pressure_ratios=r_in, out_pressure_ratios=r_out)
    ref_cap = junction_max_extraction(ref_in, ref_out, law,
                                      in_pressure_ratios=r_out, out_pressure_ratios=r_in)
    scale = _momentum_scale(law, data_in + data_out)
    assert ref_cap == pytest.approx(cap, rel=1e-13, abs=1e-13 * scale)
    eps = frac * max(cap, 0.0)
    sol = _solve_or_error(data_in, data_out, eps, law, r_in, r_out)
    ref = _solve_or_error(ref_in, ref_out, eps, law, r_out, r_in)
    if isinstance(sol, type):
        assert ref is sol
        return
    assert ref.admissible == sol.admissible
    assert ref.rho_star == pytest.approx(sol.rho_star, rel=1e-13)
    for mine, theirs in ((ref.incoming_traces, sol.outgoing_traces),
                         (ref.outgoing_traces, sol.incoming_traces)):
        for v, w in zip(mine, theirs):
            assert v.rho == pytest.approx(w.rho, rel=1e-13)
            assert v.q == pytest.approx(-w.q, abs=1e-13 * scale)


@PROPERTY
@given(spec=laws, incoming=ports, outgoing=ports, eps=st.floats(0.0, 1.0))
def test_compressor_ports_keep_their_pressure_ratio(spec, incoming, outgoing, eps):
    """Every port trace v_k satisfies r_k p(v_k) = p(rho*) to rounding, and
    the flux balances. Power-form laws invert p in closed form; other laws
    invert by a root search to about 1e-15 of the density."""
    law = LAWS[spec]
    data_in = _states(law, [(rho, m) for rho, m, _ in incoming])
    data_out = _states(law, [(rho, m) for rho, m, _ in outgoing])
    ratios = [r for _, _, r in incoming] + [r for _, _, r in outgoing]
    try:
        sol = solve_multi_junction(data_in, data_out, eps, law,
                                   in_pressure_ratios=ratios[:len(incoming)],
                                   out_pressure_ratios=ratios[len(incoming):])
    except GasPowerError:
        assume(False)
    traces = sol.incoming_traces + sol.outgoing_traces
    p_star = float(law.p(sol.rho_star))
    tol = 1e-14 * max(abs(p_star), sol.rho_star * float(law.dp(sol.rho_star)))
    for v, r in zip(traces, ratios):
        assert abs(r * float(law.p(v.rho)) - p_star) <= tol
    scale = _momentum_scale(law, data_in + data_out + list(traces))
    assert abs(sol.flux_residual()) <= 1e-13 * scale


@PROPERTY
@given(spec=laws, points=st.lists(datum, min_size=1, max_size=4), n_in=st.integers(0, 4),
       demand=st.one_of(st.tuples(st.just("fraction"), st.floats(-2.0, 0.999)),
                        st.tuples(st.just("supremum"), st.floats(0.0, 1e-9))))
def test_float_junction_entry_is_the_general_solver_bit_for_bit(spec, points, n_in,
                                                                demand):
    """``junction_traces`` answers with the rho* and trace momenta of
    ``solve_multi_junction`` bit for bit; where the general solver raises a
    junction error, it raises the same class with an equal ``epsilon_max``.
    Extractions are signed fractions of the supremum's magnitude or within
    1e-9 of the supremum, at or below it."""
    law = LAWS[spec]
    states = _states(law, points)
    n_in = min(n_in, len(states))
    rho, q = [s.rho for s in states], [s.q for s in states]
    cap = junction_max_extraction(states[:n_in], states[n_in:], law)
    kind, x = demand
    eps = x * abs(cap) if kind == "fraction" else cap - x * max(abs(cap), 1.0)
    try:
        sol = solve_multi_junction(states[:n_in], states[n_in:], eps, law)
    except (InvalidDemandError, NoSolutionError, InadmissibleError) as general:
        with pytest.raises(type(general)) as lean:
            junction_traces(rho, q, n_in, eps, law)
        assert type(lean.value) is type(general)
        assert getattr(lean.value, "epsilon_max", None) == getattr(general, "epsilon_max", None)
        return
    found = junction_traces(rho, q, n_in, eps, law)
    traces = sol.incoming_traces + sol.outgoing_traces
    assert found[0].hex() == sol.rho_star.hex()
    assert [m.hex() for m in found[1]] == [v.q.hex() for v in traces]
