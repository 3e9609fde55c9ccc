"""Wave curves: values, derivatives, admissibility densities, wave types."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaspower.errors import DomainError, InadmissibleError, NumericsError
from gaspower.laxcurves import (
    GasState,
    Side,
    WaveType,
    classify_wave,
    f_shock,
    lambda1,
    _f_shock_deriv,
    _panels,
    _sonic_density_search,
    lax_left,
    lax_left_deriv,
    lax_left_with_deriv,
    lax_right,
    lax_right_deriv,
    lax_right_with_deriv,
    rarefaction_integral,
    rho_max,
    rho_min,
)
from gaspower.pressure import (
    GammaLaw,
    GeneralizedGammaLaw,
    IsothermalLaw,
    LogLaw,
    SumGammaLaw,
    parse_law,
)


def random_subsonic(rng, law, rho_range=(0.2, 5.0), margin=0.95) -> GasState:
    rho = rng.uniform(*rho_range)
    u = rng.uniform(-margin, margin) * float(law.c(rho))
    return GasState(rho, u * rho)


# -- shock auxiliary -----------------------------------------------------------


def test_f_shock_vanishes_at_equal_densities(benchmark_law):
    assert f_shock(4.0, 4.0, benchmark_law) == 0.0


def test_f_shock_gamma_law_arithmetic(benchmark_law):
    expected = 1.25 * (5.0**1.4 - 4.0**1.4)
    assert f_shock(5.0, 4.0, benchmark_law) == pytest.approx(expected, rel=1e-14)


def test_f_shock_isothermal_arithmetic(unit_isothermal):
    # (2/1)(2-1)(p(2)-p(1)) = 2*1*1
    assert f_shock(2.0, 1.0, unit_isothermal) == pytest.approx(2.0, rel=1e-14)


def test_f_shock_requires_compression(benchmark_law):
    with pytest.raises(DomainError):
        f_shock(3.0, 4.0, benchmark_law)


# -- curve values --------------------------------------------------------------


def test_curve_passes_through_datum(benchmark_law, benchmark_states):
    left, right = benchmark_states
    assert lax_left(left.rho, left, benchmark_law) == pytest.approx(left.q, abs=1e-14)
    assert lax_right(right.rho, right, benchmark_law) == pytest.approx(right.q, abs=1e-14)


def test_shock_branch_arithmetic(benchmark_law):
    left = GasState(4.0, 1.0)
    expected = 5.0 * 0.25 - math.sqrt(f_shock(5.0, 4.0, benchmark_law))
    assert lax_left(5.0, left, benchmark_law) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("law", [GammaLaw(1.0, 1.4), IsothermalLaw(1.0),
                                 LogLaw(), SumGammaLaw()], ids=lambda l: l.label)
def test_mirror_symmetry(law):
    """-lax_right(rho; (r, q)) == lax_left(rho; (r, -q)) for random inputs."""
    rng = np.random.default_rng(11)
    for _ in range(250):
        state = random_subsonic(rng, law)
        rho = rng.uniform(0.2, 5.0)
        lhs = -lax_right(rho, state, law)
        rhs = lax_left(rho, GasState(state.rho, -state.q), law)
        assert lhs == pytest.approx(rhs, abs=1e-12, rel=1e-12)


def test_branches_join_continuously(benchmark_law):
    # One-sided values around the kink, with the smooth variation over the
    # evaluation gap removed through the one-sided slope.
    left = GasState(4.0, 1.0)
    h = 4.0 * 1e-9
    below = lax_left(4.0 - h, left, benchmark_law)
    above = lax_left(4.0 + h, left, benchmark_law)
    slope = lax_left_deriv(4.0, left, benchmark_law)
    assert above - below == pytest.approx(2.0 * h * slope, abs=1e-8)
    d_below = lax_left_deriv(4.0 - 4e-7, left, benchmark_law)
    d_above = lax_left_deriv(4.0 + 4e-7, left, benchmark_law)
    assert d_below == pytest.approx(d_above, abs=1e-5)


def test_concavity_of_left_curve():
    """Second differences of lax_left stay non-positive for valid laws."""
    rng = np.random.default_rng(3)
    for law in (GammaLaw(1.0, 1.4), IsothermalLaw(1.0), LogLaw()):
        for _ in range(20):
            state = random_subsonic(rng, law)
            grid = np.sort(rng.uniform(0.3 * state.rho, 3.0 * state.rho, 30))
            vals = np.array([lax_left(r, state, law) for r in grid])
            h = np.diff(grid)
            second = (vals[2:] - vals[1:-1]) / h[1:] - (vals[1:-1] - vals[:-2]) / h[:-1]
            assert np.all(second <= 1e-10), law.label


# -- derivatives ---------------------------------------------------------------


def test_deriv_at_kink_is_rarefaction_limit(benchmark_law):
    left = GasState(4.0, 1.0)
    expected = 0.25 - float(benchmark_law.c(4.0))
    assert lax_left_deriv(4.0, left, benchmark_law) == pytest.approx(expected, rel=1e-14)
    right = GasState(3.0, -1.0)
    expected_r = -1.0 / 3.0 + float(benchmark_law.c(3.0))
    assert lax_right_deriv(3.0, right, benchmark_law) == pytest.approx(expected_r,
                                                                       rel=1e-14)


@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_deriv_matches_finite_differences(benchmark_law, factor):
    left = GasState(4.0, 1.0)
    rho = factor * left.rho
    h = 1e-7 * rho
    fd = (lax_left(rho + h, left, benchmark_law)
          - lax_left(rho - h, left, benchmark_law)) / (2.0 * h)
    assert lax_left_deriv(rho, left, benchmark_law) == pytest.approx(fd, rel=1e-6)
    right = GasState(3.0, -1.0)
    rho = factor * right.rho
    h = 1e-7 * rho
    fd = (lax_right(rho + h, right, benchmark_law)
          - lax_right(rho - h, right, benchmark_law)) / (2.0 * h)
    assert lax_right_deriv(rho, right, benchmark_law) == pytest.approx(fd, rel=1e-6)


def test_slow_eigenvalue_equals_curve_slope_on_rarefaction_branch(benchmark_law):
    # The identity holds where the curve is a rarefaction (rho <= datum);
    # the shock branch follows the jump locus instead.
    left = GasState(4.0, 1.0)
    for rho in (0.8, 1.5, 2.9, 3.999):
        state = GasState(rho, lax_left(rho, left, benchmark_law))
        assert lambda1(state, benchmark_law) == pytest.approx(
            lax_left_deriv(rho, left, benchmark_law), abs=1e-8)


# -- admissibility densities ---------------------------------------------------


def test_rho_min_benchmark_values(benchmark_law, benchmark_states):
    left, right = benchmark_states
    assert rho_min(left, Side.IN, benchmark_law) == pytest.approx(1.8819, rel=1e-3)
    assert rho_min(right, Side.OUT, benchmark_law) == pytest.approx(1.5041, rel=1e-3)


def test_rho_min_isothermal_against_scan(unit_isothermal):
    """Dense scan plus bisection locates the same root as the solver."""
    state = GasState(1.0, 0.0)
    grid = np.geomspace(1e-6, 1.0, 200_001)
    vals = np.array([lax_left_deriv(r, state, unit_isothermal) for r in grid[::100]])
    sign_change = np.nonzero(np.diff(np.sign(vals)))[0]
    assert sign_change.size == 1
    found = rho_min(state, Side.IN, unit_isothermal)
    # closed form for constant sound speed: rho_l * exp(u/c - 1)
    assert found == pytest.approx(math.exp(-1.0), rel=1e-12)
    lo = grid[::100][sign_change[0]]
    hi = grid[::100][sign_change[0] + 1]
    assert lo <= found <= hi


def test_rho_min_zero_when_curve_slope_never_vanishes():
    # Inverse-type law: the curve slope is constant u - c(rho_l) < 0.
    law = GammaLaw(-1.0, -1.0)
    state = GasState(1.0, 0.3)  # c(1) = 1, sub-sonic
    assert rho_min(state, Side.IN, law) == 0.0


# Power-form laws of every kind parse_law knows, combinations included.
POWER_FORM_LAWS = {spec: parse_law(spec) for spec in (
    "gamma(0.7142857142857143,1.4)", "gamma(2.0,3.0)", "gamma(0.5,1.1)",
    "isothermal(1.0)", "isothermal(340.0)", "log", "generalized(1.0,-1.0)",
    "generalized(2.0,0.5)", "generalized(0.5,-1.5)", "generalized(1.0,2.0)",
    "linear_combination(2.0*gamma(1.0,1.4),0.5*gamma(3.0,1.4))",
    "linear_combination(1.0*isothermal(2.0),3.0*isothermal(1.0))",
)}


def _searched_rho_min(state, side, law):
    """The bracketed search that laws without a power form take."""
    root = _sonic_density_search(state if side is Side.IN else state.mirrored(), law)
    return root if root > 1e-9 * state.rho else 0.0


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(spec=st.sampled_from(sorted(POWER_FORM_LAWS)), log_rho=st.floats(-3.0, 3.0),
       mach=st.floats(-0.99, 0.99), side=st.sampled_from(Side))
def test_rho_min_closed_form_matches_the_search(spec, log_rho, mach, side):
    """The Riemann-invariant closed form equals the root search to 1e-13,
    below density 1 too: the search's tolerance is relative to the datum."""
    law = POWER_FORM_LAWS[spec]
    rho = 10.0**log_rho
    state = GasState(rho, mach * rho * float(law.c(rho)))
    expected = _searched_rho_min(state, side, law)
    assert expected > 0.0
    assert rho_min(state, side, law) == pytest.approx(expected, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("spec, mach", [
    ("inverse", 0.3),                # h + 1 = 0: the slope is u - c throughout
    ("generalized(1.0,-3.0)", 0.3),  # h + 1 < 0: the slope rises towards vacuum
    ("gamma(1.0,4.0)", -0.8),        # no root: u + c/h < 0
    ("gamma(1.0,3.0)", -(1.0 - 1e-10)),  # the root lies below 1e-9 rho
])
@pytest.mark.parametrize("side", list(Side))
def test_rho_min_zero_branch_matches_the_search(spec, mach, side):
    law = parse_law(spec)
    for rho in (0.5, 2.0, 30.0):
        c = float(law.c(rho))
        state = GasState(rho, (mach if side is Side.IN else -mach) * rho * c)
        assert _searched_rho_min(state, side, law) == 0.0
        assert rho_min(state, side, law) == 0.0


def test_rho_max_isothermal_scan_value(unit_isothermal):
    """Scan of the fast eigenvalue along the curve brackets the same root."""
    state = GasState(1.0, 0.0)
    grid = np.geomspace(0.5, 100.0, 20_000)
    vals = np.array([lax_left(r, state, unit_isothermal) / r
                     + float(unit_isothermal.c(r)) for r in grid])
    first_negative = np.nonzero(vals < 0.0)[0]
    assert first_negative.size
    bracket_lo = grid[first_negative[0] - 1]
    bracket_hi = grid[first_negative[0]]
    found = rho_max(state, Side.IN, unit_isothermal)
    assert bracket_lo <= found <= bracket_hi
    # (rho - 1) = sqrt(rho) has root (3 + sqrt 5)/2 for this datum
    assert found == pytest.approx((3.0 + math.sqrt(5.0)) / 2.0, rel=1e-12)


def test_rho_max_gamma_law_scan(benchmark_law):
    state = GasState(4.0, 1.0)
    grid = np.geomspace(4.0, 4e3, 40_000)
    vals = np.array([lax_left(r, state, benchmark_law) / r
                     + float(benchmark_law.c(r)) for r in grid])
    first_negative = np.nonzero(vals < 0.0)[0]
    found = rho_max(state, Side.IN, benchmark_law)
    assert grid[first_negative[0] - 1] <= found <= grid[first_negative[0]]


def test_rho_max_exceeds_rho_min_for_random_states(benchmark_law):
    rng = np.random.default_rng(5)
    for _ in range(50):
        state = random_subsonic(rng, benchmark_law)
        side = Side.IN if rng.uniform() < 0.5 else Side.OUT
        assert rho_max(state, side, benchmark_law) > rho_min(state, side,
                                                             benchmark_law)


# -- wave classification -------------------------------------------------------


def test_classify_wave_degenerate_is_rarefaction(benchmark_law):
    state = GasState(4.0, 1.0)
    assert classify_wave(4.0, state, Side.IN, benchmark_law) is WaveType.RAREFACTION


def test_classify_wave_shock_above_datum(benchmark_law):
    state = GasState(4.0, 1.0)
    assert classify_wave(5.0, state, Side.IN, benchmark_law) is WaveType.SHOCK


def test_classify_wave_rejects_inadmissible(benchmark_law):
    state = GasState(4.0, 1.0)  # junction minimum near 1.88
    with pytest.raises(InadmissibleError):
        classify_wave(1.5, state, Side.IN, benchmark_law)


# -- state validation ----------------------------------------------------------


@pytest.mark.parametrize("law", [GammaLaw(1.0, 1.4), SumGammaLaw()], ids=["gamma", "sum_gamma"])
def test_curve_with_deriv_equals_the_separate_evaluations(law):
    """Both branches and the kink, bit for bit."""
    rng = np.random.default_rng(5)
    for _ in range(40):
        state = random_subsonic(rng, law)
        for rho in (state.rho, *rng.uniform(0.05, 8.0, 4)):
            assert lax_left_with_deriv(rho, state, law) == (
                lax_left(rho, state, law), lax_left_deriv(rho, state, law))
            assert lax_right_with_deriv(rho, state, law) == (
                lax_right(rho, state, law), lax_right_deriv(rho, state, law))


@pytest.mark.parametrize("law", [GammaLaw(1.0, 1.4), SumGammaLaw()], ids=["gamma", "sum_gamma"])
def test_shock_branch_slope_is_the_auxiliary_quotient(law):
    """Bit for bit: u_l - f'(rho) / (2 sqrt(f(rho))) with f = f_shock."""
    rng = np.random.default_rng(8)
    for _ in range(40):
        state = random_subsonic(rng, law)
        for rho in state.rho * rng.uniform(1.0 + 1e-6, 8.0, 4):
            root = math.sqrt(f_shock(rho, state.rho, law))
            assert lax_left_with_deriv(rho, state, law) == (
                rho * state.u - root,
                state.u - _f_shock_deriv(rho, state.rho, law) / (2.0 * root))


# 30-digit sound speeds c(e^u) of laws without a power form, with the float
# exponents and coefficients that the laws evaluate.
def _oracle_sound_speeds(mp):
    def gamma_integral(u):
        # p = (e^{3u} - e^u) / u; its derivative by rho, near u = 0 by series
        if abs(u) < mp.mpf(10) ** -12:
            return mp.sqrt(4 + mp.mpf(14) / 3 * u + mp.mpf(10) / 3 * u * u)
        with mp.workdps(45):
            return mp.sqrt(((3 * mp.exp(2 * u) - 1) * u - mp.expm1(2 * u)) / (u * u))

    return {
        "sum_gamma": lambda u: mp.sqrt(
            mp.mpf(0.1) * mp.polyval([1] * 10 + [0], mp.exp(mp.mpf(0.2) * u))),
        "linear_combination(1*gamma(1,3),2*log)":
            lambda u: mp.sqrt(3 * mp.exp(2 * u) + 2 * mp.exp(-u)),
        "linear_combination(1.0*generalized(1.0,-1.99),1.0*gamma(1,1.4))":
            lambda u: mp.sqrt(mp.exp(mp.mpf(-1.99) * u)
                              + mp.mpf(1.4) * mp.exp((mp.mpf(1.4) - 1) * u)),
        "gamma_integral": gamma_integral,
    }


@pytest.mark.parametrize("spec, tol", [
    ("sum_gamma", 2e-15),
    ("linear_combination(1*gamma(1,3),2*log)", 2e-15),
    ("linear_combination(1.0*generalized(1.0,-1.99),1.0*gamma(1,1.4))", 2e-15),
    ("gamma_integral", 2e-15),
])
def test_rarefaction_integral_matches_a_30_digit_oracle(spec, tol):
    """Laws without a power form, on random and on short intervals of
    [1e-8, 1e8].

    The error is taken relative to the larger of |I| and the sound speeds at
    both ends: callers add I to a sub-sonic velocity, and the difference of
    an antiderivative (as the closed power form is one) cannot resolve an
    interval much shorter than its panel better than that.
    """
    mp = pytest.importorskip("mpmath")
    law = parse_law(spec)
    c = _oracle_sound_speeds(mp)[spec]
    rng = np.random.default_rng(22)
    ends = np.exp(rng.uniform(math.log(1e-8), math.log(1e8), (24, 2)))
    short = ends[:8, :1] * np.exp(rng.uniform(-0.05, 0.05, (8, 1)))
    ends = np.concatenate([ends, np.hstack([ends[:8, :1], short])])
    with mp.workdps(30):
        for rho, rho_ref in ends.tolist():
            lo, hi = mp.log(rho), mp.log(rho_ref)
            splits = range(math.ceil(min(lo, hi)), math.floor(max(lo, hi)) + 1, 3)
            points = sorted([lo, hi, *map(mp.mpf, splits)], reverse=hi < lo)
            exact = mp.quad(c, points)
            scale = max(abs(exact), c(lo), c(hi))
            error = abs(rarefaction_integral(law, rho, rho_ref) - exact)
            assert error <= tol * scale, (rho, rho_ref, float(error / scale))


def test_rarefaction_panels_are_cached_per_law_not_stored_on_it():
    law = SumGammaLaw()
    rarefaction_integral(law, 0.5, 2.0)
    assert vars(law) == {}
    assert _panels(SumGammaLaw()) is _panels(law)


def test_combination_integrals_reuse_the_members_forms(monkeypatch):
    law = parse_law("linear_combination(1*gamma(1,3),2*log)")
    calls = []

    def counted(method):
        def wrapper(self):
            calls.append(method.__qualname__)
            return method(self)
        return wrapper

    for cls, name in ((GeneralizedGammaLaw, "power_form"), (GeneralizedGammaLaw, "spec"),
                      (GammaLaw, "spec"), (LogLaw, "spec")):
        monkeypatch.setattr(cls, name, counted(getattr(cls, name)))
    for k in range(1000):
        rarefaction_integral(law, 0.3 + 1e-3 * k, 2.0)
    assert calls == []
    # the values the combination gave when it rebuilt both on every call
    expected = {(0.3, 2.0): "0x1.27c112abd030bp+2",
                (2.0, 0.3): "-0x1.27c112abd030bp+2",
                (1e-6, 1e3): "0x1.1cc903bdca592p+12",
                (5.0, 5.5): "0x1.bc6e0c50f8c38p-1",
                (0.9, 1.1): "0x1.cb84d9de4964ap-2"}
    for (rho, rho_ref), value in expected.items():
        assert rarefaction_integral(law, rho, rho_ref) == float.fromhex(value)
    monkeypatch.undo()
    spec = "linear_combination(1.0*gamma(1.0,3.0),2.0*log)"
    assert law.spec() == spec and hash(law) == hash(spec)
    assert law == parse_law(spec) and law != parse_law("linear_combination(1*gamma(1,3))")


def test_non_finite_sound_speed_fails_only_the_intervals_that_reach_it():
    class NanAtHighDensity(SumGammaLaw):
        def c(self, rho):
            return np.where(np.asarray(rho) > 1e6, math.nan, super().c(rho))

        def spec(self):
            return "sum_gamma_nan_above_1e6"

    law, clean = NanAtHighDensity(), SumGammaLaw()
    # 1e6 lies on the panel [e^13, e^14] of ln(density), which is not needed
    for rho, rho_ref in ((0.5, 2.0), (1e-8, 4e5), (4e5, 0.5)):
        assert (rarefaction_integral(law, rho, rho_ref)
                == rarefaction_integral(clean, rho, rho_ref))
    with pytest.raises(NumericsError, match=r"sum_gamma on densities \[442413, 1.2026e\+06\]"):
        rarefaction_integral(law, 0.5, 1e7)


def test_unresolved_sound_speed_raises_for_its_panel():
    class Kinked(SumGammaLaw):
        def c(self, rho):  # a kink at u = ln(rho) = 0.5
            return 1.0 + np.abs(np.log(rho) - 0.5)

        def spec(self):
            return "sum_gamma_kinked"

    with pytest.raises(NumericsError, match=r"not resolved for sum_gamma on densities \[1, 2.71828\]"):
        rarefaction_integral(Kinked(), 0.5, 2.0)


def test_rarefaction_integral_rejects_non_finite_densities():
    for rho in (math.inf, math.nan):
        with pytest.raises(DomainError):
            rarefaction_integral(SumGammaLaw(), rho, 1.0)


def test_gas_state_requires_positive_density():
    with pytest.raises(DomainError):
        GasState(0.0, 1.0)
    with pytest.raises(DomainError):
        GasState(-1.0, 0.0)


def test_subsonic_flag(unit_isothermal):
    assert GasState(1.0, 0.5).is_subsonic(unit_isothermal)
    assert not GasState(1.0, 1.5).is_subsonic(unit_isothermal)
