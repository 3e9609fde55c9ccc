"""Pressure laws: evaluation, derivatives, and the well-posedness checker."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaspower.errors import DomainError
from gaspower.pressure import (
    Asymptotics,
    GammaLaw,
    GammaIntegralLaw,
    GeneralizedGammaLaw,
    IsothermalLaw,
    LinearCombinationLaw,
    LogLaw,
    PressureLaw,
    SumGammaLaw,
    Term,
    _horner,
    _pow,
    _sqrt,
    check_sufficient_conditions,
    classify_generalized_gamma,
    combine,
    inverse_law,
    parse_law,
    sound_speed,
)

FOUR_BENCHMARK_LAWS = [
    GammaLaw(1.0 / 1.4, 1.4),
    inverse_law(),
    LogLaw(),
    SumGammaLaw(),
]

# Every law that parse_law knows, and one linear combination.
PARSED_LAWS = [parse_law(text) for text in (
    "gamma(0.7142857142857143,1.4)", "isothermal(340.0)", "inverse", "log",
    "sum_gamma", "gamma_integral", "generalized(1.0,-1.0)", "generalized(2.0,0.5)",
    "linear_combination(2.0*gamma(1.0,3.0),0.5*log)",
)]


# -- sound speed and derivatives ----------------------------------------------


def test_sound_speed_gamma_law():
    law = GammaLaw(1.0, 1.4)
    assert sound_speed(law, 1.0) == pytest.approx(math.sqrt(1.4), rel=1e-12)


def test_sound_speed_isothermal_is_constant():
    law = IsothermalLaw(340.0)
    for rho in (0.1, 1.0, 50.0, 1234.5):
        assert sound_speed(law, rho) == pytest.approx(340.0, rel=1e-14)


def test_sound_speed_log_law_at_unit_density():
    assert sound_speed(LogLaw(), 1.0) == pytest.approx(1.0, rel=1e-14)


def test_sound_speed_rejects_nonpositive_density():
    for law in PARSED_LAWS:
        for rho in (0.0, -0.0, -2.0, -math.inf):
            with pytest.raises(DomainError):
                sound_speed(law, rho)


@pytest.mark.parametrize("rho", [math.nan, np.array([1.0, math.nan, 2.0])],
                         ids=["float", "array"])
def test_sound_speed_rejects_nan_density(rho):
    for law in PARSED_LAWS:
        with pytest.raises(DomainError):
            sound_speed(law, rho)


@pytest.mark.parametrize("law", FOUR_BENCHMARK_LAWS + [GammaIntegralLaw()],
                         ids=lambda l: l.label)
def test_first_derivative_consistent_with_finite_differences(law):
    """p' must match centered differences of p to 1e-6 relative."""
    for rho in (0.3, 0.9, 1.0, 2.7, 15.0):
        h = 1e-6 * rho
        fd = (float(law.p(rho + h)) - float(law.p(rho - h))) / (2.0 * h)
        assert float(law.dp(rho)) == pytest.approx(fd, rel=1e-6)


def test_higher_derivative_fallbacks_match_analytic():
    # GammaLaw has analytic d2p/d3p; the base-class differences must agree.
    law = GammaLaw(2.0, 1.7)

    class Bare(PressureLaw):  # PressureLaw with only p, dp
        label = "bare"

        def p(self, rho):
            return law.p(rho)

        def dp(self, rho):
            return law.dp(rho)

    bare = Bare()
    for rho in (0.5, 1.0, 3.0):
        assert float(bare.d2p(rho)) == pytest.approx(float(law.d2p(rho)), rel=1e-6)
        assert float(bare.d3p(rho)) == pytest.approx(float(law.d3p(rho)), rel=1e-3)


def test_benchmark_laws_normalized_to_unit_slope_at_one():
    """All four comparison laws satisfy p'(1) = 1 exactly as scaled."""
    for law in FOUR_BENCHMARK_LAWS:
        assert float(law.dp(1.0)) == pytest.approx(1.0, abs=1e-14), law.label


def test_rho_from_pressure_round_trip():
    for law in FOUR_BENCHMARK_LAWS + [IsothermalLaw(340.0)]:
        for rho in (0.2, 1.0, 7.5):
            p = float(law.p(rho))
            assert law.rho_from_pressure(p) == pytest.approx(rho, rel=1e-10)


@pytest.mark.parametrize("text", [
    "sum_gamma", "linear_combination(1.0*generalized(1.0,-1.99),1.0*gamma(1,1.4))"])
def test_generic_inversion_round_trips_to_rounding(text):
    """The generic inversion resolves densities relative to themselves, also
    far below 1."""
    law = parse_law(text)
    for rho in np.geomspace(1e-8, 1e8, 161).tolist():
        assert law.rho_from_pressure(float(law.p(rho))) == pytest.approx(
            rho, rel=2e-15, abs=0.0)


def test_rho_from_pressure_out_of_range():
    with pytest.raises(DomainError):
        IsothermalLaw(1.0).rho_from_pressure(-5.0)


# -- sufficient-condition checker ---------------------------------------------


def test_cubic_law_is_valid():
    assert check_sufficient_conditions(GammaLaw(1.0, 3.0)).valid


def test_inverse_law_valid_via_decay_bound_and_vacuum_limit():
    report = check_sufficient_conditions(inverse_law())
    assert report.valid
    assert report.pressure_decay_bound
    assert report.vacuum_limit_negative
    assert not report.pressure_unbounded


def test_steep_gamma_law_invalid_near_vacuum():
    """kappa rho^3.5 fails: curvature conditions hold but no vacuum
    condition does (its sound speed vanishes too fast)."""
    report = check_sufficient_conditions(GammaLaw(1.0, 3.5))
    assert not report.valid
    assert report.concavity_ok
    assert report.growth_ok
    assert not report.vacuum_ok


@pytest.mark.parametrize("law", FOUR_BENCHMARK_LAWS, ids=lambda l: l.label)
def test_benchmark_quartet_all_valid(law):
    assert check_sufficient_conditions(law).valid, law.label


def test_boundary_gamma_three_is_valid():
    assert check_sufficient_conditions(GammaLaw(2.0, 3.0)).valid


@pytest.mark.parametrize("delta", [-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0])
def test_checker_agrees_with_closed_form_valid(delta):
    law = GeneralizedGammaLaw(1.0, delta)
    assert check_sufficient_conditions(law).valid
    assert classify_generalized_gamma(1.0, delta)


@pytest.mark.parametrize("delta", [2.2, -2.2, 3.0, -3.0])
def test_checker_agrees_with_closed_form_invalid(delta):
    law = GeneralizedGammaLaw(1.0, delta)
    assert not check_sufficient_conditions(law).valid
    assert not classify_generalized_gamma(1.0, delta)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
def test_checker_agrees_with_closed_form_near_the_bounds(alpha):
    """Power-form laws take their exact vacuum exponent -delta/2, so the
    checker has no band of doubt next to delta = -2."""
    deltas = np.concatenate([
        np.linspace(-2.0, -1.5, 501),
        np.linspace(1.5, 2.0, 101),
        [-3.5, -2.5, -2.03, -2.01, -2.001, 2.001, 2.01, 2.03, 2.5, 3.5],
    ])
    disagree = [
        delta for delta in map(float, deltas)
        if check_sufficient_conditions(GeneralizedGammaLaw(alpha, delta)).valid
        != classify_generalized_gamma(alpha, delta)
    ]
    assert disagree == []


def test_classification_examples():
    assert classify_generalized_gamma(1.0, 0.4)
    assert classify_generalized_gamma(1.0, 2.0)      # boundary included
    assert not classify_generalized_gamma(1.0, 2.01)
    assert not classify_generalized_gamma(-1.0, 0.5)  # needs alpha > 0


# The exact values of the power family's closed-form bounds, and either side.
BOUNDARY_DELTAS = (-2.0, 2.0, -2.0 - 1e-9, -2.0 + 1e-9, 2.0 - 1e-9, 2.0 + 1e-9)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(alpha=st.floats(0.1, 10.0),
       delta=st.sampled_from(BOUNDARY_DELTAS) | st.floats(-4.0, 4.0))
def test_checker_agrees_with_the_closed_form_classification(alpha, delta):
    report = check_sufficient_conditions(GeneralizedGammaLaw(alpha, delta))
    assert report.valid == classify_generalized_gamma(alpha, delta), report.summary()


def test_averaged_exponent_law_is_valid():
    """p unbounded; c vanishes like |ln rho|^(-1/2) and vanishes tamely."""
    report = check_sufficient_conditions(GammaIntegralLaw())
    assert report.valid and report.pressure_unbounded, report.summary()
    assert report.sound_speed_vanishes_tamely, report.summary()


def test_worst_violation_of_a_failed_vacuum_check_is_its_own():
    """rho^3.5 fails only 2 p' - rho p'' >= 0, by 1.75/15.75 of its terms."""
    report = check_sufficient_conditions(GammaLaw(1.0, 3.5))
    assert not report.sound_speed_vanishes_tamely
    assert report.worst_violation == pytest.approx(1.75 / 15.75, rel=1e-12)


def test_a_law_without_asymptotics_is_a_domain_error():
    class Handwritten(PressureLaw):
        label = "handwritten"

        def p(self, rho):
            return 2.0 * rho

        def dp(self, rho):
            return 2.0 + 0.0 * rho

        def spec(self):
            return "handwritten"

    for law in (Handwritten(), combine([LogLaw(), Handwritten()], [1.0, 1.0])):
        with pytest.raises(DomainError, match="Handwritten"):
            check_sufficient_conditions(law)


def test_gamma_integral_matches_a_40_digit_oracle_near_one():
    """p and p' within 1e-13 relative for |ln rho| in [1e-8, 0.1], both
    sides of rho = 1, and at rho = 1 itself, on floats and on arrays."""
    mp = pytest.importorskip("mpmath")
    law = GammaIntegralLaw()
    u = np.geomspace(1e-8, 0.1, 300)
    rho = np.concatenate([np.exp(u), np.exp(-u), [1.0]])
    on_array = {"p": law.p(rho), "dp": law.dp(rho)}
    with mp.workdps(40):
        for k, x in enumerate(rho.tolist()):
            r = mp.mpf(x)
            lr = mp.log(r)
            exact = {"p": mp.mpf(2), "dp": mp.mpf(4)} if x == 1.0 else {
                "p": (r**3 - r) / lr,
                "dp": (3 * r * r - 1) / lr - (r * r - 1) / (lr * lr),
            }
            for method, value in exact.items():
                for got in (getattr(law, method)(x), on_array[method][k]):
                    assert abs(got - value) <= 1e-13 * abs(value), (method, x, got)


# -- combinations -------------------------------------------------------------


def test_combine_scaling():
    law = combine([GammaLaw(1.0, 1.0)], [2.0])
    assert float(law.p(3.0)) == pytest.approx(6.0, rel=1e-14)


def test_combine_rejects_empty_and_bad_weights():
    with pytest.raises(DomainError):
        combine([], [])
    with pytest.raises(DomainError):
        combine([LogLaw()], [0.0])
    with pytest.raises(DomainError):
        combine([LogLaw()], [-1.0])


def test_sum_of_gamma_laws_matches_explicit_combination():
    parts = [GammaLaw(0.1 / (1.0 + i / 5.0), 1.0 + i / 5.0) for i in range(1, 11)]
    explicit = combine(parts, [1.0] * 10)
    packaged = SumGammaLaw()
    for rho in (0.4, 1.0, 2.5):
        assert float(explicit.p(rho)) == pytest.approx(float(packaged.p(rho)),
                                                       rel=1e-13)
    assert check_sufficient_conditions(explicit).valid


def test_cubic_plus_log_combination_valid():
    law = combine([GammaLaw(1.0, 3.0), LogLaw()], [1.0, 1.0])
    assert check_sufficient_conditions(law).valid


def test_cone_closure_under_random_positive_weights():
    """Any positive combination of valid laws stays valid (100 samples)."""
    rng = np.random.default_rng(7)
    pool = [GammaLaw(1.0, 1.4), GammaLaw(1.0, 3.0), LogLaw(), inverse_law(),
            GeneralizedGammaLaw(2.0, -1.5)]
    for law in pool:
        assert check_sufficient_conditions(law).valid, law.label
    failures = []
    for k in range(100):
        i, j = rng.integers(0, len(pool), 2)
        w = rng.uniform(0.05, 10.0, 2)
        mixed = combine([pool[i], pool[j]], w)
        if not check_sufficient_conditions(mixed).valid:
            failures.append((pool[i].label, pool[j].label, tuple(w)))
    assert not failures, f"cone closure violated for {failures[:3]}"


# Laws that the checker passes, with power exponents from -2 to 2.
VALID_LAWS = ("gamma(0.7142857142857143,1.4)", "gamma(1.0,3.0)", "isothermal(1.0)",
              "inverse", "log", "sum_gamma", "gamma_integral", "generalized(1.0,-1.99)",
              "generalized(2.0,-1.5)", "generalized(1.0,1.99)")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(members=st.lists(st.tuples(st.sampled_from(VALID_LAWS), st.floats(0.05, 10.0)),
                        min_size=1, max_size=3))
def test_positive_combinations_of_valid_laws_are_valid(members):
    """The cone property that :func:`combine` promises, over mixed exponents."""
    law = combine([parse_law(text) for text, _ in members], [w for _, w in members])
    report = check_sufficient_conditions(law)
    assert report.valid, report.summary()


# A positive combination of two valid laws, led at vacuum by a power next to
# delta = -2 and at infinity by gamma_integral's log-corrected term.
MIXED_LOG_POWER = combine([GeneralizedGammaLaw(1.0, -1.99), GammaIntegralLaw()],
                          [8.17, 0.077])


def test_asymptotics_of_a_combination_are_its_dominant_weighted_members():
    law = parse_law("linear_combination(2.0*sum_gamma,0.5*generalized(1.0,-1.99))")
    assert law.asymptotics() == Asymptotics(
        p_vacuum=Term(0.5 / -0.99, -0.99), p_infinity=Term(2.0 * 0.1 / 3.0, 3.0),
        dp_vacuum=Term(0.5, -1.99), dp_infinity=Term(0.2, 2.0))
    assert MIXED_LOG_POWER.asymptotics() == Asymptotics(
        p_vacuum=Term(8.17 / -0.99, -0.99), p_infinity=Term(0.077, 3.0, -1.0),
        dp_vacuum=Term(8.17, -1.99), dp_infinity=Term(3.0 * 0.077, 2.0, -1.0))
    # Equal leading terms add up; a larger log power wins a tie in a.
    both = parse_law("linear_combination(1.0*log,2.0*generalized(3.0,-1.0),1.0*isothermal(1.0))")
    assert both.asymptotics().p_vacuum == Term(-7.0, 0.0, 1.0)
    assert both.asymptotics().dp_infinity == Term(1.0, 0.0)
    assert combine([GammaIntegralLaw(), IsothermalLaw(2.0)], [1.0, 1.0]).asymptotics(
        ).dp_vacuum == Term(4.0, 0.0)


def _exact_p_and_dp(law, rho, mp):
    """p and p' of a law from its formula, at an mpmath density."""
    if isinstance(law, LinearCombinationLaw):
        parts = [_exact_p_and_dp(member, rho, mp) for member in law.laws]
        return tuple(sum(w * part[k] for w, part in zip(law.weights, parts)) for k in (0, 1))
    if isinstance(law, GeneralizedGammaLaw):
        alpha, delta = mp.mpf(law.alpha), mp.mpf(law.delta)
        if delta == -1:
            return alpha * mp.log(rho), alpha / rho
        return alpha * rho**(delta + 1) / (delta + 1), alpha * rho**delta
    if isinstance(law, SumGammaLaw):
        exponents = [mp.mpf(i) / 5 for i in range(1, 11)]
        return (sum(rho**(1 + e) / (1 + e) for e in exponents) / 10,
                sum(rho**e for e in exponents) / 10)
    assert isinstance(law, GammaIntegralLaw)
    u = mp.log(rho)
    return (rho**3 - rho) / u, (3 * rho**2 - 1) / u - (rho**2 - 1) / u**2


@pytest.mark.parametrize("law", PARSED_LAWS + [MIXED_LOG_POWER], ids=lambda l: l.spec())
def test_asymptotics_match_a_50_digit_oracle(law):
    """Each leading term within 2% of p or p' at rho = 1e-30 and 1e30 (the
    next term of gamma_integral's p' is 1/ln(rho) = 1.4% of it there)."""
    mp = pytest.importorskip("mpmath")
    ends = law.asymptotics()
    with mp.workdps(50):
        for rho, p_term, dp_term in ((mp.mpf("1e-30"), ends.p_vacuum, ends.dp_vacuum),
                                     (mp.mpf("1e30"), ends.p_infinity, ends.dp_infinity)):
            for term, exact in zip((p_term, dp_term), _exact_p_and_dp(law, rho, mp)):
                lead = term.coef * rho**term.a * abs(mp.log(rho))**term.b
                assert abs(lead / exact - 1) <= 0.02, (rho, term, float(lead / exact))


# -- law selector strings -----------------------------------------------------


@pytest.mark.parametrize("text, probe, expected", [
    ("gamma(1,1.4)", 2.0, 2.0**1.4),
    ("isothermal(340)", 2.0, 340.0**2 * 2.0),
    ("inverse", 2.0, -0.5),
    ("log", math.e, 1.0),
    ("generalized(1,-1)", math.e, 1.0),
])
def test_parse_law_evaluates(text, probe, expected):
    law = parse_law(text)
    assert float(law.p(probe)) == pytest.approx(expected, rel=1e-12)


def test_parse_linear_combination_with_weights():
    law = parse_law("linear_combination(2*gamma(1,1),0.5*log)")
    assert isinstance(law, LinearCombinationLaw)
    assert float(law.p(1.0)) == pytest.approx(2.0, rel=1e-14)


def test_parse_round_trip_through_spec():
    for text in ("gamma(1.0,1.4)", "sum_gamma", "inverse",
                 "linear_combination(1.0*gamma(1.0,3.0),1.0*log)"):
        law = parse_law(text)
        assert parse_law(law.spec()) == law


def test_parse_rejects_garbage():
    for bad in ("", "nosuchlaw", "gamma(1)", "gamma(1,2,3)", "gamma(1,2)x"):
        with pytest.raises(DomainError):
            parse_law(bad)


# -- float path ---------------------------------------------------------------

FLOAT_DENSITIES = (1e-6, 0.3, 1.0, 7.5, 1e6)
# Their p keeps NumPy's log, which returns an np.float64.
NUMPY_LOG_P = {"log", "generalized(1.0,-1.0)",
               "linear_combination(2.0*gamma(1.0,3.0),0.5*log)"}


@pytest.mark.parametrize("law", PARSED_LAWS, ids=lambda l: l.spec())
def test_float_path_returns_a_float(law):
    for rho in FLOAT_DENSITIES + tuple(np.float64(v) for v in FLOAT_DENSITIES):
        for method in ("p", "dp", "c"):
            value = getattr(law, method)(rho)
            if method == "p" and law.spec() in NUMPY_LOG_P:
                assert isinstance(value, float), (method, rho, type(value))
            else:
                assert type(value) is float, (method, rho, type(value))


@pytest.mark.parametrize("law", [l for l in PARSED_LAWS if l.power_form()],
                         ids=lambda l: l.spec())
def test_power_law_float_path_matches_the_array_path(law):
    """Bit for bit where the float path uses only *, / and sqrt (isothermal,
    log); within 2 ulp where it raises to a power: NumPy's SIMD ``power``
    loop is not the C library's ``pow`` that Python's ``**`` calls, and on
    x86-64 with AVX-512 the two differ by an ulp on about 5% of densities."""
    exact = isinstance(law, (IsothermalLaw, LogLaw))
    rho = np.geomspace(1e-6, 1e6, 401)
    for method in ("p", "dp", "c"):
        f = getattr(law, method)
        on_array = np.asarray(f(rho), dtype=float)
        on_float = np.array([f(float(v)) for v in rho])
        if exact:
            np.testing.assert_array_equal(on_float, on_array, err_msg=method)
        else:
            ulps = np.abs(on_float - on_array) / np.spacing(np.abs(on_array))
            assert ulps.max() <= 2.0, (method, ulps.max())


@pytest.mark.parametrize("law", PARSED_LAWS, ids=lambda l: l.spec())
def test_float_sound_speed_is_the_root_of_the_float_derivative(law):
    for rho in FLOAT_DENSITIES:
        assert law.c(rho) == math.sqrt(law.dp(rho))


@pytest.mark.parametrize("law", PARSED_LAWS, ids=lambda l: l.spec())
def test_edge_floats_take_the_array_path(law):
    """NaN, infinities, zeros, negative floats and floats whose powers
    overflow give what an array gives: no math error, no complex number."""
    with np.errstate(all="ignore"):
        for rho in (math.nan, math.inf, -math.inf, 0.0, -0.0, -2.0,
                    1e-300, 1e300, np.float64(1e-300), np.float64(1e300)):
            for method in ("p", "dp", "c"):
                f = getattr(law, method)
                value = f(rho)
                assert not isinstance(value, complex), (method, rho, value)
                np.testing.assert_allclose(
                    value, np.asarray(f(np.array([rho])), dtype=float)[0],
                    rtol=1e-14, err_msg=f"{method}({rho})")


def test_sum_gamma_edge_values():
    """The Horner form keeps the exponent sums' values at the edges."""
    law = SumGammaLaw()
    with np.errstate(all="ignore"):
        for rho in (math.nan, -math.inf, -2.0):
            for method in ("p", "dp", "c"):
                assert math.isnan(getattr(law, method)(rho)), (method, rho)
        for method in ("p", "dp", "c"):
            assert getattr(law, method)(math.inf) == math.inf
            assert getattr(law, method)(0.0) == 0.0


P_AND_C_DENSITIES = (0.3, 1.0, 7.5, 1e6, np.float64(2.5), math.nan, 0.0, -2.0,
                     -math.inf, math.inf)


def _bits(value):
    return type(value), np.asarray(value, dtype=float).tobytes()


@pytest.mark.parametrize("law", PARSED_LAWS, ids=lambda l: l.spec())
def test_p_and_c_is_p_and_c_bit_for_bit(law):
    arrays = (np.array(P_AND_C_DENSITIES, dtype=float), np.geomspace(1e-6, 1e6, 301),
              np.array([[0.5, -1.0], [math.nan, 2.0]]))
    with np.errstate(all="ignore"):
        for rho in P_AND_C_DENSITIES + arrays:
            p, c = law.p_and_c(rho)
            assert _bits(p) == _bits(law.p(rho)), ("p", rho)
            assert _bits(c) == _bits(law.c(rho)), ("c", rho)


def test_horner_on_arrays_is_the_out_of_place_recurrence_bit_for_bit():
    r = np.concatenate([np.geomspace(1e-3, 1e3, 501), [0.0, math.inf, math.nan]])
    with np.errstate(all="ignore"):
        for coefficients in (SumGammaLaw._P, SumGammaLaw._DP, SumGammaLaw._D2P,
                             SumGammaLaw._D3P):
            total = coefficients[0]
            for a in coefficients[1:]:
                total = total * r + a
            assert _horner(coefficients, r).tobytes() == (total * r).tobytes()


def test_sum_gamma_matches_a_high_precision_oracle():
    """p, p', p'' and p''' to 1e-14 of the sum of the terms' magnitudes,
    on floats and on arrays, against 30-digit exponent sums."""
    mpmath = pytest.importorskip("mpmath")
    law = SumGammaLaw()
    rho = np.geomspace(1e-6, 1e6, 200)
    # method -> (coefficient, exponent) of the i-th term
    terms = {
        "p": lambda i: (mpmath.mpf(1) / (10 + 2 * i), mpmath.mpf(5 + i) / 5),
        "dp": lambda i: (mpmath.mpf(1) / 10, mpmath.mpf(i) / 5),
        "d2p": lambda i: (mpmath.mpf(i) / 50, mpmath.mpf(i - 5) / 5),
        "d3p": lambda i: (mpmath.mpf(i * (i - 5)) / 250, mpmath.mpf(i - 10) / 5),
    }
    with mpmath.workdps(30):
        for method, term in terms.items():
            f = getattr(law, method)
            on_array = np.asarray(f(rho), dtype=float)
            for k, x in enumerate(rho):
                values = [a * mpmath.mpf(float(x)) ** e
                          for a, e in map(term, range(1, 11))]
                exact = sum(values)
                magnitude = float(sum(abs(v) for v in values))
                for got in (f(float(x)), on_array[k]):
                    assert abs(float(got - exact)) <= 1e-14 * magnitude, (
                        method, x, got)


# -- the power family ---------------------------------------------------------

KAPPA, GAMMA, C0 = 0.7142857142857143, 1.4, 340.0

# Each member against its own closed formula, written once for Python floats
# and NumPy arrays: exponent -1 is a division on both.
MEMBER_FORMULAS = [
    (GammaLaw(KAPPA, GAMMA), {
        "p": lambda r: KAPPA * r**GAMMA,
        "dp": lambda r: KAPPA * GAMMA * r**(GAMMA - 1.0),
        "c": lambda r: np.sqrt(KAPPA * GAMMA * r**(GAMMA - 1.0)),
        "d2p": lambda r: KAPPA * GAMMA * (GAMMA - 1.0) * r**(GAMMA - 2.0),
        "d3p": lambda r: (KAPPA * GAMMA * (GAMMA - 1.0) * (GAMMA - 2.0)
                          * r**(GAMMA - 3.0)),
    }),
    (inverse_law(), {
        "p": lambda r: -1.0 / r,
        "dp": lambda r: r**-2.0,
        "c": lambda r: np.sqrt(r**-2.0),
    }),
    (IsothermalLaw(C0), {
        "p": lambda r: C0 * C0 * r,
        "dp": lambda r: C0 * C0 + 0.0 * r,
        "c": lambda r: C0 + 0.0 * r,
        "d2p": lambda r: 0.0 * r,
        "d3p": lambda r: 0.0 * r,
    }),
    (LogLaw(), {
        "p": np.log,
        "dp": lambda r: 1.0 / r,
        "c": lambda r: np.sqrt(1.0 / r),
        "d2p": lambda r: -1.0 * r**-2.0,
        "d3p": lambda r: 2.0 * r**-3.0,
    }),
    (GeneralizedGammaLaw(1.0, -1.0), {
        "p": np.log,
        "dp": lambda r: 1.0 / r,
        "c": lambda r: np.sqrt(1.0 / r),
    }),
    (GeneralizedGammaLaw(2.0, 0.5), {
        "p": lambda r: 2.0 / 1.5 * r**1.5,
        "dp": lambda r: 2.0 * r**0.5,
        "d2p": lambda r: 2.0 * 0.5 * r**-0.5,
    }),
]


@pytest.mark.parametrize("law, formulas", MEMBER_FORMULAS,
                         ids=[law.spec() for law, _ in MEMBER_FORMULAS])
def test_power_family_members_follow_their_own_formula_bit_for_bit(law, formulas):
    rho = np.geomspace(1e-6, 1e6, 4001)
    for method, formula in formulas.items():
        f = getattr(law, method)
        on_float = np.array([f(float(v)) for v in rho])
        by_formula = np.array([float(formula(float(v))) for v in rho])
        assert on_float.tobytes() == by_formula.tobytes(), (method, "float")
        on_array = np.asarray(f(rho), dtype=float)
        assert on_array.tobytes() == formula(rho).tobytes(), (method, "array")


@pytest.mark.parametrize("law", [IsothermalLaw(340.0), IsothermalLaw(0.3),
                                 GeneralizedGammaLaw(2.5, 0.0)], ids=lambda l: l.spec())
def test_zero_exponent_sound_speed_is_the_power_form(law):
    """``sqrt(alpha * rho**0.0)`` in value and type, with no power taken."""
    with np.errstate(all="ignore"):
        for rho in (1.7, 0.0, -2.0, math.nan, math.inf, np.float64(3.0), 3,
                    np.array(2.0), np.array([1.0, math.nan, -1.0, 0.0]),
                    [1.0, 2.0], np.ones((2, 3)), np.array([])):
            value, expected = law.c(rho), _sqrt(law.alpha * _pow(rho, 0.0))
            assert type(value) is type(expected), rho
            assert np.shape(value) == np.shape(expected), rho
            assert np.asarray(value).tobytes() == np.asarray(expected).tobytes(), rho


def test_power_family_members_define_no_evaluation_method():
    """The members hold parameters; the family base evaluates them all."""
    methods = {"p", "dp", "d2p", "d3p", "c", "power_form", "rho_from_pressure"}
    for member in (GammaLaw, IsothermalLaw, LogLaw):
        assert issubclass(member, GeneralizedGammaLaw)
        assert not methods & vars(member).keys(), member.__name__


@pytest.mark.parametrize("text, methods", [
    ("inverse", ("p",)), ("generalized(2.0,-2.0)", ("p",)),
    ("generalized(1.0,-1.0)", ("dp", "c")), ("generalized(3.0,-1.0)", ("dp", "c")),
])
def test_float_and_array_paths_agree_at_exponent_minus_one(text, methods):
    law = parse_law(text)
    rho = np.geomspace(1e-6, 1e6, 4001)
    for method in methods:
        f = getattr(law, method)
        on_float = np.array([f(float(v)) for v in rho])
        on_float64 = np.array([f(np.float64(v)) for v in rho])
        on_array = np.asarray(f(rho), dtype=float)
        assert on_float.tobytes() == on_array.tobytes(), method
        assert on_float64.tobytes() == on_array.tobytes(), method


@pytest.mark.parametrize("pressure, text", [
    *((pressure, text) for pressure in (math.nan, math.inf, -math.inf, 0.0, -1.0)
      for text in ("gamma(1.0,1.4)", "isothermal(340.0)", "log", "inverse",
                   "generalized(2.0,0.5)")),
    # Finite pressures whose closed-form density overflows or underflows.
    (1000.0, "log"), (-1000.0, "log"), (1e300, "gamma(1.0,0.5)"),
    (1e300, "generalized(2.0,-0.5)"), (1e-300, "gamma(1.0,0.5)"),
])
def test_power_family_inverts_only_pressures_in_its_range(text, pressure):
    """The closed-form inverse raises where the generic inversion does, and
    names the pressure and the law; elsewhere the two agree."""
    law = parse_law(text)
    try:
        generic = PressureLaw.rho_from_pressure(law, pressure)
    except DomainError:
        with pytest.raises(DomainError) as info:
            law.rho_from_pressure(pressure)
        assert repr(pressure) in str(info.value) and law.label in str(info.value)
    else:
        assert law.rho_from_pressure(pressure) == pytest.approx(generic, rel=1e-12)
