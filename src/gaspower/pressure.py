"""Pressure laws for isentropic pipe flow and a well-posedness checker.

A pressure law is any strictly increasing ``p(rho)`` on ``rho > 0``; strict
hyperbolicity of the flow equations requires ``p'(rho) > 0`` everywhere. The
checker in :func:`check_sufficient_conditions` decides a set of sufficient
conditions under which interface and junction Riemann problems with
sub-sonic data have a unique solution:

* concavity of the wave curves, expressed through
  ``2 p' + rho p'' >= 0`` and ``6 p' + 6 rho p'' + rho^2 p''' >= 0``;
* decay of the curves at large density, via unbounded pressure growth or
  the bound ``p' <= -p/rho``;
* controlled behaviour near vacuum, via a negative limit of ``rho * p(rho)``
  or one of three tameness conditions on the sound speed ``c = sqrt(p')``.

Inequalities are tested at every point of a log-spaced density grid. Limits
are exact: every law states the leading term ``coef * rho**a * |ln rho|**b``
of p and p' at both ends (:meth:`PressureLaw.asymptotics`), and the checker
reads the limit conditions off those terms.

Any positive linear combination of laws passing these conditions passes them
again (they form a convex cone), which :func:`combine` exploits.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .roots import brentq

# Inequality slack, relative to the magnitude of the terms being compared.
# Exact-boundary laws (e.g. p'(rho) ~ rho^2) evaluate to zero up to float
# cancellation, which scales with the term size on a grid spanning 1e-6..1e6.
REL_TOL = 1e-12


def _float_or_array(rho):
    """A positive float (``np.float64`` included) as a plain float, which the
    laws evaluate with Python arithmetic and :mod:`math`, without NumPy's
    dispatch; anything else (arrays, NaN, non-positive floats) as a float
    array, which keeps NumPy's NaN and infinity conventions."""
    if isinstance(rho, float) and rho > 0.0:
        return float(rho)
    return np.asarray(rho, dtype=float)


def _pow(rho, exponent):
    """``_float_or_array(rho) ** exponent``, inlined for the power laws.

    ``math.pow`` calls the C library's ``pow`` as Python's ``**`` does; a
    float power that overflows is inf, as on arrays, not an ``OverflowError``.
    Exponent -1 is a division, as in NumPy's array ``power``.
    """
    if isinstance(rho, float) and rho > 0.0:
        if exponent == -1.0:
            return 1.0 / float(rho)
        try:
            return math.pow(rho, exponent)
        except OverflowError:
            return math.inf
    return np.asarray(rho, dtype=float) ** exponent


def _horner(coefficients, r):
    """``sum_i a_i r**i`` for i = n..1, with ``coefficients`` = (a_n, ..., a_1);
    in place on one array when ``r`` is an array."""
    rest = iter(coefficients)
    total = next(rest) * r
    for a in rest:
        total += a
        total *= r
    return total


def _sqrt(x):
    """Square root of a float (NaN below zero, as on arrays) or an array."""
    if isinstance(x, float):
        return math.sqrt(x) if x >= 0.0 else math.nan
    return np.sqrt(x)


class Term(NamedTuple):
    """Leading term ``coef * rho**a * |ln rho|**b`` of a function at one end."""

    coef: float
    a: float
    b: float = 0.0


class Asymptotics(NamedTuple):
    """Leading terms of p and p' as rho -> 0 (vacuum) and rho -> inf."""

    p_vacuum: Term
    p_infinity: Term
    dp_vacuum: Term
    dp_infinity: Term


def _leading(terms, at_vacuum: bool) -> Term:
    """The term of a sum that dominates at vacuum (smallest a) or at infinity
    (largest a), ties broken by the larger b; equal terms add up."""
    def order(t):
        return (-t.a if at_vacuum else t.a, t.b)

    top = max(map(order, terms))
    lead = [t for t in terms if order(t) == top]
    return Term(sum(t.coef for t in lead), lead[0].a, lead[0].b)


class PressureLaw:
    """Strictly increasing pressure as a function of density.

    Subclasses supply ``p`` and ``dp``; second and third derivatives default
    to central differences with step ``1e-4 * rho``. All evaluators accept
    floats or numpy arrays of positive densities; ``p``, ``dp`` and ``c``
    return a float for a float argument.
    """

    label = "pressure-law"

    def p(self, rho):
        raise NotImplementedError

    def dp(self, rho):
        raise NotImplementedError

    def d2p(self, rho):
        h = 1e-4 * rho
        return (self.dp(rho + h) - self.dp(rho - h)) / (2.0 * h)

    def d3p(self, rho):
        h = 1e-4 * rho
        return (self.dp(rho + h) - 2.0 * self.dp(rho) + self.dp(rho - h)) / (h * h)

    def c(self, rho):
        """Sound speed sqrt(p'(rho))."""
        return _sqrt(self.dp(rho))

    def p_and_c(self, rho):
        """``(p(rho), c(rho))`` bit for bit; a law may share work between them."""
        return self.p(rho), self.c(rho)

    def power_form(self):
        """Return (alpha, delta) if ``p'(rho) = alpha * rho**delta``, else None.

        Used for closed-form rarefaction integrals and analytic inverses.
        """
        return None

    def asymptotics(self) -> Asymptotics:
        """Leading terms of p and p' at both ends, from which
        :func:`check_sufficient_conditions` reads the limit conditions."""
        raise DomainError(
            f"{type(self).__name__} ({self.label}) defines no asymptotics(): "
            "the well-posedness checker cannot decide its limits"
        )

    def rho_from_pressure(self, pressure: float) -> float:
        """Invert the (monotone) pressure law; DomainError outside its range."""
        lo, hi = 1e-9, 1e9
        for _ in range(80):
            if self.p(lo) <= pressure:
                break
            lo *= 0.5
        else:
            raise DomainError(f"pressure {pressure!r} below range of {self.label}")
        for _ in range(80):
            if self.p(hi) >= pressure:
                break
            hi *= 2.0
        else:
            raise DomainError(f"pressure {pressure!r} above range of {self.label}")
        if self.p(lo) == pressure:
            return lo
        return brentq(lambda r: self.p(r) - pressure, lo, hi, xtol=1e-15 * lo, rtol=1e-15)

    def spec(self) -> str:
        """Canonical parseable description, see :func:`parse_law`."""
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.spec()}>"

    def __eq__(self, other):
        return isinstance(other, PressureLaw) and self.spec() == other.spec()

    def __hash__(self):
        return hash(self.spec())


class GeneralizedGammaLaw(PressureLaw):
    """Law defined through its derivative ``p'(rho) = alpha * rho**delta``.

    Integrating gives ``p = alpha rho^(delta+1)/(delta+1)`` for delta != -1
    and ``p = alpha ln(rho)`` for delta == -1. ``valid`` is the closed
    admissibility characterization :func:`classify_generalized_gamma`.

    This class evaluates the whole power family. It holds each derivative as
    ``p^(k)(rho) = a_k * rho**e_k``; the gamma, isothermal and log laws are
    members that take ``a_k`` and ``e_k`` from their own formula, so they keep
    its arithmetic. The exponent ``e_0 = 0`` of p stands for the logarithm.
    """

    def __init__(self, alpha: float, delta: float):
        if alpha == 0.0:
            raise DomainError("alpha must be nonzero")
        self.label = f"generalized(alpha={alpha:g}, delta={delta:g})"
        alpha, delta = float(alpha), float(delta)
        g = delta + 1.0
        self._set_terms((alpha / g if g else alpha, g), (alpha, delta),
                        (alpha * delta, delta - 1.0),
                        (alpha * delta * (delta - 1.0), delta - 2.0))

    def _set_terms(self, p, dp, d2p, d3p):
        """Store the ``(a_k, e_k)`` pairs of p, p', p'' and p'''."""
        self._p_coef, self._p_exp = p
        self.alpha, self.delta = dp
        self._c_const = _sqrt(self.alpha)  # c when delta == 0
        self._d2p_coef, self._d2p_exp = d2p
        self._d3p_coef, self._d3p_exp = d3p

    @property
    def valid(self) -> bool:
        return classify_generalized_gamma(self.alpha, self.delta)

    def p(self, rho):
        if self._p_exp == 0.0:
            return self._p_coef * np.log(rho)
        return self._p_coef * _pow(rho, self._p_exp)

    def dp(self, rho):
        return self.alpha * _pow(rho, self.delta)

    def d2p(self, rho):
        return self._d2p_coef * _pow(rho, self._d2p_exp)

    def d3p(self, rho):
        return self._d3p_coef * _pow(rho, self._d3p_exp)

    def c(self, rho):
        """``_sqrt(self.dp(rho))`` bit for bit, without the call.

        A zero exponent takes no power: ``rho**0.0`` is 1.0 for every float,
        NaN included, so c is the constant ``sqrt(alpha)``, returned in the
        type ``_pow`` would give (a float for a scalar, else an array).
        """
        if self.delta == 0.0:
            if isinstance(rho, float):
                return self._c_const
            shape = np.shape(rho)
            return np.full(shape, self._c_const) if shape else self._c_const
        return _sqrt(self.alpha * _pow(rho, self.delta))

    def power_form(self):
        return (self.alpha, self.delta)

    def asymptotics(self):
        dp = Term(self.alpha, self.delta)
        if self._p_exp == 0.0:  # p = a ln(rho) = -a |ln rho| at vacuum
            return Asymptotics(Term(-self._p_coef, 0.0, 1.0),
                               Term(self._p_coef, 0.0, 1.0), dp, dp)
        p = Term(self._p_coef, self._p_exp)
        return Asymptotics(p, p, dp, dp)

    def rho_from_pressure(self, pressure):
        if not math.isfinite(pressure):
            raise DomainError(f"pressure {pressure!r} outside range of {self.label}")
        ratio = pressure / self._p_coef
        try:
            if self._p_exp == 0.0:
                rho = math.exp(ratio)
            elif ratio > 0.0:
                rho = ratio ** (1.0 / self._p_exp)
            else:
                raise DomainError(f"pressure {pressure!r} outside range of {self.label}")
        except OverflowError:
            rho = math.inf
        if 0.0 < rho < math.inf:
            return rho
        side = "above" if rho else "below"
        raise DomainError(f"pressure {pressure!r} {side} range of {self.label}")

    def spec(self):
        return f"generalized({self.alpha!r},{self.delta!r})"


class GammaLaw(GeneralizedGammaLaw):
    """p(rho) = kappa * rho**gamma.

    Requires kappa * gamma > 0 so that p' > 0 (this admits the inverse-type
    laws with negative kappa and gamma).
    """

    def __init__(self, kappa: float, gamma: float, label: str | None = None):
        if kappa * gamma <= 0.0:
            raise DomainError(
                f"gamma law needs kappa*gamma > 0, got kappa={kappa}, gamma={gamma}"
            )
        self.kappa = k = float(kappa)
        self.gamma = g = float(gamma)
        self.label = label or f"gamma(kappa={kappa:g}, gamma={gamma:g})"
        self._set_terms((k, g), (k * g, g - 1.0), (k * g * (g - 1.0), g - 2.0),
                        (k * g * (g - 1.0) * (g - 2.0), g - 3.0))

    def spec(self):
        return f"gamma({self.kappa!r},{self.gamma!r})"


class IsothermalLaw(GeneralizedGammaLaw):
    """p(rho) = c^2 * rho with constant acoustic speed c."""

    def __init__(self, c: float):
        if c <= 0.0:
            raise DomainError(f"acoustic speed must be positive, got {c}")
        self.c0 = float(c)
        self.label = f"isothermal(c={c:g})"
        c2 = self.c0 * self.c0
        self._set_terms((c2, 1.0), (c2, 0.0), (0.0, 0.0), (0.0, 0.0))

    def spec(self):
        return f"isothermal({self.c0!r})"


class LogLaw(GeneralizedGammaLaw):
    """p(rho) = ln(rho); the gamma->0 member of the generalized family."""

    label = "log"

    def __init__(self):
        self._set_terms((1.0, 0.0), (1.0, -1.0), (-1.0, -2.0), (2.0, -3.0))

    def spec(self):
        return "log"


class SumGammaLaw(PressureLaw):
    """p(rho) = (1/10) * sum_{i=1..10} rho^(1+i/5) / (1+i/5).

    Scaled so that p'(1) = 1, like the other benchmark laws. With
    ``r = rho**0.2`` and sums over i = 1..10, Horner's rule evaluates
    ``p = 0.1 rho sum r^i 5/(5+i)``, ``p' = 0.1 sum r^i``,
    ``p'' = 0.1/rho sum (i/5) r^i`` and ``p''' = 0.1/rho^2 sum (i/5)(i/5-1) r^i``.
    """

    label = "sum_gamma"
    # Coefficients of r^10 down to r^1.
    _P = tuple(5.0 / (5 + i) for i in range(10, 0, -1))
    _DP = (1.0,) * 10
    _D2P = tuple(i / 5.0 for i in range(10, 0, -1))
    _D3P = tuple(i / 5.0 * (i / 5.0 - 1.0) for i in range(10, 0, -1))

    @staticmethod
    def _root(rho):
        """(rho, rho**0.2) with r = NaN at negative densities; pow gives +inf
        at -inf, where the exponent sums of p and p' were NaN."""
        rho = _float_or_array(rho)
        if isinstance(rho, float):
            return rho, rho**0.2
        return rho, np.where(rho < 0.0, np.nan, rho**0.2)

    def p(self, rho):
        rho, r = self._root(rho)
        return 0.1 * rho * _horner(self._P, r)

    def dp(self, rho):
        return 0.1 * _horner(self._DP, self._root(rho)[1])

    def p_and_c(self, rho):
        rho, r = self._root(rho)
        return 0.1 * rho * _horner(self._P, r), _sqrt(0.1 * _horner(self._DP, r))

    def d2p(self, rho):
        rho, r = self._root(rho)
        return 0.1 / rho * _horner(self._D2P, r)

    def d3p(self, rho):
        rho, r = self._root(rho)
        return 0.1 / rho / rho * _horner(self._D3P, r)

    def asymptotics(self):
        # Led by the terms i = 1 at vacuum and i = 10 at infinity.
        return Asymptotics(Term(0.1 / 1.2, 1.2), Term(0.1 / 3.0, 3.0),
                           Term(0.1, 0.2), Term(0.1, 2.0))

    def spec(self):
        return "sum_gamma"


class GammaIntegralLaw(PressureLaw):
    """p(rho) = (rho^3 - rho)/ln(rho), i.e. the gamma-law averaged over
    exponents 1..3.

    It passes the well-posedness checker: p grows without bound, and near
    vacuum its sound speed vanishes like ``|ln rho|**-0.5`` (see
    :meth:`asymptotics`) while ``2 p' - rho p'' >= 0`` holds.

    With ``u = ln(rho)`` it evaluates ``w = (rho - 1)(rho + 1)/u``, in which
    nothing cancels (``rho - 1`` is exact near 1), ``p = rho w`` and
    ``p' = 2 w + (rho^2 + 1 - w)/u``. The last numerator is ``2 rho u s'(u)``
    with ``s(u) = sinh(u)/u``; for ``|u| < 0.5``, where it cancels, it is
    summed as the Taylor series of ``u s'(u)``.
    """

    label = "gamma_integral"
    # u s'(u) = sum_k 2k/(2k+1)! (u^2)^k: coefficients for k = 8..1, the terms
    # beyond k = 8 being below 1e-18 of p' on |u| < 0.5.
    _DS = tuple(2.0 * k / math.factorial(2 * k + 1) for k in range(8, 0, -1))

    @staticmethod
    def _w(rho):
        """(rho, u, w) as float arrays, with w = 2 (its limit) at u = 0."""
        rho = np.asarray(rho, dtype=float)
        u = np.log(rho)
        at_one = u == 0.0
        w = (rho - 1.0) * (rho + 1.0) / np.where(at_one, 1.0, u)
        return rho, u, np.where(at_one, 2.0, w)

    def p(self, rho):
        rho, _, w = self._w(rho)
        out = rho * w
        return out if out.ndim else float(out)

    def dp(self, rho):
        rho, u, w = self._w(rho)
        numerator = np.where(np.abs(u) < 0.5, 2.0 * rho * _horner(self._DS, u * u),
                             rho * rho + 1.0 - w)
        out = 2.0 * w + numerator / np.where(u == 0.0, 1.0, u)
        return out if out.ndim else float(out)

    def asymptotics(self):
        # p ~ rho/(-ln rho), p' ~ 1/(-ln rho) at vacuum;
        # p ~ rho^3/ln rho, p' ~ 3 rho^2/ln rho at infinity.
        return Asymptotics(Term(1.0, 1.0, -1.0), Term(1.0, 3.0, -1.0),
                           Term(1.0, 0.0, -1.0), Term(3.0, 2.0, -1.0))

    def spec(self):
        return "gamma_integral"


class LinearCombinationLaw(PressureLaw):
    """Pointwise positive linear combination of pressure laws."""

    def __init__(self, laws, weights):
        laws = tuple(laws)
        weights = tuple(float(w) for w in weights)
        if not laws:
            raise DomainError("linear combination needs at least one law")
        if len(weights) != len(laws):
            raise DomainError("one weight per law required")
        if any(w <= 0.0 for w in weights):
            raise DomainError(f"weights must be positive, got {weights}")
        self.laws = laws
        self.weights = weights
        self.label = "combination(" + ", ".join(l.label for l in laws) + ")"
        # Members and weights are immutable: the spec (which the law hashes
        # by) and the power form are built once, not on every wave-curve call.
        self._spec = "linear_combination({})".format(
            ",".join(f"{w!r}*{law.spec()}" for w, law in zip(weights, laws)))
        forms = [law.power_form() for law in laws]
        self._power_form = None
        if None not in forms and len({f[1] for f in forms}) == 1:
            self._power_form = (sum(w * f[0] for w, f in zip(weights, forms)),
                                forms[0][1])

    def _sum(self, attr, rho):
        total = self.weights[0] * getattr(self.laws[0], attr)(rho)
        for w, law in zip(self.weights[1:], self.laws[1:]):
            total = total + w * getattr(law, attr)(rho)
        return total

    def p(self, rho):
        return self._sum("p", rho)

    def dp(self, rho):
        return self._sum("dp", rho)

    def d2p(self, rho):
        return self._sum("d2p", rho)

    def d3p(self, rho):
        return self._sum("d3p", rho)

    def power_form(self):
        return self._power_form

    def asymptotics(self):
        """Each end's dominant weighted member term."""
        p0, p_inf, dp0, dp_inf = zip(*(
            [Term(w * t.coef, t.a, t.b) for t in law.asymptotics()]
            for w, law in zip(self.weights, self.laws)))
        return Asymptotics(_leading(p0, True), _leading(p_inf, False),
                           _leading(dp0, True), _leading(dp_inf, False))

    def spec(self):
        return self._spec


def inverse_law() -> GammaLaw:
    """p(rho) = -1/rho (a gamma law with kappa = gamma = -1); p'(1) = 1."""
    return GammaLaw(-1.0, -1.0, label="inverse")


def sound_speed(law: PressureLaw, rho: float) -> float:
    """c(rho) = sqrt(p'(rho)); densities must be strictly positive (not NaN)."""
    if not np.all(np.asarray(rho) > 0.0):
        raise DomainError(f"density must be positive, got {rho!r}")
    return law.c(rho)


def combine(laws, weights) -> LinearCombinationLaw:
    """Positive linear combination of pressure laws.

    If every member passes :func:`check_sufficient_conditions`, so does the
    combination (the conditions are positively linear in p).
    """
    return LinearCombinationLaw(laws, weights)


def classify_generalized_gamma(alpha: float, delta: float) -> bool:
    """Closed-form admissibility of p'(rho) = alpha * rho**delta.

    True exactly when alpha > 0 and |delta| <= 2, boundary included.
    """
    return alpha > 0.0 and abs(delta) <= 2.0


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of the sufficient-condition checks for one pressure law.

    The two ``concave_*`` flags are the curvature inequalities; the two
    ``pressure_*`` flags are the alternative large-density conditions; the
    remaining four are the alternative near-vacuum conditions.
    ``worst_violation`` is the largest relative violation among the pointwise
    inequalities that the verdict rests on.
    """

    law_label: str
    concave_rarefaction: bool        # 2 p' + rho p''           >= 0
    concave_shock: bool              # 6 p' + 6 rho p'' + rho^2 p''' >= 0
    pressure_unbounded: bool         # p -> +inf  as rho -> inf
    pressure_decay_bound: bool       # p' <= -p/rho  everywhere
    vacuum_limit_negative: bool      # rho * p(rho) -> -p0 < 0
    sound_speed_vanishes_tamely: bool   # c -> 0 and 2 p' - rho p'' >= 0
    sound_speed_finite_limit: bool      # 0 < lim c < inf
    sound_speed_integrable_blowup: bool  # rho^eta c -> (0, inf), eta in (0,1)
    worst_violation: float

    @property
    def concavity_ok(self) -> bool:
        return self.concave_rarefaction and self.concave_shock

    @property
    def growth_ok(self) -> bool:
        return self.pressure_unbounded or self.pressure_decay_bound

    @property
    def vacuum_ok(self) -> bool:
        return (
            self.vacuum_limit_negative
            or self.sound_speed_vanishes_tamely
            or self.sound_speed_finite_limit
            or self.sound_speed_integrable_blowup
        )

    @property
    def valid(self) -> bool:
        return self.concavity_ok and self.growth_ok and self.vacuum_ok

    def summary(self) -> str:
        rows = [
            ("concave (rarefaction part)", self.concave_rarefaction),
            ("concave (shock part)", self.concave_shock),
            ("pressure unbounded", self.pressure_unbounded),
            ("pressure decay bound", self.pressure_decay_bound),
            ("vacuum limit negative", self.vacuum_limit_negative),
            ("sound speed vanishes tamely", self.sound_speed_vanishes_tamely),
            ("sound speed finite limit", self.sound_speed_finite_limit),
            ("sound speed integrable blow-up", self.sound_speed_integrable_blowup),
        ]
        lines = [f"pressure law: {self.law_label}"]
        lines += [f"  {name:32s} {'yes' if ok else 'no'}" for name, ok in rows]
        lines.append(f"  worst violation: {self.worst_violation:.3e}")
        lines.append(f"  => {'VALID' if self.valid else 'INVALID'}")
        return "\n".join(lines)


def _nonneg(expr: np.ndarray, scale: np.ndarray) -> tuple[bool, float]:
    """Check expr >= 0 up to REL_TOL * max(1, scale); return (ok, worst)."""
    slack = REL_TOL * np.maximum(1.0, scale)
    violation = np.maximum(0.0, -(expr + slack))
    worst = float(np.max(violation / np.maximum(1.0, scale))) if violation.size else 0.0
    return bool(np.all(expr >= -slack)), worst


def check_sufficient_conditions(law: PressureLaw) -> ValidityReport:
    """Evaluate the well-posedness conditions of a pressure law.

    Pointwise inequalities are checked at 10^4 log-spaced densities from
    1e-6 to 1e6, with a slack of ``REL_TOL`` relative to the magnitude of
    the compared terms. The limits rho -> 0 and rho -> inf are read off the law's exact
    leading terms, :meth:`PressureLaw.asymptotics`; a law without them is a
    ``DomainError``. ``worst_violation`` counts an inequality only where the
    limits make it the deciding condition: the decay bound when p stays
    bounded, the tame-vanishing inequality when c vanishes at vacuum.
    """
    ends = law.asymptotics()
    grid = np.geomspace(1e-6, 1e6, 10_000)
    try:
        p = np.asarray(law.p(grid), dtype=float)
        dp = np.asarray(law.dp(grid), dtype=float)
        d2p = np.asarray(law.d2p(grid), dtype=float)
        d3p = np.asarray(law.d3p(grid), dtype=float)
    except Exception as exc:  # propagate with the offending density range
        raise DomainError(
            f"evaluation of {law.label} failed on grid "
            f"[{grid[0]:g}, {grid[-1]:g}]: {exc}"
        ) from exc
    bad = ~np.isfinite(p) | ~np.isfinite(dp)
    if np.any(bad):
        raise DomainError(
            f"{law.label} is not finite at rho={grid[bad][0]:g}"
        )
    if np.any(dp <= 0.0):
        idx = int(np.argmax(dp <= 0.0))
        raise DomainError(
            f"{law.label} is not strictly increasing at rho={grid[idx]:g}"
        )

    # Curvature inequalities, pointwise on the grid.
    expr1 = 2.0 * dp + grid * d2p
    scale1 = 2.0 * np.abs(dp) + np.abs(grid * d2p)
    c1a, worst = _nonneg(expr1, scale1)

    expr2 = 6.0 * dp + 6.0 * grid * d2p + grid**2 * d3p
    scale2 = 6.0 * np.abs(dp) + 6.0 * np.abs(grid * d2p) + np.abs(grid**2 * d3p)
    c1b, w = _nonneg(expr2, scale2)
    worst = max(worst, w)

    # Large density: p is unbounded exactly when its leading term is; a
    # bounded p needs the decay bound.
    top = ends.p_infinity
    unbounded = top.a > 0.0 or (top.a == 0.0 and top.b > 0.0)
    expr_decay = -p / grid - dp
    scale_decay = np.abs(p / grid) + np.abs(dp)
    decay_bound, w = _nonneg(expr_decay, scale_decay)
    if not unbounded:
        worst = max(worst, w)

    # Near vacuum: rho * p(rho) tends to a negative limit exactly when p is
    # led by -p0/rho; c = sqrt(p') goes as rho^(a/2) |ln rho|^(b/2).
    low = ends.p_vacuum
    vacuum_negative = low.a == -1.0 and low.b == 0.0 and low.coef < 0.0
    a, b = ends.dp_vacuum.a, ends.dp_vacuum.b
    tame_vanish = False
    if a > 0.0 or (a == 0.0 and b < 0.0):  # c -> 0
        expr3 = 2.0 * dp - grid * d2p
        scale3 = 2.0 * np.abs(dp) + np.abs(grid * d2p)
        tame_vanish, w = _nonneg(expr3, scale3)
        worst = max(worst, w)

    return ValidityReport(
        law_label=law.label,
        concave_rarefaction=c1a,
        concave_shock=c1b,
        pressure_unbounded=unbounded,
        pressure_decay_bound=decay_bound,
        vacuum_limit_negative=vacuum_negative,
        sound_speed_vanishes_tamely=tame_vanish,
        sound_speed_finite_limit=a == 0.0 and b == 0.0,
        sound_speed_integrable_blowup=-2.0 < a < 0.0 and b == 0.0,
        worst_violation=worst,
    )


# -- textual law selection ---------------------------------------------------

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_MAX_NESTING = 32  # far below the depth at which Python's stack runs out


def parse_law(text: str) -> PressureLaw:
    """Build a pressure law from a selector string.

    Grammar (whitespace-insensitive)::

        law  ::= name | name "(" args ")"
        args ::= number-list            for gamma/isothermal/generalized
               | term ("," term)*       for linear_combination
        term ::= [number "*"] law

    Known names: gamma(kappa,gamma), isothermal(c), inverse, log, sum_gamma,
    gamma_integral, generalized(alpha,delta), linear_combination(...).
    Combinations nest at most ``_MAX_NESTING`` deep.
    """
    law, pos = _parse_law(text, 0, 0)
    if text[pos:].strip():
        raise DomainError(f"trailing input in law spec: {text[pos:]!r}")
    return law


def _skip_ws(text, pos):
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _parse_number(text, pos):
    m = re.match(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?", text[pos:])
    if not m:
        raise DomainError(f"expected a number at {text[pos:]!r}")
    return float(m.group(0)), pos + m.end()


def _parse_law(text, pos, depth):
    if depth > _MAX_NESTING:
        raise DomainError(f"law spec nests deeper than {_MAX_NESTING} levels")
    pos = _skip_ws(text, pos)
    m = _NAME_RE.match(text, pos)
    if not m:
        raise DomainError(f"expected a law name at {text[pos:]!r}")
    name = m.group(0).lower()
    pos = _skip_ws(text, m.end())
    args_present = pos < len(text) and text[pos] == "("

    if name == "inverse":
        return inverse_law(), pos
    if name == "log":
        return LogLaw(), pos
    if name == "sum_gamma":
        return SumGammaLaw(), pos
    if name == "gamma_integral":
        return GammaIntegralLaw(), pos

    if not args_present:
        raise DomainError(f"law {name!r} requires arguments")
    pos += 1  # consume "("

    if name in ("gamma", "isothermal", "generalized"):
        numbers = []
        while True:
            pos = _skip_ws(text, pos)
            value, pos = _parse_number(text, pos)
            numbers.append(value)
            pos = _skip_ws(text, pos)
            if pos < len(text) and text[pos] == ",":
                pos += 1
                continue
            break
        if pos >= len(text) or text[pos] != ")":
            raise DomainError(f"expected ')' at {text[pos:]!r}")
        pos += 1
        if name == "gamma":
            if len(numbers) != 2:
                raise DomainError("gamma(kappa,gamma) takes two arguments")
            return GammaLaw(numbers[0], numbers[1]), pos
        if name == "isothermal":
            if len(numbers) != 1:
                raise DomainError("isothermal(c) takes one argument")
            return IsothermalLaw(numbers[0]), pos
        if len(numbers) != 2:
            raise DomainError("generalized(alpha,delta) takes two arguments")
        return GeneralizedGammaLaw(numbers[0], numbers[1]), pos

    if name == "linear_combination":
        laws, weights = [], []
        while True:
            pos = _skip_ws(text, pos)
            weight = 1.0
            save = pos
            try:
                weight, pos = _parse_number(text, pos)
                pos = _skip_ws(text, pos)
                if pos < len(text) and text[pos] == "*":
                    pos += 1
                else:
                    weight, pos = 1.0, save
            except DomainError:
                pos = save
            law, pos = _parse_law(text, pos, depth + 1)
            laws.append(law)
            weights.append(weight)
            pos = _skip_ws(text, pos)
            if pos < len(text) and text[pos] == ",":
                pos += 1
                continue
            break
        if pos >= len(text) or text[pos] != ")":
            raise DomainError(f"expected ')' at {text[pos:]!r}")
        return LinearCombinationLaw(laws, weights), pos + 1

    raise DomainError(f"unknown pressure law {name!r}")
