"""Pressure laws for isentropic pipe flow and a numeric well-posedness checker.

A pressure law is any strictly increasing ``p(rho)`` on ``rho > 0``; strict
hyperbolicity of the flow equations requires ``p'(rho) > 0`` everywhere. The
checker in :func:`check_sufficient_conditions` evaluates, on a log-spaced
density grid, a set of sufficient conditions under which interface and
junction Riemann problems with sub-sonic data have a unique solution:

* concavity of the wave curves, expressed through
  ``2 p' + rho p'' >= 0`` and ``6 p' + 6 rho p'' + rho^2 p''' >= 0``;
* decay of the curves at large density, via unbounded pressure growth or
  the bound ``p' <= -p/rho``;
* controlled behaviour near vacuum, via a negative limit of ``rho * p(rho)``
  or one of three tameness conditions on the sound speed ``c = sqrt(p')``.

Any positive linear combination of laws passing these conditions passes them
again (they form a convex cone), which :func:`combine` exploits.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

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

    def power_terms(self):
        """Pairs (alpha, delta) with ``p' = sum alpha * rho**delta`` and p the
        sum of their integrals without a constant; None for other laws.

        The well-posedness checker reads the exact vacuum behaviour off them.
        """
        form = self.power_form()
        return None if form is None else (form,)

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

    def power_terms(self):
        return tuple((0.1, i / 5.0) for i in range(1, 11))

    def spec(self):
        return "sum_gamma"


class GammaIntegralLaw(PressureLaw):
    """p(rho) = (rho^3 - rho)/ln(rho), i.e. the gamma-law averaged over
    exponents 1..3.

    Shipped as a curiosity; it is *not* asserted to pass the well-posedness
    checker. The removable singularity at rho = 1 is evaluated by series.
    """

    label = "gamma_integral"

    def _split(self, rho):
        rho = np.asarray(rho, dtype=float)
        u = np.log(rho)
        near = np.abs(u) < 1e-5
        return rho, u, near

    def p(self, rho):
        rho, u, near = self._split(rho)
        safe_u = np.where(near, 1.0, u)
        direct = (rho**3 - rho) / safe_u
        # (e^{3u}-e^{u})/u = 2 + 4u + 13/3 u^2 + 10/3 u^3 + O(u^4)
        series = 2.0 + 4.0 * u + (13.0 / 3.0) * u**2 + (10.0 / 3.0) * u**3
        out = np.where(near, series, direct)
        return out if out.ndim else float(out)

    def dp(self, rho):
        rho, u, near = self._split(rho)
        safe_u = np.where(near, 1.0, u)
        direct = ((3.0 * rho**2 - 1.0) * safe_u - (rho**3 - rho) / rho) / safe_u**2
        # d/drho with rho = e^u: 4 + 26/3 u + 10 u^2 + O(u^3), times e^{-u}... the
        # series below is for dp at rho = e^u directly.
        series = (4.0 + (26.0 / 3.0) * u + 10.0 * u**2) / rho
        out = np.where(near, series, direct)
        return out if out.ndim else float(out)

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

    def power_terms(self):
        terms = [law.power_terms() for law in self.laws]
        if None in terms:
            return None
        return tuple((w * a, d) for w, t in zip(self.weights, terms) for a, d in t)

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


def default_grid(head: float = 1e-6, tail: float = 1e6, n: int = 10_000) -> np.ndarray:
    """Log-spaced density grid used by the well-posedness checker."""
    return np.geomspace(head, tail, n)


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of the sufficient-condition checks for one pressure law.

    The two ``concave_*`` flags are the curvature inequalities; the two
    ``pressure_*`` flags are the alternative large-density conditions; the
    remaining four are the alternative near-vacuum conditions. ``inconclusive``
    is set when a limit test could not fit a clean trend (the corresponding
    flag is then conservatively False).
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
    inconclusive: bool
    worst_violation: float
    grid_head: float
    grid_tail: float
    grid_size: int

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
        if self.inconclusive:
            lines.append("  note: at least one limit trend was inconclusive")
        lines.append(f"  => {'VALID' if self.valid else 'INVALID'}")
        return "\n".join(lines)


def _nonneg(expr: np.ndarray, scale: np.ndarray) -> tuple[bool, float]:
    """Check expr >= 0 up to REL_TOL * max(1, scale); return (ok, worst)."""
    slack = REL_TOL * np.maximum(1.0, scale)
    violation = np.maximum(0.0, -(expr + slack))
    worst = float(np.max(violation / np.maximum(1.0, scale))) if violation.size else 0.0
    return bool(np.all(expr >= -slack)), worst


def check_sufficient_conditions(law: PressureLaw, rho_grid=None) -> ValidityReport:
    """Evaluate the well-posedness conditions numerically on a density grid.

    Pointwise inequalities are checked at every grid point with a slack of
    ``REL_TOL`` relative to the magnitude of the compared terms. The limits
    rho -> 0 and rho -> inf are classified from the trend of the grid-endpoint
    decades, with a factor-of-ten extrapolation consistency check; a trend
    that fits no clean pattern yields ``inconclusive`` instead of a guess.
    """
    grid = default_grid() if rho_grid is None else np.asarray(rho_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise DomainError("density grid must be a 1-d array with >= 2 points")
    if np.any(grid <= 0.0) or np.any(np.diff(grid) <= 0.0):
        raise DomainError("density grid must be positive and strictly increasing")

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

    worst = 0.0
    growth_trend_gray = False
    vacuum_trend_gray = False

    # Curvature inequalities, pointwise on the grid.
    expr1 = 2.0 * dp + grid * d2p
    scale1 = 2.0 * np.abs(dp) + np.abs(grid * d2p)
    c1a, w = _nonneg(expr1, scale1)
    worst = max(worst, w)

    expr2 = 6.0 * dp + 6.0 * grid * d2p + grid**2 * d3p
    scale2 = 6.0 * np.abs(dp) + 6.0 * np.abs(grid * d2p) + np.abs(grid**2 * d3p)
    c1b, w = _nonneg(expr2, scale2)
    worst = max(worst, w)

    # Large-density behaviour: decade-increment trend extended one factor of
    # ten beyond the tail, so slowly decaying transients (e.g. a bounded
    # component next to a logarithmic one) cannot mask the true growth.
    tail = grid[-1]
    p_at = [float(law.p(t)) for t in (tail, 10.0 * tail, 100.0 * tail)]
    d2, d1 = p_at[1] - p_at[0], p_at[2] - p_at[1]
    if d1 > 0.0 and d2 > 0.0 and d1 >= 0.95 * d2:
        unbounded = True
    elif d1 <= 0.0 or (d2 > 0.0 and d1 <= 0.85 * d2):
        unbounded = False
    else:
        unbounded = False
        growth_trend_gray = True

    expr_decay = -p / grid - dp
    scale_decay = np.abs(p / grid) + np.abs(dp)
    decay_bound, w = _nonneg(expr_decay, scale_decay)
    worst = max(worst, w)

    # Near-vacuum behaviour at the grid head. A law of power terms is led by
    # its smallest exponent: rho * p(rho) tends to a negative limit exactly
    # when that is -2. Other laws take a geometric extrapolation of
    # rho * p(rho) from three decades (exact for power-plus-constant tails,
    # which removes slowly decaying transients before the sign test).
    head = grid[0]
    terms = law.power_terms()
    if terms is not None:
        lowest = min(delta for _, delta in terms)
        vacuum_negative = lowest == -2.0
    else:
        v1, v2, v3 = (s * head * float(law.p(s * head)) for s in (1.0, 10.0, 100.0))
        g1, g2 = v1 - v2, v2 - v3
        if abs(g1) <= 1e-12 * max(1.0, abs(v1)):
            limit = v1
            transient = 0.0
        elif g2 != 0.0 and 0.0 < g1 / g2 <= 0.95:
            r = g1 / g2
            transient = -g1 * r / (1.0 - r)
            limit = v1 - transient
        else:
            limit = math.inf  # diverging or unclassifiable: not a finite limit
            transient = 0.0
        vacuum_negative = (
            math.isfinite(limit)
            and limit < 0.0
            and abs(limit) >= 1e-3 * abs(transient)
        )

    # Exponent s of c ~ rho^(-s) near vacuum, with a band of doubt of width
    # ``band`` around its decisive values 0 and 1.
    c_h = float(law.c(head))
    if terms is not None:
        s, band = -0.5 * lowest, 0.0  # c ~ rho^(lowest/2) near vacuum, exactly
    else:
        # Local exponent over the first two decades.
        c_10h = float(law.c(10.0 * head))
        c_100h = float(law.c(100.0 * head))
        s1 = math.log10(c_h / c_10h)
        s2 = math.log10(c_10h / c_100h)
        s, band = 0.5 * (s1 + s2), 0.005
        vacuum_trend_gray = abs(s1 - s2) > 0.02
    tame_vanish = finite_limit = integrable_blowup = False
    if not vacuum_trend_gray:
        if s < -band:  # c decreasing towards 0 near vacuum
            expr3 = 2.0 * dp - grid * d2p
            scale3 = 2.0 * np.abs(dp) + np.abs(grid * d2p)
            tame_vanish, w = _nonneg(expr3, scale3)
            worst = max(worst, w)
        elif s <= band:
            finite_limit = c_h > 0.0 and math.isfinite(c_h)
        elif s < 1.0 - 3.0 * band:
            integrable_blowup = True
        else:
            # s beyond 1: blow-up too strong for an integrable exponent,
            # unless a fitted s is within the band of it
            vacuum_trend_gray = s < 1.0 + band

    # A gray trend only matters when no definite condition already settles
    # the corresponding alternative.
    vacuum_any = vacuum_negative or tame_vanish or finite_limit or integrable_blowup
    inconclusive = (growth_trend_gray and not decay_bound) or (
        vacuum_trend_gray and not vacuum_any
    )

    return ValidityReport(
        law_label=law.label,
        concave_rarefaction=c1a,
        concave_shock=c1b,
        pressure_unbounded=unbounded,
        pressure_decay_bound=decay_bound,
        vacuum_limit_negative=vacuum_negative,
        sound_speed_vanishes_tamely=tame_vanish,
        sound_speed_finite_limit=finite_limit,
        sound_speed_integrable_blowup=integrable_blowup,
        inconclusive=inconclusive,
        worst_violation=worst,
        grid_head=float(grid[0]),
        grid_tail=float(grid[-1]),
        grid_size=int(grid.size),
    )


# -- textual law selection ---------------------------------------------------

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def parse_law(text: str) -> PressureLaw:
    """Build a pressure law from a selector string.

    Grammar (whitespace-insensitive)::

        law  ::= name | name "(" args ")"
        args ::= number-list            for gamma/isothermal/generalized
               | term ("," term)*       for linear_combination
        term ::= [number "*"] law

    Known names: gamma(kappa,gamma), isothermal(c), inverse, log, sum_gamma,
    gamma_integral, generalized(alpha,delta), linear_combination(...).
    """
    law, pos = _parse_law(text, 0)
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


def _parse_law(text, pos):
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
            law, pos = _parse_law(text, pos)
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
