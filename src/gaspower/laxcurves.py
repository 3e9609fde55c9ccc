"""Wave curves for the isentropic flow equations.

For a left datum ``(rho_l, q_l)`` the states reachable through a single
1-wave form the curve ``lax_left``. It consists of a rarefaction branch
(integral of c(s)/s) below the datum density and a shock branch (square root
of the auxiliary :func:`f_shock`) above it, joined with C^1 regularity at the
datum.

Mirror convention: the mirror image of a state keeps its density and negates
its momentum (:meth:`GasState.mirrored`). The reflection x -> -x swaps the
two wave families, so the 2-wave curve through a datum U is the negated
1-wave curve through its mirror image, ``lax_right(rho; U) =
-lax_left(rho; mirrored U)``, exactly also in floating point. Only the 1-wave
curve is coded: ``lax_right``, ``Side.OUT``, outgoing junction ports and left
pipe boundaries mirror their data, use it and mirror the result back.

Junction admissibility is governed by two per-pipe densities derived from
these curves: ``rho_min``, where the curve's derivative vanishes (waves below
it would run into the junction), and ``rho_max``, where the opposite
eigenvalue along the curve changes sign (traces beyond it are super-sonic).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InadmissibleError, NumericsError
from .pressure import PressureLaw
from .roots import brentq


@dataclass(frozen=True)
class GasState:
    """Density [kg/m^3] and momentum [kg/(m^2 s)] of a gas parcel."""

    rho: float
    q: float

    def __post_init__(self):
        if not (self.rho > 0.0):
            raise DomainError(f"density must be positive, got {self.rho!r}")
        if self.rho == math.inf:
            raise DomainError(f"density must be finite, got {self.rho!r}")

    @property
    def u(self) -> float:
        """Flow velocity q/rho."""
        return self.q / self.rho

    def mirrored(self) -> "GasState":
        """Mirror image: the same density with the momentum negated."""
        return GasState(self.rho, _mirror(self.q))

    def is_subsonic(self, law: PressureLaw) -> bool:
        return abs(self.u) < float(law.c(self.rho))


def _mirror(q: float) -> float:
    """Negated momentum or slope; an exact zero stays +0.0, as in the 2-curve."""
    return 0.0 - q


class WaveType(enum.Enum):
    SHOCK = "shock"
    RAREFACTION = "rarefaction"

    def __str__(self):  # compact r/s notation used in reports
        return "s" if self is WaveType.SHOCK else "r"


class Side(enum.Enum):
    """Orientation of a pipe at a junction: flow into it or out of it."""

    IN = "in"
    OUT = "out"


def require_subsonic(state: GasState, law: PressureLaw, what: str = "state") -> None:
    c = float(law.c(state.rho))
    if not abs(state.u) < c:
        raise DomainError(
            f"{what} ({state.rho:g}, {state.q:g}) is not sub-sonic: "
            f"|u|={abs(state.u):g} >= c={c:g}"
        )


def lambda1(state: GasState, law: PressureLaw) -> float:
    """Slow characteristic speed u - c."""
    return state.u - float(law.c(state.rho))


def lambda2(state: GasState, law: PressureLaw) -> float:
    """Fast characteristic speed u + c."""
    return state.u + float(law.c(state.rho))


def f_shock(rho: float, rho_l: float, law: PressureLaw) -> float:
    """Shock auxiliary (rho/rho_l)(rho - rho_l)(p(rho) - p(rho_l)) >= 0."""
    if rho < rho_l:
        raise DomainError(f"shock branch needs rho >= rho_l, got {rho} < {rho_l}")
    value = (rho / rho_l) * (rho - rho_l) * (float(law.p(rho)) - float(law.p(rho_l)))
    # Monotonicity of p makes this non-negative; clip float noise at the kink.
    return max(0.0, value)


def _f_shock_deriv(rho: float, rho_l: float, law: PressureLaw) -> float:
    """d/drho of :func:`f_shock`, which :func:`lax_left_with_deriv` forms
    with the factors it shares with f_shock."""
    dp = float(law.p(rho)) - float(law.p(rho_l))
    return (2.0 * rho - rho_l) / rho_l * dp + (rho / rho_l) * (rho - rho_l) * float(
        law.dp(rho)
    )


def rarefaction_integral(law: PressureLaw, rho: float, rho_ref: float) -> float:
    """Integral of c(s)/s over [rho, rho_ref] (signed).

    Closed form when p' is a pure power of density. Other laws take the
    difference of the antiderivative of c(e^u) in u = ln s that
    :class:`_Panels` holds, exact to rounding, as Chebyshev series on the
    unit panels [k, k+1] of u.
    """
    if rho <= 0.0 or rho_ref <= 0.0:
        raise DomainError("rarefaction integral needs positive densities")
    if rho == rho_ref:
        return 0.0
    form = law.power_form()
    if form is not None:
        alpha, delta = form
        root_alpha = math.sqrt(alpha)
        if delta == 0.0:
            return root_alpha * math.log(rho_ref / rho)
        half = 0.5 * delta
        return root_alpha * (rho_ref**half - rho**half) / half
    panels = _panels(law)
    high, low = panels.antiderivative(rho)
    high_ref, low_ref = panels.antiderivative(rho_ref)
    return (high_ref - high) + (low_ref - low)


_PANEL_DEGREE = 32  # degree of a panel's Chebyshev fit of c(e^u)
_PANEL_RESOLVED = 1e-10  # bound on its last 8 coefficients, relative to the largest


def _clenshaw(coefficients, y: float) -> float:
    """Sum of a_j T_j(y) for ``coefficients`` = (a_n, ..., a_0)."""
    y2 = y + y
    b1 = b2 = 0.0
    for a in coefficients:
        b1, b2 = a + y2 * b1 - b2, b1
    return b1 - y * b2


class _Panels:
    """Antiderivative of c(e^u), anchored at u = 0, on unit panels [k, k+1].

    Panel k holds a Chebyshev series in y = 2 ln(s / e^k) - 1 (e^k is the
    float ``exp(k)``): the integral of c(e^u) from the panel's edge nearer
    u = 0, from an interpolant of degree ``_PANEL_DEGREE`` chopped at
    rounding. It also holds the sum of the panels strictly between that edge
    and u = 0 as ``math.fsum``'s sum and remainder, so that a difference of
    two sums is as exact as the sum of the panels between them. Panels are
    built on first use, with all those nearer u = 0.
    """

    def __init__(self, law: PressureLaw):
        self._law = law
        self._panels = {}  # k -> (e^k, sum, sum remainder, series)
        self._terms = ([], [])  # signed integrals of the panels above and below u = 0

    def antiderivative(self, rho: float) -> tuple[float, float]:
        """The antiderivative at ``rho``: its panel sum, and the rest."""
        try:
            k = math.floor(math.log(rho))
        except (ValueError, OverflowError):
            raise DomainError(
                f"rarefaction integral needs finite densities, got {rho!r}") from None
        while k not in self._panels:
            self._extend(below=k < 0)
        start, high, low, series = self._panels[k]
        return high, low + _clenshaw(series, 2.0 * math.log(rho / start) - 1.0)

    def _extend(self, below: bool) -> None:
        """Build the next panel outwards from u = 0, below it or above it."""
        from numpy.polynomial import chebyshev

        terms = self._terms[below]
        k = -len(terms) - 1 if below else len(terms)
        law, start = self._law, math.exp(k)
        fit = chebyshev.chebinterpolate(
            lambda y: law.c(start * np.exp(0.5 + 0.5 * y)), _PANEL_DEGREE)
        largest = np.max(np.abs(fit))
        where = f"for {law.label} on densities [{start:.6g}, {start * math.e:.6g}]"
        if not np.isfinite(largest):
            raise NumericsError(f"sound speed is not finite {where}")
        if np.max(np.abs(fit[-8:])) > _PANEL_RESOLVED * largest:
            raise NumericsError(f"degree-{_PANEL_DEGREE} Chebyshev fit of the "
                                f"sound speed is not resolved {where}")
        edge = 1.0 if below else -1.0  # the panel's edge nearer u = 0
        integral = chebyshev.chebint(fit, lbnd=edge, scl=0.5)
        kept = np.abs(integral) > np.finfo(float).eps * np.max(np.abs(integral))
        series = tuple(integral[:np.flatnonzero(kept)[-1] + 1][::-1].tolist())
        high = math.fsum(terms)
        self._panels[k] = start, high, math.fsum(terms + [-high]), series
        terms.append(_clenshaw(series, -edge))


@functools.lru_cache(maxsize=16)
def _panels(law: PressureLaw) -> _Panels:
    """The panels of ``law``, cached per law (laws hash by their ``spec()``)."""
    return _Panels(law)


def lax_left(rho: float, left: GasState, law: PressureLaw) -> float:
    """Momentum on the 1-wave curve through ``left`` at density ``rho``."""
    if rho <= 0.0:
        raise DomainError(f"density must be positive, got {rho!r}")
    if rho <= left.rho:
        return rho * (left.u + rarefaction_integral(law, rho, left.rho))
    return rho * left.u - math.sqrt(f_shock(rho, left.rho, law))


def lax_right(rho: float, right: GasState, law: PressureLaw) -> float:
    """Momentum on the 2-wave curve through ``right``: the mirrored 1-curve."""
    return _mirror(lax_left(rho, right.mirrored(), law))


def lax_left_with_deriv(rho: float, left: GasState,
                        law: PressureLaw) -> tuple[float, float]:
    """:func:`lax_left` and its derivative, from one rarefaction integral.

    At the branch kink rho == rho_l the rarefaction-side limit u - c(rho_l)
    of the derivative is returned (the branches agree there in value and
    first derivative).
    """
    return lax_left_with_deriv_of(rho, left.rho, left.u, law)


def lax_left_with_deriv_of(rho: float, rho_l: float, u_l: float,
                           law: PressureLaw) -> tuple[float, float]:
    """:func:`lax_left_with_deriv` through the datum of density ``rho_l``
    and velocity ``u_l``, given as floats."""
    if rho <= 0.0:
        raise DomainError(f"density must be positive, got {rho!r}")
    if rho <= rho_l:
        velocity = u_l + rarefaction_integral(law, rho, rho_l)
        return rho * velocity, velocity - float(law.c(rho))
    # f_shock and _f_shock_deriv with their common factors formed once.
    dp = float(law.p(rho)) - float(law.p(rho_l))
    weight = (rho / rho_l) * (rho - rho_l)
    f = max(0.0, weight * dp)
    if f == 0.0:
        return rho * u_l, u_l - float(law.c(rho_l))
    root = math.sqrt(f)
    slope = (2.0 * rho - rho_l) / rho_l * dp + weight * float(law.dp(rho))
    return rho * u_l - root, u_l - slope / (2.0 * root)


def lax_right_with_deriv(rho: float, right: GasState,
                         law: PressureLaw) -> tuple[float, float]:
    """:func:`lax_right` and its derivative: the mirrored 1-curve and slope."""
    q, dq = lax_left_with_deriv(rho, right.mirrored(), law)
    return _mirror(q), _mirror(dq)


def lax_left_deriv(rho: float, left: GasState, law: PressureLaw) -> float:
    """d/drho of :func:`lax_left`, see :func:`lax_left_with_deriv`."""
    return lax_left_with_deriv(rho, left, law)[1]


def lax_right_deriv(rho: float, right: GasState, law: PressureLaw) -> float:
    """d/drho of :func:`lax_right`, see :func:`lax_right_with_deriv`."""
    return lax_right_with_deriv(rho, right, law)[1]


def rho_min(state: GasState, side: Side, law: PressureLaw) -> float:
    """Density below which the pipe's junction wave would have the wrong sign.

    Root of the relevant curve derivative when it exists (unique for concave
    curves) and lies above ``1e-9 * rho``, 0 otherwise. Closed form for laws
    with ``p' = alpha * rho**delta``; other laws search the root to
    |drho| <= 1e-15 * max(1, rho).
    """
    require_subsonic(state, law)
    if side is Side.OUT:
        # Mirror convention: the slopes differ only in sign, same root.
        state = state.mirrored()
    form = law.power_form()
    root = (_sonic_density(state, *form) if form is not None
            else _sonic_density_search(state, law))
    return root if root > 1e-9 * state.rho else 0.0


def _sonic_density(state: GasState, alpha: float, delta: float) -> float:
    """Density where the 1-rarefaction from ``state`` turns sonic, 0 if none.

    With ``c = a * rho**h`` (``a = sqrt(alpha)``, ``h = delta / 2``) the
    Riemann invariant ``u + c / h`` (``u + a ln rho`` for ``h = 0``) is
    constant along the rarefaction; setting ``u = c`` in it gives the root.
    For ``h + 1 <= 0`` the curve's slope never changes sign.
    """
    a, h = math.sqrt(alpha), 0.5 * delta
    if h == 0.0:
        return state.rho * math.exp(state.u / a - 1.0)
    if h + 1.0 <= 0.0:
        return 0.0
    power = (h * state.u / a + state.rho**h) / (h + 1.0)
    return power ** (1.0 / h) if power > 0.0 else 0.0


def _sonic_density_search(state: GasState, law: PressureLaw) -> float:
    """:func:`_sonic_density` of any law by a bracketed root search."""
    lo = 1e-9 * state.rho
    g_lo = lax_left_deriv(lo, state, law)
    if not math.isfinite(g_lo) or g_lo <= 0.0:
        return 0.0
    # Sub-sonic datum: derivative at the datum density is u - c < 0.
    root = brentq(
        lambda r: lax_left_deriv(r, state, law), lo, state.rho,
        xtol=1e-15 * state.rho, rtol=1e-15,
    )
    return float(root)


RHO_MAX_SEARCH_FACTOR = 1e6  # rho_max scans up to this multiple of the datum


def rho_max(state: GasState, side: Side, law: PressureLaw) -> float:
    """Smallest density at which the trace turns super-sonic, +inf if none.

    For an in-side pipe this is the first sign change of the fast eigenvalue
    along the 1-curve; the search scans log-spaced densities up to
    ``RHO_MAX_SEARCH_FACTOR * state.rho`` and reports +inf beyond that bound.
    """
    require_subsonic(state, law)
    if side is Side.OUT:
        return rho_max(state.mirrored(), Side.IN, law)

    def fast_eig(r: float) -> float:
        return lax_left(r, state, law) / r + float(law.c(r))

    grid = np.geomspace(1e-9 * state.rho, RHO_MAX_SEARCH_FACTOR * state.rho, 800)
    values = np.array([fast_eig(r) for r in grid])
    negative = np.nonzero(values < 0.0)[0]
    if negative.size == 0:
        return math.inf
    k = int(negative[0])
    if k == 0:
        return float(grid[0])
    root = brentq(fast_eig, grid[k - 1], grid[k],
                  xtol=1e-15 * state.rho, rtol=1e-15)
    return float(root)


def classify_wave(rho_star: float, state: GasState, side: Side,
                  law: PressureLaw) -> WaveType:
    """Wave type connecting a junction trace at ``rho_star`` to ``state``.

    Rarefaction for rho_star <= rho (branches coincide at equality), shock
    above. Densities at or below ``rho_min`` are inadmissible.
    """
    if rho_star <= 0.0:
        raise DomainError(f"density must be positive, got {rho_star!r}")
    floor = rho_min(state, side, law)
    if rho_star <= floor:
        raise InadmissibleError(
            f"trace density {rho_star:g} at or below junction minimum {floor:g}"
        )
    return WaveType.RAREFACTION if rho_star <= state.rho else WaveType.SHOCK
