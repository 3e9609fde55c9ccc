"""Interface and junction Riemann solvers built on the wave curves.

A junction couples pipe traces through equality of pressure (one common
trace density for unit pressure ratios) and conservation of mass, optionally
with a prescribed extraction ``epsilon`` drawn at the node. The extraction is
signed: a negative value is an injection, and any number above -inf is
accepted (+inf is an ``InvalidDemandError`` like every demand at or above
the supremum). A pipe end with a prescribed outflow is the one-port junction
whose extraction is that outflow: :func:`gaspower.network.apply_boundary`
solves it on floats for both schemes.

Outgoing pipes follow the mirror convention of :mod:`gaspower.laxcurves`:
their data are mirrored once per solve, so that every port is an incoming one
on its 1-wave curve, and their traces are mirrored back. The scalar junction
function

    D(rho) = sum over ports of lax_left(rho; port datum)
           = sum_in lax_left_i(rho) - sum_out lax_right_j(rho)

is concave for well-posed pressure laws, being a sum of concave 1-curves.
Solutions live on its decreasing branch. Each port slope is monotone and
negative (admissible) exactly above that pipe's ``rho_min``; so a trace
density exceeds the junction minimal density (the largest per-pipe
``rho_min``) exactly when every port slope is negative there. Sub-sonic
traces additionally require it to stay below the smallest per-pipe
``rho_max``.

The root of D - epsilon is found by Newton's method from the right. It
starts at the largest datum density, where every port slope is admissible
because each datum exceeds its own ``rho_min``. On a concave, decreasing
function a first step from left of the root overshoots to its right, and
from there the iterates approach the root monotonically from the right.
Each iterate evaluates every curve and its slope from one rarefaction
integral; the iteration stops once the step is at most 1e-15 rho.

The bracketed search (``rho_min``, the maximum of D, brentq) runs only as
the fallback: when an iterate leaves the admissible decreasing branch (a
port slope that is not negative by a relative ``_SLOPE_TOL``), when the
iterates stop decreasing or do not converge, and for ports with a pressure
ratio r != 1 (an ideal compressor boosting its pipe's trace pressure into
the node by the factor r), where D need not be concave. It decides every
inadmissible or unsolvable junction: ``InvalidDemandError`` (with the
supremum attached), ``NoSolutionError``, ``InadmissibleError`` and the
inadmissible solutions of the non-strict solvers. Newton's method runs at
most once per solve. Every entry checks its port data as floats in
:func:`_ports`; the time steppers call :func:`junction_traces` on floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from .errors import DomainError, InadmissibleError, InvalidDemandError, NoSolutionError
from .laxcurves import (
    GasState,
    Side,
    WaveType,
    lambda1,
    lambda2,
    lax_left,
    lax_left_deriv,
    lax_left_with_deriv_of,
    require_subsonic,
    rho_max,
    rho_min,
)
from .pressure import PressureLaw
from .roots import brentq

_BRACKET_CAP = 1e12  # bracket expansion bound, relative to the density scale
_NEWTON_MAX_ITER = 50  # Newton iterations before the fallback takes over
_ROUNDING_STEP = 1e-14  # backward Newton step, relative to rho, taken as rounding
# Margin of the Newton path's admissibility test: a port slope must be
# negative by more than this fraction of the port velocity |lax/rho| (c at
# the pipe's rho_min), i.e. the density must exceed that rho_min by about
# this fraction. Closer roots, where D - epsilon may have a double root and
# the sign of a slope near zero is decided by rounding, are left to the
# fallback, which decides them exactly as ``junction_max_extraction`` does.
_SLOPE_TOL = 1e-6


@dataclass(frozen=True)
class JunctionSolution:
    """Traces and diagnostics of one junction Riemann solve.

    All traces of unit-ratio ports share the density ``rho_star`` (hence a
    common pressure); incoming and outgoing momenta balance the extraction.
    The wave types, ``rho_min_junction`` and ``rho_max_junction`` (and the
    ``subsonic_traces`` flag) are derived on first access.
    """

    rho_star: float
    epsilon: float
    incoming: tuple[GasState, ...]
    outgoing: tuple[GasState, ...]
    incoming_traces: tuple[GasState, ...]
    outgoing_traces: tuple[GasState, ...]
    admissible: bool
    law: PressureLaw = field(repr=False)
    _problem: _JunctionProblem = field(repr=False, compare=False)

    @cached_property
    def _waves(self) -> tuple[WaveType, ...]:
        """A rarefaction where the trace is no denser than its datum."""
        return tuple(WaveType.RAREFACTION if v.rho <= s.rho else WaveType.SHOCK
                     for v, s in zip(self.incoming_traces + self.outgoing_traces,
                                     self.incoming + self.outgoing))

    @property
    def incoming_waves(self) -> tuple[WaveType, ...]:
        return self._waves[:len(self.incoming)]

    @property
    def outgoing_waves(self) -> tuple[WaveType, ...]:
        return self._waves[len(self.incoming):]

    @property
    def rho_min_junction(self) -> float:
        return self._problem.rho_min_junction

    @property
    def rho_max_junction(self) -> float:
        return self._problem.rho_max_junction

    @property
    def subsonic_traces(self) -> bool:
        return self.rho_star < self.rho_max_junction

    @property
    def left(self) -> GasState:
        return self.incoming[0]

    @property
    def right(self) -> GasState:
        return self.outgoing[0]

    @property
    def left_trace(self) -> GasState:
        return self.incoming_traces[0]

    @property
    def right_trace(self) -> GasState:
        return self.outgoing_traces[0]

    @property
    def wave_pair(self) -> tuple[WaveType, WaveType]:
        return (self.incoming_waves[0], self.outgoing_waves[0])

    def flux_residual(self) -> float:
        """Mass-conservation defect sum(q_in) - sum(q_out) - epsilon."""
        q_in = sum(v.q for v in self.incoming_traces)
        q_out = sum(v.q for v in self.outgoing_traces)
        return q_in - q_out - self.epsilon


def _port_maps(law: PressureLaw, ratio: float):
    """Maps (h, h', h^-1) of a port of pressure ratio r; identities for r = 1.

    h(rho) = p^{-1}(p(rho)/r) takes junction to trace density; h' follows by
    implicit differentiation, and h^-1(v) = p^{-1}(r p(v)) keeps 0 and inf.
    """
    if ratio == 1.0:
        return (lambda r: r), (lambda r: 1.0), (lambda r: r)

    def h(rho: float) -> float:
        return law.rho_from_pressure(float(law.p(rho)) / ratio)

    def dh(rho: float) -> float:
        return float(law.dp(rho)) / (ratio * float(law.dp(h(rho))))

    def pullback(value: float) -> float:
        if value == 0.0 or value == math.inf:
            return value
        return law.rho_from_pressure(ratio * float(law.p(value)))

    return h, dh, pullback


def _sweep(rho: float, ports, law: PressureLaw, maps=None):
    """Port momenta and slopes, D(rho) and D'(rho) at junction density rho of
    (density, velocity) ``ports``, outgoing ones mirrored, and ``maps``."""
    momenta, slopes, total, slope = [], [], 0.0, 0.0
    for k, (rho_l, u_l) in enumerate(ports):
        if maps is None:
            q, dq = lax_left_with_deriv_of(rho, rho_l, u_l, law)
        else:
            h, dh, _ = maps[k]
            q, dq = lax_left_with_deriv_of(h(rho), rho_l, u_l, law)
            dq *= dh(rho)
        momenta.append(q)
        slopes.append(dq)
        total += q
        slope += dq
    return momenta, slopes, total, slope


def _newton(ports, epsilon: float, law: PressureLaw):
    """Admissible root of D - epsilon for unit-ratio ``ports`` (see
    :func:`_sweep`) by Newton's method from their largest density, as
    ``(rho_star, momenta)``; None where the bracketed search has to decide:
    as soon as a port slope is not negative by the margin ``_SLOPE_TOL``, and
    when the iteration does not settle. After the first step the iterates of
    a concave D only move left; a step back to the right is rounding at the
    root when it is at most ``_ROUNDING_STEP`` rho, and means that D is not
    concave otherwise.
    """
    rho, step = max(ports)[0], math.inf
    for k in range(_NEWTON_MAX_ITER):
        momenta, slopes, total, slope = _sweep(rho, ports, law)
        for q, dq in zip(momenta, slopes):
            if not dq < -_SLOPE_TOL * abs(q) / rho:
                return None
        if abs(step) <= 1e-15 * rho:
            return rho, momenta
        step = (total - epsilon) / slope
        if k > 0 and step < 0.0:
            return (rho, momenta) if -step <= _ROUNDING_STEP * rho else None
        rho -= step
        if not 0.0 < rho < math.inf:
            return None
    return None


def _ports(rho, q, n_in: int, epsilon: float, law: PressureLaw):
    """(density, velocity) of the ports of densities ``rho`` and momenta
    ``q``, the ``n_in`` incoming ports first and the outgoing ones mirrored;
    the ``DomainError`` that building the data as ``GasState``s and a
    junction of them raises first: a density that is not positive and
    finite, no port, an extraction not above -inf, a port that is not
    sub-sonic."""
    ports, sonic = [], None  # sonic: the first port that is not sub-sonic
    for k, (rho_l, q_l) in enumerate(zip(rho, q)):
        if not 0.0 < rho_l < math.inf:
            GasState(rho_l, q_l)  # raises the DomainError of its density
        u_l = (q_l if k < n_in else 0.0 - q_l) / rho_l
        if sonic is None and not abs(u_l) < float(law.c(rho_l)):
            sonic = k
        ports.append((rho_l, u_l))
    if not ports:
        raise DomainError("junction needs at least one pipe")
    if not epsilon > -math.inf:
        raise DomainError(f"extraction must be a number above -inf, got {epsilon}")
    if sonic is not None:
        what = f"incoming state {sonic}" if sonic < n_in else f"outgoing state {sonic - n_in}"
        require_subsonic(GasState(rho[sonic], q[sonic]), law, what)
    return ports


class _JunctionProblem:
    """Scalar formulation of one junction solve, from port densities ``rho``
    and momenta ``q`` as floats, the ``n_in`` incoming ports first.

    ``ports`` holds their checked densities and velocities (see
    :func:`_ports`, whose result may be passed in) and ``maps`` their density
    maps, so every loop over the ports treats them alike. Ratios are None
    (all ones) or one positive, finite number per port; when every ratio is
    1, ``maps`` is None.
    """

    def __init__(self, rho, q, n_in, epsilon, law, in_ratios=None, out_ratios=None,
                 ports=None):
        self.ports = _ports(rho, q, n_in, epsilon, law) if ports is None else ports
        ratios = ()
        for side, count, given in (("incoming", n_in, in_ratios),
                                   ("outgoing", len(self.ports) - n_in, out_ratios)):
            given = (1.0,) * count if given is None else tuple(given)
            if len(given) != count or not all(0.0 < r < math.inf for r in given):
                raise DomainError(
                    f"{side} pressure ratios must be {count} positive finite "
                    f"numbers, one per port, got {list(given)}")
            ratios += given
        self.q, self.n_in = q, n_in
        self.epsilon = float(epsilon)
        self.law = law
        self.maps = (None if all(r == 1.0 for r in ratios)
                     else [_port_maps(law, r) for r in ratios])
        self.scale = max(rho for rho, _ in self.ports)

    def _limits(self, bound):
        """Per-pipe ``bound`` (``rho_min`` or ``rho_max``) pulled back to the
        junction density; the maps increase, so the order is kept."""
        limits = [bound(GasState(rho, q), Side.IN if k < self.n_in else Side.OUT, self.law)
                  for k, ((rho, _), q) in enumerate(zip(self.ports, self.q))]
        if self.maps is None:
            return limits
        return [pullback(v) for v, (_, _, pullback) in zip(limits, self.maps)]

    @cached_property
    def rho_min_junction(self) -> float:
        return max(self._limits(rho_min))

    @cached_property
    def rho_max_junction(self) -> float:
        return min(self._limits(rho_max))

    def imbalance(self, rho: float) -> float:
        """D(rho): incoming minus outgoing momentum at junction density rho."""
        return _sweep(rho, self.ports, self.law, self.maps)[2]

    def argmax(self) -> float:
        """Locate the maximum of D by bisecting its (decreasing) derivative."""
        deriv = lambda r: _sweep(r, self.ports, self.law, self.maps)[3]
        lo = 1e-9 * self.scale
        if deriv(lo) <= 0.0:
            return lo
        hi = self.scale
        while deriv(hi) > 0.0:
            hi *= 4.0
            if hi > _BRACKET_CAP * self.scale:
                return hi  # D keeps increasing on the whole search range
        return brentq(deriv, lo, hi, rtol=1e-14)

    def max_extraction(self) -> float:
        """Supremum of solvable extractions: D at the junction minimal density."""
        floor = max(self.rho_min_junction, 1e-9 * self.scale)
        return self.imbalance(floor)

    def bracketed(self, strict_admissibility: bool):
        """Root on the decreasing branch by bracketing; the fallback path.

        Returns ``(rho_star, momenta, admissible)``.
        """
        eps = self.epsilon
        if eps > 0.0:
            eps_max = self.max_extraction()
            if eps >= eps_max:
                raise InvalidDemandError(
                    f"extraction {eps:g} is at or above the junction maximum "
                    f"{eps_max:g}", epsilon_max=eps_max)
            lo = max(self.rho_min_junction, 1e-9 * self.scale)
        else:
            lo = self.argmax()
            if self.imbalance(lo) < eps:
                raise NoSolutionError(
                    "junction curves have no intersection (imbalance is "
                    f"below the extraction {eps:g} at its maximum, rho={lo:g})")
        target = lambda r: self.imbalance(r) - eps
        hi = max(2.0 * lo, self.scale)
        while target(hi) > 0.0:
            hi *= 2.0
            if hi > _BRACKET_CAP * self.scale:
                raise NoSolutionError(
                    f"no sign change of the junction function up to rho={hi:g}")
        if target(lo) < 0.0:
            # Degenerate: maximum itself is the root (within float noise).
            rho_star = lo
        else:
            rho_star = brentq(target, lo, hi, xtol=1e-24, rtol=1e-15)

        admissible = rho_star > self.rho_min_junction
        if strict_admissibility and not admissible:
            raise InadmissibleError(
                f"junction density {rho_star:g} is at or below the minimal "
                f"density {self.rho_min_junction:g}; max extraction "
                f"{self.max_extraction():g}")
        momenta = _sweep(rho_star, self.ports, self.law, self.maps)[0]
        return rho_star, momenta, admissible

    def solve(self, strict_admissibility: bool) -> JunctionSolution:
        found = _newton(self.ports, self.epsilon, self.law) if self.maps is None else None
        if found is None:
            rho_star, momenta, admissible = self.bracketed(strict_admissibility)
        else:
            (rho_star, momenta), admissible = found, True
        n_in = self.n_in
        if self.maps is None:
            traces = [GasState(rho_star, q) for q in momenta]
        else:
            traces = [GasState(h(rho_star), q) for (h, _, _), q in zip(self.maps, momenta)]
        traces[n_in:] = [v.mirrored() for v in traces[n_in:]]
        data = [GasState(rho, q) for (rho, _), q in zip(self.ports, self.q)]
        return JunctionSolution(
            rho_star=float(rho_star), epsilon=self.epsilon,
            incoming=tuple(data[:n_in]), outgoing=tuple(data[n_in:]),
            incoming_traces=tuple(traces[:n_in]), outgoing_traces=tuple(traces[n_in:]),
            admissible=admissible, law=self.law, _problem=self)


def _of_states(incoming, outgoing, epsilon, law, *ratios) -> _JunctionProblem:
    """The problem of ``incoming`` and ``outgoing`` ``GasState``s."""
    incoming, outgoing = tuple(incoming), tuple(outgoing)
    states = incoming + outgoing
    return _JunctionProblem([s.rho for s in states], [s.q for s in states], len(incoming),
                            epsilon, law, *ratios)


def solve_interface(left: GasState, right: GasState,
                    law: PressureLaw) -> JunctionSolution:
    """Solve the two-state interface problem (zero extraction): the
    intersection of the two wave curves on the decreasing branch, with
    ``admissible=False`` where it does not exceed the junction minimal density.
    """
    return solve_gas_power_junction(left, right, 0.0, law)


def solve_gas_power_junction(left: GasState, right: GasState, epsilon: float,
                             law: PressureLaw) -> JunctionSolution:
    """Two-pipe junction with a prescribed gas extraction ``epsilon``.

    Of the up to two densities where the curve gap equals ``epsilon``, the
    one on the decreasing branch is returned; the other would carry waves
    into the junction. Demands at or above :func:`max_extraction` raise
    ``InvalidDemandError`` with the admissible supremum attached.
    """
    problem = _of_states([left], [right], epsilon, law)
    return problem.solve(strict_admissibility=False)


def solve_multi_junction(incoming: Sequence[GasState], outgoing: Sequence[GasState],
                         epsilon: float, law: PressureLaw, *,
                         in_pressure_ratios: Sequence[float] | None = None,
                         out_pressure_ratios: Sequence[float] | None = None,
                         ) -> JunctionSolution:
    """General junction with any number of pipes and optional extraction.

    Inadmissible configurations raise; a solution whose density reaches the
    smallest per-pipe ``rho_max`` is returned with ``subsonic_traces=False``.
    Pressure ratios model ideal compressors on individual ports.
    """
    problem = _of_states(incoming, outgoing, epsilon, law,
                         in_pressure_ratios, out_pressure_ratios)
    return problem.solve(strict_admissibility=True)


def junction_traces(rho: Sequence[float], q: Sequence[float], n_in: int,
                    epsilon: float, law: PressureLaw):
    """:func:`solve_multi_junction` of unit-ratio port data ``rho``, ``q``
    (floats, the ``n_in`` incoming ports first) as ``(rho_star, trace
    momenta)``. It raises what that solver raises for the same data given as
    states; a case that Newton's method declines goes on to the bracketed
    search of the same problem."""
    ports = _ports(rho, q, n_in, epsilon, law)
    found = _newton(ports, epsilon, law)
    if found is None:
        problem = _JunctionProblem(rho, q, n_in, epsilon, law, ports=ports)
        found = problem.bracketed(strict_admissibility=True)[:2]
    found[1][n_in:] = [0.0 - v for v in found[1][n_in:]]
    return found


def junction_max_extraction(incoming: Sequence[GasState],
                            outgoing: Sequence[GasState], law: PressureLaw, *,
                            in_pressure_ratios: Sequence[float] | None = None,
                            out_pressure_ratios: Sequence[float] | None = None,
                            ) -> float:
    """Supremum of extractions solvable for the given junction data.

    It is the junction function D at the junction minimal density; ports
    and pressure ratios are those of :func:`solve_multi_junction`.
    """
    problem = _of_states(incoming, outgoing, 0.0, law,
                         in_pressure_ratios, out_pressure_ratios)
    return problem.max_extraction()


def max_extraction(left: GasState, right: GasState, law: PressureLaw) -> float:
    """Supremum of extractions solvable for the given two-pipe data."""
    return junction_max_extraction([left], [right], law)


def wave_thresholds(left: GasState, right: GasState,
                    law: PressureLaw) -> tuple[float, float, float]:
    """Extraction levels separating the junction solution structures.

    Returns ``(eps_ss_upper, eps_rs_upper, eps_max)``: the curve gap at the
    larger datum density (below which both waves are shocks), at the smaller
    datum density (below which the wave on the denser side is a shock), and
    at the junction minimal density (at or above which no admissible solution
    exists).
    """
    problem = _of_states([left], [right], 0.0, law)
    lo, hi = sorted((left.rho, right.rho))
    return problem.imbalance(hi), problem.imbalance(lo), problem.max_extraction()


def _invert_fan(deriv, lo: float, hi: float, xi: float) -> float:
    """Solve deriv(rho) = xi for rho inside a rarefaction fan."""
    return brentq(lambda r: deriv(r) - xi, lo, hi, rtol=1e-14)


def sample_solution(sol: JunctionSolution, xi: float) -> GasState:
    """Evaluate the self-similar two-pipe solution at speed ``xi = x/t``.

    Defined for one incoming and one outgoing pipe. The junction sits at
    xi = 0; exactly on a discontinuity the right-side state is returned.
    """
    if len(sol.incoming) != 1 or len(sol.outgoing) != 1:
        raise DomainError("sampling is defined for 1-in/1-out junctions only")
    if not sol.admissible:
        raise InadmissibleError("cannot sample an inadmissible junction solution")
    law = sol.law
    left, right = sol.left, sol.right
    v_l, v_r = sol.left_trace, sol.right_trace

    if xi < 0.0:
        if sol.incoming_waves[0] is WaveType.SHOCK:
            if v_l.rho == left.rho:
                speed = lambda1(left, law)
            else:
                speed = (v_l.q - left.q) / (v_l.rho - left.rho)
            return left if xi < speed else v_l
        head = lambda1(left, law)
        tail = lambda1(v_l, law)
        if xi < head:
            return left
        if xi >= tail:
            return v_l
        rho = _invert_fan(lambda r: lax_left_deriv(r, left, law),
                          v_l.rho, left.rho, xi)
        return GasState(rho, lax_left(rho, left, law))

    if sol.outgoing_waves[0] is WaveType.SHOCK:
        if v_r.rho == right.rho:
            speed = lambda2(right, law)
        else:
            speed = (right.q - v_r.q) / (right.rho - v_r.rho)
        return v_r if xi < speed else right
    head = lambda2(v_r, law)
    tail = lambda2(right, law)
    if xi < head:
        return v_r
    if xi >= tail:
        return right
    # The 2-wave fan on the mirrored 1-curve (see laxcurves).
    mirror = right.mirrored()
    rho = _invert_fan(lambda r: -lax_left_deriv(r, mirror, law),
                      v_r.rho, right.rho, xi)
    return GasState(rho, lax_left(rho, mirror, law)).mirrored()
