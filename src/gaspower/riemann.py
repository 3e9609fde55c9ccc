"""Interface and junction Riemann solvers built on the wave curves.

A junction couples pipe traces through equality of pressure (one common
trace density for unit pressure ratios) and conservation of mass, optionally
with a prescribed extraction ``epsilon >= 0`` drawn at the node. The scalar
junction function

    D(rho) = sum_in lax_left_i(rho) - sum_out lax_right_j(rho)

is concave for well-posed pressure laws, being a sum of concave 1-curves and
negated convex 2-curves. Solutions live on its decreasing branch. Each port
slope is monotone and has the admissible sign (``lax_left' < 0`` in,
``lax_right' > 0`` out) exactly above that pipe's ``rho_min``; so a trace
density exceeds the junction minimal density (the largest per-pipe
``rho_min``) exactly when every port slope has the admissible sign there.
Sub-sonic traces additionally require it to stay below the smallest per-pipe
``rho_max``.

The root of D - epsilon is found by Newton's method from the right. It
starts at the largest datum density, where every port slope is admissible
because each datum exceeds its own ``rho_min``. On a concave, decreasing
function a first step from left of the root overshoots to its right, and
from there the iterates approach the root monotonically from the right.
Each iterate evaluates every curve and its slope from one rarefaction
integral; the iteration stops once the step is at most 1e-15 rho.

The bracketed search (``rho_min``, the maximum of D, brentq) runs only as
the fallback. It takes over when an iterate leaves the admissible decreasing
branch (a port slope with the wrong sign, or within a relative
``_SLOPE_TOL`` of zero), when the iterates stop decreasing or do not
converge, and for ports with a pressure ratio != 1, where D need not be
concave. It therefore decides every inadmissible or unsolvable junction:
``InvalidDemandError`` (with the supremum attached), ``NoSolutionError``,
``InadmissibleError`` and the inadmissible solutions of the non-strict
solvers. The junction limits ``rho_min_junction`` and ``rho_max_junction``
are not needed on the Newton path; they are computed on demand.

Ports may carry a pressure ratio r != 1 (an ideal compressor boosting that
pipe's trace pressure into the node by the factor r); the trace density of
such a port is p^{-1}(p(rho)/r).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from scipy.optimize import brentq

from .errors import (
    DomainError,
    InadmissibleError,
    InvalidDemandError,
    NoSolutionError,
)
from .laxcurves import (
    GasState,
    Side,
    WaveType,
    lambda1,
    lambda2,
    lax_left,
    lax_left_deriv,
    lax_left_with_deriv,
    lax_right,
    lax_right_deriv,
    lax_right_with_deriv,
    require_subsonic,
    rho_max,
    rho_min,
)
from .pressure import PressureLaw

_BRACKET_CAP = 1e12  # bracket expansion bound, relative to the density scale
_NEWTON_MAX_ITER = 50  # Newton iterations before the fallback takes over
_ROUNDING_STEP = 1e-14  # backward Newton step, relative to rho, taken as rounding
# Margin of the Newton path's admissibility test: a port slope must have the
# admissible sign by more than this fraction of the port velocity |lax/rho|
# (c at the pipe's rho_min), i.e. the density must exceed that rho_min by
# about this fraction. Closer roots, where D - epsilon may have a double root
# or spline rarefaction integrals carry ~1e-10 rounding, are left to the
# fallback, which decides them exactly as ``max_extraction`` does.
_SLOPE_TOL = 1e-6


def _pullback(law: PressureLaw, ratio: float, value: float) -> float:
    """Junction density whose port trace density equals ``value``."""
    if ratio == 1.0 or value == 0.0 or value == math.inf:
        return value
    return law.rho_from_pressure(ratio * float(law.p(value)))


def _port_limits(bound, incoming, outgoing, in_ratios, out_ratios, law):
    """Per-pipe ``bound`` (``rho_min`` or ``rho_max``) at junction density.

    The port map is increasing, so pulling each bound back through it keeps
    the order of the densities.
    """
    for state, ratio in zip(incoming, in_ratios):
        yield _pullback(law, ratio, bound(state, Side.IN, law))
    for state, ratio in zip(outgoing, out_ratios):
        yield _pullback(law, ratio, bound(state, Side.OUT, law))


@dataclass(frozen=True)
class JunctionSolution:
    """Traces and diagnostics of one junction Riemann solve.

    All traces of unit-ratio ports share the density ``rho_star`` (hence a
    common pressure); incoming and outgoing momenta balance the extraction.
    ``rho_min_junction`` and ``rho_max_junction`` (and the derived
    ``subsonic_traces`` flag) are evaluated from the stored data on first
    access; the time-stepping hot path never needs them.
    """

    rho_star: float
    epsilon: float
    incoming: tuple[GasState, ...]
    outgoing: tuple[GasState, ...]
    incoming_traces: tuple[GasState, ...]
    outgoing_traces: tuple[GasState, ...]
    incoming_waves: tuple[WaveType, ...]
    outgoing_waves: tuple[WaveType, ...]
    admissible: bool
    law: PressureLaw = field(repr=False)
    in_ratios: tuple[float, ...] = field(repr=False)
    out_ratios: tuple[float, ...] = field(repr=False)

    def _limits(self, bound):
        return _port_limits(bound, self.incoming, self.outgoing,
                            self.in_ratios, self.out_ratios, self.law)

    @cached_property
    def rho_min_junction(self) -> float:
        return max(self._limits(rho_min))

    @cached_property
    def rho_max_junction(self) -> float:
        return min(self._limits(rho_max))

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


def _port_density_maps(law: PressureLaw, ratio: float):
    """Map junction density -> trace density for a port of pressure ratio r.

    Returns (h, h'): h(rho) = p^{-1}(p(rho)/r) with derivative by implicit
    differentiation. Unit ratios short-circuit to the identity.
    """
    if ratio == 1.0:
        return (lambda r: r), (lambda r: 1.0)

    def h(rho: float) -> float:
        return law.rho_from_pressure(float(law.p(rho)) / ratio)

    def dh(rho: float) -> float:
        y = h(rho)
        return float(law.dp(rho)) / (ratio * float(law.dp(y)))

    return h, dh


def _traces(states, maps, rho_star, momenta):
    """Trace states and wave types of one port group at ``rho_star``."""
    traces = tuple(GasState(h(rho_star), q) for (h, _), q in zip(maps, momenta))
    waves = tuple(WaveType.RAREFACTION if v.rho <= s.rho else WaveType.SHOCK
                  for v, s in zip(traces, states))
    return traces, waves


class _JunctionProblem:
    """Scalar formulation of one junction solve."""

    def __init__(self, incoming, outgoing, epsilon, law,
                 in_ratios=None, out_ratios=None):
        incoming = tuple(incoming)
        outgoing = tuple(outgoing)
        if not incoming and not outgoing:
            raise DomainError("junction needs at least one pipe")
        if epsilon < 0.0:
            raise DomainError(f"extraction must be non-negative, got {epsilon}")
        for k, state in enumerate(incoming):
            require_subsonic(state, law, f"incoming state {k}")
        for k, state in enumerate(outgoing):
            require_subsonic(state, law, f"outgoing state {k}")
        self.incoming = incoming
        self.outgoing = outgoing
        self.epsilon = float(epsilon)
        self.law = law
        self.in_ratios = tuple(in_ratios) if in_ratios else (1.0,) * len(incoming)
        self.out_ratios = tuple(out_ratios) if out_ratios else (1.0,) * len(outgoing)
        self.in_maps = [_port_density_maps(law, r) for r in self.in_ratios]
        self.out_maps = [_port_density_maps(law, r) for r in self.out_ratios]
        self.scale = max(s.rho for s in incoming + outgoing)

    @cached_property
    def rho_min_junction(self) -> float:
        return max(_port_limits(rho_min, self.incoming, self.outgoing,
                                self.in_ratios, self.out_ratios, self.law))

    def imbalance(self, rho: float) -> float:
        """D(rho): incoming minus outgoing momentum at junction density rho."""
        total = 0.0
        for state, (h, _) in zip(self.incoming, self.in_maps):
            total += lax_left(h(rho), state, self.law)
        for state, (h, _) in zip(self.outgoing, self.out_maps):
            total -= lax_right(h(rho), state, self.law)
        return total

    def imbalance_deriv(self, rho: float) -> float:
        total = 0.0
        for state, (h, dh) in zip(self.incoming, self.in_maps):
            total += lax_left_deriv(h(rho), state, self.law) * dh(rho)
        for state, (h, dh) in zip(self.outgoing, self.out_maps):
            total -= lax_right_deriv(h(rho), state, self.law) * dh(rho)
        return total

    def argmax(self) -> float:
        """Locate the maximum of D by bisecting its (decreasing) derivative."""
        lo = 1e-9 * self.scale
        if self.imbalance_deriv(lo) <= 0.0:
            return lo
        hi = self.scale
        while self.imbalance_deriv(hi) > 0.0:
            hi *= 4.0
            if hi > _BRACKET_CAP * self.scale:
                # D keeps increasing on the whole search range.
                return hi
        return brentq(self.imbalance_deriv, lo, hi, rtol=1e-14)

    def max_extraction(self) -> float:
        """Supremum of solvable extractions: D at the junction minimal density."""
        floor = max(self.rho_min_junction, 1e-9 * self.scale)
        return self.imbalance(floor)

    def _admissible_sweep(self, rho: float):
        """Curves and slopes of every unit-ratio port at junction density rho.

        Returns ``(q_in, q_out, D(rho) - epsilon, D'(rho))``, or None as soon
        as a port slope is not admissible by the margin ``_SLOPE_TOL``.
        """
        law = self.law
        q_in, q_out, total, slope = [], [], 0.0, 0.0
        for state in self.incoming:
            q, dq = lax_left_with_deriv(rho, state, law)
            if not dq < -_SLOPE_TOL * abs(q) / rho:
                return None
            q_in.append(q)
            total += q
            slope += dq
        for state in self.outgoing:
            q, dq = lax_right_with_deriv(rho, state, law)
            if not dq > _SLOPE_TOL * abs(q) / rho:
                return None
            q_out.append(q)
            total -= q
            slope -= dq
        return q_in, q_out, total - self.epsilon, slope

    def _newton(self):
        """Admissible root of D - epsilon by Newton's method from the right.

        Returns ``(rho_star, q_in, q_out)`` with the trace momenta at
        rho_star, or None when the bracketed fallback has to decide. After
        the first step the iterates of a concave D only move left; a step
        back to the right is rounding at the root when it is at most
        ``_ROUNDING_STEP`` rho, and means that D is not concave otherwise.
        """
        rho, step = self.scale, math.inf
        for k in range(_NEWTON_MAX_ITER):
            sweep = self._admissible_sweep(rho)
            if sweep is None:
                return None
            q_in, q_out, residual, slope = sweep
            if abs(step) <= 1e-15 * rho:
                return rho, q_in, q_out
            step = residual / slope
            if k > 0 and step < 0.0:
                return (rho, q_in, q_out) if -step <= _ROUNDING_STEP * rho else None
            rho -= step
            if not 0.0 < rho < math.inf:
                return None
        return None

    def _bracketed(self, strict_admissibility: bool):
        """Root on the decreasing branch by bracketing; the fallback path.

        Returns ``(rho_star, q_in, q_out, admissible)``.
        """
        eps = self.epsilon

        if eps > 0.0:
            eps_max = self.max_extraction()
            if eps >= eps_max:
                raise InvalidDemandError(
                    f"extraction {eps:g} is at or above the junction maximum "
                    f"{eps_max:g}", epsilon_max=eps_max,
                )
            lo = max(self.rho_min_junction, 1e-9 * self.scale)
        else:
            lo = self.argmax()
            if self.imbalance(lo) < 0.0:
                raise NoSolutionError(
                    "junction curves have no intersection (imbalance is "
                    f"negative at its maximum, rho={lo:g})"
                )

        target = lambda r: self.imbalance(r) - eps
        hi = max(2.0 * lo, self.scale)
        while target(hi) > 0.0:
            hi *= 2.0
            if hi > _BRACKET_CAP * self.scale:
                raise NoSolutionError(
                    f"no sign change of the junction function up to rho={hi:g}"
                )
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
                f"{self.max_extraction():g}"
            )
        law = self.law
        q_in = [lax_left(h(rho_star), s, law)
                for s, (h, _) in zip(self.incoming, self.in_maps)]
        q_out = [lax_right(h(rho_star), s, law)
                 for s, (h, _) in zip(self.outgoing, self.out_maps)]
        return rho_star, q_in, q_out, admissible

    def solve(self, strict_admissibility: bool) -> JunctionSolution:
        unit_ratios = all(r == 1.0 for r in self.in_ratios + self.out_ratios)
        found = self._newton() if unit_ratios else None
        if found is None:
            rho_star, q_in, q_out, admissible = self._bracketed(strict_admissibility)
        else:
            (rho_star, q_in, q_out), admissible = found, True
        in_traces, in_waves = _traces(self.incoming, self.in_maps, rho_star, q_in)
        out_traces, out_waves = _traces(self.outgoing, self.out_maps, rho_star, q_out)
        return JunctionSolution(
            rho_star=float(rho_star),
            epsilon=self.epsilon,
            incoming=self.incoming,
            outgoing=self.outgoing,
            incoming_traces=in_traces,
            outgoing_traces=out_traces,
            incoming_waves=in_waves,
            outgoing_waves=out_waves,
            admissible=admissible,
            law=self.law,
            in_ratios=self.in_ratios,
            out_ratios=self.out_ratios,
        )


def solve_interface(left: GasState, right: GasState,
                    law: PressureLaw) -> JunctionSolution:
    """Solve the two-state interface problem (zero extraction).

    The unique intersection density of the two wave curves is bracketed on
    the decreasing branch and refined to machine precision; the solution may
    carry ``admissible=False`` when that density does not exceed the junction
    minimal density.
    """
    problem = _JunctionProblem([left], [right], 0.0, law)
    return problem.solve(strict_admissibility=False)


def solve_gas_power_junction(left: GasState, right: GasState, epsilon: float,
                             law: PressureLaw) -> JunctionSolution:
    """Two-pipe junction with a prescribed gas extraction ``epsilon >= 0``.

    Of the up to two densities where the curve gap equals ``epsilon``, the
    one on the decreasing branch is returned; the other would carry waves
    into the junction. Demands at or above :func:`max_extraction` raise
    ``InvalidDemandError`` with the admissible supremum attached.
    """
    if epsilon == 0.0:
        return solve_interface(left, right, law)
    problem = _JunctionProblem([left], [right], epsilon, law)
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
    ratios_in = tuple(in_pressure_ratios) if in_pressure_ratios else None
    ratios_out = tuple(out_pressure_ratios) if out_pressure_ratios else None
    problem = _JunctionProblem(incoming, outgoing, epsilon, law,
                               in_ratios=ratios_in, out_ratios=ratios_out)
    return problem.solve(strict_admissibility=True)


def max_extraction(left: GasState, right: GasState, law: PressureLaw) -> float:
    """Supremum of extractions solvable for the given two-pipe data."""
    problem = _JunctionProblem([left], [right], 0.0, law)
    return problem.max_extraction()


def wave_thresholds(left: GasState, right: GasState,
                    law: PressureLaw) -> tuple[float, float, float]:
    """Extraction levels separating the junction solution structures.

    Returns ``(eps_ss_upper, eps_rs_upper, eps_max)``: the curve gap at the
    larger datum density (below which both waves are shocks), at the smaller
    datum density (below which the wave on the denser side is a shock), and
    at the junction minimal density (at or above which no admissible solution
    exists).
    """
    problem = _JunctionProblem([left], [right], 0.0, law)
    hi = max(left.rho, right.rho)
    lo = min(left.rho, right.rho)
    return (
        problem.imbalance(hi),
        problem.imbalance(lo),
        problem.max_extraction(),
    )


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
    rho = _invert_fan(lambda r: lax_right_deriv(r, right, law),
                      v_r.rho, right.rho, xi)
    return GasState(rho, lax_right(rho, right, law))
