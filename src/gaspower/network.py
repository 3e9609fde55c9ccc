"""Pipe network state shared by the explicit and implicit schemes.

A :class:`GasSimulation` owns per-pipe state arrays (cell averages for the
explicit scheme, node values for the box scheme), junction topology with
optional compressors and extractions, and boundary conditions. Boundary
values are completed through wave-curve compatibility with the adjacent
interior state: a prescribed pressure fixes the boundary density and the
momentum follows from the wave curve through the neighbouring state; a
prescribed momentum is matched on that curve, which fixes the boundary
density. A left boundary is the mirror image of a right one (see the mirror
convention in :mod:`gaspower.laxcurves`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.optimize import brentq

from .errors import DomainError, NoSolutionError, NumericsError
from .friction import FrictionModel
from .laxcurves import GasState, Side, lax_left, rho_min
from .pressure import PressureLaw


@dataclass(frozen=True)
class Pipe:
    """Static pipe geometry; lengths and diameters in meters."""

    id: str
    node_from: str
    node_to: str
    length: float
    diameter: float = 1.0
    roughness: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.length < math.inf and 0.0 < self.diameter < math.inf):
            raise DomainError(
                f"pipe {self.id}: length and diameter must be positive and "
                f"finite, got {self.length} and {self.diameter}"
            )
        if not 0.0 <= self.roughness < math.inf:
            raise DomainError(
                f"pipe {self.id}: roughness must be non-negative and finite, "
                f"got {self.roughness}"
            )

    @property
    def area(self) -> float:
        return math.pi * self.diameter**2 / 4.0


class PipeGrid:
    """Discrete state of one pipe.

    ``staggering='cells'`` stores N cell averages at cell centers (explicit
    scheme); ``staggering='nodes'`` stores N+1 point values at the nodes
    (box scheme).
    """

    def __init__(self, pipe: Pipe, n: int, law: PressureLaw,
                 staggering: str = "cells"):
        if n < 2:
            raise DomainError(f"pipe {pipe.id}: need at least 2 intervals")
        self.pipe = pipe
        self.n = int(n)
        self.law = law
        self.staggering = staggering
        self.dx = pipe.length / n
        if staggering == "cells":
            self.x = (np.arange(n) + 0.5) * self.dx
        elif staggering == "nodes":
            self.x = np.arange(n + 1) * self.dx
        else:
            raise DomainError(f"unknown staggering {staggering!r}")
        self.rho = np.empty_like(self.x)
        self.q = np.empty_like(self.x)

    def fill(self, rho: float, q: float) -> "PipeGrid":
        self.rho[:] = rho
        self.q[:] = q
        return self

    def set_profile(self, rho_of_x, q_of_x) -> "PipeGrid":
        self.rho[:] = rho_of_x(self.x)
        self.q[:] = q_of_x(self.x)
        return self

    def state_at(self, index: int) -> GasState:
        return GasState(float(self.rho[index]), float(self.q[index]))

    def end_state(self, end: str) -> GasState:
        return self.state_at(0 if end == "start" else -1)

    def check_subsonic(self) -> None:
        """Raise unless every state is finite, of positive density and sub-sonic.

        Non-finite states, non-positive densities and NaN sound speeds are
        ``NumericsError``; super-sonic states are ``DomainError``.
        """
        self._reject(~(np.isfinite(self.rho) & np.isfinite(self.q)),
                     NumericsError, "non-finite state")
        self._reject(~(self.rho > 0.0), NumericsError, "non-positive density")
        c = np.asarray(self.law.c(self.rho))
        self._reject(np.isnan(c), NumericsError, "NaN sound speed")
        self._reject(np.abs(self.q / self.rho) >= c, DomainError, "super-sonic state")

    def _reject(self, bad, error, what: str) -> None:
        """Raise ``error`` naming the pipe and the first position in ``bad``."""
        if np.any(bad):
            i = int(np.argmax(bad))
            raise error(
                f"pipe {self.pipe.id}: {what} at x={self.x[i]:g} "
                f"(rho={self.rho[i]:g}, q={self.q[i]:g})"
            )


@dataclass(frozen=True)
class JunctionPort:
    """One pipe end meeting a junction.

    ``end='end'`` means the pipe flows into the node (its 1-curve is used);
    ``end='start'`` means it leaves the node. ``pressure_ratio`` > 1 models
    an ideal compressor boosting this port's pressure into the node.
    """

    pipe_index: int
    end: str  # "start" | "end"
    pressure_ratio: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.pressure_ratio < math.inf):
            raise DomainError(
                f"pipe {self.pipe_index} {self.end}: compressor pressure ratio "
                f"must be positive and finite, got {self.pressure_ratio!r}"
            )


@dataclass
class Junction:
    node: str
    ports: list[JunctionPort]
    extraction: Callable[[float], float] | None = None  # momentum-flux units

    def extraction_at(self, t: float) -> float:
        return float(self.extraction(t)) if self.extraction is not None else 0.0

    def incoming_ports(self):
        return [p for p in self.ports if p.end == "end"]

    def outgoing_ports(self):
        return [p for p in self.ports if p.end == "start"]


@dataclass(frozen=True)
class BoundaryCondition:
    """Physical boundary data at a pipe end.

    kind: 'pressure' (inflow pressure series), 'density' (equivalent, given
    directly), 'flow' (outflow momentum series), or 'state' (far-field pair,
    value(t) -> (rho, q)).
    """

    kind: str
    value: Callable[[float], float | tuple[float, float]]

    def __post_init__(self):
        if self.kind not in ("pressure", "density", "flow", "state"):
            raise DomainError(f"unknown boundary kind {self.kind!r}")


def flux(rho, q, law: PressureLaw):
    """Physical flux (q, p(rho) + q^2/rho) of the flow equations."""
    return q, law.p(rho) + q * q / rho


def flux_jacobian(rho, q, law: PressureLaw):
    """Entries of dF/dU = [[0, 1], [c^2 - u^2, 2u]] (vectorized)."""
    u = q / rho
    return law.dp(rho) - u * u, 2.0 * u


def constant(v):
    return lambda t: v


def ramp(t0: float, t1: float, v0: float, v1: float):
    """Piecewise-linear ramp from v0 to v1 over [t0, t1], constant outside."""
    if t1 <= t0:
        raise DomainError("ramp needs t1 > t0")

    def f(t):
        if t <= t0:
            return v0
        if t >= t1:
            return v1
        return v0 + (v1 - v0) * (t - t0) / (t1 - t0)

    return f


def apply_boundary(adjacent: GasState, bc: BoundaryCondition, t: float,
                   law: PressureLaw, end: str,
                   rho_guess: float | None = None) -> GasState:
    """Complete a boundary state from prescribed data and the interior.

    ``end`` is the pipe end the condition acts on ('start' = left boundary).
    At a right boundary the interior is reached through a 1-wave; a left
    boundary, reached through a 2-wave, is solved as the mirrored right one
    (see the mirror convention in :mod:`gaspower.laxcurves`).
    """
    if bc.kind == "state":
        rho, q = bc.value(t)
        return GasState(float(rho), float(q))

    mirror = end == "start"
    interior = adjacent.mirrored() if mirror else adjacent
    if bc.kind == "flow":
        q_b = float(bc.value(t))
        rho_b = _match_on_curve(interior, -q_b if mirror else q_b, law, rho_guess,
                                what=f"boundary momentum {q_b:g}")
        return GasState(rho_b, q_b)
    target = bc.value(t)
    rho_b = (law.rho_from_pressure(target)
             if bc.kind == "pressure" else float(target))
    state = GasState(rho_b, lax_left(rho_b, interior, law))
    return state.mirrored() if mirror else state


def _match_on_curve(interior: GasState, q_target: float, law: PressureLaw,
                    guess: float | None, what: str) -> float:
    """Find rho > rho_min with lax_left(rho; interior) == q_target.

    The 1-curve decreases above ``rho_min``. A warm-start guess narrows the
    bracket; ``what`` names the prescribed momentum in error messages.
    """
    g = lambda r: lax_left(r, interior, law) - q_target
    lo = max(rho_min(interior, Side.IN, law), 1e-9 * interior.rho)
    g_lo = g(lo)
    if g_lo < 0.0:
        raise NoSolutionError(
            f"{what} unreachable: the wave curve from the interior misses it "
            f"by {-g_lo:g} at its junction-side bound rho={lo:g}"
        )
    if guess is not None and guess > lo:
        a, b = max(0.8 * guess, lo), 1.25 * guess
        if g(a) * g(b) <= 0.0:
            return brentq(g, a, b, rtol=1e-15)
    hi = max(2.0 * lo, 2.0 * interior.rho)
    for _ in range(200):
        if g_lo * g(hi) <= 0.0:
            break
        hi *= 2.0
    else:
        raise NoSolutionError(
            f"no density matches {what} (searched up to rho={hi:g})"
        )
    return brentq(g, lo, hi, rtol=1e-15)


@dataclass
class GasSimulation:
    """Mutable network state advanced by one of the two schemes.

    ``boundary_guess`` maps a pipe end ``(pipe index, end)`` to the boundary
    density found there last; the explicit scheme passes it to
    :func:`apply_boundary` as the warm start of the next momentum match.
    """

    grids: list[PipeGrid]
    junctions: list[Junction] = field(default_factory=list)
    boundaries: dict[tuple[int, str], BoundaryCondition] = field(default_factory=dict)
    friction: FrictionModel = field(default_factory=lambda: FrictionModel(enabled=False))
    extra_source: Callable | None = None  # (x, t, rho, q) -> (g_rho, g_q)
    periodic: bool = False
    t: float = 0.0

    def __post_init__(self):
        if self.periodic and (self.junctions or self.boundaries
                              or len(self.grids) != 1):
            raise DomainError("periodic runs support exactly one isolated pipe")
        self.law = self.grids[0].law
        self.boundary_guess: dict[tuple[int, str], float] = {}
        for j in self.junctions:
            areas = {round(self.grids[p.pipe_index].pipe.area, 12) for p in j.ports}
            if len(areas) > 1:
                # Flux conservation is stated in momentum-flux units and only
                # balances mass when the meeting pipes share a cross-section.
                raise DomainError(
                    f"junction {j.node}: pipes of unequal cross-section"
                )
        covered = {(p.pipe_index, p.end) for j in self.junctions for p in j.ports}
        covered |= set(self.boundaries.keys())
        if not self.periodic:
            for i, _ in enumerate(self.grids):
                for end in ("start", "end"):
                    if (i, end) not in covered:
                        raise DomainError(
                            f"pipe {self.grids[i].pipe.id}: no boundary or "
                            f"junction at its {end}"
                        )

    def max_wavespeed(self) -> float:
        """Largest |u| + c over all pipes; NaN if any state is NaN."""
        return float(np.max(
            [np.max(np.abs(g.q / g.rho) + np.asarray(self.law.c(g.rho)))
             for g in self.grids], initial=0.0))

    def min_wavespeed(self) -> float:
        """Smallest characteristic speed |u -+ c|; NaN if any state is NaN."""
        lam = []
        for g in self.grids:
            c = np.asarray(self.law.c(g.rho))
            u = g.q / g.rho
            lam.append(np.min(np.minimum(np.abs(u - c), np.abs(u + c))))
        return float(np.min(lam, initial=math.inf))

    def total_mass(self) -> float:
        """Mass in the network; node staggering uses the trapezoidal rule."""
        total = 0.0
        for g in self.grids:
            if g.staggering == "cells":
                cell_sum = float(np.sum(g.rho))
            else:
                cell_sum = float(np.sum(g.rho)) - 0.5 * float(g.rho[0] + g.rho[-1])
            total += g.pipe.area * g.dx * cell_sum
        return total

    def state_vector(self) -> np.ndarray:
        return np.concatenate([np.stack([g.rho, g.q]).ravel() for g in self.grids])

    def check_subsonic(self) -> None:
        """:meth:`PipeGrid.check_subsonic` on every pipe, naming the time."""
        for g in self.grids:
            try:
                g.check_subsonic()
            except (NumericsError, DomainError) as err:
                raise type(err)(f"{err} at t={self.t:g}") from None
