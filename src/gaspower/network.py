"""Pipe network state shared by the explicit and implicit schemes.

A :class:`GasSimulation` owns one state array of the network (cell averages
for the explicit scheme, node values for the box scheme, pipe after pipe;
the pipe grids are views of it), junction topology with optional compressors
and extractions, and boundary conditions. Its grids and pressure law are
fixed when it is built; a junction's extraction is a number. Boundary values
are completed through wave-curve compatibility with the adjacent interior
state: a prescribed pressure fixes the boundary density and the momentum
follows from the wave curve through the neighbouring state. A prescribed
momentum makes the pipe end a one-port junction: the outflow plays the part
of the extraction, and the junction solver of :mod:`gaspower.riemann` finds
the boundary density. A left boundary is the mirror image of a right one
(see the mirror convention in :mod:`gaspower.laxcurves`).
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, InvalidDemandError, NumericsError
from .friction import FrictionModel
from .laxcurves import GasState, lax_left
from .pressure import PressureLaw
from .riemann import junction_traces


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
                f"finite, got {self.length} and {self.diameter}")
        if not 0.0 <= self.roughness < math.inf:
            raise DomainError(
                f"pipe {self.id}: roughness must be non-negative and finite, "
                f"got {self.roughness}")

    @property
    def area(self) -> float:
        return math.pi * self.diameter**2 / 4.0


def _row(k: int) -> property:
    """Row ``k`` of a grid's state; assigning an array writes into it."""
    def assign(self, value):
        self._u[k] = value
    return property(lambda self: self._u[k], assign)


class PipeGrid:
    """Discrete state of one pipe.

    ``staggering='cells'`` stores N cell averages at cell centers (explicit
    scheme); ``staggering='nodes'`` stores N+1 point values at the nodes
    (box scheme). In a :class:`GasSimulation`, ``rho`` and ``q`` are views
    of the network state, and assigning an array writes through to it.
    """

    rho = _row(0)
    q = _row(1)

    def __init__(self, pipe: Pipe, n: int, law: PressureLaw,
                 staggering: str = "cells"):
        if n < 2:
            raise DomainError(f"pipe {pipe.id}: need at least 2 intervals")
        self.pipe = pipe
        self.n = int(n)
        self.law = law
        self.staggering = staggering
        self.dx = pipe.length / n
        self.x = _positions(self.n, self.dx, staggering)
        self._u = np.empty((2, self.x.size))

    def fill(self, rho: float, q: float) -> "PipeGrid":
        self.rho[:] = rho
        self.q[:] = q
        return self

    def set_profile(self, rho_of_x, q_of_x) -> "PipeGrid":
        self.rho[:] = rho_of_x(self.x)
        self.q[:] = q_of_x(self.x)
        return self

    def end_state(self, end: str) -> GasState:
        rho, q = self._u[:, 0 if end == "start" else -1]
        return GasState(float(rho), float(q))

    def check_subsonic(self) -> None:
        """Raise unless every state is finite, of positive density and sub-sonic.

        Non-finite states, non-positive densities and NaN sound speeds are
        ``NumericsError``; super-sonic states are ``DomainError``.
        """
        _check_states(self._u, self.law, self._describe)

    def _describe(self, what: str, i: int) -> str:
        return (f"pipe {self.pipe.id}: {what} at x={self.x[i]:g} "
                f"(rho={self.rho[i]:g}, q={self.q[i]:g})")


def _positions(n: int, dx: float, staggering: str) -> np.ndarray:
    """Cell centers or nodes of a pipe of ``n`` intervals of length ``dx``."""
    if staggering == "cells":
        return (np.arange(n) + 0.5) * dx
    if staggering == "nodes":
        return np.arange(n + 1) * dx
    raise DomainError(f"unknown staggering {staggering!r}")


def _check_states(u: np.ndarray, law: PressureLaw, describe) -> None:
    """:meth:`PipeGrid.check_subsonic` of the states ``u = (rho, q)``.

    One pass decides the common case: every state is finite, of positive
    density and sub-sonic exactly when 0 < rho < inf and |q / rho| < c hold
    for all of them, and the law sees only densities in that range. Else
    each category is checked over all states before the next one;
    ``describe(what, i)`` words the error of the first bad state ``i``.
    """
    rho, q = u
    if 0.0 < rho.min() and rho.max() < math.inf and np.all(np.abs(q / rho) < law.c(rho)):
        return

    def reject(bad, error, what: str) -> None:
        if bad.any():
            raise error(describe(what, int(np.argmax(bad))))

    reject(~(np.isfinite(rho) & np.isfinite(q)), NumericsError, "non-finite state")
    reject(~(rho > 0.0), NumericsError, "non-positive density")
    c = np.asarray(law.c(rho))
    reject(np.isnan(c), NumericsError, "NaN sound speed")
    reject(np.abs(q / rho) >= c, DomainError, "super-sonic state")


class _Layout(NamedTuple):
    """Entries of a network state stacked pipe after pipe."""

    staggering: str | None  # the pipes' common staggering, None if mixed
    counts: tuple           # entries of every pipe
    offsets: np.ndarray     # first entry of every pipe, then the entry count
    pipe_dx: np.ndarray     # grid spacing and cross-section of every pipe
    pipe_area: np.ndarray
    pipe: np.ndarray        # per entry: its pipe, its position in the pipe,
    x: np.ndarray
    dx: np.ndarray          # the pipe's geometry
    diameter: np.ndarray
    roughness: np.ndarray
    weight: np.ndarray      # and its mass per unit density


@functools.lru_cache(maxsize=32)
def _layout(grids: tuple) -> _Layout:
    """Layout of ``(pipe, intervals, staggering)`` grids stacked in order;
    cells weigh ``area * dx``, nodes follow the trapezoidal rule."""
    pipes, n, staggering = zip(*grids)
    pipe_dx = np.array([pipe.length / m for pipe, m in zip(pipes, n)])
    pipe_area = np.array([pipe.area for pipe in pipes])
    xs = [_positions(m, h, s) for m, h, s in zip(n, pipe_dx, staggering)]
    counts = tuple(x.size for x in xs)
    offsets = np.cumsum((0,) + counts)

    def per_entry(values):
        return np.repeat(values, counts)

    weight = per_entry(pipe_area * pipe_dx)
    for k in (k for k, s in enumerate(staggering) if s == "nodes"):
        weight[[offsets[k], offsets[k + 1] - 1]] *= 0.5
    layout = _Layout(
        staggering=staggering[0] if len(set(staggering)) == 1 else None,
        counts=counts, offsets=offsets, pipe_dx=pipe_dx, pipe_area=pipe_area,
        pipe=per_entry(np.arange(len(grids))), x=np.concatenate(xs),
        dx=per_entry(pipe_dx), diameter=per_entry([p.diameter for p in pipes]),
        roughness=per_entry([p.roughness for p in pipes]), weight=weight)
    for array in layout[2:]:
        array.flags.writeable = False
    return layout


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
                f"must be positive and finite, got {self.pressure_ratio!r}")


@dataclass
class Junction:
    """Pipe ends meeting at ``node`` and the gas drawn there.

    ``extraction`` is a number in momentum-flux units (negative injects gas);
    a step reads it as it is, and the co-simulation sets it before each step.
    """

    node: str
    ports: list[JunctionPort]
    extraction: float = 0.0

    def __post_init__(self):
        if not isinstance(self.extraction, numbers.Real):
            raise DomainError(f"junction {self.node}: extraction must be a real "
                              f"number, got {self.extraction!r}")
        self.extraction = float(self.extraction)


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
                   law: PressureLaw, end: str) -> GasState:
    """Complete a boundary state from prescribed data and the interior.

    ``end`` is the pipe end the condition acts on ('start' = left boundary).
    At a right boundary the interior is reached through a 1-wave; a left
    boundary, reached through a 2-wave, is solved as the mirrored right one
    (see the mirror convention in :mod:`gaspower.laxcurves`). A prescribed
    momentum makes the pipe end a one-port junction whose extraction is the
    outflow; an unreachable outflow is an ``InvalidDemandError``.
    """
    if bc.kind == "state":
        rho, q = bc.value(t)
        return GasState(float(rho), float(q))

    mirror = end == "start"
    interior = adjacent.mirrored() if mirror else adjacent
    if bc.kind == "flow":
        q_b = float(bc.value(t))
        outflow = -q_b if mirror else q_b
        try:
            rho_b = junction_traces([interior.rho], [interior.q], 1, outflow, law)[0]
        except InvalidDemandError as exc:
            raise InvalidDemandError(
                f"outflow {outflow:g} is at or above the boundary maximum "
                f"{exc.epsilon_max:g}", epsilon_max=exc.epsilon_max) from None
        return GasState(rho_b, q_b)
    target = bc.value(t)
    rho_b = (law.rho_from_pressure(target)
             if bc.kind == "pressure" else float(target))
    state = GasState(rho_b, lax_left(rho_b, interior, law))
    return state.mirrored() if mirror else state


@dataclass(frozen=True)
class StepRecord:
    """What one step did to the network's mass.

    ``expected_mass_change`` is what the step's boundary fluxes and junction
    extractions account for, so ``mass_defect`` is the discrete mass balance
    error of the step (sources in the density equation count towards it).
    """

    mass_change: float
    expected_mass_change: float

    @property
    def mass_defect(self) -> float:
        return self.mass_change - self.expected_mass_change


@dataclass
class GasSimulation:
    """Network state advanced in place by one of the two schemes.

    The network is fixed at build: ``grids`` becomes a tuple whose grids are
    views of :attr:`state`, laid out as :attr:`layout` says, and all pipes
    share one pressure law.
    """

    grids: tuple[PipeGrid, ...]
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
        self.grids = tuple(self.grids)
        self.law = self.grids[0].law
        for grid in self.grids:
            if grid.law != self.law:
                raise DomainError(
                    f"pipe {grid.pipe.id}: pressure law {grid.law.spec()} differs "
                    f"from the network's {self.law.spec()} "
                    f"(pipe {self.grids[0].pipe.id})")
        for j in self.junctions:
            areas = {round(self.grids[p.pipe_index].pipe.area, 12) for p in j.ports}
            if len(areas) > 1:
                # Flux conservation is stated in momentum-flux units and only
                # balances mass when the meeting pipes share a cross-section.
                raise DomainError(f"junction {j.node}: pipes of unequal cross-section")
        covered = {(p.pipe_index, p.end) for j in self.junctions for p in j.ports}
        covered |= set(self.boundaries.keys())
        if not self.periodic:
            for i, grid in enumerate(self.grids):
                for end in ("start", "end"):
                    if (i, end) not in covered:
                        raise DomainError(f"pipe {grid.pipe.id}: no boundary or "
                                          f"junction at its {end}")
        self._stack()

    def _stack(self) -> None:
        """Gather the grids' values into one network state, ``state``: row 0
        density and row 1 momentum, pipe after pipe, as ``layout`` gives the
        pipe, position and geometry of every entry. Each grid then holds a
        view of its slice."""
        self.layout = _layout(tuple((g.pipe, g.n, g.staggering) for g in self.grids))
        offsets = self.layout.offsets
        self.state = np.empty((2, int(offsets[-1])))
        for g, i, j in zip(self.grids, offsets, offsets[1:]):
            self.state[0, i:j], self.state[1, i:j] = g.rho, g.q
            g._u = self.state[:, i:j]

    def max_wavespeed(self) -> float:
        """Largest |u| + c over all pipes; NaN if any state is NaN."""
        rho, q = self.state
        return float(np.max(np.abs(q / rho) + np.asarray(self.law.c(rho)),
                            initial=0.0))

    def min_wavespeed(self) -> float:
        """Smallest characteristic speed |u -+ c|; NaN if any state is NaN."""
        rho, q = self.state
        c = np.asarray(self.law.c(rho))
        u = q / rho
        return float(np.min(np.minimum(np.abs(u - c), np.abs(u + c)),
                            initial=math.inf))

    def total_mass(self) -> float:
        """Mass in the network; node staggering uses the trapezoidal rule."""
        return float(np.dot(self.layout.weight, self.state[0]))

    def locate(self, entry: int) -> tuple[str, int]:
        """Pipe id and position in its pipe of entry ``entry`` of :attr:`state`."""
        layout = self.layout
        k = int(layout.pipe[entry])
        return self.grids[k].pipe.id, entry - int(layout.offsets[k])

    def state_vector(self) -> np.ndarray:
        """Copy of the network state: all densities, then all momenta."""
        return self.state.flatten()

    def require_staggering(self, staggering: str, scheme: str) -> None:
        """``DomainError`` naming the first pipe whose grid is not staggered
        as ``scheme`` needs, and the time."""
        if self.layout.staggering != staggering:
            grid = next(g for g in self.grids if g.staggering != staggering)
            raise DomainError(
                f"pipe {grid.pipe.id}: {scheme} needs staggering="
                f"{staggering!r}, got staggering={grid.staggering!r} "
                f"at t={self.t:g}"
            )

    def check_subsonic(self) -> None:
        """:meth:`PipeGrid.check_subsonic` on the network, naming the time."""
        layout = self.layout

        def describe(what: str, i: int) -> str:
            k = int(layout.pipe[i])
            place = self.grids[k]._describe(what, i - layout.offsets[k])
            return f"{place} at t={self.t:g}"

        _check_states(self.state, self.law, describe)
