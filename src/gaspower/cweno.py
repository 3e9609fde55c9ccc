"""Explicit third-order central-WENO finite-volume scheme.

Interior interface values come from a compact three-cell CWENO
reconstruction (linear/linear/parabolic candidates with ideal weights
1/4, 1/2, 1/4 and regularization epsilon = dx^2, which preserves full order
at smooth critical points), formed in one pass as v + e +- s from the
even and odd parts of the weighted candidates; the numerical flux is local
Lax-Friedrichs with one ``p_and_c`` call on the edge buffer, and time
integration is the optimal three-stage SSP Runge-Kutta method.

A step advances the simulation's network state in place: one ``(2, N)``
array (row 0 density, row 1 momentum, pipe after pipe) of which the pipe
grids are views, so a stage reconstructs and takes fluxes and friction once
for all pipes. The simulation's first step builds its layout, which holds
the pipe ends and the stage workspace, and keeps it as the simulation's
``scheme_layout`` for every later step. Its difference row of all N + 1
interfaces (the outer ones 0, or the wrapped difference on a periodic pipe)
gives every cell both slopes, and its side weights are formed once per
interface; an interface between two pipes, whose slope mixes them, only
reaches end cells, which fall back to first order. Its edge buffer holds
the right edges, a spare column and the left edges, so the plus side of
every right interface is a shifted slice, and the flux evaluates the law
once on the whole density row. Every stage overwrites the workspace.

Every stage solves each junction Riemann problem on the cell averages next
to its ports, read at once through the layout: by ``junction_traces`` on
floats, or by ``solve_multi_junction`` where a port has a compressor ratio
other than 1. The trace fluxes are the end fluxes of those cells, whose
reconstruction falls back to first order. Physical boundaries enter the
same way: ``apply_boundary`` takes the end cell's density and momentum as
floats and returns the trace's.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import CflViolationError, GasPowerError
from .laxcurves import GasState
from .network import GasSimulation, StepRecord, apply_boundary, flux
from .riemann import junction_traces, solve_multi_junction

CFL_NUMBER = 0.45
_STAGE_SHIFTS = (0.0, 1.0, 0.5)
_STAGE_WEIGHTS = (1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0)
_GAUSS_OFFSET = 0.5 / np.sqrt(3.0)


class _Layout(NamedTuple):
    """Cell indices of a network stacked pipe after pipe, and the work arrays
    of a stage on it (see ``_reconstruct``)."""

    first: np.ndarray       # first and last cell of every pipe
    last: np.ndarray
    ends: np.ndarray        # cells reconstructed to first order
    port_cells: np.ndarray  # cell next to every junction port, junction after junction
    junctions: tuple        # per junction: slice of port_cells, cells, n_in, ratios, unit
    periodic: bool
    slopes: np.ndarray      # (2, n+1): v[:, k] - v[:, k-1] at every interface k
    weights: np.ndarray     # (2, n+1): side weight of every interface
    edges: np.ndarray       # (2, 2n+2): right edges, spare, left edges, wrapped left edge
    f_left: np.ndarray      # (2, n): flux through every cell's left interface


def _layout(counts: tuple, periodic: bool, junctions=()) -> _Layout:
    """Layout of pipes with ``counts`` cells, wrapped when ``periodic``, and
    of the ``JunctionPort``s of every junction, incoming ports first."""
    last = np.cumsum(counts) - 1
    first = last - counts + 1
    n = int(last[-1]) + 1
    ends = np.empty(0, dtype=np.intp) if periodic else np.concatenate([first, last])
    port_cells, ports = [], []
    for junction in junctions:
        junction = sorted(junction, key=lambda p: p.end == "start")  # incoming first
        adjacent = [int((last if p.end == "end" else first)[p.pipe_index]) for p in junction]
        ratios = tuple(p.pressure_ratio for p in junction)
        ports.append((slice(len(port_cells), len(port_cells) + len(adjacent)), adjacent,
                      sum(p.end == "end" for p in junction), ratios, set(ratios) <= {1.0}))
        port_cells += adjacent
    # The spare and the unwrapped last column of the edges hold the state
    # (1, 0), so that the flux may evaluate the law on the whole buffer.
    edges = np.zeros((2, 2 * n + 2))
    edges[0] = 1.0
    layout = _Layout(first, last, ends, np.array(port_cells, dtype=np.intp), tuple(ports),
                     periodic, np.zeros((2, n + 1)), np.empty((2, n + 1)), edges,
                     np.empty((2, n)))
    for array in layout[:4]:
        array.flags.writeable = False
    return layout


def _reconstruct(v: np.ndarray, eps: np.ndarray, layout: _Layout):
    """Interface values (left edge, right edge) of each cell of the stacked
    rows ``v``, as views of ``layout.edges``; ``eps`` is dx^2 per cell."""
    n = v.shape[1]
    d, a, edges = layout.slopes, layout.weights, layout.edges
    np.subtract(v[:, 1:], v[:, :-1], out=d[:, 1:-1])
    if layout.periodic:
        d[:, 0] = d[:, -1] = v[:, 0] - v[:, -1]
    sl, sr = d[:, :-1], d[:, 1:]  # every cell's left and right slope
    p1, p2 = sl + sr, sr - sl
    p1 *= 0.5
    p2 *= 0.5
    # Unnormalized weights ideal / (eps + smoothness indicator)^2; the side
    # ones once per interface, with the eps of the cell on its right (of the
    # last cell at the outer right end).
    np.multiply(d, d, out=a)
    a[:, :-1] += eps
    a[:, -1] += eps[-1]
    a *= a
    np.divide(0.25, a, out=a)
    a_l, a_r = a[:, :-1], a[:, 1:]
    a_c = p1 * p1
    a_c += (13.0 / 3.0) * p2 * p2
    a_c += eps
    a_c *= a_c
    np.divide(0.5, a_c, out=a_c)
    inv = a_l + a_c
    inv += a_r
    np.divide(1.0, inv, out=inv)
    # The weighted candidates at the edges are v + e +- s, with s the odd
    # part (the weighted half slopes) and e the even part (w_c p2 / 3).
    s = a_l * sl
    s += a_r * sr
    s += a_c * p1
    s *= 0.5 * inv
    e = a_c * p2
    e *= inv / 3.0
    e += v
    right, left = edges[:, :n], edges[:, n + 1:-1]
    np.add(e, s, out=right)
    np.subtract(e, s, out=left)

    # End cells of bounded pipes reduce to first order; their outer
    # interface is served by the junction/boundary trace state anyway.
    left[:, layout.ends] = right[:, layout.ends] = v[:, layout.ends]
    if layout.periodic:
        edges[:, -1] = left[:, 0]
    return left, right


def _llf_flux(edges: np.ndarray, law):
    """Local Lax-Friedrichs flux (f_m + f_p - alpha (u_p - u_m)) / 2 with
    f = (q, p + q u) through n interfaces, whose stacked minus and plus
    states are columns ``:n`` and ``n+2:`` of the ``(2, 2n+2)`` ``edges``.

    Pressure, sound speed, velocity and wave speed are formed once on the
    whole buffer, whose two other columns must hold admissible states.
    """
    n = edges.shape[1] // 2 - 1
    p, c = law.p_and_c(edges[0])
    v = edges[1] / edges[0]
    lam = np.abs(v)
    lam += c
    qv = edges[1] * v
    u_m, u_p = edges[:, :n], edges[:, n + 2:]
    out = u_m - u_p
    out *= np.maximum(lam[:n], lam[n + 2:])
    out[0] += u_m[1] + u_p[1]
    momentum = p[:n] + qv[:n]
    momentum += p[n + 2:]
    momentum += qv[n + 2:]
    out[1] += momentum
    out *= 0.5
    return out


def _end_fluxes(sim: GasSimulation, u: np.ndarray, layout: _Layout,
                t_stage: float, f_left: np.ndarray, f_right: np.ndarray) -> None:
    """Set the trace flux of every pipe end in ``f_left`` (starts) and
    ``f_right`` (ends); a ``GasPowerError`` of a solve is re-raised with its
    message prefixed by the stage time and the junction or pipe end."""
    law = sim.law
    rho_all, q_all = u[:, layout.port_cells].tolist()
    for junction, (span, cells, n_in, ratios, unit) in zip(sim.junctions, layout.junctions):
        rho, q, epsilon = rho_all[span], q_all[span], junction.extraction
        try:
            if unit:
                rho_star, momenta = junction_traces(rho, q, n_in, epsilon, law)
                traces = [(rho_star, q_v) for q_v in momenta]
            else:
                states = [GasState(*v) for v in zip(rho, q)]
                sol = solve_multi_junction(states[:n_in], states[n_in:], epsilon, law,
                                           in_pressure_ratios=ratios[:n_in],
                                           out_pressure_ratios=ratios[n_in:])
                traces = [(v.rho, v.q) for v in sol.incoming_traces + sol.outgoing_traces]
        except GasPowerError as exc:
            exc.args = (f"t={t_stage:g}, junction {junction.node}: {exc}",)
            raise
        for k, (cell, (rho_v, q_v)) in enumerate(zip(cells, traces)):
            f = f_right if k < n_in else f_left
            f[0, cell], f[1, cell] = flux(rho_v, q_v, law)
    for (idx, end), bc in sim.boundaries.items():
        f, cell = (f_left, layout.first[idx]) if end == "start" else (f_right, layout.last[idx])
        try:
            rho_b, q_b = apply_boundary(*u[:, cell].tolist(), bc, t_stage, law, end)
        except GasPowerError as exc:
            exc.args = (f"t={t_stage:g}, pipe {sim.grids[idx].pipe.id} {end}: {exc}",)
            raise
        f[0, cell], f[1, cell] = flux(rho_b, q_b, law)


def _rhs(sim: GasSimulation, u: np.ndarray, t_stage: float, layout: _Layout,
         eps: np.ndarray):
    """Right-hand side of the stacked state ``u`` and the net boundary mass
    rate; ``eps`` is dx^2 per cell."""
    cells = sim.layout
    dx, x = cells.dx, cells.x
    _reconstruct(u, eps, layout)
    # Flux through every cell's right interface; the left one is the left
    # neighbour's, except at pipe ends, which take the flux of their trace.
    f_right = _llf_flux(layout.edges, sim.law)
    f_left = layout.f_left
    f_left[:, 1:] = f_right[:, :-1]
    f_left[:, 0] = f_right[:, -1]
    _end_fluxes(sim, u, layout, t_stage, f_left, f_right)
    # Zero on a periodic pipe, whose end fluxes are those of one interface.
    mass_rate = float(np.dot(cells.pipe_area,
                             f_left[0, layout.first] - f_right[0, layout.last]))

    d = f_left - f_right
    d /= dx
    if sim.friction.enabled:
        d[1] += sim.friction.source(u[0], u[1], cells.diameter, cells.roughness,
                                    sim.friction_constants)
    if sim.extra_source is not None:
        # Two-point Gauss average keeps smooth (x,t) sources third order.
        h = _GAUSS_OFFSET * dx
        for row, ga, gb in zip(d, sim.extra_source(x - h, t_stage, u[0], u[1]),
                               sim.extra_source(x + h, t_stage, u[0], u[1])):
            row += 0.5 * (np.asarray(ga) + np.asarray(gb))
    return d, mass_rate


def cweno3_step(sim: GasSimulation, dt: float) -> StepRecord:
    """Advance the network by one SSP-RK3 step of size ``dt`` and return its
    mass balance; the expected change is the stage-weighted net boundary
    mass rate.

    Raises ``DomainError`` on node grids and ``CflViolationError`` when dt
    exceeds CFL_NUMBER * dx / max|lambda| on any pipe, and aborts if a cell
    leaves the sub-sonic regime.
    """
    sim.require_staggering("cells", "CWENO3")
    lam = sim.max_wavespeed()
    pipe_dx = sim.layout.pipe_dx
    bad = ~(dt * lam <= CFL_NUMBER * pipe_dx * (1.0 + 1e-12))
    if bad.any():
        k = int(np.argmax(bad))
        raise CflViolationError(
            f"dt={dt:g} exceeds CFL bound {CFL_NUMBER * pipe_dx[k] / lam:g} "
            f"on pipe {sim.grids[k].pipe.id} (max wavespeed {lam:g})"
        )

    t = sim.t
    u0 = sim.state
    layout = sim.scheme_layout
    if layout is None:
        layout = sim.scheme_layout = _layout(sim.layout.counts, sim.periodic,
                                             [j.ports for j in sim.junctions])
    mass_before = sim.total_mass()
    eps = sim.layout.dx * sim.layout.dx

    k1, rate1 = _rhs(sim, u0, t + _STAGE_SHIFTS[0] * dt, layout, eps)
    u1 = u0 + dt * k1
    k2, rate2 = _rhs(sim, u1, t + _STAGE_SHIFTS[1] * dt, layout, eps)
    u2 = 0.75 * u0 + 0.25 * (u1 + dt * k2)
    k3, rate3 = _rhs(sim, u2, t + _STAGE_SHIFTS[2] * dt, layout, eps)
    # u0 / 3 + (2/3) (u2 + dt k3), formed in the network state itself.
    u0 /= 3.0
    u0 += (2.0 / 3.0) * (u2 + dt * k3)

    sim.t = t + dt
    sim.check_subsonic()
    expected = dt * (rate1 * _STAGE_WEIGHTS[0] + rate2 * _STAGE_WEIGHTS[1]
                     + rate3 * _STAGE_WEIGHTS[2])
    return StepRecord(sim.total_mass() - mass_before, expected)
