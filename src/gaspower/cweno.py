"""Explicit third-order central-WENO finite-volume scheme.

Interior interface values come from a compact three-cell CWENO
reconstruction (linear/linear/parabolic candidates with ideal weights
1/4, 1/2, 1/4 and regularization epsilon = dx^2, which preserves full order
at smooth critical points); the numerical flux is local Lax-Friedrichs, and
time integration is the optimal three-stage SSP Runge-Kutta method.

Coupling points are handled by solving the junction Riemann problem with the
adjacent cell averages as data at every stage; the resulting trace states
are imposed as exact boundary states of the neighbouring cells, whose
reconstruction falls back to first order. Physical boundaries enter the same
way through wave-curve compatible boundary states.
"""

from __future__ import annotations

import numpy as np

from .errors import CflViolationError
from .laxcurves import GasState
from .network import GasSimulation, apply_boundary, flux
from .riemann import solve_multi_junction

CFL_NUMBER = 0.45
_STAGE_SHIFTS = (0.0, 1.0, 0.5)
_STAGE_WEIGHTS = (1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0)
_GAUSS_OFFSET = 0.5 / np.sqrt(3.0)


def _reconstruct(v: np.ndarray, dx: float, periodic: bool):
    """Interface values (left edge, right edge) of each cell."""
    n = v.size
    if periodic:
        vm = np.roll(v, 1)
        vp = np.roll(v, -1)
    else:
        vm = np.empty_like(v)
        vp = np.empty_like(v)
        vm[1:] = v[:-1]
        vp[:-1] = v[1:]
        vm[0] = v[0]
        vp[-1] = v[-1]

    p1 = 0.5 * (vp - vm)
    p2 = 0.5 * (vp - 2.0 * v + vm)

    eps = dx * dx
    is_l = (v - vm) ** 2
    is_r = (vp - v) ** 2
    is_c = p1 * p1 + (13.0 / 3.0) * p2 * p2
    a_l = 0.25 / (eps + is_l) ** 2
    a_r = 0.25 / (eps + is_r) ** 2
    a_c = 0.50 / (eps + is_c) ** 2
    total = a_l + a_c + a_r
    w_l, w_c, w_r = a_l / total, a_c / total, a_r / total

    slope_l = v - vm
    slope_r = vp - v
    right = (w_l * (v + 0.5 * slope_l)
             + w_r * (v + 0.5 * slope_r)
             + w_c * (v + 0.5 * p1 + p2 / 3.0))
    left = (w_l * (v - 0.5 * slope_l)
            + w_r * (v - 0.5 * slope_r)
            + w_c * (v - 0.5 * p1 + p2 / 3.0))

    if not periodic and n >= 2:
        # End cells reduce to first order; their outer interface is served
        # by the junction/boundary trace state anyway.
        left[0] = right[0] = v[0]
        left[-1] = right[-1] = v[-1]
    return left, right


def _llf_flux(rho_m, q_m, rho_p, q_p, law):
    """Local Lax-Friedrichs flux between minus/plus interface states."""
    lam_m = np.abs(q_m / rho_m) + law.c(rho_m)
    lam_p = np.abs(q_p / rho_p) + law.c(rho_p)
    alpha = np.maximum(lam_m, lam_p)
    f0_m, f1_m = flux(rho_m, q_m, law)
    f0_p, f1_p = flux(rho_p, q_p, law)
    f0 = 0.5 * (f0_m + f0_p) - 0.5 * alpha * (rho_p - rho_m)
    f1 = 0.5 * (f1_m + f1_p) - 0.5 * alpha * (q_p - q_m)
    return f0, f1


def _end_traces(sim: GasSimulation, states, t_stage: float):
    """Trace state at every pipe end from junction solves and boundaries."""
    traces: dict[tuple[int, str], GasState] = {}
    for junction in sim.junctions:
        ports_in = junction.incoming_ports()
        ports_out = junction.outgoing_ports()
        data_in = [GasState(float(states[p.pipe_index][0][-1]),
                            float(states[p.pipe_index][1][-1]))
                   for p in ports_in]
        data_out = [GasState(float(states[p.pipe_index][0][0]),
                             float(states[p.pipe_index][1][0]))
                    for p in ports_out]
        sol = solve_multi_junction(
            data_in, data_out, junction.extraction_at(t_stage), sim.law,
            in_pressure_ratios=[p.pressure_ratio for p in ports_in],
            out_pressure_ratios=[p.pressure_ratio for p in ports_out],
        )
        for port, trace in zip(ports_in, sol.incoming_traces):
            traces[(port.pipe_index, "end")] = trace
        for port, trace in zip(ports_out, sol.outgoing_traces):
            traces[(port.pipe_index, "start")] = trace
    for (idx, end), bc in sim.boundaries.items():
        adjacent = GasState(float(states[idx][0][0 if end == "start" else -1]),
                            float(states[idx][1][0 if end == "start" else -1]))
        key = (idx, end)
        trace = apply_boundary(adjacent, bc, t_stage, sim.law, end,
                               rho_guess=sim.boundary_guess.get(key))
        sim.boundary_guess[key] = trace.rho
        traces[key] = trace
    return traces


def _rhs(sim: GasSimulation, states, t_stage: float):
    """Semi-discrete right-hand side; also returns the net boundary mass rate."""
    law = sim.law
    out = []
    mass_rate = 0.0
    traces = {} if sim.periodic else _end_traces(sim, states, t_stage)
    for idx, grid in enumerate(sim.grids):
        rho, q = states[idx]
        dx = grid.dx
        rho_left, rho_right = _reconstruct(rho, dx, sim.periodic)
        q_left, q_right = _reconstruct(q, dx, sim.periodic)

        if sim.periodic:
            # interface j sits between cells j-1 and j (wrapping)
            rho_m = np.roll(rho_right, 1)
            q_m = np.roll(q_right, 1)
            f0, f1 = _llf_flux(rho_m, q_m, rho_left, q_left, law)
            df0 = np.roll(f0, -1) - f0
            df1 = np.roll(f1, -1) - f1
        else:
            f0 = np.empty(grid.n + 1)
            f1 = np.empty(grid.n + 1)
            f0[1:-1], f1[1:-1] = _llf_flux(
                rho_right[:-1], q_right[:-1], rho_left[1:], q_left[1:], law
            )
            left_state = traces[(idx, "start")]
            right_state = traces[(idx, "end")]
            f0[0], f1[0] = flux(left_state.rho, left_state.q, law)
            f0[-1], f1[-1] = flux(right_state.rho, right_state.q, law)
            df0 = f0[1:] - f0[:-1]
            df1 = f1[1:] - f1[:-1]
            mass_rate += grid.pipe.area * (f0[0] - f0[-1])

        d_rho = -df0 / dx
        d_q = -df1 / dx
        d_q += sim.friction.source(rho, q, grid.pipe.diameter, grid.pipe.roughness)
        if sim.extra_source is not None:
            # Two-point Gauss average keeps smooth (x,t) sources third order.
            h = _GAUSS_OFFSET * dx
            g0a, g1a = sim.extra_source(grid.x - h, t_stage, rho, q)
            g0b, g1b = sim.extra_source(grid.x + h, t_stage, rho, q)
            d_rho = d_rho + 0.5 * (np.asarray(g0a) + np.asarray(g0b))
            d_q = d_q + 0.5 * (np.asarray(g1a) + np.asarray(g1b))
        out.append((d_rho, d_q))
    return out, mass_rate


def cweno3_step(sim: GasSimulation, dt: float) -> None:
    """Advance the network by one SSP-RK3 step of size ``dt``.

    Raises ``CflViolationError`` when dt exceeds CFL_NUMBER * dx / max|lambda|
    on any pipe, and aborts if a cell leaves the sub-sonic regime.
    """
    lam = sim.max_wavespeed()
    for grid in sim.grids:
        if not dt * lam <= CFL_NUMBER * grid.dx * (1.0 + 1e-12):
            raise CflViolationError(
                f"dt={dt:g} exceeds CFL bound {CFL_NUMBER * grid.dx / lam:g} "
                f"on pipe {grid.pipe.id} (max wavespeed {lam:g})"
            )

    t = sim.t
    u0 = [(g.rho.copy(), g.q.copy()) for g in sim.grids]
    mass_before = sim.total_mass()

    k1, rate1 = _rhs(sim, u0, t + _STAGE_SHIFTS[0] * dt)
    u1 = [(r + dt * dr, q + dt * dq)
          for (r, q), (dr, dq) in zip(u0, k1)]
    k2, rate2 = _rhs(sim, u1, t + _STAGE_SHIFTS[1] * dt)
    u2 = [(0.75 * r0 + 0.25 * (r1 + dt * dr), 0.75 * q0 + 0.25 * (q1 + dt * dq))
          for (r0, q0), (r1, q1), (dr, dq) in zip(u0, u1, k2)]
    k3, rate3 = _rhs(sim, u2, t + _STAGE_SHIFTS[2] * dt)
    for grid, (r0, q0), (r2, q2), (dr, dq) in zip(sim.grids, u0, u2, k3):
        grid.rho[:] = r0 / 3.0 + (2.0 / 3.0) * (r2 + dt * dr)
        grid.q[:] = q0 / 3.0 + (2.0 / 3.0) * (q2 + dt * dq)

    sim.t = t + dt
    sim.check_subsonic()
    expected = dt * (rate1 * _STAGE_WEIGHTS[0] + rate2 * _STAGE_WEIGHTS[1]
                     + rate3 * _STAGE_WEIGHTS[2])
    sim.last_mass_balance = (sim.total_mass() - mass_before, expected)
