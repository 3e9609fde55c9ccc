"""Implicit box scheme for the pipe network.

One step solves the coupled nonlinear system of all pipes at once: for every
pair of neighbouring nodes the box relation

    (U_{j-1} + U_j)/2 |_{n+1} = (U_{j-1} + U_j)/2 |_n
        - dt/dx (F(U_j) - F(U_{j-1}))|_{n+1}
        + dt (G(U_j) + G(U_{j-1}))/2 |_{n+1}

holds, closed by one scalar boundary equation per physical pipe end and by
pressure-equality/mass-conservation rows at junctions (with optional
compressor ratios and extraction). The Newton iteration uses the analytic
flux and friction Jacobians and a sparse direct linear solver; rows are
normalized by the magnitude of their constituent terms so the convergence
test is meaningful in SI units.

The scheme is unconditionally stable for sub-sonic flow but is meant to run
*above* the usual CFL limit: steps below dx/min|lambda| trigger a warning
(inverse CFL condition).
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from .errors import ConvergenceError
from .network import GasSimulation

NEWTON_TOL = 1e-10
NEWTON_MAXITER = 50
_EPS = float(np.finfo(float).eps)


class _Assembler:
    """Index bookkeeping and residual/Jacobian assembly for one network."""

    def __init__(self, sim: GasSimulation, dt: float, t_new: float):
        self.sim = sim
        self.dt = dt
        self.t_new = t_new
        counts = [self._active_nodes(g) for g in sim.grids]
        self.offsets = [2 * sum(counts[:i]) for i in range(len(counts))]
        self.size = 2 * sum(counts)
        self.x_old = self.pack()
        # Per-node geometry of the stacked network, for one friction call.
        self.x_nodes = np.concatenate([g.x[:m] for g, m in zip(sim.grids, counts)])
        self.diameter = np.repeat([g.pipe.diameter for g in sim.grids], counts)
        self.roughness = np.repeat([g.pipe.roughness for g in sim.grids], counts)

    def _active_nodes(self, grid) -> int:
        # Periodic pipes treat the last node as an alias of the first.
        return grid.x.size - (1 if self.sim.periodic else 0)

    def pack(self) -> np.ndarray:
        x = np.empty(self.size)
        for grid, off in zip(self.sim.grids, self.offsets):
            m = self._active_nodes(grid)
            x[off:off + 2 * m:2] = grid.rho[:m]
            x[off + 1:off + 2 * m:2] = grid.q[:m]
        return x

    def unpack(self, x: np.ndarray) -> None:
        for grid, off in zip(self.sim.grids, self.offsets):
            m = self._active_nodes(grid)
            grid.rho[:m] = x[off:off + 2 * m:2]
            grid.q[:m] = x[off + 1:off + 2 * m:2]
            if self.sim.periodic:
                grid.rho[-1] = grid.rho[0]
                grid.q[-1] = grid.q[0]

    def node_index(self, pipe_index: int, end: str) -> int:
        m = self._active_nodes(self.sim.grids[pipe_index])
        j = 0 if end == "start" else m - 1
        return self.offsets[pipe_index] + 2 * j

    def _sources(self, rho, q):
        """(G_rho, G_q) and their state derivatives at the new time level."""
        friction = self.sim.friction.source_with_derivatives(
            rho, q, self.diameter, self.roughness
        )
        extra = self.sim.extra_source
        if extra is None:
            zero = np.zeros_like(rho)
            return (zero, zero, zero), friction
        s, ds_drho, ds_dq = friction
        # State dependence of the extra source enters by differences.
        hr = 1e-7 * np.maximum(1.0, np.abs(rho))
        hq = 1e-7 * np.maximum(1.0, np.abs(q))
        (e_r, e_q), (er2, eq2), (er3, eq3) = (
            [np.asarray(v, dtype=float) for v in extra(self.x_nodes, self.t_new, r, m)]
            for r, m in ((rho, q), (rho + hr, q), (rho, q + hq))
        )
        return ((e_r, (er2 - e_r) / hr, (er3 - e_r) / hq),
                (s + e_q, ds_drho + (eq2 - e_q) / hr, ds_dq + (eq3 - e_q) / hq))

    def assemble(self, x: np.ndarray, with_jacobian: bool):
        sim, dt = self.sim, self.dt
        law = sim.law
        residual = np.zeros(self.size)
        scale = np.zeros(self.size)
        rows, cols, vals = [], [], []

        def put(r, c, v):
            rows.append(np.asarray(r, dtype=np.intp).ravel())
            cols.append(np.asarray(c, dtype=np.intp).ravel())
            vals.append(np.asarray(v, dtype=float).ravel())

        # Node quantities of all pipes at once, sliced per pipe below.
        rho_all, q_all = x[0::2], x[1::2]
        u_all = q_all / rho_all
        src_rho, src_q = self._sources(rho_all, q_all)
        stacked = (rho_all, q_all, self.x_old[0::2], self.x_old[1::2],
                   np.asarray(law.p(rho_all), dtype=float) + q_all * u_all,
                   np.asarray(law.dp(rho_all), dtype=float) - u_all * u_all,
                   2.0 * u_all, *src_rho, *src_q)

        row_cursor = 0
        for idx, grid in enumerate(sim.grids):
            off = self.offsets[idx]
            nodes = slice(off // 2, off // 2 + self._active_nodes(grid))
            (rho, q, rho_old, q_old, fq, a21, a22,
             g_r, dgr_r, dgr_q, g_q, dgq_r, dgq_q) = (v[nodes] for v in stacked)
            m = rho.size

            if sim.periodic:
                a_idx = np.arange(m)
                b_idx = np.roll(a_idx, -1)
            else:
                a_idx = np.arange(m - 1)
                b_idx = a_idx + 1
            npairs = a_idx.size
            r = dt / grid.dx

            rr = row_cursor + 2 * np.arange(npairs)      # mass rows
            rq = rr + 1                                   # momentum rows
            row_cursor += 2 * npairs

            residual[rr] = (0.5 * (rho[a_idx] + rho[b_idx])
                            - 0.5 * (rho_old[a_idx] + rho_old[b_idx])
                            + r * (q[b_idx] - q[a_idx])
                            - 0.5 * dt * (g_r[a_idx] + g_r[b_idx]))
            scale[rr] = (0.5 * (np.abs(rho[a_idx]) + np.abs(rho[b_idx])
                                + np.abs(rho_old[a_idx]) + np.abs(rho_old[b_idx]))
                         + r * (np.abs(q[a_idx]) + np.abs(q[b_idx]))
                         + 0.5 * dt * (np.abs(g_r[a_idx]) + np.abs(g_r[b_idx])))
            residual[rq] = (0.5 * (q[a_idx] + q[b_idx])
                            - 0.5 * (q_old[a_idx] + q_old[b_idx])
                            + r * (fq[b_idx] - fq[a_idx])
                            - 0.5 * dt * (g_q[a_idx] + g_q[b_idx]))
            scale[rq] = (0.5 * (np.abs(q[a_idx]) + np.abs(q[b_idx])
                                + np.abs(q_old[a_idx]) + np.abs(q_old[b_idx]))
                         + r * (np.abs(fq[a_idx]) + np.abs(fq[b_idx]))
                         + 0.5 * dt * (np.abs(g_q[a_idx]) + np.abs(g_q[b_idx])))

            if with_jacobian:
                ra = off + 2 * a_idx
                qa = ra + 1
                rb = off + 2 * b_idx
                qb = rb + 1
                put(rr, ra, 0.5 - 0.5 * dt * dgr_r[a_idx])
                put(rr, qa, -r - 0.5 * dt * dgr_q[a_idx])
                put(rr, rb, 0.5 - 0.5 * dt * dgr_r[b_idx])
                put(rr, qb, r - 0.5 * dt * dgr_q[b_idx])
                put(rq, ra, -r * a21[a_idx] - 0.5 * dt * dgq_r[a_idx])
                put(rq, qa, 0.5 - r * a22[a_idx] - 0.5 * dt * dgq_q[a_idx])
                put(rq, rb, r * a21[b_idx] - 0.5 * dt * dgq_r[b_idx])
                put(rq, qb, 0.5 + r * a22[b_idx] - 0.5 * dt * dgq_q[b_idx])

        # Boundary rows: one scalar condition per physical pipe end, fixing
        # the density or the momentum of the end node.
        for (idx, end), bc in sim.boundaries.items():
            base = self.node_index(idx, end)
            value = bc.value(self.t_new)
            if bc.kind == "pressure":
                column, target = base, law.rho_from_pressure(value)
            elif bc.kind == "density":
                column, target = base, value
            elif bc.kind == "flow":
                column, target = base + 1, value
            elif end == "start":  # far-field state: density at a left end
                column, target = base, value[0]
            else:  # and momentum at a right end
                column, target = base + 1, value[1]
            target = float(target)
            residual[row_cursor] = x[column] - target
            scale[row_cursor] = abs(x[column]) + abs(target)
            if with_jacobian:
                put(row_cursor, column, 1.0)
            row_cursor += 1

        # Junction rows: pressure equality (with compressor ratios) and mass.
        for junction in sim.junctions:
            ports = junction.ports
            bases = [self.node_index(p.pipe_index, p.end) for p in ports]
            ref = ports[0]
            ref_base = bases[0]
            ref_rho = x[ref_base]
            ref_p = float(law.p(ref_rho)) * ref.pressure_ratio
            ref_dp = float(law.dp(ref_rho)) * ref.pressure_ratio
            for port, base in zip(ports[1:], bases[1:]):
                row = row_cursor
                row_cursor += 1
                p_i = float(law.p(x[base])) * port.pressure_ratio
                residual[row] = p_i - ref_p
                scale[row] = abs(p_i) + abs(ref_p)
                if with_jacobian:
                    put(row, base, float(law.dp(x[base])) * port.pressure_ratio)
                    put(row, ref_base, -ref_dp)
            row = row_cursor
            row_cursor += 1
            eps = junction.extraction_at(self.t_new)
            total = -eps
            s = abs(eps)
            for port, base in zip(ports, bases):
                sign = 1.0 if port.end == "end" else -1.0
                total += sign * x[base + 1]
                s += abs(x[base + 1])
                if with_jacobian:
                    put(row, base + 1, sign)
            residual[row] = total
            scale[row] = s

        if row_cursor != self.size:
            raise AssertionError(
                f"system is not square: {row_cursor} rows, {self.size} unknowns"
            )
        if not with_jacobian:
            return residual, scale, None
        jac = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.size, self.size),
        ).tocsr()
        return residual, scale, jac


def _scaled_norm(residual: np.ndarray, scale: np.ndarray) -> float:
    # Absolute tolerance, relaxed to the float-noise floor of huge rows.
    denom = np.maximum(1.0, 50.0 * _EPS * scale / NEWTON_TOL)
    return float(np.max(np.abs(residual) / denom))


def ibox_step(sim: GasSimulation, dt: float) -> None:
    """Advance the network by one implicit box step of size ``dt``."""
    lam_min = sim.min_wavespeed()
    if lam_min > 0.0:
        for grid in sim.grids:
            if dt < grid.dx / lam_min * (1.0 - 1e-12):
                warnings.warn(
                    f"box-scheme step dt={dt:g} below the inverse CFL bound "
                    f"{grid.dx / lam_min:g} on pipe {grid.pipe.id}",
                    stacklevel=2,
                )
                break

    asm = _Assembler(sim, dt, sim.t + dt)
    x = asm.pack()
    residual, scale, jac = asm.assemble(x, with_jacobian=True)
    norm = _scaled_norm(residual, scale)
    for iteration in range(NEWTON_MAXITER):
        if norm <= NEWTON_TOL:
            break
        step = spsolve(jac, -residual)
        factor = 1.0
        for _ in range(12):
            x_try = x + factor * step
            if np.all(x_try[0::2] > 0.0):
                r_try, s_try, _ = asm.assemble(x_try, with_jacobian=False)
                norm_try = _scaled_norm(r_try, s_try)
                if norm_try <= norm * (1.0 - 1e-4) or norm_try <= NEWTON_TOL:
                    break
            factor *= 0.5
        else:
            raise ConvergenceError(
                f"box-scheme Newton stalled at t={sim.t:g} "
                f"(scaled residual {norm:.3e})"
            )
        x = x_try
        residual, scale, jac = asm.assemble(x, with_jacobian=True)
        norm = _scaled_norm(residual, scale)
    else:
        raise ConvergenceError(
            f"box-scheme Newton did not converge within {NEWTON_MAXITER} "
            f"iterations at t={sim.t:g} (scaled residual {norm:.3e})"
        )

    asm.unpack(x)
    sim.t += dt
    sim.check_subsonic()
