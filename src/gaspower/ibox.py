"""Implicit box scheme for the pipe network.

One step solves the coupled nonlinear system of all pipes at once: for every
pair of neighbouring nodes the box relation

    (U_{j-1} + U_j)/2 |_{n+1} = (U_{j-1} + U_j)/2 |_n
        - dt/dx (F(U_j) - F(U_{j-1}))|_{n+1}
        + dt (G(U_j) + G(U_{j-1}))/2 |_{n+1}

holds, closed by one scalar boundary equation per physical pipe end and by
pressure-equality/mass-conservation rows at junctions (with optional
compressor ratios and extraction). The unknowns are (rho, q) node by node,
pipe after pipe. The rows are, in this order: the mass (even) and momentum
(odd) rows of every neighbour pair of the stacked pipes, one row per
boundary, and per junction its pressure rows followed by its mass row.

The sparsity pattern of the Jacobian is fixed by the network and built once
per step; each Jacobian only fills its values. Newton evaluates the residual
first and builds a Jacobian only before a Newton step, so line-search trials
and the converged iterate cost one residual each. The Jacobian is the
analytic flux and friction one, the linear solver a sparse direct one; rows
are normalized by the magnitude of their constituent terms so the
convergence test is meaningful in SI units.

The scheme is unconditionally stable for sub-sonic flow but is meant to run
*above* the usual CFL limit: steps below dx/min|lambda| trigger a warning
(inverse CFL condition).
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from .errors import ConvergenceError, DomainError
from .network import GasSimulation, flux_jacobian

NEWTON_TOL = 1e-10
NEWTON_MAXITER = 50
_EPS = float(np.finfo(float).eps)


class _Assembler:
    """Index bookkeeping, fixed Jacobian pattern and row assembly of one step."""

    def __init__(self, sim: GasSimulation, dt: float, t_new: float):
        for grid in sim.grids:
            if grid.staggering != "nodes":
                raise DomainError(
                    f"pipe {grid.pipe.id}: the box scheme needs node values "
                    f"(staggering='nodes'), got {grid.staggering!r} at t={sim.t:g}"
                )
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

        # Neighbour pairs (a, b) of all pipes as stacked node indices; a
        # periodic pipe wraps within itself.
        pairs = []
        for off, m in zip(self.offsets, counts):
            j = off // 2 + np.arange(m)
            pairs.append((j, np.roll(j, -1)) if sim.periodic else (j[:-1], j[1:]))
        self.a = np.concatenate([a for a, _ in pairs])
        self.b = np.concatenate([b for _, b in pairs])
        self.r = np.repeat([dt / g.dx for g in sim.grids], [a.size for a, _ in pairs])

        # Boundary rows fix the density or the momentum of the end node.
        law = sim.law
        bc_cols, targets = [], []
        for (idx, end), bc in sim.boundaries.items():
            base = self.node_index(idx, end)
            value = bc.value(t_new)
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
            bc_cols.append(column)
            targets.append(float(target))
        self.bc_cols = np.array(bc_cols, dtype=np.intp)
        self.bc_targets = np.array(targets)
        self.bc_rows = 2 * self.a.size + np.arange(self.bc_cols.size)

        # Fixed pattern: 8 box entries per pair, one per boundary row, then per
        # junction its pressure rows (port and reference) and its mass row.
        rr = 2 * np.arange(self.a.size)
        ra, rb = 2 * self.a, 2 * self.b
        rows = [rr] * 4 + [rr + 1] * 4 + [self.bc_rows]
        cols = [ra, ra + 1, rb, rb + 1] * 2 + [self.bc_cols]
        row = 2 * self.a.size + self.bc_cols.size
        self.junctions = []
        for junction in sim.junctions:
            ports = junction.ports
            bases = np.array([self.node_index(p.pipe_index, p.end) for p in ports])
            n = len(ports)
            rows += [row + np.arange(n - 1)] * 2 + [np.full(n, row + n - 1)]
            cols += [bases[1:], np.full(n - 1, bases[0]), bases + 1]
            self.junctions.append((
                row, bases, [p.pressure_ratio for p in ports],
                np.array([1.0 if p.end == "end" else -1.0 for p in ports]),
                junction.extraction_at(t_new),
            ))
            row += n
        if row != self.size:
            raise AssertionError(
                f"system is not square: {row} rows, {self.size} unknowns"
            )
        # CSR structure in sorted (row, column) order; ``jacobian`` permutes
        # its values into it.
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        self.order = np.lexsort((cols, rows))
        self.indices = cols[self.order]
        self.indptr = np.searchsorted(rows[self.order], np.arange(self.size + 1))

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

    def _extra(self, rho, q):
        g = self.sim.extra_source(self.x_nodes, self.t_new, rho, q)
        return [np.asarray(v, dtype=float) for v in g]

    def _sources(self, rho, q):
        """(G_rho, G_q) at the new time level."""
        s = self.sim.friction.source(rho, q, self.diameter, self.roughness)
        if self.sim.extra_source is None:
            return np.zeros_like(rho), s
        e_r, e_q = self._extra(rho, q)
        return e_r, s + e_q

    def _source_derivatives(self, rho, q):
        """((dG_rho/drho, dG_rho/dq), (dG_q/drho, dG_q/dq)) at the new time level."""
        _, ds_drho, ds_dq = self.sim.friction.source_with_derivatives(
            rho, q, self.diameter, self.roughness
        )
        if self.sim.extra_source is None:
            zero = np.zeros_like(rho)
            return (zero, zero), (ds_drho, ds_dq)
        # State dependence of the extra source enters by differences.
        hr = 1e-7 * np.maximum(1.0, np.abs(rho))
        hq = 1e-7 * np.maximum(1.0, np.abs(q))
        (e_r, e_q), (er2, eq2), (er3, eq3) = (
            self._extra(r, m) for r, m in ((rho, q), (rho + hr, q), (rho, q + hq))
        )
        return (((er2 - e_r) / hr, (er3 - e_r) / hq),
                (ds_drho + (eq2 - e_q) / hr, ds_dq + (eq3 - e_q) / hq))

    def residual(self, x: np.ndarray):
        """Residual and row scale (sum of the terms' magnitudes) at ``x``."""
        law, a, b, r, h = self.sim.law, self.a, self.b, self.r, 0.5 * self.dt
        rho, q = x[0::2], x[1::2]
        fq = np.asarray(law.p(rho), dtype=float) + q * (q / rho)
        g_r, g_q = self._sources(rho, q)
        residual = np.empty(self.size)
        scale = np.empty(self.size)
        # Mass rows (even) and momentum rows (odd) of all pairs at once.
        for k, (u, f, g) in enumerate(((rho, q, g_r), (q, fq, g_q))):
            u_old = self.x_old[k::2]
            box = slice(k, 2 * a.size, 2)
            residual[box] = (0.5 * (u[a] + u[b]) - 0.5 * (u_old[a] + u_old[b])
                             + r * (f[b] - f[a]) - h * (g[a] + g[b]))
            scale[box] = (0.5 * (np.abs(u[a]) + np.abs(u[b])
                                 + np.abs(u_old[a]) + np.abs(u_old[b]))
                          + r * (np.abs(f[a]) + np.abs(f[b]))
                          + h * (np.abs(g[a]) + np.abs(g[b])))
        x_bc = x[self.bc_cols]
        residual[self.bc_rows] = x_bc - self.bc_targets
        scale[self.bc_rows] = np.abs(x_bc) + np.abs(self.bc_targets)
        # Junctions: pressure equality (with compressor ratios), then mass.
        for row, bases, ratios, signs, eps in self.junctions:
            p = np.array([float(law.p(x[c])) * k for c, k in zip(bases, ratios)])
            mass = row + p.size - 1
            residual[row:mass] = p[1:] - p[0]
            scale[row:mass] = np.abs(p[1:]) + abs(p[0])
            total, s = -eps, abs(eps)
            for c, sign in zip(bases, signs):
                total += sign * x[c + 1]
                s += abs(x[c + 1])
            residual[mass], scale[mass] = total, s
        return residual, scale

    def jacobian(self, x: np.ndarray) -> sp.csr_matrix:
        """Analytic Jacobian at ``x``, filled into the fixed pattern."""
        law, a, b, r, h = self.sim.law, self.a, self.b, self.r, 0.5 * self.dt
        rho, q = x[0::2], x[1::2]
        a21, a22 = flux_jacobian(rho, q, law)
        (dgr_r, dgr_q), (dgq_r, dgq_q) = self._source_derivatives(rho, q)
        vals = [0.5 - h * dgr_r[a], -r - h * dgr_q[a],
                0.5 - h * dgr_r[b], r - h * dgr_q[b],
                -r * a21[a] - h * dgq_r[a], 0.5 - r * a22[a] - h * dgq_q[a],
                r * a21[b] - h * dgq_r[b], 0.5 + r * a22[b] - h * dgq_q[b],
                np.ones(self.bc_cols.size)]
        for _, bases, ratios, signs, _ in self.junctions:
            dp = np.array([float(law.dp(x[c])) * k for c, k in zip(bases, ratios)])
            vals += [dp[1:], np.full(dp.size - 1, -dp[0]), signs]
        return sp.csr_matrix((np.concatenate(vals)[self.order], self.indices,
                              self.indptr), shape=(self.size, self.size))


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
    residual, scale = asm.residual(x)
    norm = _scaled_norm(residual, scale)
    for _ in range(NEWTON_MAXITER):
        if norm <= NEWTON_TOL:
            break
        step = spsolve(asm.jacobian(x), -residual)
        factor = 1.0
        for _ in range(12):
            x_try = x + factor * step
            if np.all(x_try[0::2] > 0.0):
                residual, scale = asm.residual(x_try)
                norm_try = _scaled_norm(residual, scale)
                if norm_try <= norm * (1.0 - 1e-4) or norm_try <= NEWTON_TOL:
                    break
            factor *= 0.5
        else:
            raise ConvergenceError(
                f"box-scheme Newton stalled at t={sim.t:g} "
                f"(scaled residual {norm:.3e})"
            )
        x, norm = x_try, norm_try
    else:
        raise ConvergenceError(
            f"box-scheme Newton did not converge within {NEWTON_MAXITER} "
            f"iterations at t={sim.t:g} (scaled residual {norm:.3e})"
        )

    asm.unpack(x)
    sim.t += dt
    sim.check_subsonic()
