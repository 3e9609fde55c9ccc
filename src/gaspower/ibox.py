"""Implicit box scheme for the pipe network.

One step solves the coupled nonlinear system of all pipes at once: for every
pair of neighbouring nodes the box relation

    (U_{j-1} + U_j)/2 |_{n+1} = (U_{j-1} + U_j)/2 |_n
        - dt/dx (F(U_j) - F(U_{j-1}))|_{n+1}
        + dt (G(U_j) + G(U_{j-1}))/2 |_{n+1}

holds, closed by one scalar boundary equation per physical pipe end and by
pressure-equality/mass-conservation rows at junctions (with optional
compressor ratios and extraction). The unknowns are the simulation's network
state, (rho, q) node by node and pipe after pipe, read and written in one
piece. The rows are, in this order: the mass (even) and momentum (odd) rows
of every neighbour pair of the stacked pipes, one row per boundary, and per
junction its pressure rows followed by its mass row.

The sparsity pattern of the Jacobian is fixed by the network layout: the
node counts of the pipes, periodicity and the columns of the boundary rows
and junction ports. Its band layout is built once per network layout and
cached: reverse Cuthill-McKee orders the columns and the rows follow their
first column, which leaves a narrow band for any topology (2/2 sub/super-
diagonals for a chain of pipes, 5/7 for the bundled gaslib9 network with
its loop). Each Jacobian writes its values straight into LAPACK band
storage, and the linear solver is LAPACK's banded LU with partial pivoting;
a zero pivot raises ``ConvergenceError`` naming the time, pipe and node.

Newton evaluates the residual first and builds a Jacobian only before a
Newton step, so line-search trials and the converged iterate cost one
residual each, and the Jacobian reuses the friction factor of the residual
at its iterate. The Jacobian is the analytic flux and friction one; rows are
normalized by the magnitude of their constituent terms so the convergence
test is meaningful in SI units.

The scheme is unconditionally stable for sub-sonic flow but is meant to run
*above* the usual CFL limit: steps below dx/min|lambda| trigger a warning
(inverse CFL condition).
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgbsv

from .errors import ConvergenceError
from .network import GasSimulation, flux_jacobian

NEWTON_TOL = 1e-10
NEWTON_MAXITER = 50
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class _Layout:
    """Jacobian pattern of one network layout and its place in band storage."""

    size: int
    a: np.ndarray          # neighbour pairs (a, b) as stacked node indices
    b: np.ndarray
    kl: int                # sub- and super-diagonals of the ordered matrix
    ku: int
    row_order: np.ndarray  # band row i holds Jacobian row row_order[i]
    col_order: np.ndarray  # band column j holds unknown col_order[j]
    pos: np.ndarray        # flat index of every pattern entry in band storage

    def __post_init__(self):
        # One cached layout serves every step of its networks.
        for array in (self.a, self.b, self.row_order, self.col_order, self.pos):
            array.flags.writeable = False

    @property
    def ldab(self) -> int:
        # LAPACK's leading dimension: kl extra rows take the pivoting fill.
        return 2 * self.kl + self.ku + 1


@functools.lru_cache(maxsize=32)
def _layout(counts: tuple, periodic: bool, bc_cols: tuple,
            junction_cols: tuple) -> _Layout:
    """Band layout of the Jacobian for the active node counts of the pipes,
    the boundary columns and the port columns of every junction.

    The pattern holds, in the order ``_Assembler.jacobian`` fills it, 8 box
    entries per neighbour pair, one entry per boundary row, then per
    junction its pressure rows (port and reference) and its mass row.
    Columns are ordered by reverse Cuthill-McKee on the graph that links
    columns sharing a row, rows by their first, then their last, column in
    that order.
    """
    # Only the one-off ordering needs the graph code; CWENO runs never load it.
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    # A periodic network is one pipe whose last node neighbours its first.
    nodes = np.arange(sum(counts))
    a = nodes if periodic else np.delete(nodes, np.cumsum(counts) - 1)
    b = np.roll(a, -1) if periodic else a + 1
    size = 2 * nodes.size
    rr = 2 * np.arange(a.size)
    ra, rb = 2 * a, 2 * b
    bc_cols = np.array(bc_cols, dtype=np.intp)
    rows = [rr] * 4 + [rr + 1] * 4 + [2 * a.size + np.arange(bc_cols.size)]
    cols = [ra, ra + 1, rb, rb + 1] * 2 + [bc_cols]
    row = 2 * a.size + bc_cols.size
    for bases in map(np.array, junction_cols):
        n = bases.size
        rows += [row + np.arange(n - 1)] * 2 + [np.full(n, row + n - 1)]
        cols += [bases[1:], np.full(n - 1, bases[0]), bases + 1]
        row += n
    if row != size:
        raise AssertionError(f"system is not square: {row} rows, {size} unknowns")
    rows, cols = np.concatenate(rows), np.concatenate(cols)

    pattern = csr_array((np.ones(rows.size), (rows, cols)), shape=(size, size))
    col_order = reverse_cuthill_mckee((pattern.T @ pattern).tocsr(),
                                      symmetric_mode=True).astype(np.intp)
    col_rank = np.empty(size, dtype=np.intp)
    col_rank[col_order] = np.arange(size)
    pc = col_rank[cols]
    first = np.full(size, size)
    last = np.full(size, -1)
    np.minimum.at(first, rows, pc)
    np.maximum.at(last, rows, pc)
    row_order = np.lexsort((last, first))
    row_rank = np.empty(size, dtype=np.intp)
    row_rank[row_order] = np.arange(size)
    pr = row_rank[rows]
    kl, ku = max(0, int(np.max(pr - pc))), max(0, int(np.max(pc - pr)))
    # Band storage is kept transposed, (size, ldab) in C order, which is
    # LAPACK's column-major (ldab, size): A[i, j] sits at [j, kl + ku + i - j].
    pos = pc * (2 * kl + ku + 1) + kl + ku + pr - pc
    return _Layout(size, a, b, kl, ku, row_order, col_order, pos)


class BandedJacobian:
    """Newton matrix of one iterate in LAPACK band storage of its layout.

    ``unknown(column)`` names the pipe, node and variable of a column.
    """

    def __init__(self, layout: _Layout, values: np.ndarray, unknown):
        self.layout = layout
        storage = np.zeros((layout.size, layout.ldab))
        storage.ravel()[layout.pos] = values
        self.band = storage.T
        self.unknown = unknown

    @property
    def shape(self) -> tuple[int, int]:
        return self.layout.size, self.layout.size

    def toarray(self) -> np.ndarray:
        """Dense matrix in the residual's row and the unknowns' column order."""
        lay = self.layout
        pc, k = np.divmod(lay.pos, lay.ldab)
        dense = np.zeros(self.shape)
        dense[lay.row_order[k - lay.kl - lay.ku + pc], lay.col_order[pc]] = (
            self.band.T.ravel()[lay.pos])
        return dense


def spsolve(jacobian: BandedJacobian, rhs: np.ndarray) -> np.ndarray:
    """Solve ``jacobian @ x = rhs`` by LAPACK's banded LU (partial pivoting).

    A zero pivot raises ``ConvergenceError`` naming the unknown of its column.
    """
    lay = jacobian.layout
    _, _, y, info = dgbsv(lay.kl, lay.ku, jacobian.band, rhs[lay.row_order],
                          overwrite_b=True)
    if info > 0:
        raise ConvergenceError(
            f"singular box-scheme Jacobian: zero pivot at "
            f"{jacobian.unknown(lay.col_order[info - 1])}"
        )
    x = np.empty_like(y)
    x[lay.col_order] = y
    return x


class _Assembler:
    """Per-step data and row assembly of one box step in a cached layout."""

    def __init__(self, sim: GasSimulation, dt: float, t_new: float):
        sim.require_staggering("nodes", "the box scheme")
        self.sim = sim
        self.dt = dt
        self.t_new = t_new
        nodes = sim.layout
        # Periodic pipes treat the last node as an alias of the first.
        self.active = int(nodes.offsets[-1]) - (1 if sim.periodic else 0)
        self.size = 2 * self.active
        self.x_old = sim.state[:, :self.active].T.ravel()
        # Per-node geometry of the stacked network, for one friction call.
        self.x_nodes = nodes.x[:self.active]
        self.diameter = nodes.diameter[:self.active]
        self.roughness = nodes.roughness[:self.active]
        # Density columns of the first and last active node of every pipe.
        self.end_cols = {
            "start": (2 * nodes.offsets[:-1]).tolist(),
            "end": (2 * (np.minimum(nodes.offsets[1:], self.active) - 1)).tolist(),
        }
        # The last residual's q and friction factor, for the Jacobian there.
        self._friction_at = (None, None)

        # Boundary rows fix the density or the momentum of the end node.
        law = sim.law
        bc_cols, targets = [], []
        for (idx, end), bc in sim.boundaries.items():
            base = self.end_cols[end][idx]
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
        self.bc_targets = np.array(targets)
        self.bc_cols = np.array(bc_cols, dtype=np.intp)
        pairs = self.active - (0 if sim.periodic else len(nodes.counts))
        self.bc_rows = 2 * pairs + np.arange(self.bc_cols.size)

        # Junctions: pressure rows (port and reference), then the mass row.
        self.junctions = []
        row = self.bc_rows.size + 2 * pairs
        for junction in sim.junctions:
            ports = junction.ports
            bases = tuple(self.end_cols[p.end][p.pipe_index] for p in ports)
            self.junctions.append((
                row, bases, [p.pressure_ratio for p in ports],
                np.array([1.0 if p.end == "end" else -1.0 for p in ports]),
                junction.extraction_at(t_new),
            ))
            row += len(ports)
        counts = (self.active,) if sim.periodic else nodes.counts
        self.layout = _layout(counts, sim.periodic, tuple(bc_cols),
                              tuple(bases for _, bases, *_ in self.junctions))
        self.r = dt / nodes.dx[self.layout.a]

    def unknown(self, column: int) -> str:
        """Time, pipe, node and variable of unknown ``column``."""
        nodes = self.sim.layout
        node, k = divmod(int(column), 2)
        i = int(nodes.pipe[node])
        return (f"t={self.sim.t:g}, pipe {self.sim.grids[i].pipe.id} node "
                f"{node - nodes.offsets[i]} ({'q' if k else 'rho'})")

    def _extra(self, rho, q):
        g = self.sim.extra_source(self.x_nodes, self.t_new, rho, q)
        return [np.asarray(v, dtype=float) for v in g]

    def _sources(self, rho, q):
        """(G_rho, G_q) at the new time level."""
        friction = self.sim.friction
        lam = (friction.factor(q, self.diameter, self.roughness)
               if friction.enabled else None)
        self._friction_at = (q.copy(), lam)
        s = friction.source(rho, q, self.diameter, self.roughness, lam)
        if self.sim.extra_source is None:
            return np.zeros_like(rho), s
        e_r, e_q = self._extra(rho, q)
        return e_r, s + e_q

    def _source_derivatives(self, rho, q):
        """((dG_rho/drho, dG_rho/dq), (dG_q/drho, dG_q/dq)) at the new time level."""
        q_known, lam = self._friction_at
        if not np.array_equal(q, q_known):
            lam = None
        _, ds_drho, ds_dq = self.sim.friction.source_with_derivatives(
            rho, q, self.diameter, self.roughness, lam
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
        law, r, h = self.sim.law, self.r, 0.5 * self.dt
        a, b = self.layout.a, self.layout.b
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

    def jacobian(self, x: np.ndarray) -> BandedJacobian:
        """Analytic Jacobian at ``x``, filled into the layout's band storage."""
        law, r, h = self.sim.law, self.r, 0.5 * self.dt
        a, b = self.layout.a, self.layout.b
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
        return BandedJacobian(self.layout, np.concatenate(vals), self.unknown)


def _scaled_norm(residual: np.ndarray, scale: np.ndarray) -> float:
    # Absolute tolerance, relaxed to the float-noise floor of huge rows.
    denom = np.maximum(1.0, 50.0 * _EPS * scale / NEWTON_TOL)
    return float(np.max(np.abs(residual) / denom))


def ibox_step(sim: GasSimulation, dt: float) -> None:
    """Advance the network by one implicit box step of size ``dt``."""
    lam_min = sim.min_wavespeed()
    if lam_min > 0.0:
        pipe_dx = sim.layout.pipe_dx
        below = dt < pipe_dx / lam_min * (1.0 - 1e-12)
        if below.any():
            k = int(np.argmax(below))
            warnings.warn(
                f"box-scheme step dt={dt:g} below the inverse CFL bound "
                f"{pipe_dx[k] / lam_min:g} on pipe {sim.grids[k].pipe.id}",
                stacklevel=2,
            )

    asm = _Assembler(sim, dt, sim.t + dt)
    x = asm.x_old
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

    state = sim.state
    state[:, :asm.active] = x.reshape(-1, 2).T
    if sim.periodic:
        state[:, -1] = state[:, 0]
    sim.t += dt
    sim.check_subsonic()
