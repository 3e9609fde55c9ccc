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

The sparsity pattern of the Jacobian is fixed by the network, which cannot
be re-wired once built: the node counts of the pipes, periodicity and the
columns of the boundary rows and junction ports. The first step of a
simulation builds its band layout and keeps it as the simulation's
``scheme_layout`` for every later step: reverse Cuthill-McKee orders the
columns and the rows follow their first column, which leaves a narrow band
for any topology (2/2 sub/super-diagonals for a chain of pipes, 5/7 for the
bundled gaslib9 network with its loop). The linear solver is LAPACK's
banded LU with partial pivoting; a zero pivot raises ``ConvergenceError``
naming the time, pipe and node.

Assembly works on node arrays. Each iterate forms every node quantity once
(flux, sources and their magnitudes) and takes the pair sums and
differences of consecutive nodes by slices; on a periodic pipe the first
node is appended after the last, so the wrap-around pair is consecutive
too. One selection then drops the pairs that straddle two pipes. The terms
that only the step fixes (the old-level half sums and magnitudes, dt/dx,
the boundary targets and extractions) are computed once per step, and no
step forms those that the network fixes: the port pressure ratios are part
of the layout, and the simulation holds the per-node friction constants.
Friction alone is a momentum source, so it enters the momentum rows only;
the mass rows get a source term only from an extra source. The layout also
holds the system's work arrays: the band storage, the Jacobian values and
the LU work array. Every Jacobian writes its pattern entries into the band
in place, so the entries off the pattern stay zero without being cleared,
and every solve copies the band into the work array and factors it there.
No step allocates band-sized memory.

Newton evaluates the residual first and builds a Jacobian only before a
Newton step, so line-search trials and the converged iterate cost one
residual each, and the Jacobian reuses the friction terms of the residual
at its iterate. The junction rows work on Python floats: one gather takes
the density and momentum of every junction port. The Jacobian is the
analytic flux and friction one; rows are normalized by the magnitude of
their constituent terms so the convergence test is meaningful in SI units.

The scheme is unconditionally stable for sub-sonic flow but is meant to run
*above* the usual CFL limit: steps below dx/min|lambda| trigger a warning
(inverse CFL condition).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, GasPowerError, InvalidDemandError
from .network import GasSimulation, StepRecord, apply_boundary, flux_jacobian

NEWTON_TOL = 1e-10
NEWTON_MAXITER = 50
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class _Layout:
    """Rows and columns of one network layout and their place in band storage.

    The pair rows are assembled on consecutive nodes: entry ``2 j + k`` of a
    pair array belongs to nodes ``j`` and ``j + 1`` and variable ``k``. Pairs
    across two pipes are not box rows; their values go to the spare last
    entry of the band storage.

    ``storage``, ``values`` and ``work`` are the work arrays of every box
    system of one simulation.
    """

    size: int
    box: np.ndarray        # pair-array entry of every mass/momentum row
    bc_cols: np.ndarray    # column of every boundary row
    bc_rows: slice
    junctions: tuple       # per junction: first row, its slice of ports,
                           # port pressure ratios and port signs
    ports: np.ndarray      # (rho, q) columns of every junction port, in order
    kl: int                # sub- and super-diagonals of the ordered matrix
    ku: int
    row_order: np.ndarray  # band row i holds Jacobian row row_order[i]
    col_order: np.ndarray  # band column j holds unknown col_order[j]
    pos: np.ndarray        # flat band-storage index of every Jacobian value
    storage: np.ndarray    # band storage, spare last entry; off the pattern zero
    values: np.ndarray     # Jacobian values in ``pos`` order; boundary rows one
    work: np.ndarray       # (ldab, size) Fortran-ordered LU work array

    def __post_init__(self):
        # The index arrays are read-only; the work arrays stay writable.
        for array in (self.box, self.bc_cols, self.ports, self.row_order,
                      self.col_order, self.pos):
            array.flags.writeable = False

    @property
    def ldab(self) -> int:
        # LAPACK's leading dimension: kl extra rows take the pivoting fill.
        return 2 * self.kl + self.ku + 1


def _layout(sim: GasSimulation) -> _Layout:
    """Layout of the box system of ``sim``: the node counts of its pipes, the
    kind of every boundary and the ports of every junction.

    The Jacobian values come, in the order ``_Assembler.jacobian`` fills
    them, as 8 box entries per consecutive node pair (row kind, node, then
    variable), one entry per boundary row, then per junction its pressure
    rows (port and reference) and its mass row. Columns are ordered by
    reverse Cuthill-McKee on the graph that links columns sharing a row,
    rows by their first, then their last, column in that order.
    """
    # Only the one-off ordering needs the graph code; CWENO runs never load it.
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    # A periodic network is one pipe whose last node is an alias of its
    # first, so that its last pair closes the loop.
    periodic = sim.periodic
    offsets = np.cumsum((0,) + sim.layout.counts)
    active = int(offsets[-1]) - periodic
    size = 2 * active
    pairs = np.arange(offsets[-1] - 1)
    a = pairs if periodic else np.delete(pairs, offsets[1:-1] - 1)
    end_cols = {"start": 2 * offsets[:-1],
                "end": 2 * (np.minimum(offsets[1:], active) - 1)}
    # A boundary row fixes the momentum of its end node for a flow and at
    # the right end of a far-field state, else the density.
    bc_cols = np.array(
        [end_cols[end][i] + (bc.kind == "flow" or (bc.kind == "state" and end == "end"))
         for (i, end), bc in sim.boundaries.items()], dtype=np.intp)

    rr = 2 * np.arange(a.size)
    ra, rb = 2 * a, 2 * ((a + 1) % active)
    rows = [rr] * 4 + [rr + 1] * 4 + [2 * a.size + np.arange(bc_cols.size)]
    cols = [ra, ra + 1, rb, rb + 1] * 2 + [bc_cols]
    row = 2 * a.size + bc_cols.size
    ports, port_cols = [], []
    for junction in sim.junctions:
        ends = junction.ports
        bases = np.array([end_cols[p.end][p.pipe_index] for p in ends])
        n = bases.size
        rows += [row + np.arange(n - 1)] * 2 + [np.full(n, row + n - 1)]
        cols += [bases[1:], np.full(n - 1, bases[0]), bases + 1]
        first = len(port_cols)
        port_cols += [(c, c + 1) for c in bases.tolist()]
        ports.append((row, slice(first, len(port_cols)),
                      tuple(p.pressure_ratio for p in ends),
                      tuple(1.0 if p.end == "end" else -1.0 for p in ends)))
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
    ldab = 2 * kl + ku + 1
    pos = pc * ldab + kl + ku + pr - pc
    box_pos = np.full((8, pairs.size), size * ldab)
    box_pos[:, a] = pos[:8 * a.size].reshape(8, a.size)
    pos = np.concatenate((box_pos.ravel(), pos[8 * a.size:]))
    values = np.empty(pos.size)
    values[8 * pairs.size:8 * pairs.size + bc_cols.size] = 1.0
    return _Layout(
        size=size, box=(2 * a[:, None] + np.arange(2)).ravel(), bc_cols=bc_cols,
        bc_rows=slice(2 * a.size, 2 * a.size + bc_cols.size),
        junctions=tuple(ports),
        ports=np.array(port_cols, dtype=np.intp).reshape(-1, 2), kl=kl, ku=ku,
        row_order=row_order,
        col_order=col_order, pos=pos, storage=np.zeros(size * ldab + 1),
        values=values, work=np.empty((ldab, size), order="F"))


class BandedJacobian:
    """Newton matrix of one iterate in LAPACK band storage of its layout.

    ``band`` is a view of the layout's band storage, which the next
    Jacobian of the same simulation overwrites. ``unknown(column)`` names
    the pipe, node and variable of a column.
    """

    def __init__(self, layout: _Layout, band: np.ndarray, unknown):
        self.layout = layout
        self.band = band
        self.unknown = unknown

    @property
    def shape(self) -> tuple[int, int]:
        return self.layout.size, self.layout.size

    def toarray(self) -> np.ndarray:
        """Dense matrix in the residual's row and the unknowns' column order."""
        lay = self.layout
        pos = lay.pos[lay.pos < self.band.size]
        pc, k = np.divmod(pos, lay.ldab)
        dense = np.zeros(self.shape)
        dense[lay.row_order[k - lay.kl - lay.ku + pc], lay.col_order[pc]] = (
            self.band.T.ravel()[pos])
        return dense


def spsolve(jacobian: BandedJacobian, rhs: np.ndarray) -> np.ndarray:
    """Solve ``jacobian @ x = rhs`` by LAPACK's banded LU (partial pivoting).

    The band is copied into the layout's work array and factored there, so
    ``jacobian`` is left as it was and no band-sized array is allocated. A
    zero pivot raises ``ConvergenceError`` naming the unknown of its column.
    """
    # LAPACK is loaded on the first solve; CWENO runs never load it.
    from scipy.linalg.lapack import dgbsv

    lay = jacobian.layout
    np.copyto(lay.work, jacobian.band)
    _, _, y, info = dgbsv(lay.kl, lay.ku, lay.work, rhs[lay.row_order],
                          overwrite_ab=True, overwrite_b=True)
    if info > 0:
        raise ConvergenceError(
            f"singular box-scheme Jacobian: zero pivot at "
            f"{jacobian.unknown(lay.col_order[info - 1])}"
        )
    x = np.empty_like(y)
    x[lay.col_order] = y
    return x


class _Assembler:
    """Per-step data and row assembly of one box step in its simulation's
    layout."""

    def __init__(self, sim: GasSimulation, dt: float, t_new: float):
        sim.require_staggering("nodes", "the box scheme")
        self.sim = sim
        self.dt = dt
        self.t_new = t_new
        # Boundary rows fix the density or the momentum of the end node.
        law = sim.law
        targets = []
        for (idx, end), bc in sim.boundaries.items():
            value = bc.value(t_new)
            if bc.kind == "pressure":
                value = law.rho_from_pressure(value)
            elif bc.kind == "state":  # density at a left end, momentum at a right end
                value = value[0 if end == "start" else 1]
            targets.append(float(value))
        nodes = sim.layout
        lay = sim.scheme_layout
        if lay is None:
            lay = sim.scheme_layout = _layout(sim)
        self.layout = lay
        self.size = lay.size
        self.active = lay.size // 2
        self.x_old = np.empty(self.size)
        self.x_old[0::2], self.x_old[1::2] = sim.state[:, :self.active]
        self.bc_targets = np.array(targets)
        self._bc_scale = np.abs(self.bc_targets)
        # Junctions: first row, slice of ports, ratios, signs and extraction.
        self.junctions = [(*entry, junction.extraction)
                          for entry, junction in zip(lay.junctions, sim.junctions)]
        # Per-node geometry of the stacked network, for one friction call.
        self.diameter = nodes.diameter
        self.roughness = nodes.roughness
        if sim.extra_source is not None:
            self.x_nodes = self._closed(nodes.x[:self.active], 1)
        # The last residual's iterate and friction terms, for the Jacobian there.
        self._friction_at = (None, None)
        # Terms of the pair rows that the step fixes.
        u_old = self._closed(self.x_old, 2)
        self._old_half = 0.5 * (u_old[:-2] + u_old[2:])
        self._old_abs = np.abs(u_old)
        self.r = dt / nodes.dx[:-1]
        self._r2 = np.empty(2 * self.r.size)
        self._r2[0::2] = self._r2[1::2] = self.r

    def _closed(self, values: np.ndarray, width: int) -> np.ndarray:
        """Node values, ``width`` entries per node, with the first node
        appended on a periodic network, where it follows the last."""
        return np.concatenate((values, values[:width])) if self.sim.periodic else values

    def unknown(self, column: int) -> str:
        """Time, pipe, node and variable of unknown ``column``."""
        entry, k = divmod(int(column), 2)
        pipe, node = self.sim.locate(entry)
        return f"t={self.sim.t:g}, pipe {pipe} node {node} ({'q' if k else 'rho'})"

    def place(self, row: int) -> str:
        """Pipe and nodes, pipe end or junction of residual row ``row``."""
        lay = self.layout
        if row < lay.box.size:
            entry = int(lay.box[row])
            pipe, node = self.sim.locate(entry // 2)
            kind = "momentum" if entry % 2 else "mass"
            return f"pipe {pipe} node {node}-{node + 1} ({kind})"
        if row < lay.bc_rows.stop:
            k = row - lay.bc_rows.start
            (idx, end), column = list(self.sim.boundaries)[k], int(lay.bc_cols[k])
            return (f"pipe {self.sim.grids[idx].pipe.id} {end} "
                    f"({'q' if column % 2 else 'rho'} boundary)")
        for (first, _, ratios, *_), junction in zip(self.junctions,
                                                    self.sim.junctions):
            if row < first + len(ratios):
                kind = "mass" if row == first + len(ratios) - 1 else "pressure"
                return f"junction {junction.node} ({kind})"
        raise IndexError(f"row {row} is not a row of the box system")

    def unreachable_demand(self) -> InvalidDemandError | None:
        """The first junction extraction or ``flow`` outflow of the step at or
        above its maximum for the step's starting states, or None. An outflow
        is checked by its one-port solve in ``apply_boundary``."""
        # Imported here because the coupling module imports this one.
        from .coupling import link_max_extraction

        sim, t = self.sim, self.t_new
        for (*_, eps), junction in zip(self.junctions, sim.junctions):
            eps_max = link_max_extraction(sim, junction)
            if eps >= eps_max:
                return InvalidDemandError(
                    f"t={t:g}, junction {junction.node}: extraction {eps:g} is at "
                    f"or above the junction maximum {eps_max:g}", epsilon_max=eps_max)
        for (idx, end), bc in sim.boundaries.items():
            if bc.kind != "flow":
                continue
            state = sim.grids[idx].end_state(end)
            try:
                apply_boundary(state.rho, state.q, bc, t, sim.law, end)
            except InvalidDemandError as exc:
                return InvalidDemandError(f"t={t:g}, pipe {sim.grids[idx].pipe.id} {end}: "
                                          f"{exc}", epsilon_max=exc.epsilon_max)
        return None

    def _extra(self, rho, q):
        g = self.sim.extra_source(self.x_nodes, self.t_new, rho, q)
        return [np.asarray(v, dtype=float) for v in g]

    def _friction_source(self, x, rho, q):
        """Friction source S at iterate ``x``; its terms are kept for the
        Jacobian there."""
        sim = self.sim
        terms = sim.friction.terms(rho, q, self.diameter, self.roughness,
                                   sim.friction_constants)
        self._friction_at = (x.copy(), terms)
        return terms.source

    def _friction_derivatives(self, x, rho, q):
        """(dS/drho, dS/dq) at iterate ``x``, on the last residual's terms
        when that residual was at ``x``; zero with friction off."""
        sim = self.sim
        x_known, terms = self._friction_at
        if not np.array_equal(x, x_known):
            terms = None
        _, ds_drho, ds_dq = sim.friction.source_with_derivatives(
            rho, q, self.diameter, self.roughness, terms, sim.friction_constants)
        return ds_drho, ds_dq

    def _sources(self, x, rho, q):
        """(G_rho, G_q) of friction and the extra source at the new time
        level, at iterate ``x``."""
        if self.sim.friction.enabled:
            s = self._friction_source(x, rho, q)
        else:
            s = np.zeros_like(rho)
        e_r, e_q = self._extra(rho, q)
        return e_r, s + e_q

    def _source_derivatives(self, x, rho, q):
        """((dG_rho/drho, dG_rho/dq), (dG_q/drho, dG_q/dq)) of friction and
        the extra source at the new time level, at iterate ``x``."""
        ds_drho, ds_dq = self._friction_derivatives(x, rho, q)
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
        sim = self.sim
        law, r, h = sim.law, self._r2, 0.5 * self.dt
        lay = self.layout
        # Node values (rho, q), fluxes and sources, then their pair sums.
        u = self._closed(x, 2)
        rho, q = u[0::2], u[1::2]
        f = np.empty_like(u)
        f[0::2] = q
        f[1::2] = np.asarray(law.p(rho), dtype=float) + q * (q / rho)
        au, af, ao = np.abs(u), np.abs(f), self._old_abs
        pair_res = 0.5 * (u[:-2] + u[2:]) - self._old_half + r * (f[2:] - f[:-2])
        pair_scale = (0.5 * (au[:-2] + au[2:] + ao[:-2] + ao[2:])
                      + r * (af[:-2] + af[2:]))
        if sim.extra_source is not None:
            g = np.empty_like(u)
            g[0::2], g[1::2] = self._sources(x, rho, q)
            ag = np.abs(g)
            pair_res -= h * (g[:-2] + g[2:])
            pair_scale += h * (ag[:-2] + ag[2:])
        elif sim.friction.enabled:
            # Friction alone is a momentum source: the mass rows have none.
            s = self._friction_source(x, rho, q)
            a_s = np.abs(s)
            pair_res[1::2] -= h * (s[:-1] + s[1:])
            pair_scale[1::2] += h * (a_s[:-1] + a_s[1:])
        residual = np.empty(self.size)
        scale = np.empty(self.size)
        # The pairs within pipes, in row order.
        np.take(pair_res, lay.box, out=residual[:lay.box.size])
        np.take(pair_scale, lay.box, out=scale[:lay.box.size])
        x_bc = x[lay.bc_cols]
        residual[lay.bc_rows] = x_bc - self.bc_targets
        scale[lay.bc_rows] = np.abs(x_bc) + self._bc_scale
        # Junctions: pressure equality (with compressor ratios), then mass.
        ports = x[lay.ports].tolist()
        for row, at, ratios, signs, eps in self.junctions:
            p = [float(law.p(rho)) * k for (rho, _), k in zip(ports[at], ratios)]
            total, s = -eps, abs(eps)
            for (_, q), sign in zip(ports[at], signs):
                total += sign * q
                s += abs(q)
            end = row + len(p)
            residual[row:end] = [pk - p[0] for pk in p[1:]] + [total]
            scale[row:end] = [abs(pk) + abs(p[0]) for pk in p[1:]] + [s]
        return residual, scale

    def jacobian(self, x: np.ndarray) -> BandedJacobian:
        """Analytic Jacobian at ``x``, written into the layout's band storage."""
        sim = self.sim
        law, r, h = sim.law, self.r, 0.5 * self.dt
        lay = self.layout
        storage, values = lay.storage, lay.values
        u = self._closed(x, 2)
        rho, q = u[0::2], u[1::2]
        a21, a22 = flux_jacobian(rho, q, law)
        # Box entries by row kind (mass, momentum), node (a, b) and variable.
        box = values[:8 * r.size].reshape(2, 2, 2, r.size)
        (mass_a, mass_b), (mom_a, mom_b) = box
        mass_a[0] = mass_b[0] = 0.5
        np.negative(r, out=mass_a[1])
        mass_b[1] = r
        np.multiply(-r, a21[:-1], out=mom_a[0])
        np.subtract(0.5, r * a22[:-1], out=mom_a[1])
        np.multiply(r, a21[1:], out=mom_b[0])
        np.add(0.5, r * a22[1:], out=mom_b[1])
        if sim.extra_source is not None:
            dg = np.array(self._source_derivatives(x, rho, q))
            box[:, 0] -= h * dg[..., :-1]
            box[:, 1] -= h * dg[..., 1:]
        elif sim.friction.enabled:
            # Friction alone: the momentum entries only.
            for derivative, a, b in zip(self._friction_derivatives(x, rho, q),
                                        mom_a, mom_b):
                hd = h * derivative
                a -= hd[:-1]
                b -= hd[1:]
        entries = []
        rhos = x[lay.ports[:, 0]].tolist()
        for _, at, ratios, signs, _ in self.junctions:
            dp = [float(law.dp(rho)) * k for rho, k in zip(rhos[at], ratios)]
            entries += dp[1:] + [-dp[0]] * (len(dp) - 1) + list(signs)
        values[values.size - len(entries):] = entries
        storage[lay.pos] = values
        return BandedJacobian(lay, storage[:-1].reshape(self.size, -1).T, self.unknown)


def _scaled(residual: np.ndarray, scale: np.ndarray) -> np.ndarray:
    # Absolute tolerance, relaxed to the float-noise floor of huge rows.
    denom = np.maximum(1.0, 50.0 * _EPS * scale / NEWTON_TOL)
    return np.abs(residual) / denom


def _scaled_norm(residual: np.ndarray, scale: np.ndarray) -> float:
    return float(np.max(_scaled(residual, scale)))


def ibox_step(sim: GasSimulation, dt: float) -> StepRecord:
    """Advance the network by one implicit box step of size ``dt`` and
    return its mass balance.

    The mass rows of the box relation telescope along every pipe, so the
    trapezoidal mass is expected to change by dt * sum_k A_k (q_first,k -
    q_last,k) at the new level (zero on a periodic pipe). The terms of the pipe ends at a
    junction add up to minus the area times its extraction, by the
    junction's mass row.

    A Newton iteration that fails is an ``InvalidDemandError`` when an
    extraction or ``flow`` outflow is at or above its maximum for the step's
    starting states, and a ``ConvergenceError`` naming the row of the
    largest residual otherwise.
    """
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

    mass_before = sim.total_mass()
    asm = _Assembler(sim, dt, sim.t + dt)
    x = asm.x_old
    residual, scale = asm.residual(x)
    norm = _scaled_norm(residual, scale)

    def failure(what: str) -> GasPowerError:
        # A demand beyond its maximum is named as such, not as the stall it causes.
        demand = asm.unreachable_demand()
        if demand is not None:
            return demand
        worst = asm.place(int(np.argmax(_scaled(residual, scale))))
        return ConvergenceError(
            f"box-scheme Newton {what} at t={sim.t:g} (scaled residual "
            f"{norm:.3e}); largest residual at {worst}")

    for _ in range(NEWTON_MAXITER):
        if norm <= NEWTON_TOL:
            break
        step = spsolve(asm.jacobian(x), -residual)
        factor = 1.0
        for _ in range(12):
            x_try = x + factor * step
            if np.all(x_try[0::2] > 0.0):
                trial = asm.residual(x_try)
                norm_try = _scaled_norm(*trial)
                if norm_try <= norm * (1.0 - 1e-4) or norm_try <= NEWTON_TOL:
                    break
            factor *= 0.5
        else:
            raise failure("stalled")
        x, norm, (residual, scale) = x_try, norm_try, trial
    else:
        raise failure(f"did not converge within {NEWTON_MAXITER} iterations")

    state = sim.state
    state[:, :asm.active] = x.reshape(-1, 2).T
    if sim.periodic:
        state[:, -1] = state[:, 0]
    sim.t += dt
    sim.check_subsonic()
    nodes = sim.layout
    q_ends = state[1, nodes.offsets[:-1]] - state[1, nodes.offsets[1:] - 1]
    return StepRecord(sim.total_mass() - mass_before,
                      dt * float(np.dot(nodes.pipe_area, q_ends)))
