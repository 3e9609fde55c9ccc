"""AC power flow: admittance assembly, mismatch equations, Newton solver.

Buses carry the usual four quantities (P, Q, |V|, phi) in per-unit, with
exactly one slack bus (|V|, phi fixed), generator/PV buses (P, |V| fixed)
and load/PQ buses (P, Q fixed). Real and reactive injections follow

    P_k = sum_j |V_k||V_j| (G_kj cos(phi_k - phi_j) + B_kj sin(phi_k - phi_j))
    Q_k = sum_j |V_k||V_j| (G_kj sin(phi_k - phi_j) - B_kj cos(phi_k - phi_j))

where G + jB is the bus admittance matrix: off-diagonal entries are
transmission-line properties, diagonal entries are node properties (they may
include line charging, so no attempt is made to rebuild them from the lines).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

# Newton power flow: mismatch infinity norm declared converged [p.u.] and
# iteration budget.
NEWTON_TOL = 1e-8
NEWTON_MAX_ITER = 30


@dataclass
class Bus:
    id: str
    kind: str                      # "PQ" | "PV" | "slack"
    P: float | None = None         # injection set-point [p.u.] (loads negative)
    Q: float | None = None
    V: float | None = None         # voltage magnitude set-point [p.u.]
    phi: float = 0.0               # voltage angle [rad]
    G: float = 0.0                 # diagonal admittance entries [p.u.]
    B: float = 0.0

    def __post_init__(self):
        if self.kind not in ("PQ", "PV", "slack"):
            raise DomainError(f"bus {self.id}: unknown kind {self.kind!r}")
        missing = []
        if self.kind == "PQ" and (self.P is None or self.Q is None):
            missing = ["P", "Q"]
        if self.kind == "PV" and (self.P is None or self.V is None):
            missing = ["P", "|V|"]
        if self.kind == "slack" and self.V is None:
            missing = ["|V|"]
        if missing:
            raise DomainError(f"bus {self.id} ({self.kind}) needs {missing}")


@dataclass(frozen=True)
class TransmissionLine:
    from_bus: str
    to_bus: str
    G: float
    B: float

    def __post_init__(self):
        if self.from_bus == self.to_bus:
            raise DomainError(f"line {self.from_bus}-{self.to_bus} is a loop")


@dataclass
class PowerGrid:
    """Buses and lines of a power grid, fixed at build.

    Building the grid forms what its topology determines, once: the bus ids
    and their positions, the slack index, the admittance and the positions
    of the non-slack (``pvpq``) and PQ (``pq``) buses, whose order is that
    of the mismatch rows. The set-points P, Q, |V| and phi of the buses stay
    mutable and are read at every solve.
    """

    buses: list[Bus]
    lines: list[TransmissionLine]

    def __post_init__(self):
        ids = [b.id for b in self.buses]
        if len(set(ids)) != len(ids):
            raise DomainError("duplicate bus ids")
        slack = [k for k, b in enumerate(self.buses) if b.kind == "slack"]
        if len(slack) != 1:
            raise DomainError(f"need exactly one slack bus, found {len(slack)}")
        known = set(ids)
        for line in self.lines:
            if line.from_bus not in known or line.to_bus not in known:
                raise DomainError(
                    f"line {line.from_bus}-{line.to_bus} references unknown bus"
                )
        self.bus_ids = tuple(ids)
        self._positions = {bus_id: k for k, bus_id in enumerate(ids)}
        self.slack_index = slack[0]
        self.admittance = build_admittance(self.buses, self.lines)
        pvpq = [k for k, b in enumerate(self.buses) if b.kind != "slack"]
        pq = [k for k, b in enumerate(self.buses) if b.kind == "PQ"]
        self.pvpq, self.pq = np.array(pvpq, dtype=np.intp), np.array(pq, dtype=np.intp)
        self._pvpq_buses = [self.buses[k] for k in pvpq]
        self._pq_buses = [self.buses[k] for k in pq]

    def index(self, bus_id: str) -> int:
        try:
            return self._positions[bus_id]
        except KeyError:
            raise DomainError(f"unknown bus {bus_id!r}") from None

    def set_points(self) -> np.ndarray:
        """The set-points the mismatch rows meet, as they are now: P at the
        non-slack buses, then Q at the PQ buses."""
        return np.array([b.P for b in self._pvpq_buses]
                        + [b.Q for b in self._pq_buses], dtype=float)


@dataclass(frozen=True)
class PowerFlowSolution:
    bus_ids: tuple[str, ...]
    P: np.ndarray
    Q: np.ndarray
    V: np.ndarray
    phi: np.ndarray
    iterations: int
    mismatch_norm: float

    def table(self) -> str:
        lines = [f"{'bus':6s} {'P':>12s} {'Q':>12s} {'|V|':>10s} {'phi':>12s}"]
        for k, bus in enumerate(self.bus_ids):
            lines.append(
                f"{bus:6s} {self.P[k]:12.6f} {self.Q[k]:12.6f} "
                f"{self.V[k]:10.6f} {self.phi[k]:12.8f}"
            )
        lines.append(
            f"converged in {self.iterations} iterations, "
            f"|mismatch| = {self.mismatch_norm:.3e}"
        )
        return "\n".join(lines)


def build_admittance(buses: list[Bus], lines: list[TransmissionLine]) -> np.ndarray:
    """Complex bus admittance matrix Y = G + jB.

    Diagonal entries come straight from the bus records; each line sets the
    symmetric pair of off-diagonal entries. A second line between the same
    pair of buses is rejected.
    """
    n = len(buses)
    index = {b.id: k for k, b in enumerate(buses)}
    y = np.zeros((n, n), dtype=complex)
    for b in buses:
        y[index[b.id], index[b.id]] = b.G + 1j * b.B
    seen = set()
    for line in lines:
        i, j = index[line.from_bus], index[line.to_bus]
        key = (min(i, j), max(i, j))
        if key in seen:
            raise DomainError(
                f"duplicate transmission line between {line.from_bus} "
                f"and {line.to_bus}"
            )
        seen.add(key)
        y[i, j] = line.G + 1j * line.B
        y[j, i] = line.G + 1j * line.B
    return y


def injections(y: np.ndarray, vmag: np.ndarray, phi: np.ndarray):
    """P_k and Q_k for all buses at the given voltage state."""
    v = vmag * np.exp(1j * phi)
    s = v * np.conj(y @ v)
    return s.real, s.imag


def mismatch(state: tuple[np.ndarray, np.ndarray], grid: PowerGrid) -> np.ndarray:
    """Residual vector [dP at non-slack buses, dQ at PQ buses]."""
    vmag, phi = state
    return _mismatch(grid, vmag, phi, grid.set_points())


def _mismatch(grid: PowerGrid, vmag, phi, set_points: np.ndarray) -> np.ndarray:
    p_calc, q_calc = injections(grid.admittance, vmag, phi)
    return np.concatenate((p_calc[grid.pvpq], q_calc[grid.pq])) - set_points


def _jacobian(y, vmag, phi, pvpq, pq):
    """Power-flow Jacobian blocks d(P,Q)/d(phi,|V|) at the given state."""
    v = vmag * np.exp(1j * phi)
    ibus = y @ v
    diag_v = np.diag(v)
    diag_i = np.diag(ibus)
    diag_e = np.diag(v / np.abs(v))
    ds_dphi = 1j * diag_v @ np.conj(diag_i - y @ diag_v)
    ds_dvm = diag_v @ np.conj(y @ diag_e) + np.conj(diag_i) @ diag_e
    j11 = ds_dphi[np.ix_(pvpq, pvpq)].real
    j12 = ds_dvm[np.ix_(pvpq, pq)].real
    j21 = ds_dphi[np.ix_(pq, pvpq)].imag
    j22 = ds_dvm[np.ix_(pq, pq)].imag
    return np.block([[j11, j12], [j21, j22]])


def solve_newton(grid: PowerGrid, initial="flat") -> PowerFlowSolution:
    """Newton power flow on the (phi, |V|) unknowns.

    ``initial`` is 'flat' (|V| = 1, phi = 0 at unknowns) or a previous
    :class:`PowerFlowSolution` used as a warm start. Converges when the
    infinity norm of the mismatch falls below ``NEWTON_TOL`` [p.u.] within
    ``NEWTON_MAX_ITER`` iterations; slack P/Q and PV-bus Q are recovered from
    the injection equations afterwards.
    """
    n = len(grid.buses)
    y, pvpq, pq = grid.admittance, grid.pvpq, grid.pq
    vmag = np.ones(n)
    phi = np.zeros(n)
    if isinstance(initial, PowerFlowSolution):
        if initial.bus_ids != grid.bus_ids:
            raise DomainError(
                f"warm start from a solution on buses {list(initial.bus_ids)} "
                f"for a grid on buses {list(grid.bus_ids)}")
        vmag = initial.V.copy()
        phi = initial.phi.copy()
    for k, b in enumerate(grid.buses):
        if b.kind in ("PV", "slack"):
            vmag[k] = b.V
        if b.kind == "slack":
            phi[k] = b.phi

    set_points = grid.set_points()
    residual = _mismatch(grid, vmag, phi, set_points)
    norm = float(np.max(np.abs(residual))) if residual.size else 0.0
    iterations = 0
    while not norm <= NEWTON_TOL:
        if not np.isfinite(norm):
            # Residual rows are the non-slack P equations, then the PQ Q ones.
            bus = np.concatenate((pvpq, pq))[int(np.argmax(~np.isfinite(residual)))]
            raise ConvergenceError(
                f"power flow mismatch is not finite at bus "
                f"{grid.bus_ids[bus]} after {iterations} iterations"
            )
        if iterations >= NEWTON_MAX_ITER:
            raise ConvergenceError(
                f"power flow diverged: |mismatch| = {norm:.3e} "
                f"after {iterations} iterations"
            )
        jac = _jacobian(y, vmag, phi, pvpq, pq)
        try:
            step = np.linalg.solve(jac, -residual)
        except np.linalg.LinAlgError:
            raise ConvergenceError(
                f"power flow Jacobian is singular in iteration {iterations + 1}"
            ) from None
        phi[pvpq] += step[:pvpq.size]
        vmag[pq] += step[pvpq.size:]
        residual = _mismatch(grid, vmag, phi, set_points)
        norm = float(np.max(np.abs(residual)))
        iterations += 1

    # Set-points as given; the slack's P and Q and the PV buses' Q computed.
    p_calc, q_calc = injections(y, vmag, phi)
    p_out, q_out = p_calc.copy(), q_calc.copy()
    p_out[pvpq] = set_points[:pvpq.size]
    q_out[pq] = set_points[pvpq.size:]
    return PowerFlowSolution(
        bus_ids=grid.bus_ids, P=p_out, Q=q_out, V=vmag.copy(), phi=phi.copy(),
        iterations=iterations, mismatch_norm=norm,
    )
