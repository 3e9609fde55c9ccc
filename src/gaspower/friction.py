"""Turbulent wall friction for pipe flow.

The momentum source is S(rho, q) = -lambda(q)/(2 d) * q|q|/rho with the
friction factor lambda given implicitly by the Prandtl-Colebrook relation

    1/sqrt(lambda) = -2 log10( 2.51/(Re sqrt(lambda)) + k/(3.71 d) ),

where Re = d|q|/eta. The relation is solved in closed form by Clamond's two
steps, elementwise, so diameter and roughness may be per-node arrays and a
whole network costs one solve. The relation degenerates as Re -> 0, so Re is
clamped at a small floor: below it lambda is the floor value and the drag
lambda * q * max(|q|, q_floor) is the straight line through the origin,
which keeps S continuous and odd in q. A non-finite friction factor raises
``ConvergenceError``.

The per-node constants of the source, k/(3.71 d), q_floor = Re_floor eta/d,
2 d and d/eta, depend only on the geometry and the viscosity.
:meth:`FrictionModel.constants` forms them as :class:`FrictionConstants`;
a :class:`~gaspower.network.GasSimulation` with friction holds those of its
network from its build and hands them to every evaluation. Each constant is
formed before it enters a product, so held or formed per call, the source
is the same to the bit.

One evaluation at an iterate yields :class:`FrictionTerms`: the clamped
Reynolds numbers, lambda, the drag, q_floor and S. The derivatives of S at
the same iterate need exactly these terms, so an implicit scheme that has
evaluated the source hands them to
:meth:`FrictionModel.source_with_derivatives`, which then solves nothing
and recomputes none of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError

_LN10 = math.log(10.0)


def colebrook_friction_factor(reynolds, diameter, roughness, kappa=None):
    """Friction factor from the Prandtl-Colebrook relation (vectorized).

    Clamond's solve (Ind. Eng. Chem. Res. 48 (2009) 3665): with
    kappa = k/(3.71 d), x1 = kappa Re ln10/5.02 and x2 = ln(Re ln10/5.02),
    the relation reads F + ln(x1 + F) = x2 for 1/sqrt(lambda) = 2F/ln10.
    Two third-order corrections from F = x2 - 1/5 reach the root to
    rounding. Reynolds numbers enter by magnitude and must be positive;
    diameter and roughness may be arrays matching them, and ``kappa``, when
    given, is their k/(3.71 d). A non-finite result raises
    ``ConvergenceError``.
    """
    re = np.abs(np.asarray(reynolds, dtype=float))
    if np.any(re <= 0.0):
        raise DomainError("Colebrook relation needs a nonzero Reynolds number")
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        if kappa is None:
            kappa = roughness / (3.71 * diameter)
        x1 = kappa * re * (_LN10 / 5.02)
        x2 = np.log(re * (_LN10 / 5.02))
        f = x2 - 0.2
        for _ in range(2):
            s = x1 + f
            t = 1.0 + s
            e = (np.log(s) + f - x2) / t
            f = f - (t + 0.5 * e) * e * s / (t + e * (1.0 + e / 3.0))
        lam = (0.5 * _LN10 / f) ** 2
    if not np.all(np.isfinite(lam)):
        d, k = ("/".join(f"{v:g}" for v in np.unique(a)) for a in (diameter, roughness))
        raise ConvergenceError(
            f"Colebrook relation has no finite friction factor for Re in "
            f"[{np.min(re):g}, {np.max(re):g}] (diameter {d} m, roughness {k} m)"
        )
    return lam if lam.ndim else float(lam)


def _colebrook_dlambda_dre(lam, re, kappa):
    """d lambda / d Re by implicit differentiation of the Colebrook relation;
    ``kappa`` is k/(3.71 d)."""
    x = 1.0 / np.sqrt(lam)
    u_re = (2.51 * x / re + kappa) * re
    a = 2.0 / _LN10
    dx_dre = (a * 2.51 * x / (u_re * re)) / (1.0 + a * 2.51 / u_re)
    return -2.0 / x**3 * dx_dre


def friction_source(rho, q, pipe, model: "FrictionModel | None" = None):
    """Momentum source of a pipe: -lambda(q)/(2 d) * q|q|/rho.

    ``pipe`` supplies diameter and roughness; ``model`` the viscosity and
    regularization (defaults to the standard model).
    """
    model = model if model is not None else FrictionModel()
    return model.source(rho, q, pipe.diameter, pipe.roughness)


class FrictionConstants(NamedTuple):
    """The per-node constants of the source for one viscosity."""

    kappa: np.ndarray       # k/(3.71 d), Colebrook's roughness term
    q_floor: np.ndarray     # momentum at the Reynolds floor, Re_floor eta/d
    two_d: np.ndarray       # 2 d
    d_over_eta: np.ndarray  # d/eta, the slope of Re in |q|


class FrictionTerms(NamedTuple):
    """The friction terms of one iterate, in the shapes of its nodes."""

    reynolds: np.ndarray   # Re = |q| d/eta, clamped at the floor
    lam: np.ndarray        # Colebrook friction factor at ``reynolds``
    drag: np.ndarray       # lambda * q * max(|q|, q_floor)
    q_floor: np.ndarray    # momentum at the Reynolds floor
    source: np.ndarray     # S = -drag/(2 d rho)


@dataclass(frozen=True)
class FrictionModel:
    """Momentum friction source with Reynolds-floor regularization.

    Diameter and roughness are scalars or per-node arrays. The model is
    frozen, so constants formed from it stay its own.
    """

    eta: float = 1e-5          # dynamic viscosity [kg/(m s)]
    enabled: bool = True
    re_floor: ClassVar[float] = 100.0

    def __post_init__(self):
        if not 0.0 < self.eta < math.inf:
            raise DomainError(
                f"viscosity must be positive and finite, got {self.eta}")

    def constants(self, diameter, roughness) -> FrictionConstants:
        """The constants of :meth:`terms` for this viscosity and geometry."""
        return FrictionConstants(roughness / (3.71 * diameter),
                                 self.re_floor * self.eta / diameter,
                                 2.0 * diameter, diameter / self.eta)

    def terms(self, rho, q, diameter, roughness, constants=None) -> FrictionTerms:
        """The terms of S(rho, q) with friction enabled: one Colebrook solve.

        ``constants``, when given, are ``constants(diameter, roughness)``,
        formed once for a network.
        """
        if constants is None:
            constants = self.constants(diameter, roughness)
        kappa, q_floor, two_d, _ = constants
        rho = np.asarray(rho, dtype=float)
        q = np.asarray(q, dtype=float)
        speed = np.abs(q)
        re = np.maximum(speed * diameter / self.eta, self.re_floor)
        lam = colebrook_friction_factor(re, diameter, roughness, kappa)
        drag = lam * q * np.maximum(speed, q_floor)
        return FrictionTerms(re, lam, drag, q_floor, -drag / (two_d * rho))

    def source(self, rho, q, diameter, roughness, constants=None):
        """S(rho, q); zero when friction is disabled. ``constants`` as in
        :meth:`terms`."""
        if not self.enabled:
            return np.zeros_like(np.asarray(rho, dtype=float))
        return self.terms(rho, q, diameter, roughness, constants).source

    def source_with_derivatives(self, rho, q, diameter, roughness, terms=None,
                                constants=None):
        """(S, dS/drho, dS/dq) for implicit time integration.

        ``terms``, when given, are ``terms(rho, q, diameter, roughness)`` of
        an earlier call at the same iterate and save their evaluation;
        ``constants`` are as in :meth:`terms`.
        """
        rho = np.asarray(rho, dtype=float)
        q = np.asarray(q, dtype=float)
        if not self.enabled:
            z = np.zeros_like(rho)
            return z, z.copy(), z.copy()
        if constants is None:
            constants = self.constants(diameter, roughness)
        if terms is None:
            terms = self.terms(rho, q, diameter, roughness, constants)
        kappa, _, two_d, d_over_eta = constants
        re, lam, _, q_floor, s = terms
        speed = np.abs(q)
        ds_drho = -s / rho

        dlam_dre = _colebrook_dlambda_dre(lam, re, kappa)
        dre_dq = d_over_eta * np.sign(q)
        ddrag_dq = dlam_dre * dre_dq * q * speed + 2.0 * lam * speed
        ddrag_dq = np.where(speed < q_floor, lam * q_floor, ddrag_dq)
        ds_dq = -ddrag_dq / (two_d * rho)
        return s, ds_drho, ds_dq
