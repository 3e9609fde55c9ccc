"""Turbulent wall friction for pipe flow.

The momentum source is S(rho, q) = -lambda(q)/(2 d) * q|q|/rho with the
friction factor lambda given implicitly by the Prandtl-Colebrook relation

    1/sqrt(lambda) = -2 log10( 2.51/(Re sqrt(lambda)) + k/(3.71 d) ),

where Re = d|q|/eta. The relation degenerates as Re -> 0, so below a small
Reynolds floor the product lambda * q|q| is replaced by the straight line
through the origin matching the floor value, which keeps S continuous and
odd in q. The floor constants are cached per (eta, diameter, roughness),
so S, with or without its derivatives, costs one Colebrook solve on the
nodes. A solve that does not converge raises ``ConvergenceError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .errors import ConvergenceError, DomainError

_LN10 = math.log(10.0)
COLEBROOK_TOL = 1e-14        # relative update that ends the fixed point
COLEBROOK_MAX_ITER = 200


def colebrook_friction_factor(reynolds, diameter: float, roughness: float):
    """Friction factor from the Prandtl-Colebrook relation (vectorized).

    Fixed-point iteration on x = 1/sqrt(lambda), started from lambda = 0.02;
    stops when the update falls below ``COLEBROOK_TOL`` and raises
    ``ConvergenceError`` after ``COLEBROOK_MAX_ITER`` iterations. Reynolds
    numbers enter by magnitude and must be positive.
    """
    re = np.abs(np.asarray(reynolds, dtype=float))
    if np.any(re <= 0.0):
        raise DomainError("Colebrook relation needs a nonzero Reynolds number")
    kappa = roughness / (3.71 * diameter)
    x = np.full_like(re, 1.0 / math.sqrt(0.02))
    for _ in range(COLEBROOK_MAX_ITER):
        x_old = x
        x = -2.0 * np.log10(2.51 * x_old / re + kappa)
        if np.all(np.abs(x - x_old) <= COLEBROOK_TOL * np.maximum(1.0, np.abs(x))):
            break
    else:
        raise ConvergenceError(
            f"Colebrook relation did not converge within {COLEBROOK_MAX_ITER} "
            f"iterations for Re in [{np.min(re):g}, {np.max(re):g}] "
            f"(diameter {diameter:g} m, roughness {roughness:g} m)"
        )
    lam = 1.0 / (x * x)
    return lam if lam.ndim else float(lam)


def _colebrook_dlambda_dre(lam, re, diameter: float, roughness: float):
    """d lambda / d Re by implicit differentiation of the fixed point."""
    kappa = roughness / (3.71 * diameter)
    x = 1.0 / np.sqrt(lam)
    u = 2.51 * x / re + kappa
    a = 2.0 / _LN10
    dx_dre = (a * 2.51 * x / (u * re * re)) / (1.0 + a * 2.51 / (u * re))
    return -2.0 / x**3 * dx_dre


@lru_cache(maxsize=256)
def _floor_constants(re_floor, eta, diameter, roughness) -> tuple[float, float]:
    """(q_floor, lambda_floor * q_floor^2) at the Reynolds floor."""
    q_floor = re_floor * eta / diameter
    lam_floor = colebrook_friction_factor(re_floor, diameter, roughness)
    return q_floor, lam_floor * q_floor * q_floor


def friction_source(rho, q, pipe, model: "FrictionModel | None" = None):
    """Momentum source of a pipe: -lambda(q)/(2 d) * q|q|/rho.

    ``pipe`` supplies diameter and roughness; ``model`` the viscosity and
    regularization (defaults to the standard model).
    """
    model = model if model is not None else FrictionModel()
    return model.source(rho, q, pipe.diameter, pipe.roughness)


@dataclass
class FrictionModel:
    """Momentum friction source with Reynolds-floor regularization."""

    eta: float = 1e-5          # dynamic viscosity [kg/(m s)]
    enabled: bool = True
    re_floor: ClassVar[float] = 100.0

    def __post_init__(self):
        if self.eta <= 0.0:
            raise DomainError(f"viscosity must be positive, got {self.eta}")

    def _drag(self, q, diameter: float, roughness: float):
        """lambda(q) * q|q|, linearly interpolated to 0 below the Re floor.

        Returns (drag, lambda, Re, q_floor, drag_floor) of one Colebrook solve.
        """
        q_floor, drag_floor = _floor_constants(self.re_floor, self.eta,
                                               diameter, roughness)
        re = np.maximum(np.abs(q) * diameter / self.eta, self.re_floor)
        lam = colebrook_friction_factor(re, diameter, roughness)
        turbulent = lam * q * np.abs(q)
        linear = drag_floor * q / q_floor
        drag = np.where(np.abs(q) < q_floor, linear, turbulent)
        return drag, lam, re, q_floor, drag_floor

    def source(self, rho, q, diameter: float, roughness: float):
        """S(rho, q); zero when friction is disabled."""
        rho = np.asarray(rho, dtype=float)
        if not self.enabled:
            return np.zeros_like(rho)
        drag = self._drag(np.asarray(q, dtype=float), diameter, roughness)[0]
        return -drag / (2.0 * diameter * rho)

    def source_with_derivatives(self, rho, q, diameter: float, roughness: float):
        """(S, dS/drho, dS/dq) for implicit time integration."""
        rho = np.asarray(rho, dtype=float)
        q = np.asarray(q, dtype=float)
        if not self.enabled:
            z = np.zeros_like(rho)
            return z, z.copy(), z.copy()
        drag, lam, re, q_floor, drag_floor = self._drag(q, diameter, roughness)
        s = -drag / (2.0 * diameter * rho)
        ds_drho = -s / rho

        dlam_dre = _colebrook_dlambda_dre(lam, re, diameter, roughness)
        dre_dq = diameter / self.eta * np.sign(q)
        ddrag_dq = dlam_dre * dre_dq * q * np.abs(q) + 2.0 * lam * np.abs(q)
        ddrag_dq = np.where(np.abs(q) < q_floor, drag_floor / q_floor, ddrag_dq)
        ds_dq = -ddrag_dq / (2.0 * diameter * rho)
        return s, ds_drho, ds_dq
