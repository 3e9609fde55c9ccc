"""Brent's method: the in-package port against scipy.optimize.brentq."""

import math

import numpy as np
import pytest
import scipy.optimize

from gaspower.errors import ConvergenceError, DomainError
from gaspower.laxcurves import GasState, lax_left_deriv
from gaspower.pressure import SumGammaLaw
from gaspower.roots import RTOL, XTOL, brentq

# Every (xtol, rtol) pair the package passes, besides the defaults.
TOLERANCES = [(XTOL, RTOL), (XTOL, 1e-15), (XTOL, 1e-14), (1e-24, 1e-15)]


def outcome(solver, errors, f, a, b, xtol, rtol, maxiter):
    """("root", x), or ("raise", category) for the error types ``errors``
    maps to a category."""
    try:
        return "root", solver(f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter)
    except tuple(errors) as exc:
        return "raise", next(errors[t] for t in errors if isinstance(exc, t))


def both(f, a, b, xtol=XTOL, rtol=RTOL, maxiter=100):
    port = outcome(brentq, {DomainError: "domain", ConvergenceError: "convergence"},
                   f, a, b, xtol, rtol, maxiter)
    reference = outcome(scipy.optimize.brentq,
                        {ValueError: "domain", RuntimeError: "convergence"},
                        f, a, b, xtol, rtol, maxiter)
    return port, reference


def polynomial(roots):
    return lambda x: math.prod(x - r for r in roots)


def draws(rng):
    """Seeded (function, a, b) brackets of every shape the package solves."""
    sum_gamma = SumGammaLaw()
    for _ in range(210):
        # Simple roots, one of them inside the bracket.
        roots = np.sort(rng.uniform(-10.0, 10.0, rng.integers(1, 6)))
        k = rng.integers(roots.size)
        lo = roots[k - 1] if k > 0 else roots[0] - 5.0
        hi = roots[k + 1] if k + 1 < roots.size else roots[-1] + 5.0
        yield polynomial(roots.tolist()), float(rng.uniform(lo, roots[k])), \
            float(rng.uniform(roots[k], hi))
        # A cluster of three roots, and a triple root.
        r, gap = float(rng.uniform(-3.0, 3.0)), float(10.0 ** rng.uniform(-12, -2))
        yield polynomial([r - gap, r, r + gap]), r - float(rng.uniform(0.1, 2.0)), \
            r + float(rng.uniform(0.1, 2.0))
        yield polynomial([r, r, r]), r - float(rng.uniform(0.1, 2.0)), \
            r + float(rng.uniform(0.1, 2.0))
        # exp and log shapes.
        k, c = float(rng.uniform(0.1, 20.0)), float(10.0 ** rng.uniform(-3, 3))
        root = math.log(c) / k
        yield (lambda x, k=k, c=c: math.exp(k * x) - c), root - float(rng.uniform(0.01, 3.0)), \
            root + float(rng.uniform(0.01, 3.0))
        c = float(rng.uniform(-5.0, 5.0))
        yield (lambda x, c=c: math.log(x) - c), math.exp(c) * float(rng.uniform(1e-6, 0.9)), \
            math.exp(c) * float(rng.uniform(1.1, 1e3))
        yield (lambda x, c=c: x * math.exp(x) - math.exp(c)), -0.5, 10.0
        # Subnormal values, whose difference quotients underflow to zero:
        # a division by zero in the extrapolation, which must bisect.
        scale = float(10.0 ** rng.uniform(-323.3, -318.0))
        yield (lambda x, c=c, s=scale: s * (x - c) ** 3), c - float(10.0 ** rng.uniform(-1, 4)), \
            c + float(10.0 ** rng.uniform(-1, 4))
        # The generic inversion of a law without a power form.
        p0 = float(10.0 ** rng.uniform(-6, 6))
        yield (lambda r, p0=p0: sum_gamma.p(r) - p0), 1e-9, 1e9
        # The sonic-density curve of rho_min for a sub-sonic state.
        state = GasState(float(10.0 ** rng.uniform(-3, 3)), 0.0)
        state = GasState(state.rho, state.rho * float(sum_gamma.c(state.rho))
                         * float(rng.uniform(-0.9, 0.9)))
        yield (lambda r, s=state: lax_left_deriv(r, s, sum_gamma)), 1e-9 * state.rho, state.rho


def test_port_returns_scipys_roots_bit_for_bit():
    rng = np.random.default_rng(20261019)
    counts = {"root": 0, "raise": 0}
    for f, a, b in draws(rng):
        # The rho_min search scales xtol with the bracket.
        for xtol, rtol in TOLERANCES + [(1e-15 * abs(b), 1e-15)]:
            port, reference = both(f, a, b, xtol, rtol)
            assert port == reference, (a, b, xtol, rtol)
            counts[port[0]] += 1
        port, reference = both(f, a, b, maxiter=int(rng.integers(1, 4)))
        assert port == reference, (a, b)
    assert counts["root"] >= 2000 * len(TOLERANCES)


@pytest.mark.parametrize("a, b", [(0.25, 3.0), (-2.0, 0.25)])
def test_a_zero_at_an_endpoint_is_returned_as_it_is(a, b):
    f = lambda x: x - 0.25
    assert both(f, a, b) == (("root", 0.25), ("root", 0.25))
    assert both(f, a, b, maxiter=0) == (("root", 0.25), ("root", 0.25))


@pytest.mark.parametrize("f, a, b, kwargs", [
    (lambda x: x * x + 1.0, -1.0, 1.0, {}),
    (lambda x: math.nan if 0.2 < x < 0.9 else x - 0.5, 0.0, 1.0, {}),
    (lambda x: math.nan, 0.0, 1.0, {}),
    (lambda x: x - 0.5, 0.0, 1.0, {"xtol": 0.0}),
    (lambda x: x - 0.5, 0.0, 1.0, {"rtol": 1e-17}),
], ids=["same-sign", "nan-inside", "nan-at-endpoint", "xtol", "rtol"])
def test_bad_brackets_and_tolerances_are_domain_errors(f, a, b, kwargs):
    with pytest.raises(DomainError) as info:
        brentq(f, a, b, **kwargs)
    assert isinstance(info.value, ValueError)
    with pytest.raises(ValueError):
        scipy.optimize.brentq(f, a, b, **kwargs)


def test_an_exhausted_iteration_budget_is_a_convergence_error():
    f = lambda x: math.cos(x) - x
    with pytest.raises(ConvergenceError, match="2 iterations"):
        brentq(f, 0.0, 1.0, maxiter=2)
    with pytest.raises(RuntimeError):
        scipy.optimize.brentq(f, 0.0, 1.0, maxiter=2)
    assert brentq(f, 0.0, 1.0) == scipy.optimize.brentq(f, 0.0, 1.0)
