"""Bracketed scalar root finding by Brent's method.

:func:`brentq` is Brent's method (R. P. Brent, *Algorithms for Minimization
without Derivatives*, Prentice-Hall 1973, ch. 4): inverse quadratic
extrapolation or secant interpolation, falling back to bisection whenever a
step would not shrink the bracket fast enough. It follows the operation
order of SciPy's ``brentq.c`` (``scipy.optimize.brentq``) step for step, so
it returns the same root, bit for bit, for the same function, bracket and
tolerances, without a C-to-Python callback or a SciPy import.

Errors are categorized:

- ``DomainError`` (a ``ValueError``): ``f(a)`` and ``f(b)`` of the same
  sign, a NaN function value, ``xtol <= 0`` or ``rtol < 4 * eps``;
- ``ConvergenceError``: no convergence within ``maxiter`` iterations.
"""

from __future__ import annotations

import math
import sys

from .errors import ConvergenceError, DomainError

XTOL = 2e-12
RTOL = 4 * sys.float_info.epsilon
MAXITER = 100


def brentq(f, a: float, b: float, xtol: float = XTOL, rtol: float = RTOL,
           maxiter: int = MAXITER) -> float:
    """Root of ``f`` in the bracket ``[a, b]``, where ``f(a)`` and ``f(b)``
    differ in sign.

    The root is found to within ``xtol + rtol * |root|``. An endpoint where
    ``f`` is exactly zero is returned as it is.
    """
    if xtol <= 0:
        raise DomainError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < RTOL:
        raise DomainError(f"rtol too small ({rtol:g} < {RTOL:g})")

    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise DomainError(f"function value at x={x!r} is NaN; no root can be bracketed")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    # The sign tests compare with zero, which is signbit's test for values
    # that are neither NaN nor zero: fpre never is, and fcur is checked.
    if (fpre < 0.0) == (fcur < 0.0):
        raise DomainError(
            f"f(a) and f(b) must have different signs: f({xpre!r}) = {fpre!r}, "
            f"f({xcur!r}) = {fcur!r}")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # C gives an infinite or NaN step here, which fails the test below.
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise ConvergenceError(
        f"Brent's method did not converge in {maxiter} iterations; "
        f"last iterate {xcur!r}, bracket end {xblk!r}")
