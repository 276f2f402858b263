"""NumPy implementations of the numerical hot kernels.

These are the routines that dominate runtime (complex dilogarithm, the
Wiener-Hopf plus factor, branched square roots), vectorized over 1-D
complex128 arrays.  They are the only implementation; the rest of the
package calls them through ``wavecut._backend``.  ``splus`` and ``ti2``
reach ``dilog`` through this module's global name, so patching
``_purepy.dilog`` also sees the dilogarithms inside ``S+``.

Dilogarithm: the Bernoulli series in u = -ln(1 - v),

    Li2(v) = u - u^2/4 + sum_{n>=1} B_2n u^(2n+1) / (2n+1)!,

after a map that brings v into Re v <= 1/2, |v| <= 1, where |u| <= pi/3
and ten coefficients reach double precision ('t Hooft and Veltman,
Nucl. Phys. B153 (1979) 365):

* ``Re z <= 1/2, |z| <= 1``  -- direct, v = z
* ``Re z > 1/2, |1-z| <= 1`` -- reflection, v = 1 - z,
                                Li2(z) = pi^2/6 - ln z ln(1-z) - Li2(1-z)
* otherwise                  -- inversion, v = 1/z,
                                Li2(z) = -Li2(1/z) - pi^2/6 - ln^2(-z)/2

Every logarithm comes from real ufuncs, never from NumPy's complex
``np.log``: ln z = ln hypot(x, y) + i atan2(y, x) (``_log``), and for
ln(1 - v) with |v| <= 1, Re v < 1/2 (the direct map, and v = 1/z under
inversion)

    ln(1 - v) = log1p(x (x - 2) + y^2)/2 + i atan2(-y, 1 - x)   (``_log1m``),

which keeps the relative error near v = 0 at a few ulp, where plain
ln(1 - v) loses it.  Per element on 1024-4096 points (2-vCPU x86-64 VM,
NumPy 2.4), the complex ``np.log`` costs 170-250 ns, ``_log`` about
25 ns (most of it ``hypot``) and ``_log1m`` 15-25 ns; the logarithms
were most of ``dilog``'s time.  atan2 keeps signed zeros, so on-cut
inputs stay on the limit from below.

Branch: principal, cut along [1, inf), continuous from below the cut.
"""

from __future__ import annotations

import numpy as np

_ZETA2 = np.pi * np.pi / 6.0

# B_2n / (2n+1)! for n = 9, ..., 1, highest first for Horner in u^2
_BERNOULLI = (4.518980029619918e-16, -1.9939295860721074e-14,
              8.921691020456452e-13, -4.0647616451442256e-11,
              1.8978869988971e-09, -9.185773074661964e-08,
              4.72411186696901e-06, -0.0002777777777777778,
              0.027777777777777776)

# points per dilog call inside S+: bounds the 4x-wide temporaries
_SPLUS_BLOCK = 1024


def _bernoulli(u: np.ndarray) -> np.ndarray:
    # Li2(1 - e^-u) = u - u^2/4 + sum_n B_2n u^(2n+1) / (2n+1)!, Horner
    u2 = u * u
    acc = u2 * _BERNOULLI[0] + _BERNOULLI[1]
    for c in _BERNOULLI[2:]:
        acc *= u2
        acc += c
    acc *= u
    acc -= 0.25
    acc *= u2
    acc += u
    return acc


def _log(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Principal ln(x + iy) from real ufuncs."""
    out = np.empty(x.shape, np.complex128)
    out.real = np.log(np.hypot(x, y))
    out.imag = np.arctan2(y, x)
    return out


def _log1m(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """ln(1 - (x + iy)) for |x + iy| <= 1, x < 1/2, from real ufuncs;
    relative accuracy holds as x + iy -> 0."""
    out = np.empty(x.shape, np.complex128)
    out.real = 0.5 * np.log1p(x * (x - 2.0) + y * y)
    out.imag = np.arctan2(-y, 1.0 - x)
    return out


def dilog(z: np.ndarray) -> np.ndarray:
    """Complex dilogarithm Li2 on a 1-D complex128 array."""
    z = np.ascontiguousarray(z, dtype=np.complex128)

    # on-cut inputs take the limit from below
    oncut = (z.imag == 0.0) & (z.real > 1.0)
    if oncut.any():
        z = z.copy()
        z.imag[oncut] = -0.0

    # the masks see x and y clipped to [-4, 4]: every test comes out the
    # same, and x^2 + y^2 stays finite for any finite z
    x = np.clip(z.real, -4.0, 4.0)
    y = np.clip(z.imag, -4.0, 4.0)
    n2 = x * x + y * y
    is_one = z == 1.0
    m_dir = (x <= 0.5) & (n2 <= 1.0)
    m_ref = (x > 0.5) & (n2 <= 2.0 * x) & ~is_one
    m_inv = ~(m_dir | m_ref | is_one)

    # each map runs on its own points; Li2 = B(u) on the direct ones and
    # rest - B(u) on the others, z = 1 gives u = 0 and rest = pi^2/6
    u = np.zeros_like(z)
    rest = np.full_like(z, _ZETA2)
    if m_dir.any():
        v = z[m_dir]
        u[m_dir] = -_log1m(v.real, v.imag)
    if m_ref.any():
        v = z[m_ref]
        lz = _log(v.real, v.imag)
        u[m_ref] = -lz
        rest[m_ref] = _ZETA2 - lz * _log(1.0 - v.real, -v.imag)
    if m_inv.any():
        v = z[m_inv]
        lm = _log(-v.real, -v.imag)
        w = 1.0 / v
        u[m_inv] = -_log1m(w.real, w.imag)
        rest[m_inv] = -_ZETA2 - 0.5 * lm * lm
    b = _bernoulli(u)
    return np.where(m_dir, b, rest - b)


def ti2(z: np.ndarray) -> np.ndarray:
    """Arctangent integral Ti2(z) = [Li2(iz) - Li2(-iz)] / (2i), 1-D array."""
    z = np.ascontiguousarray(z, dtype=np.complex128)
    return (dilog(1j * z) - dilog(-1j * z)) / 2j


def wsqrt(k: np.ndarray, k0: complex) -> np.ndarray:
    """Branched root sqrt(k^2 - k0^2) continuous in the closed upper half
    plane: principal sqrt(k - k0) * sqrt(k + k0)."""
    k = np.ascontiguousarray(k, dtype=np.complex128)
    return np.sqrt(k - k0) * np.sqrt(k + k0)


def splus(k: np.ndarray, a: complex, k0: complex, K: complex) -> np.ndarray:
    """Wiener-Hopf plus factor of the modified kernel on a 1-D array.

    S+(k) = sqrt((k+k0)/(k+K)) * exp[-(Ti2(z+) - Ti2(z-)) / pi],
    z+- = (i w(k) +- i a)/(K + k).  The exponent is even in w, so either
    branch of the inner root gives the same value.  The four dilogarithms
    of the two Ti2 go into one ``dilog`` call per block of
    ``_SPLUS_BLOCK`` points.
    """
    k = np.ascontiguousarray(k, dtype=np.complex128)
    out = np.empty_like(k)
    for s in range(0, k.size, _SPLUS_BLOCK):
        kb = k[s:s + _SPLUS_BLOCK]
        w = wsqrt(kb, k0)
        denom = K + kb
        zp = 1j * (w + a) / denom
        zm = 1j * (w - a) / denom
        d = dilog(np.concatenate((1j * zp, -1j * zp, 1j * zm, -1j * zm)))
        d = d.reshape(4, kb.size)
        expo = -((d[0] - d[1]) / 2j - (d[2] - d[3]) / 2j) / np.pi
        out[s:s + _SPLUS_BLOCK] = np.sqrt((kb + k0) / denom) * np.exp(expo)
    return out
