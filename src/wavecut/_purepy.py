"""NumPy implementations of the numerical hot kernels.

These are the routines that dominate runtime (complex dilogarithm, the
Wiener-Hopf plus factor, branched square roots), vectorized over 1-D
complex128 arrays.  They are the only implementation; the rest of the
package calls them through ``wavecut._backend``.  ``ti2`` reaches
``dilog`` through this module's global name, so patching
``_purepy.dilog`` also sees the dilogarithms inside ``S+``.

Dilogarithm evaluation strategy:

* ``|z| <= 0.75``          -- defining power series sum z^n / n^2
* ``|1 - z| <= 0.75``      -- reflection  Li2(z) = pi^2/6 - ln z ln(1-z) - Li2(1-z)
* ``|z| >= 1.4``           -- inversion   Li2(z) = -Li2(1/z) - pi^2/6 - ln^2(-z)/2
* otherwise                -- log-series about the unit circle,
                              Li2(z) = pi^2/6 + u(1 - ln(-u)) + sum c_m u^m,
                              u = ln z, convergent for |u| < 2 pi

Branch: principal, cut along [1, inf), continuous from below the cut.
"""

from __future__ import annotations

import numpy as np

_ZETA2 = np.pi * np.pi / 6.0
_SERIES_TERMS = 135

# zeta(2 - m) / m! for the log-series; only m = 2 and odd m survive
_LOG_COEFF = (
    (2, -0.25),
    (3, -0.013888888888888888),
    (5, 6.944444444444444e-05),
    (7, -7.873519778281683e-07),
    (9, 1.1482216343327455e-08),
    (11, -1.8978869988971e-10),
    (13, 3.387301370953521e-12),
    (15, -6.372636443183181e-14),
    (17, 1.2462059912950672e-15),
    (19, -2.5105444608999545e-17),
    (21, 5.178258806090623e-19),
    (23, -1.0887357368300849e-20),
    (25, 2.325744114302087e-22),
    (27, -5.03519521314739e-24),
    (29, 1.1026499294381215e-25),
    (31, -2.4386585509007344e-27),
    (33, 5.440142678856253e-29),
    (35, -1.2228340131217352e-30),
    (37, 2.767263468967951e-32),
    (39, -6.3000905918320136e-34),
    (41, 1.4420868388418476e-35),
    (43, -3.3170939991595428e-37),
    (45, 7.663913557920658e-39),
    (47, -1.7778714733830659e-40),
    (49, 4.1396058982341375e-42),
    (51, -9.671557036081102e-44),
    (53, 2.2667187016766123e-45),
    (55, -5.327956311328254e-47),
)


def _series(w: np.ndarray) -> np.ndarray:
    # Horner evaluation of sum_{n>=1} w^n / n^2; caller guarantees |w| <= 0.75
    acc = np.zeros_like(w)
    for n in range(_SERIES_TERMS, 0, -1):
        acc = acc * w + 1.0 / (n * n)
    return acc * w


def _logseries(z: np.ndarray) -> np.ndarray:
    u = np.log(z)
    acc = _ZETA2 + u * (1.0 - np.log(-u))
    up = u
    mlast = 1
    for m, c in _LOG_COEFF:
        up = up * u ** (m - mlast)
        mlast = m
        acc = acc + c * up
    return acc


def dilog(z: np.ndarray) -> np.ndarray:
    """Complex dilogarithm Li2 on a 1-D complex128 array."""
    z = np.ascontiguousarray(z, dtype=np.complex128)
    out = np.empty_like(z)

    # on-cut inputs take the from-below limit unless a -0.0 side was given
    zim = z.imag.copy()
    oncut = (zim == 0.0) & (z.real > 1.0) & ~np.signbit(zim)
    if oncut.any():
        zim[oncut] = -0.0
        z = z.real + 1j * 0.0
        z.imag[:] = zim  # keep signed zeros

    is_one = z == 1.0
    az = np.abs(z)
    m_ser = (az <= 0.75) & ~is_one
    m_ref = ~m_ser & (np.abs(1.0 - z) <= 0.75) & ~is_one
    m_inv = ~m_ser & ~m_ref & (az >= 1.4) & ~is_one
    m_log = ~(m_ser | m_ref | m_inv | is_one)

    if is_one.any():
        out[is_one] = _ZETA2
    if m_ser.any():
        out[m_ser] = _series(z[m_ser])
    if m_ref.any():
        w = z[m_ref]
        om = 1.0 - w
        out[m_ref] = _ZETA2 - np.log(w) * np.log(om) - _series(om)
    if m_inv.any():
        w = z[m_inv]
        lm = np.log(-w)
        out[m_inv] = -_series(1.0 / w) - _ZETA2 - 0.5 * lm * lm
    if m_log.any():
        out[m_log] = _logseries(z[m_log])
    return out


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
    branch of the inner root gives the same value.
    """
    k = np.ascontiguousarray(k, dtype=np.complex128)
    w = wsqrt(k, k0)
    denom = K + k
    zp = 1j * (w + a) / denom
    zm = 1j * (w - a) / denom
    expo = -(ti2(zp) - ti2(zm)) / np.pi
    return np.sqrt((k + k0) / denom) * np.exp(expo)
