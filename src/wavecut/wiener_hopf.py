"""Wiener-Hopf factorization S(k) = S+(k)/S-(k) of the modified kernel.

Closed form (upper half plane, k != +-K):

    S+(k) = sqrt((k+k0)/(k+K)) exp[-(Ti2(z+) - Ti2(z-))/pi],
    z+-   = (i w(k) +- i a)/(K + k),   w = sqrt(k^2 - k0^2).

The exponent is even in w, so the inner branch choice drops out; the
identity z+ z- = (K-k)/(K+k) ties the two arguments together.  At the
confluence points k = +-K the closed form is replaced by dilogarithm
values.  Everything here is cross-validated against the independent
Cauchy-integral representation

    S+(k) = exp(-J(k)),
    J(k)  = (k/(pi i)) int_0^inf Log[1 + a/sqrt(u^2-k0^2)] du/(u^2 - k^2),

evaluated by brute-force quadrature (j_direct) of smooth integrands
only.  For Re k > 0 the contour is rotated onto u = -i k s; the identity
int_0^inf Log(s^2+c^2)/(s^2+1) ds = pi Log(1+c), c = k0/k, removes the
log-singular part, leaving one integral that vanishes at s = inf
(_j_rotated).  For Re k <= 0, where the rotation would sweep the k0
branch cut and the u = -k pole, it runs along the real axis with the
inverse square root at u = k0 mapped away by u = k0 -+ t^2 (j_axis).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _backend
from .model import ReducedParams
from .quadrature import Kind, QuadratureSpec, integrate
from .specfun import dilog, ti2

PI = math.pi

__all__ = [
    "FactorMethod", "FactorValue", "ConfluenceError", "splus", "splus_array",
    "splus_at_K", "splus_at_minus_K", "splus_product_identity", "sigma_plus",
    "j_direct", "j_axis", "j_second_integral_check", "appendix_b_closed",
    "b3_identity_check",
]


class ConfluenceError(ValueError):
    """The closed form degenerates at k = +-K; use splus_at_K."""


class FactorMethod(Enum):
    CLOSED_FORM = "closed_form"
    J_INTEGRAL = "j_integral"


@dataclass(frozen=True, slots=True)
class FactorValue:
    k: complex
    splus: complex
    method: FactorMethod
    err_est: float


def splus_array(k, rp: ReducedParams) -> np.ndarray:
    """Vectorized closed-form S+ on an array of k (no confluence guard)."""
    arr = np.ascontiguousarray(np.atleast_1d(k), dtype=np.complex128)
    return _backend.splus(arr.ravel(), rp.a, rp.k0, rp.K).reshape(arr.shape)


def splus(k: complex, rp: ReducedParams) -> complex:
    """Closed-form plus factor S+(k), valid for Im k >= 0, k != +-K.

    Raises
    ------
    ConfluenceError
        Within ~1e-12 K of either confluence point (use splus_at_K).
    """
    k = complex(k)
    guard = 1e-12 * max(rp.K, 1.0)
    if abs(k - rp.K) < guard or abs(k + rp.K) < guard:
        raise ConfluenceError("confluence of singularities at k = +-K")
    return complex(_backend.splus(np.array([k]), rp.a, rp.k0, rp.K)[0])


@functools.lru_cache(maxsize=256)
def _confluence_phase(a: float, K: float) -> float:
    """(Li2(-a/K) - Li2(a/K))/(2 pi), from one 2-point dilog call.

    Memoised: S+(K) and S+(-K) share it, and callers ask for both at one
    parameter set.  A test that patches the dilog kernels must clear the
    cache."""
    d = dilog(np.array([-a / K, a / K]))
    return (d[0] - d[1]).real / (2.0 * PI)


def splus_at_K(rp: ReducedParams) -> complex:
    """Confluence value S+(K) = sqrt((K+k0)/(2K))
    exp[(i/2pi)(Li2(-a/K) - Li2(a/K))]; a/K < 1 so both dilogarithms are
    real and the exponent is a pure phase."""
    ph = _confluence_phase(rp.a, rp.K)
    return math.sqrt((rp.K + rp.k0) / (2.0 * rp.K)) * cmath.exp(1j * ph)


def splus_at_minus_K(rp: ReducedParams) -> complex:
    """Confluence value at -K from the exact limit of the closed form
    along -K + i delta.

    The sqrt(1/(k+K)) divergence cancels against Ti2(z- -> -inf) via
    Ti2(z) = (pi/2) Log z + Ti2(1/z), leaving

        S+(-K) = sqrt(K/(2(K+k0))) exp[-(i/2pi)(Li2(-a/K) - Li2(a/K))],

    i.e. exactly (1/2)/S+(K): the product identity holds analytically.
    """
    ph = _confluence_phase(rp.a, rp.K)
    return math.sqrt(rp.K / (2.0 * (rp.K + rp.k0))) * cmath.exp(-1j * ph)


def _minus_K_delta(rp: ReducedParams) -> float:
    # the confluence approach expands in delta K^2/a^3, so the step must
    # shrink like a^3/K^2 for a parameter-independent extrapolation error
    return min(max(1e-4 * rp.a ** 3 / rp.K ** 2, 1e-10 * rp.K), 0.05 * rp.K)


def splus_minus_K_limit(rp: ReducedParams, deltas=None) -> complex:
    """S+(-K + i delta) extrapolated to delta = 0 (quadratic Richardson).
    Probes the generic closed form right at the confluence."""
    if deltas is None:
        d0 = _minus_K_delta(rp)
        deltas = (4.0 * d0, 2.0 * d0, d0)
    ds = list(deltas)
    vs = splus_array([complex(-rp.K, d) for d in ds], rp).tolist()
    # Neville elimination of the leading delta and delta^2 terms
    v01 = (ds[0] * vs[1] - ds[1] * vs[0]) / (ds[0] - ds[1])
    v12 = (ds[1] * vs[2] - ds[2] * vs[1]) / (ds[1] - ds[2])
    return (ds[0] * v12 - ds[2] * v01) / (ds[0] - ds[2])


def splus_product_identity(rp: ReducedParams) -> float:
    """Residual |S+(K) S+(-K) - 1/2| with S+(-K) taken from the
    delta-limit of the generic closed form, so the check is not circular;
    the exact confluence value splus_at_minus_K is verified against the
    same limit.

    In extreme parameter corners (a^3/K^2 below ~1e-10 K) the required
    delta sits under double-precision resolution of the w + a
    cancellation; the residual then falls back to the closed confluence
    values alone.
    """
    sK = splus_at_K(rp)
    if 1e-4 * rp.a ** 3 / rp.K ** 2 < 1e-10 * rp.K:
        return abs(sK * splus_at_minus_K(rp) - 0.5)
    lim = splus_minus_K_limit(rp)
    resid = abs(sK * lim - 0.5)
    cross = abs(lim - splus_at_minus_K(rp))
    return max(resid, cross * abs(sK))


def sigma_plus(k: complex, rp: ReducedParams) -> complex:
    """Plus factor of the original kernel: sigma+(k) = S+(k) (k+K)/(k+k0)."""
    k = complex(k)
    guard = 1e-12 * max(rp.K, 1.0)
    if abs(k + rp.k0) < guard or abs(k + rp.K) < guard:
        raise ValueError("pole of sigma+ at k = -k0 or k = -K")
    if abs(k - rp.K) < guard:
        return splus_at_K(rp) * 2.0 * rp.K / (rp.K + rp.k0)
    return splus(k, rp) * (k + rp.K) / (k + rp.k0)


# ----------------------------------------------------------------------
# direct J-integral oracle
# ----------------------------------------------------------------------

def _j_rotated(k: complex, rp: ReducedParams, tol: float):
    """Rotated-contour form, Re k > 0, with c the principal root of
    (k0/k)^2 (Re c > 0: j_direct sends Re k = 0 to the axis form).

    On u = -i k s the density becomes Log[sqrt(s^2+c^2) + i a/k]/(s^2+1).
    Splitting the Log as Log[sqrt(s^2+c^2)] + Log[1 + i a/(k sqrt(...))]
    anchors its branch at s = inf, and the first term integrates to
    (pi/2) Log(1 + c), which cancels the closed second integral
    (1/2) Log(1 + c) of the rotation (j_second_integral_check).  What
    remains is

        J(k) = (1/pi) int_0^{pi/2} Log[1 + i a/(k sqrt(tan^2 th + c^2))] dth,

    s = tan(th), whose integrand is smooth and vanishes at th = pi/2.
    """
    a, k0 = rp.a, rp.k0
    ksq = (k0 / k) ** 2
    iak = 1j * a / k

    def f(theta: np.ndarray) -> np.ndarray:
        t = np.tan(theta)
        return np.log(1.0 + iak / np.sqrt(t * t + ksq))

    kv = abs(k)
    cuts = sorted({math.atan(k0 / kv), math.atan(rp.K / kv)})
    total = 0j
    err = 0.0
    evals = 0
    edges = [0.0] + [c for c in cuts if 0.0 < c < PI / 2] + [PI / 2]
    ok = True
    for lo, hi in zip(edges[:-1], edges[1:]):
        spec = QuadratureSpec(Kind.FINITE, (lo, hi), tol=tol / len(edges),
                              oscillation_hint=(hi - lo) / 4)
        res = integrate(f, spec)
        total += res.value
        err += res.err_est
        evals += res.evaluations
        ok = ok and res.converged
    return total / PI, err / PI, evals, ok


def j_axis(k: complex, rp: ReducedParams, tol: float = 1e-10):
    """Validation path: Eq-of-definition quadrature along the real
    axis, J(k) = (k/(pi i)) int_0^inf Log[1 + a/w(u)] du/(u^2-k^2) with
    w(u) = -i sqrt(k0^2-u^2) on (0, k0).  Valid for any Im k > 0.

    The inverse square root of w at u = k0 is removed before quadrature:
    u = k0 - t^2 on (0, k0) and u = k0 + t^2 on (k0, U), U = 12 k0 + 4|k|,
    give |u^2 - k0^2| = t^2 |2 k0 -+ t^2| and densities such as
    2t Log[1 + i a/(t sqrt(2k0 - t^2))]/(u^2 - k^2), which vanish like
    t ln t at the branch point.  The decaying ray beyond U is smooth.
    """
    a, k0 = rp.a, rp.k0
    k2 = k * k
    U = 12.0 * k0 + 4 * abs(k)

    def dens_inside(t: np.ndarray) -> np.ndarray:
        u = k0 - t * t
        w = t * np.sqrt(2.0 * k0 - t * t)
        return 2.0 * t * np.log(1.0 + 1j * a / w) / (u * u - k2)

    def dens_outside(t: np.ndarray) -> np.ndarray:
        u = k0 + t * t
        w = t * np.sqrt(2.0 * k0 + t * t)
        return 2.0 * t * np.log(1.0 + a / w) / (u * u - k2)

    def dens_ray(u: np.ndarray) -> np.ndarray:
        return np.log(1.0 + a / np.sqrt(u * u - k0 * k0)) / (u * u - k2)

    total = 0j
    err = 0.0
    evals = 0
    ok = True
    # initial panels in t: 2 on (0, sqrt(k0)), ceil(sqrt(11 + 4|k|/k0))
    # on (0, sqrt(U - k0)); adaptive bisection does the rest
    sk0 = math.sqrt(k0)
    for f, spec in [
        (dens_inside, QuadratureSpec(Kind.FINITE, (0.0, sk0), tol=tol / 3,
                                     oscillation_hint=8 * sk0)),
        (dens_outside, QuadratureSpec(Kind.FINITE, (0.0, math.sqrt(U - k0)),
                                      tol=tol / 3, oscillation_hint=4 * sk0)),
        (dens_ray, QuadratureSpec(Kind.DECAYING_RAY, (U, 1.0, 0.05),
                                  tol=tol / 3)),
    ]:
        res = integrate(f, spec)
        total += res.value
        err += res.err_est
        evals += res.evaluations
        ok = ok and res.converged
    return k / (PI * 1j) * total, abs(k) * err / PI, evals, ok


def j_direct(k: complex, rp: ReducedParams, tol: float = 1e-9) -> complex:
    """J(k) by numerical quadrature; S+(k) = exp(-J(k)) is the brute-force
    oracle for the closed form.

    Im k > 0 strictly; real k is resolved as the limit from above with
    delta = 1e-6 and one Richardson step.  Re k > 0 uses the rotated form
    (_j_rotated); Re k <= 0, and Re k > 0 where the rotated Log could
    wind, use the real-axis form (j_axis).  Both integrate smooth
    densities: neither resolves an endpoint singularity by bisection.
    """
    k = complex(k)
    if k.imag < 0.0:
        raise ValueError("j_direct requires Im k >= 0")
    if k.imag == 0.0:
        d = 1e-6 * max(1.0, abs(k))
        v1 = j_direct(complex(k.real, d), rp, tol)
        v2 = j_direct(complex(k.real, 2 * d), rp, tol)
        return 2.0 * v1 - v2
    use_rotated = k.real > 1e-12 * abs(k)
    if use_rotated:
        # the rotated Log can wind around zero when a/(k sqrt(s^2+(k0/k)^2))
        # reaches modulus 1 somewhere on the path; fall back to the axis
        # form in that regime
        ksq = (rp.k0 / k) ** 2
        m = abs(ksq) if ksq.real >= 0.0 else abs(ksq.imag)
        if m <= 0.0 or rp.a / (abs(k) * math.sqrt(m)) >= 0.9:
            use_rotated = False
    if use_rotated:
        value, err, _, ok = _j_rotated(k, rp, tol)
    else:
        value, err, _, ok = j_axis(k, rp, tol)
    if not ok and err > 100.0 * tol:
        raise ArithmeticError(
            f"J({k}) quadrature did not converge: err_est={err:.2e}")
    return value


def j_second_integral_check(k: complex, rp: ReducedParams) -> float:
    """Self-check of the identity behind the rotated form:
    |int_0^inf Log[s^2+(k0/k)^2]/(s^2+1) ds - pi Log(1 + c)|, c the
    principal root of (k0/k)^2.  _j_rotated relies on it to drop both
    the log-singular half of its density and the closed second integral
    (1/2) Log(1 + c), which cancel exactly.  Also covers real negative
    (k0/k)^2 (Re k = 0), on the limit from Im k > 0."""
    ksq = (rp.k0 / k) ** 2
    neg_axis = ksq.imag == 0.0 and ksq.real < 0.0

    def f(theta: np.ndarray) -> np.ndarray:
        t = np.tan(theta)
        u = t * t + ksq
        if neg_axis:
            neg = u.real < 0.0
            return np.where(neg, np.log(np.abs(u.real)) - 1j * PI,
                            np.log(np.where(neg, 1.0, u)))
        return np.log(u)

    res = integrate(f, QuadratureSpec(Kind.FINITE, (0.0, PI / 2), tol=1e-12,
                                      oscillation_hint=PI / 16))
    c_eff = -1j * math.sqrt(-ksq.real) if neg_axis else cmath.sqrt(ksq)
    return abs(res.value - PI * cmath.log(1.0 + c_eff))


# ----------------------------------------------------------------------
# closed-form integral identities behind the plus factor
# ----------------------------------------------------------------------

def appendix_b_closed(c: float, alpha: float) -> float:
    """Closed form of int_0^inf Log[sqrt(x^2+c^2) + alpha]/(x^2+1) dx:

        (pi/2) Log[1 + sqrt(c^2-alpha^2)]
        + Ti2[(sqrt(c^2-1)+alpha)/(sqrt(c^2-alpha^2)+1)]
        + Ti2[(alpha-sqrt(c^2-1))/(1+sqrt(c^2-alpha^2))]

    Real domain: c >= 1 and c^2 >= alpha^2.
    """
    if c < 1.0 or c * c < alpha * alpha:
        raise ValueError("closed form requires c >= 1 and |alpha| <= c")
    s1 = math.sqrt(c * c - alpha * alpha)
    s2 = math.sqrt(c * c - 1.0)
    t1 = ti2(complex((s2 + alpha) / (s1 + 1.0)))
    t2 = ti2(complex((alpha - s2) / (1.0 + s1)))
    return (PI / 2.0) * math.log1p(s1) + t1.real + t2.real


def appendix_b_quadrature(c: float, alpha: float, tol: float = 1e-11,
                          X: float = 400.0) -> float:
    """Brute-force counterpart of appendix_b_closed (oracle): adaptive
    quadrature on [0, X] plus the analytic large-x tail expansion

        int_X^inf ~ (ln X + 1)/X + alpha/(2X^2) + ... + O(X^-5 ln X).
    """

    def f(x: np.ndarray) -> np.ndarray:
        return np.log(np.sqrt(x * x + c * c) + alpha) / (x * x + 1.0) + 0j

    r1 = integrate(f, QuadratureSpec(Kind.FINITE, (0.0, X), tol=tol,
                                     oscillation_hint=X / 64.0))
    lX = math.log(X)
    tail = ((lX + 1.0) / X
            + alpha / (2.0 * X * X)
            + (c * c - alpha * alpha) / (6.0 * X ** 3)
            - (lX / 3.0 + 1.0 / 9.0) / X ** 3
            + (alpha ** 3 / 3.0 - alpha * c * c / 2.0 - alpha) / (4.0 * X ** 4))
    return r1.value.real + tail


def b3_identity_check(a_b: float, b: float, tol: float = 1e-11) -> float:
    """Residual of the arctangent-integral identity

        int_0^b arctan(sqrt(x^2+1-a^2)/a)/sqrt(x^2+1-a^2) dx
          = Ti2[(sqrt(b^2+1-a^2)+b)/(1+a)] - Ti2[(sqrt(b^2+1-a^2)-b)/(1+a)]

    for a in (0, 1), b >= 0.
    """
    if not 0.0 < a_b < 1.0:
        raise ValueError("parameter a must lie in (0, 1)")
    if b < 0.0:
        raise ValueError("upper limit b must be >= 0")
    if b == 0.0:
        return 0.0

    def f(x: np.ndarray) -> np.ndarray:
        r = np.sqrt(x * x + 1.0 - a_b * a_b)
        return np.arctan(r / a_b) / r + 0j

    lhs = integrate(f, QuadratureSpec(Kind.FINITE, (0.0, b), tol=tol)).value.real
    rb = math.sqrt(b * b + 1.0 - a_b * a_b)
    rhs = (ti2(complex((rb + b) / (1.0 + a_b))).real
           - ti2(complex((rb - b) / (1.0 + a_b))).real)
    return abs(lhs - rhs)
