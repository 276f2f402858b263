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

evaluated by brute-force quadrature (j_direct) along the real u axis.
One substitution u = k0 -+ v^4 maps the branch point u = k0 to v = 0,
where the density vanishes like v^3 ln|v|, so every k is one integrate
call on one smooth density (j_axis), plus one call near u = 0 when |k|
is small against k0.
"""

from __future__ import annotations

import cmath
import functools
import logging
import math

import numpy as np

from . import _backend
from .model import ReducedParams
from .quadrature import Kind, QuadResult, QuadratureSpec, integrate
from .specfun import dilog, ti2

PI = math.pi

_log = logging.getLogger(__name__)

__all__ = [
    "ConfluenceError", "splus", "splus_array",
    "splus_at_K", "splus_at_minus_K", "splus_product_identity", "sigma_plus",
    "j_direct", "j_axis", "j_second_integral_check", "appendix_b_closed",
    "b3_identity_check",
]


class ConfluenceError(ValueError):
    """The closed form degenerates at k = +-K; use splus_at_K."""


def splus_array(k, rp: ReducedParams) -> np.ndarray:
    """Vectorized closed-form S+ on an array of k (no confluence guard).

    Real k is taken as the limit from above, the side the J integral
    (j_direct) takes."""
    arr = np.ascontiguousarray(np.atleast_1d(k), dtype=np.complex128)
    cut = (arr.imag == 0.0) & (arr.real < -rp.k0)
    if cut.any():
        # real k < -k0 lies on the closed form's own cuts, where the
        # principal roots and Li2 take the far side; S+ is analytic just
        # above, so a shift of 1e-150 |k| gives the limit from above
        arr = arr.copy()
        arr.imag[cut] = -1e-150 * arr.real[cut]
    return _backend.splus(arr.ravel(), rp.a, rp.k0, rp.K).reshape(arr.shape)


def splus(k: complex, rp: ReducedParams) -> complex:
    """Closed-form plus factor S+(k), valid for Im k >= 0, k != +-K, real
    k taken as the limit from above (see splus_array).

    Raises
    ------
    ConfluenceError
        Within ~1e-12 K of either confluence point (use splus_at_K).
    """
    k = complex(k)
    guard = 1e-12 * max(rp.K, 1.0)
    if abs(k - rp.K) < guard or abs(k + rp.K) < guard:
        raise ConfluenceError("confluence of singularities at k = +-K")
    return complex(splus_array(k, rp)[0])


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


def splus_minus_K_limit(rp: ReducedParams) -> complex:
    """S+(-K + i delta) extrapolated to delta = 0 (quadratic Richardson
    on delta = 4 d, 2 d, d).  Probes the generic closed form right at the
    confluence."""
    d0 = _minus_K_delta(rp)
    ds = [4.0 * d0, 2.0 * d0, d0]
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

def j_axis(k: complex, rp: ReducedParams, tol: float = 1e-10):
    """J(k) = (k/(pi i)) int_0^inf Log[1 + a/w(u)] du/(u^2-k^2) along the
    real axis, w(u) = -i sqrt(k0^2-u^2) on the gap (0, k0); valid for any
    Im k > 0.  Returns (value, err_est, evaluations, converged).

    One variable v carries the whole axis: u = k0 - v^4 on the gap
    (v < 0) and u = k0 + v^4 beyond it (v > 0), so |u^2 - k0^2| =
    v^4 (u + k0) and the density

        4|v|^3 Log[1 + c/(v^2 sqrt(u + k0))]/(u^2 - k^2),

    c = i a for v < 0 and c = a for v > 0, vanishes like v^3 ln|v| at the
    branch point (Davis & Rabinowitz, Methods of Numerical Integration,
    1984, section 2.9).  Its pieces (-k0^(1/4), 0), (0, V) and the ray from
    V = (11 k0 + 4|k|)^(1/4), where u = 12 k0 + 4|k|, go to one integrate
    call.  When 100|k| <= k0 the poles u = +-k make a spike of width |k|
    at u = 0; the gap piece then starts at u = k0/2, and u in (0, k0/2)
    goes to a second call in s, u = |k| expm1(s), on pieces with edges
    at u = |k| and 10|k|.  The returned err_est is |k|/pi times the
    summed estimate, and each of the n pieces (3, or 6 with the spike)
    gets tol pi/(n|k|), so converged means err_est <= tol on J itself.
    Raises ValueError unless Im k > 0.
    """
    if not k.imag > 0.0:
        raise ValueError("j_axis requires Im k > 0")
    a, k0 = rp.a, rp.k0
    k2 = k * k

    def f(v: np.ndarray) -> np.ndarray:
        v2 = v * v
        av3 = v2 * np.abs(v)
        u = k0 + v * av3
        c = np.where(v < 0.0, 1j * a, a)
        w = v2 * np.sqrt(u + k0)  # |u^2 - k0^2|^(1/2)
        return 4.0 * av3 * np.log(1.0 + c / w) / (u * u - k2)

    ak = abs(k)
    q = k0 ** 0.25
    V = (11.0 * k0 + 4.0 * ak) ** 0.25
    near = 100.0 * ak <= k0
    ptol = tol * PI / ((6.0 if near else 3.0) * ak)
    v0, spike = -q, QuadResult(0j, 0.0, 0, True)
    if near:
        # v near -q resolves u only to ulp(k0), far coarser than the
        # spike; s resolves u -> 0 and turns its 1/u^2 tail into e^-s
        def g(s: np.ndarray) -> np.ndarray:
            u = ak * np.expm1(s)
            w = np.sqrt((k0 - u) * (k0 + u))
            return (ak + u) * np.log(1.0 + 1j * a / w) / ((u - k) * (u + k))

        edges = (0.0, math.log(2.0), math.log(11.0),
                 math.log1p(0.5 * k0 / ak))
        spike = integrate(g, *(QuadratureSpec(Kind.FINITE, ends, tol=ptol)
                               for ends in zip(edges[:-1], edges[1:])))
        v0 = -(0.5 * k0) ** 0.25
    res = integrate(
        f,
        QuadratureSpec(Kind.FINITE, (v0, 0.0), tol=ptol,
                       oscillation_hint=4.0 * q),
        QuadratureSpec(Kind.FINITE, (0.0, V), tol=ptol,
                       oscillation_hint=V / 2),
        QuadratureSpec(Kind.DECAYING_RAY, (V, 0.5 / V), tol=ptol))
    return (k / (PI * 1j) * (res.value + spike.value),
            ak * (res.err_est + spike.err_est) / PI,
            res.evaluations + spike.evaluations,
            res.converged and spike.converged)


def j_direct(k: complex, rp: ReducedParams, tol: float = 1e-9) -> complex:
    """J(k) by quadrature (j_axis); S+(k) = exp(-J(k)) is the brute-force
    oracle for the closed form.

    Real k is the limit from above, from steps delta and 2 delta and one
    Richardson step; J ~ -Log(k + k0)/2 near -k0, so delta shrinks with
    |k + k0|.  tol bounds the error estimate of J itself in each j_axis
    call.  Raises ValueError for Im k < 0 and at k = -k0, and
    ArithmeticError when the quadrature fails with err_est above 100 tol,
    e.g. on real k so close to -k0 that the pole u = -k pinches the branch
    point u = k0.  A quadrature that stops short of tol but within that
    slack (real k at tight tol) returns its value and logs one WARNING on
    this module's logger per j_axis call.
    """
    k = complex(k)
    if k.imag < 0.0:
        raise ValueError("j_direct requires Im k >= 0")
    if k == -rp.k0:
        raise ValueError("J(k) diverges at k = -k0, the zero of S+")
    if k.imag == 0.0:
        d = min(1e-6 * max(1.0, abs(k)), 1e-4 * abs(k + rp.k0))
        v1 = j_direct(complex(k.real, d), rp, tol)
        v2 = j_direct(complex(k.real, 2 * d), rp, tol)
        return 2.0 * v1 - v2
    value, err, _, ok = j_axis(k, rp, tol)
    if not ok:
        if err > 100.0 * tol:
            raise ArithmeticError(
                f"J({k}) quadrature did not converge: err_est={err:.2e}")
        _log.warning("j_direct: J(%s) quadrature stopped unconverged, "
                     "accepted within 100 tol (err_est %.2e, tol %g)",
                     k, err, tol)
    return value


def j_second_integral_check(k: complex, rp: ReducedParams) -> float:
    """Residual |int_0^inf Log[s^2+c^2]/(s^2+1) ds - pi Log(1 + c)|,
    c the principal root of (k0/k)^2.

    This is the alpha = 0 case of the Appendix B log integral
    (appendix_b_closed) at complex c, which the closed form there covers
    only for real c >= 1.  Real negative (k0/k)^2 (Re k = 0) is taken as
    the limit from Im k > 0."""
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
