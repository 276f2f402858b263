"""Two-particle wave function in both regions, asymptotics, diagnostics.

The wave function follows from one shifted-line integral (the unified
route, psi_unified):

    psi(R, y) = (a alpha / 2 pi) int_{Im k = c} (k + k0)/w(k)
                e^{-i k R - |y| w(k)} / ((k^2 - K^2) S+(k)) dk,

with w = sqrt(k^2 - k0^2) carrying small positive Im k0, and alpha fixed
so the pole at k = +K reproduces a unit-amplitude incident bound pair,
alpha = 2 i K S+(K)/(K + k0).

Closing the contour gives the regional forms.  For R < 0 (interaction-free
region) only the wrap around the upper branch cut survives:

    psi = pref/(2 pi) int_0^{k0} sqrt((k0+x)/(k0-x)) e^{-i x R}
              2 cos(|y| q) / (S+(x) (K^2 - x^2)) dx   + vertical leg,

q = sqrt(k0^2 - x^2), pref = 2 a K S+(K)/(K + k0): both sides of the cut
contribute (S+ is analytic across it), which is why a cosine appears and
not the single exponential of the one-sided segment approximation (kept
separately as the APPROX_31 method).  For R > 0 the poles give the incident and
reflected pair and the lower wrap gives the ionized field Phi; there S+
continues as S * S-, so it jumps across the cut by -(a - i q)/(a + i q)
and the two sides combine with that extra phase.

Far-field closed forms: the smooth 1/R law (far_field) with entanglement
phase e^{-i k0 |y|}, and the steepest-descent outgoing wave for R > 0
(steepest_descent); both return the bare complex value, with no error
bound.  Note the exact field for R < 0 also contains a branch-point
contribution decaying like |R|^(-1/2) which dominates the 1/R component
at any fixed |y|; see the saddle form psi_tail_saddle.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from . import _backend
from .model import ReducedParams
from .quadrature import (_W7, _W15, Kind, QuadratureSpec, _map_panels,
                         _panel_edges, integrate)
from .specfun import dilog, im_ti2, ti2
from .wiener_hopf import splus_at_K

PI = math.pi

_log = logging.getLogger(__name__)

__all__ = [
    "Method", "WaveSample", "WaveGrid", "AsymptoticPhases",
    "psi_free", "psi_approx31", "psi_atom", "phi_integral", "psi_unified",
    "psi_unified_extrapolated", "unified_residue_check", "far_field",
    "steepest_descent", "asymptotic_phases", "psi_tail_saddle",
    "expected_displacement", "tail_exponent", "scan_grid",
]


class Method(Enum):
    REGIONAL = "regional"
    REGIONAL_WITH_VERTICAL_LEG = "regional_with_vertical_leg"
    UNIFIED_A7 = "unified_a7"
    APPROX_31 = "approx_31"


@dataclass(frozen=True, slots=True)
class WaveSample:
    R: float
    y: float
    psi: complex
    err_est: float
    method: Method
    converged: bool = True


@dataclass(frozen=True)
class WaveGrid:
    R_values: np.ndarray
    y_values: np.ndarray
    samples: np.ndarray          # complex, shape (len(R), len(y))
    method: Method
    err: np.ndarray
    converged: np.ndarray


@dataclass(frozen=True)
class AsymptoticPhases:
    phi_minus: float
    phi_plus: float
    xi: float


def _check_inputs(R, y, tol: float) -> None:
    """R and y (scalars or arrays) must be finite and tol positive; NaN
    fails both checks."""
    if not (np.isfinite(R).all() and np.isfinite(y).all()):
        raise ValueError("R and y must be finite")
    if not tol > 0.0:
        raise ValueError("tol must be positive")


def _require_k0(rp: ReducedParams, route: str) -> None:
    """The unified line, the saddle and the far-field laws need an open
    branch-cut gap: at k0 = 0 their closed forms divide by k0 or put Ti2
    on its cut."""
    if not rp.k0 > 0.0:
        raise ValueError(f"{route} requires k0 > 0")


def _pref(rp: ReducedParams) -> complex:
    return 2.0 * rp.a * rp.K * splus_at_K(rp) / (rp.K + rp.k0)


def _phase_rate(rp: ReducedParams, R: float, y: float) -> float:
    """Bound on |d phase/dt| of the segment phase -xR - |y| q in
    t = sqrt(k0 - x)."""
    return 2.0 * math.sqrt(rp.k0) * abs(R) + 2.0 * math.sqrt(2 * rp.k0) * abs(y)


def _hint_t(rp: ReducedParams, R: float, y: float) -> float:
    """The segment's oscillation_hint: four times its shortest wavelength
    2 pi / _phase_rate in t, so each initial panel spans one wavelength."""
    return 8.0 * PI / max(_phase_rate(rp, R, y), 2.0)


# ----------------------------------------------------------------------
# regional contour pieces
#
# Each piece maps its nodes t to (z, q, amp, jump): z = -ik at the contour
# point k (real on the imaginary-axis legs), the cut variable
# q = sqrt(k0^2 - k^2), the (R, y)-independent amplitude (S+ included)
# and, on the lower cut (R > 0), the jump (a + i q)/(a - i q) of the
# continued plus factor.  The integrand is
# amp e^{zR} _transverse(q, |y|, jump), and every regional route is
#
#     psi = [R > 0] bound pair + pref/(2 pi) (segment - i leg).
# ----------------------------------------------------------------------

def _splus(k: np.ndarray, rp: ReducedParams) -> np.ndarray:
    """S+ on contour points, none of which is real and left of -k0: the
    kernel itself, without splus_array's check for that cut."""
    return _backend.splus(k, rp.a, rp.k0, rp.K)


def _free_segment(t: np.ndarray, rp: ReducedParams):
    """Upper cut, both sides: x = k0 - t^2 over t in (0, sqrt(k0))."""
    g = np.sqrt(2.0 * rp.k0 - t * t)
    x = rp.k0 - t * t
    q = t * g
    # K^2 - x^2 = a^2 + q^2, free of cancellation as a -> 0
    amp = 2.0 * g / (_splus(x, rp) * (rp.a * rp.a + q * q))
    return -1j * x, q, amp, None


def _free_leg(t: np.ndarray, rp: ReducedParams):
    """Positive imaginary axis k = i t, decaying like e^{-t|R|}."""
    k = 1j * t
    v = np.sqrt(rp.k0 * rp.k0 + t * t)
    amp = (rp.k0 + k) / v / ((t * t + rp.K * rp.K) * _splus(k, rp))
    return t, v, amp, None


def _atom_segment(t: np.ndarray, rp: ReducedParams):
    """Lower cut: x = -k0 + t^2 over t in (0, sqrt(k0))."""
    a = rp.a
    g = np.sqrt(2.0 * rp.k0 - t * t)
    x = -rp.k0 + t * t
    q = t * g
    amp = -(2.0 * t * t / g) / (_splus(x, rp) * (a * a + q * q))
    return -1j * x, q, amp, (a + 1j * q) / (a - 1j * q)


def _atom_leg(t: np.ndarray, rp: ReducedParams):
    """Negative imaginary axis k = -i t, decaying like e^{-tR}."""
    a = rp.a
    k = -1j * t
    v = np.sqrt(rp.k0 * rp.k0 + t * t)
    amp = -(rp.k0 + k) / v / ((t * t + rp.K * rp.K) * _splus(k, rp))
    return -t, v, amp, (a + 1j * v) / (a - 1j * v)


def _transverse(q: np.ndarray, ay: float, jump, single: bool = False):
    """y dependence of a piece: 2 cos(|y| q) for both sides of the upper
    cut, e^{-i|y|q} for the one-sided APPROX_31 segment, and
    jump e^{-i|y|q} - e^{i|y|q} across the lower cut."""
    if jump is not None:
        e = np.exp(-1j * ay * q)   # |y| q is real on every piece
        return jump * e - e.conj()
    if single:
        return np.exp(-1j * ay * q)
    return 2.0 * np.cos(ay * q)


def _bound_pair(R: float, y: float, rp: ReducedParams, sK: complex) -> complex:
    """Incident plus reflected bound pair for R > 0, sK = S+(K)."""
    a, k0, K = rp.a, rp.k0, rp.K
    ay = abs(y)
    return (cmath.exp(-1j * K * R - a * ay)
            + 2.0 * (a * a / (K + k0) ** 2) * sK * sK
            * cmath.exp(1j * K * R - a * ay))


def _piece_integral(piece, R: float, y: float, rp: ReducedParams, tol: float,
                    single: bool = False):
    ay = abs(y)

    def f(t: np.ndarray) -> np.ndarray:
        z, q, amp, jump = piece(t, rp)
        return amp * np.exp(z * R) * _transverse(q, ay, jump, single)

    if piece in (_free_leg, _atom_leg):
        # four times the wavelength 2 pi/|y| of cos(|y| q): one wavelength
        # per initial panel
        spec = QuadratureSpec(Kind.DECAYING_RAY, (0.0, abs(R)), tol=tol,
                              oscillation_hint=8.0 * PI / max(ay, 0.5))
    else:
        spec = QuadratureSpec(Kind.FINITE, (0.0, math.sqrt(rp.k0)), tol=tol,
                              oscillation_hint=_hint_t(rp, R, y))
    return integrate(f, spec)


def _contour(R: float, y: float, rp: ReducedParams, tol: float,
             method: Method) -> WaveSample:
    """pref/(2 pi) (segment - i leg) by adaptive quadrature of each piece.

    REGIONAL_WITH_VERTICAL_LEG adds the leg; REGIONAL reports its
    magnitude inside err_est instead, and converged then also requires
    err_est <= tol; APPROX_31 is the one-sided segment alone."""
    _check_inputs(R, y, tol)
    segment, leg = ((_free_segment, _free_leg) if R < 0
                    else (_atom_segment, _atom_leg))
    pref = _pref(rp)
    scale = max(abs(pref) / (2.0 * PI), 1e-30)
    seg = _piece_integral(segment, R, y, rp, tol / scale,
                          method is Method.APPROX_31)
    psi = pref / (2.0 * PI) * seg.value
    err, ok = scale * seg.err_est, seg.converged
    if method is Method.REGIONAL_WITH_VERTICAL_LEG:
        res = _piece_integral(leg, R, y, rp, tol / scale)
        psi += -1j * pref / (2.0 * PI) * res.value
        err += scale * res.err_est
        ok = ok and res.converged
    elif method is Method.REGIONAL:
        # neglected evanescent piece, reported but not added
        res = _piece_integral(leg, R, y, rp, max(100 * tol, 1e-6) / scale)
        err += scale * abs(res.value)
        ok = ok and err <= tol
    return WaveSample(R, y, psi, err, method, ok)


def psi_free(R: float, y: float, rp: ReducedParams, tol: float = 1e-8,
             include_vertical_leg: bool = True) -> WaveSample:
    """Wave function in the interaction-free region R < 0.

    Exact wrap of the upper branch-cut contour: the (0, k0) segment with
    both cut sides (cosine form) plus, optionally, the leg along the
    positive imaginary axis whose contribution decays like e^{-t|R|}.
    With include_vertical_leg=False the leg magnitude (the evanescent
    correction) is estimated and reported inside err_est, and the sample
    counts as converged only if that err_est is within tol.
    """
    if R >= 0.0:
        raise ValueError("psi_free requires R < 0")
    return _contour(R, y, rp, tol, Method.REGIONAL_WITH_VERTICAL_LEG
                    if include_vertical_leg else Method.REGIONAL)


def psi_approx31(R: float, y: float, rp: ReducedParams,
                 tol: float = 1e-8) -> WaveSample:
    """Single-exponential small-|y| approximation for R < 0 (one cut side,
    no leg).  Kept as its own method; differs from the exact wrap at O(1)."""
    if R >= 0.0:
        raise ValueError("psi_approx31 requires R < 0")
    return _contour(R, y, rp, tol, Method.APPROX_31)


def phi_integral(R: float, y: float, rp: ReducedParams,
                 tol: float = 1e-8) -> complex:
    """Ionized-field contour integral Phi(R, y) for R > 0.

    The lower wrap crosses the cut, where the continued plus factor jumps
    by -(a - i q)/(a + i q)."""
    if R <= 0.0:
        raise ValueError("phi_integral requires R > 0")
    return -_contour(R, y, rp, tol, Method.REGIONAL_WITH_VERTICAL_LEG).psi


def psi_atom(R: float, y: float, rp: ReducedParams,
             tol: float = 1e-8) -> WaveSample:
    """Wave function in the interacting region R > 0: incident bound pair
    + reflected pair - ionized field Phi."""
    if R <= 0.0:
        raise ValueError("psi_atom requires R > 0")
    s = _contour(R, y, rp, tol, Method.REGIONAL_WITH_VERTICAL_LEG)
    return WaveSample(R, y, _bound_pair(R, y, rp, splus_at_K(rp)) + s.psi,
                      s.err_est, s.method, s.converged)


# ----------------------------------------------------------------------
# unified shifted-line route
# ----------------------------------------------------------------------

# Im k0 of the unified ladder, extrapolated to eps -> 0; the residue
# check uses the middle value on a circle of _RESIDUE_POINTS nodes
_EPS_LADDER = (3e-3, 1e-3, 3e-4)
_RESIDUE_POINTS = 256


def _eps_params(rp: ReducedParams, eps: float):
    k0e = complex(rp.k0, eps)
    Ke = cmath.sqrt(k0e * k0e + rp.a * rp.a)
    sKe = (cmath.sqrt((Ke + k0e) / (2.0 * Ke))
           * cmath.exp(-(1.0 / PI) * ti2(1j * rp.a / Ke)))
    alpha = 2j * Ke * sKe / (Ke + k0e)
    return k0e, Ke, alpha


def _line_integrand(k: np.ndarray, R: float, ay: float, rp: ReducedParams,
                    k0e: complex, Ke: complex) -> np.ndarray:
    """(k + k0)/w e^{-ikR-|y|w} / ((k^2 - K^2) S+(k)) at the eps-shifted
    k0e, Ke, with w = sqrt(k^2 - k0e^2) on principal roots."""
    w = np.sqrt(k * k - k0e * k0e)
    sp = _backend.splus(np.ascontiguousarray(k, dtype=np.complex128),
                        rp.a, k0e, Ke)
    return (k + k0e) / w * np.exp(-1j * k * R - ay * w) / (
        (k * k - Ke * Ke) * sp)


def unified_residue_check(rp: ReducedParams) -> float:
    """|incident coefficient - 1| for the frozen alpha convention.

    The residue of the line integrand at k = +K (picked up when the
    contour closes for R > 0) is extracted numerically on a small circle
    around K and must reproduce the unit-amplitude incident pair."""
    _require_k0(rp, "unified_residue_check")
    k0e, Ke, alpha = _eps_params(rp, _EPS_LADDER[1])
    r = 0.2 * min(abs(Ke - k0e), abs(Ke))
    th = (np.arange(_RESIDUE_POINTS) + 0.5) * (2.0 * PI / _RESIDUE_POINTS)
    # at R = 0, y = 0: the e^{-ikR-|y|w} factor at k = K is supplied
    # analytically (the e^{-iKR-a|y|} coefficient)
    f = _line_integrand(Ke + r * np.exp(1j * th), 0.0, 0.0, rp, k0e, Ke)
    res = np.mean(f * r * np.exp(1j * th))  # (1/2pi i) contour integral
    coeff = -1j * rp.a * alpha * res
    return abs(coeff - 1.0)


def psi_unified(R: float, y: float, rp: ReducedParams, eps: float = 1e-3,
                tol: float = 1e-7) -> WaveSample:
    """Single shifted-line integral along Im k = c, Im K < c < Im k0 = eps.

    Works in both regions (R != 0).  The value carries an O(eps) bias;
    psi_unified_extrapolated removes it.  eps below ~2e-5 K is rejected:
    the line-to-pole distance shrinks like 0.05 eps and the quadrature
    can no longer resolve the pole spike.

    The line (-X, X) is cut into about two dozen intervals, graded
    towards -+Re K and -+k0.  They go to one multi-piece ``integrate``
    call, which refines each interval to its own share of tol but
    evaluates the integrand (and so S+) once per refinement round for
    the whole line; the two truncation-end values f(+-X) take one more
    integrand call.
    """
    if R == 0.0:
        raise ValueError("the two contour closures degenerate at R = 0")
    _check_inputs(R, y, tol)
    _require_k0(rp, "psi_unified")
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    if eps < 2e-5 * max(rp.K, 1.0):
        raise ValueError("eps too small: pole distance below quadrature "
                         "resolution")
    ay = abs(y)
    k0e, Ke, alpha = _eps_params(rp, eps)
    c = 0.5 * (eps + Ke.imag)

    def f(x: np.ndarray) -> np.ndarray:
        return _line_integrand(x + 1j * c, R, ay, rp, k0e, Ke)

    aR = abs(R)
    X = max(50.0, rp.K + 10.0, (1.0 / (tol * max(aR, 0.3) ** 2)) ** (1.0 / 3.0))
    if ay > 0:
        X = min(X, max(rp.K + 10.0, 45.0 / ay + rp.K))
    d = max(c - Ke.imag, 1e-9)
    Kr = Ke.real
    cuts = []
    for p in (-Kr, -rp.k0, rp.k0, Kr):
        cuts.extend([p - 30 * d, p - 3 * d, p + 3 * d, p + 30 * d, p - 0.4,
                     p + 0.4])
    edges = sorted({-X, X, *[e for e in cuts if -X < e < X]})
    # four times the wavelength 2 pi/(|R| + |y| + 1) of e^{-ikR-|y|w}: one
    # wavelength per initial panel
    hint = 8.0 * PI / (aR + ay + 1.0)
    res = integrate(f, *[QuadratureSpec(Kind.FINITE, (lo, hi),
                                        tol=tol / (len(edges) - 1),
                                        oscillation_hint=hint,
                                        max_subdivisions=6000)
                         for lo, hi in zip(edges[:-1], edges[1:])])
    total = res.value
    err = res.err_est
    # one-step integration-by-parts truncation correction at both ends
    fX, fmX = f(np.array([X, -X])).tolist()
    total += (fX - fmX) / (1j * R)
    err += (abs(fX) + abs(fmX)) / (R * R * X) * 10.0
    pref = rp.a * alpha / (2.0 * PI)
    return WaveSample(R, y, pref * total, abs(pref) * err,
                      Method.UNIFIED_A7, res.converged)


def psi_unified_extrapolated(R: float, y: float, rp: ReducedParams,
                             tol: float = 1e-7) -> WaveSample:
    """Extrapolation of psi_unified to eps -> 0 over the three values
    e0 > e1 > e2 of _EPS_LADDER.

    The first Neville level takes the linear extrapolants of the pairs
    (e0, e1) and (e1, e2); the second combines them over (e1, e2), where
    a quadratic Richardson step would use (e0, e2).  The value is thus the
    fixed combination (3/14) v0 - (123/98) v1 + (100/49) v2 of the ladder
    samples: it cancels a bias linear in eps, but of a c eps^2 term it
    keeps 8.6e-7 c, more than the 3e-7 c left by the linear extrapolant
    of (e1, e2) alone.  err_est is the sum of the three samples' estimates
    plus a tenth of the step from the smallest-eps sample to the value.
    """
    samples = [psi_unified(R, y, rp, eps=e, tol=tol) for e in _EPS_LADDER]
    es = np.array(_EPS_LADDER, dtype=float)
    vs = np.array([s.psi for s in samples])
    while len(vs) > 1:
        vs = (es[:-1] * vs[1:] - es[1:] * vs[:-1]) / (es[:-1] - es[1:])
        es = es[1:]
    err = sum(s.err_est for s in samples) + abs(vs[0] - samples[-1].psi) * 0.1
    return WaveSample(R, y, complex(vs[0]), err, Method.UNIFIED_A7,
                      all(s.converged for s in samples))


# ----------------------------------------------------------------------
# asymptotics
# ----------------------------------------------------------------------

def asymptotic_phases(rp: ReducedParams, xi: float) -> AsymptoticPhases:
    """Far-field phase constants.

    phi_minus = (2/pi) Im Ti2((k0 + i a)/K);
    phi_plus  = Li2(a^2/K^2)/2 - 2 Li2(a/K)
                - Im Ti2((k0 xi + i a)/(K - k0 + k0 xi^2 / 2)).
    """
    if abs(xi) >= 1.0:
        raise ValueError("xi = y/R must satisfy |xi| < 1")
    _require_k0(rp, "asymptotic_phases")
    a, k0, K = rp.a, rp.k0, rp.K
    pm = (2.0 / PI) * im_ti2(complex(k0, a) / K)
    z = complex(k0 * xi, a) / (K - k0 + 0.5 * k0 * xi * xi)
    # at xi = 0 the argument sits on the arctangent-integral cut; take the
    # side continuous from xi > 0
    side = 1 if z.real == 0.0 else None
    pp = (0.5 * dilog(a * a / (K * K)).real - 2.0 * dilog(a / K).real
          - im_ti2(z, side=side))
    return AsymptoticPhases(phi_minus=pm, phi_plus=pp, xi=xi)


def far_field(R: float, y: float, rp: ReducedParams) -> complex:
    """Smooth far-field law for R -> -inf, |y| << |R|:

        psi ~ a e^{-i (k0 |y| + phi_minus)} / (i pi K^2 R sqrt(2 k0 (K+k0)))

    The modulus is y-independent while the phase advances by k0 per unit
    |y| (the entanglement signature).  This is the k ~ 0 component of the
    segment integral; the exact field also carries a branch-point term
    ~|R|^(-1/2) not described by this law, so no error bound is returned.
    """
    if R >= 0.0:
        raise ValueError("far_field requires R < 0")
    _require_k0(rp, "far_field")
    a, k0, K = rp.a, rp.k0, rp.K
    pm = (2.0 / PI) * im_ti2(complex(k0, a) / K)
    amp = a / (1j * PI * K * K * R * math.sqrt(2.0 * k0 * (K + k0)))
    return amp * cmath.exp(-1j * (k0 * abs(y) + pm))


def steepest_descent(R: float, y: float, rp: ReducedParams) -> complex:
    """Steepest-descent form of the ionized field for R > 0, k0 R >> 1:

        Phi ~ i^(3/2) k0 a / (4 sqrt(pi) sqrt(k0 R)) * xi^2/(a^2+K^2 xi^2)
              * sqrt((k0/K)(K+k0)/(K + k0 xi^2/2))
              * exp[i(k0 R (1 - xi^2/2) + (2/pi) phi_plus)]

    with xi = y/R, |xi| < 1.
    """
    if R <= 0.0:
        raise ValueError("steepest_descent requires R > 0")
    _require_k0(rp, "steepest_descent")
    xi = y / R
    if xi == 0.0:
        return 0j  # forward direction carries no ionized flux here
    ph = asymptotic_phases(rp, xi)
    a, k0, K = rp.a, rp.k0, rp.K
    amp = (cmath.exp(0.75j * PI) * k0 * a / (4.0 * math.sqrt(PI * k0 * R))
           * xi * xi / (a * a + K * K * xi * xi)
           * math.sqrt((k0 / K) * (K + k0) / (K + 0.5 * k0 * xi * xi)))
    return amp * cmath.exp(1j * (k0 * R * (1.0 - 0.5 * xi * xi)
                                 + (2.0 / PI) * ph.phi_plus))


def psi_tail_saddle(R: float, y: float, rp: ReducedParams) -> complex:
    """Stationary-phase form of the exact field for |y| >> 1 (either
    region): an outgoing circular wave e^{i k0 sqrt(R^2+y^2)} of amplitude
    ~ y^(-1/2), evaluated at the interior saddle x* = -k0 R/sqrt(R^2+y^2).

    Used for the displacement diagnostic beyond the exact-quadrature
    window; accuracy a few percent once the saddle width clears the
    segment ends."""
    k0 = rp.k0
    ay = abs(y)
    if ay == 0.0:
        raise ValueError("saddle form needs |y| > 0")
    _require_k0(rp, "psi_tail_saddle")
    rho = math.hypot(R, y)
    # the free segment's node of x* = k0 - t^2; its amplitude carries the
    # Jacobian dx/dt = -2t
    ts = math.sqrt(k0 * (1.0 + R / rho))
    amp = complex(_free_segment(np.array([ts]), rp)[2][0]) / (2.0 * ts)
    qs = k0 * ay / rho
    return (_pref(rp) / (2.0 * PI) * amp
            * math.sqrt(2.0 * PI * qs ** 3 / (ay * k0 * k0))
            * cmath.exp(1j * (k0 * rho - 0.25 * PI)))


# ----------------------------------------------------------------------
# grid evaluation (shared fixed panels, vectorized across samples)
# ----------------------------------------------------------------------

# elements per temporary in a block of _panel_sums: bounds peak memory
# independently of the grid size
_GRID_BLOCK = 8192


def _fixed_nodes(piece, spec: QuadratureSpec, n_panels: int,
                 rp: ReducedParams):
    """A piece's (z, q, amp, jump) on n_panels equal panels of spec, amp
    times the spec's Jacobian, then its K15 and G7 weights per panel,
    each of shape (n_panels, 15)."""
    edges = _panel_edges(spec, n_panels)
    x, jacs, h = _map_panels(edges[:-1], edges[1:], [(spec, slice(None))])
    z, q, amp, jump = piece(x.ravel(), rp)
    for _, jac in jacs:
        amp = amp * jac.ravel()
    return z, q, amp, jump, h[:, None] * _W15, h[:, None] * _W7


def _panel_sums(z, q, amp, jump, w15, w7, R_vals, ay, single=False):
    """Sum over the fixed panels of one piece for every (R, y) pair.

    Per block of nb panels, E = amp w e^{zR} (nb, nR, 15) and the
    transverse factor T (nb, 15, ny) give the per-panel Kronrod and Gauss
    sums K15, G7 (nb, nR, ny) as batched matrix products, so e^{zR} is
    evaluated once per (R, node) and T once per (y, node); nb keeps each
    of these temporaries near _GRID_BLOCK elements or below.  Returns
    (sum_p K15_p, sum_p |K15_p - G7_p|), each of shape (nR, ny)."""
    nR, ny = len(R_vals), len(ay)
    shape = w15.shape                      # (panels, 15)
    z, q, amp = z.reshape(shape), q.reshape(shape), amp.reshape(shape)
    a15, a7 = amp * w15, amp * w7
    if jump is not None:
        jump = jump.reshape(shape)
    nb = max(1, _GRID_BLOCK // max(15 * nR, 15 * ny, nR * ny))
    Rc = R_vals[None, :, None]
    val = np.zeros((nR, ny), dtype=np.complex128)
    err = np.zeros((nR, ny))
    for p in range(0, shape[0], nb):
        b = slice(p, p + nb)
        ezR = np.exp(z[b, None, :] * Rc)
        T = _transverse(q[b, :, None], ay,
                        None if jump is None else jump[b, :, None], single)
        k15 = (a15[b, None, :] * ezR) @ T
        g7 = (a7[b, None, :] * ezR) @ T
        val += k15.sum(axis=0)
        err += np.abs(k15 - g7).sum(axis=0)
    return val, err


def _scan_region(rp: ReducedParams, R_vals: np.ndarray, y_vals: np.ndarray,
                 method: Method):
    """All-pairs evaluation for one sign of R on shared fixed panels: the
    piece nodes and amplitudes once per grid, then per bounded block of
    panels e^{zR} once per (R, node), the transverse factor once per
    (y, node) and the panel sums as matrix products (_panel_sums); the
    R > 0 bound pair is an (R) x (y) outer product.  APPROX_31 takes the
    one-sided segment alone for R < 0; every other case is the full wrap
    with its leg."""
    k0 = rp.k0
    neg = bool(R_vals[0] < 0)
    segment, leg = ((_free_segment, _free_leg) if neg
                    else (_atom_segment, _atom_leg))
    single = neg and method is Method.APPROX_31
    Rmax = float(np.max(np.abs(R_vals)))
    Rmin = float(np.min(np.abs(R_vals)))
    ay = np.abs(y_vals)
    ymax = float(np.max(ay))
    pref = _pref(rp)

    if k0 > 0.0:
        # quarter-wavelength initial panels for the worst sample of the grid
        n_panels = int(min(6000, max(24, math.ceil(
            math.sqrt(k0) * _phase_rate(rp, Rmax, ymax) * 2.0 / PI))))
        spec = QuadratureSpec(Kind.FINITE, (0.0, math.sqrt(k0)))
        m, em = _panel_sums(*_fixed_nodes(segment, spec, n_panels, rp),
                            R_vals, ay, single)
    else:
        # at k0 = 0 the segment has zero width and its nodes would sit on
        # the merged branch points, where the amplitudes are 0/0.  The
        # free leg then grows like t^-1/2 at the origin (S+(it) ~
        # sqrt(it/K)), so R < 0 rows still miss tol on fixed panels and
        # go to the adaptive route; R > 0 rows stay here.
        m = np.zeros((len(R_vals), len(y_vals)), dtype=np.complex128)
        em = np.zeros(m.shape)
    out = pref / (2 * PI) * m
    sc = abs(pref) / (2 * PI)
    err = sc * em
    if not single:
        # leg nodes on the unit-rate ray; the per-R factor e^{zR}
        # supplies the decay
        phase_ray = ymax * min(30.0 / max(Rmin, 1e-3), 1e4)
        n_ray = int(min(3000, max(24, math.ceil(phase_ray * 2.0 / PI))))
        spec = QuadratureSpec(Kind.DECAYING_RAY, (0.0, 1.0))
        lv, el = _panel_sums(*_fixed_nodes(leg, spec, n_ray, rp), R_vals, ay)
        out += -1j * pref / (2 * PI) * lv
        err += sc * el
    if not neg:
        sK = splus_at_K(rp)
        pair_R = np.array([_bound_pair(R, 0.0, rp, sK) for R in R_vals])
        out += np.multiply.outer(pair_R, np.exp(-rp.a * ay))
    return out, err


def scan_grid(R_values: Iterable[float], y_values: Iterable[float],
              rp: ReducedParams, tol: float = 1e-8,
              method: Method = Method.REGIONAL_WITH_VERTICAL_LEG) -> WaveGrid:
    """Evaluate psi on the product grid R_values x y_values.

    Uses fixed shared quadrature panels with the embedded-pair error
    estimate per sample: the plus-factor values once per grid, e^{zR} once
    per (R, node) and the transverse factor once per (y, node), with the
    panel sums taken as matrix products over blocks of panels whose
    temporaries stay below a fixed size.  Samples whose estimate exceeds
    tol are re-evaluated adaptively; each call that does so logs one INFO
    record counting them.  REGIONAL samples with R < 0 are evaluated
    adaptively from the start: the neglected leg they report in err_est
    exceeds any useful tol, so fixed panels would only be redone.  R = 0
    is excluded, R and y must be finite and tol positive.  Deterministic:
    fixed panel layout, block size and summation order.

    UNIFIED_A7 evaluates every sample with psi_unified_extrapolated.
    """
    R_vals = np.asarray(sorted(set(float(r) for r in R_values)))
    y_vals = np.asarray(sorted(set(float(v) for v in y_values)))
    if len(R_vals) == 0 or len(y_vals) == 0:
        raise ValueError("empty grid")
    _check_inputs(R_vals, y_vals, tol)
    if np.any(R_vals == 0.0):
        raise ValueError("R = 0 is excluded (region boundary)")
    out = np.empty((len(R_vals), len(y_vals)), dtype=np.complex128)
    if method is Method.UNIFIED_A7:
        err = np.empty(out.shape)
        conv = np.empty(out.shape, dtype=bool)
        for i, R in enumerate(R_vals):
            for j, y in enumerate(y_vals):
                s = psi_unified_extrapolated(float(R), float(y), rp, tol=tol)
                out[i, j], err[i, j], conv[i, j] = s.psi, s.err_est, s.converged
        return WaveGrid(R_vals, y_vals, out, method, err, conv)

    err = np.full(out.shape, np.inf)  # rows left at inf go pointwise
    regions = [R_vals > 0]
    if method is not Method.REGIONAL:
        regions.append(R_vals < 0)
    for mask in regions:
        if mask.any():
            out[mask], err[mask] = _scan_region(rp, R_vals[mask], y_vals,
                                                method)
    conv = err <= tol
    # adaptive evaluation of the stragglers and the REGIONAL R < 0 rows
    redo = np.nonzero(~conv)
    if len(redo[0]):
        _log.info("scan_grid: %d of %d samples re-evaluated adaptively "
                  "(method %s, tol %g)", len(redo[0]), out.size,
                  method.value, tol)
    for i, j in zip(*redo):
        R, y = float(R_vals[i]), float(y_vals[j])
        if R > 0:
            s = psi_atom(R, y, rp, tol)
        elif method is Method.APPROX_31:
            s = psi_approx31(R, y, rp, tol)
        else:
            s = psi_free(R, y, rp, tol, include_vertical_leg=method
                         is Method.REGIONAL_WITH_VERTICAL_LEG)
        out[i, j] = s.psi
        err[i, j] = s.err_est
        conv[i, j] = s.converged and s.err_est <= tol
    return WaveGrid(R_vals, y_vals, out, method, err, conv)


# ----------------------------------------------------------------------
# diagnostics
# ----------------------------------------------------------------------

def expected_displacement(R: float, rp: ReducedParams,
                          y_cutoffs: Sequence[float],
                          tol: float = 1e-6,
                          return_components: bool = False):
    """Relative-displacement expectation with explicit cutoffs:

        Y_L = int_-L^L |y| |psi|^2 dy / int_-L^L |psi|^2 dy.

    Returns [(L, Y_L), ...] so (non-)convergence in L is observable; no
    claim of a finite limit is made for R < 0, where the numerator grows
    essentially linearly in L.  |psi|^2 is sampled exactly (shared-panel
    scan) up to y ~ 60 and via the stationary-phase tail beyond.  With
    return_components=True each entry is (L, Y_L, numerator, denominator).
    """
    if R == 0.0:
        raise ValueError("R = 0 excluded")
    cutoffs = list(y_cutoffs)
    if any(c2 <= c1 for c1, c2 in zip(cutoffs, cutoffs[1:])):
        raise ValueError("cutoffs must be increasing")
    y_sw = min(60.0, cutoffs[-1])
    # exact part on [0, y_sw]: Simpson on a fixed oscillation-resolving grid
    n = int(max(64, math.ceil(y_sw * rp.k0 * 8 / PI)))
    n += n % 2
    ys = np.linspace(0.0, y_sw, n + 1)
    grid = scan_grid([R], ys, rp, tol=tol)
    a2 = np.abs(grid.samples[0]) ** 2
    h = ys[1] - ys[0]

    def simpson_upto(vals, cutoff):
        m = ys <= cutoff + 1e-12
        nn = m.sum() - 1
        if nn < 2:
            return 0.0
        nn -= nn % 2
        ww = np.ones(nn + 1)
        ww[1:-1:2] = 4.0
        ww[2:-1:2] = 2.0
        return float(np.dot(ww, vals[:nn + 1]) * h / 3.0)

    results = []
    for L in cutoffs:
        lo = min(L, y_sw)
        num = simpson_upto(ys * a2, lo)
        den = simpson_upto(a2, lo)
        if L > y_sw:
            # tail: smooth ~c/y modulus-squared of the saddle wave
            yt = np.geomspace(y_sw, L, 400)
            at = np.array([abs(psi_tail_saddle(R, float(v), rp)) ** 2
                           for v in yt])
            num += float(np.trapezoid(yt * at, yt))
            den += float(np.trapezoid(at, yt))
        Y = 2.0 * num / max(2.0 * den, 1e-300)
        if return_components:
            results.append((float(L), Y, 2.0 * num, 2.0 * den))
        else:
            results.append((float(L), Y))
    return results


def tail_exponent(R: float, rp: ReducedParams,
                  y_range: tuple[float, float]) -> tuple[float, float]:
    """Least-squares slope of log |psi(R, y)|^2 versus log y over envelope
    maxima in y_range (R < 0), sampled at 400 geometric y.  Returns
    (slope, stderr).

    Uses the segment-approximation field (APPROX_31), whose |psi|^2
    oscillates in y (the exact wrap is saddle-dominated and smooth at
    large y, with no envelope maxima to extract).  Requires at least 8
    local maxima.
    """
    if R >= 0.0:
        raise ValueError("tail diagnostic defined for R < 0")
    y1, y2 = y_range
    if not 0 < y1 < y2:
        raise ValueError("invalid y_range")
    ys = np.geomspace(y1, y2, 400)
    grid = scan_grid([R], ys, rp, tol=1e-6, method=Method.APPROX_31)
    a2 = np.abs(grid.samples[0]) ** 2
    idx = [i for i in range(1, len(a2) - 1)
           if a2[i] >= a2[i - 1] and a2[i] > a2[i + 1]]
    if len(idx) < 8:
        raise ValueError(f"only {len(idx)} envelope maxima in range")
    lx = np.log(ys[idx])
    ly = np.log(a2[idx])
    A = np.vstack([lx, np.ones_like(lx)]).T
    coef, res, *_ = np.linalg.lstsq(A, ly, rcond=None)
    dof = max(len(idx) - 2, 1)
    s2 = (res[0] / dof) if len(res) else 0.0
    cov = s2 * np.linalg.inv(A.T @ A)
    return float(coef[0]), float(math.sqrt(max(cov[0, 0], 0.0)))
