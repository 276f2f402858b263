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

import bisect
import cmath
import functools
import logging
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import _backend
from .model import ReducedParams
from .quadrature import (_ROUNDOFF, _W7, _W15, Kind, QuadratureSpec,
                         _map_panels, _panel_edges, integrate)
from .specfun import dilog, im_ti2, ti2
from .wiener_hopf import splus_array, splus_at_K

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


def _check_finite(R, y) -> None:
    """R and y, scalars or arrays, must be finite."""
    if not (np.isfinite(R).all() and np.isfinite(y).all()):
        raise ValueError("R and y must be finite")


def _check_inputs(R, y, tol: float) -> None:
    """R and y must be finite and tol positive; NaN fails both checks."""
    _check_finite(R, y)
    if not tol > 0.0:
        raise ValueError("tol must be positive")


def _require_k0(rp: ReducedParams, route: str) -> None:
    """The saddle and the far-field laws, like the unified line
    (_LineState), need an open branch-cut gap: at k0 = 0 their closed
    forms divide by k0 or put Ti2 on its cut."""
    if not rp.k0 > 0.0:
        raise ValueError(f"{route} requires k0 > 0")


def _pref(rp: ReducedParams) -> complex:
    return 2.0 * rp.a * rp.K * splus_at_K(rp) / (rp.K + rp.k0)


def _phase_rate(rp: ReducedParams, R: float, y: float) -> float:
    """Bound on |d phase/dt| of the segment phase -xR - |y| q in
    t = sqrt(k0 - x)."""
    return 2.0 * math.sqrt(rp.k0) * abs(R) + 2.0 * math.sqrt(2 * rp.k0) * abs(y)


def _wavelength_t(rp: ReducedParams, R: float, y: float) -> float:
    """The segment's shortest wavelength 2 pi / _phase_rate in t, its
    panel_width."""
    return 2.0 * PI / max(_phase_rate(rp, R, y), 2.0)


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

def _free_segment(t: np.ndarray, rp: ReducedParams):
    """Upper cut, both sides: x = k0 - t^2 over t in (0, sqrt(k0))."""
    g = np.sqrt(2.0 * rp.k0 - t * t)
    x = rp.k0 - t * t
    q = t * g
    # K^2 - x^2 = a^2 + q^2, free of cancellation as a -> 0
    amp = 2.0 * g / (splus_array(x, rp) * (rp.a * rp.a + q * q))
    return -1j * x, q, amp, None


def _free_leg(t: np.ndarray, rp: ReducedParams):
    """Positive imaginary axis k = i t, decaying like e^{-t|R|}."""
    k = 1j * t
    v = np.sqrt(rp.k0 * rp.k0 + t * t)
    amp = (rp.k0 + k) / v / ((t * t + rp.K * rp.K) * splus_array(k, rp))
    return t, v, amp, None


def _atom_segment(t: np.ndarray, rp: ReducedParams):
    """Lower cut: x = -k0 + t^2 over t in (0, sqrt(k0))."""
    a = rp.a
    g = np.sqrt(2.0 * rp.k0 - t * t)
    x = -rp.k0 + t * t
    q = t * g
    amp = -(2.0 * t * t / g) / (splus_array(x, rp) * (a * a + q * q))
    return -1j * x, q, amp, (a + 1j * q) / (a - 1j * q)


def _atom_leg(t: np.ndarray, rp: ReducedParams):
    """Negative imaginary axis k = -i t, decaying like e^{-tR}."""
    a = rp.a
    k = -1j * t
    v = np.sqrt(rp.k0 * rp.k0 + t * t)
    amp = -(rp.k0 + k) / v / ((t * t + rp.K * rp.K) * splus_array(k, rp))
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
        # one initial panel per wavelength 2 pi/|y| of cos(|y| q), on
        # average over the ray, and at least 8 (_panel_edges)
        spec = QuadratureSpec(Kind.DECAYING_RAY, (0.0, abs(R)), tol=tol,
                              panel_width=2.0 * PI / max(ay, 0.5))
    else:
        spec = QuadratureSpec(Kind.FINITE, (0.0, math.sqrt(rp.k0)), tol=tol,
                              panel_width=_wavelength_t(rp, R, y))
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

# The S+ memo of a line state keeps at most _MEMO_NODES nodes and stops
# filing when full; _line_state keeps at most _MEMO_LINES states, the
# least recently used dropped whole.  Worst case
# 9 * 16384 * (8 + 16) bytes = 3,538,944 bytes (3.4 MiB).
_MEMO_NODES = 16384
_MEMO_LINES = 9

# a line state keeps the interior pieces of at most _LAYOUTS layouts
# (_LineState.interior), the oldest dropped first: a request's panel width
# is one of the few powers of two up to 4 that its |R| + |y| gives
_LAYOUTS = 8

# the largest c max(|R|, |y|) a unified line serves (_line)
_REACH = 0.1


class _LineState:
    """What a unified line takes from (a, k0, eps) alone: a, k0e = k0 + i
    eps, Ke = sqrt(k0e^2 + a^2), their Python squares (see
    _line_integrand), alpha = 2i Ke S+(Ke)/(Ke + k0e), the height c, the
    fixed cuts, sorted, and the S+ memo.

    The cuts are graded towards -+Re K and -+k0 and end at -+E, E the
    least multiple of 4 beyond the graded ones.  A request's line (_line)
    runs to the truncation ends -+X.  Its initial panels are one
    wavelength 2 pi/(|R| + |y| + 1) of e^{-ikR-|y|w} wide, rounded down
    to a power of two (at most 4), and X is rounded up to a multiple of
    that width.  The tails (-X, -E) and (E, X) then split into panels of
    exactly that width, with edges on the grid of its multiples, and so
    does every bisection of them.  So every node of a request, tails and
    truncation ends included, has the same Re k in every later request
    whose panels have the same width, whatever X is.

    The pieces between consecutive cuts are the same in every request
    with the same tol and panel width whose X lies beyond the same cuts,
    so interior() builds them once per such layout.

    The memo holds Re k, sorted ascending (held), and S+ (vals) at nodes
    of the line.  splus reads the held nodes and evaluates S+ at the
    others; file stores those once the request is done, as no request
    meets one node twice.  A point's S+ has the same bits in any array
    (_purepy.splus), so the memo changes no value.

    The line must pass strictly between the pole Ke and the branch point
    k0e, Im Ke < c < eps; at a = 0, where Ke = k0e, or at a so small that
    either rounds onto the other, ValueError is raised, as for k0 <= 0 or
    eps <= 0."""

    def __init__(self, a: float, k0: float, eps: float):
        if not k0 > 0.0:
            raise ValueError("the unified line requires k0 > 0")
        if not eps > 0.0:
            raise ValueError("eps must be positive")
        k0e = complex(k0, eps)
        Ke = cmath.sqrt(k0e * k0e + a * a)
        c = 0.5 * (eps + Ke.imag)
        if not Ke.imag < c < eps:
            raise ValueError(f"the unified line at (a, k0, eps) = ({a}, {k0}, "
                             f"{eps}) cannot separate the pole K from k0: "
                             "a is too small")
        sKe = (cmath.sqrt((Ke + k0e) / (2.0 * Ke))
               * cmath.exp(-(1.0 / PI) * ti2(1j * a / Ke)))
        self.a, self.k0e, self.Ke = a, k0e, Ke
        self.k0e2, self.Ke2 = k0e * k0e, Ke * Ke
        self.alpha = 2j * Ke * sKe / (Ke + k0e)
        self.c = c
        # graded towards -+Re K and -+k0
        d = max(c - Ke.imag, 1e-9)
        cuts = []
        for p in (-Ke.real, -k0, k0, Ke.real):
            cuts.extend([p - 30 * d, p - 3 * d, p + 3 * d, p + 30 * d,
                         p - 0.4, p + 0.4])
        # the tails start at -+E, E the least multiple of 4 beyond the
        # graded cuts: 4 is the widest power-of-two panel width (_line),
        # so -+E lies on the grid of every width
        E = 4.0 * (math.floor(max(map(abs, cuts)) / 4.0) + 1.0)
        self.cuts = tuple(sorted(set(cuts + [-E, E])))
        self.layouts = {}
        self.held, self.vals = np.empty(0), np.empty(0, np.complex128)

    def piece(self, lo: float, hi: float, tol: float,
              width: float) -> QuadratureSpec:
        """The line's piece (lo, hi) + ic on panels of the given width."""
        return QuadratureSpec(Kind.FINITE,
                              (complex(lo, self.c), complex(hi, self.c)),
                              tol=tol, panel_width=width,
                              max_subdivisions=6000)

    def interior(self, lo: int, hi: int, tol: float,
                 width: float) -> tuple:
        """The pieces between consecutive cuts of cuts[lo:hi], each with
        tol and the panel width; the last _LAYOUTS built are kept."""
        key = (lo, hi, tol, width)
        specs = self.layouts.get(key)
        if specs is None:
            if len(self.layouts) >= _LAYOUTS:
                del self.layouts[next(iter(self.layouts))]
            cuts = self.cuts[lo:hi]
            specs = self.layouts[key] = tuple(
                self.piece(a, b, tol, width)
                for a, b in zip(cuts[:-1], cuts[1:]))
        return specs

    def splus(self, k: np.ndarray, found: list) -> np.ndarray:
        """S+ at the points k of the line: the memo's values where it
        holds Re k, and one _backend.splus call at the others, whose
        (Re k, S+) are appended to found."""
        x = k.real
        held = self.held
        if held.size:
            pos = np.minimum(np.searchsorted(held, x), held.size - 1)
            sp = self.vals[pos]  # the misses are overwritten below
            miss = np.flatnonzero(held[pos] != x)
        else:
            sp = np.empty(k.shape, np.complex128)
            miss = np.arange(k.size)
        if miss.size:
            sp[miss] = spm = _backend.splus(k[miss], self.a, self.k0e, self.Ke)
            found.append((x[miss], spm))
        return sp

    def file(self, found: list) -> None:
        """Files the (Re k, S+) pairs of found, none of them held, as many
        as the line has room for."""
        if not found or self.held.size >= _MEMO_NODES:
            return
        x = np.concatenate([self.held, *(x for x, _ in found)])[:_MEMO_NODES]
        sp = np.concatenate([self.vals, *(sp for _, sp in found)])[:x.size]
        # the held keys are one sorted run for the stable sort (a timsort)
        order = np.argsort(x, kind="stable")
        self.held, self.vals = x[order], sp[order]


# The line state at (a, k0, eps).  Every request of a ladder asks for the
# same three eps at one (a, k0), S+(Ke) costs a Ti2, and the memo is what
# later requests reuse.  A test that patches the S+ or dilog kernels
# empties the cache with _line_state.cache_clear().
_line_state = functools.lru_cache(maxsize=_MEMO_LINES)(_LineState)


def _line_integrand(k: np.ndarray, R: float, ay: float, st: _LineState,
                    sp: np.ndarray) -> np.ndarray:
    """(k + k0)/w e^{-ikR-|y|w} / ((k^2 - K^2) S+(k)) at the line state's
    k0e, Ke, with w = sqrt(k^2 - k0e^2) on principal roots and sp =
    S+(k) at k0e, Ke.  The squares k0e2, Ke2 are Python's, formed once
    per line, because NumPy's complex multiply can differ from Python's
    in the last bit."""
    w = np.sqrt(k * k - st.k0e2)
    return (k + st.k0e) / w * np.exp(-1j * k * R - ay * w) / (
        (k * k - st.Ke2) * sp)


def unified_residue_check(rp: ReducedParams) -> float:
    """|incident coefficient - 1| for the frozen alpha convention.

    The residue of the line integrand at k = +K (picked up when the
    contour closes for R > 0) is extracted numerically on a small circle
    around K and must reproduce the unit-amplitude incident pair."""
    st = _line_state(rp.a, rp.k0, _EPS_LADDER[1])
    r = 0.2 * min(abs(st.Ke - st.k0e), abs(st.Ke))
    th = (np.arange(_RESIDUE_POINTS) + 0.5) * (2.0 * PI / _RESIDUE_POINTS)
    # at R = 0, y = 0: the e^{-ikR-|y|w} factor at k = K is supplied
    # analytically (the e^{-iKR-a|y|} coefficient)
    k = st.Ke + r * np.exp(1j * th)
    f = _line_integrand(k, 0.0, 0.0, st,
                        _backend.splus(k, rp.a, st.k0e, st.Ke))
    res = np.mean(f * r * np.exp(1j * th))  # (1/2pi i) contour integral
    coeff = -1j * rp.a * st.alpha * res
    return abs(coeff - 1.0)


class _Line(NamedTuple):
    """One request's line at one eps: its pieces on Im k = c, the
    truncation half-length X and the line state."""
    specs: tuple
    X: float
    state: _LineState


def _line(R: float, y: float, rp: ReducedParams, eps: float,
          tol: float) -> _Line:
    """Checks psi_unified's inputs and lays out its line at eps.

    The line (-X, X) + ic is cut at the line state's fixed cuts inside
    (-X, X) into about two dozen intervals, each with its share of tol,
    on initial panels of a power-of-two width with X a multiple of it
    (_LineState tells why).

    The line's bias grows like c |R| through e^{-ikR} and like c |y|
    through e^{-|y|w}; it outgrows any err_est far out, and e^{c|R|}
    overflows beyond |R| ~ 709/c.  So c max(|R|, |y|) > 0.1 raises
    ValueError naming the coordinate: |R| or |y| > 35.19 on the ladder's
    eps = 3e-3 line at (a, k0) = (1, 2), > 105.6 at eps = 1e-3."""
    if R == 0.0:
        raise ValueError("the two contour closures degenerate at R = 0")
    _check_inputs(R, y, tol)
    st = _line_state(rp.a, rp.k0, eps)
    # a bound of the line's quadrature: the residue check, which reads
    # the state too, integrates on a circle and needs none
    if eps < 2e-5 * max(rp.K, 1.0):
        raise ValueError("eps too small: pole distance below quadrature "
                         "resolution")
    ay = abs(y)
    aR = abs(R)
    if st.c * max(aR, ay) > _REACH:
        name, v = ("|y|", ay) if ay > aR else ("|R|", aR)
        raise ValueError(f"{name} = {v:g} is beyond the unified line's reach "
                         f"{_REACH / st.c:.4g} at (a, k0, eps) = ({rp.a}, "
                         f"{rp.k0}, {eps}): its O(c {name}) bias would "
                         "exceed err_est")
    X = max(50.0, rp.K + 10.0, (1.0 / (tol * max(aR, 0.3) ** 2)) ** (1.0 / 3.0))
    if ay > 0:
        X = min(X, max(rp.K + 10.0, 45.0 / ay + rp.K))
    # 2**floor(log2(wavelength)), exactly
    width = math.ldexp(1.0, math.frexp(2.0 * PI / (aR + ay + 1.0))[1] - 1)
    X = width * math.ceil(X / width)
    # cuts[lo:hi] lie inside (-X, X), never none of them: X >= K + 10
    # > k0 + 0.4.  The tails run from -+X to the outermost of them.
    cuts = st.cuts
    lo, hi = bisect.bisect_right(cuts, -X), bisect.bisect_left(cuts, X)
    tol = tol / (hi - lo + 1)  # each piece's share
    specs = (st.piece(-X, cuts[lo], tol, width),
             *st.interior(lo, hi, tol, width),
             st.piece(cuts[hi - 1], X, tol, width))
    return _Line(specs, X, st)


def _unified_samples(R: float, y: float, rp: ReducedParams,
                     eps_values: Sequence[float], tol: float) -> list:
    """psi_unified at each eps, all lines in one integrate call.

    Each round of refinement evaluates the integrand once for every line.
    The integrand takes each line's points by Im k = c and their S+ from
    the line's state (_LineState.splus, which reads the S+ memo); the
    misses of each line are filed once the lines are done, truncation
    ends included.  Each line's value, err_est and converged flag are
    summed from its pieces' results in spec order from 0j and 0.0, as
    integrate sums them, so every sample is the same, bit for bit, as
    from a call of its line alone.  The two truncation-end values f(+-X)
    of every line take one more integrand call."""
    lines = [_line(R, y, rp, eps, tol) for eps in eps_values]
    ay = abs(y)
    found = [[] for _ in lines]  # per line, the S+ misses to file

    def f(k: np.ndarray) -> np.ndarray:
        out = np.empty(k.shape, np.complex128)
        for ln, miss in zip(lines, found):
            on = k.imag == ln.state.c
            kl = k[on]
            out[on] = _line_integrand(kl, R, ay, ln.state,
                                      ln.state.splus(kl, miss))
        return out

    res = integrate(f, *(spec for ln in lines for spec in ln.specs))
    ends = f(np.array([complex(side * ln.X, ln.state.c) for ln in lines
                       for side in (1.0, -1.0)])).tolist()
    for ln, miss in zip(lines, found):
        ln.state.file(miss)
    samples = []
    first = 0
    for j, ln in enumerate(lines):
        pieces = res.pieces[first:first + len(ln.specs)]
        first += len(ln.specs)
        total, err = 0j, 0.0
        for piece in pieces:
            total += piece.value
            err += piece.err_est
        # one-step integration-by-parts truncation correction at both ends
        fX, fmX = ends[2 * j:2 * j + 2]
        total += (fX - fmX) / (1j * R)
        err += (abs(fX) + abs(fmX)) / (R * R * ln.X) * 10.0
        pref = rp.a * ln.state.alpha / (2.0 * PI)
        samples.append(WaveSample(R, y, pref * total, abs(pref) * err,
                                  Method.UNIFIED_A7,
                                  all(piece.converged for piece in pieces)))
    return samples


def psi_unified(R: float, y: float, rp: ReducedParams, eps: float = 1e-3,
                tol: float = 1e-7) -> WaveSample:
    """Single shifted-line integral along Im k = c, Im K < c < Im k0 = eps.

    Works in both regions (R != 0).  The value carries an O(eps) bias;
    psi_unified_extrapolated removes it.  eps below ~2e-5 K is rejected:
    the line-to-pole distance shrinks like 0.05 eps and the quadrature
    can no longer resolve the pole spike.

    The line (-X, X) + ic is cut into about two dozen intervals (_line),
    which go to one multi-piece ``integrate`` call as horizontal pieces:
    each is refined to its own share of tol, but the integrand is
    evaluated once per refinement round for the whole line, and the two
    truncation-end values f(+-X) take one more call.  S+ comes from the
    cached state of the line at (a, k0, eps), whose memo covers the
    whole line (_LineState, _line_state: the nine most recently used
    lines); a test that patches the S+ or dilog kernels empties it with
    _line_state.cache_clear().

    c max(|R|, |y|) > 0.1 raises ValueError, c the line's height (about
    0.95 eps at (a, k0) = (1, 2), so |R| or |y| > 105.6 at eps = 1e-3):
    beyond it the line's bias outgrows err_est, and its e^{c|R|}
    overflows beyond |R| ~ 709/c.
    """
    return _unified_samples(R, y, rp, (eps,), tol)[0]


def psi_unified_extrapolated(R: float, y: float, rp: ReducedParams,
                             tol: float = 1e-7) -> WaveSample:
    """Extrapolation of psi_unified to eps -> 0 over the three values
    e0 > e1 > e2 of _EPS_LADDER.

    The three lines go to one ``integrate`` call, so each refinement
    round evaluates the integrand once for all of them, and their six
    truncation-end values take one more call.  S+ comes from the lines'
    cached states (_LineState), so a request at a parameter set and
    panel width seen before evaluates S+ at few points or none.  Each
    ladder sample is the same, bit for bit, as psi_unified at its eps,
    and the same checks raise the same errors: the eps = 3e-3 line, the
    highest, sets the reach, |R| and |y| <= 35.19 at (a, k0) = (1, 2).

    The first Neville level takes the linear extrapolants of the pairs
    (e0, e1) and (e1, e2); the second combines them over (e1, e2), where
    a quadratic Richardson step would use (e0, e2).  The value is thus the
    fixed combination (3/14) v0 - (123/98) v1 + (100/49) v2 of the ladder
    samples: it cancels a bias linear in eps, but of a c eps^2 term it
    keeps 8.6e-7 c, more than the 3e-7 c left by the linear extrapolant
    of (e1, e2) alone.  err_est is the sum of the three samples' estimates
    plus a tenth of the step from the smallest-eps sample to the value.
    """
    samples = _unified_samples(R, y, rp, _EPS_LADDER, tol)
    es = np.array(_EPS_LADDER, dtype=float)
    vs = np.array([s.psi for s in samples])
    while len(vs) > 1:
        vs = (es[:-1] * vs[1:] - es[1:] * vs[:-1]) / (es[:-1] - es[1:])
        es = es[1:]
    value = complex(vs[0])
    err = sum(s.err_est for s in samples) + abs(value - samples[-1].psi) * 0.1
    return WaveSample(R, y, value, err, Method.UNIFIED_A7,
                      all(s.converged for s in samples))


# ----------------------------------------------------------------------
# asymptotics
# ----------------------------------------------------------------------

def _phi_minus(rp: ReducedParams) -> float:
    """The far-field phase constant (2/pi) Im Ti2((k0 + i a)/K)."""
    return (2.0 / PI) * im_ti2(complex(rp.k0, rp.a) / rp.K)


def asymptotic_phases(rp: ReducedParams, xi: float) -> AsymptoticPhases:
    """Far-field phase constants.

    phi_minus = (2/pi) Im Ti2((k0 + i a)/K);
    phi_plus  = Li2(a^2/K^2)/2 - 2 Li2(a/K)
                - Im Ti2((k0 xi + i a)/(K - k0 + k0 xi^2 / 2)).
    """
    if not abs(xi) < 1.0:
        raise ValueError(f"xi = y/R must be finite with |xi| < 1, got {xi}")
    _require_k0(rp, "asymptotic_phases")
    a, k0, K = rp.a, rp.k0, rp.K
    z = complex(k0 * xi, a) / (K - k0 + 0.5 * k0 * xi * xi)
    # at xi = 0 the argument sits on the arctangent-integral cut; take the
    # side continuous from xi > 0
    side = 1 if z.real == 0.0 else None
    pp = (0.5 * dilog(a * a / (K * K)).real - 2.0 * dilog(a / K).real
          - im_ti2(z, side=side))
    return AsymptoticPhases(phi_minus=_phi_minus(rp), phi_plus=pp, xi=xi)


def far_field(R: float, y: float, rp: ReducedParams) -> complex:
    """Smooth far-field law for R -> -inf, |y| << |R|:

        psi ~ a e^{-i (k0 |y| + phi_minus)} / (i pi K^2 R sqrt(2 k0 (K+k0)))

    The modulus is y-independent while the phase advances by k0 per unit
    |y| (the entanglement signature).  This is the k ~ 0 component of the
    segment integral; the exact field also carries a branch-point term
    ~|R|^(-1/2) not described by this law, so no error bound is returned.
    """
    _check_finite(R, y)
    if R >= 0.0:
        raise ValueError("far_field requires R < 0")
    _require_k0(rp, "far_field")
    a, k0, K = rp.a, rp.k0, rp.K
    amp = a / (1j * PI * K * K * R * math.sqrt(2.0 * k0 * (K + k0)))
    return amp * cmath.exp(-1j * (k0 * abs(y) + _phi_minus(rp)))


def steepest_descent(R: float, y: float, rp: ReducedParams) -> complex:
    """Steepest-descent form of the ionized field for R > 0, k0 R >> 1:

        Phi ~ i^(3/2) k0 a / (4 sqrt(pi) sqrt(k0 R)) * xi^2/(a^2+K^2 xi^2)
              * sqrt((k0/K)(K+k0)/(K + k0 xi^2/2))
              * exp[i(k0 R (1 - xi^2/2) + (2/pi) phi_plus)]

    with xi = y/R, |xi| < 1.
    """
    _check_finite(R, y)
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
    _check_finite(R, y)
    k0 = rp.k0
    ay = abs(y)
    if ay == 0.0:
        raise ValueError("saddle form needs |y| > 0")
    _require_k0(rp, "psi_tail_saddle")
    rho = math.hypot(R, y)
    # the free segment's node of x* = k0 - t^2; its amplitude carries the
    # Jacobian dx/dt = -2t
    ts = math.sqrt(k0 * (1.0 + R / rho))
    if ts == 0.0 or 2.0 * k0 - ts * ts <= 0.0:
        raise ValueError(f"saddle form at (R, y) = ({R}, {y}): |y| is too "
                         "small against |R|, the saddle reaches a branch "
                         "point")
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
    each of shape (n_panels, 15); an empty spec has no nodes."""
    edges = _panel_edges(spec, n_panels)
    if edges is None:
        none, w = np.empty(0), np.empty((0, 15))
        return none, none, none, None, w, w
    edges = np.array(edges)
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
    (sum_p K15_p, sum_p |K15_p - G7_p| + floor), each of shape (nR, ny),
    with the roundoff floor 100 eps sum_p |K15_p| that integrate adds, so
    no sample reports an error below the roundoff of its own sum."""
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
    mag = np.zeros((nR, ny))
    for p in range(0, shape[0], nb):
        b = slice(p, p + nb)
        ezR = np.exp(z[b, None, :] * Rc)
        T = _transverse(q[b, :, None], ay,
                        None if jump is None else jump[b, :, None], single)
        k15 = (a15[b, None, :] * ezR) @ T
        g7 = (a7[b, None, :] * ezR) @ T
        val += k15.sum(axis=0)
        err += np.abs(k15 - g7).sum(axis=0)
        mag += np.abs(k15).sum(axis=0)
    return val, err + _ROUNDOFF * mag


def _panel_count(phase: float, widen: float, cap: int) -> int:
    """Fixed panels for a piece whose phase spans ``phase`` radians: one
    per quarter wavelength, and at least 24, both divided by widen; at
    most cap."""
    return int(min(cap, math.ceil(max(24.0, phase * 2.0 / PI) / widen)))


def _grid_widening(tol: float) -> float:
    """How many quarter wavelengths one fixed panel spans at tol:
    (tol/2e-9)^(1/9) between 1 (tol <= 2e-9) and 2 (half a wavelength,
    about tol 1e-6).  The fixed-panel err_est grows about like the 7th
    power of the panel width (on the 80 x 61 README grid at (1, 2):
    1.7e-10 at a quarter wavelength, 1.9e-8 at a half) and swings by a
    factor of 2 with the panel count, so this keeps it within tol/10 on
    the grid workload's windows; at a whole wavelength the G7/K15
    estimate stops bounding the error."""
    return min(2.0, max(1.0, (tol / 2e-9) ** (1.0 / 9.0)))


def _scan_region(rp: ReducedParams, R_vals: np.ndarray, y_vals: np.ndarray,
                 method: Method, tol: float):
    """All-pairs evaluation for one sign of R on shared fixed panels: the
    piece nodes and amplitudes once per grid, then per bounded block of
    panels e^{zR} once per (R, node), the transverse factor once per
    (y, node) and the panel sums as matrix products (_panel_sums); the
    R > 0 bound pair is an (R) x (y) outer product.  For R < 0, APPROX_31
    takes the one-sided segment alone; every other case is the full wrap
    with its leg.  tol sets the panel width (_grid_widening): a quarter
    wavelength of the grid's worst sample at tol <= 2e-9, widening to
    about a half wavelength at tol 1e-6."""
    neg = bool(R_vals[0] < 0)
    segment, leg = ((_free_segment, _free_leg) if neg
                    else (_atom_segment, _atom_leg))
    single = neg and method is Method.APPROX_31
    Rmax = float(np.max(np.abs(R_vals)))
    Rmin = float(np.min(np.abs(R_vals)))
    ay = np.abs(y_vals)
    ymax = float(np.max(ay))
    pref = _pref(rp)
    sc = abs(pref) / (2 * PI)
    widen = _grid_widening(tol)
    # panels for the worst sample of the grid.  At k0 = 0 the segment is
    # empty: its nodes would sit on the merged branch points, where the
    # amplitudes are 0/0.  The free leg then grows like t^-1/2 at the
    # origin (S+(it) ~ sqrt(it/K)), so R < 0 rows still miss tol on fixed
    # panels and go to the adaptive route; R > 0 rows stay here.
    n_panels = _panel_count(math.sqrt(rp.k0) * _phase_rate(rp, Rmax, ymax),
                            widen, 6000)
    spec = QuadratureSpec(Kind.FINITE, (0.0, math.sqrt(rp.k0)))
    m, em = _panel_sums(*_fixed_nodes(segment, spec, n_panels, rp),
                        R_vals, ay, single)
    out = pref / (2 * PI) * m
    err = sc * em
    if not single:
        # leg nodes on the unit-rate ray; the per-R factor e^{zR}
        # supplies the decay
        n_ray = _panel_count(ymax * min(30.0 / max(Rmin, 1e-3), 1e4),
                             widen, 3000)
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

    REGIONAL_WITH_VERTICAL_LEG and APPROX_31 first take each sign of R on
    fixed shared quadrature panels (_scan_region), with the embedded-pair
    error estimate per sample.  The panels are a quarter wavelength wide
    at tol <= 2e-9 and widen with tol to about half a wavelength at tol
    1e-6, which keeps that estimate within tol/10.  Samples whose
    estimate exceeds tol, and every UNIFIED_A7 sample, are then evaluated
    pointwise by their route (psi_atom, psi_free, psi_approx31 or
    psi_unified_extrapolated); each call that does so logs one INFO record
    counting them.  One rule holds for every sample: it is converged when
    its route converged and its err_est is within tol.  REGIONAL, the wrap
    without its leg, is no grid method: its reported leg exceeds any
    useful tol.  R = 0 is excluded, R and y must be finite and tol
    positive.  Deterministic: fixed panel layout, block size and
    summation order.
    """
    if method is Method.REGIONAL:
        raise ValueError("Method.REGIONAL is no grid method; use "
                         "psi_free(include_vertical_leg=False)")
    R_vals = np.asarray(sorted(set(float(r) for r in R_values)))
    y_vals = np.asarray(sorted(set(float(v) for v in y_values)))
    if len(R_vals) == 0 or len(y_vals) == 0:
        raise ValueError("empty grid")
    _check_inputs(R_vals, y_vals, tol)
    if np.any(R_vals == 0.0):
        raise ValueError("R = 0 is excluded (region boundary)")
    out = np.empty((len(R_vals), len(y_vals)), dtype=np.complex128)
    err = np.full(out.shape, np.inf)  # samples left at inf go pointwise
    if method is not Method.UNIFIED_A7:
        for mask in (R_vals > 0, R_vals < 0):
            if mask.any():
                out[mask], err[mask] = _scan_region(rp, R_vals[mask], y_vals,
                                                    method, tol)
    conv = err <= tol
    redo = np.nonzero(~conv)
    if len(redo[0]):
        _log.info("scan_grid: %d of %d samples evaluated pointwise "
                  "(method %s, tol %g)", len(redo[0]), out.size,
                  method.value, tol)
    for i, j in zip(*redo):
        R, y = float(R_vals[i]), float(y_vals[j])
        if method is Method.UNIFIED_A7:
            s = psi_unified_extrapolated(R, y, rp, tol)
        elif R > 0:
            s = psi_atom(R, y, rp, tol)
        elif method is Method.APPROX_31:
            s = psi_approx31(R, y, rp, tol)
        else:
            s = psi_free(R, y, rp, tol)
        out[i, j] = s.psi
        err[i, j] = s.err_est
        conv[i, j] = s.converged and s.err_est <= tol
    return WaveGrid(R_vals, y_vals, out, method, err, conv)


# ----------------------------------------------------------------------
# diagnostics
# ----------------------------------------------------------------------

def expected_displacement(R: float, rp: ReducedParams,
                          y_cutoffs: Sequence[float]):
    """Relative-displacement expectation with explicit cutoffs:

        Y_L = int_-L^L |y| |psi|^2 dy / int_-L^L |psi|^2 dy.

    Returns [(L, Y_L, numerator, denominator), ...], one entry per cutoff,
    so (non-)convergence in L is observable; no claim of a finite limit is
    made for R < 0, where the numerator grows essentially linearly in L.
    |psi|^2 is sampled exactly (shared-panel scan at tol 1e-6) up to
    y ~ 60 and via the stationary-phase tail beyond.  The cutoffs must be
    finite, positive and increasing, and at least one.
    """
    if R == 0.0:
        raise ValueError("R = 0 excluded")
    cutoffs = list(y_cutoffs)
    if not cutoffs or not all(0.0 < c < math.inf for c in cutoffs):
        raise ValueError("y_cutoffs must be one or more finite positive "
                         f"cutoffs, got {cutoffs}")
    if any(c2 <= c1 for c1, c2 in zip(cutoffs, cutoffs[1:])):
        raise ValueError("cutoffs must be increasing")
    y_sw = min(60.0, cutoffs[-1])
    # exact part on [0, y_sw]: Simpson on a fixed oscillation-resolving grid
    n = int(max(64, math.ceil(y_sw * rp.k0 * 8 / PI)))
    n += n % 2
    ys = np.linspace(0.0, y_sw, n + 1)
    grid = scan_grid([R], ys, rp, tol=1e-6)
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
        results.append((float(L), Y, 2.0 * num, 2.0 * den))
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
