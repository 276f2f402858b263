"""Adaptive complex-valued quadrature with an embedded Gauss-Kronrod pair.

One engine serves every integral in the package: finite intervals of
smooth integrands (the contour pieces remove their endpoint roots by
substitution before they get here), oscillatory integrands (initial panel
width capped at a quarter of the hinted wavelength), and semi-infinite
decaying rays (rational map s/(1-s) graded by the decay rate).

Each panel is evaluated with the 15-point Kronrod rule; the embedded
7-point Gauss value provides the per-panel error estimate |K15 - G7|.
Panels are bisected worst-first, up to _BATCH per sweep.  The final sum
runs over panels sorted by position using math.fsum, so results are
bit-reproducible for a fixed configuration.  Integrands receive a 1-D
float64 array of abscissae and must return complex128 values of the same
length.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

__all__ = ["Kind", "QuadratureSpec", "QuadResult", "integrate"]

# 15-point Kronrod abscissae/weights with the embedded 7-point Gauss rule
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# full 15-node layout: -x0 .. -x6, 0, +x6 .. +x0
_NODES = np.concatenate([-_XGK[:7], _XGK[::-1]])
_W15 = np.concatenate([_WGK[:7], _WGK[::-1]])
_W7 = np.zeros(15)
_W7[1:14:2] = np.concatenate([_WG[:3], _WG[::-1]])

# worst-first panels refined per adaptive sweep
_BATCH = 64


class Kind(Enum):
    FINITE = "finite"
    DECAYING_RAY = "decaying_ray"


@dataclass(frozen=True)
class QuadratureSpec:
    """What to integrate over and how hard to try.

    For FINITE, ``endpoints`` is (a, b).  For DECAYING_RAY it is
    (start, direction, rate): the path start + direction*u, u >= 0, with
    integrand decay ~exp(-rate*u).  ``oscillation_hint`` is a wavelength
    scale.
    """
    kind: Kind
    endpoints: tuple
    oscillation_hint: Optional[float] = None
    tol: float = 1e-10
    max_subdivisions: int = 4000

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


@dataclass
class QuadResult:
    value: complex
    err_est: float
    evaluations: int
    converged: bool


@dataclass
class _Piece:
    """One smooth sub-problem: x = xmap(t), weight jac(t), t in [t0, t1]."""
    t0: float
    t1: float
    xmap: Callable[[np.ndarray], np.ndarray]
    jac: Callable[[np.ndarray], np.ndarray]
    xspan: float


def _identity_piece(a: float, b: float) -> _Piece:
    return _Piece(a, b, lambda t: t, lambda t: np.ones_like(t), abs(b - a))


def _ray_piece(start: float, direction: float, rate: float) -> _Piece:
    """Map u = s/((1-s) rate), s in [0, 1); x = start + direction*u."""
    if rate <= 0.0:
        raise ValueError("decay rate must be positive")
    s_hi = 1.0 - 1e-6

    def xmap(s: np.ndarray) -> np.ndarray:
        return start + direction * s / ((1.0 - s) * rate)

    def jac(s: np.ndarray) -> np.ndarray:
        return direction / (rate * (1.0 - s) ** 2)

    # effective x-span for panel sizing: a few decay lengths
    return _Piece(0.0, s_hi, xmap, jac, 30.0 / rate)


def _build_piece(spec: QuadratureSpec) -> Optional[_Piece]:
    """The one smooth piece of the spec, None for an empty interval."""
    if spec.kind is Kind.DECAYING_RAY:
        start, direction, rate = spec.endpoints
        return _ray_piece(start, direction, rate)

    a, b = spec.endpoints
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("FINITE endpoints must be finite")
    if a == b:
        return None
    return _identity_piece(a, b)


def _initial_panels(piece: _Piece, spec: QuadratureSpec,
                    override: Optional[int]) -> np.ndarray:
    if override is not None:
        n = max(1, int(override))
    elif spec.oscillation_hint is not None and spec.oscillation_hint > 0:
        cap = spec.oscillation_hint / 4.0
        n = int(min(16384, max(2, math.ceil(piece.xspan / cap))))
    else:
        n = 8
    return np.linspace(piece.t0, piece.t1, n + 1)


def _eval_panels(f, piece: _Piece, los: np.ndarray, his: np.ndarray):
    """Evaluate K15/G7 on a batch of panels; returns (vals, errs, n_eval)."""
    c = 0.5 * (los + his)
    h = 0.5 * (his - los)
    ts = (c[:, None] + h[:, None] * _NODES[None, :]).ravel()
    xs = piece.xmap(ts)
    ws = piece.jac(ts)
    fv = (np.asarray(f(xs), dtype=np.complex128) * ws).reshape(len(los), 15)
    k15 = (fv @ _W15) * h
    g7 = (fv @ _W7) * h
    return k15, np.abs(k15 - g7), fv.size


def integrate(f, spec: QuadratureSpec, *,
              initial_panels: Optional[int] = None) -> QuadResult:
    """Integrate a complex-valued vectorized integrand.

    Parameters
    ----------
    f : callable
        Maps a float64 array of abscissae to complex values.
    spec : QuadratureSpec
    initial_panels : int, optional
        Override the initial panel count (testing hook: results must be
        stable under halving/doubling).

    Returns
    -------
    QuadResult
        Non-convergence is reported, not raised: converged=False with the
        best value and the achieved error estimate.
    """
    piece = _build_piece(spec)
    if piece is None:
        return QuadResult(0j, 0.0, 0, True)

    heap: list = []
    counter = 0
    evals = 0

    def push(los: np.ndarray, his: np.ndarray) -> None:
        nonlocal counter, evals
        vals, errs, n = _eval_panels(f, piece, los, his)
        evals += n
        for j in range(len(vals)):
            heapq.heappush(heap, (-errs[j], counter, los[j], his[j], vals[j]))
            counter += 1

    edges = _initial_panels(piece, spec, initial_panels)
    push(edges[:-1], edges[1:])

    splits = 0
    while splits < spec.max_subdivisions:
        total_err = -math.fsum(item[0] for item in heap)
        if total_err <= spec.tol:
            break
        todo = []
        while heap and len(todo) < _BATCH:
            item = heapq.heappop(heap)
            if -item[0] <= spec.tol / (4 * (len(heap) + len(todo) + 1)):
                heapq.heappush(heap, item)
                break
            todo.append(item)
        if not todo:
            break
        keep = []
        frozen = []
        for item in todo:
            _, _, lo, hi, _ = item
            if hi - lo < 1e-14 * max(1.0, abs(hi), abs(lo)):
                frozen.append(item)  # machine-width panel: cannot split
                continue
            mid = 0.5 * (lo + hi)
            keep.append((lo, mid))
            keep.append((mid, hi))
            splits += 1
        for item in frozen:
            heapq.heappush(heap, item)
        if not keep:
            break  # nothing left that can be refined
        push(np.array([b[0] for b in keep]), np.array([b[1] for b in keep]))

    panels = sorted(heap, key=lambda it: it[2])
    re = math.fsum(it[4].real for it in panels)
    im = math.fsum(it[4].imag for it in panels)
    err = math.fsum(-it[0] for it in panels)
    # roundoff floor: accumulated double-precision noise over the panels
    abs_sum = math.fsum(abs(it[4]) for it in panels)
    err += 100.0 * 2.220446049250313e-16 * abs_sum
    return QuadResult(complex(re, im), err, evals, err <= spec.tol)
