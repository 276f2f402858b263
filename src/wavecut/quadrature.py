"""Adaptive complex-valued quadrature with an embedded Gauss-Kronrod pair.

One engine serves every integral in the package: finite intervals of
smooth integrands (the contour pieces remove their endpoint roots by
substitution before they get here), oscillatory integrands (initial panels
no wider than the spec's panel_width: the wave-function pieces pass their
wavelength), and semi-infinite decaying rays given as (start, rate)
(rational map s/(1-s) graded by the decay rate).  Each spec lays out its own
panels (_panel_edges); one map (_map_panels) turns panels of any mix of
specs into abscissae, for this engine and for the fixed shared panels of
the grid scan alike.

Each panel is evaluated with the 15-point Kronrod rule; the embedded
7-point Gauss value provides the per-panel error estimate |K15 - G7|.
Panels are bisected worst-first, up to _BATCH per sweep (globally
adaptive G7/K15, as in QUADPACK's QAG: Piessens et al., 1983) until the
summed panel errors plus a roundoff floor are within tol, the same rule
that sets the converged flag.  The final sum over the panels uses
math.fsum, which is exactly rounded, so results are bit-reproducible for
a fixed configuration.  Integrands receive a 1-D array of abscissae and
must return complex128 values of the same length.

A FINITE piece may also lie on a horizontal line of the complex plane,
Im k = c, given by complex endpoints (lo + ic, hi + ic).  Its panels,
bisection, tol and split budget work on the real part x as for a real
interval; the integrand receives the complex128 abscissae x + 1j*c, and
dk/dx = 1.  In one call the pieces are either all real (intervals and
rays, float64 abscissae) or all horizontal (complex128 abscissae), so an
integrand can tell the lines of a multi-line call apart by Im k.

One call can integrate several pieces that share an integrand, such as
the intervals of a contour.  Every piece keeps its own list of panels,
tolerance, split budget and stopping rule.  What the pieces share is the
numeric pass of each refinement round, over the new panels of every
unfinished piece at once: one panel map, one integrand call, one pair of
K15/G7 matrix products and one conversion to Python scalars per column.
The pieces then append their slices of those lists to their own panel
lists, and a piece that has to choose panels to split makes its list a
heap (heapq.heapify) and pops them worst first.  A piece sums its panel
errors once per round and its roundoff floor once, when it stops (or
when its panel errors alone are within tol); its result reuses both.  A
piece's value, error estimate and evaluation count are therefore the
same as when it is integrated alone, while the fixed NumPy cost is paid
once per round instead of once per piece and round.
"""

from __future__ import annotations

import cmath
import heapq
import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

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

# a panel's negated error estimate, its value and a value's parts
_NEG_ERR = operator.itemgetter(0)
_VALUE = operator.itemgetter(4)
_REAL = operator.attrgetter("real")
_IMAG = operator.attrgetter("imag")

# a ray is laid out over this many decay lengths (_panel_edges)
_RAY_SPAN = 30.0

# roundoff floor of an error estimate per unit of sum_p |K15_p|
_ROUNDOFF = 100.0 * 2.220446049250313e-16


class Kind(Enum):
    FINITE = "finite"
    DECAYING_RAY = "decaying_ray"


@dataclass(frozen=True)
class QuadratureSpec:
    """What to integrate over and how hard to try.

    For FINITE, ``endpoints`` is (a, b), both finite: real numbers for
    an interval of the real axis, or complex numbers with one imaginary
    part c for the horizontal segment Im k = c, refined on the real part.
    For DECAYING_RAY it is (start, rate): the path start + u, u >= 0, with
    integrand decay ~exp(-rate*u), rate > 0.  ``panel_width`` caps the
    width of the initial panels in x: the wave-function pieces pass their
    wavelength, so each wavelength gets one initial panel.  On a ray the
    cap holds on average over 30 decay lengths, and a ray starts with at
    least 8 panels, as without a width (_panel_edges).
    """
    kind: Kind
    endpoints: tuple
    panel_width: Optional[float] = None
    tol: float = 1e-10
    max_subdivisions: int = 4000
    # Im k = c of a horizontal FINITE piece, None on the real axis
    height: Optional[float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")
        height = None
        if self.kind is Kind.FINITE:
            a, b = self.endpoints
            if not (cmath.isfinite(a) and cmath.isfinite(b)):
                raise ValueError("FINITE endpoints must be finite")
            if isinstance(a, complex) or isinstance(b, complex):
                height = complex(a).imag
                if complex(b).imag != height:
                    raise ValueError("complex FINITE endpoints must share "
                                     "one imaginary part")
        else:
            _, rate = self.endpoints
            if not rate > 0.0:
                raise ValueError("decay rate must be positive")
            if not (math.isfinite(rate) and math.isfinite(_RAY_SPAN / rate)):
                raise ValueError(f"decay rate {rate!r} cannot be laid out: "
                                 "it or its 30 decay lengths are not finite")
        object.__setattr__(self, "height", height)


@dataclass
class QuadResult:
    """value, err_est, evaluations and converged of an integral; from
    integrate, ``pieces`` holds the result of each spec in spec order."""
    value: complex
    err_est: float
    evaluations: int
    converged: bool
    pieces: tuple = ()


# the ray's map s -> u stops short of s = 1, where u = s/(1-s) diverges
_S_HI = 1.0 - 1e-6


def _map_panels(los: np.ndarray, his: np.ndarray, pieces):
    """K15 abscissae x, shape (panels, 15), of the panels [los, his], the
    Jacobians dx/ds of the ray pieces among them and the panel
    half-widths.  ``pieces`` lists (spec, rows) in row order, rows a slice
    of the panels given in that spec's own variable s.  FINITE pieces
    have x = s; a ray maps x = start + s/((1-s) rate) on its own rows and
    adds (rows, dx/ds) to the Jacobian list.  If the pieces are
    horizontal (all of them, as integrate checks, each rows then a
    slice(start, stop)), x is complex128: s + 1j*c with each piece's own
    height c."""
    h = 0.5 * (his - los)
    x = (0.5 * (los + his))[:, None] + h[:, None] * _NODES
    if pieces[0][0].height is not None:
        c = np.repeat([spec.height for spec, _ in pieces],
                      [rows.stop - rows.start for _, rows in pieces])
        return x + 1j * c[:, None], [], h
    jacs = []
    for spec, rows in pieces:
        if spec.kind is Kind.DECAYING_RAY:
            start, rate = spec.endpoints
            s = x[rows]  # a view: take dx/ds before x is overwritten
            jacs.append((rows, 1.0 / (rate * (1.0 - s) ** 2)))
            x[rows] = start + s / ((1.0 - s) * rate)
    return x, jacs, h


def _panel_edges(spec: QuadratureSpec, n: Optional[int] = None):
    """Edges of n equal panels in the spec's own variable, a list of
    Python floats, None for an empty interval.  Without a width the
    default n is 8.  With one it is ceil(span / panel_width) over the
    x-span, at most 16384, and at least 2 on an interval, where every
    panel is then within panel_width.

    On a ray the span is 30 decay lengths and the floor is 8, the count a
    width-less spec gets: the map folds any decay e^(-rate u) into the
    one profile e^(-s/(1-s))/(1-s)^2 in s, which G7/K15 misses by 2e-7 on
    2 panels and by 5e-13 on 8.  Equal panels in s widen like 1/(1-s)^2
    in x, so there panel_width holds only on average over the span."""
    if spec.kind is Kind.FINITE:
        s0, s1 = spec.endpoints[0].real, spec.endpoints[1].real
        if s0 == s1:
            return None
        span, least = abs(s1 - s0), 2
    else:
        s0, s1 = 0.0, _S_HI
        span, least = _RAY_SPAN / spec.endpoints[1], 8
    if n is None:
        if spec.panel_width is not None and spec.panel_width > 0:
            n = int(min(16384,
                        max(least, math.ceil(span / spec.panel_width))))
        else:
            n = 8
    # np.linspace(s0, s1, n + 1) bit for bit: its arithmetic for a
    # nonzero step, i*step + s0 with the last edge s1, in Python floats,
    # which integrate keeps its panels in
    step = (s1 - s0) / n
    edges = [i * step + s0 for i in range(n)]
    edges.append(s1)
    return edges


class _Run:
    """Adaptive state of one spec: its panels, counts and limits.

    A panel is (-err, serial, lo, hi, value).  Each round's evaluated
    panels are appended to a plain list; only a piece that has to choose
    panels to split makes that list a heap, so it pops them by
    (-err, serial): worst first, and in filing order among equal errors.
    When the piece stops, its panel errors plus the roundoff floor are
    kept in err for result()."""

    def __init__(self, spec: QuadratureSpec):
        self.spec = spec
        self.panels: list = []
        self.counter = 0
        self.evals = 0
        self.splits = 0
        self.err = 0.0  # as summed over no panels: an empty piece's

    def push(self, negerrs: list, los: list, his: list, vals: list) -> None:
        """File evaluated panels, given as Python scalars: the heap
        compares them many times per round."""
        n = self.counter
        self.counter += len(vals)
        self.evals += 15 * len(vals)
        self.panels.extend(zip(negerrs, range(n, self.counter), los, his,
                               vals))

    def refine(self) -> Optional[tuple]:
        """The (los, his) lists of the panels to evaluate next, or None
        once finished: the panel errors plus the roundoff floor are
        within tol (the rule result() judges converged by), the floor
        alone exceeds tol, the split budget is spent, the panel errors
        sum to NaN (no order of the panels is then the worst first), or
        nothing left can be split."""
        spec, heap = self.spec, self.panels
        err = -math.fsum(map(_NEG_ERR, heap))
        if self.splits >= spec.max_subdivisions or err != err:
            return self._finish(err)
        if err <= spec.tol:
            # the floor costs a pass over the panels, so only here;
            # splitting does not lower it, so once it alone exceeds tol no
            # split helps
            floor = self._floor()
            if err + floor <= spec.tol or floor > spec.tol:
                return self._finish(err, floor)
        heapq.heapify(heap)
        todo = []
        while heap and len(todo) < _BATCH:
            item = heapq.heappop(heap)
            if -item[0] <= spec.tol / (4 * (len(heap) + len(todo) + 1)):
                heapq.heappush(heap, item)
                break
            todo.append(item)
        los, his = [], []
        for item in todo:
            _, _, lo, hi, _ = item
            if hi - lo < 1e-14 * max(1.0, abs(hi), abs(lo)):
                heapq.heappush(heap, item)  # machine-width panel: cannot split
                continue
            mid = 0.5 * (lo + hi)
            los += (lo, mid)
            his += (mid, hi)
        if not los:
            return self._finish(err)
        self.splits += len(los) // 2
        return los, his

    def _floor(self) -> float:
        """Roundoff floor of the error estimate: accumulated
        double-precision noise over the panels, from Python's
        abs(complex), which np.abs can differ from by an ulp."""
        return _ROUNDOFF * math.fsum(map(abs, map(_VALUE, self.panels)))

    def _finish(self, err: float, floor: Optional[float] = None) -> None:
        """Keeps the panel errors err plus the roundoff floor as the
        piece's error estimate; None, refine's answer once finished."""
        self.err = err + (self._floor() if floor is None else floor)

    def result(self) -> QuadResult:
        # fsum is exactly rounded, so the order of the panels is immaterial
        vals = list(map(_VALUE, self.panels))
        return QuadResult(complex(math.fsum(map(_REAL, vals)),
                                  math.fsum(map(_IMAG, vals))),
                          self.err, self.evals, self.err <= self.spec.tol)


def integrate(f, *specs: QuadratureSpec) -> QuadResult:
    """Integrate a complex-valued vectorized integrand over one or more
    pieces.

    Each spec is refined on its own: its own panels, tol,
    max_subdivisions, split count and stopping rule, so a piece takes the
    same panels and gives the same value, err_est and evaluations whether
    it is passed alone or with others.  What the pieces share is the
    numeric pass of each refinement round: the new panels of every
    unfinished piece, concatenated in spec order, are mapped to abscissae
    once, go to ``f`` in one call, and get their K15 and G7 sums from one
    pair of matrix products; each piece then appends its slice of the
    panels to its own list and selects its next ones.  A contour of n
    pieces costs one pass per round instead of one per piece and round.

    The pieces are either all real or all horizontal (complex FINITE
    endpoints on Im k = c, see QuadratureSpec): several horizontal lines
    share a call as several real intervals do, and the integrand tells
    their points apart by Im k.

    Parameters
    ----------
    f : callable
        Maps a 1-D array of abscissae, float64 for real pieces and
        complex128 x + 1j*c for horizontal ones, to complex values of the
        same length, each depending on its own abscissa only.
    *specs : QuadratureSpec
        The pieces, at least one.

    Returns
    -------
    QuadResult
        value and err_est summed over the pieces in spec order from 0j and
        0.0, evaluations summed, converged only if every piece converged;
        ``pieces`` holds each spec's own result, in spec order.
        Non-convergence is reported, not raised: converged=False with the
        best value and the achieved error estimate.

    Raises
    ------
    ValueError
        If real and horizontal pieces are mixed in one call.
    """
    if not specs:
        raise TypeError("integrate needs at least one QuadratureSpec")
    real = specs[0].height is None
    if any((spec.height is None) is not real for spec in specs):
        raise ValueError("integrate takes real pieces or horizontal "
                         "(complex) pieces, not both in one call")
    runs = [_Run(spec) for spec in specs]
    todo = []  # (run, los, his) of every piece with panels to evaluate
    for run in runs:
        edges = _panel_edges(run.spec)
        if edges is not None:  # an empty interval has no panels
            todo.append((run, edges[:-1], edges[1:]))
    while todo:
        los, his, pieces = [], [], []
        for run, lo, hi in todo:
            pieces.append((run.spec, slice(len(los), len(los) + len(lo))))
            los += lo
            his += hi
        x, jacs, h = _map_panels(np.array(los), np.array(his), pieces)
        fv = np.asarray(f(x.ravel()), dtype=np.complex128).reshape(x.shape)
        if jacs:
            fv = fv.copy()  # the integrand's array is not ours to scale
            for rows, jac in jacs:
                fv[rows] *= jac
        vals = (fv @ _W15) * h
        negerrs = (-np.abs(vals - (fv @ _W7) * h)).tolist()
        vals = vals.tolist()
        nxt = []
        for (run, lo, hi), (_, rows) in zip(todo, pieces):
            run.push(negerrs[rows], lo, hi, vals[rows])
            panels = run.refine()
            if panels is not None:
                nxt.append((run, *panels))
        todo = nxt

    results = tuple([run.result() for run in runs])
    value, err = 0j, 0.0
    for res in results:
        value += res.value
        err += res.err_est
    return QuadResult(value, err, sum(res.evaluations for res in results),
                      all(res.converged for res in results), results)
