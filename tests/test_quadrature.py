"""Quadrature engine: exactness, oscillation, rays, error-estimate and
stability contracts."""

import math

import numpy as np
import pytest

from wavecut.quadrature import Kind, QuadratureSpec, integrate


def test_constant_exact():
    res = integrate(lambda x: np.ones_like(x) + 0j,
                    QuadratureSpec(Kind.FINITE, (0.0, 1.0), tol=1e-13))
    assert abs(res.value - 1.0) < 1e-15
    assert res.converged
    assert res.err_est >= abs(res.value - 1.0)


def test_decaying_ray():
    res = integrate(lambda t: np.exp(-t) + 0j,
                    QuadratureSpec(Kind.DECAYING_RAY, (0.0, 1.0),
                                   tol=1e-12))
    assert abs(res.value - 1.0) < 1e-12
    assert res.err_est >= abs(res.value - 1.0)


def test_ray_with_start_and_direction():
    # int_2^inf e^{-3(t-2)} dt = 1/3
    res = integrate(lambda t: np.exp(-3.0 * (t - 2.0)) + 0j,
                    QuadratureSpec(Kind.DECAYING_RAY, (2.0, 3.0),
                                   tol=1e-12))
    assert abs(res.value - 1.0 / 3.0) < 1e-12


def _romberg_oracle(f, a, b, levels=14, keep=8):
    # dense Romberg ladder, independent of the Gauss-Kronrod machinery
    n = 2 ** levels
    x = np.linspace(a, b, n + 1)
    y = f(x)
    h = (b - a) / n
    rows = []
    for m in range(keep):  # coarsest grid first
        step = 2 ** (keep - 1 - m)
        ys = y[::step]
        hh = h * step
        rows.append(hh * (ys[0] / 2 + ys[1:-1].sum() + ys[-1] / 2))
    table = rows
    j = 1
    while len(table) > 1:
        table = [(4 ** j * table[i + 1] - table[i]) / (4 ** j - 1)
                 for i in range(len(table) - 1)]
        j += 1
    return table[0]


def test_oscillatory_vs_romberg_oracle():
    # frozen oracle for int_0^10 exp(50 i x)/(x^2+1) dx
    def f(x):
        return np.exp(50j * x) / (x * x + 1.0)

    oracle = _romberg_oracle(f, 0.0, 10.0)
    spec = QuadratureSpec(Kind.FINITE, (0.0, 10.0), tol=1e-12,
                          panel_width=2.0 * math.pi / 200.0)
    res = integrate(f, spec)
    assert abs(res.value - oracle) < 1e-10
    assert res.converged


def test_initial_panel_halving_invariance():
    def f(x):
        return np.exp(50j * x) / (x * x + 1.0)

    # widths 0.05 and 0.1 start from 200 and 100 panels on (0, 10)
    s1, s2 = (QuadratureSpec(Kind.FINITE, (0.0, 10.0), tol=1e-11,
                             panel_width=w) for w in (0.05, 0.1))
    r1 = integrate(f, s1)
    r2 = integrate(f, s2)
    assert abs(r1.value - r2.value) <= 2.0 * s1.tol


def test_interval_splitting_consistency():
    def f(x):
        return np.sin(3.0 * x) / (1.0 + x) + 0j

    tol = 1e-11
    whole = integrate(f, QuadratureSpec(Kind.FINITE, (0.0, 5.0), tol=tol))
    left = integrate(f, QuadratureSpec(Kind.FINITE, (0.0, 1.7), tol=tol))
    right = integrate(f, QuadratureSpec(Kind.FINITE, (1.7, 5.0), tol=tol))
    assert abs(whole.value - left.value - right.value) <= 2.0 * tol


def test_nonconvergence_reported_not_raised():
    # genuinely hard: interior near-singularity with a tiny budget
    def f(x):
        return 1.0 / (np.abs(x - 0.5) + 1e-15) + 0j

    spec = QuadratureSpec(Kind.FINITE, (0.0, 1.0), tol=1e-12,
                          max_subdivisions=8)
    res = integrate(f, spec)
    assert not res.converged
    assert res.err_est > spec.tol
    assert np.isfinite(res.value.real)


def test_machine_width_panels_terminate():
    # a near-singular interior point drives panels to machine width; the
    # engine must stop refining and report non-convergence, not spin
    def f(x):
        return 1.0 / (np.abs(x - 0.5) + 1e-300) + 0j

    spec = QuadratureSpec(Kind.FINITE, (0.0, 1.0), tol=1e-12,
                          max_subdivisions=100000)
    res = integrate(f, spec)
    assert not res.converged
    assert np.isfinite(res.value.real)


def test_tol_below_roundoff_floor_stops_refining():
    # the panel errors fit in tol after 24 panels, but the roundoff floor
    # (1.1e-13 here) alone exceeds it: no split can converge the piece,
    # so refinement stops there
    res = integrate(lambda x: np.exp(3j * x),
                    QuadratureSpec(Kind.FINITE, (0.0, 5.0), tol=1e-15))
    assert not res.converged
    assert res.evaluations == 360


@pytest.mark.parametrize("nan_left", [True, False])
def test_nan_error_estimate_stops_refining(nan_left):
    # a NaN panel error leaves no worst panel to split first: the piece
    # stops on its 8 initial panels, on either side of the NaN
    def f(x):
        return np.where((x < 0.5) == nan_left, np.nan, np.exp(x)) + 0j

    spec = QuadratureSpec(Kind.FINITE, (0.0, 1.0))
    res, again = integrate(f, spec), integrate(f, spec)
    assert not (np.isfinite(res.value) and math.isfinite(res.err_est))
    assert not res.converged
    assert res.evaluations == 15 * 8
    assert repr(again) == repr(res)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(Kind.FINITE, (0.0, 1.0), tol=-1.0)
    with pytest.raises(ValueError):
        QuadratureSpec(Kind.FINITE, (0.0, 1.0), max_subdivisions=0)


def test_endpoint_checks_at_construction():
    # a spec with ends the engine cannot lay panels on fails when built
    with pytest.raises(ValueError, match="FINITE endpoints must be finite"):
        QuadratureSpec(Kind.FINITE, (0.0, math.inf))
    for rate in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="decay rate must be positive"):
            QuadratureSpec(Kind.DECAYING_RAY, (0.0, rate))
    # 30 decay lengths overflow below rate ~1.7e-307
    for rate in (math.inf, 1e-308, 5e-324):
        with pytest.raises(ValueError, match="cannot be laid out"):
            QuadratureSpec(Kind.DECAYING_RAY, (0.0, rate))
    QuadratureSpec(Kind.DECAYING_RAY, (0.0, 1e-300))


def test_evaluation_count_reported():
    res = integrate(lambda x: np.exp(-x) + 0j,
                    QuadratureSpec(Kind.FINITE, (0.0, 1.0), tol=1e-10))
    assert res.evaluations >= 15
    assert res.evaluations % 15 == 0


def test_empty_interval():
    res = integrate(lambda x: x + 0j,
                    QuadratureSpec(Kind.FINITE, (1.0, 1.0)))
    assert res.value == 0j and res.converged


# ----------------------------------------------------------------------
# several pieces in one call
# ----------------------------------------------------------------------

def _captured_calls(monkeypatch, module, call):
    """(integrand, specs) of every integrate call the module makes."""
    seen = []
    real = module.integrate

    def record(f, *specs, **kwargs):
        seen.append((f, specs))
        return real(f, *specs, **kwargs)

    monkeypatch.setattr(module, "integrate", record)
    call()
    return seen


def _counting(f):
    def g(x):
        g.calls += 1
        return f(x)
    g.calls = 0
    return g


def _assert_pieces_batch_exactly(f, specs):
    """One multi-piece call equals the single-piece calls summed in spec
    order from 0j/0.0, bit for bit, reports each of them in ``pieces``
    in spec order, and makes one integrand call per refinement round of
    its slowest piece."""
    assert len(specs) > 1
    value, err, evals, ok, calls, pieces = 0j, 0.0, 0, True, [], []
    for spec in specs:
        g = _counting(f)
        res = integrate(g, spec)
        value += res.value
        err += res.err_est
        evals += res.evaluations
        ok = ok and res.converged
        calls.append(g.calls)
        (piece,) = res.pieces
        pieces.append(piece)
    g = _counting(f)
    res = integrate(g, *specs)
    assert res.value == value
    assert res.err_est == err
    assert res.evaluations == evals
    assert res.converged == ok
    assert res.pieces == tuple(pieces)
    assert g.calls == max(calls)
    return g.calls, sum(calls)


@pytest.mark.parametrize("R, y", [(3.0, 1.0), (-6.5, 2.25)])
@pytest.mark.parametrize("eps", [3e-3, 1e-3, 3e-4])
def test_unified_line_pieces_batch_exactly(monkeypatch, R, y, eps):
    from wavecut import wavefunction as wf
    from wavecut.model import ReducedParams

    rp = ReducedParams.from_a_k0(1.0, 2.0)
    seen = _captured_calls(monkeypatch, wf, lambda: wf.psi_unified(
        R, y, rp, eps=eps, tol=1e-7))
    assert len(seen) == 1
    f, specs = seen[0]
    assert len(specs) > 20
    calls, separate = _assert_pieces_batch_exactly(f, specs)
    if (R, y, eps) == (3.0, 1.0, 1e-3):
        # one call per round (plus the initial one), not one per piece
        # and round
        assert calls <= 10 < 50 <= separate


def test_unified_ladder_is_one_call(monkeypatch):
    # the three lines of the eps ladder (81 pieces here) share one call:
    # 8 integrand calls, as many as the slowest line takes alone (5, 7
    # and 8 at eps 3e-3, 1e-3, 3e-4), and the 10,005 evaluations of the
    # three lines
    from wavecut import wavefunction as wf
    from wavecut.model import ReducedParams

    rp = ReducedParams.from_a_k0(1.0, 2.0)
    seen = _captured_calls(monkeypatch, wf,
                           lambda: wf.psi_unified_extrapolated(-6.5, 2.25, rp))
    assert len(seen) == 1
    f, specs = seen[0]
    assert len(specs) == 81
    assert len({spec.height for spec in specs}) == 3
    calls, _ = _assert_pieces_batch_exactly(f, specs)
    assert calls == 8
    assert integrate(f, *specs).evaluations == 2955 + 3375 + 3675


@pytest.mark.parametrize("a, k0, k", [(1.0, 2.0, 1.0 + 0.5j),
                                      (1.0, 2.0, 3.0 + 1.0j),
                                      (0.5, 3.0, 2.0 + 0.1j),
                                      (1.0, 2.0, -1.0 + 0.5j)])
def test_j_rotated_pieces_batch_exactly(monkeypatch, a, k0, k):
    # the pieces of the J oracle (j_axis), for either sign of Re k
    from wavecut import wiener_hopf as wh
    from wavecut.model import ReducedParams

    rp = ReducedParams.from_a_k0(a, k0)
    seen = _captured_calls(monkeypatch, wh,
                           lambda: wh.j_axis(k, rp, 1e-9))
    assert len(seen) == 1
    _assert_pieces_batch_exactly(*seen[0])


def test_multi_piece_empty_and_ray_pieces():
    # an empty interval contributes an exact 0j; a ray rides along
    f = lambda x: np.exp(-x) + 0j  # noqa: E731
    specs = (QuadratureSpec(Kind.FINITE, (0.0, 1.0), tol=1e-12),
             QuadratureSpec(Kind.FINITE, (1.0, 1.0)),
             QuadratureSpec(Kind.DECAYING_RAY, (1.0, 1.0), tol=1e-12))
    res = integrate(f, *specs)
    assert abs(res.value - 1.0) < 1e-12
    assert res.converged
    _assert_pieces_batch_exactly(f, specs)


def test_multi_piece_convergence_is_all_pieces():
    def f(x):
        return 1.0 / (np.abs(x - 0.5) + 1e-15) + 0j

    hard = QuadratureSpec(Kind.FINITE, (0.0, 1.0), tol=1e-12,
                          max_subdivisions=8)
    easy = QuadratureSpec(Kind.FINITE, (2.0, 3.0), tol=1e-12)
    res = integrate(f, easy, hard)
    assert not res.converged
    assert integrate(f, easy).converged
    # the hard piece stops at its own split budget (8 initial panels, at
    # most one round of up to 64 splits past the budget), while the easy
    # one converges on its own
    assert integrate(f, hard).evaluations <= 15 * (8 + 2 * (8 + 64))
    _assert_pieces_batch_exactly(f, (easy, hard))


# ----------------------------------------------------------------------
# pieces on a horizontal line Im k = c
# ----------------------------------------------------------------------

def _recording(f):
    """f, keeping a copy of every abscissa array it is handed."""
    def g(x):
        g.seen.append(np.array(x))
        return f(x)
    g.seen = []
    return g


def test_horizontal_piece_hands_shifted_abscissae():
    # panels, bisection and results follow the real part: an integrand of
    # Re k alone sees the real interval's abscissae shifted by 1j*c, bit
    # for bit, in complex128, and gives the real interval's result
    def osc(x):
        return np.exp(40j * x) / (1.0 + x * x)

    for lo, hi, c in [(-3.0, 4.0, 0.25), (1.0, 2.5, -2.0), (0.0, 1.0, 0.0)]:
        real, horizontal = _recording(osc), _recording(
            lambda k: osc(k.real))
        ref = integrate(real, QuadratureSpec(Kind.FINITE, (lo, hi),
                                             tol=1e-12))
        res = integrate(horizontal, QuadratureSpec(
            Kind.FINITE, (complex(lo, c), complex(hi, c)), tol=1e-12))
        assert res == ref
        assert len(real.seen) == len(horizontal.seen) > 1
        for x, k in zip(real.seen, horizontal.seen):
            assert x.dtype == np.float64 and k.dtype == np.complex128
            assert k.tobytes() == (x + 1j * c).tobytes()


def test_horizontal_lines_batch_exactly():
    # pieces on two lines in one call: each point's Im k names its line,
    # and every piece gives what it gives alone
    def f(k):
        return np.exp(1j * k) / (k * k + 4.0)

    specs = (QuadratureSpec(Kind.FINITE, (-5 + 0.5j, 0.5j), tol=1e-11),
             QuadratureSpec(Kind.FINITE, (0.5j, 5 + 0.5j), tol=1e-11),
             QuadratureSpec(Kind.FINITE, (-5 - 1j, 5 - 1j), tol=1e-11))
    assert [spec.height for spec in specs] == [0.5, 0.5, -1.0]
    seen = _recording(f)
    integrate(seen, *specs)
    assert set(seen.seen[0].imag.tolist()) == {0.5, -1.0}
    _assert_pieces_batch_exactly(f, specs)


@pytest.mark.parametrize("specs", [
    lambda: (QuadratureSpec(Kind.FINITE, (0.5j, 1 + 0.25j)),),
    lambda: (QuadratureSpec(Kind.FINITE, (complex(0, math.inf),
                                          complex(1, math.inf))),),
    lambda: (QuadratureSpec(Kind.FINITE, (complex(math.nan, 1), 1 + 1j)),),
    lambda: (QuadratureSpec(Kind.FINITE, (0.0, 1.0)),
             QuadratureSpec(Kind.FINITE, (1 + 1j, 2 + 1j))),
    lambda: (QuadratureSpec(Kind.FINITE, (1 + 1j, 2 + 1j)),
             QuadratureSpec(Kind.DECAYING_RAY, (0.0, 1.0))),
], ids=["unequal-heights", "infinite-height", "nan-end", "real-and-complex",
        "complex-and-ray"])
def test_horizontal_pieces_rejected(specs):
    with pytest.raises(ValueError):
        integrate(lambda k: np.ones(len(k), dtype=np.complex128), *specs())


def test_integrate_needs_a_spec():
    with pytest.raises(TypeError):
        integrate(lambda x: x + 0j)


# ----------------------------------------------------------------------
# golden pin: exact results of the library's integrate calls
# ----------------------------------------------------------------------

def _library_calls(module, call):
    """The (integrand, specs) of the integrate calls that ``call`` makes
    through the module, in order."""
    with pytest.MonkeyPatch.context() as mp:
        return _captured_calls(mp, module, call)


def _golden_cases():
    """Name -> (integrand, specs) of every pinned integrate call."""
    from wavecut import wavefunction as wf
    from wavecut import wiener_hopf as wh
    from wavecut.model import ReducedParams

    rp = ReducedParams.from_a_k0(1.0, 2.0)
    cases = {}
    # psi_unified's line pieces at each eps of the ladder
    for eps in wf._EPS_LADDER:
        (cases[f"unified-eps{eps:g}"],) = _library_calls(
            wf, lambda: wf.psi_unified(-6.5, 2.25, rp, eps=eps))
    # the J oracle without and with its spike call (100|k| <= k0)
    (cases["j_axis"],) = _library_calls(
        wh, lambda: wh.j_axis(1.0 + 0.5j, rp, 1e-9))
    cases["j_axis-spike"], cases["j_axis-near"] = _library_calls(
        wh, lambda: wh.j_axis(0.01j, rp, 1e-9))
    # a segment and a leg (a ray) on each side
    cases["free-segment"], cases["free-leg"] = _library_calls(
        wf, lambda: wf.psi_free(-3.0, 1.5, rp))
    cases["atom-segment"], cases["atom-leg"] = _library_calls(
        wf, lambda: wf.psi_atom(2.5, 0.75, rp))

    def peak(floor):
        return lambda x: 1.0 / (np.abs(x - 0.5) + floor) + 0j

    cases["machine-width"] = (peak(1e-300), (QuadratureSpec(
        Kind.FINITE, (0.0, 1.0), tol=1e-12, max_subdivisions=100000),))
    cases["split-budget"] = (peak(1e-15), (QuadratureSpec(
        Kind.FINITE, (0.0, 1.0), tol=1e-12, max_subdivisions=8),))
    cases["empty-piece"] = (lambda x: np.exp(-x) + 0j, (
        QuadratureSpec(Kind.FINITE, (0.0, 1.0), tol=1e-12),
        QuadratureSpec(Kind.FINITE, (1.0, 1.0)),
        QuadratureSpec(Kind.DECAYING_RAY, (1.0, 1.0), tol=1e-12)))

    def tied(x):
        # the same 15 node values on every panel, times 1, i or -1 by
        # floor(m^2) of the panel's midpoint m: every panel of one width
        # has the same error estimate, exactly, so the panels split are
        # chosen by serial number alone, and the value tells which
        turn = np.floor(x[7::15] ** 2).astype(np.intp) % 3
        return (np.array([1, 1j, -1])[turn][:, None]
                * np.exp(np.arange(15) / 7.0)).ravel()

    # 8, 16, 32 and 64 panels split whole; the budget stops the piece
    # after the first 64 of the 128 tied panels
    cases["tie-break"] = (tied, (QuadratureSpec(
        Kind.FINITE, (0.0, 8.0), panel_width=1.0, tol=1e-3,
        max_subdivisions=150),))
    return cases


# (repr value, repr err_est, evaluations, converged, integrand calls), as
# the engine gave them when each piece still had its own numeric pass per
# round (NumPy 2.4, x86-64): bit for bit the contract of any rework.  The
# unified, segment and leg cases pin the wave-function layout of one
# wavelength per initial panel, the legs on at least 8 ray panels, and the
# j_axis cases the oracle's 4-panel gap piece; a change of a layout
# re-records them, each new value within its new err_est of the old one.
# The tie-break case, recorded with every panel pushed on a heap as it
# was evaluated, pins the (-err, serial) order in which panels are split.
_GOLDEN = {
    'unified-eps0.003': (
        '(1.1243044720554267-1.6712569461338518j)',
        '1.1710527776627777e-08', 2955, True, 5),
    'unified-eps0.001': (
        '(1.1394242479293573-1.693967523481865j)',
        '9.380622890967875e-09', 3375, True, 7),
    'unified-eps0.0003': (
        '(1.1447641828762394-1.7019890845281687j)',
        '1.5925020018066877e-08', 3675, True, 8),
    'j_axis': (
        '(-0.3653993005256289+0.35663776945786063j)',
        '1.0725134151012114e-10', 510, True, 3),
    'j_axis-spike': (
        '(17.44087401976929+72.41823358452257j)',
        '1.6626903808058911e-12', 360, True, 1),
    'j_axis-near': (
        '(0.29958819677221765+0.3276623160863108j)',
        '3.168831697558241e-09', 300, True, 1),
    'free-segment': (
        '(2.628709873189204-0.6018917177908408j)',
        '3.380011762856068e-11', 60, True, 1),
    'free-leg': (
        '(-0.12654086536486958-0.04902521088759719j)',
        '8.797655882084102e-09', 120, True, 1),
    'atom-segment': (
        '(-0.03482309527576133-0.08684680052989366j)',
        '4.784160862877214e-11', 45, True, 1),
    'atom-leg': (
        '(-0.05869592202002414+0.02513120968236001j)',
        '2.780504798321004e-09', 120, True, 1),
    'machine-width': (
        '(8.148263223450137e+283+0j)',
        '8.148263223450319e+283', 54300, False, 45),
    'split-budget': (
        '(19.60877938790024+0j)',
        '3.692173372039602', 360, False, 3),
    'empty-piece': (
        '(1+0j)',
        '2.4031282087343082e-14', 360, True, 3),
    'tie-break': (
        '(3.1234751086515584+7.856013152063011j)',
        '0.023447358271622823', 5640, False, 6),
}


@pytest.fixture(scope="module")
def golden_cases():
    return _golden_cases()


@pytest.mark.parametrize("name", list(_GOLDEN))
def test_integrate_golden(golden_cases, name):
    f, specs = golden_cases[name]
    g = _counting(f)
    res = integrate(g, *specs)
    assert (repr(res.value), repr(res.err_est), res.evaluations,
            res.converged, g.calls) == _GOLDEN[name]


@pytest.mark.parametrize("kind, ends, width, n", [
    (Kind.FINITE, (0.0, 10.0), 0.3, 34),          # ceil(10 / 0.3)
    (Kind.FINITE, (2.0, -1.0), 0.5, 6),           # |span| / width exactly
    (Kind.FINITE, (0.0, 1.0), 5.0, 2),            # at least 2
    (Kind.FINITE, (0.0, 1.0), 1e-6, 16384),       # at most 16384
    (Kind.FINITE, (0.0, 1.0), None, 8),           # no width
    (Kind.DECAYING_RAY, (1.0, 0.7), 3.0, 15),     # ceil((30 / 0.7) / 3)
    (Kind.DECAYING_RAY, (0.0, 2.0), 100.0, 8),    # at least 8 on a ray
    (Kind.DECAYING_RAY, (0.0, 1e-3), 1e-2, 16384),
    (Kind.DECAYING_RAY, (0.0, 2.0), None, 8),
    (Kind.DECAYING_RAY, (0.0, 2.0), 1.5, 10),     # ceil((30 / 2) / 1.5)
])
def test_panel_width_sets_initial_panels(kind, ends, width, n):
    # panel_width is the cap itself: ceil(span / panel_width) panels in x
    # (30 decay lengths on a ray), clamped to [2, 16384] on an interval and
    # [8, 16384] on a ray, 8 without it
    from wavecut.quadrature import _panel_edges

    spec = QuadratureSpec(kind, ends, panel_width=width, tol=1.0)
    assert len(_panel_edges(spec)) == n + 1
    # a loose tol stops integrate after its initial panels
    assert integrate(lambda x: np.exp(-x) + 0j, spec).evaluations == 15 * n


def test_panel_edges_equal_linspace():
    # the panel layout is np.linspace's, bit for bit, on either kind
    from wavecut.quadrature import _panel_edges

    rng = np.random.default_rng(3)
    for _ in range(2000):
        a, b = rng.normal(size=2) * 10.0 ** rng.integers(-9, 9, size=2)
        n = int(rng.integers(1, 5000))
        edges = _panel_edges(QuadratureSpec(Kind.FINITE, (a, b)), n)
        assert np.array(edges).tobytes() == \
            np.linspace(a, b, n + 1).tobytes()
    for width in (None, 0.0125, 0.75):
        spec = QuadratureSpec(Kind.DECAYING_RAY, (1.0, 0.7),
                              panel_width=width)
        edges = _panel_edges(spec)
        assert np.array(edges).tobytes() == \
            np.linspace(0.0, 1.0 - 1e-6, len(edges)).tobytes()
