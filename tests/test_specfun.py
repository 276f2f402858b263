"""Dilogarithm / arctangent-integral tests against known values, the
defining power series, and brute-force path quadrature."""

import cmath
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavecut import _purepy, specfun
from wavecut.specfun import (CATALAN, ZETA2, CutSideError, dilog, im_ti2,
                             ti2)

mp = pytest.importorskip("mpmath")


def test_dilog_trivial_values():
    assert dilog(0.0) == 0.0
    assert abs(dilog(1.0) - ZETA2) < 1e-14
    landen = ZETA2 / 2.0 - math.log(2.0) ** 2 / 2.0
    assert abs(dilog(0.5) - landen) < 1e-14


def test_dilog_derived_path_quadrature():
    # frozen from the independent Simpson path quadrature of -ln(1-u)/u
    z = 0.3 + 0.4j
    frozen = 0.26659686674274125 + 0.46136289181911067j
    assert abs(specfun.dilog_quadrature_reference(z) - frozen) < 1e-12
    assert abs(dilog(z) - frozen) < 1e-13


def test_dilog_against_mpmath_sweep():
    rng = np.random.default_rng(11)
    pts = rng.uniform(-6, 6, 200) + 1j * rng.uniform(-6, 6, 200)
    # the dispatch boundaries Re z = 1/2 (direct/reflection), the unit
    # circle (direct/inversion) and |1-z| = 1 (reflection/inversion), and
    # the rings |z| = 0.75, |1-z| = 0.75 and |z| = 1.4 inside the branches
    ring = np.exp(1j * (np.arange(48) + 0.5) * (2 * np.pi / 48))
    im = 1j * np.linspace(-3.0, 3.0, 49)
    half = [x + im for x in (np.nextafter(0.5, 0.0), 0.5,
                             np.nextafter(0.5, 1.0))]
    pts = np.concatenate([pts, 0.75 * ring, 1.0 - 0.75 * ring, 1.4 * ring,
                          ring, 1.0 - ring, *half])
    worst = 0.0
    for z in pts:
        ref = complex(mp.polylog(2, complex(z)))
        worst = max(worst, abs(dilog(complex(z)) - ref))
    assert worst < 5e-14


def test_dilog_cut_side_from_below():
    # on [1, inf) the value is the limit from below: Im = -pi ln x
    # 1.99, 2.0 and 2.01 straddle the switch from reflection to inversion
    # at |1-x| = 1
    for x in (1.2, 1.45, 1.5, 1.74, 1.76, 1.99, 2.0, 2.01, 2.5, 7.0, 9.0):
        v = dilog(x)
        assert v.imag == pytest.approx(-math.pi * math.log(x), abs=1e-13)
        below = complex(mp.polylog(2, complex(x, -1e-30)))
        assert abs(v - below) < 1e-13


def test_dilog_relative_accuracy_near_zero():
    # Li2(z) ~ z: the direct map must form -ln(1-z) without cancellation
    rng = np.random.default_rng(21)
    mod = 10.0 ** rng.uniform(-300.0, -3.0, 300)
    z = mod * np.exp(1j * rng.uniform(0.0, 2 * np.pi, 300))
    z = np.concatenate([z, [1e-300, -1e-20, 3e-17, -2e-9j]])
    out = dilog(z)
    with mp.workdps(30):
        ref = np.array([complex(mp.polylog(2, mp.mpc(c.real, c.imag)))
                        for c in z])
    assert np.max(np.abs(out - ref) / np.abs(ref)) < 2e-15


def _li2_reference(z: complex) -> complex:
    # mpmath at 30 digits; real z > 1 as the limit from below the cut
    if z.imag == 0.0 and z.real > 1.0:
        z = complex(z.real, -1e-40 * z.real)
    with mp.workdps(30):
        return complex(mp.polylog(2, mp.mpc(z.real, z.imag)))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(log_mod=st.floats(-300.0, 300.0),
       arg=st.one_of(st.floats(-math.pi, math.pi),
                     st.sampled_from([0.0, math.pi / 2, math.pi,
                                      -math.pi / 2, -math.pi])))
def test_dilog_property_against_mpmath(log_mod, arg):
    # |z| log-uniform over the whole double range, any argument; the
    # sampled angles put z on the axes and on the cut [1, inf)
    z = 10.0 ** log_mod * complex(math.cos(arg), math.sin(arg))
    if arg in (0.0, math.pi, -math.pi):
        z = complex(z.real, 0.0)
    elif abs(arg) == math.pi / 2:
        z = complex(0.0, z.imag)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val = dilog(z)
    ref = _li2_reference(z)
    assert abs(val - ref) <= 5e-14 * max(1.0, abs(ref))
    if abs(z) <= 1e-3:
        assert abs(val - ref) <= 1e-15 * abs(ref)


def test_dilog_large_modulus_without_overflow():
    # the dispatch masks square |z|: they must not overflow up to 1e300
    z = np.array([1e200 + 1e200j, 1e300 + 1e300j, -1e300, 1e300,
                  1e300j, -1e300j, 1e300 - 1e-300j, -1e300 + 1e300j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = dilog(z)
        t = ti2(np.array([1e200 + 1j, 1e300 + 1e300j]))
    for v, c in zip(out, z):
        ref = _li2_reference(complex(c))
        assert abs(v - ref) <= 1e-15 * abs(ref)
    assert np.all(np.isfinite(t))


def test_log_helpers_match_numpy_log():
    # on-cut signed zeros pick the side, as np.log does
    x = np.array([0.25, 0.5, 1.0, 3.0, 1e5])
    for zero in (0.0, -0.0):
        y = np.full_like(x, zero)
        lg = _purepy._log(-x, y)
        ref = np.log(np.array([complex(-c, zero) for c in x]))
        assert np.array_equal(lg.imag, ref.imag)
        assert np.allclose(lg.real, ref.real, rtol=0.0, atol=1e-15)
        # ln(1 - v) at v = -x -+ 0j, |v| <= 1: 1 - v = 1 + x +- 0j
        xs, ys = x[x <= 1.0], y[x <= 1.0]
        lm = _purepy._log1m(-xs, -ys)
        ref = np.log(np.array([complex(1.0 + c, zero) for c in xs]))
        assert np.array_equal(np.signbit(lm.imag), np.signbit(ref.imag))
        assert np.allclose(lm, ref, rtol=0.0, atol=1e-15)
    # the rings |z| = 1 and |1 - z| = 1 bound the three maps
    ring = np.exp(1j * (np.arange(64) + 0.5) * (2 * np.pi / 64))
    for z in (ring, 1.0 - ring):
        assert np.allclose(_purepy._log(z.real, z.imag), np.log(z),
                           rtol=0.0, atol=1e-15)
        inner = z[z.real < 0.5]
        assert np.allclose(_purepy._log1m(inner.real, inner.imag),
                           np.log(1.0 - inner), rtol=0.0, atol=1e-15)


def test_dilog_matches_series_inside_disk():
    rng = np.random.default_rng(3)
    for _ in range(60):
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        assert abs(dilog(z) - specfun.dilog_series_reference(z)) < 1e-13


def test_dilog_reflection_property():
    rng = np.random.default_rng(4)
    count = 0
    while count < 100:
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(z) >= 0.98 or abs(z) < 0.02 or abs(1 - z) < 0.02:
            continue
        count += 1
        lhs = dilog(z) + dilog(1.0 - z)
        rhs = ZETA2 - cmath.log(z) * cmath.log(1.0 - z)
        assert abs(lhs - rhs) < 1e-11


def test_ti2_trivial_values():
    assert ti2(0.0) == 0.0
    assert abs(ti2(1.0) - CATALAN) < 1e-14


def test_ti2_derived_path_quadrature():
    z = (2.0 + 1.0j) / math.sqrt(5.0)
    frozen = 0.8612243718072629 + 0.3641479805728515j
    assert abs(specfun.ti2_quadrature_reference(z) - frozen) < 1e-12
    assert abs(ti2(z) - frozen) < 1e-12


def test_ti2_oddness():
    rng = np.random.default_rng(7)
    n = 0
    while n < 100:
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(z) > 2 or (abs(z.real) < 1e-3 and abs(z.imag) > 0.97):
            continue
        n += 1
        assert abs(ti2(z) + ti2(-z)) < 1e-12


def test_ti2_series_consistency():
    rng = np.random.default_rng(9)
    for _ in range(40):
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        assert abs(ti2(z) - specfun.ti2_series_reference(z)) < 1e-12


def test_im_ti2_real_argument_is_zero():
    for x in (-3.0, -0.4, 0.2, 5.0):
        assert im_ti2(x) == 0.0


def test_im_ti2_imaginary_argument():
    # Ti2(i v) = i * integral_0^v artanh(t)/t dt: nonzero imaginary part
    frozen = 0.5153273666943293
    assert im_ti2(0.5j) == pytest.approx(frozen, abs=1e-12)
    assert abs(specfun.ti2_quadrature_reference(0.5j).imag
               - frozen) < 1e-12


def test_ti2_cut_requires_side():
    with pytest.raises(CutSideError):
        ti2(1.5j)
    left = ti2(1.5j, side=-1)
    right = ti2(1.5j, side=+1)
    assert left != right
    # sides agree with nearby off-cut values
    assert abs(right - ti2(1e-9 + 1.5j)) < 1e-7
    assert abs(left - ti2(-1e-9 + 1.5j)) < 1e-7


def test_dilog_array_shapes():
    z = np.array([[0.1 + 0.1j, 0.5], [1.0, -2.0 + 1.0j]])
    out = dilog(z)
    assert out.shape == z.shape
    assert abs(out[1, 0] - ZETA2) < 1e-14


def test_no_nan_on_plane_sweep():
    rng = np.random.default_rng(12)
    z = rng.uniform(-10, 10, 500) + 1j * rng.uniform(-10, 10, 500)
    out = dilog(z)
    assert np.all(np.isfinite(out))
    out2 = ti2(z[np.abs(z.real) > 1e-6])
    assert np.all(np.isfinite(out2))


@pytest.mark.parametrize("fn", [dilog, ti2, im_ti2])
@pytest.mark.parametrize("z", [math.inf, math.nan, complex(1.0, math.inf),
                               complex(-math.inf, 1.0)])
def test_non_finite_argument_raises(fn, z):
    # a typed error naming the argument, not nan+nanj with RuntimeWarnings
    with pytest.raises(ValueError, match=re.escape(f"got {complex(z)}")):
        fn(z)
    # in an array the first non-finite element is named
    with pytest.raises(ValueError, match=re.escape("got (nan+0j)")):
        fn(np.array([0.5, math.nan, math.inf]))
