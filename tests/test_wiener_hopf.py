"""Factorization tests: closed form against the direct J-integral oracle,
confluence values, product identity, plus-factor conversions, and the
closed-form integral identities."""

import cmath
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavecut import _backend, _purepy
from wavecut import wiener_hopf as wh
from wavecut.model import ReducedParams
from wavecut.quadrature import QuadResult
from wavecut.specfun import dilog

RP = ReducedParams.from_a_k0(1.0, 2.0)
K = RP.K
NAN, INF = float("nan"), float("inf")


def test_j_vanishes_far_up():
    assert abs(wh.j_direct(1e6j, RP)) < 1e-4


def test_j_oracle_equivalence_at_generic_point():
    # frozen: J(1+1j) computed at tol 1e-11
    j = wh.j_direct(1 + 1j, RP, tol=1e-10)
    assert abs(j - (0.06948607742405793 + 0.16151951348996874j)) < 1e-9
    assert abs(wh.splus(1 + 1j, RP) - cmath.exp(-j)) < 1e-8


@pytest.fixture
def j_calls(monkeypatch):
    """Records every integrate call of the J oracle: a list of
    (evaluations, integrand calls)."""
    calls = []
    inner = wh.integrate

    def spy(f, *specs):
        def g(x):
            g.n += 1
            return f(x)
        g.n = 0
        res = inner(g, *specs)
        calls.append((res.evaluations, g.n))
        return res

    monkeypatch.setattr(wh, "integrate", spy)
    return calls


def test_j_oracle_matches_closed_form_on_sweep_box():
    # the oracle density is smooth on the whole axis, for either sign of
    # Re k: its gap is far below the quadrature tolerance
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(400):
        rp = ReducedParams.from_a_k0(rng.uniform(0.5, 5.0),
                                     rng.uniform(0.1, 5.0))
        k = complex(rng.uniform(-3.0, 3.0), rng.uniform(0.1, 5.0))
        sp = wh.splus(k, rp)
        oracle = cmath.exp(-wh.j_direct(k, rp, tol=1e-9))
        worst = max(worst, abs(sp - oracle) / abs(sp))
    assert worst <= 1e-11


def test_j_oracle_evaluations_on_standard_grid(j_calls):
    # one integrate call per J on one density without endpoint
    # singularities (12,540 evaluations in 87 integrand calls)
    for x in (-3.0, -1.0, 0.0, 1.0, 3.0):
        for y in (0.1, 0.5, 1.0, 2.0, 5.0):
            wh.j_direct(complex(x, y), RP, tol=1e-9)
    assert len(j_calls) == 25
    assert sum(n for n, _ in j_calls) <= 14_000
    assert sum(c for _, c in j_calls) <= 100


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(a=st.floats(0.5, 5.0), k0=st.floats(0.1, 5.0),
       x=st.floats(-3.0, 3.0), y=st.floats(0.1, 5.0))
def test_splus_oracle_property(a, k0, x, y):
    # the sweep workload's box, at the oracle tolerance it uses
    rp = ReducedParams.from_a_k0(a, k0)
    k = complex(x, y)
    sp = wh.splus(k, rp)
    oracle = cmath.exp(-wh.j_direct(k, rp, tol=1e-9))
    assert abs(sp - oracle) / abs(sp) <= 1e-9


def test_j_second_integral_tabulated_value():
    # at k = 2i the tabulated value is pi Log(1 - i), with (k0/k)^2 on the
    # negative real axis; off the imaginary axis the general branch takes
    # the principal log (residuals about 1.6e-13)
    for k in (2j, 1 + 1j, 3.0, -3.0, 0.5 + 0.1j, -1 + 2j):
        assert wh.j_second_integral_check(k, RP) < 1e-9, k


def test_j_real_axis_delta_limit():
    # real k defined by the limit from above; compare with the closed form
    for x in (0.7, 1.6, 3.2):
        j = wh.j_direct(complex(x), RP, tol=1e-9)
        sp = wh.splus(complex(x), RP)
        assert abs(cmath.exp(-j) - sp) < 1e-5


def test_j_real_axis_limit_near_minus_k0():
    # J ~ -Log(k + k0)/2 near -k0: the limit step shrinks with |k + k0|
    for x in (-2.0001, -2.001, -1.999, -1.9999):
        j = wh.j_direct(complex(x), RP, tol=1e-9)
        sp = wh.splus(complex(x), RP)
        assert abs(cmath.exp(-j) - sp) / abs(sp) < 1e-6, x
    # closer in, the pole u = -k pinches the branch point u = k0: a typed
    # failure, not an O(1)-wrong value
    with pytest.raises(ArithmeticError):
        wh.j_direct(complex(-2.0 - 1e-6), RP, tol=1e-9)


def test_j_direct_logs_accepted_nonconvergence(caplog):
    # on real k at tight tol each step of the limit exhausts its split
    # budget a little short of tol; the value is kept, and said so
    caplog.set_level(logging.WARNING, logger="wavecut.wiener_hopf")
    wh.j_direct(0.5, RP, tol=1e-12)
    assert caplog.records
    assert all(r.levelno == logging.WARNING and
               "unconverged" in r.getMessage() for r in caplog.records)
    caplog.clear()
    wh.j_direct(0.5 + 0.5j, RP, tol=1e-11)
    assert not caplog.records


def test_j_axis_refines_until_its_floor_fits_in_tol():
    # at these parameters the gap piece's panel errors sum to just under
    # its tol and the roundoff floor takes the total past it: refinement
    # goes on until the two together fit, the rule converged is judged by
    rp = ReducedParams.from_a_k0(1.895274163524686, 1.463629551289868)
    k = -1.4052530324709698 + 0.11325322419008921j
    res = wh.j_axis(k, rp, tol=1e-9)
    assert res.converged
    assert abs(res.value + cmath.log(wh.splus(k, rp))) <= res.err_est <= 1e-9


@pytest.mark.parametrize("k", [1e-8j, 1e-6j, 1e-4j, 1e-6 + 1e-8j])
def test_j_oracle_err_est_bounds_gap_at_small_k(k):
    # at |k| << k0 the poles u = +-k make a spike of width |k| at the
    # gap's end u = 0: its panels must see it, or err_est is too small
    res = wh.j_axis(k, RP, tol=1e-9)
    gap = abs(res.value + cmath.log(wh.splus(k, RP)))
    assert res.converged
    assert gap <= res.err_est


@pytest.mark.xfail(strict=True, reason="known defect: a pole of width "
                   "Im k just above the path away from u = 0 is finer "
                   "than the v panels resolve; err_est 3.3e-10 against a "
                   "gap of 6.2e-10")
def test_j_oracle_err_est_bounds_gap_near_pole_off_zero():
    # the pole u = k sits 1e-8 above the axis at u = 1, inside the gap
    res = wh.j_axis(1.0 + 1e-8j, RP, tol=1e-9)
    gap = abs(res.value + cmath.log(wh.splus(1.0 + 1e-8j, RP)))
    assert res.converged
    assert gap <= res.err_est


def test_j_rejects_lower_half_plane():
    with pytest.raises(ValueError):
        wh.j_direct(1 - 1j, RP)


@pytest.mark.parametrize("k", [complex(NAN, 1.0), complex(1.0, INF),
                               complex(-INF, 1.0), complex(NAN, 0.0)])
def test_j_rejects_non_finite_k(k):
    # a NaN per-piece tol would otherwise report "tol must be positive"
    with pytest.raises(ValueError, match="finite k"):
        wh.j_direct(k, RP)
    with pytest.raises(ValueError, match="finite k"):
        wh.j_axis(k, RP)


def test_j_axis_requires_upper_half_plane():
    # its piece tolerances scale with 1/|k|, and real k puts the pole
    # u = k on the path
    for k in (0j, 1.0, 1.0 - 1.0j):
        with pytest.raises(ValueError):
            wh.j_axis(k, RP)


def test_j_axis_returns_quad_result():
    res = wh.j_axis(1.0 + 1.0j, RP, tol=1e-9)
    assert isinstance(res, QuadResult)
    assert res.converged and res.evaluations > 0
    assert res.value == wh.j_direct(1.0 + 1.0j, RP, tol=1e-9)


def test_splus_oracle_random_params():
    # robustness beyond the standard grid, including the strong-coupling
    # corner a >> |k|
    rng = np.random.default_rng(77)
    for _ in range(8):
        rp = ReducedParams.from_a_k0(rng.uniform(0.1, 5.0),
                                     rng.uniform(0.1, 5.0))
        k = complex(rng.uniform(-3, 3), rng.uniform(0.1, 3))
        sp = wh.splus(k, rp)
        oracle = cmath.exp(-wh.j_direct(k, rp, tol=1e-9))
        assert abs(sp - oracle) / abs(sp) < 1e-6, (rp, k)
    # a large, |k| small
    rp = ReducedParams.from_a_k0(5.0, 2.0)
    k = 0.3 + 0.2j
    assert abs(wh.splus(k, rp)
               - cmath.exp(-wh.j_direct(k, rp, tol=1e-9))) < 1e-6


def test_splus_oracle_grid():
    # the standard 5x5 grid, all columns including Re k <= 0
    worst = 0.0
    for x in (-3.0, -1.0, 0.0, 1.0, 3.0):
        for y in (0.1, 0.5, 1.0, 2.0, 5.0):
            k = complex(x, y)
            sp = wh.splus(k, RP)
            assert abs(sp) > 0.0
            oracle = cmath.exp(-wh.j_direct(k, RP, tol=1e-9))
            worst = max(worst, abs(sp - oracle) / abs(sp))
    assert worst < 1e-6


def test_splus_limits():
    assert abs(wh.splus(1e8j, RP) - 1.0) < 1e-7
    assert abs(wh.splus(1e8 + 1e4j, RP) - 1.0) < 1e-7


def test_splus_at_zero_closed_value():
    # S+(0) = sqrt(k0/K) e^{-i atan(a/k0)/2}
    want = math.sqrt(RP.k0 / K) * cmath.exp(-0.5j * math.atan(RP.a / RP.k0))
    assert abs(wh.splus(0.0, RP) - want) < 1e-12


def test_splus_modulus_on_segment():
    # on 0 < x < k0 the exponent of the closed form is a pure phase
    x = np.linspace(1e-6, RP.k0 - 1e-6, 500)
    want = np.sqrt((x + RP.k0) / (x + K))
    assert np.abs(np.abs(wh.splus_array(x, RP)) - want).max() < 1e-13


def test_splus_blocks_match_pointwise(monkeypatch):
    # S+ sends the four dilogarithms of each block of points to one dilog
    # call; blocking must not change values, and the call count is what
    # a tracer patched onto _purepy.dilog reports
    rng = np.random.default_rng(17)
    n = 5000
    k = rng.uniform(-6.0, 6.0, n) + 1j * rng.uniform(0.0, 4.0, n)
    k[::10] = k[::10].real
    want = np.array([wh.splus(kk, RP) for kk in k])
    calls = []
    inner = _purepy.dilog
    wh._confluence_phase.cache_clear()
    monkeypatch.setattr(_purepy, "dilog",
                        lambda z: calls.append(z.size) or inner(z))
    got = wh.splus_array(k, RP)
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-15
    for size in (1, 1024, 1025, n):
        calls.clear()
        wh.splus_array(k[:size], RP)
        assert len(calls) == math.ceil(size / 1024)
        assert sum(calls) == 4 * size


def test_splus_per_point_parameters_match_scalar_calls():
    # k0 and K given per point (as the unified ladder passes its three
    # lines' eps-shifted values): each point equals its scalar call, bit
    # for bit, across block boundaries that cut the parameter runs
    rng = np.random.default_rng(5)
    runs = []
    for eps, n in ((3e-3, 700), (1e-3, 900), (3e-4, 650)):
        k0e = complex(RP.k0, eps)
        Ke = cmath.sqrt(k0e * k0e + RP.a * RP.a)
        k = rng.uniform(-8.0, 8.0, n) + 1j * rng.uniform(0.0, 2e-3, n)
        runs.append((k, k0e, Ke, _purepy.splus(k, RP.a, k0e, Ke)))
    k = np.concatenate([r[0] for r in runs])
    k0 = np.concatenate([np.full(len(r[0]), r[1]) for r in runs])
    Kp = np.concatenate([np.full(len(r[0]), r[2]) for r in runs])
    assert len(k) > 2 * 1024
    got = _purepy.splus(k, RP.a, k0, Kp)
    assert got.tobytes() == np.concatenate([r[3] for r in runs]).tobytes()
    # the unified route's S+ memo relies on it: any subset of the points,
    # here permuted and strided, and single points, give the same bytes
    perm = rng.permutation(len(k))
    sub = _purepy.splus(k[perm][::3], RP.a, k0[perm][::3], Kp[perm][::3])
    assert sub.tobytes() == got[perm][::3].tobytes()
    for i in perm[:5]:
        one = _purepy.splus(k[i:i + 1], RP.a, k0[i:i + 1], Kp[i:i + 1])
        assert one.tobytes() == got[i:i + 1].tobytes()


def test_splus_confluence_guard():
    with pytest.raises(wh.ConfluenceError):
        wh.splus(K, RP)
    with pytest.raises(wh.ConfluenceError):
        wh.splus(-K, RP)


def test_splus_at_K_value_and_limit():
    v = wh.splus_at_K(RP)
    assert abs(v) == pytest.approx(math.sqrt((K + RP.k0) / (2 * K)),
                                   abs=1e-14)
    assert abs(v) == pytest.approx(0.9732489894677301, abs=1e-10)
    # Richardson limit of the generic closed form along K + i delta
    deltas = [1e-2, 1e-3, 1e-4]
    vals = [wh.splus(complex(K, d), RP) for d in deltas]
    lim = vals[2] + (vals[2] - vals[1]) * 1e-4 / (1e-3 - 1e-4)
    assert abs(lim - v) < 1e-6


def test_splus_at_K_free_limit():
    rp = ReducedParams.from_a_k0(1e-8, 2.0)
    assert abs(wh.splus_at_K(rp) - 1.0) < 1e-7


def test_product_identity_standard():
    assert wh.splus_product_identity(RP) < 1e-9


def test_product_identity_random_params():
    rng = np.random.default_rng(42)
    for _ in range(20):
        rp = ReducedParams.from_a_k0(rng.uniform(0.1, 5.0),
                                     rng.uniform(0.1, 5.0))
        assert wh.splus_product_identity(rp) < 1e-9


def test_product_identity_free_limit():
    # S+(K) -> 1 as a -> 0 while S+(-K) -> 1/2: the confluence value at -K
    # is discontinuous in the free limit and the product stays 1/2
    rp = ReducedParams.from_a_k0(1e-6, 1.0)
    assert abs(wh.splus_at_K(rp) - 1.0) < 1e-5
    assert abs(wh.splus_at_minus_K(rp) - 0.5) < 1e-5
    assert wh.splus_product_identity(rp) < 1e-9


def test_sigma_plus_conversion():
    rng = np.random.default_rng(21)
    for _ in range(10):
        k = complex(rng.uniform(-3, 3), rng.uniform(0.1, 3))
        assert abs(wh.sigma_plus(k, RP)
                   - wh.splus(k, RP) * (k + K) / (k + RP.k0)) < 1e-13
    assert abs(wh.sigma_plus(1e8, RP) - 1.0) < 1e-7


def test_sigma_plus_coefficient_consistency():
    # a^2 sigma+(K)^2/(2K^2) = 2 (K-k0)/(K+k0) S+(K)^2
    rng = np.random.default_rng(33)
    for _ in range(10):
        rp = ReducedParams.from_a_k0(rng.uniform(0.2, 4.0),
                                     rng.uniform(0.2, 4.0))
        sp = wh.splus_at_K(rp)
        sig = wh.sigma_plus(rp.K, rp)
        lhs = rp.a ** 2 * sig * sig / (2.0 * rp.K ** 2)
        rhs = 2.0 * (rp.K - rp.k0) / (rp.K + rp.k0) * sp * sp
        assert abs(lhs - rhs) < 1e-10


def test_sigma_plus_reflected_modulus():
    # modulus^2 of the reflected coefficient reproduces (K-k0)^2/K^2,
    # using |S+(K)|^2 = (K+k0)/(2K)
    from wavecut.model import reflection
    rng = np.random.default_rng(31)
    for _ in range(10):
        rp = ReducedParams.from_a_k0(rng.uniform(0.2, 4.0),
                                     rng.uniform(0.2, 4.0))
        coeff = (rp.a ** 2 * wh.sigma_plus(rp.K, rp) ** 2
                 / (2.0 * rp.K ** 2))
        assert abs(abs(coeff) ** 2 - reflection(rp)) < 1e-12


def test_sigma_plus_pole_errors():
    with pytest.raises(ValueError):
        wh.sigma_plus(-RP.k0, RP)
    with pytest.raises(ValueError):
        wh.sigma_plus(-K, RP)


@pytest.mark.parametrize("c,alpha", [(2.0, 1.0), (3.0, 0.0), (1.1, 0.99)])
def test_appendix_b_closed_vs_quadrature(c, alpha):
    cf = wh.appendix_b_closed(c, alpha)
    bf = wh.appendix_b_quadrature(c, alpha)
    assert abs(cf - bf) / abs(cf) < 1e-9


def test_appendix_b_log2_case():
    # c=1, alpha=0: both arctangent-integral terms cancel pairwise
    assert wh.appendix_b_closed(1.0, 0.0) == pytest.approx(
        math.pi / 2.0 * math.log(2.0), abs=1e-12)


def test_appendix_b_domain():
    with pytest.raises(ValueError):
        wh.appendix_b_closed(0.5, 0.0)
    with pytest.raises(ValueError):
        wh.appendix_b_closed(2.0, 3.0)
    # NaN passes every comparison and inf turns into NaN: both sides of
    # the identity name a non-finite input before any arithmetic
    for c, alpha, name in ((NAN, 0.0, "c"), (2.0, NAN, "alpha"),
                           (INF, 0.0, "c"), (2.0, -INF, "alpha")):
        for f in (wh.appendix_b_closed, wh.appendix_b_quadrature):
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                f(c, alpha)
    # the quadrature's logarithm needs sqrt(x^2 + c^2) + alpha > 0
    for c, alpha in ((2.0, -3.0), (2.0, -2.0), (-2.0, -2.5), (0.0, 0.0)):
        with pytest.raises(ValueError, match="requires alpha >"):
            wh.appendix_b_quadrature(c, alpha)


@pytest.mark.parametrize("k", [0j, 0.0, complex(NAN, 1.0),
                               complex(1.0, INF)])
def test_j_second_integral_check_domain(k):
    with pytest.raises(ValueError, match="finite nonzero k"):
        wh.j_second_integral_check(k, RP)


@pytest.mark.parametrize("a_b,b", [(0.5, 1.0), (0.9, 3.0), (0.17, 0.4)])
def test_b3_identity(a_b, b):
    assert wh.b3_identity_check(a_b, b) < 1e-9


def test_b3_trivial_and_domain():
    assert wh.b3_identity_check(0.5, 0.0) == 0.0
    with pytest.raises(ValueError):
        wh.b3_identity_check(1.5, 1.0)
    with pytest.raises(ValueError):
        wh.b3_identity_check(0.5, -1.0)


def test_confluence_values_share_one_dilog_call(monkeypatch):
    # S+(K), S+(-K) and the product identity at one parameter set take
    # the confluence phase from one memoised 2-point dilog call
    rp = ReducedParams.from_a_k0(0.7, 1.3)
    calls = []
    inner = _backend.dilog
    wh._confluence_phase.cache_clear()
    monkeypatch.setattr(_backend, "dilog",
                        lambda z: calls.append(z.size) or inner(z))
    sK, smK = wh.splus_at_K(rp), wh.splus_at_minus_K(rp)
    wh.splus_product_identity(rp)
    assert calls == [2]
    ph = (dilog(-rp.a / rp.K) - dilog(rp.a / rp.K)).real / (2.0 * math.pi)
    assert sK == math.sqrt((rp.K + rp.k0) / (2 * rp.K)) * cmath.exp(1j * ph)
    assert smK == (math.sqrt(rp.K / (2 * (rp.K + rp.k0)))
                   * cmath.exp(-1j * ph))


def test_splus_phase_anchor_eq_dilog():
    # the confluence phase is (Li2(-a/K) - Li2(a/K))/(2 pi)
    ph = (dilog(-RP.a / K) - dilog(RP.a / K)).real / (2.0 * math.pi)
    assert cmath.phase(wh.splus_at_K(RP)) == pytest.approx(ph, abs=1e-14)
