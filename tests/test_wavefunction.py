"""Wave-function routes: regional wraps, unified line integral, the
far-field laws, and the diagnostics."""

import cmath
import copy
import logging
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavecut import wavefunction as wf
from wavecut import wiener_hopf as wh
from wavecut.model import ReducedParams, reflection
from wavecut.wavefunction import (Method, expected_displacement, far_field,
                                  phi_integral, psi_approx31, psi_atom,
                                  psi_free, psi_tail_saddle, psi_unified,
                                  psi_unified_extrapolated, scan_grid,
                                  steepest_descent, tail_exponent,
                                  unified_residue_check)

RP = ReducedParams.from_a_k0(1.0, 2.0)
K = RP.K
FAR_CONST = 0.015465667428317294  # a/(pi K^2 sqrt(2 k0 (K+k0))) at a=1, k0=2


# ----------------------------------------------------------------------
# regional forms
# ----------------------------------------------------------------------

def test_psi_free_region_guard():
    with pytest.raises(ValueError):
        psi_free(1.0, 0.0, RP)
    with pytest.raises(ValueError):
        psi_atom(-1.0, 0.0, RP)
    with pytest.raises(ValueError):
        psi_unified(0.0, 0.0, RP)


def test_psi_symmetric_in_y():
    for (R, y) in [(-3.0, 1.25), (-0.7, 4.0)]:
        assert psi_free(R, y, RP).psi == psi_free(R, -y, RP).psi
    s1, s2 = psi_atom(2.0, 0.8, RP), psi_atom(2.0, -0.8, RP)
    assert s1.psi == s2.psi


def test_vertical_leg_decay_validates_neglect():
    # the e^{-t|R|} leg shrinks with |R| (its t ~ 0 end makes the overall
    # decay ~1/|R| rather than exponential), while the segment field only
    # decays like |R|^(-1/2): the leg becomes relatively negligible
    diffs, mains = [], []
    for R in (-1.0, -2.0, -4.0):
        with_leg = psi_free(R, 0.0, RP, tol=1e-11)
        without = psi_free(R, 0.0, RP, tol=1e-11, include_vertical_leg=False)
        diffs.append(abs(with_leg.psi - without.psi))
        mains.append(abs(without.psi))
        # the neglected piece is reported inside err_est
        assert without.err_est >= 0.9 * diffs[-1]
    assert diffs[0] > diffs[1] > diffs[2]
    assert diffs[0] / diffs[2] > 3.0
    rel = [d / m for d, m in zip(diffs, mains)]
    assert rel[0] > rel[1] > rel[2]


@pytest.mark.parametrize("tol, converged", [(1e-6, False), (1e-1, True)])
def test_regional_converged_agrees_with_grid(tol, converged):
    # the neglected leg (err_est 2.2e-2 here) counts against tol on the
    # adaptive route as on the grid
    s = psi_free(-3.0, 0.0, RP, tol=tol, include_vertical_leg=False)
    g = scan_grid([-3.0], [0.0], RP, tol=tol, method=Method.REGIONAL)
    assert s.converged == bool(g.converged[0, 0]) == converged


def test_methods_recorded():
    assert psi_free(-2.0, 0.5, RP).method is Method.REGIONAL_WITH_VERTICAL_LEG
    assert psi_free(-2.0, 0.5, RP, include_vertical_leg=False).method \
        is Method.REGIONAL
    assert psi_approx31(-2.0, 0.5, RP).method is Method.APPROX_31
    assert psi_atom(2.0, 0.5, RP).method is Method.REGIONAL_WITH_VERTICAL_LEG


def test_result_records_round_trip():
    # slotted frozen records: no per-instance dict, still pickle and copy
    rec = psi_free(-2.0, 0.5, RP)
    assert not hasattr(rec, "__dict__")
    assert pickle.loads(pickle.dumps(rec)) == rec
    assert copy.copy(rec) == rec and copy.deepcopy(rec) == rec


def test_total_reflection_segment_suppressed():
    # as k0 -> 0 the segment field vanishes like k0 and only the
    # evanescent leg remains (reported through err_est when neglected)
    rp6 = ReducedParams.from_a_k0(1.0, 1e-6)
    rp4 = ReducedParams.from_a_k0(1.0, 1e-4)
    s6 = psi_free(-2.0, 0.5, rp6, tol=1e-10, include_vertical_leg=False)
    s4 = psi_free(-2.0, 0.5, rp4, tol=1e-10, include_vertical_leg=False)
    assert abs(s6.psi) ** 2 < 2e-6
    assert abs(s6.psi) ** 2 < 1e-2 * abs(s4.psi) ** 2 * 2.0  # ~k0 scaling
    assert s6.err_est > 0.1  # evanescent remnant is order-one at R = -2
    assert reflection(rp6) > 1.0 - 1e-5


@pytest.mark.xfail(strict=True,
                   reason="stated bound |psi|^2 < 1e-8 is unattainable: the "
                          "segment field scales like k0 (~8e-7 at k0=1e-6) "
                          "because 1/S+(x) ~ (K/k0)^(1/2) on the segment")
def test_total_reflection_stated_bound():
    rp6 = ReducedParams.from_a_k0(1.0, 1e-6)
    s6 = psi_free(-2.0, 0.5, rp6, tol=1e-10, include_vertical_leg=False)
    assert abs(s6.psi) ** 2 < 1e-8


def test_psi_atom_incident_unit_and_reflected():
    # the y -> infinity limit kills the bound terms: psi -> -Phi
    s = psi_atom(3.0, 25.0, RP, tol=1e-9)
    phi = phi_integral(3.0, 25.0, RP, tol=1e-9)
    assert abs(s.psi + phi) < 1e-6
    # reflected coefficient modulus^2 equals the reflection probability
    sK = wh.splus_at_K(RP)
    coeff = 2.0 * (RP.K - RP.k0) / (RP.K + RP.k0) * sK * sK
    assert abs(abs(coeff) ** 2 - reflection(RP)) < 1e-12
    assert abs(coeff) ** 2 == pytest.approx(0.011145618, abs=1e-7)


def test_psi_atom_oscillation_period():
    # |psi(R,0)|^2 oscillates with period ~ pi/K from e^{-iKR} vs e^{iKR}
    Rs = np.linspace(0.25, 12.0, 472)
    g = scan_grid(Rs, [0.0], RP, tol=1e-8)
    a2 = np.abs(g.samples[:, 0]) ** 2
    idx = [i for i in range(1, len(a2) - 1)
           if a2[i] >= a2[i - 1] and a2[i] > a2[i + 1]]
    period = float(np.diff(g.R_values[idx]).mean())
    assert period == pytest.approx(math.pi / K, rel=0.05)


def test_phi_far_field_decay():
    vals = [abs(phi_integral(R, 0.0, RP, tol=1e-10)) for R in (10., 20., 40.)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 0.5 * vals[0]
    assert vals[2] < 1e-3


def test_phi_prefactor_linear_in_a():
    phi_a = phi_integral(4.0, 1.0, ReducedParams.from_a_k0(1e-4, 2.0),
                         tol=1e-12)
    assert abs(phi_a) < 1e-3  # vanishes with the coupling


# ----------------------------------------------------------------------
# unified route
# ----------------------------------------------------------------------

def test_route_equivalence_all_points():
    for (R, y) in [(-5.0, 0.0), (-5.0, 2.0), (3.0, 1.0)]:
        uni = psi_unified_extrapolated(R, y, RP, tol=1e-7)
        reg = (psi_free if R < 0 else psi_atom)(R, y, RP, tol=1e-9)
        dev = abs(uni.psi - reg.psi) / abs(uni.psi)
        assert dev < 1e-4, (R, y, dev)


def test_route_equivalence_awkward_points():
    # near the region boundary, deep field, wide angle, other couplings
    cases = [
        (RP, -0.5, 3.0), (RP, 0.5, 0.2), (RP, 1.0, 0.0), (RP, -12.0, 1.0),
        (ReducedParams.from_a_k0(0.5, 3.0), -4.0, 1.0),
        (ReducedParams.from_a_k0(3.0, 0.7), 2.0, 0.5),
    ]
    for rp, R, y in cases:
        uni = psi_unified_extrapolated(R, y, rp, tol=1e-7)
        reg = (psi_free if R < 0 else psi_atom)(R, y, rp, tol=1e-10)
        dev = abs(uni.psi - reg.psi) / abs(uni.psi)
        assert dev < 1e-4, (rp, R, y, dev)


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(aR=st.floats(0.5, 10.0), sign=st.sampled_from((-1.0, 1.0)),
       y=st.floats(0.0, 3.0))
def test_unified_route_property(aR, sign, y):
    # the unified workload's box at (1, 2); outside it the unified err_est
    # can understate the gap (pinned by a strict xfail in perfbench)
    R = sign * aR
    uni = psi_unified_extrapolated(R, y, RP, tol=1e-7)
    reg = (psi_free if R < 0 else psi_atom)(R, y, RP, tol=1e-8)
    if uni.converged and reg.converged:
        assert abs(uni.psi - reg.psi) <= uni.err_est + reg.err_est
    assert psi_unified_extrapolated(R, -y, RP, tol=1e-7).psi == uni.psi
    if R < 0:
        routes = [lambda yy: psi_free(R, yy, RP),
                  lambda yy: psi_free(R, yy, RP, include_vertical_leg=False),
                  lambda yy: psi_approx31(R, yy, RP)]
    else:
        routes = [lambda yy: psi_atom(R, yy, RP),
                  lambda yy: phi_integral(R, yy, RP)]
    for route in routes:
        up, down = route(y), route(-y)
        assert getattr(up, "psi", up) == getattr(down, "psi", down)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(log_a=st.floats(math.log(1e-3), math.log(5.0)),
       log_k0=st.floats(math.log(1e-3), math.log(5.0)),
       aR=st.floats(0.5, 10.0), y=st.floats(0.0, 3.0))
def test_regional_routes_even_in_y(log_a, log_k0, aR, y):
    # bit for bit: every piece sees y through |y| only, at any (a, k0)
    rp = ReducedParams.from_a_k0(math.exp(log_a), math.exp(log_k0))
    for route, R in ((psi_free, -aR), (psi_approx31, -aR), (psi_atom, aR)):
        assert route(R, y, rp).psi == route(R, -y, rp).psi


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(log_a=st.floats(math.log(0.05), math.log(5.0)),
       log_k0=st.floats(math.log(0.05), math.log(5.0)),
       aR=st.floats(0.2, 60.0), sign=st.sampled_from((-1.0, 1.0)),
       y=st.floats(0.01, 20.0))
def test_regional_err_est_bounds_gap(log_a, log_k0, aR, sign, y):
    # initial panels one wavelength wide: at tol 1e-8 the adaptive routes
    # still converge and err_est bounds the gap to a tol 1e-13 value
    rp = ReducedParams.from_a_k0(math.exp(log_a), math.exp(log_k0))
    R = sign * aR
    route = psi_free if R < 0 else psi_atom
    s = route(R, y, rp, tol=1e-8)
    assert s.converged
    assert abs(s.psi - route(R, y, rp, tol=1e-13).psi) <= s.err_est


@pytest.mark.parametrize("R, y, bound", [
    (-300.0, 2.0, 3_300), (-3000.0, 2.0, 31_600), (3000.0, 2.0, 31_600),
    (-5.0, 500.0, 16_200)])
def test_regional_evaluation_counts(monkeypatch, R, y, bound):
    # the initial layout, not tol, sets the cost of a call: bounds about
    # 10% above the counts at one wavelength per initial panel (2,955,
    # 28,710 for either sign, 14,760)
    evals = []
    real = wf.integrate

    def counted(f, *specs):
        res = real(f, *specs)
        evals.append(res.evaluations)
        return res

    monkeypatch.setattr(wf, "integrate", counted)
    s = (psi_free if R < 0 else psi_atom)(R, y, RP, tol=1e-8)
    assert s.converged
    assert sum(evals) <= bound


def test_unified_eps_guard():
    with pytest.raises(ValueError):
        psi_unified(-2.0, 0.0, RP, eps=1e-9)
    with pytest.raises(ValueError):
        psi_unified(-2.0, 0.0, RP, eps=-1.0)


def test_unified_residue_unit_incident():
    assert unified_residue_check(RP) < 1e-6


def test_unified_alpha_eps_stable():
    # the normalization constant moves only at first order in eps
    from wavecut.wavefunction import _eps_params
    a1 = _eps_params(RP, 1e-3)[2]
    a2 = _eps_params(RP, 2e-3)[2]
    a0 = 2.0 * a1 - a2  # linear extrapolation
    alpha_exact = 2j * K * wh.splus_at_K(RP) / (K + RP.k0)
    assert abs(a0 - alpha_exact) < 1e-5 * abs(alpha_exact)


# ----------------------------------------------------------------------
# asymptotics
# ----------------------------------------------------------------------

def test_far_field_modulus_constant():
    for R in (-50.0, -100.0, -200.0):
        s = far_field(R, 0.0, RP)
        assert abs(s) * abs(R) == pytest.approx(FAR_CONST, rel=1e-12)


def test_far_field_phase_advance():
    for R in (-50.0, -200.0):
        p0 = far_field(R, 0.0, RP)
        p1 = far_field(R, 1.0, RP)
        adv = cmath.phase(p0 / p1)
        assert adv == pytest.approx(RP.k0, abs=1e-12)


def test_far_field_modulus_y_independent():
    R = -200.0
    mods = [abs(far_field(R, y, RP)) for y in np.linspace(0, 10, 11)]
    assert (max(mods) - min(mods)) / mods[0] < 1e-12


def test_far_field_rejects_k0_zero():
    rp0 = ReducedParams.from_a_k0(1.0, 0.0)
    with pytest.raises(ValueError, match="k0 > 0"):
        far_field(-50.0, 0.0, rp0)


@pytest.mark.parametrize("call", [
    lambda rp: steepest_descent(5.0, 1.0, rp),
    lambda rp: steepest_descent(5.0, 0.0, rp),
    lambda rp: wf.asymptotic_phases(rp, 0.2),
    lambda rp: psi_tail_saddle(-5.0, 2.0, rp),
    lambda rp: psi_unified(-2.0, 0.5, rp),
    lambda rp: psi_unified_extrapolated(3.0, 0.5, rp),
    lambda rp: unified_residue_check(rp),
], ids=["steepest-descent", "steepest-descent-forward", "phases", "saddle",
        "unified", "unified-extrapolated", "residue"])
def test_k0_zero_rejected_with_typed_error(call):
    # rejected at entry instead of failing inside Ti2 or by division
    with pytest.raises(ValueError, match="requires k0 > 0"):
        call(ReducedParams.from_a_k0(1.0, 0.0))


def test_regional_routes_finite_at_k0_zero():
    rp0 = ReducedParams.from_a_k0(1.0, 0.0)
    free, atom = psi_free(-3.0, 0.5, rp0), psi_atom(3.0, 0.5, rp0)
    assert free.converged and atom.converged
    assert abs(free.psi - (0.448963 - 0.185967j)) < 1e-6
    grid = scan_grid([-3.0, 3.0], [0.5], rp0, tol=1e-6)
    assert grid.converged.all()
    assert abs(grid.samples[0, 0] - free.psi) < 1e-6
    assert abs(grid.samples[1, 0] - atom.psi) < 1e-6


@pytest.mark.filterwarnings("error")
def test_scan_grid_k0_zero_keeps_atom_rows_on_fixed_panels(caplog):
    # the cut segment has zero width at k0 = 0 and is skipped: R > 0 rows
    # stay on fixed panels, R < 0 rows fall back because the free leg
    # grows like t^-1/2 there
    caplog.set_level(logging.INFO, logger="wavecut.wavefunction")
    rp0 = ReducedParams.from_a_k0(1.0, 0.0)
    R = [-5.0, -2.0, -0.5, 0.5, 2.0, 5.0]
    y = [0.0, 1.0, 2.5]
    grid = scan_grid(R, y, rp0, tol=1e-6)
    assert grid.converged.all()
    assert len(caplog.records) == 1
    assert "9 of 18 samples" in caplog.records[0].getMessage()
    for i, Ri in enumerate(grid.R_values):
        route = psi_free if Ri < 0 else psi_atom
        for j, yj in enumerate(grid.y_values):
            s = route(float(Ri), float(yj), rp0, tol=1e-6)
            gap = abs(grid.samples[i, j] - s.psi)
            assert gap <= grid.err[i, j] + s.err_est


def test_weak_binding_limit_is_free_wave():
    # as a -> 0 the pair no longer binds and psi tends to the incident
    # free wave e^{-i k0 R} in both regions (gap ~ 0.9 a)
    rp = ReducedParams.from_a_k0(1e-8, 2.0)
    for R, route in ((-3.0, psi_free), (3.0, psi_atom)):
        s = route(R, 0.5, rp)
        assert s.converged
        assert abs(s.psi - cmath.exp(-1j * rp.k0 * R)) < 1e-6, (R, s.psi)


@pytest.mark.xfail(strict=True,
                   reason="the exact free-region field carries a "
                          "branch-point term ~|R|^-1/2 which dominates the "
                          "smooth 1/R law at y=0; the asymptotic matching "
                          "of the two routes fails at any large |R|")
def test_far_field_matches_exact_psi():
    R = -200.0
    exact = psi_free(R, 0.0, RP, tol=1e-9)
    assert abs(abs(far_field(R, 0.0, RP)) / abs(exact.psi) - 1.0) < 0.05


def test_exact_field_half_power_decay():
    # |psi(R, 0)| ~ C |R|^(-1/2): doubling R shrinks it by sqrt(2)
    m100 = abs(psi_free(-100.0, 0.0, RP, tol=1e-9).psi)
    m200 = abs(psi_free(-200.0, 0.0, RP, tol=1e-9).psi)
    assert m100 / m200 == pytest.approx(math.sqrt(2.0), rel=0.08)


def test_steepest_descent_structure():
    with pytest.raises(ValueError):
        steepest_descent(25.0, 26.0, RP)  # |xi| >= 1
    with pytest.raises(ValueError):
        steepest_descent(-25.0, 1.0, RP)
    assert steepest_descent(25.0, 0.0, RP) == 0.0  # xi^2 prefactor
    # modulus scales like R^(-1/2) at fixed xi
    r1 = abs(steepest_descent(25.0, 0.3 * 25.0, RP))
    r2 = abs(steepest_descent(100.0, 0.3 * 100.0, RP))
    assert r1 / r2 == pytest.approx(2.0, rel=0.01)


@pytest.mark.xfail(strict=True,
                   reason="printed steepest-descent amplitude carries "
                          "xi^2/(a^2+K^2 xi^2) where the saddle evaluation "
                          "of the exact integrand gives an extra 1/|S+| ~ "
                          "1/xi growth; measured |Phi|/|formula| -> 0.54/xi "
                          "(2.1 at xi=0.3), far outside 10%")
def test_steepest_descent_vs_phi():
    R, y = 25.0, 7.5
    sd = steepest_descent(R, y, RP)
    phi = phi_integral(R, y, RP, tol=1e-10)
    assert abs(sd - phi) / abs(phi) < 0.10


def test_phi_saddle_ratio_structure():
    # the measured ratio |Phi| / |eq-35 form| follows 0.5424/xi
    for xi in (0.15, 0.3):
        R = 100.0
        phi = phi_integral(R, xi * R, RP, tol=1e-9)
        sd = steepest_descent(R, xi * R, RP)
        assert abs(phi) / abs(sd) == pytest.approx(0.5424 / xi, rel=0.25)


def test_tail_saddle_matches_exact():
    for (R, y) in [(-10.0, 80.0), (-10.0, 160.0), (5.0, 120.0)]:
        sad = psi_tail_saddle(R, y, RP)
        exact = (psi_free if R < 0 else psi_atom)(R, y, RP, tol=1e-9)
        assert abs(sad - exact.psi) / abs(exact.psi) < 0.05


# ----------------------------------------------------------------------
# diagnostics
# ----------------------------------------------------------------------

def test_expected_displacement_free_region_grows():
    res = expected_displacement(-10.0, RP, [100.0, 1000.0, 10000.0])
    Ys = [y for _, y in res]
    assert Ys[0] < Ys[1] < Ys[2]
    assert Ys[2] / Ys[1] > 1.5  # no sign of saturation


def test_expected_displacement_symmetry_halving():
    # integrand depends on |y| only; the two-sided integral equals twice
    # the half-line one by construction, so Y is invariant
    res = expected_displacement(5.0, RP, [50.0])
    assert res[0][1] > 0.0


def test_expected_displacement_atom_region_bound_plateau():
    # at small cutoffs the bound pair e^{-a|y|} dominates and Y_L sits
    # near the pure bound-state displacement 1/(2a); the ionized tail
    # (|psi|^2 ~ 1/y, the same outgoing wave as in the free region)
    # takes over at larger L and Y_L grows again
    res = expected_displacement(5.0, RP, [10.0, 100.0, 1000.0])
    y10, y100, y1000 = (v for _, v in res)
    assert y10 == pytest.approx(1.0 / (2.0 * RP.a), rel=0.2)
    assert y10 < y100 < y1000


def test_expected_displacement_validation():
    with pytest.raises(ValueError):
        expected_displacement(0.0, RP, [10.0])
    with pytest.raises(ValueError):
        expected_displacement(-5.0, RP, [10.0, 5.0])


def test_tail_exponent_window():
    slope, err = tail_exponent(-10.0, RP, (30.0, 300.0))
    assert -1.9 < slope < -1.1
    assert err < 0.2
    # window-doubling stability
    slope2, err2 = tail_exponent(-10.0, RP, (30.0, 600.0))
    assert abs(slope2 - slope) < max(3.0 * (err + err2), 0.15)


def test_tail_exponent_rejects_pure_exponential():
    # a decaying exponential has no power-law envelope: the slope runs
    # away and the fit must either fail (too few maxima) or go steep
    with pytest.raises(ValueError):
        tail_exponent(-10.0, RP, (1e-3, 1e-2))


def _pointwise(R, y, method, tol):
    if R > 0:
        return psi_atom(R, y, RP, tol=tol)
    if method is Method.APPROX_31:
        return psi_approx31(R, y, RP, tol=tol)
    return psi_free(R, y, RP, tol=tol, include_vertical_leg=method
                    is Method.REGIONAL_WITH_VERTICAL_LEG)


def test_scan_grid_matches_pointwise():
    Rs = [-6.0, -1.0, 2.0]
    ys = [0.0, 1.5, 4.0]
    tol = 1e-9
    for method in (Method.REGIONAL_WITH_VERTICAL_LEG, Method.APPROX_31,
                   Method.REGIONAL):
        g = scan_grid(Rs, ys, RP, tol=tol, method=method)
        for i, R in enumerate(g.R_values):
            for j, y in enumerate(g.y_values):
                R, y = float(R), float(y)
                ref = _pointwise(R, y, method, 1e-11)
                assert abs(g.samples[i, j] - ref.psi) < 5e-8
                if method is Method.REGIONAL and R < 0:
                    # the neglected leg is reported as psi_free reports it
                    same = _pointwise(R, y, method, tol)
                    assert g.err[i, j] == pytest.approx(same.err_est,
                                                        rel=1e-12)
                    assert g.converged[i, j] == (same.converged
                                                 and same.err_est <= tol)


@pytest.mark.parametrize("method", [Method.REGIONAL_WITH_VERTICAL_LEG,
                                    Method.APPROX_31])
def test_scan_grid_block_independence(monkeypatch, method):
    # the default block holds every panel of this grid; 7 panels per
    # block leaves a ragged last block on each piece (25 and 24 segment,
    # 60 and 80 leg panels) and 1 panel per block is the other extreme
    Rs = [-6.0, -2.5, -0.8, 0.6, 1.5, 4.0]
    ys = [-1.2, 0.0, 0.7, 2.5]
    ref = scan_grid(Rs, ys, RP, tol=1e-6, method=method)
    per_panel = 15 * len(ys)       # largest temporary per panel here
    for nb in (7, 1):
        monkeypatch.setattr(wf, "_GRID_BLOCK", nb * per_panel)
        g = scan_grid(Rs, ys, RP, tol=1e-6, method=method)
        np.testing.assert_allclose(g.samples, ref.samples, rtol=1e-15,
                                   atol=0.0)
        np.testing.assert_allclose(g.err, ref.err, rtol=1e-14, atol=0.0)
        assert (g.converged == ref.converged).all()


def test_scan_grid_memory_bounded():
    # blocks of panels keep the temporaries small: about 1.5 MiB here,
    # where one (panels, R, y) tensor of the 900-panel legs is ~60 MiB
    Rs, ys = np.linspace(-8.0, 8.0, 64), np.linspace(-3.0, 3.0, 64)
    scan_grid(Rs, ys, RP, tol=1e-6)
    tracemalloc.start()
    try:
        scan_grid(Rs, ys, RP, tol=1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_scan_grid_logs_fallbacks(caplog):
    caplog.set_level(logging.INFO, logger="wavecut.wavefunction")
    scan_grid([-2.0, 1.0], [0.0, 1.0], RP, tol=1e-6)
    assert not caplog.records
    # REGIONAL R < 0 samples always go adaptive; the R > 0 row does not
    scan_grid([-2.0, 1.0], [0.0, 1.0], RP, tol=1e-6, method=Method.REGIONAL)
    assert len(caplog.records) == 1
    assert "2 of 4 samples" in caplog.records[0].getMessage()


def test_scan_grid_rejects_boundary():
    with pytest.raises(ValueError):
        scan_grid([-1.0, 0.0], [0.0], RP)


@pytest.mark.parametrize("R, y, tol", [
    ([-1.0], [0.0], 0.0),
    ([-1.0], [0.0], float("nan")),
    ([float("nan")], [0.0], 1e-6),
    ([float("inf")], [0.0], 1e-6),
    ([float("-inf")], [0.0], 1e-6),
    ([-1.0], [float("nan")], 1e-6),
], ids=["tol-zero", "tol-nan", "R-nan", "R-inf", "R-minus-inf", "y-nan"])
def test_scan_grid_rejects_invalid_input(R, y, tol):
    with pytest.raises(ValueError):
        scan_grid(R, y, RP, tol=tol)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("route, R, y, kw", [
    (psi_free, -1.0, NAN, {}),
    (psi_free, NAN, 0.0, {}),
    (psi_free, -1.0, 0.0, {"tol": NAN}),
    (psi_free, -INF, 0.0, {}),
    (psi_approx31, -1.0, INF, {}),
    (psi_atom, INF, 0.0, {}),
    (psi_atom, 1.0, 0.0, {"tol": 0.0}),
    (phi_integral, 1.0, NAN, {}),
    (psi_unified, NAN, 0.0, {}),
    (psi_unified, -1.0, 0.0, {"tol": NAN}),
    (psi_unified, -1.0, 0.0, {"eps": NAN}),
], ids=["free-y-nan", "free-R-nan", "free-tol-nan", "free-R-minus-inf",
        "approx31-y-inf", "atom-R-inf", "atom-tol-zero", "phi-y-nan",
        "unified-R-nan", "unified-tol-nan", "unified-eps-nan"])
def test_pointwise_routes_reject_invalid_input(route, R, y, kw):
    with pytest.raises(ValueError, match="finite|positive"):
        route(R, y, RP, **kw)
