"""Parameter reduction, branched root, kernels, reflection."""

import cmath
import math

import numpy as np
import pytest

from wavecut.model import (BranchPointError, PhysicalParams, ReducedParams,
                           branch_sqrt, green0, kernel_S, kernel_sigma,
                           reduce_params, reflection)

RP = ReducedParams.from_a_k0(1.0, 2.0)


def test_reduce_standard_case():
    rp = reduce_params(PhysicalParams(M=2.0, mu=0.5, lam=1.0, E=1.0))
    assert rp.a == pytest.approx(1.0, abs=1e-15)
    assert rp.k0 == pytest.approx(2.0, abs=1e-15)
    assert rp.K == pytest.approx(math.sqrt(5.0), abs=1e-15)


def test_reduce_free_limit():
    rp = reduce_params(PhysicalParams(M=1.0, mu=0.25, lam=0.0, E=0.5))
    assert rp.a == 0.0
    assert rp.K == rp.k0


def test_reduce_defining_identity_random():
    rng = np.random.default_rng(2)
    for _ in range(50):
        p = PhysicalParams(M=rng.uniform(0.1, 10), mu=rng.uniform(0.05, 3),
                           lam=rng.uniform(0, 4), E=rng.uniform(0.01, 8),
                           hbar=rng.uniform(0.5, 2))
        rp = reduce_params(p)
        assert abs(rp.K ** 2 - rp.k0 ** 2 - rp.a ** 2) <= 8e-16 * rp.K ** 2


@pytest.mark.parametrize("bad", [
    PhysicalParams(M=-1, mu=0.5, lam=1, E=1),
    PhysicalParams(M=1, mu=0, lam=1, E=1),
    PhysicalParams(M=1, mu=0.5, lam=-0.5, E=1),
    PhysicalParams(M=1, mu=0.5, lam=1, E=0),
    PhysicalParams(M=1, mu=0.5, lam=1, E=1, hbar=0),
])
def test_reduce_domain_errors(bad):
    with pytest.raises(ValueError):
        reduce_params(bad)


@pytest.mark.parametrize("a, k0", [
    (float("nan"), 2.0), (float("inf"), 2.0),
    (1.0, float("nan")), (1.0, float("inf")),
])
def test_from_a_k0_rejects_non_finite(a, k0):
    with pytest.raises(ValueError):
        ReducedParams.from_a_k0(a, k0)


def test_from_a_k0_rejects_no_wave():
    # K = 0 leaves no wave; a = 0 or k0 = 0 alone is allowed
    with pytest.raises(ValueError, match="K = 0"):
        ReducedParams.from_a_k0(0.0, 0.0)
    assert ReducedParams.from_a_k0(0.0, 1.3).K == 1.3
    assert ReducedParams.from_a_k0(1.3, 0.0).K == 1.3


def test_branch_sqrt_anchors():
    # real k beyond the right branch point
    assert branch_sqrt(3.0, RP) == pytest.approx(math.sqrt(5.0))
    # inside the segment: +i sqrt(k0^2 - k^2)
    w = branch_sqrt(1.0, RP)
    assert w == pytest.approx(1j * math.sqrt(3.0))
    # UHP continuation anchor at k = 2i: magnitude 2 sqrt2, phase +pi/2
    w = branch_sqrt(2j, RP)
    assert w == pytest.approx(1j * 2.0 * math.sqrt(2.0))


def test_branch_sqrt_continuation_oracle():
    # track the root continuously along a UHP path from k = 3 to k = 2i;
    # no branch jumps allowed and the endpoint must match branch_sqrt
    path = 3.0 * np.exp(1j * np.linspace(0.0, np.pi / 2, 2001)) * \
        np.linspace(1.0, 2.0 / 3.0, 2001)
    w = cmath.sqrt(path[0] ** 2 - 4.0)
    for k in path[1:]:
        cand = cmath.sqrt(k * k - 4.0)
        w = cand if abs(cand - w) < abs(-cand - w) else -cand
    assert abs(w - branch_sqrt(2j, RP)) < 1e-8


def test_branch_sqrt_continuity_on_segment_side():
    # approaching (-k0, k0) from the upper half plane matches the segment rule
    for x in (-1.5, -0.3, 0.7, 1.9):
        up = branch_sqrt(complex(x, 1e-9), RP)
        seg = branch_sqrt(complex(x), RP)
        assert abs(up - seg) < 1e-8
        assert seg.real == pytest.approx(0.0, abs=1e-12)
        assert seg.imag > 0


def test_branch_sqrt_branch_point_error():
    with pytest.raises(BranchPointError):
        branch_sqrt(2.0, RP)
    with pytest.raises(BranchPointError):
        branch_sqrt(-2.0, RP)


def test_kernel_sigma_values():
    assert kernel_sigma(3.0, RP) == pytest.approx(1.0 - 1.0 / math.sqrt(5.0))
    # K is the zero of sigma on this branch
    assert abs(kernel_sigma(RP.K, RP)) < 1e-14
    # decay of the correction at large real k
    assert abs(kernel_sigma(1e8, RP) - 1.0) < 1e-7


def test_kernel_S_values_and_forms():
    val = kernel_S(3.0, RP)
    assert val == pytest.approx((5.0 / 4.0) * (1.0 - 1.0 / math.sqrt(5.0)))
    # w/(w+a) form agrees at random UHP points
    rng = np.random.default_rng(8)
    for _ in range(50):
        k = complex(rng.uniform(-4, 4), rng.uniform(0.02, 4))
        w = branch_sqrt(k, RP)
        assert abs(kernel_S(k, RP) - w / (w + RP.a)) < 1e-12
    assert abs(kernel_S(1e7j, RP) - 1.0) < 1e-6


def test_kernel_S_rays_to_one():
    for th in (0.2, 1.0, 2.0, 2.9):
        k = 1e6 * cmath.exp(1j * th)
        assert abs(kernel_S(k, RP) - 1.0) < 1e-5


def test_reflection_values():
    assert reflection(RP) == pytest.approx(0.011145618000168, abs=1e-12)
    assert reflection(ReducedParams.from_a_k0(1.0, 1e-6)) > 1.0 - 1e-5
    assert reflection(ReducedParams.from_a_k0(0.0, 1.3)) == 0.0


def test_reflection_monotone_total():
    vals = [reflection(ReducedParams.from_a_k0(1.0, k0))
            for k0 in (3.0, 2.0, 1.0, 0.3, 0.05, 1e-4)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert 0.0 <= min(vals) and max(vals) <= 1.0


def test_green0():
    assert green0(3.0, RP) == pytest.approx(1.0 / (2.0 * math.sqrt(5.0)))
    assert green0(1.0, RP) == pytest.approx(-1j / (2.0 * math.sqrt(3.0)))
    # ties to the kernel: 1 - 2 a g0(k) = sigma(k)
    rng = np.random.default_rng(5)
    for _ in range(20):
        k = complex(rng.uniform(-4, 4), rng.uniform(0.05, 3))
        assert abs(1.0 - 2.0 * RP.a * green0(k, RP)
                   - kernel_sigma(k, RP)) < 1e-13
