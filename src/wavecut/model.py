"""Model parameters, kernels and elementary closed forms.

Two bodies (total mass M, reduced mass mu) bound by an attractive contact
potential of strength lam approach R = 0, where the interaction switches
off.  In reduced variables

    k0 = sqrt(2 M E) / hbar        centre-of-mass wavenumber
    a  = sqrt(M mu) lam / hbar^2   bound-state decay constant
    K  = sqrt(k0^2 + a^2)          wavenumber of the incident bound pair

the scattering problem reduces to factorizing the kernel

    sigma(k) = 1 - a / sqrt(k^2 - k0^2)

whose rescaled, zero/pole-free version is

    S(k) = (k^2 - k0^2)/(k^2 - K^2) sigma(k) = w / (w + a),
    w = sqrt(k^2 - k0^2).

The intact pair is reflected with probability R = (K - k0)^2 / K^2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

__all__ = [
    "PhysicalParams", "ReducedParams", "BranchPointError", "reduce_params",
    "branch_sqrt", "kernel_sigma", "kernel_S", "reflection", "green0",
]


class BranchPointError(ValueError):
    """Evaluation exactly at a branch point k = +-k0."""


@dataclass(frozen=True)
class PhysicalParams:
    """Raw model inputs in a consistent unit system (hbar explicit)."""
    M: float
    mu: float
    lam: float
    E: float
    hbar: float = 1.0


@dataclass(frozen=True)
class ReducedParams:
    """Reduced variables (a, k0) with K = sqrt(k0^2 + a^2) attached."""
    a: float
    k0: float
    K: float

    @classmethod
    def from_a_k0(cls, a: float, k0: float) -> "ReducedParams":
        if not (math.isfinite(a) and a >= 0.0):
            raise ValueError("decay constant a must be finite and >= 0")
        if not (math.isfinite(k0) and k0 >= 0.0):
            raise ValueError("wavenumber k0 must be finite and >= 0")
        if a == 0.0 and k0 == 0.0:
            raise ValueError("a = k0 = 0 gives K = 0: there is no wave")
        return cls(a=float(a), k0=float(k0), K=math.hypot(a, k0))


def reduce_params(p: PhysicalParams) -> ReducedParams:
    """Reduce physical inputs to (a, k0, K).

    k0 = sqrt(2 M E)/hbar, a = sqrt(M mu) lam / hbar^2, K = sqrt(k0^2+a^2).
    lam = 0 is allowed (free limit, a = 0); all other inputs must be
    positive.
    """
    if p.M <= 0.0 or p.mu <= 0.0 or p.E <= 0.0 or p.hbar <= 0.0:
        raise ValueError("M, mu, E, hbar must all be positive")
    if p.lam < 0.0:
        raise ValueError("potential strength lam must be >= 0 (attractive)")
    k0 = math.sqrt(2.0 * p.M * p.E) / p.hbar
    a = math.sqrt(p.M * p.mu) * p.lam / (p.hbar * p.hbar)
    return ReducedParams.from_a_k0(a, k0)


def branch_sqrt(k: complex, rp: ReducedParams) -> complex:
    """sqrt(k^2 - k0^2) on the branch continuous in the closed upper half
    plane, on which the exp(-|y| w) factor decays along the contours.

    Constructed as principal sqrt(k - k0) * sqrt(k + k0).  Anchors:
    w(k) = +sqrt(k^2-k0^2) for real k > k0, and w = +i sqrt(k0^2-k^2) on
    (-k0, k0), the side entering the free-region segment integral.  For
    real k < -k0 this branch gives -sqrt(k^2-k0^2) (w ~ k at infinity).
    """
    k = complex(k)
    k0 = rp.k0
    if k == k0 or k == -k0:
        raise BranchPointError(f"branch point k = {k}")
    return cmath.sqrt(k - k0) * cmath.sqrt(k + k0)


def kernel_sigma(k: complex, rp: ReducedParams) -> complex:
    """sigma(k) = 1 - a / sqrt(k^2 - k0^2)."""
    return 1.0 - rp.a / branch_sqrt(k, rp)


def kernel_S(k: complex, rp: ReducedParams) -> complex:
    """Modified kernel S(k) = (k^2-k0^2)/(k^2-K^2) * sigma(k).

    Equals w/(w + a); poles/zeros at k in {+-K, +-k0} are excluded.
    """
    k = complex(k)
    if k in (rp.K, -rp.K):
        raise ValueError(f"pole of the rescaling factor at k = {k}")
    w = branch_sqrt(k, rp)  # raises at +-k0
    return (k * k - rp.k0 ** 2) / (k * k - rp.K ** 2) * (1.0 - rp.a / w)


def reflection(rp: ReducedParams) -> float:
    """Probability that the pair is reflected intact: (K-k0)^2 / K^2.

    Tends to 1 as k0 -> 0 (total reflection) and to 0 as a -> 0.
    """
    # (K - k0)^2/K^2 with K - k0 = a^2/(K + k0) to avoid cancellation
    d = rp.a * rp.a / (rp.K + rp.k0)
    return (d / rp.K) ** 2


def green0(k: complex, rp: ReducedParams) -> complex:
    """Free two-body Green function in momentum space,
    g0(k) = 1/(2 sqrt(k^2 - k0^2))."""
    return 1.0 / (2.0 * branch_sqrt(k, rp))
