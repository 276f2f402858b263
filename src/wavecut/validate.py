"""Cross-validation suite: every module's identity and oracle checks,
runnable from the CLI (``wavecut validate``) and reused by the tests.

Each check returns (name, residual, threshold, passed).  A debug switch
can flip the branch side of the segment integrand to demonstrate that the
route-equivalence check actually detects a wrong branch (negative
control).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import specfun, wiener_hopf as wh
from .model import ReducedParams, kernel_S, reflection
from .quadrature import Kind, QuadratureSpec, integrate
from .specfun import CATALAN, ZETA2, dilog, ti2
from .wavefunction import (psi_approx31, psi_atom, psi_free,
                           psi_unified_extrapolated, unified_residue_check)

PI = math.pi


@dataclass
class CheckResult:
    module: str
    name: str
    residual: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.residual < self.threshold

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return (f"[{tag}] {self.module:<12s} {self.name:<44s} "
                f"residual {self.residual:.3e}  (< {self.threshold:.1e})")


def _rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def checks_specfun() -> list[CheckResult]:
    rng = _rng()
    out = [
        CheckResult("specfun", "Li2(1) = pi^2/6",
                    abs(dilog(1.0) - ZETA2), 1e-12),
        CheckResult("specfun", "Li2(1/2) Landen value",
                    abs(dilog(0.5) - (ZETA2 / 2 - math.log(2) ** 2 / 2)),
                    1e-12),
        CheckResult("specfun", "Ti2(1) = Catalan",
                    abs(ti2(1.0) - CATALAN), 1e-12),
    ]
    # oddness of Ti2
    zs = (rng.uniform(-2, 2, 100) + 1j * rng.uniform(-2, 2, 100))
    zs = zs[np.abs(zs) <= 2.0]
    worst = max(abs(ti2(z) + ti2(-z)) for z in zs)
    out.append(CheckResult("specfun", "Ti2 oddness (100 random |z|<=2)",
                           worst, 1e-12))
    # dilog reflection in the unit disk away from cuts
    worst = 0.0
    n = 0
    while n < 100:
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(z) >= 0.95 or abs(z) < 0.05 or abs(1 - z) < 0.05:
            continue
        n += 1
        lhs = dilog(z) + dilog(1.0 - z)
        rhs = ZETA2 - cmath.log(z) * cmath.log(1.0 - z)
        worst = max(worst, abs(lhs - rhs))
    out.append(CheckResult("specfun", "dilog reflection (100 in unit disk)",
                           worst, 1e-11))
    # series consistency
    worst_d = worst_t = 0.0
    for _ in range(40):
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        worst_d = max(worst_d,
                      abs(dilog(z) - specfun.dilog_series_reference(z)))
        worst_t = max(worst_t, abs(ti2(z) - specfun.ti2_series_reference(z)))
    out.append(CheckResult("specfun", "dilog matches power series |z|<=0.5",
                           worst_d, 1e-13))
    out.append(CheckResult("specfun", "ti2 matches alternating series",
                           worst_t, 1e-12))
    return out


def checks_model() -> list[CheckResult]:
    from .model import branch_sqrt
    rng = _rng()
    out = []
    rp = ReducedParams.from_a_k0(1.0, 2.0)
    out.append(CheckResult("model", "K^2 - k0^2 - a^2 = 0",
                           abs(rp.K ** 2 - rp.k0 ** 2 - rp.a ** 2), 1e-12))
    # reflection monotone to 1 as k0 -> 0
    refs = [reflection(ReducedParams.from_a_k0(1.0, k))
            for k in (2.0, 1.0, 0.5, 0.1, 1e-3, 1e-6)]
    mono = all(r2 > r1 for r1, r2 in zip(refs, refs[1:]))
    out.append(CheckResult("model", "reflection -> 1 monotonically (k0->0)",
                           0.0 if mono and refs[-1] > 1 - 1e-5 else 1.0, 0.5))
    # branch continuity along a UHP path
    th = np.linspace(0.02, PI - 0.02, 400)
    path = 3.0 * np.exp(1j * th)
    vals = np.array([branch_sqrt(k, rp) for k in path])
    step = np.abs(np.diff(vals)).max()
    out.append(CheckResult("model", "branch_sqrt continuity on UHP arc",
                           float(step), 0.1))
    # two algebraic forms of S agree off the real axis
    worst = 0.0
    for _ in range(50):
        k = complex(rng.uniform(-4, 4), rng.uniform(0.05, 4))
        w = branch_sqrt(k, rp)
        worst = max(worst, abs(kernel_S(k, rp) - w / (w + rp.a)))
    out.append(CheckResult("model", "S(k) algebraic forms agree (50 pts)",
                           worst, 1e-12))
    # S -> 1 along rays
    worst = max(abs(kernel_S(1e7 * cmath.exp(1j * t), rp) - 1.0)
                for t in (0.1, 1.0, 2.0, 3.0))
    out.append(CheckResult("model", "S(k) -> 1 along UHP rays", worst, 1e-5))
    return out


def checks_quadrature() -> list[CheckResult]:
    out = []
    r = integrate(lambda x: np.ones_like(x) + 0j,
                  QuadratureSpec(Kind.FINITE, (0.0, 1.0), tol=1e-13))
    out.append(CheckResult("quadrature", "int_0^1 1 dx = 1",
                           abs(r.value - 1.0), 1e-13))
    r = integrate(lambda t: np.exp(-t) + 0j,
                  QuadratureSpec(Kind.DECAYING_RAY, (0.0, 1.0),
                                 tol=1e-12))
    out.append(CheckResult("quadrature", "decaying ray exp(-t) -> 1",
                           abs(r.value - 1.0), 1e-11))
    return out


def checks_wiener_hopf() -> list[CheckResult]:
    rng = _rng()
    out = []
    rp = ReducedParams.from_a_k0(1.0, 2.0)
    # closed form vs direct J on the standard grid
    worst = 0.0
    xs = (-3.0, -1.0, 0.0, 1.0, 3.0)
    ys = (0.1, 0.5, 1.0, 2.0, 5.0)
    for x in xs:
        for y in ys:
            k = complex(x, y)
            sp = wh.splus(k, rp)
            oracle = cmath.exp(-wh.j_direct(k, rp, tol=1e-9))
            worst = max(worst, abs(sp - oracle) / abs(sp))
    out.append(CheckResult("wiener_hopf", "S+ closed form vs exp(-J) grid",
                           worst, 1e-6))
    out.append(CheckResult(
        "wiener_hopf", "zero-freeness |S+| > 0 on grid",
        0.0 if all(abs(wh.splus(complex(x, y), rp)) > 1e-3
                   for x in xs for y in ys) else 1.0, 0.5))
    # product identity over random parameters
    n = 20
    worst = 0.0
    for _ in range(n):
        rpp = ReducedParams.from_a_k0(rng.uniform(0.1, 5.0),
                                      rng.uniform(0.1, 5.0))
        worst = max(worst, wh.splus_product_identity(rpp))
    out.append(CheckResult("wiener_hopf", f"S+(K)S+(-K)=1/2 ({n} random)",
                           worst, 1e-9))
    # tabulated second integral at k = 2i
    out.append(CheckResult("wiener_hopf", "second integral = pi Log(1+k0/k)",
                           wh.j_second_integral_check(2j, rp), 1e-9))
    # closed integral identity vs brute quadrature
    worst = 0.0
    for c in (1.1, 1.5, 2.0, 3.0):
        for f in (0.0, 0.5, 0.9):
            al = f * c
            cf = wh.appendix_b_closed(c, al)
            bq = wh.appendix_b_quadrature(c, al)
            worst = max(worst, abs(cf - bq) / abs(cf))
    out.append(CheckResult("wiener_hopf", "log-integral closed vs quadrature",
                           worst, 1e-7))
    out.append(CheckResult(
        "wiener_hopf", "arctangent-integral identity residual",
        max(wh.b3_identity_check(0.5, 1.0), wh.b3_identity_check(0.9, 3.0)),
        1e-9))
    return out


def checks_wavefunction(flip_branch: bool = False) -> list[CheckResult]:
    out = []
    rp = ReducedParams.from_a_k0(1.0, 2.0)
    worst = 0.0
    for (R, y) in [(-5.0, 0.0), (-5.0, 2.0), (3.0, 1.0)]:
        uni = psi_unified_extrapolated(R, y, rp, tol=1e-7)
        if R < 0:
            reg = psi_free(R, y, rp, tol=1e-9)
        else:
            reg = psi_atom(R, y, rp, tol=1e-9)
        psi_reg = reg.psi
        if flip_branch and R < 0:
            # negative control: the segment with one cut side only
            psi_reg = psi_approx31(R, y, rp, tol=1e-9).psi
        worst = max(worst, abs(psi_reg - uni.psi) / abs(uni.psi))
    out.append(CheckResult(
        "wavefunction",
        "route equivalence regional vs unified" + (" [flipped]" if flip_branch
                                                   else ""),
        worst, 1e-4))
    # reflected coefficient modulus^2 equals the reflection probability
    sK = wh.splus_at_K(rp)
    coeff = 2.0 * (rp.a ** 2 / (rp.K + rp.k0) ** 2) * sK * sK
    out.append(CheckResult(
        "wavefunction", "|reflected coeff|^2 = (K-k0)^2/K^2",
        abs(abs(coeff) ** 2 - reflection(rp)), 1e-10))
    # incident normalization through the numerical residue
    out.append(CheckResult("wavefunction", "unified residue -> unit incident",
                           unified_residue_check(rp), 1e-6))
    # psi is even in y
    s1 = psi_free(-3.0, 1.25, rp, tol=1e-9)
    s2 = psi_free(-3.0, -1.25, rp, tol=1e-9)
    out.append(CheckResult("wavefunction", "psi(R, y) = psi(R, -y)",
                           abs(s1.psi - s2.psi), 1e-14))
    return out


def run_all(only: str | None = None,
            flip_branch: bool = False) -> list[CheckResult]:
    groups = {
        "specfun": checks_specfun,
        "model": checks_model,
        "quadrature": checks_quadrature,
        "wiener_hopf": checks_wiener_hopf,
        "wavefunction": lambda: checks_wavefunction(flip_branch),
    }
    if only is not None:
        if only not in groups:
            raise ValueError(f"unknown module {only!r}; "
                             f"choose from {sorted(groups)}")
        return groups[only]()
    results = []
    for fn in groups.values():
        results.extend(fn())
    return results
