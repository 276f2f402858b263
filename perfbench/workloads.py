"""The four benchmark workloads: seeded inputs, one request, output checks.

Every request goes through the public API of ``wavecut``, looked up as a
module attribute at call time (``wf.psi_free``, ``cli.main``, ...) so that
the traced run's wrappers see it.  Inputs come only from the seed.

Inputs are drawn in blocks: each block is a Latin-hypercube sample of the
input box with both regions equally represented, so any prefix of whole
blocks has nearly the same cost mix whatever the seed.  A time-bounded run
completes a prefix of the pool, and this keeps its rate steady across
seeds.

Checks run after the timed loop.  Each returns the ratios of measured
disagreement to allowed bound (below 1 passes) and a failure reason, or
None.  A request fails when it raised, returned a non-finite value or
``converged=False``, exited the CLI non-zero, or failed a check.
"""

from __future__ import annotations

import cmath
import contextlib
import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from wavecut import cli
from wavecut import wavefunction as wf
from wavecut import wiener_hopf as wh
from wavecut.model import ReducedParams

RP = ReducedParams.from_a_k0(1.0, 2.0)

POINTS_TOL = 1e-8        # adaptive point samples
UNIFIED_TOL = 1e-7       # psi_unified_extrapolated requests and references
REGIONAL_REF_TOL = 1e-8  # regional reference for the unified route
GRID_TOL = 1e-6          # the CLI default
J_TOL = 1e-9             # validate's oracle tolerance
ORACLE_BOUND = 1e-6      # validate: |S+ - exp(-J)| / |S+|
PRODUCT_BOUND = 1e-9     # validate: |S+(K) S+(-K) - 1/2|

# sweep draws a from [SWEEP_A_MIN, 5], not validate's [0.1, 5]: below
# a ~ 0.35 with large k0 the product residual exceeds PRODUCT_BOUND (a
# known defect, pinned by a strict xfail in test_perfbench.py).  From
# a = 0.5 up it stays under 3.7e-10 on 9000 probes near the worst corner.
SWEEP_A_MIN = 0.5
# points compares with the unified route only inside the unified
# workload's box, where every unified request is checked against its
# err_est; outside it the unified err_est can understate the error (a
# known defect, pinned by a strict xfail in test_perfbench.py)
DEEP_R_MAX = 10.0
DEEP_Y_MAX = 3.0

# a CSV value that differs from the library value at 17 digits
EXACT_MISMATCH = 1e9


def _lhs(rng: np.random.Generator, n: int, dims: int) -> np.ndarray:
    """Latin-hypercube sample of n points in [0, 1)^dims."""
    u = np.empty((n, dims))
    for d in range(dims):
        u[:, d] = (rng.permutation(n) + rng.random(n)) / n
    return u


def _signs(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.permutation(np.repeat([-1.0, 1.0], n // 2))


def _blocks(rng, n: int, block: int, fill: Callable) -> list:
    out: list = []
    while len(out) < n:
        out.extend(fill(rng, block))
    return out[:n]


def _scale(u, lo, hi):
    return lo + (hi - lo) * u


def _sample_failure(s) -> Optional[str]:
    if not (cmath.isfinite(s.psi) and math.isfinite(s.err_est)):
        return "non-finite value"
    if not s.converged:
        return "converged=False"
    return None


def _route_ratio(s, ref) -> tuple[list[float], Optional[str]]:
    """|value - reference| against the summed error estimates."""
    bad = _sample_failure(s) or _sample_failure(ref)
    if bad:
        return [], bad
    ratio = abs(s.psi - ref.psi) / (s.err_est + ref.err_est)
    return [ratio], None if ratio < 1.0 else "route disagreement"


def _regional(R: float, y: float, rp: ReducedParams, tol: float):
    if R < 0:
        return wf.psi_free(R, y, rp, tol=tol)
    return wf.psi_atom(R, y, rp, tol=tol)


# ----------------------------------------------------------------------
# points: adaptive psi_free / psi_atom samples sharing one parameter set
# ----------------------------------------------------------------------

def _points_block(rng, n):
    u = _lhs(rng, n, 2)
    R = _signs(rng, n) * _scale(u[:, 0], 0.5, 20.0)
    y = _scale(u[:, 1], 0.0, 6.0)
    return [(float(r), float(v)) for r, v in zip(R, y)]


def _points_request(inp, out_dir):
    R, y = inp
    return _regional(R, y, RP, POINTS_TOL)


def _in_unified_box(inp) -> bool:
    R, y = inp
    return abs(R) <= DEEP_R_MAX and y <= DEEP_Y_MAX


def _points_check(inp, out, deep, rng):
    bad = _sample_failure(out)
    if bad or not deep:
        return [], bad
    R, y = inp
    return _route_ratio(out, wf.psi_unified_extrapolated(R, y, RP,
                                                         tol=UNIFIED_TOL))


# ----------------------------------------------------------------------
# unified: psi_unified_extrapolated samples
# ----------------------------------------------------------------------

def _unified_block(rng, n):
    u = _lhs(rng, n, 2)
    R = _signs(rng, n) * _scale(u[:, 0], 0.5, DEEP_R_MAX)
    y = _scale(u[:, 1], 0.0, DEEP_Y_MAX)
    return [(float(r), float(v)) for r, v in zip(R, y)]


def _unified_request(inp, out_dir):
    R, y = inp
    return wf.psi_unified_extrapolated(R, y, RP, tol=UNIFIED_TOL)


def _unified_check(inp, out, deep, rng):
    R, y = inp
    return _route_ratio(out, _regional(R, y, RP, REGIONAL_REF_TOL))


# ----------------------------------------------------------------------
# sweep: a fresh parameter set per request, closed form vs oracle
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SweepInput:
    a: float
    k0: float
    ks: tuple
    R_free: float
    R_atom: float
    y: float


def _sweep_block(rng, n):
    u = _lhs(rng, n, 5)
    out = []
    for row in u:
        ks = tuple(complex(x, v) for x, v in zip(rng.uniform(-3.0, 3.0, 4),
                                                 rng.uniform(0.1, 5.0, 4)))
        out.append(SweepInput(
            a=float(_scale(row[0], SWEEP_A_MIN, 5.0)),
            k0=float(_scale(row[1], 0.1, 5.0)), ks=ks,
            R_free=-float(_scale(row[2], 0.5, 10.0)),
            R_atom=float(_scale(row[3], 0.5, 10.0)),
            y=float(_scale(row[4], 0.0, 3.0))))
    return out


def _sweep_request(inp: SweepInput, out_dir):
    rp = ReducedParams.from_a_k0(inp.a, inp.k0)
    sp = [wh.splus(k, rp) for k in inp.ks]
    J = [wh.j_direct(k, rp, tol=J_TOL) for k in inp.ks]
    prod = wh.splus_product_identity(rp)
    s_free = wf.psi_free(inp.R_free, inp.y, rp, tol=POINTS_TOL)
    s_atom = wf.psi_atom(inp.R_atom, inp.y, rp, tol=POINTS_TOL)
    return sp, J, prod, s_free, s_atom


def _sweep_check(inp, out, deep, rng):
    sp, J, prod, s_free, s_atom = out
    bad = _sample_failure(s_free) or _sample_failure(s_atom)
    if bad:
        return [], bad
    if not all(cmath.isfinite(v) for v in (*sp, *J)) or not math.isfinite(prod):
        return [], "non-finite value"
    ratios = [abs(s - cmath.exp(-j)) / abs(s) / ORACLE_BOUND
              for s, j in zip(sp, J)]
    ratios.append(prod / PRODUCT_BOUND)
    return ratios, None if max(ratios) < 1.0 else "oracle or identity gap"


# ----------------------------------------------------------------------
# grid: `wavecut wavefunction` CLI calls writing CSV
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GridInput:
    R: str          # start:stop:count as passed to --R
    y: str
    method: str     # CLI --method name

    @property
    def cells(self) -> int:
        return int(self.R.rsplit(":", 1)[1]) * int(self.y.rsplit(":", 1)[1])


_GRID_METHODS = {"regional": wf.Method.REGIONAL_WITH_VERTICAL_LEG,
                 "approx31": wf.Method.APPROX_31}


def _grid_block(rng, n):
    # per block: half the windows in R > 0 (regional), the other half in
    # R < 0 split between regional and the one-sided approx31 form
    u = _lhs(rng, n, 6)
    kinds = rng.permutation([("atom", "regional")] * (n // 2)
                            + [("free", "regional")] * (n // 4)
                            + [("free", "approx31")] * (n - n // 2 - n // 4))
    out = []
    for row, (region, method) in zip(u, kinds):
        nR = 16 + min(16, int(row[0] * 17))
        ny = 16 + min(16, int(row[1] * 17))
        lo = float(_scale(row[2], 0.5, 12.0))
        hi = lo + float(_scale(row[3], 1.0, 8.0))
        if region == "free":
            lo, hi = -hi, -lo
        y0 = float(_scale(row[4], 0.0, 3.0))
        y1 = y0 + float(_scale(row[5], 0.5, 3.0))
        out.append(GridInput(f"{lo!r}:{hi!r}:{nR}", f"{y0!r}:{y1!r}:{ny}",
                             str(method)))
    return out


def _grid_request(inp: GridInput, out_dir: Path):
    argv = ["wavefunction", "--R", inp.R, "--y", inp.y, "--method",
            inp.method, "--tol", repr(GRID_TOL), "--out", str(out_dir)]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    return rc, out_dir / "wavefunction.csv"


def _grid_reference(R: float, y: float, method: str):
    if method == "approx31":
        return wf.psi_approx31(R, y, RP, tol=POINTS_TOL)
    return _regional(R, y, RP, POINTS_TOL)


def _grid_check(inp: GridInput, out, deep, rng):
    rc, path = out
    if rc != 0:
        return [], f"CLI exit code {rc}"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    if len(rows) != inp.cells:
        return [], f"{len(rows)} rows for {inp.cells} cells"
    nums = np.array([[float(v) for v in r[:6]] for r in rows])
    if not np.isfinite(nums).all():
        return [], "non-finite value"
    if any(r[7] != "true" for r in rows):
        return [], "converged=False"
    if not deep:
        return [], None
    # the CSV read back equals the library's own grid at 17 digits
    R_vals, y_vals = cli.parse_grid(inp.R), cli.parse_grid(inp.y)
    grid = wf.scan_grid(R_vals, y_vals, RP, tol=GRID_TOL,
                        method=_GRID_METHODS[inp.method])
    ny = len(grid.y_values)
    same = True
    for idx, r in enumerate(rows):
        i, j = divmod(idx, ny)
        p = grid.samples[i, j]
        want = (grid.R_values[i], grid.y_values[j], p.real, p.imag,
                abs(p) ** 2, grid.err[i, j])
        same = same and all(float(v) == float(w) for v, w in zip(r[:6], want))
        same = same and r[7] == ("true" if grid.converged[i, j] else "false")
    ratios = [0.0 if same else EXACT_MISMATCH]
    # seeded cells against the adaptive route
    for idx in rng.choice(len(rows), size=2, replace=False):
        i, j = divmod(int(idx), ny)
        R, y = float(grid.R_values[i]), float(grid.y_values[j])
        ref = _grid_reference(R, y, inp.method)
        bad = _sample_failure(ref)
        if bad:
            return ratios, "reference " + bad
        ratios.append(abs(grid.samples[i, j] - ref.psi)
                      / (grid.err[i, j] + ref.err_est))
    return ratios, None if max(ratios) < 1.0 else "grid check"


# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    pool: int                 # inputs generated per seed
    block: int                # stratification block size
    fill: Callable            # (rng, block) -> list of inputs
    request: Callable         # (input, out_dir) -> output
    samples: Callable[[Any], int]  # psi samples one request delivers
    check: Callable           # (input, output, deep, rng) -> (ratios, reason)
    deep_checks: Optional[int]     # requests given the costly check; None=all
    deep_eligible: Callable[[Any], bool] = lambda inp: True

    def inputs(self, seed: int) -> list:
        rng = np.random.default_rng([seed, _SALT[self.name]])
        return _blocks(rng, self.pool, self.block, self.fill)


_SALT = {"grid": 1, "points": 2, "sweep": 3, "unified": 4}

WORKLOADS = {
    "grid": Workload("grid", 2048, 8, _grid_block, _grid_request,
                     lambda inp: inp.cells, _grid_check, 4),
    "points": Workload("points", 16384, 16, _points_block, _points_request,
                       lambda inp: 1, _points_check, 3, _in_unified_box),
    "sweep": Workload("sweep", 4096, 16, _sweep_block, _sweep_request,
                      lambda inp: 2, _sweep_check, None),
    "unified": Workload("unified", 512, 8, _unified_block, _unified_request,
                        lambda inp: 1, _unified_check, None),
}
