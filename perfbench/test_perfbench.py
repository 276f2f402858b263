"""Tests of the benchmark itself: negative control, repeatable counts,
refusal outside a source checkout, and the two known library defects
that set the edges of the benchmark's input ranges.

Run from the repository root: PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

HERE = Path(__file__).resolve().parent
_, workloads = run._load_library()

from wavecut import wavefunction as wf  # noqa: E402  (after the path is set)
from wavecut import wiener_hopf as wh  # noqa: E402
from wavecut.model import ReducedParams  # noqa: E402
from tracer import Tracer  # noqa: E402


def _run_and_check(name: str, inputs, work: Path):
    wl = workloads.WORKLOADS[name]
    records, _ = run._loop(wl, inputs, work, "r", count=len(inputs))
    return run._check(wl, inputs, records, seed=1)


def test_one_sided_segment_counts_as_failure(tmp_path, monkeypatch):
    """The one-sided segment of `validate --flip-branch`, returned as the
    R < 0 point sample, must fail the route check and push the worst
    ratio above 1; the true sample on the same inputs passes."""
    inputs = [p for p in workloads.WORKLOADS["points"].inputs(1)
              if p[0] < 0 and workloads._in_unified_box(p)][:2]
    failed, worst, _ = _run_and_check("points", inputs, tmp_path)
    assert failed == 0 and worst < 1.0

    def one_sided(R, y, rp, tol=1e-8, include_vertical_leg=True):
        return wf.psi_approx31(R, y, rp, tol)

    monkeypatch.setattr(wf, "psi_free", one_sided)
    failed, worst, notes = _run_and_check("points", inputs, tmp_path)
    assert failed == len(inputs), notes
    assert worst > 1.0


@pytest.mark.xfail(strict=True, reason="known defect: splus_product_identity "
                   "exceeds validate's 1e-9 bound for small a, large k0")
def test_product_identity_below_sweep_range():
    """sweep starts a at SWEEP_A_MIN, above validate's 0.1, because of
    this defect.  Once it passes, the sweep range can go back to
    validate's (0.1, 5)."""
    rp = ReducedParams.from_a_k0(0.1008, 4.3305)  # residual 7.1e-9
    assert wh.splus_product_identity(rp) <= workloads.PRODUCT_BOUND


@pytest.mark.xfail(strict=True, reason="known defect: psi_unified_extrapolated "
                   "err_est understates its error at large R and y")
def test_unified_err_est_outside_deep_check_box():
    """points compares with the unified route only inside the unified
    workload's box because of this defect.  Once it passes, the box can
    cover the whole points range."""
    R, y = 15.903391016267008, 4.830714795532569  # ratio 2.5
    atom = wf.psi_atom(R, y, workloads.RP, tol=workloads.POINTS_TOL)
    unified = wf.psi_unified_extrapolated(R, y, workloads.RP,
                                          tol=workloads.UNIFIED_TOL)
    ratios, reason = workloads._route_ratio(atom, unified)
    assert reason is None, ratios


def _traced_counts(name: str, seed: int, n: int, work: Path) -> dict:
    wl = workloads.WORKLOADS[name]
    inputs = wl.inputs(seed)
    run._loop(wl, inputs[-1:], work, "warm", count=1)
    tracer = Tracer()
    tracer.install()
    try:
        run._loop(wl, inputs, work, "t", count=n, tracer=tracer)
    finally:
        tracer.remove()
    return {k: v for k, (v, unit) in tracer.metrics(n).items()
            if not unit.startswith("s/")}


COUNTED = {"grid": 2, "points": 6, "sweep": 2, "unified": 1}


def _counts_in_fresh_process(tmp_path: Path) -> dict:
    out = subprocess.run(
        [sys.executable, str(Path(__file__)), str(tmp_path)],
        capture_output=True, text=True, check=True, cwd=HERE.parent)
    return json.loads(out.stdout.splitlines()[-1])


def test_traced_counts_repeat_for_a_seed(tmp_path):
    first = _counts_in_fresh_process(tmp_path)
    second = _counts_in_fresh_process(tmp_path)
    assert first == second
    assert first["points"]["wiener_hopf.splus_calls"] > 0
    assert first["points"]["quadrature.evals"] == \
        first["points"]["wiener_hopf.splus_points"]
    assert first["grid"]["wavefunction.scan_grid_samples"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "points",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    # one fresh process of test_traced_counts_repeat_for_a_seed
    work = Path(sys.argv[1])
    print(json.dumps({name: _traced_counts(name, 3, n, work)
                      for name, n in COUNTED.items()}, sort_keys=True))
