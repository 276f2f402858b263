"""Command-line front end.

Subcommands: factor, wavefunction, figures, validate, asymptotics.

Common options resolve with the precedence flags > --config JSON file >
defaults (a=1, k0=2, hbar=1, the standard demonstration parameters).
Grids use the inclusive syntax start:stop:count; k-grids take a re: or
im: prefix selecting the axis.  Exit codes: 0 success, 1 validation
failure, 2 usage error, 3 numerical non-convergence beyond threshold.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .model import PhysicalParams, ReducedParams, reduce_params
from .output import SCHEMAS, write_table
from .validate import run_all
from .wavefunction import Method, far_field, scan_grid, steepest_descent
from .wiener_hopf import j_direct, splus, splus_at_K

DEFAULTS = {"a": 1.0, "k0": 2.0, "hbar": 1.0, "tol": 1e-6, "format": "csv"}

_METHODS = {
    "regional": Method.REGIONAL_WITH_VERTICAL_LEG,
    "approx31": Method.APPROX_31,
    "unified": Method.UNIFIED_A7,
}


class UsageError(Exception):
    pass


class _GridArgumentParser(argparse.ArgumentParser):
    """ArgumentParser that accepts -4:-1:4 style grid values."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d")


@dataclass
class RunConfig:
    params: ReducedParams
    tol: float
    fmt: str
    out: Path


def parse_grid(text: str) -> np.ndarray:
    """start:stop:count, inclusive at both ends; start and stop finite."""
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid {text!r}: expected start:stop:count")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise UsageError(f"grid {text!r}: {exc}") from exc
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise UsageError(f"grid {text!r}: start and stop must be finite")
    if count < 1:
        raise UsageError(f"grid {text!r}: count must be >= 1")
    if count == 1:
        return np.array([start])
    return np.linspace(start, stop, count)


def parse_k_grid(text: str) -> np.ndarray:
    """[re:|im:]start:stop:count -> complex points on the chosen axis."""
    axis = "re"
    if text.startswith(("re:", "im:")):
        axis, text = text[:2], text[3:]
    vals = parse_grid(text)
    return vals * (1j if axis == "im" else 1.0)


def resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = dict(DEFAULTS)
    path = getattr(args, "config", None)
    if path:
        try:
            loaded = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"config file {path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise UsageError(f"config file {path}: expected a JSON object")
        for key, v in loaded.items():  # a bool is no JSON number
            if not (key in ("a", "k0", "tol", "hbar")
                    and type(v) in (int, float)
                    or key == "format" and v in ("csv", "json")):
                raise UsageError(f"config file {path}: {key} = {v!r} (a, k0,"
                                 " tol, hbar take numbers; format csv, json)")
        cfg.update(loaded)
    for key in ("a", "k0", "tol", "format"):
        v = getattr(args, key if key != "format" else "fmt", None)
        if v is not None:
            cfg[key] = v
    phys = [getattr(args, k, None) for k in ("M", "mu", "lam", "E")]
    if any(v is not None for v in phys):
        if not all(v is not None for v in phys):
            raise UsageError("give all of --M --mu --lam --E or none")
        rp = reduce_params(PhysicalParams(args.M, args.mu, args.lam, args.E,
                                          cfg["hbar"]))
    else:
        rp = ReducedParams.from_a_k0(float(cfg["a"]), float(cfg["k0"]))
    out = Path(getattr(args, "out", None) or ".")
    return RunConfig(params=rp, tol=float(cfg["tol"]), fmt=str(cfg["format"]),
                     out=out)


def _metadata(cfg: RunConfig, command: str, method: str) -> dict:
    """The JSON metadata of one output file; method names the route or
    law its values come from."""
    return {
        "artifact_version": __version__,
        "command": command,
        "a": cfg.params.a, "k0": cfg.params.k0, "K": cfg.params.K,
        "tol": cfg.tol, "method": method,
    }


def _outfile(cfg: RunConfig, stem: str) -> Path:
    cfg.out.mkdir(parents=True, exist_ok=True)
    return cfg.out / f"{stem}.{cfg.fmt}"


def cmd_factor(args) -> int:
    cfg = resolve_config(args)
    rp = cfg.params
    ks, vals, errs = [], [], []
    if args.at_K:
        v = splus_at_K(rp)
        ks.append(complex(rp.K))
        vals.append(v)
        errs.append(0.0)
        print(f"S+(K) = {v.real:+.7f}{v.imag:+.7f}i   |S+(K)| = {abs(v):.7f}")
    if args.k_grid:
        for k in parse_k_grid(args.k_grid).astype(complex).tolist():
            val = splus(k, rp)
            err = 0.0
            if args.check_oracle:
                oracle = cmath.exp(-j_direct(k, rp, tol=cfg.tol))
                err = abs(val - oracle) / abs(val)
            ks.append(k)
            vals.append(val)
            errs.append(err)
        if args.check_oracle:
            print(f"max rel dev closed form vs exp(-J): {max(0.0, *errs):.3e}")
    if not ks:
        raise UsageError("factor: need --k-grid and/or --at-K")
    table = dict(zip(SCHEMAS["factor"], [
        [k.real for k in ks], [k.imag for k in ks],
        [v.real for v in vals], [v.imag for v in vals],
        ["closed_form"] * len(ks), errs]))
    path = _outfile(cfg, "factor")
    write_table(path, cfg.fmt, table,
                _metadata(cfg, "factor", "closed_form"))
    print(f"wrote {path}")
    return 0


def _product(R_vals, y_vals) -> tuple[list, list]:
    """R and y columns of the R-major product grid."""
    return (np.repeat(R_vals, len(y_vals)).tolist(),
            np.tile(y_vals, len(R_vals)).tolist())


def _psi_columns(psi: list) -> list:
    """re, im and abs2 of a list of Python complex values.  abs2 is
    abs(p) ** 2 per value: NumPy's vectorized abs differs in the last bit."""
    return [[p.real for p in psi], [p.imag for p in psi],
            [abs(p) ** 2 for p in psi]]


def _grid_table(grid, schema: str) -> dict:
    """A grid's table in one of the grid schemas: every sample
    (wavefunction), |psi|^2 along y on the single R row (yscan), or
    |psi|^2 along R, one column per y (rscan)."""
    ny = len(grid.y_values)
    re, im, abs2 = _psi_columns(grid.samples.ravel().tolist())
    if schema == "yscan":
        cols = [grid.y_values.tolist(), abs2]
    elif schema == "rscan":
        cols = [grid.R_values.tolist(), *(abs2[j::ny] for j in range(ny))]
    else:
        cols = [*_product(grid.R_values, grid.y_values), re, im, abs2,
                grid.err.ravel().tolist(), [grid.method.value] * len(re),
                grid.converged.ravel().tolist()]
    return dict(zip(SCHEMAS[schema], cols))


def cmd_wavefunction(args) -> int:
    cfg = resolve_config(args)
    R_vals = parse_grid(args.R)
    y_vals = parse_grid(args.y)
    if np.any(R_vals == 0.0):
        raise UsageError("R grid must exclude the region boundary R = 0")
    method = _METHODS[args.method or "regional"]
    grid = scan_grid(R_vals, y_vals, cfg.params, tol=cfg.tol, method=method)
    path = _outfile(cfg, "wavefunction")
    write_table(path, cfg.fmt, _grid_table(grid, "wavefunction"),
                _metadata(cfg, "wavefunction", method.value))
    n_bad = int((~grid.converged).sum())
    frac = n_bad / grid.converged.size
    print(f"wrote {path} ({grid.converged.size} samples, "
          f"{n_bad} non-converged)")
    return 3 if frac > 0.10 else 0


_LAWS = {"far32": far_field, "sd35": steepest_descent}


def cmd_asymptotics(args) -> int:
    cfg = resolve_config(args)
    R_vals = parse_grid(args.R)
    y_vals = parse_grid(args.y)
    law = args.law
    if law == "far32" and np.any(R_vals >= 0):
        raise UsageError("far32 needs R < 0")
    if law == "sd35" and np.any(R_vals <= 0):
        raise UsageError("sd35 needs R > 0")
    Rs, ys = _product(R_vals, y_vals)
    psi = [_LAWS[law](R, y, cfg.params) for R, y in zip(Rs, ys)]
    table = dict(zip(SCHEMAS["asymptotics"],
                     [Rs, ys, *_psi_columns(psi), [law] * len(psi)]))
    path = _outfile(cfg, f"asymptotics_{law}")
    write_table(path, cfg.fmt, table,
                _metadata(cfg, f"asymptotics {law}", law))
    print(f"wrote {path}")
    return 0


# name: (description, R values, y values, method, schema).  The
# free-region panels (fig1-fig3) are drawn from the segment approximation,
# the form the original figures were computed from; fig4 uses the exact
# regional field.
_FIGURES = {
    "fig1": ("ionized-region |psi|^2 over (R < 0, y)",
             np.linspace(-8.0, -0.25, 32), np.linspace(0.0, 6.0, 31),
             Method.APPROX_31, "wavefunction"),
    "fig2": ("Re psi and Im psi over (R < 0, y)",
             np.linspace(-8.0, -0.25, 32), np.linspace(0.0, 6.0, 31),
             Method.APPROX_31, "wavefunction"),
    "fig3": ("|psi(-10, y)|^2 against y",
             [-10.0], np.linspace(0.0, 40.0, 1201), Method.APPROX_31,
             "yscan"),
    "fig4": ("|psi(R, 0)|^2 and |psi(R, 0.5)|^2 for R > 0",
             np.linspace(0.25, 12.0, 236), [0.0, 0.5],
             Method.REGIONAL_WITH_VERTICAL_LEG, "rscan"),
}


def cmd_figures(args) -> int:
    cfg = resolve_config(args)
    bad = total = 0
    for name in args.which:
        desc, R_vals, y_vals, method, schema = _FIGURES[name]
        grid = scan_grid(R_vals, y_vals, cfg.params, tol=cfg.tol,
                         method=method)
        bad += int((~grid.converged).sum())
        total += grid.converged.size
        path = _outfile(cfg, name)
        write_table(path, cfg.fmt, _grid_table(grid, schema),
                    _metadata(cfg, name, method.value))
        print(f"{name}: {desc} -> {path}")
    if total and bad / total > 0.01:
        print(f"warning: {bad}/{total} samples non-converged", file=sys.stderr)
        return 3
    return 0


def cmd_validate(args) -> int:
    results = run_all(only=args.only, flip_branch=args.flip_branch)
    for r in results:
        print(r.line())
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} checks passed")
    return 1 if n_fail else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = _GridArgumentParser(
        prog="wavecut",
        description="Exactly solvable 1D two-body decoupling scattering "
                    "model: Wiener-Hopf factors, wave functions, "
                    "asymptotics, validation.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(q):
        q.add_argument("--a", type=float, help="decay constant (default 1)")
        q.add_argument("--k0", type=float, help="wavenumber (default 2)")
        q.add_argument("--M", type=float, help="total mass (physical input)")
        q.add_argument("--mu", type=float, help="reduced mass")
        q.add_argument("--lam", type=float, help="contact strength")
        q.add_argument("--E", type=float, help="incident energy")
        q.add_argument("--tol", type=float, help="target tolerance")
        q.add_argument("--config", help="JSON config file (flags override)")
        q.add_argument("--format", dest="fmt", choices=("csv", "json"))
        q.add_argument("--out", help="output directory (default: cwd)")

    q = sub.add_parser("factor", help="Wiener-Hopf plus factor S+")
    common(q)
    q.add_argument("--k-grid", help="[re:|im:]start:stop:count")
    q.add_argument("--at-K", action="store_true",
                   help="evaluate the confluence value S+(K)")
    q.add_argument("--check-oracle", action="store_true",
                   help="compare against exp(-J) by direct quadrature")
    q.set_defaults(fn=cmd_factor)

    q = sub.add_parser("wavefunction", help="psi(R, y) on a grid")
    common(q)
    q.add_argument("--R", required=True,
                   help="grid start:stop:count, inclusive ends, R != 0")
    q.add_argument("--y", required=True,
                   help="grid start:stop:count, inclusive at both ends")
    q.add_argument("--method", choices=sorted(_METHODS),
                   help="evaluation route (default regional)")
    q.set_defaults(fn=cmd_wavefunction)

    q = sub.add_parser("figures", help="emit the standard figure data sets")
    common(q)
    q.add_argument("which", nargs="+", choices=sorted(_FIGURES),
                   metavar="figN", help="fig1 fig2 fig3 fig4")
    q.set_defaults(fn=cmd_figures)

    q = sub.add_parser("asymptotics", help="far-field / steepest-descent scans")
    common(q)
    q.add_argument("--law", required=True, choices=sorted(_LAWS))
    q.add_argument("--R", required=True)
    q.add_argument("--y", required=True)
    q.set_defaults(fn=cmd_asymptotics)

    q = sub.add_parser("validate", help="run the cross-validation suite")
    q.add_argument("--only", help="restrict to one module")
    q.add_argument("--flip-branch", action="store_true",
                   help="negative control: wrong cut side must FAIL")
    q.set_defaults(fn=cmd_validate)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
