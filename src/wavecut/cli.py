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
import json
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
from .wiener_hopf import (FactorMethod, FactorValue, j_direct, splus,
                          splus_at_K)

DEFAULTS = {"a": 1.0, "k0": 2.0, "hbar": 1.0, "tol": 1e-6, "format": "csv"}

_METHODS = {
    "regional": Method.REGIONAL_WITH_VERTICAL_LEG,
    "regional-noleg": Method.REGIONAL,
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
    method: Method = Method.REGIONAL_WITH_VERTICAL_LEG


def parse_grid(text: str) -> np.ndarray:
    """start:stop:count, inclusive at both ends."""
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid {text!r}: expected start:stop:count")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise UsageError(f"grid {text!r}: {exc}") from exc
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
            cfg.update(json.loads(Path(path).read_text()))
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"config file {path}: {exc}") from exc
    for key in ("a", "k0", "tol", "format"):
        v = getattr(args, key if key != "format" else "fmt", None)
        if v is not None:
            cfg[key] = v
    phys = [getattr(args, k, None) for k in ("M", "mu", "lam", "E")]
    if any(v is not None for v in phys):
        if not all(v is not None for v in phys):
            raise UsageError("give all of --M --mu --lam --E or none")
        rp = reduce_params(PhysicalParams(args.M, args.mu, args.lam, args.E,
                                          cfg.get("hbar", 1.0)))
    else:
        rp = ReducedParams.from_a_k0(float(cfg["a"]), float(cfg["k0"]))
    out = Path(getattr(args, "out", None) or ".")
    method = _METHODS[getattr(args, "method", None) or "regional"]
    return RunConfig(params=rp, tol=float(cfg["tol"]), fmt=str(cfg["format"]),
                     out=out, method=method)


def _metadata(cfg: RunConfig, command: str) -> dict:
    return {
        "artifact_version": __version__,
        "command": command,
        "a": cfg.params.a, "k0": cfg.params.k0, "K": cfg.params.K,
        "tol": cfg.tol, "method": cfg.method.value,
    }


def _outfile(cfg: RunConfig, stem: str) -> Path:
    cfg.out.mkdir(parents=True, exist_ok=True)
    return cfg.out / f"{stem}.{cfg.fmt}"


def cmd_factor(args) -> int:
    cfg = resolve_config(args)
    rp = cfg.params
    values: list[FactorValue] = []
    if args.at_K:
        v = splus_at_K(rp)
        values.append(FactorValue(complex(rp.K), v, FactorMethod.CLOSED_FORM,
                                  0.0))
        print(f"S+(K) = {v.real:+.7f}{v.imag:+.7f}i   |S+(K)| = {abs(v):.7f}")
    if args.k_grid:
        ks = parse_k_grid(args.k_grid)
        if len(ks) == 0:
            raise UsageError("empty k grid")
        max_dev = 0.0
        for k in ks:
            val = splus(complex(k), rp)
            err = 0.0
            if args.check_oracle:
                oracle = cmath.exp(-j_direct(complex(k), rp, tol=cfg.tol))
                err = abs(val - oracle) / abs(val)
                max_dev = max(max_dev, err)
            values.append(FactorValue(complex(k), val,
                                      FactorMethod.CLOSED_FORM, err))
        if args.check_oracle:
            print(f"max rel dev closed form vs exp(-J): {max_dev:.3e}")
    if not values:
        raise UsageError("factor: need --k-grid and/or --at-K")
    rows = [[f.k.real, f.k.imag, f.splus.real, f.splus.imag, f.method.value,
             f.err_est] for f in values]
    path = _outfile(cfg, "factor")
    write_table(path, cfg.fmt, SCHEMAS["factor"], rows,
                _metadata(cfg, "factor"))
    print(f"wrote {path}")
    return 0


def _grid_rows(grid) -> list:
    rows = []
    for i, R in enumerate(grid.R_values):
        for j, y in enumerate(grid.y_values):
            p = grid.samples[i, j]
            rows.append([float(R), float(y), p.real, p.imag, abs(p) ** 2,
                         float(grid.err[i, j]), grid.method.value,
                         bool(grid.converged[i, j])])
    return rows


def cmd_wavefunction(args) -> int:
    cfg = resolve_config(args)
    R_vals = parse_grid(args.R)
    y_vals = parse_grid(args.y)
    if np.any(R_vals == 0.0):
        raise UsageError("R grid must exclude the region boundary R = 0")
    grid = scan_grid(R_vals, y_vals, cfg.params, tol=cfg.tol,
                     method=cfg.method)
    rows = _grid_rows(grid)
    path = _outfile(cfg, "wavefunction")
    write_table(path, cfg.fmt, SCHEMAS["wavefunction"], rows,
                _metadata(cfg, "wavefunction"))
    n_bad = int((~grid.converged).sum())
    frac = n_bad / grid.converged.size
    print(f"wrote {path} ({grid.converged.size} samples, "
          f"{n_bad} non-converged)")
    return 3 if frac > 0.10 else 0


def cmd_asymptotics(args) -> int:
    cfg = resolve_config(args)
    rp = cfg.params
    R_vals = parse_grid(args.R)
    y_vals = parse_grid(args.y)
    law = args.law
    rows = []
    for R in R_vals:
        for y in y_vals:
            if law == "far32":
                if R >= 0:
                    raise UsageError("far32 needs R < 0")
                p = far_field(float(R), float(y), rp).psi
            else:
                if R <= 0:
                    raise UsageError("sd35 needs R > 0")
                p = steepest_descent(float(R), float(y), rp)
            rows.append([float(R), float(y), p.real, p.imag, abs(p) ** 2,
                         law])
    path = _outfile(cfg, f"asymptotics_{law}")
    write_table(path, cfg.fmt, SCHEMAS["asymptotics"], rows,
                _metadata(cfg, f"asymptotics {law}"))
    print(f"wrote {path}")
    return 0


_FIG_DEFS = {
    "fig1": "ionized-region |psi|^2 over (R < 0, y)",
    "fig2": "Re psi and Im psi over (R < 0, y)",
    "fig3": "|psi(-10, y)|^2 against y",
    "fig4": "|psi(R, 0)|^2 and |psi(R, 0.5)|^2 for R > 0",
}


def cmd_figures(args) -> int:
    cfg = resolve_config(args)
    rp = cfg.params
    which = args.which
    bad = total = 0
    # the free-region panels (fig1-fig3) are drawn from the segment
    # approximation, the form the original figures were computed from;
    # fig4 uses the exact regional field
    for name in which:
        if name in ("fig1", "fig2"):
            grid = scan_grid(np.linspace(-8.0, -0.25, 32),
                             np.linspace(0.0, 6.0, 31), rp, tol=cfg.tol,
                             method=Method.APPROX_31)
            rows = _grid_rows(grid)
            bad += int((~grid.converged).sum())
            total += grid.converged.size
            write_table(_outfile(cfg, name), cfg.fmt, SCHEMAS["wavefunction"],
                        rows, _metadata(cfg, name))
        elif name == "fig3":
            ys = np.linspace(0.0, 40.0, 1201)
            grid = scan_grid([-10.0], ys, rp, tol=cfg.tol,
                             method=Method.APPROX_31)
            bad += int((~grid.converged).sum())
            total += grid.converged.size
            rows = [[float(y), abs(grid.samples[0, j]) ** 2]
                    for j, y in enumerate(grid.y_values)]
            write_table(_outfile(cfg, name), cfg.fmt, SCHEMAS["yscan"], rows,
                        _metadata(cfg, name))
        elif name == "fig4":
            Rs = np.linspace(0.25, 12.0, 236)
            grid = scan_grid(Rs, [0.0, 0.5], rp, tol=cfg.tol)
            bad += int((~grid.converged).sum())
            total += grid.converged.size
            rows = [[float(R), abs(grid.samples[i, 0]) ** 2,
                     abs(grid.samples[i, 1]) ** 2]
                    for i, R in enumerate(grid.R_values)]
            write_table(_outfile(cfg, name), cfg.fmt, SCHEMAS["rscan"], rows,
                        _metadata(cfg, name))
        else:
            raise UsageError(f"unknown figure {name!r}")
        print(f"{name}: {_FIG_DEFS[name]} -> "
              f"{_outfile(cfg, name)}")
    if total and bad / total > 0.01:
        print(f"warning: {bad}/{total} samples non-converged", file=sys.stderr)
        return 3
    return 0


def cmd_validate(args) -> int:
    try:
        results = run_all(only=args.only, fast=args.fast,
                          flip_branch=args.flip_branch)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    for r in results:
        print(r.line())
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} checks passed")
    return 1 if n_fail else 0


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
    q.add_argument("which", nargs="+", choices=sorted(_FIG_DEFS),
                   metavar="figN", help="fig1 fig2 fig3 fig4")
    q.set_defaults(fn=cmd_figures)

    q = sub.add_parser("asymptotics", help="far-field / steepest-descent scans")
    common(q)
    q.add_argument("--law", required=True, choices=("far32", "sd35"))
    q.add_argument("--R", required=True)
    q.add_argument("--y", required=True)
    q.set_defaults(fn=cmd_asymptotics)

    q = sub.add_parser("validate", help="run the cross-validation suite")
    common(q)
    q.add_argument("--only", help="restrict to one module")
    q.add_argument("--fast", action="store_true",
                   help="reduced point counts")
    q.add_argument("--flip-branch", action="store_true",
                   help="negative control: wrong cut side must FAIL")
    q.set_defaults(fn=cmd_validate)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
