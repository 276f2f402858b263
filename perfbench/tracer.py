"""Timing wrappers around the layers of ``wavecut`` and per-layer metrics.

The tracer replaces the names the library looks up at call time with
wrappers that record one span per call: name, start, end, parent span and
request id, plus a small payload (batch size, evaluation count, ...).
Spans stay in memory until the run ends.  A span's self time is its
duration minus the time its direct children cover; calls are nested on a
single thread, so children never overlap.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from pathlib import Path

import wavecut
from wavecut import _backend, _purepy, cli
from wavecut import wavefunction as wf
from wavecut import wiener_hopf as wh

_ROUTES = ("psi_free", "psi_atom", "psi_approx31", "psi_unified",
           "psi_unified_extrapolated")
_FALLBACKS = {"psi_free", "psi_atom", "psi_approx31"}


def _batch(args, kwargs, result):
    return len(args[0])


def _params(args, kwargs, result):
    return args[0]


def _samples(args, kwargs, result):
    return int(result.samples.size)


def _bytes(args, kwargs, result):
    return os.path.getsize(args[0])


class Tracer:
    """Span recorder; ``install`` patches the library, ``remove`` undoes it."""

    def __init__(self):
        # span: [name, start, end, parent, request, payload]
        self.spans: list[list] = []
        self.request = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        # dilog inside S+ is reachable only through the pure backend
        self.dilog_traced = wavecut.BACKEND == "pure"

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           self.request, None])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _patch(self, module, attr: str, name: str, payload=None) -> None:
        orig = getattr(module, attr)

        def traced(*args, **kwargs):
            idx = self._enter(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                self._exit(idx)
            if payload is not None:
                self.spans[idx][5] = payload(args, kwargs, result)
            return result

        self._patches.append((module, attr, orig))
        setattr(module, attr, traced)

    def _patch_integrate(self, module) -> None:
        orig = module.integrate

        def traced(f, *args, **kwargs):
            def integrand(x):
                idx = self._enter("integrand")
                try:
                    return f(x)
                finally:
                    self._exit(idx)

            idx = self._enter("integrate")
            try:
                result = orig(integrand, *args, **kwargs)
            finally:
                self._exit(idx)
            self.spans[idx][5] = (result.evaluations, result.converged)
            return result

        self._patches.append((module, "integrate", orig))
        module.integrate = traced

    def install(self) -> None:
        self._patch(_backend, "splus", "splus", _batch)
        if self.dilog_traced:
            self._patch(_purepy, "dilog", "dilog", _batch)
            self._patch(_backend, "dilog", "dilog", _batch)
        for mod in (wf, wh):
            self._patch_integrate(mod)
            self._patch(mod, "splus_at_K", "splus_at_K", _params)
        self._patch(wh, "j_direct", "j_direct")
        for route in _ROUTES:
            self._patch(wf, route, route)
        self._patch(cli, "scan_grid", "scan_grid", _samples)
        self._patch(cli, "write_table", "write_table", _bytes)
        self._patch(cli, "main", "cli.main")

    def remove(self) -> None:
        while self._patches:
            module, attr, orig = self._patches.pop()
            setattr(module, attr, orig)

    def write(self, path: Path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[s[0], s[1] - t0, s[2] - t0, s[3], s[4]] for s in self.spans]
        path.write_text(json.dumps({"fields": ["name", "start_s", "end_s",
                                               "parent", "request"],
                                    "spans": rows}, separators=(",", ":")))

    def metrics(self, n_requests: int) -> dict:
        """Per-layer metrics, counts and times per request."""
        spans = self.spans
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        calls: dict = defaultdict(int)
        total: dict = defaultdict(float)
        own: dict = defaultdict(float)
        for i, s in enumerate(spans):
            calls[s[0]] += 1
            total[s[0]] += dur[i]
            own[s[0]] += dur[i] - child[i]

        def payload(name):
            return [s[5] for s in spans if s[0] == name and s[5] is not None]

        def ratio(a, b):
            return a / b if b else 0.0

        n = max(n_requests, 1)
        per = {}  # name -> (value, unit)

        def put(name, value, unit):
            per[name] = (value, unit)

        if self.dilog_traced:
            pts = sum(payload("dilog"))
            put("specfun.dilog_calls", calls["dilog"] / n, "1/req")
            put("specfun.dilog_points", pts / n, "1/req")
            put("specfun.dilog_s", total["dilog"] / n, "s/req")
            put("specfun.dilog_points_per_call", ratio(pts, calls["dilog"]),
                "pts/call")
        pts = sum(payload("splus"))
        put("wiener_hopf.splus_calls", calls["splus"] / n, "1/req")
        put("wiener_hopf.splus_points", pts / n, "1/req")
        put("wiener_hopf.splus_s", total["splus"] / n, "s/req")
        put("wiener_hopf.splus_self_s", own["splus"] / n, "s/req")
        put("wiener_hopf.splus_points_per_call", ratio(pts, calls["splus"]),
            "pts/call")
        put("wiener_hopf.splus_at_K_calls", calls["splus_at_K"] / n, "1/req")
        put("wiener_hopf.splus_at_K_params",
            len(set(payload("splus_at_K"))) / n, "1/req")
        put("wiener_hopf.splus_at_K_s", total["splus_at_K"] / n, "s/req")
        put("wiener_hopf.j_direct_calls", calls["j_direct"] / n, "1/req")
        put("wiener_hopf.j_direct_s", total["j_direct"] / n, "s/req")

        quad = payload("integrate")
        evals = sum(q[0] for q in quad)
        put("quadrature.integrate_calls", calls["integrate"] / n, "1/req")
        put("quadrature.evals", evals / n, "1/req")
        put("quadrature.evals_per_call", ratio(evals, calls["integrate"]),
            "evals/call")
        put("quadrature.integrand_s", total["integrand"] / n, "s/req")
        put("quadrature.self_s", own["integrate"] / n, "s/req")
        put("quadrature.nonconverged", sum(not q[1] for q in quad) / n,
            "1/req")

        for route in _ROUTES + ("scan_grid",):
            put(f"wavefunction.{route}_calls", calls[route] / n, "1/req")
            put(f"wavefunction.{route}_s", total[route] / n, "s/req")
        samples = sum(payload("scan_grid"))
        fallbacks = sum(1 for s in spans if s[0] in _FALLBACKS and s[3] >= 0
                        and spans[s[3]][0] == "scan_grid")
        put("wavefunction.scan_grid_samples", samples / n, "1/req")
        put("wavefunction.scan_grid_self_s", own["scan_grid"] / n, "s/req")
        put("wavefunction.scan_grid_fallbacks", fallbacks / n, "1/req")
        put("wavefunction.scan_grid_fallback_frac", ratio(fallbacks, samples),
            "ratio")

        put("output.write_calls", calls["write_table"] / n, "1/req")
        put("output.bytes", sum(payload("write_table")) / n, "B/req")
        put("output.write_s", total["write_table"] / n, "s/req")
        put("cli.main_s", total["cli.main"] / n, "s/req")
        put("cli.self_s", own["cli.main"] / n, "s/req")
        return per
