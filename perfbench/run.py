#!/usr/bin/env python3
"""Layered benchmark of wavecut: one seeded workload per run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload points --seed 1 --seconds 25 --trace 0

One client sends requests in a closed loop (the next request starts when
the previous one returns) from this single process, for ``--seconds``
seconds after one warm-up request.  The library is imported from ``src/``
of the checkout.  Outputs are checked after the timed loop.  Timings are
scaled to nominal host speed (``hostspeed.py``); raw values are printed
next to them.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
requests untraced for half the time, then the same requests again with
the layer wrappers of ``tracer.py`` installed, and reports the per-layer
metrics and the tracing overhead.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The lines before it give every metric by name and unit, the checks and
an environment fingerprint; ``.perfbench_out/`` keeps the full result and
the spans.  See README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import STARTUP_NOMINAL_S, STARTUP_REFERENCE, HostClock

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"
SETUP_PROBES = 7
TAIL_BEYOND = 10  # the tail percentile leaves this many requests above it

_ENV_KEYS = ("WAVECUT_BACKEND", "WAVECUT_WORKERS")
_DETAIL_UNITS = {"failed_frac": "ratio", "worst_check_ratio": "ratio",
                 "request_tail_percentile": "%", "host_slowness": "ratio",
                 "raw_setup_s": "s", "raw_requests_per_s": "1/s",
                 "raw_samples_per_s": "1/s", "raw_request_p50_ms": "ms",
                 "raw_request_tail_ms": "ms", "elapsed_s": "s",
                 "requests_per_s_untraced": "1/s",
                 "requests_per_s_traced": "1/s"}


def _load_library():
    """Import wavecut from the checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "wavecut" / "__init__.py").is_file():
        raise SystemExit(f"error: no wavecut sources under {src}")
    sys.path.insert(0, str(src))
    import wavecut
    if Path(wavecut.__file__).resolve().parent != (src / "wavecut").resolve():
        raise SystemExit(f"error: imported wavecut from {wavecut.__file__}")
    import workloads
    return wavecut, workloads


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _fingerprint(env: dict, wavecut, args) -> dict:
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "wavecut.BACKEND": wavecut.BACKEND,
        **env,
        "git_commit": _git_commit(),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
    }


def _setup_probe(args) -> int:
    """Child process of the set-up measurement: import, build inputs."""
    _, workloads = _load_library()
    workloads.WORKLOADS[args.workload].inputs(args.seed)
    print("ready", flush=True)
    return 0


def _time_ready(cmd: list) -> float:
    """Wall time from starting cmd until it prints its first line."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                          text=True) as proc:
        line = proc.stdout.readline()
        dt = time.perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait(timeout=60)
    if rc != 0 or line.strip() != "ready":
        raise SystemExit(f"error: set-up probe {cmd[1:3]} failed (exit {rc})")
    return dt


def _measure_setup(args) -> tuple[float, float]:
    """Median time from process start to inputs ready, at nominal host
    speed and raw.  Each probe follows a reference start-up that only
    imports NumPy; their ratio tracks host drift (see hostspeed.py)."""
    probe = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)]
    reference = [sys.executable, "-c", STARTUP_REFERENCE]
    raw, ratios = [], []
    for _ in range(SETUP_PROBES):
        ref = _time_ready(reference)
        dt = _time_ready(probe)
        raw.append(dt)
        ratios.append(dt / ref)
    return STARTUP_NOMINAL_S * statistics.median(ratios), statistics.median(raw)


def _loop(wl, inputs, work: Path, tag: str, seconds=None, count=None,
          tracer=None, clock=None):
    """Closed loop over inputs; returns (records, elapsed seconds).

    A record is (index, latency_s, output or None, error or None,
    midpoint).  The host-speed kernel runs between requests when a clock
    is given; its time is not part of the elapsed time."""
    records = []
    t_start = time.perf_counter()
    paused = 0.0
    i = 0
    while True:
        if count is not None and i >= count:
            break
        if (seconds is not None
                and time.perf_counter() - t_start - paused >= seconds):
            break
        inp = inputs[i % len(inputs)]
        out_dir = work / f"{tag}{i}"
        if tracer is not None:
            tracer.request = i
        t0 = time.perf_counter()
        try:
            out, err = wl.request(inp, out_dir), None
        except Exception as exc:  # a failed request is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        records.append((i, t1 - t0, out, err, 0.5 * (t0 + t1)))
        i += 1
        if clock is not None:
            paused += clock.tick()
    return records, time.perf_counter() - t_start - paused


def _check(wl, inputs, records, seed: int):
    """Run every output check; returns (failed count, worst ratio, notes)."""
    import numpy as np
    rng = np.random.default_rng([seed, 99])
    eligible = [pos for pos, r in enumerate(records)
                if wl.deep_eligible(inputs[r[0] % len(inputs)])]
    m = len(eligible)
    deep = set(eligible) if wl.deep_checks is None else {
        eligible[j] for j in
        rng.choice(m, size=min(m, wl.deep_checks), replace=False)}
    failed, worst, notes = 0, 0.0, []
    for pos, (i, _, out, err, _) in enumerate(records):
        inp = inputs[i % len(inputs)]
        ratios: list = []
        if err is None:
            try:
                ratios, err = wl.check(inp, out, pos in deep, rng)
            except Exception as exc:  # a check that raises fails its request
                err = f"check raised {type(exc).__name__}: {exc}"
        if ratios:
            worst = max(worst, max(ratios))
        if err is not None:
            failed += 1
            if len(notes) < 5:
                notes.append(f"request {i} {inp!r}: {err}")
    return failed, worst, notes


def _samples_ok(wl, inputs, records) -> int:
    return sum(wl.samples(inputs[i % len(inputs)])
               for i, _, _, err, _ in records if err is None)


def _nominal(records, clock) -> list[float]:
    """Request times at nominal host speed (see hostspeed.py)."""
    return [r[1] / clock.slowness_at(r[4]) for r in records]


def _latency_stats(latencies) -> dict:
    lat = sorted(latencies)
    n = len(lat)
    if n > TAIL_BEYOND:
        tail, pct = lat[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n
    else:
        tail, pct = lat[-1], 100.0
    return {"p50_ms": 1e3 * statistics.median(lat), "tail_ms": 1e3 * tail,
            "tail_pct": pct, "n": n}


def run(args) -> int:
    seen_env = {k: os.environ.get(k, "unset") for k in _ENV_KEYS}
    os.environ.pop("WAVECUT_WORKERS", None)  # one client, no worker threads
    wavecut, workloads = _load_library()
    wl = workloads.WORKLOADS[args.workload]
    fp = _fingerprint(seen_env, wavecut, args)

    setup = None if args.trace else _measure_setup(args)
    inputs = wl.inputs(args.seed)

    OUT_DIR.mkdir(exist_ok=True)
    WORK_DIR.mkdir(exist_ok=True)
    work = WORK_DIR / f"{os.getpid()}"
    work.mkdir()
    try:
        _loop(wl, inputs[-1:], work, "warm", count=1)
        result = (_traced(args, wl, inputs, work) if args.trace
                  else _untraced(args, wl, inputs, work, setup))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()  # only once no other run uses it

    metrics, details = result
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:8s} {name:44s} {value:14.6g} {unit}")
    for key, value in details.items():
        if key != "notes":
            unit = _DETAIL_UNITS.get(key, "")
            print(f"{args.workload:8s} {key:44s} {value} {unit}".rstrip())
    for note in details["notes"]:
        print(f"{args.workload:8s} FAILED {note}")
    print("fingerprint " + json.dumps(fp, sort_keys=True))

    attempted, failed = details["attempted"], details["failed"]
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(
        {"fingerprint": fp, "details": details, **line}, indent=1) + "\n")
    print(json.dumps(line))
    return 0


def _untraced(args, wl, inputs, work, setup):
    clock = HostClock()
    records, elapsed = _loop(wl, inputs, work, "r", seconds=args.seconds,
                             clock=clock)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, worst, notes = _check(wl, inputs, records, args.seed)
    n = len(records)
    done = sum(1 for r in records if r[3] is None)
    samples = _samples_ok(wl, inputs, records)
    setup_s, raw_setup_s = setup
    nominal = _nominal(records, clock)
    busy = sum(nominal)
    lat = _latency_stats(nominal)
    raw = _latency_stats([r[1] for r in records])
    metrics = {  # at nominal host speed, see hostspeed.py
        "setup_s": (setup_s, "s"),
        "requests_per_s": (done / busy, "1/s"),
        "samples_per_s": (samples / busy, "1/s"),
        "request_p50_ms": (lat["p50_ms"], "ms"),
        "request_tail_ms": (lat["tail_ms"], "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    details = {
        "attempted": n, "failed": failed,
        "failed_frac": failed / n, "worst_check_ratio": worst,
        "request_tail_percentile": round(lat["tail_pct"], 3),
        "request_count": n,
        "host_slowness": sum(r[1] for r in records) / busy,
        "raw_setup_s": raw_setup_s, "raw_requests_per_s": done / elapsed,
        "raw_samples_per_s": samples / elapsed,
        "raw_request_p50_ms": raw["p50_ms"],
        "raw_request_tail_ms": raw["tail_ms"],
        "elapsed_s": elapsed, "notes": notes,
    }
    return metrics, details


def _traced(args, wl, inputs, work):
    from tracer import Tracer
    plain_clock, traced_clock = HostClock(), HostClock()
    plain, _ = _loop(wl, inputs, work, "p", seconds=args.seconds / 2,
                     clock=plain_clock)
    n = len(plain)
    tracer = Tracer()
    tracer.install()
    try:
        traced, _ = _loop(wl, inputs, work, "t", count=n, tracer=tracer,
                          clock=traced_clock)
    finally:
        tracer.remove()
    # both halves at nominal host speed
    t_plain = sum(_nominal(plain, plain_clock))
    t_traced = sum(_nominal(traced, traced_clock))
    failed, worst, notes = _check(wl, inputs, plain + traced, args.seed)
    metrics = tracer.metrics(n)
    overhead = 1.0 - t_plain / t_traced  # share of untraced requests_per_s
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    metrics["checks.worst_ratio"] = (worst, "ratio")
    tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")
    details = {
        "attempted": 2 * n, "failed": failed,
        "failed_frac": failed / (2 * n), "worst_check_ratio": worst,
        "requests_per_s_untraced": n / t_plain,
        "requests_per_s_traced": n / t_traced,
        "spans": len(tracer.spans), "notes": notes,
    }
    return metrics, details


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("grid", "points", "sweep", "unified"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0 or not math.isfinite(args.seconds):
        p.error("--seconds must be positive")
    if args.setup_probe:
        return _setup_probe(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
