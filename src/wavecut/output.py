"""Structured file output: RFC-4180-style CSV and JSON with a metadata
header.  Numbers are serialized with 17 significant digits so files
round-trip doubles exactly and are byte-stable for a fixed configuration.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Mapping, Sequence

SCHEMAS = {
    "factor": ["re_k", "im_k", "re_splus", "im_splus", "method", "err_est"],
    "wavefunction": ["R", "y", "re_psi", "im_psi", "abs2", "err_est",
                     "method", "converged"],
    "yscan": ["y", "abs2"],
    "rscan": ["R", "abs2_y0", "abs2_y05"],
    "asymptotics": ["R", "y", "re_psi", "im_psi", "abs2", "method"],
}

def fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def write_csv(path: str | Path, names: Sequence[str],
              rows: Sequence[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\r\n")
        w.writerow(names)
        for row in rows:
            w.writerow([fmt(v) for v in row])


def write_json(path: str | Path, names: Sequence[str],
               rows: Sequence[Sequence], metadata: Mapping) -> None:
    cols = {n: [] for n in names}
    for row in rows:
        for n, v in zip(names, row):
            cols[n].append(float(v) if isinstance(v, float) else v)
    doc = {
        "metadata": dict(metadata, column_names=list(names)),
        "columns": cols,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_table(path: str | Path, fmt_name: str, names: Sequence[str],
                rows: Sequence[Sequence], metadata: Mapping) -> None:
    if fmt_name == "csv":
        write_csv(path, names, rows)
    elif fmt_name == "json":
        write_json(path, names, rows, metadata)
    else:
        raise ValueError(f"unknown output format {fmt_name!r}")
