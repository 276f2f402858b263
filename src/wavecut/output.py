"""Structured file output: RFC-4180-style CSV and JSON with a metadata
header.

A table is an ordered mapping from column name (one of the SCHEMAS) to a
list of Python scalars.  CSV writes the columns in that order, a header
row and then one row per index; JSON holds the lists as given under
``columns`` (keys sorted, like every object in the file) and the names
in order under ``metadata.column_names``.  CSV numbers carry 17
significant digits and JSON numbers Python's shortest round-trip form,
so both round-trip doubles exactly and files are byte-stable for a fixed
configuration.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Mapping

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


def write_table(path: str | Path, fmt_name: str, columns: Mapping[str, list],
                metadata: Mapping) -> None:
    if fmt_name == "csv":
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\r\n")
            w.writerow(columns)
            w.writerows([fmt(v) for v in row]
                        for row in zip(*columns.values()))
    elif fmt_name == "json":
        doc = {"metadata": dict(metadata, column_names=list(columns)),
               "columns": columns}
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    else:
        raise ValueError(f"unknown output format {fmt_name!r}")
