"""Structured file output: CSV and JSON with a metadata header.

A table is an ordered mapping from column name (one of the SCHEMAS) to a
list of Python scalars.  CSV streams a header line, then one line per
index from one %-template per table, fields joined by commas and ended
by CRLF.  No field needs RFC 4180 quoting, as none can hold a comma,
quote or line break: floats are ``.17g``, bools ``true``/``false``,
strings a column name, ``Method`` value, law name or ``closed_form``.
JSON holds the lists under ``columns`` and the names in order under
``metadata.column_names``, with keys sorted and numbers in shortest
round-trip form.  Both formats round-trip doubles exactly and are
byte-stable for a fixed configuration.
"""

from __future__ import annotations

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


def _csv_field(col: list) -> tuple[str, list]:
    """The %-template field of a column and the values it takes, the same
    text as fmt gives.  A float column whose first value does not recur
    (computed values, nearly all distinct) keeps %.17g in the template;
    any other column of one type is %s of fmt's text, formatted once per
    distinct value (a grid's R and y columns repeat each coordinate, its
    method column is one string)."""
    kinds = set(map(type, col))
    if kinds == {float} and col.count(col[0]) == 1:
        return "%.17g", col
    if len(kinds) > 1:
        return "%s", list(map(fmt, col))
    text = {v: fmt(v) for v in set(col)}
    out = list(map(text.__getitem__, col))
    if kinds == {float} and 0.0 in text:
        # 0.0 and -0.0 are one key but print as 0 and -0
        i = -1
        for _ in range(col.count(0.0)):
            i = col.index(0.0, i + 1)
            out[i] = fmt(col[i])
    return "%s", out


def write_table(path: str | Path, fmt_name: str, columns: Mapping[str, list],
                metadata: Mapping) -> None:
    if fmt_name == "csv":
        fields, cols = zip(*map(_csv_field, columns.values()))
        line = ",".join(fields) + "\r\n"
        with open(path, "w", newline="") as fh:
            fh.write(",".join(columns) + "\r\n")
            fh.writelines(line % row for row in zip(*cols))
    elif fmt_name == "json":
        doc = {"metadata": dict(metadata, column_names=list(columns)),
               "columns": columns}
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    else:
        raise ValueError(f"unknown output format {fmt_name!r}")
