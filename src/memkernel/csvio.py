"""CSV emission for all solver products.

Period decimal separator, newline-terminated rows, mandatory header.
Floats are written with repr (shortest round-trip form), so reruns of a
deterministic pipeline produce byte-identical files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

__all__ = [
    "write_columns",
    "write_timeseries",
    "write_field_long",
    "write_field_matrix",
    "write_text",
]


def _fmt(value):
    return repr(float(value))


def write_text(path, text):
    Path(path).write_text(text, encoding="ascii")


def write_columns(path, header, columns):
    """Write equal-length columns under a comma-separated header."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    n = columns[0].shape[0]
    if any(c.shape[0] != n for c in columns):
        raise ValueError("column length mismatch")
    cells = [map(repr, c.tolist()) for c in columns]
    lines = [header] + [",".join(row) for row in zip(*cells)]
    write_text(path, "\n".join(lines) + "\n")


def write_timeseries(path, t, values, header="t,value"):
    write_columns(path, header, [t, values])


def write_field_long(path, x, t, field):
    """Long format: one `x,t,value` row per node."""
    xs = list(map(repr, np.asarray(x, dtype=float).tolist()))
    rows = np.asarray(field, dtype=float).tolist()
    lines = ["x,t,value"]
    for tn, row in zip(np.asarray(t, dtype=float).tolist(), rows, strict=True):
        mid = f",{tn!r},"
        lines.append("\n".join([xi + mid + v for xi, v in zip(xs, map(repr, row), strict=True)]))
    write_text(path, "\n".join(lines) + "\n")


def write_field_matrix(path, x, t, field):
    """Matrix format: first row the x nodes, first column the t nodes."""
    lines = ["t\\x," + ",".join(map(repr, np.asarray(x, dtype=float).tolist()))]
    rows = np.asarray(field, dtype=float).tolist()
    for tn, row in zip(np.asarray(t, dtype=float).tolist(), rows, strict=True):
        lines.append(repr(tn) + "," + ",".join(map(repr, row)))
    write_text(path, "\n".join(lines) + "\n")
