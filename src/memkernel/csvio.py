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


ROW_BLOCK = 64  # time rows per write of the field writers


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
    """Long format: one `x,t,value` row per node.

    Time rows are formatted and written in blocks of ``ROW_BLOCK``, so the
    strings of one block, not of the whole field, are alive at once.
    """
    xs = list(map(repr, np.asarray(x, dtype=float).tolist()))
    t = np.asarray(t, dtype=float)
    field = np.asarray(field, dtype=float)
    if field.shape != (t.shape[0], len(xs)):
        raise ValueError(f"field shape {field.shape} does not match the x and t nodes")
    with open(path, "w", encoding="ascii", newline="\n") as out:
        out.write("x,t,value\n")
        for b in range(0, t.shape[0], ROW_BLOCK):
            lines = []
            for tn, row in zip(t[b : b + ROW_BLOCK].tolist(), field[b : b + ROW_BLOCK].tolist()):
                mid = f",{tn!r},"
                lines.extend(xi + mid + v for xi, v in zip(xs, map(repr, row)))
            out.write("\n".join(lines) + "\n")


def write_field_matrix(path, x, t, field):
    """Matrix format: first row the x nodes, first column the t nodes.

    Rows are formatted and written in blocks of ``ROW_BLOCK``, as in
    ``write_field_long``.
    """
    t = np.asarray(t, dtype=float)
    field = np.asarray(field, dtype=float)
    if field.shape[0] != t.shape[0]:
        raise ValueError(f"field has {field.shape[0]} rows for {t.shape[0]} t nodes")
    with open(path, "w", encoding="ascii", newline="\n") as out:
        out.write("t\\x," + ",".join(map(repr, np.asarray(x, dtype=float).tolist())) + "\n")
        for b in range(0, t.shape[0], ROW_BLOCK):
            rows = zip(t[b : b + ROW_BLOCK].tolist(), field[b : b + ROW_BLOCK].tolist())
            out.write("".join(repr(tn) + "," + ",".join(map(repr, row)) + "\n"
                              for tn, row in rows))
