import numpy as np
import pytest

from memkernel.csvio import (
    ROW_BLOCK,
    _fmt,
    write_columns,
    write_field_long,
    write_field_matrix,
)

# awkward values: negative zero, the smallest subnormal, a float that repr
# writes in exponent form, one with no exact binary form and one that needs
# all 17 significant digits
X = np.array([0.0, 0.1, 1e16])
T = np.array([-0.0, 5e-324])
FIELD = np.array([[-0.0, 5e-324, 1e16], [0.1, 0.1 + 0.2, -1e-300]])
# the same rows on top of a field taller than one block of the long writer
_EXTRA = 2 * ROW_BLOCK + 1
TALL_T = np.concatenate((T, 0.1 * np.arange(1, _EXTRA + 1)))
TALL_FIELD = np.vstack((FIELD, np.sin(np.arange(3 * _EXTRA)).reshape(_EXTRA, 3) / 3))


def _long(path, x, t, field):
    write_field_long(path, x, t, field)
    rows = [f"{_fmt(xi)},{_fmt(tn)},{_fmt(field[n, i])}"
            for n, tn in enumerate(t) for i, xi in enumerate(x)]
    return ["x,t,value"] + rows


def _matrix(path, x, t, field):
    write_field_matrix(path, x, t, field)
    rows = [_fmt(tn) + "," + ",".join(_fmt(v) for v in field[n]) for n, tn in enumerate(t)]
    return ["t\\x," + ",".join(_fmt(xi) for xi in x)] + rows


def _columns(path, x, t, field):
    write_columns(path, "a,b,c", field.T)
    rows = [",".join(_fmt(v) for v in row) for row in field]
    return ["a,b,c"] + rows


@pytest.mark.parametrize("write", [_long, _matrix, _columns], ids=["long", "matrix", "columns"])
def test_writer_matches_per_node_formatting(tmp_path, write):
    path = tmp_path / "out.csv"
    for t, field in ((T, FIELD), (TALL_T, TALL_FIELD)):
        expected = write(path, X, t, field)
        assert path.read_bytes() == ("\n".join(expected) + "\n").encode("ascii")
        assert "-0.0" in path.read_text().splitlines()[1].split(",")
