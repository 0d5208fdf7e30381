import numpy as np
import pytest

from memkernel.csvio import _fmt, write_columns, write_field_long, write_field_matrix

# awkward values: negative zero, the smallest subnormal, a float that repr
# writes in exponent form, one with no exact binary form and one that needs
# all 17 significant digits
X = np.array([0.0, 0.1, 1e16])
T = np.array([-0.0, 5e-324])
FIELD = np.array([[-0.0, 5e-324, 1e16], [0.1, 0.1 + 0.2, -1e-300]])


def _long(path):
    write_field_long(path, X, T, FIELD)
    rows = [f"{_fmt(xi)},{_fmt(tn)},{_fmt(FIELD[n, i])}"
            for n, tn in enumerate(T) for i, xi in enumerate(X)]
    return ["x,t,value"] + rows


def _matrix(path):
    write_field_matrix(path, X, T, FIELD)
    rows = [_fmt(tn) + "," + ",".join(_fmt(v) for v in FIELD[n]) for n, tn in enumerate(T)]
    return ["t\\x," + ",".join(_fmt(xi) for xi in X)] + rows


def _columns(path):
    write_columns(path, "a,b,c", FIELD.T)
    rows = [",".join(_fmt(v) for v in row) for row in FIELD]
    return ["a,b,c"] + rows


@pytest.mark.parametrize("write", [_long, _matrix, _columns], ids=["long", "matrix", "columns"])
def test_writer_matches_per_node_formatting(tmp_path, write):
    path = tmp_path / "out.csv"
    expected = write(path)
    assert path.read_bytes() == ("\n".join(expected) + "\n").encode("ascii")
    assert "-0.0" in path.read_text().splitlines()[1].split(",")
