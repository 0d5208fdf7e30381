import numpy as np

from memkernel.csvio import _fmt, write_field_long


def test_field_long_matches_per_node_formatting(tmp_path):
    # awkward values: negative zero, the smallest subnormal, a float that
    # repr writes in exponent form, one with no exact binary form and one
    # that needs all 17 significant digits
    x = np.array([0.0, 0.1, 1e16])
    t = np.array([-0.0, 5e-324])
    field = np.array([[-0.0, 5e-324, 1e16], [0.1, 0.1 + 0.2, -1e-300]])
    path = tmp_path / "u.csv"
    write_field_long(path, x, t, field)
    rows = [f"{_fmt(xi)},{_fmt(tn)},{_fmt(field[n, i])}"
            for n, tn in enumerate(t) for i, xi in enumerate(x)]
    assert path.read_bytes() == ("x,t,value\n" + "\n".join(rows) + "\n").encode("ascii")
    assert path.read_text().splitlines()[1] == "0.0,-0.0,-0.0"
