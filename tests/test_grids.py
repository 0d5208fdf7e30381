import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from banded_march import dense_dispersive_solve
from memkernel.grids import (
    DispersiveInverse,
    Grid,
    first_diff,
    quad_trapz,
    second_diff,
    spatial_h2_norm,
)


def test_grid_node_placement():
    g = Grid(ell=2.0, T=1.0, nx=9, nt=10)
    assert g.dx == pytest.approx(0.2)
    assert g.dt == pytest.approx(0.1)
    assert g.x[0] == 0.0
    assert g.x[-1] == 2.0
    assert len(g.x) == 11
    assert len(g.t) == 11


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(1.0, 1.0, 2, 10)
    with pytest.raises(ValueError):
        Grid(1.0, 1.0, 10, 1)
    with pytest.raises(ValueError):
        Grid(-1.0, 1.0, 10, 10)


def test_second_diff_kills_linear():
    g = Grid(1.0, 1.0, 20, 2)
    d = second_diff(g.x, g.dx)
    assert np.allclose(d[1:-1], 0.0, atol=1e-11)


def test_second_diff_exact_for_quadratic():
    g = Grid(1.0, 1.0, 20, 2)
    d = second_diff(g.x**2, g.dx)
    assert np.allclose(d, 2.0, atol=1e-9)  # one-sided ends exact too


def test_second_diff_sine_taylor_bound():
    g = Grid(1.0, 1.0, 199, 2)
    d = second_diff(np.sin(np.pi * g.x), g.dx)
    exact = -np.pi**2 * np.sin(np.pi * g.x)
    err = np.max(np.abs(d[1:-1] - exact[1:-1]))
    assert err <= (np.pi**4 / 12.0) * g.dx**2 * 1.0000001


def test_second_diff_linearity():
    rng = np.random.default_rng(7)
    u = rng.standard_normal(40)
    w = rng.standard_normal(40)
    a, b = 1.7, -0.3
    lhs = second_diff(a * u + b * w, 0.1)
    rhs = a * second_diff(u, 0.1) + b * second_diff(w, 0.1)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_helmholtz_identity_when_beta_zero():
    g = Grid(1.0, 1.0, 10, 2)
    rhs = np.sin(g.x)
    w = DispersiveInverse(0.0, g.dx, g.nx).solve(rhs, 3.0, 4.0)
    assert np.allclose(w[1:-1], rhs[1:-1])
    assert w[0] == 3.0 and w[-1] == 4.0


def test_helmholtz_discrete_eigenfunction():
    beta = 0.1
    g = Grid(1.0, 1.0, 199, 2)
    rhs = np.sin(np.pi * g.x)
    w = DispersiveInverse(beta, g.dx, g.nx).solve(rhs, 0.0, 0.0)
    lam = (2.0 - 2.0 * np.cos(np.pi * g.dx)) / g.dx**2
    assert np.allclose(w[1:-1], rhs[1:-1] / (1.0 + beta * lam), atol=1e-12)
    # and close to the continuum factor 1/(1 + beta*pi^2)
    assert np.max(np.abs(w - rhs / (1 + beta * np.pi**2))) < 1e-4


def test_helmholtz_zero_rhs():
    g = Grid(1.0, 1.0, 10, 2)
    w = DispersiveInverse(0.5, g.dx, g.nx).solve(np.zeros(12), 0.0, 0.0)
    assert np.allclose(w, 0.0)


def test_helmholtz_rejects_negative_beta():
    with pytest.raises(ValueError):
        DispersiveInverse(-0.1, 0.1, 10).solve(np.zeros(12), 0.0, 0.0)


def test_helmholtz_residual_is_tiny():
    beta = 0.37
    g = Grid(1.0, 1.0, 150, 2)
    rng = np.random.default_rng(3)
    rhs = rng.standard_normal(g.nx + 2)
    w = DispersiveInverse(beta, g.dx, g.nx).solve(rhs, 0.2, -0.4)
    resid = w - beta * second_diff(w, g.dx) - rhs
    scale = np.max(np.abs(rhs))
    assert np.max(np.abs(resid[1:-1])) <= 1e-12 * scale


@settings(max_examples=80, deadline=None)
@example(beta=0.0, nx=3, seed=0)
@example(beta=2.0, nx=3, seed=1)
@example(beta=2.0, nx=400, seed=2)
@given(
    beta=st.one_of(st.just(0.0), st.floats(1e-4, 2.0)),
    nx=st.integers(3, 400),
    seed=st.integers(0, 2**32 - 1),
)
def test_dispersive_inverse_matches_dense_solve(beta, nx, seed):
    dx = 1.0 / (nx + 1)
    rng = np.random.default_rng(seed)
    rhs = rng.standard_normal(nx + 2)
    left, right = rng.uniform(0.1, 2.0, 2) * rng.choice([-1.0, 1.0], 2)
    w = DispersiveInverse(beta, dx, nx).solve(rhs, left, right)
    ref = dense_dispersive_solve(beta, dx, rhs, left, right)
    assert w[0] == left and w[-1] == right
    assert np.max(np.abs(w - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_quad_trapz_exact_constant_and_linear():
    g = Grid(1.0, 1.0, 99, 2)
    assert quad_trapz(np.ones(g.nx + 2), g.dx) == pytest.approx(1.0, abs=1e-14)
    assert quad_trapz(g.x, g.dx) == pytest.approx(0.5, abs=1e-14)


def test_quad_trapz_square_error_term():
    g = Grid(1.0, 1.0, 99, 2)
    val = quad_trapz(g.x**2, g.dx)
    assert val == pytest.approx(1.0 / 3.0 + g.dx**2 / 6.0, abs=1e-13)


def test_quad_trapz_second_order_convergence():
    errs = []
    for nx in (49, 99, 199):
        g = Grid(1.0, 1.0, nx, 2)
        errs.append(abs(quad_trapz(np.sin(np.pi * g.x), g.dx) - 2.0 / np.pi))
    order = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
    assert all(1.9 < p < 2.1 for p in order)


def test_first_diff_second_order():
    errs = []
    for nx in (49, 99):
        g = Grid(1.0, 1.0, nx, 2)
        d = first_diff(np.sin(g.x), g.dx)
        errs.append(np.max(np.abs(d - np.cos(g.x))))
    assert 1.8 < np.log2(errs[0] / errs[1]) < 2.2


def test_spatial_h2_norm_of_sine():
    g = Grid(1.0, 1.0, 400, 2)
    n = spatial_h2_norm(np.sin(np.pi * g.x), g.dx)
    exact = np.sqrt(0.5 + np.pi**2 / 2 + np.pi**4 / 2)
    assert n == pytest.approx(exact, rel=1e-3)
