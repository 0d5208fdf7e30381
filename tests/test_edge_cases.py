import numpy as np
import pytest

from conftest import make_problem
from memkernel.equivalence import EquivSetup, sensor_functional
from memkernel.errors import EvaluationError, PsiDegenerate
from memkernel.expressions import parse
from memkernel.grids import Grid
from memkernel.timeconv import Kernel


def _degenerate_setup():
    n = 12
    zeros = np.zeros(n)
    return EquivSetup(
        u2row=zeros, v0row=zeros, v1row=zeros, alpha=1.0,
        psi_row=zeros, psi_ell=1e-14, k0=0.0, y0=0.0, yprime0=0.0,
        y2prime0=0.0, f_derivs=np.zeros((5, 4)), ghat_u0=0.0, symbolic_f=True,
    )


def test_sensor_functionals_reject_degenerate_moment():
    setup = _degenerate_setup()
    with pytest.raises(PsiDegenerate):
        sensor_functional(setup, 1.0, np.zeros(12), 0.1)
    with pytest.raises(PsiDegenerate):
        sensor_functional(setup, np.ones(3), np.zeros((3, 12)), 0.1)


def test_expression_overflow_reported():
    e = parse("exp(x)", "x")
    with pytest.raises(EvaluationError):
        e.eval(1e6)
    e2 = parse("x^8", "x")
    with pytest.raises(EvaluationError):
        e2.eval(1e100)


def test_kernel_rejects_inconsistent_samples():
    t = np.linspace(0, 1, 11)
    with pytest.raises(ValueError, match="prefix integral"):
        Kernel(k=np.cos(t), kprime=np.zeros(11), k0=1.0, dt=0.1)
    with pytest.raises(ValueError, match="k0"):
        Kernel(k=np.zeros(11), kprime=np.zeros(11), k0=1.0, dt=0.1)


def test_kernel_from_expression_consistent():
    t = np.linspace(0, 1, 101)
    kern = Kernel.from_expression(parse("0.4*cos(2*t)", "t"), t)
    assert kern.k0 == pytest.approx(0.4)
    # integrated-rate samples track the exact kernel at quadrature order
    assert np.max(np.abs(kern.k - 0.4 * np.cos(2 * t))) < 1e-4


def test_grid_time_window():
    g = Grid(ell=1.0, T=1.0, nx=10, nt=100)
    w = g.time_window(25)
    assert w.nt == 25
    assert w.dt == pytest.approx(g.dt)
    assert w.nx == g.nx
    assert w.T == pytest.approx(0.25)


def test_solver_shape_validation():
    from memkernel.direct import solve_direct, solve_linear_dirichlet

    pd = make_problem(nx=10, nt=20)
    with pytest.raises(ValueError, match="time nodes"):
        solve_direct(pd, Kernel.zero(5, pd.grid.dt))
    with pytest.raises(ValueError, match="does not match"):
        solve_linear_dirichlet(pd, np.zeros(12), np.zeros(12), np.zeros((3, 12)))
    kern = Kernel.zero(20, pd.grid.dt)
    with pytest.raises(ValueError, match=r"flux_forcing shape \(5,\) .*\(21,\)"):
        solve_direct(pd, kern, flux_forcing=np.zeros(5))
    with pytest.raises(ValueError, match=r"^forcing shape \(21, 7\) .*\(21, 12\)"):
        solve_direct(pd, kern, forcing=np.zeros((21, 7)))


def test_build_setup_rejects_misshaped_series():
    pd = make_problem(nx=10, nt=20)
    from memkernel.equivalence import build_setup

    with pytest.raises(ValueError, match="time nodes"):
        build_setup(pd, np.zeros(7))


def test_u1_violating_clamp_warns():
    pd = make_problem(nx=30, nt=20, u1="1+0*x")
    from memkernel.equivalence import build_setup

    with pytest.warns(UserWarning, match="x=0"):
        build_setup(pd, parse("0*t", "t"))
