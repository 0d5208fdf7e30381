import numpy as np
import pytest

from conftest import make_problem
from memkernel.direct import profiles, solve_direct
from memkernel.equivalence import (
    build_setup,
    check_compatibility,
    prefix_integral_row,
    sensor_functional,
)
from memkernel.errors import AlphaDegenerate, BoundaryIncompatible, PsiDegenerate
from memkernel.expressions import parse
from memkernel.grids import DispersiveInverse, quad_trapz
from memkernel.timeconv import Kernel
from verify import equivalent_residual, residual_interior_norm, transform_to_v, u_from_v


def _zero_series(pd):
    return np.zeros(pd.grid.nt + 1)


def test_psi_value_for_bump_sensor():
    pd = make_problem(beta=0.1)
    setup = build_setup(pd, _zero_series(pd) + overdet_zero(pd))
    # integral of x^3 (1-x)^3 over [0, 1] = 1/140; sensor slope vanishes at 1
    assert setup.psi_ell == pytest.approx(1.0 / 140.0, rel=1e-12)


def overdet_zero(pd):
    # synthesized measurement for the problem's own data with zero kernel
    sol = solve_direct(pd, Kernel.zero(pd.grid.nt, pd.grid.dt))
    return sol.f - sol.f


def test_prefix_integral_exact_for_polynomial():
    pd = make_problem()
    x = pd.grid.x
    row = prefix_integral_row(parse("x^2", "x"), x)
    assert np.allclose(row, x**3 / 3.0, atol=1e-15)


def test_zero_velocity_gives_zero_v0():
    pd = make_problem(u1="0*x")
    setup = build_setup(pd, parse("0*t", "t"))
    assert np.allclose(setup.v0row, 0.0)


def test_v0_v1_vanish_at_both_ends():
    pd = make_problem()
    sol = solve_direct(pd, Kernel.zero(pd.grid.nt, pd.grid.dt))
    setup = build_setup(pd, sol.f)
    assert setup.v0row[0] == pytest.approx(0.0, abs=1e-12)
    assert setup.v0row[-1] == pytest.approx(0.0, abs=1e-12)
    assert setup.v1row[0] == pytest.approx(0.0, abs=1e-12)
    assert setup.v1row[-1] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("symbolic", [False, True])
def test_u2row_is_the_dispersive_solve_of_u0pp(symbolic):
    # u_tt(., 0) with the end value the velocity law gives from y'(0), y''(0)
    pd = make_problem(nx=40, nt=80)
    kern = Kernel.from_expression(parse("0.4*cos(2*t)", "t"), pd.grid.t)
    f = parse("0*t", "t") if symbolic else solve_direct(pd, kern).f
    setup = build_setup(pd, f)
    right = -pd.p * setup.y2prime0 - pd.q * setup.yprime0
    inv = DispersiveInverse(pd.beta, pd.grid.dx, pd.grid.nx)
    assert np.array_equal(setup.u2row, inv.solve(profiles(pd).u0pp, 0.0, right))


def test_alpha_against_quadrature_oracle():
    pd = make_problem(nx=120)
    setup = build_setup(pd, parse("0*t", "t"))
    xs = np.linspace(0, 1, 100001)
    phip = parse("3*x^2*(1-x)^3 - 3*x^3*(1-x)^2", "x")
    u0pp = ((parse("x^2*(1-x)*(2-x)", "x").diff()).diff())
    dense = np.trapezoid(phip.eval(xs) * u0pp.eval(xs), xs)
    assert 1.0 / setup.alpha == pytest.approx(dense, rel=1e-6)


def test_symmetric_pairing_is_degenerate():
    # symmetric sensor against sin(pi x): the pairing integral vanishes
    with pytest.raises(AlphaDegenerate):
        pd = make_problem(u0="sin(3.141592653589793*x)")
        build_setup(pd, parse("0*t", "t"))


def test_zero_data_builds_with_zero_alpha():
    pd = make_problem(u0="0*x", u1="0*x")
    setup = build_setup(pd, parse("0*t", "t"))
    assert setup.alpha == 0.0
    assert setup.k0 == 0.0
    assert setup.y0 == 0.0 and setup.yprime0 == 0.0 and setup.y2prime0 == 0.0


def test_unclamped_u0_rejected():
    pd = make_problem(u0="x+1")
    with pytest.raises(BoundaryIncompatible):
        build_setup(pd, parse("0*t", "t"))


def test_degenerate_sensor_moment():
    # odd-symmetric sensor integrates to zero over the interval
    pd = make_problem(phi="x^3*(1-x)^3*(1-2*x)")
    with pytest.raises(PsiDegenerate):
        build_setup(pd, parse("0*t", "t"))


def test_twin_compatibility_passes():
    pd = make_problem(nx=150, nt=300)
    kern = Kernel.from_expression(parse("0.5*exp(-t)", "t"), pd.grid.t)
    sol = solve_direct(pd, kern)
    setup = build_setup(pd, sol.f)
    report = check_compatibility(setup, pd)
    for c in report.checks:
        assert c.passed, (c.name, c.value, c.tolerance)


def test_corrupted_measurement_fails_first_identity():
    pd = make_problem(nx=100, nt=200)
    kern = Kernel.from_expression(parse("0.5*exp(-t)", "t"), pd.grid.t)
    sol = solve_direct(pd, kern)
    setup = build_setup(pd, sol.f + 0.25 * (1.0 + np.abs(sol.f).max()))
    report = check_compatibility(setup, pd)
    assert not report["f_at_0"].passed
    assert not report.passed


def test_inconsistent_symbolic_measurement_fails():
    pd = make_problem()
    setup = build_setup(pd, parse("1+t", "t"))
    report = check_compatibility(setup, pd)
    assert not report["f_at_0"].passed


def test_zero_data_report_passes():
    pd = make_problem(u0="0*x", u1="0*x")
    setup = build_setup(pd, parse("0*t", "t"))
    assert check_compatibility(setup, pd).passed


def test_report_text_format():
    pd = make_problem(u0="0*x", u1="0*x")
    report = check_compatibility(build_setup(pd, parse("0*t", "t")), pd)
    text = report.to_text()
    assert text.splitlines()[0] == "name,value,tolerance,pass"
    assert all(line.count(",") == 3 for line in text.splitlines()[1:])


def test_G_functionals():
    pd = make_problem()
    setup = build_setup(pd, parse("0*t", "t"))
    dx = pd.grid.dx
    zero_row = np.zeros(pd.grid.nx + 2)
    assert sensor_functional(setup, 0.0, zero_row, dx) == 0.0
    assert sensor_functional(setup, 0.7, zero_row, dx) == pytest.approx(0.7 / setup.psi_ell)
    prof = profiles(pd)
    val = sensor_functional(setup, 0.0, prof.phipp, dx)
    oracle = quad_trapz(setup.psi_row * prof.phipp, dx) / setup.psi_ell
    assert val == pytest.approx(oracle, rel=1e-12)
    assert sensor_functional(setup, 1.0, prof.phipp, dx) == pytest.approx(
        (1.0 + quad_trapz(setup.psi_row * prof.phipp, dx)) / setup.psi_ell
    )


def test_ghat_constant_equals_initial_slope():
    # for compatible data the functional of u0'' at time 0 is u0'(ell)
    pd = make_problem(nx=200, nt=100)
    sol = solve_direct(pd, Kernel.zero(pd.grid.nt, pd.grid.dt))
    setup = build_setup(pd, sol.f)
    assert setup.ghat_u0 == pytest.approx(profiles(pd).u0p[-1], abs=5e-3)


def test_u_from_v_trivial_cases():
    pd = make_problem()
    g = pd.grid
    u0row = profiles(pd).u0
    v = np.zeros((g.nt + 1, g.nx + 2))
    z = np.zeros(g.nt + 1)
    assert np.allclose(u_from_v(pd, v, z, u0row), u0row)
    # v = z x / ell cancels exactly
    z = np.sin(g.t)
    v = np.outer(z, g.x / pd.ell)
    assert np.allclose(u_from_v(pd, v, z, u0row), u0row, atol=1e-14)


def test_round_trip_direct_solution():
    pd = make_problem(nx=100, nt=400)
    kern = Kernel.from_expression(parse("0.4*cos(2*t)", "t"), pd.grid.t)
    sol = solve_direct(pd, kern)
    v, z = transform_to_v(pd, sol)
    u_back = u_from_v(pd, v, z, sol.u[0])
    err = np.max(np.abs(u_back - sol.u))
    assert err < 20.0 * pd.grid.dt**2


def test_equivalence_residual_refines():
    """Transformed direct solutions satisfy the homogeneous system at order >= 1.5."""
    norms = []
    for nx, nt in ((60, 120), (120, 240), (240, 480)):
        pd = make_problem(nx=nx, nt=nt)
        kern = Kernel.from_expression(parse("0.5*exp(-t)", "t"), pd.grid.t)
        sol = solve_direct(pd, kern)
        v, z = transform_to_v(pd, sol)
        r = equivalent_residual(pd, v, z, kern)
        norms.append(residual_interior_norm(pd, r))
    orders = [np.log2(norms[i] / norms[i + 1]) for i in range(len(norms) - 1)]
    assert all(o >= 1.5 for o in orders), (norms, orders)


def test_psi_two_quadratures_agree():
    pd = make_problem()
    x = pd.grid.x
    fine = np.linspace(0, 1, 20 * (len(x) - 1) + 1)
    phi_vals = parse("x^3*(1-x)^3", "x").eval(fine)
    import numpy as _np

    dense_prefix = _np.concatenate(
        [[0.0], _np.cumsum(0.5 * (phi_vals[1:] + phi_vals[:-1]) * (fine[1] - fine[0]))]
    )
    coarse = prefix_integral_row(parse("x^3*(1-x)^3", "x"), x)
    dense_at_nodes = dense_prefix[:: 20]
    assert np.max(np.abs(coarse - dense_at_nodes)) < 1e-8
