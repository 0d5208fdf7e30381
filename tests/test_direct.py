from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from banded_march import banded_march
from conftest import make_problem
from memkernel.direct import (
    _dirichlet_coefficients,
    _dirichlet_seed,
    _march_modes,
    overdetermination,
    profiles,
    solve_direct,
    solve_linear_dirichlet,
)
from memkernel.errors import BoundaryIncompatible
from memkernel.expressions import parse
from memkernel.grids import DispersiveInverse, _sine_modes, quad_trapz
from memkernel.timeconv import ROW_BLOCK, Kernel, convolution_matrix
from verify import (
    equivalent_residual,
    overdetermination_flux_form,
    reference_march_modes,
    reference_solve_direct,
    residual_interior_norm,
    transform_to_v,
)


def _manufactured_case(nx, nt, beta=0.1, p=1.0, q=1.3, ell=1.0, T=1.0, c=0.5):
    """Separable manufactured solution exercising the full boundary closure.

    u*(x,t) = sin(pi x / ell) cos(t) with kernel c e^{-t}.  The velocity law
    at x = ell is satisfied exactly by y* = y0 exp(-q t / p); the flux
    balance carries a known forcing series, and the field equation the
    matching interior forcing.
    """
    pd = make_problem(nx=nx, nt=nt, beta=beta, p=p, q=q, ell=ell, T=T,
                      u0=f"sin({np.pi / ell}*x)", u1="0*x")
    g = pd.grid
    t, x = g.t, g.x
    w = np.sin(np.pi * x / ell)
    wp_r = (np.pi / ell) * np.cos(np.pi)
    gt = np.cos(t)
    gtt = -np.cos(t)
    conv_exp = 0.5 * (np.cos(t) + np.sin(t) - np.exp(-t))  # exp(-t) conv cos
    u_exact = np.outer(gt, w)
    y0 = p * np.pi / (q * ell)
    y_exact = y0 * np.exp(-q * t / p)
    ypr_exact = -(q / p) * y_exact

    h = gtt + (np.pi / ell) ** 2 * (gt + beta * gtt - c * conv_exp)
    forcing = np.outer(h, w)
    flux_forcing = wp_r * (gt - c * conv_exp) - ypr_exact

    kern = Kernel.from_expression(parse(f"{c}*exp(-t)", "t"), t)
    return pd, kern, forcing, flux_forcing, u_exact, y_exact


def test_zero_data_gives_zero_solution():
    pd = make_problem(u0="0*x", u1="0*x")
    sol = solve_direct(pd, Kernel.zero(pd.grid.nt, pd.grid.dt))
    assert np.allclose(sol.u, 0.0)
    assert np.allclose(sol.y, sol.y[0] * np.exp(-pd.q * pd.grid.t / pd.p))
    assert sol.y[0] == 0.0  # boundary relations at t=0 give y(0) = 0 here
    assert np.allclose(sol.f, 0.0)


def test_clamped_end_enforced():
    pd = make_problem()
    sol = solve_direct(pd, Kernel.zero(pd.grid.nt, pd.grid.dt))
    assert np.allclose(sol.u[:, 0], 0.0)


def test_rejects_unclamped_initial_data():
    pd = make_problem(u0="1+x")
    with pytest.raises(BoundaryIncompatible):
        solve_direct(pd, Kernel.zero(pd.grid.nt, pd.grid.dt))


def test_manufactured_convergence_order():
    errs = []
    for nx, nt in ((50, 100), (100, 200), (200, 400)):
        pd, kern, F, g1, u_exact, y_exact = _manufactured_case(nx, nt)
        sol = solve_direct(pd, kern, forcing=F, flux_forcing=g1)
        errs.append(
            np.max(np.abs(sol.u - u_exact)) + np.max(np.abs(sol.y - y_exact))
        )
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert all(1.7 <= o <= 2.3 for o in orders), (errs, orders)


def test_large_beta_stable_at_dt_equal_dx():
    # dispersion caps the discrete frequencies, so dt = dx stays benign
    nx = 99
    pd = make_problem(nx=nx, nt=nx + 1, beta=10.0, T=1.0)
    sol = solve_direct(pd, Kernel.zero(pd.grid.nt, pd.grid.dt))
    assert np.all(np.isfinite(sol.u))
    assert np.max(np.abs(sol.u)) < 10.0 * np.max(np.abs(sol.u[0]) + 1e-12) + 1.0


@settings(max_examples=60, deadline=None)
@example(nx=3, nt=2, beta=0.1, p=1.0, q=1.0, T=1.0, a=0.4, b=2.0, c=0.0,
         residue=0.0, seed=0)
@example(nx=20, nt=30, beta=0.1, p=1.0, q=1.0, T=1.0, a=0.4, b=2.0, c=0.0,
         residue=1e-12, seed=1)
@example(nx=100, nt=60, beta=0.1, p=1.0, q=1.0, T=1.0, a=0.4, b=2.0, c=0.0,
         residue=1e-12, seed=2)  # nx + 1 = 101 is prime
@example(nx=5, nt=128, beta=0.3, p=0.7, q=1.6, T=1.0, a=-0.6, b=3.0, c=0.2,
         residue=0.0, seed=3)  # the steps end one short of a block edge
@example(nx=4, nt=129, beta=0.1, p=1.0, q=1.0, T=1.0, a=0.4, b=2.0, c=0.0,
         residue=1e-12, seed=4)  # the last step opens the second block
@example(nx=6, nt=257, beta=0.5, p=2.0, q=0.4, T=1.0, a=0.9, b=1.0, c=-0.3,
         residue=0.0, seed=5)  # two full blocks of 128 steps
@given(
    nx=st.integers(3, 40),
    nt=st.integers(2, 60),
    beta=st.floats(0.1, 1.0),
    p=st.floats(0.2, 3.0),
    q=st.floats(0.2, 3.0),
    T=st.floats(0.1, 1.0),
    a=st.floats(-1.0, 1.0),
    b=st.floats(0.0, 4.0),
    c=st.floats(-1.0, 1.0),
    residue=st.sampled_from([0.0, 1e-12]),
    seed=st.integers(0, 2**32 - 1),
)
def test_march_matches_the_reference_within_roundoff(nx, nt, beta, p, q, T, a, b, c,
                                                     residue, seed):
    # the sine-mode march against the physical step loop: the same scheme,
    # with different roundoff.  u0(0) is zero, or a residue the clamp check
    # admits; the hooks are random fields
    rng = np.random.default_rng(seed)
    c0, c1, c2 = rng.uniform(-1.0, 1.0, 3).tolist()
    pd = make_problem(nx=nx, nt=nt, beta=beta, p=p, q=q, T=T,
                      u0=f"{c0!r}*x*(2-x) + {c1!r}*sin(3*x) + {residue!r}",
                      u1=f"{c2!r}*x^2")
    kern = Kernel.from_expression(parse(f"{a!r}*cos({b!r}*t) + {c!r}", "t"), pd.grid.t)
    hooks = dict(forcing=rng.standard_normal((nt + 1, nx + 2)),
                 flux_forcing=rng.standard_normal(nt + 1))
    for kw in ({}, hooks):
        got, ref = solve_direct(pd, kern, **kw), reference_solve_direct(pd, kern, **kw)
        for name in ("u", "y", "yprime", "f"):
            g, r = getattr(got, name), getattr(ref, name)
            assert np.max(np.abs(g - r)) <= 1e-10 * np.max(np.abs(r)), name


def test_march_roundoff_stays_below_the_truncation_error():
    # criterion 4's residual takes second time differences of u, which
    # amplify roundoff that is uncorrelated in time by 1/dt^2.  The physical
    # step loop gives 1.5e-4 here; back-transforming the modes row by row
    # gives 2.3e-3, while summing back-transformed accelerations gives 1.2e-4
    pd = make_problem(nx=480, nt=960)
    kern = Kernel.from_expression(parse("0.5*exp(-t)", "t"), pd.grid.t)
    v, z = transform_to_v(pd, solve_direct(pd, kern))
    assert residual_interior_norm(pd, equivalent_residual(pd, v, z, kern)) <= 4.5e-4


def test_march_does_no_dispersive_solve_per_step(monkeypatch):
    calls = []
    solve = DispersiveInverse.solve

    def counted(self, *args):
        calls.append(1)
        return solve(self, *args)

    monkeypatch.setattr(DispersiveInverse, "solve", counted)
    counts = []
    for nt in (40, 400):
        pd = make_problem(nx=30, nt=nt)
        kern = Kernel.from_expression(parse("0.4*cos(2*t)", "t"), pd.grid.t)
        calls.clear()
        solve_direct(pd, kern)
        counts.append(len(calls))
    assert counts[0] == counts[1], counts


def test_march_takes_its_history_one_lag_block_per_row_block(monkeypatch):
    # the memory before each block of ROW_BLOCK steps is one lag-block
    # product, so the count grows with the blocks, not the steps, and no
    # convolution matrix is built
    import memkernel.direct as direct
    import memkernel.timeconv as timeconv

    blocks, matrices = [], []

    def counted_block(*args):
        blocks.append(1)
        return timeconv.lag_block(*args)

    def counted_matrix(*args):
        matrices.append(1)
        return convolution_matrix(*args)

    monkeypatch.setattr(direct, "lag_block", counted_block)
    monkeypatch.setattr(timeconv, "convolution_matrix", counted_matrix)
    for nt in (40, 1200):
        pd = make_problem(nx=20, nt=nt)
        kern = Kernel.from_expression(parse("0.4*cos(2*t)", "t"), pd.grid.t)
        blocks.clear()
        solve_direct(pd, kern)
        assert len(blocks) == -(-(nt - 1) // ROW_BLOCK), (nt, len(blocks))
    assert not matrices


def test_dirichlet_zero_data():
    pd = make_problem()
    g = pd.grid
    v = solve_linear_dirichlet(
        pd, np.zeros(g.nx + 2), np.zeros(g.nx + 2), np.zeros((g.nt + 1, g.nx + 2))
    )
    assert np.allclose(v, 0.0)


def test_dirichlet_dispersive_mode_frequency():
    beta, ell = 0.1, 1.0
    pd = make_problem(nx=200, nt=800, beta=beta, T=1.0)
    g = pd.grid
    v0 = np.sin(np.pi * g.x / ell)
    v = solve_linear_dirichlet(pd, v0, np.zeros(g.nx + 2), np.zeros((g.nt + 1, g.nx + 2)))
    omega = np.pi / ell / np.sqrt(1.0 + beta * (np.pi / ell) ** 2)
    exact = np.outer(np.cos(omega * g.t), v0)
    assert np.max(np.abs(v - exact)) < 5e-3


def test_dirichlet_manufactured_convergence():
    errs = []
    for nx, nt in ((50, 100), (100, 200)):
        pd = make_problem(nx=nx, nt=nt, beta=0.2)
        g = pd.grid
        x, t = g.x, g.t
        w = np.sin(2 * np.pi * x) * (1 + x)
        wxx = -4 * np.pi**2 * np.sin(2 * np.pi * x) * (1 + x) + 4 * np.pi * np.cos(2 * np.pi * x)
        gt = np.cos(3 * t) + 0.2 * t**2
        gtt = -9 * np.cos(3 * t) + 0.4
        v_exact = np.outer(gt, w)
        K = np.outer(gtt, w) - np.outer(gt, wxx) - pd.beta * np.outer(gtt, wxx)
        v = solve_linear_dirichlet(pd, w * gt[0], w * (-3 * np.sin(0) + 0.0), K)
        errs.append(np.max(np.abs(v - v_exact)))
    assert 1.7 <= np.log2(errs[0] / errs[1]) <= 2.3


def _random_march_case(nx, nt, beta, cfl, seed):
    """A stable grid and random Dirichlet data; cfl = dt over the stability
    limit of the highest mode, |c| < 2.  The random ``v0`` has nonzero
    endpoints, which enter the Taylor start."""
    dx = 1.0 / (nx + 1)
    mu_max = 4.0 / dx**2 * np.sin(np.pi * nx / (2 * (nx + 1))) ** 2
    dt = 2.0 * cfl * np.sqrt((1.0 + beta * mu_max) / mu_max)
    pd = make_problem(nx=nx, nt=nt, beta=beta, T=nt * dt)
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(nx + 2)
    v1 = rng.standard_normal(nx + 2)
    K = rng.standard_normal((nt + 1, nx + 2))
    return pd, v0, v1, K


@settings(max_examples=60, deadline=None)
@example(nx=3, nt=2, beta=0.1, cfl=0.5, seed=0)
@example(nx=100, nt=60, beta=0.05, cfl=0.95, seed=1)  # nx + 1 = 101 is prime
@given(
    nx=st.integers(3, 64),
    nt=st.integers(2, 120),
    beta=st.floats(1e-3, 2.0),
    cfl=st.floats(0.05, 0.95),
    seed=st.integers(0, 2**32 - 1),
)
def test_modal_march_matches_banded_reference(nx, nt, beta, cfl, seed):
    pd, v0, v1, K = _random_march_case(nx, nt, beta, cfl, seed)
    v = solve_linear_dirichlet(pd, v0, v1, K)
    ref = banded_march(pd, v0, v1, K)
    assert np.array_equal(v[0], v0)
    assert np.all(v[1:, [0, -1]] == 0.0)
    assert np.max(np.abs(v - ref)) <= 1e-10 * np.max(np.abs(ref))


@settings(max_examples=60, deadline=None)
@example(nx=3, nt=3, beta=0.1, cfl=0.5, seed=0, cut=0, width=0)
@example(nx=100, nt=120, beta=0.05, cfl=0.95, seed=1, cut=0, width=117)
@given(
    nx=st.integers(3, 64),
    nt=st.integers(3, 120),
    beta=st.floats(1e-3, 2.0),
    cfl=st.floats(0.05, 0.95),
    seed=st.integers(0, 2**32 - 1),
    cut=st.integers(0, 2**16),
    width=st.integers(0, 2**16),
)
def test_seeded_march_continues_the_global_march(nx, nt, beta, cfl, seed, cut, width):
    # a march seeded with the solved levels n0-1 and n0 must reproduce rows
    # n0..n0+W of the march from t = 0, which took the Taylor start; a time
    # grid needs two steps, so 2 <= W <= nt - n0
    pd, v0, v1, K = _random_march_case(nx, nt, beta, cfl, seed)
    v = solve_linear_dirichlet(pd, v0, v1, K)
    n0 = 1 + cut % (nt - 2)
    W = 2 + width % (nt - n0 - 1)
    pd_w = replace(pd, T=W * pd.grid.dt, grid=pd.grid.time_window(W))
    rows = slice(n0, n0 + W + 1)
    win = solve_linear_dirichlet(pd_w, v[n0], None, K[rows], prev_row=v[n0 - 1])
    assert np.array_equal(win[0], v[n0])
    assert np.max(np.abs(win - v[rows])) <= 1e-12 * np.max(np.abs(v))


@settings(max_examples=40, deadline=None)
@example(nx=3, nt=2, beta=0.1, cfl=0.5, seed=0, continued=False)
@example(nx=3, nt=2, beta=0.1, cfl=0.5, seed=0, continued=True)
@given(
    nx=st.integers(3, 40),
    nt=st.integers(2, 40),
    beta=st.floats(1e-3, 2.0),
    cfl=st.floats(0.05, 0.95),
    seed=st.integers(0, 2**32 - 1),
    continued=st.booleans(),
)
def test_modal_march_equals_the_plain_loop_bit_for_bit(nx, nt, beta, cfl, seed, continued):
    # the in-place recurrence does each entry's IEEE operations in the plain
    # loop's order, from the Taylor seed or from a solved level before
    pd, v0, v1, K = _random_march_case(nx, nt, beta, cfl, seed)
    gain, c = _dirichlet_coefficients(pd)
    start = _dirichlet_seed(pd, v0, v1, K[0] if continued else None)
    h = (K[:nt, 1:-1] * gain).copy()
    ref = reference_march_modes(h, start, c)
    _march_modes(h, start, c)
    assert np.array_equal(h, ref)


def test_cached_arrays_are_read_only():
    pd = make_problem()
    prof = profiles(pd)
    cached = [getattr(prof, f.name) for f in fields(prof)]
    cached += _sine_modes(pd.grid.nx, pd.grid.dx, pd.beta)
    for arr in cached:
        with pytest.raises(ValueError):
            arr[1] = 1.0


def test_overdetermination_zero_field():
    pd = make_problem()
    u = np.zeros((pd.grid.nt + 1, pd.grid.nx + 2))
    assert np.allclose(overdetermination(pd, u), 0.0)


def test_overdetermination_separable_factorization():
    pd = make_problem()
    g = pd.grid
    w = np.sin(2 * np.pi * g.x) + g.x
    gt = np.exp(-g.t) * np.cos(g.t)
    u = np.outer(gt, w)
    from memkernel.direct import profiles

    c = -quad_trapz(profiles(pd).w_direct * w, g.dx)
    assert np.allclose(overdetermination(pd, u), c * gt, atol=1e-13)


def test_overdetermination_time_independent_field():
    pd = make_problem()
    g = pd.grid
    u = np.outer(np.ones(g.nt + 1), np.sin(np.pi * g.x))
    f = overdetermination(pd, u)
    assert np.allclose(f, f[0])


def test_measurement_forms_agree_at_second_order():
    diffs = []
    for nx in (50, 100):
        pd = make_problem(nx=nx, nt=80)
        sol = solve_direct(pd, Kernel.zero(pd.grid.nt, pd.grid.dt))
        a = overdetermination(pd, sol.u)
        b = overdetermination_flux_form(pd, sol.u)
        diffs.append(np.max(np.abs(a - b)))
    assert 1.6 <= np.log2(diffs[0] / diffs[1]) <= 2.4


def test_causality_of_marching():
    # identical data => identical prefix, regardless of later forcing
    pd = make_problem(nx=40, nt=80)
    g = pd.grid
    kern = Kernel.from_expression(parse("0.3*cos(2*t)", "t"), g.t)
    F1 = np.zeros((g.nt + 1, g.nx + 2))
    F2 = F1.copy()
    F2[g.nt // 2 + 1 :, :] = 3.0
    u1 = solve_direct(pd, kern, forcing=F1).u
    u2 = solve_direct(pd, kern, forcing=F2).u
    assert np.allclose(u1[: g.nt // 2 + 1], u2[: g.nt // 2 + 1], atol=1e-13)


def test_corner_trajectory_spatial_self_convergence():
    """The boundary displacement converges at second order in space.

    The manufactured case keeps the corner at rest, so this check drives a
    moving corner (second order confirmed against a fine-grid run of the
    same scheme; an independent method-of-lines integration approaches the
    same limit, at first order in its own corner treatment).
    """
    nt = 1200

    def corner_y(nx):
        pd = make_problem(nx=nx, nt=nt)
        return solve_direct(pd, Kernel.zero(nt, pd.grid.dt)).y

    ref = corner_y(320)
    errs = [np.max(np.abs(corner_y(nx) - ref)) for nx in (40, 80, 160)]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(o > 1.7 for o in orders), (errs, orders)


def test_acoustic_pair_residual_shrinks():
    """Discrete residuals of the two boundary relations drop at order ~2."""
    from memkernel.timeconv import conv, time_derivative

    res = []
    for nx, nt in ((60, 120), (120, 240)):
        pd = make_problem(nx=nx, nt=nt)
        g = pd.grid
        kern = Kernel.from_expression(parse("0.4*cos(2*t)", "t"), g.t)
        sol = solve_direct(pd, kern)
        ux_r = (3 * sol.u[:, -1] - 4 * sol.u[:, -2] + sol.u[:, -3]) / (2 * g.dx)
        flux = ux_r - conv(kern.k, ux_r, g.dt) - sol.yprime
        ut_r = time_derivative(sol.u[:, -1], g.dt)
        vel = ut_r + pd.p * sol.yprime + pd.q * sol.y
        res.append(np.max(np.abs(flux[1:])) + np.max(np.abs(vel[1:-1])))
    assert res[1] < res[0] / 2.5
