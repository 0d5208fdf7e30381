"""Verification-only helpers: inequality margins, residuals, calibration.

The library never calls these; the tests use them to check the discrete
scheme against the analysis.  ``check_young`` and ``check_zero_start`` are
the margins of the convolution and zero-start inequalities,
``check_estimate`` is the margin of the calibrated a priori bound
``CALIBRATED_BOUND`` on the Dirichlet march, which ``calibrate_constant``
regenerates, ``transform_to_v`` and ``u_from_v`` are the two directions of
the equivalence between the direct and the homogeneous problem,
``overdetermination_flux_form`` recomputes the measurement from discrete
u_x, ``equivalent_residual`` is the pointwise residual of the homogeneous
reformulation, ``reference_convolution_matrix`` is the dense oracle of the
library's trapezoid convolution, ``reference_solution_norm`` is the
iteration metric built from the full difference fields,
``reference_energy_series`` is the energy track built from the same fields,
``reference_derivative_stack`` is the derivative fit that fits every
candidate degree before it picks one, ``reference_sensor_rates`` takes
the fixed-point map's two sensor rates on the fields v_t and v_xxt,
``reference_solve_direct`` is the direct march in physical space: one
dispersive solve and one acoustic closure per step,
``reference_march_modes`` is the modal Dirichlet recurrence as a plain
loop over steps and modes, and ``reference_apply_map_A`` is the
fixed-point map on physical fields, with one Dirichlet march (projection
and transform back) per call; it takes a later window's memory terms from
``reference_solved_history`` through ``window_memory``.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial import chebyshev

from memkernel.direct import (
    DirectSolution,
    _check_clamped,
    overdetermination,
    profiles,
    solve_linear_dirichlet,
)
from memkernel.energy import EnergyTrack, solution_norm
from memkernel.equivalence import sensor_functional
from memkernel.errors import NonFinite
from memkernel.grids import (
    DispersiveInverse,
    _first_diff_ends,
    first_diff,
    quad_trapz,
    second_diff,
    spatial_h2_norm,
)
from memkernel.timeconv import (
    Kernel,
    conv,
    conv_field,
    integrate_prefix,
    l2_time_norm,
    time_derivative,
)

# 1.2 x the largest LHS/RHS ratio observed on the 20-case calibration suite
# (seed 777, beta=0.1, nx=80, nt=200); the ratio converges under grid
# refinement, so the same constant serves finer grids of this family.
# Regenerate with calibrate_constant(20, seed=777, pd=<family problem>).
CALIBRATED_BOUND = 17.845101900212978


def check_estimate(v, v0row, v1row, K, beta, grid, bound=None):
    """Margin of the calibrated stability estimate; nonnegative is healthy.

    Returns bound * (|v0| + |v1| + |K|) - |v| with the H2 surrogates of
    ``memkernel.energy.solution_norm``.  The a priori constant is not
    computable from the analysis, so it is calibrated once on a
    manufactured suite and frozen: a stability sentinel, not a proof.
    """
    c = CALIBRATED_BOUND if bound is None else bound
    dx, dt = grid.dx, grid.dt
    lhs = solution_norm(v, grid)
    k_norm = l2_time_norm(np.sqrt(quad_trapz(np.asarray(K, float) ** 2, dx)), dt)
    rhs = spatial_h2_norm(v0row, dx) + spatial_h2_norm(v1row, dx) + k_norm
    return c * rhs - lhs


def u_from_v(pd, v, z, u0row):
    """Integrate v back to u:  u(t) = u0 + prefix integral of (v - z x/ell)."""
    integrand = np.asarray(v, float) - np.outer(np.asarray(z, float), pd.grid.x / pd.ell)
    return integrate_prefix(integrand, np.asarray(u0row, float), pd.grid.dt)


def transform_to_v(pd, sol):
    """Forward direction of the equivalence: (u, y) -> (v, z).

    z = p y' + q y and v = u_t + z x/ell with u_t by centered differences.
    """
    z = pd.p * sol.yprime + pd.q * sol.y
    ut = time_derivative(sol.u, pd.grid.dt)
    v = ut + np.outer(z, pd.grid.x / pd.ell)
    return v, z


def check_young(k, g, dt):
    """Margin of the convolution bound: sqrt(tau)*|k|*|g| - |k * g|.

    All norms are discrete L2 over the full span [0, tau].  Nonnegative up to
    quadrature slack for any pair of series.
    """
    k = np.asarray(k, dtype=float)
    tau = (k.shape[0] - 1) * dt
    bound = np.sqrt(tau) * l2_time_norm(k, dt) * l2_time_norm(g, dt)
    return bound - l2_time_norm(conv(k, g, dt), dt)


def reference_convolution_matrix(k, dt):
    """Dense trapezoid convolution matrix, scaled by ``dt`` after it is built.

    Row n holds dt * k[n-m] for m = 0..n with both endpoint weights halved,
    and row 0 is zero; ``reference_convolution_matrix(k, dt) @ g`` is the
    full product the library's blocked convolution must reproduce.
    """
    k = np.asarray(k, dtype=float)
    n = k.shape[0]
    w = sliding_window_view(np.concatenate((np.zeros(n - 1), k)), n)[:, ::-1].copy()
    w[:, 0] *= 0.5
    w.flat[:: n + 1] *= 0.5  # the diagonal
    w[0, 0] = 0.0
    w *= dt
    return w


def reference_spatial_h2_norm(row, dx):
    """Discrete H2(I) norm from the full ``first_diff`` and ``second_diff``
    fields: the trapezoid L2 norms of the value and its two differences."""
    r = np.asarray(row, dtype=float)
    parts = (
        quad_trapz(r * r, dx)
        + quad_trapz(first_diff(r, dx) ** 2, dx)
        + quad_trapz(second_diff(r, dx) ** 2, dx)
    )
    return np.sqrt(parts)


def reference_solution_norm(v, grid):
    """``memkernel.energy.solution_norm`` as a composition of its parts: the
    L2 time norms of the per-row H2 norms of v, v_t and v_tt, each built
    from the full difference fields."""
    total = 0.0
    layer = np.asarray(v, dtype=float)
    for _ in range(3):
        total += l2_time_norm(reference_spatial_h2_norm(layer, grid.dx), grid.dt)
        layer = time_derivative(layer, grid.dt)
    return float(total)


def reference_energy_series(v, beta, grid):
    """``memkernel.energy.energy_series`` from the nine full derivative
    fields: every time and space difference of the whole field at once."""
    v = np.asarray(v, float)
    dt, dx = grid.dt, grid.dx
    vt = time_derivative(v, dt)
    vx = first_diff(v, dx)
    vxx = second_diff(v, dx)
    vxt = first_diff(vt, dx)
    vxxt = second_diff(vt, dx)
    vtt = time_derivative(vt, dt)
    vxtt = first_diff(vtt, dx)
    vxxtt = second_diff(vtt, dx)

    def sq(field):
        return quad_trapz(field * field, dx)

    return EnergyTrack(
        t=grid.t,
        e1=0.5 * (sq(vt) + sq(vx) + beta * sq(vxt)),
        e2=0.5 * (sq(vxt) + sq(vxx) + beta * sq(vxxt)),
        cum_vtt=integrate_prefix(sq(vtt), 0.0, dt),
        cum_vxtt=integrate_prefix(sq(vxtt), 0.0, dt),
        cum_vxxtt=integrate_prefix(sq(vxxtt), 0.0, dt),
    )


def reference_derivative_stack(values, dt, *, noise_sigma=0.0):
    """``memkernel.derivatives.derivative_stack`` that fits all even degrees
    from 4 to the cap (at most n - 1; only the interpolant of degree n - 1
    below 5 samples) first and then applies the same degree rule."""
    f = np.asarray(values, dtype=float)
    n = f.shape[0]
    t = np.arange(n) * dt
    cap = min(max(12, n // 4), 48, n - 1)
    scale = np.max(np.abs(f))
    if scale == 0.0:
        return np.zeros((5, n))
    target = max(1.05 * noise_sigma, 1e-9 * scale)
    fits, resids = [], []
    for deg in range(4, cap + 1, 2) if n >= 5 else [n - 1]:
        fit = chebyshev.Chebyshev.fit(t, f, deg)
        fits.append(fit)
        resids.append(np.sqrt(np.mean((fit(t) - f) ** 2)))
    fit = fits[-1]
    for i in range(len(fits) - 1):
        tight = resids[i] <= target
        plateau = resids[i] < 10.0 * max(resids[i + 1], 1e-300)
        if tight and plateau:
            fit = fits[i]
            break
    out = np.empty((5, n))
    out[0] = f
    for m in range(1, 5):
        fit = fit.deriv(1)
        out[m] = fit(t)
    return out


def reference_sensor_rates(setup, prof, f2, v, dt, dx):
    """The sensor rates of the kernel-rate and boundary equations taken on
    the fields: the phi''' projection of v_t, and the sensor functional
    of v_xxt at the measurement values ``f2`` = f''."""
    vxxt = time_derivative(second_diff(v, dx), dt)
    return (quad_trapz(time_derivative(v, dt) * prof.phippp, dx),
            sensor_functional(setup, f2, vxxt, dx))


def check_zero_start(w, dt):
    """Margins of the two zero-start bounds, with discrete slack included.

    For w(0) = 0 the continuous inequalities are sup|w| <= sqrt(tau)*|w_t|
    and |w| <= tau*|w_t| (L2 norms in time).  Returns both margins with a
    slack of 10*dt*|w_t| added, so nonnegative values are the expected
    outcome for any discretely sampled w.
    """
    w = np.asarray(w, dtype=float)
    tau = (w.shape[0] - 1) * dt
    wt = time_derivative(w, dt)
    nwt = l2_time_norm(wt, dt)
    slack = 10.0 * dt * nwt
    sup_margin = np.sqrt(tau) * nwt + slack - np.max(np.abs(w))
    l2_margin = tau * nwt + slack - l2_time_norm(w, dt)
    return sup_margin, l2_margin


def overdetermination_flux_form(pd, u):
    """Measurement series from the flux form (discrete u_x); for cross-checks."""
    prof = profiles(pd)
    ux = first_diff(np.asarray(u, float), pd.grid.dx)
    return quad_trapz(ux * (prof.phi - pd.beta * prof.phipp), pd.grid.dx)


def residual_interior_norm(pd, resid, skip_rows=3):
    """Space-time L2 norm of a residual field away from stencil boundaries.

    The doubled one-sided time stencils are only O(1)-consistent on the
    first/last few levels, so those rows (and the endpoint columns) are
    excluded; the remaining norm tracks the scheme's interior consistency.
    """
    inner = np.asarray(resid, float)[skip_rows:-skip_rows, 1:-1]
    return float(np.sqrt(np.sum(inner**2) * pd.grid.dx * pd.grid.dt))


def equivalent_residual(pd, v, z, kernel: Kernel):
    """Pointwise residual field of the homogeneous reformulation.

    All derivatives are discrete (centered stencils); the memory term uses
    the trapezoid convolution.  Rows/columns touched by one-sided stencils
    are still filled, so callers typically measure interior norms.
    """
    grid, prof = pd.grid, profiles(pd)
    dt, dx = grid.dt, grid.dx
    v = np.asarray(v, float)
    vtt = time_derivative(time_derivative(v, dt), dt)
    vxx = second_diff(v, dx)
    vxxtt = time_derivative(time_derivative(vxx, dt), dt)
    z2 = time_derivative(time_derivative(np.asarray(z, float), dt), dt)
    mem = conv_field(kernel.k, vxx, dt)
    return (
        vtt
        - vxx
        - pd.beta * vxxtt
        + np.outer(kernel.k, prof.u0pp)
        + mem
        - np.outer(z2, grid.x / pd.ell)
    )


def _random_case(pd, rng):
    """Random smooth Dirichlet data: sine series plus separable forcing.

    One case in three has zero initial rows (pure forcing response), which
    is where the ratio of solution norm to data norm peaks; the calibration
    family must cover that corner.
    """
    g = pd.grid
    x, t = g.x, g.t
    v0 = np.zeros_like(x)
    v1 = np.zeros_like(x)
    pure_forcing = rng.integers(0, 3) == 0
    if not pure_forcing:
        for j in range(1, 4):
            v0 += rng.uniform(-1, 1) / j**2 * np.sin(j * np.pi * x / pd.ell)
            v1 += rng.uniform(-1, 1) / j**2 * np.sin(j * np.pi * x / pd.ell)
    K = np.zeros((g.nt + 1, g.nx + 2))
    for j in range(1, 3):
        K += rng.uniform(-2, 2) * np.outer(
            np.cos(rng.uniform(0.5, 4) * t), np.sin(j * np.pi * x / pd.ell)
        )
    return v0, v1, K


def calibrate_constant(n_cases, seed, pd, headroom=1.2):
    """Max LHS/RHS ratio over a manufactured suite, inflated by ``headroom``.

    Used once to freeze CALIBRATED_BOUND; kept callable so the suite can be
    regenerated and the frozen value audited.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_cases):
        v0, v1, K = _random_case(pd, rng)
        v = solve_linear_dirichlet(pd, v0, v1, K)
        margin_parts = check_estimate(v, v0, v1, K, pd.beta, pd.grid, bound=0.0)
        lhs = -margin_parts  # bound=0 makes the margin equal -LHS
        dx, dt = pd.grid.dx, pd.grid.dt
        k_norm = l2_time_norm(np.sqrt(quad_trapz(K**2, dx)), dt)
        rhs = spatial_h2_norm(v0, dx) + spatial_h2_norm(v1, dx) + k_norm
        worst = max(worst, lhs / rhs)
    return headroom * worst


def _reference_initial_oscillator(pd, prof, k0, flux_forcing=None):
    """(y(0), y'(0), y''(0)) implied by the data and the boundary relations.

    y'(0) comes from the flux balance at t=0, y(0) from the velocity law at
    t=0, and y''(0) from the time derivative of the flux balance.
    """
    dt = pd.grid.dt
    yprime0 = prof.u0p[-1]
    y0 = -(prof.u1[-1] + pd.p * prof.u0p[-1]) / pd.q
    y2prime0 = prof.u1p[-1] - k0 * prof.u0p[-1]
    if flux_forcing is not None:
        g = np.asarray(flux_forcing, dtype=float)
        yprime0 -= g[0]
        y0 = -(prof.u1[-1] + pd.p * yprime0) / pd.q
        y2prime0 -= (-3.0 * g[0] + 4.0 * g[1] - g[2]) / (2.0 * dt)
    return y0, yprime0, y2prime0


def _reference_initial_acceleration_row(pd, k0, forcing_row=None, flux_forcing=None):
    """u_tt(., 0): dispersive inverse of u0'' (+ initial forcing).

    Endpoint values are fixed by the boundary conditions: zero on the left,
    and on the right the differentiated velocity law -p y''(0) - q y'(0).
    """
    prof = profiles(pd)
    _, yprime0, y2prime0 = _reference_initial_oscillator(pd, prof, k0, flux_forcing)
    right = -pd.p * y2prime0 - pd.q * yprime0
    rhs = prof.u0pp if forcing_row is None else prof.u0pp + forcing_row
    inv = DispersiveInverse(pd.beta, pd.grid.dx, pd.grid.nx)
    return inv.solve(rhs, 0.0, right)


def reference_solve_direct(pd, kernel, forcing=None, flux_forcing=None):
    """``memkernel.direct.solve_direct`` as a physical step loop: each step
    solves the dispersive system for the whole row, forms the 2x2 acoustic
    closure, checks it and pins both end values, with zero hooks
    materialized.  The library marches the same scheme in sine modes and
    must match it to roundoff."""
    grid, prof = pd.grid, profiles(pd)
    nx, nt, dx, dt = grid.nx, grid.nt, grid.dx, grid.dt
    k = np.asarray(kernel.k, dtype=float)
    if k.shape[0] != nt + 1:
        raise ValueError("kernel is not sampled on the grid's time nodes")
    _check_clamped(prof.u0, prof.u1)

    F = np.zeros((nt + 1, nx + 2)) if forcing is None else np.asarray(forcing, float)
    g1 = np.zeros(nt + 1) if flux_forcing is None else np.asarray(flux_forcing, float)

    y0, yprime0, y2prime0 = _reference_initial_oscillator(pd, prof, k[0], flux_forcing)

    u = np.zeros((nt + 1, nx + 2))
    y = np.zeros(nt + 1)
    yp = np.zeros(nt + 1)
    u[0] = prof.u0
    a0 = _reference_initial_acceleration_row(pd, k[0], F[0], flux_forcing)
    u[1] = prof.u0 + dt * prof.u1 + 0.5 * dt**2 * a0
    u[1, 0] = 0.0
    y[0], yp[0] = y0, yprime0
    y[1] = y0 + dt * yprime0 + 0.5 * dt**2 * y2prime0
    yp[1] = yprime0 + dt * y2prime0

    inv = DispersiveInverse(pd.beta, dx, nx)
    abc = inv.solve(np.zeros(nx + 2), 0.0, 1.0)

    dxx = np.zeros((nt + 1, nx + 2))
    ux_r = np.zeros(nt + 1)
    for m in (0, 1):
        dxx[m] = second_diff(u[m], dx)
        ux_r[m] = _first_diff_ends(u[m], dx)[1]

    x1_geom = dt**2 * (3.0 - 4.0 * abc[-2] + abc[-3]) / (2.0 * dx)
    for n in range(1, nt):
        # memory term at the current level (trapezoid in the lag)
        wts = k[n::-1].copy()
        wts[0] *= 0.5
        wts[-1] *= 0.5
        memory = dt * (wts @ dxx[: n + 1])

        rhs = dxx[n] - memory + F[n]
        ahom = inv.solve(rhs, 0.0, 0.0)
        P = 2.0 * u[n] - u[n - 1] + dt**2 * ahom
        c_u = 2.0 * u[n, -1] - u[n - 1, -1]

        x0 = (3.0 * c_u - 4.0 * P[-2] + P[-3]) / (2.0 * dx)
        # partial memory of the boundary flux (all but the m = n+1 node)
        wts2 = k[n + 1 : 0 : -1].copy()
        wts2[0] *= 0.5
        R = dt * (wts2 @ ux_r[: n + 1])

        half = 1.0 - 0.5 * dt * k[0]
        a11 = half * x1_geom + 3.0 * dt / (2.0 * pd.p)
        a12 = pd.q / pd.p
        b1 = -(
            half * x0
            - R
            - g1[n + 1]
            + (3.0 * c_u - 4.0 * u[n, -1] + u[n - 1, -1]) / (2.0 * dt * pd.p)
        )
        a21 = dt**2
        a22 = pd.p + 0.5 * pd.q * dt
        b2 = (pd.p - 0.5 * pd.q * dt) * y[n] + u[n - 1, -1] - u[n, -1]

        det = a11 * a22 - a12 * a21
        if abs(det) < 1e-14:
            raise NonFinite("singular acoustic boundary closure", step=n + 1)
        a_r = (b1 * a22 - a12 * b2) / det
        y_new = (a11 * b2 - a21 * b1) / det

        u[n + 1] = P + dt**2 * abc * a_r
        u[n + 1, 0] = 0.0
        u[n + 1, -1] = c_u + dt**2 * a_r
        y[n + 1] = y_new
        ut_r = (3.0 * u[n + 1, -1] - 4.0 * u[n, -1] + u[n - 1, -1]) / (2.0 * dt)
        yp[n + 1] = (-ut_r - pd.q * y_new) / pd.p
        dxx[n + 1] = second_diff(u[n + 1], dx)
        ux_r[n + 1] = _first_diff_ends(u[n + 1], dx)[1]
        if not (np.isfinite(u[n + 1, -1]) and np.isfinite(y_new)):
            raise NonFinite("direct marching", step=n + 1)

    if not np.all(np.isfinite(u)):
        raise NonFinite("direct marching")
    return DirectSolution(u=u, y=y, yprime=yp, f=overdetermination(pd, u))


def reference_apply_map_A(v, kprime, win, setup, pd, history=(None, None),
                          vt_sign=1.0):
    """``memkernel.inverse.apply_map_A`` on a physical field iterate ``v``
    ((W+1, nx+2), row 0 the seam row): v_xx by ``second_diff``, the sensor
    series by quadrature, the memory terms by ``window_memory``, the
    forcing on the nodes and one ``solve_linear_dirichlet``.  A later
    window's ``history`` is ``reference_solved_history``'s (head, tails).
    Returns the new v, k' and y'''."""
    grid_w = win.pd_w.grid
    dt, dx = grid_w.dt, grid_w.dx
    prof = profiles(pd)

    kp_old = kprime
    vxx = second_diff(v, dx)
    proj_v = quad_trapz(v * prof.phippp, dx)
    g_lin = sensor_functional(setup, 0.0, vxx, dx)
    proj_vt = time_derivative(proj_v, dt)

    hist = (*history, dt)
    mem_proj = window_memory(conv, kp_old, proj_v, "kp", "proj", *hist)
    kp_new = setup.alpha * (
        win.f[4] + vt_sign * proj_vt - setup.k0 * proj_v - mem_proj
    )
    k_new = integrate_prefix(kp_new, win.seam[0], dt)

    g_of_v = win.f[1] / setup.psi_ell + g_lin
    gp_of_v = win.f[2] / setup.psi_ell + time_derivative(g_lin, dt)
    mem_g = window_memory(conv, kp_old, g_of_v, "kp", "gfun", *hist)
    y3 = gp_of_v - kp_new * setup.ghat_u0 - setup.k0 * g_of_v - mem_g
    y2 = integrate_prefix(y3, win.seam[1], dt)
    z2 = pd.p * y3 + pd.q * y2

    mem_field = window_memory(conv_field, k_new, vxx, "k", "vxx", *hist)
    K = -np.outer(k_new, prof.u0pp) - mem_field + np.outer(z2, grid_w.x / pd.ell)
    v_new = solve_linear_dirichlet(win.pd_w, win.u_tau, setup.v1row, K, win.u_before)

    if not (np.all(np.isfinite(v_new)) and np.all(np.isfinite(kp_new))):
        raise NonFinite("fixed-point map output")
    return v_new, kp_new, y3


def reference_march_modes(h, seed, c):
    """``memkernel.direct._march_modes`` as a plain loop over steps and
    modes: returns the modes of levels 1.. of the three-level recurrence
    vhat^{n+1} = c vhat^n - vhat^{n-1} + h^n from ``seed``, each entry
    summed in the library's order."""
    w0, taper, offset = seed
    out = np.array(h, dtype=float)
    for j in range(out.shape[1]):
        out[0, j] = out[0, j] * taper + offset[j]
        prev = w0[j]
        for n in range(1, out.shape[0]):
            out[n, j] = out[n, j] + (c[j] * out[n - 1, j] - prev)
            prev = out[n - 1, j]
    return out


def reference_solved_history(glob, k, n0, W, dt, dx):
    """``window_memory``'s ``head`` and ``tails`` of the window of W <= n0
    steps at n0 > 0, from full global convolutions: the series over nodes
    0..W (``vxx`` is v's ``second_diff``, ``k`` the kernel over 0..n0), and
    rows n0..n0+W of the global convolution of each kernel's history (zero
    past n0) with the series' history, keyed by the series."""
    n = n0 + W + 1
    series = dict(kp=glob["kp"], proj=glob["proj"], gfun=glob["gfun"], k=k,
                  vxx=second_diff(glob["v"][: n0 + 1], dx))
    head = {name: np.array(s[: W + 1], dtype=float) for name, s in series.items()}

    def history(name):
        out = np.zeros((n,) + series[name].shape[1:])
        out[: n0 + 1] = series[name][: n0 + 1]
        return out

    tails = {b: conv_fn(history(a), history(b), dt)[n0:]
             for conv_fn, a, b in ((conv, "kp", "proj"), (conv, "kp", "gfun"),
                                   (conv_field, "k", "vxx"))}
    return head, tails


def window_memory(conv_fn, a_w, b_w, a, b, head, tails, dt):
    """Rows n0..n0+W of the global trapezoid convolution (a * b).

    ``a_w``, ``b_w`` are the window's iterates of the series ``a``, ``b``.
    The first window (``tails`` None) convolves them directly.  Later ones
    add to the history x history part ``tails[b]`` each increment (the
    iterate with its seam entry zeroed) convolved with the other series'
    ``head``; increment x increment vanishes on these rows as W <= n0.
    """
    if tails is None:
        return conv_fn(a_w, b_w, dt)
    da, db = np.array(a_w, dtype=float), np.array(b_w, dtype=float)
    da[0] = db[0] = 0.0
    return conv_fn(da, head[b], dt) + conv_fn(head[a], db, dt) + tails[b]
