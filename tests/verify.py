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
``reference_derivative_stack`` is the derivative fit that fits every
candidate degree before it picks one, and ``reference_sensor_rates`` takes
the fixed-point map's two sensor rates on the fields v_t and v_xxt.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial import chebyshev

from memkernel.direct import profiles, solve_linear_dirichlet
from memkernel.energy import solution_norm
from memkernel.equivalence import sensor_functional
from memkernel.grids import first_diff, quad_trapz, second_diff, spatial_h2_norm
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
