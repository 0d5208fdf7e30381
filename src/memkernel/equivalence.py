"""Derived data of the homogeneous reformulation and its consistency checks.

The inverse problem is posed for v := u_t + z x/ell with z := p y' + q y,
which satisfies homogeneous Dirichlet conditions.  This module builds every
quantity that reformulation needs from (constants, u0, u1, phi, f):

* the initial acceleration row u2 = (I - beta d2/dx2)^{-1} u0'' and the
  shifted initial rows v0, v1 that vanish at both ends,
* the pairing constant alpha, the sensor moment psi and psi(ell),
* k(0), the initial oscillator state y(0), y'(0), y''(0),
* the measurement series f with its first four time derivatives,
* the four initial-time compatibility identities linking f to the data.

Both directions of the equivalence, a direct solution into (v, z) and v
back into u, are checked by the test suite (``tests/verify.py``).

Data constants and compatibility residuals are computed with per-cell
Gauss-Legendre quadrature of the exact expressions (near machine precision
for smooth data), while everything consumed by the marching schemes stays
on the shared trapezoid/node discretization.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .csvio import _fmt
from .derivatives import derivative_stack, derivative_stack_from_expression, fit_noise_gains
from .direct import _initial_oscillator, initial_acceleration, profile_exprs, profiles
from .errors import AlphaDegenerate, PsiDegenerate
from .expressions import FuncExpr
from .grids import quad_trapz

__all__ = [
    "EquivSetup",
    "CompatCheck",
    "CompatReport",
    "build_setup",
    "check_compatibility",
    "sensor_functional",
    "sensor_moment",
    "prefix_integral_row",
    "gl_integral",
]

DEGENERACY_FLOOR = 1e-10
# Standard deviations of the sample noise that a sampled f^(j)(0) may be off by
NOISE_SIGMAS = 5.0

# 5-point Gauss-Legendre nodes/weights on [-1, 1]: exact through degree 9,
# so per-cell quadrature of a polynomial sensor is exact.
_GL_NODES = np.array([
    -0.906179845938664, -0.538469310105683, 0.0,
    0.538469310105683, 0.906179845938664,
])
_GL_WEIGHTS = np.array([
    0.236926885056189, 0.478628670499366, 0.568888888888889,
    0.478628670499366, 0.236926885056189,
])


def _gl_points(x_nodes):
    x = np.asarray(x_nodes, dtype=float)
    h = np.diff(x)
    mid = 0.5 * (x[:-1] + x[1:])
    pts = mid[:, None] + 0.5 * h[:, None] * _GL_NODES[None, :]
    return h, pts


def gl_integral(fn, x_nodes):
    """Integral of ``fn`` over the node span by per-cell Gauss-Legendre."""
    h, pts = _gl_points(x_nodes)
    return float(np.sum(0.5 * h * (fn(pts) @ _GL_WEIGHTS)))


def prefix_integral_row(expr, x_nodes):
    """Prefix integral of an expression at the grid nodes.

    Per-cell Gauss-Legendre accumulated left to right; exact for polynomials
    through degree 9 and near machine precision for smooth integrands, so it
    plays the role of a symbolic antiderivative.
    """
    h, pts = _gl_points(x_nodes)
    cell = 0.5 * h * (expr.eval(pts) @ _GL_WEIGHTS)
    out = np.zeros_like(np.asarray(x_nodes, dtype=float))
    np.cumsum(cell, out=out[1:])
    return out


@dataclass(frozen=True)
class EquivSetup:
    """Everything the homogeneous reformulation derives from the data."""

    u2row: np.ndarray
    v0row: np.ndarray
    v1row: np.ndarray
    alpha: float
    psi_row: np.ndarray
    psi_ell: float
    k0: float
    y0: float
    yprime0: float
    y2prime0: float
    f_derivs: np.ndarray  # shape (5, nt+1): f and four time derivatives
    ghat_u0: float  # sensor functional of u0'' at t=0 (a constant)
    symbolic_f: bool
    noise_sigma: float = 0.0  # absolute standard deviation of a sampled f's noise
    fit_degree: int | None = None  # degree of a sampled f's fit; None if not fitted


@lru_cache(maxsize=16)
def sensor_moment(pd):
    """psi(x) = integral of phi over (0, x) less beta phi'(x), on the nodes;
    read-only, as ``build_setup`` and the inverse iteration share it."""
    psi = prefix_integral_row(pd.phi, pd.grid.x) - pd.beta * profiles(pd).phip
    psi.flags.writeable = False
    return psi


def _f_stack(pd, f, noise_sigma):
    """f with four time derivatives, whether f is symbolic, and the fitted
    degree (None for a symbolic f)."""
    t = pd.grid.t
    if isinstance(f, FuncExpr):
        return derivative_stack_from_expression(f, t), True, None
    f = np.asarray(f, dtype=float)
    if f.shape != t.shape:
        raise ValueError("measurement series is not sampled on the time nodes")
    stack, degree = derivative_stack(f, pd.grid.dt, noise_sigma=noise_sigma,
                                     return_degree=True)
    return stack, False, degree


def build_setup(pd, f, *, noise_sigma=0.0):
    """Derive the reformulation data from the problem and the measurement.

    ``f`` is either a symbolic expression in t (derivatives taken exactly)
    or a sampled series (derivatives estimated; see ``derivatives``).
    Raises ``AlphaDegenerate``/``PsiDegenerate`` when the sensor pairing
    degenerates, except in the identically-zero-data case where the zero
    reconstruction is canonical and alpha is set to 0.
    """
    prof, x, ell = profiles(pd), pd.grid.x, pd.ell
    stack, symbolic, degree = _f_stack(pd, f, noise_sigma)
    d = profile_exprs(pd)

    psi_row = sensor_moment(pd)
    psi_ell = float(psi_row[-1])
    if abs(psi_ell) < DEGENERACY_FLOOR:
        raise PsiDegenerate(f"sensor moment psi(ell) = {psi_ell:.3e} is too small")

    inv_alpha = gl_integral(lambda s: d["phip"].eval(s) * d["u0pp"].eval(s), x)
    data_scale = max(
        np.max(np.abs(prof.u0)), np.max(np.abs(prof.u1)), np.max(np.abs(stack[0]))
    )
    if abs(inv_alpha) < DEGENERACY_FLOOR:
        if data_scale > DEGENERACY_FLOOR:
            raise AlphaDegenerate(
                f"sensor/initial-data pairing integral {inv_alpha:.3e} is too small"
            )
        alpha = 0.0  # identically zero data: zero kernel is the solution
    else:
        alpha = 1.0 / inv_alpha

    v0row = prof.u1 - prof.u1[-1] * x / ell

    u1_ell = float(prof.u1[-1])
    proj_v0 = gl_integral(
        lambda s: (pd.u1.eval(s) - u1_ell * s / ell) * d["phippp"].eval(s), x
    )
    k0 = alpha * (stack[3][0] + proj_v0)
    # w1'(ell) = u1'(ell) - k0 u0'(ell) is the flux-balance y''(0)
    y0, yprime0, w1p_ell = map(float, _initial_oscillator(pd, prof, k0))

    # integral of psi * w'' by parts: psi(0) = 0 and psi' = phi - beta phi''
    def _psi_weighted(second_pair):
        wp_ell, wp = second_pair
        moment = gl_integral(
            lambda s: (pd.phi.eval(s) - pd.beta * d["phipp"].eval(s)) * wp(s), x
        )
        return psi_ell * wp_ell - moment

    psi_term = _psi_weighted(
        (w1p_ell, lambda s: d["u1p"].eval(s) - k0 * d["u0p"].eval(s))
    )
    y2prime0 = (stack[1][0] - k0 * stack[0][0] + psi_term) / psi_ell

    u2row = initial_acceleration(pd, yprime0, y2prime0)
    v1row = u2row - u2row[-1] * x / ell

    ghat_u0 = (
        stack[0][0] + _psi_weighted((float(prof.u0p[-1]), d["u0p"].eval))
    ) / psi_ell

    return EquivSetup(
        u2row=u2row,
        v0row=v0row,
        v1row=v1row,
        alpha=alpha,
        psi_row=psi_row,
        psi_ell=psi_ell,
        k0=k0,
        y0=y0,
        yprime0=yprime0,
        y2prime0=y2prime0,
        f_derivs=stack,
        ghat_u0=ghat_u0,
        symbolic_f=symbolic,
        noise_sigma=float(noise_sigma),
        fit_degree=degree,
    )


@dataclass(frozen=True)
class CompatCheck:
    name: str
    value: float
    tolerance: float

    @property
    def passed(self):
        return abs(self.value) <= self.tolerance


@dataclass(frozen=True)
class CompatReport:
    checks: tuple

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def to_text(self):
        lines = ["name,value,tolerance,pass"]
        for c in self.checks:
            lines.append(f"{c.name},{_fmt(c.value)},{_fmt(c.tolerance)},{str(c.passed).lower()}")
        return "\n".join(lines) + "\n"

    def __getitem__(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def check_compatibility(setup, pd):
    """Residuals of the initial-time identities linking f to the data.

    The four measurement identities compare f(0)..f'''(0) against sensor
    integrals of the initial data.  Each is evaluated in an integrated-by-
    parts form that eliminates the dispersive operator inverse (legitimate
    because the sensor and its first two derivatives vanish at the ends),
    so the residuals measure data consistency rather than discretization.
    ``f3_at_0`` holds by construction: ``build_setup`` solves k(0) from
    f'''(0), and as phi', phi'' vanish at both ends, two integrations by
    parts reduce it to 0 = 0, so an error in f'''(0) moves k(0) instead.
    ``u0_clamped`` and ``u1_clamped`` cannot fail either: ``profiles``
    rejects |u0(0)| above 1e-10 (1 + max|u0|), and the row's scale
    1 + max(|u0|, |u1|) is at least as large, and it rejects |u1(0)| above
    the ``u1_clamped`` row's own tolerance, so any setup that exists passes
    both.
    Sensor boundary-decay residuals are reported alongside.  Tolerances are
    rtol*(1 + |f^(j)(0)|) with rtol = 1e-6 for symbolic measurements and
    1e-3 for sampled ones.

    A sampled f is held only to the accuracy of the grid it is sampled on:
    the solver's own f is a second-order discretization,
    f(t) = -Q_h(w u(., t)) with w = phi' - beta phi''' and Q_h the trapezoid
    rule on the nodes.  For j = 0, 1, 2 the tolerance adds both parts of
    that error.  The space part is computed, not estimated: it is
    |Q_h(w r_j) - I_j|, where r_j is the initial row u0, u1 or the
    dispersive acceleration ``setup.u2row`` and I_j the exact integral; by
    Euler-Maclaurin it is dx^2/12 times the change of (w r_j)_x from 0 to
    ell, to O(dx^4).  The time part bounds the O(dt^2) error of the march:
    the Taylor start leaves (dt^2/6) u_ttt at the velocity level and each
    step adds (dt^2/12) u_tttt, so the j-th derivative of f at 0 moves by
    less than dt^2 |f^(j+2)(0)|, taken from the fitted stack.

    A sampled f with noise of standard deviation sigma (``setup.noise_sigma``)
    also carries that noise into each f^(j)(0) the checks read, and the
    tolerance adds NOISE_SIGMAS times its standard deviation: sigma for
    f(0), the raw sample, and for j = 1, 2 sigma times the 2-norm of the
    linear map from the samples to the fitted f^(j)(0), at the degree the
    fit chose (``derivatives.fit_noise_gains``).  Noise-free data adds
    nothing.
    """
    prof = profiles(pd)
    x, dx, dt = pd.grid.x, pd.grid.dx, pd.grid.dt
    rtol = 1e-6 if setup.symbolic_f else 1e-3
    fd = setup.f_derivs
    d = profile_exprs(pd)

    def w_direct(s):
        return d["phip"].eval(s) - pd.beta * d["phippp"].eval(s)

    noise = np.zeros(3)
    if not setup.symbolic_f and setup.noise_sigma > 0:
        gains = (0.0, 0.0) if setup.fit_degree is None else fit_noise_gains(
            fd.shape[1], dt, setup.fit_degree, (1, 2))
        noise = NOISE_SIGMAS * setup.noise_sigma * np.array((1.0, *gains))

    checks = []
    identities = (
        ("f_at_0", -gl_integral(lambda s: w_direct(s) * pd.u0.eval(s), x), prof.u0),
        ("fprime_at_0", -gl_integral(lambda s: w_direct(s) * pd.u1.eval(s), x), prof.u1),
        ("f2_at_0", -gl_integral(lambda s: d["phip"].eval(s) * d["u0pp"].eval(s), x),
         setup.u2row),
    )
    for j, (name, lhs, row) in enumerate(identities):
        ref = fd[j][0]
        tol = rtol * (1.0 + abs(ref))
        if not setup.symbolic_f:
            tol += abs(quad_trapz(prof.w_direct * row, dx) + lhs)
            tol += dt**2 * abs(fd[j + 2][0])
            tol += noise[j]
        checks.append(CompatCheck(name, lhs - ref, tol))
    ref = fd[3][0]
    lhs = -gl_integral(
        lambda s: d["phip"].eval(s) * (d["u1pp"].eval(s) - setup.k0 * d["u0pp"].eval(s)),
        x,
    )
    checks.append(CompatCheck("f3_at_0", lhs - ref, rtol * (1.0 + abs(ref))))

    phi_scale = 1.0 + max(np.max(np.abs(prof.phi)), np.max(np.abs(prof.phipp)))
    for name, row in (
        ("sensor_value", prof.phi),
        ("sensor_slope", prof.phip),
        ("sensor_curvature", prof.phipp),
    ):
        for side, idx in (("left", 0), ("right", -1)):
            checks.append(
                CompatCheck(f"{name}_{side}", float(row[idx]), 1e-10 * phi_scale)
            )
    u_scale = 1.0 + max(np.max(np.abs(prof.u0)), np.max(np.abs(prof.u1)))
    checks.append(CompatCheck("u0_clamped", float(prof.u0[0]), 1e-10 * u_scale))
    checks.append(CompatCheck("u1_clamped", float(prof.u1[0]), 1e-8 * u_scale))

    return CompatReport(checks=tuple(checks))


def sensor_functional(setup, f_vals, wxx, dx):
    """Sensor functional (f^(j) + integral of psi * w_xx) / psi(ell).

    ``wxx`` is one space row or a field of rows, ``f_vals`` the matching
    measurement-derivative value(s): f' gives the boundary functional G of
    the field, f itself its companion Ghat.
    """
    if abs(setup.psi_ell) < DEGENERACY_FLOOR:
        raise PsiDegenerate("psi(ell) below the degeneracy floor")
    return (f_vals + quad_trapz(setup.psi_row * wxx, dx)) / setup.psi_ell
