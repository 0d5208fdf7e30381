"""Time stepping for the dispersive wave system with memory.

The field equation

    u_tt - u_xx - beta * u_xxtt + (k * u_xx)(t) = F

is clamped at the left end and coupled at the right end to a boundary
oscillator through two simultaneous relations: a flux balance

    u_x(ell, t) - (k * u_x(ell, .))(t) = y'(t)

and the velocity law  u_t(ell, t) = -p y'(t) - q y(t).

Scheme: at each step the acceleration solves the implicit dispersive system
(I - beta D_xx) a = D_xx u - (k * D_xx u) + F, then u advances by the
three-level second-order formula u^{n+1} = 2 u^n - u^{n-1} + dt^2 a.  The
acceleration at the right end and the new oscillator value are obtained
together from a 2x2 linear system combining the flux balance (one-sided
second-order u_x, trapezoid memory) with the trapezoid-integrated velocity
law.  The second time level comes from a Taylor start using the exact
initial acceleration of ``initial_acceleration``, which ``build_setup`` shares.

The acceleration solve is ``DispersiveInverse``, which inverts
(I - beta D_xx) in the same sine basis as the Dirichlet march below.

``solve_linear_dirichlet`` runs the same stepping for the homogeneous
Dirichlet problem v_tt - v_xx - beta v_xxtt = K used inside the inverse
iteration, but in the discrete sine basis: with both ends pinned, D_xx and
(I - beta D_xx)^{-1} are diagonal there, so the march is one projection of
K, an independent three-term recurrence per mode and one transform back.
Only a march from t = 0 takes the Taylor start.  A march continued from
two solved levels takes the recurrence itself as its first step, so a
window of the inverse iteration steps exactly the rows of the global march.

``forcing`` and ``flux_forcing`` are verification hooks: they inject a known
residual into the field equation and the flux balance so that manufactured
solutions can exercise every part of the discrete system.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .errors import BoundaryIncompatible, NonFinite
from .expressions import FuncExpr, differentiate, sample
from .grids import (DispersiveInverse, Grid, _first_diff_ends, _sine_modes,
                    quad_trapz, second_diff)

__all__ = [
    "ProblemData",
    "DirectSolution",
    "Profiles",
    "profiles",
    "solve_direct",
    "solve_linear_dirichlet",
    "overdetermination",
]


@dataclass(frozen=True)
class ProblemData:
    """Physical constants, initial/sensor expressions, and the grid."""

    beta: float
    p: float
    q: float
    ell: float
    T: float
    u0: FuncExpr
    u1: FuncExpr
    phi: FuncExpr
    grid: Grid

    def __post_init__(self):
        for name in ("beta", "p", "q", "ell", "T"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and positive")
        if abs(self.grid.ell - self.ell) > 1e-12 * self.ell or abs(
            self.grid.T - self.T
        ) > 1e-12 * self.T:
            raise ValueError("grid extent disagrees with ell/T")


@dataclass(frozen=True)
class Profiles:
    """Initial data and sensor samples (and derivatives) on the space nodes."""

    u0: np.ndarray
    u0p: np.ndarray
    u0pp: np.ndarray
    u1: np.ndarray
    u1p: np.ndarray
    u1pp: np.ndarray
    phi: np.ndarray
    phip: np.ndarray
    phipp: np.ndarray
    phippp: np.ndarray
    w_direct: np.ndarray  # sensor weight phi' - beta * phi'''


@lru_cache(maxsize=16)
def profile_exprs(pd: ProblemData):
    """Exact derivatives of the data, keyed like the ``Profiles`` rows
    (``u0p`` .. ``phippp``); the one place they are differentiated."""
    u0p, u1p, phip = differentiate(pd.u0), differentiate(pd.u1), differentiate(pd.phi)
    phipp = differentiate(phip)
    return MappingProxyType(dict(
        u0p=u0p, u0pp=differentiate(u0p), u1p=u1p, u1pp=differentiate(u1p),
        phip=phip, phipp=phipp, phippp=differentiate(phipp),
    ))


@lru_cache(maxsize=16)
def profiles(pd: ProblemData) -> Profiles:
    x = pd.grid.x
    rows = dict(u0=sample(pd.u0, x), u1=sample(pd.u1, x), phi=sample(pd.phi, x))
    rows.update((name, sample(expr, x)) for name, expr in profile_exprs(pd).items())
    rows["w_direct"] = rows["phip"] - pd.beta * rows["phippp"]
    for row in rows.values():
        row.flags.writeable = False  # shared by every caller of the cache
    return Profiles(**rows)


@dataclass
class DirectSolution:
    """Field, boundary displacement and its rate, and the measurement series."""

    u: np.ndarray
    y: np.ndarray
    yprime: np.ndarray
    f: np.ndarray


def _check_clamped(u0row):
    """Raise ``BoundaryIncompatible`` unless the sampled u0 vanishes at the
    clamped end x=0, to a tolerance relative to the row's size."""
    if abs(u0row[0]) > 1e-10 * (1.0 + np.max(np.abs(u0row))):
        raise BoundaryIncompatible("u0(0) != 0 violates the clamped condition")


def _initial_oscillator(pd, prof, k0, g=None):
    """(y(0), y'(0), y''(0)) implied by the data and the boundary relations.

    y'(0) comes from the flux balance at t=0 (less its forcing ``g``), y(0)
    from the velocity law at t=0, and y''(0) from the flux balance's rate.
    """
    yprime0 = prof.u0p[-1]
    y2prime0 = prof.u1p[-1] - k0 * yprime0
    if g is not None:
        yprime0 -= g[0]
        y2prime0 -= (-3.0 * g[0] + 4.0 * g[1] - g[2]) / (2.0 * pd.grid.dt)
    y0 = -(prof.u1[-1] + pd.p * yprime0) / pd.q
    return y0, yprime0, y2prime0


def initial_acceleration(pd, yprime0, y2prime0, forcing_row=None):
    """u_tt(., 0): dispersive inverse of u0'' (+ initial forcing).

    Endpoint values are fixed by the boundary conditions: zero on the left,
    and on the right the differentiated velocity law -p y''(0) - q y'(0).
    """
    prof = profiles(pd)
    right = -pd.p * y2prime0 - pd.q * yprime0
    rhs = prof.u0pp if forcing_row is None else prof.u0pp + forcing_row
    inv = DispersiveInverse(pd.beta, pd.grid.dx, pd.grid.nx)
    return inv.solve(rhs, 0.0, right)


def solve_direct(pd, kernel, forcing=None, flux_forcing=None):
    """March the coupled field/oscillator system with a known kernel.

    ``kernel`` provides k sampled on the time nodes.  ``forcing`` (a field)
    and ``flux_forcing`` (a series) are manufactured-solution hooks; both
    default to zero.  The initial oscillator state is the one the data and
    the boundary relations imply at t=0 (``_initial_oscillator``).
    """
    grid, prof = pd.grid, profiles(pd)
    nx, nt, dx, dt = grid.nx, grid.nt, grid.dx, grid.dt
    k = np.asarray(kernel.k, dtype=float)
    if k.shape[0] != nt + 1:
        raise ValueError("kernel is not sampled on the grid's time nodes")
    _check_clamped(prof.u0)

    F = None if forcing is None else np.asarray(forcing, float)
    g1 = np.zeros(nt + 1) if flux_forcing is None else np.asarray(flux_forcing, float)
    for name, h, shape in (("forcing", F, (nt + 1, nx + 2)), ("flux_forcing", g1, (nt + 1,))):
        if h is not None and h.shape != shape:
            raise ValueError(f"{name} shape {h.shape} does not match the grid's {shape}")

    y0, yprime0, y2prime0 = _initial_oscillator(pd, prof, k[0], g1)

    a0 = initial_acceleration(pd, yprime0, y2prime0, None if F is None else F[0])
    u = np.zeros((nt + 1, nx + 2))
    u[:2] = prof.u0, prof.u0 + dt * prof.u1 + 0.5 * dt**2 * a0
    u[1, 0] = 0.0
    y, yp = np.zeros(nt + 1), np.zeros(nt + 1)
    y[:2] = y0, y0 + dt * yprime0 + 0.5 * dt**2 * y2prime0
    yp[:2] = yprime0, yprime0 + dt * y2prime0

    inv = DispersiveInverse(pd.beta, dx, nx)
    abc = inv.solve(np.zeros(nx + 2), 0.0, 1.0)

    # every step solves this 2x2 acoustic closure for a_r and the new y
    x1_geom = dt**2 * (3.0 - 4.0 * abc[-2] + abc[-3]) / (2.0 * dx)
    half = 1.0 - 0.5 * dt * k[0]
    a11 = half * x1_geom + 3.0 * dt / (2.0 * pd.p)
    a12 = pd.q / pd.p
    a21 = dt**2
    a22 = pd.p + 0.5 * pd.q * dt
    det = a11 * a22 - a12 * a21
    if abs(det) < 1e-14:
        raise NonFinite("singular acoustic boundary closure", step=2)

    dxx = np.zeros((nt, nx + 2))
    ux_r = np.zeros(nt)
    for n in range(1, nt):
        # one row at a time: the end stencils of a 1-D row compute on scalars
        for m in range(0 if n == 1 else n, n + 1):  # the levels first read here
            dxx[m] = second_diff(u[m], dx)
            ux_r[m] = _first_diff_ends(u[m], dx)[1]

        # memory term at the current level (trapezoid in the lag)
        wts = k[n::-1].copy()
        wts[0] *= 0.5
        wts[-1] *= 0.5
        memory = dt * (wts @ dxx[: n + 1])

        rhs = dxx[n] - memory if F is None else dxx[n] - memory + F[n]
        ahom = inv.solve(rhs, 0.0, 0.0)
        P = 2.0 * u[n] - u[n - 1] + dt**2 * ahom
        c_u = 2.0 * u[n, -1] - u[n - 1, -1]

        x0 = (3.0 * c_u - 4.0 * P[-2] + P[-3]) / (2.0 * dx)
        # partial memory of the boundary flux (all but the m = n+1 node)
        wts2 = k[n + 1 : 0 : -1].copy()
        wts2[0] *= 0.5
        R = dt * (wts2 @ ux_r[: n + 1])

        b1 = -(half * x0 - R - g1[n + 1]
               + (3.0 * c_u - 4.0 * u[n, -1] + u[n - 1, -1]) / (2.0 * dt * pd.p))
        b2 = (pd.p - 0.5 * pd.q * dt) * y[n] + u[n - 1, -1] - u[n, -1]
        a_r = (b1 * a22 - a12 * b2) / det
        y_new = (a11 * b2 - a21 * b1) / det

        # u[n+1, -1] is c_u + dt^2 a_r, as ahom and abc end in 0 and 1; x=0
        # is pinned, as u0(0) may hold a residue the clamp check admits
        u[n + 1] = P + dt**2 * abc * a_r
        u[n + 1, 0] = 0.0
        y[n + 1] = y_new
        ut_r = (3.0 * u[n + 1, -1] - 4.0 * u[n, -1] + u[n - 1, -1]) / (2.0 * dt)
        yp[n + 1] = (-ut_r - pd.q * y_new) / pd.p
        if not (np.isfinite(u[n + 1, -1]) and np.isfinite(y_new)):
            raise NonFinite("direct marching", step=n + 1)

    if not np.all(np.isfinite(u)):
        raise NonFinite("direct marching")
    return DirectSolution(u=u, y=y, yprime=yp, f=overdetermination(pd, u))


def solve_linear_dirichlet(pd, v0row, v1row, K, prev_row=None):
    """March v_tt - v_xx - beta v_xxtt = K with homogeneous Dirichlet ends.

    The three-level scheme of ``solve_direct`` with both ends pinned, run
    in the sine basis where D_xx and (I - beta D_xx)^{-1} are diagonal:
    each mode follows vhat^{n+1} = c vhat^n - vhat^{n-1} + Khat^n with
    c = 2 - dt^2 mu/(1 + beta mu) and Khat the projected forcing scaled by
    dt^2/(1 + beta mu).

    Without ``prev_row`` the march starts at t = 0: its second level is the
    Taylor start from ``v0row`` and the velocity ``v1row``.  That start
    takes the second difference of ``v0row`` in physical space, so nonzero
    endpoints of ``v0row`` enter it.  ``prev_row`` is the solved level one
    step before ``v0row``: the march then continues a global one, its first
    step is the recurrence itself, and ``v1row`` is not read.  Row 0 is
    ``v0row`` as given; every later row vanishes at both ends.
    """
    grid = pd.grid
    nx, nt, dx, dt = grid.nx, grid.nt, grid.dx, grid.dt
    K = np.asarray(K, dtype=float)
    if K.shape != (nt + 1, nx + 2):
        raise ValueError(f"forcing shape {K.shape} does not match the grid")
    S, mu, inv_disp = _sine_modes(nx, dx, pd.beta)
    gain = dt**2 * inv_disp
    c = 2.0 - gain * mu
    proj = 2.0 / (nx + 1)

    # The march runs inside the output: h[n] holds the scaled forcing of
    # level n until step n overwrites it with vhat^{n+1}; K[nt] never
    # enters the march.
    v = np.zeros((nt + 1, nx + 2))
    h = v[1:, 1:-1]
    np.matmul(K[:nt, 1:-1], S, out=h)
    h *= proj * gain
    v0row = np.asarray(v0row, dtype=float)
    if prev_row is None:
        rows = np.stack([v0row, np.asarray(v1row, float), second_diff(v0row, dx)])
        w0, w1, d0 = proj * (rows[:, 1:-1] @ S)
        h[0] = w0 + dt * w1 + 0.5 * (h[0] + gain * d0)
    else:
        rows = np.stack([np.asarray(prev_row, float), v0row])
        w_prev, w0 = proj * (rows[:, 1:-1] @ S)
        h[0] += c * w0 - w_prev
    prev = w0
    for n in range(1, nt):
        h[n] += c * h[n - 1] - prev
        prev = h[n - 1]
    # Back-transform in row blocks: one whole-array product would need a
    # second field-sized buffer.
    for b in range(0, nt, 64):
        h[b : b + 64] = h[b : b + 64] @ S
    v[0] = v0row
    if not np.all(np.isfinite(v)):
        raise NonFinite("Dirichlet marching")
    return v


def overdetermination(pd, u):
    """Measurement series from the displacement form of the sensor average.

    Uses exact sensor derivatives and never differentiates the discrete
    field: f(t) = -integral of (phi' - beta phi''') u(., t).
    """
    prof = profiles(pd)
    return -quad_trapz(np.asarray(u, float) * prof.w_direct, pd.grid.dx)
