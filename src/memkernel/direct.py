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

``solve_direct`` marches the interior as sine coefficients, where
(I - beta D_xx)^{-1} is diagonal.  Only the right-end value u_R and the
oscillator stay scalar series.  For a level with u(0) = 0 the interior
D_xx u has the modes -mu uhat + u_R lift, lift being the projection of the
right end's stencil weight; the march keeps it scaled by
dt^2 (I - beta D_xx)^{-1}, the acceleration it drives.  The memory before
each block of ``timeconv.ROW_BLOCK`` steps, of the field and of the
right-end flux, is one product with a lag block of the convolution matrix
(``timeconv.lag_block``); a step adds only its local triangle of at most
``ROW_BLOCK`` lags, O(ROW_BLOCK nx) work, and solves the scalar 2x2
closure on Python floats.  The interior acceleration that carries a unit
right-end acceleration is one ``DispersiveInverse`` solve, made once, and
its share of every step's acceleration is added per back-transform block.
The two nodes beside the right end, read by the flux stencil, move by one
product of each step's modal increment with two columns of the sine
matrix.  The field is formed once at the end.  The modal accelerations go
back to nodes in row blocks and are summed like the recurrence, from the
physical rows 0 and 1: back-transforming every row's modes instead adds
roundoff that is uncorrelated in time, which second time differences of u
amplify by 1/dt^2.  The physical step loop survives as the test oracle
``tests/verify.py::reference_solve_direct``.

``solve_linear_dirichlet`` runs the same stepping for the homogeneous
Dirichlet problem v_tt - v_xx - beta v_xxtt = K used inside the inverse
iteration.  With both ends pinned and no memory, the modes decouple: the
march is one projection of K, an independent three-term recurrence per
mode (``_march_modes``, from ``_dirichlet_seed``) and one transform back.
The inverse iteration runs the same recurrence on forcing it assembles in
modes, with no transform at all.
Only a march from t = 0 takes the Taylor start.  A march continued from
two solved levels takes the recurrence itself as its first step, so a
window of the inverse iteration steps exactly the rows of the global march.

``forcing`` and ``flux_forcing`` are verification hooks: they inject a known
residual into the field equation and the flux balance so that manufactured
solutions can exercise every part of the discrete system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .errors import BoundaryIncompatible, EvaluationError, NonFinite
from .expressions import FuncExpr, differentiate, sample
from .grids import DispersiveInverse, Grid, _first_diff_ends, _sine_modes, second_diff
from .timeconv import ROW_BLOCK, lag_block

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
    """The data on the space nodes.  As the one place u0 is sampled, it
    enforces the clamp on u0 and u1; an error names the row that fails, as
    u0''."""
    x, rows = pd.grid.x, {}
    for name, expr in dict(u0=pd.u0, u1=pd.u1, phi=pd.phi, **profile_exprs(pd)).items():
        try:
            rows[name] = sample(expr, x)
        except EvaluationError as exc:
            label = name.rstrip("p").ljust(len(name), "'")  # u0pp -> u0''
            raise EvaluationError(f"{label} on the space nodes: {exc}") from exc
    _check_clamped(rows["u0"], rows["u1"])
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


def _check_clamped(u0row, u1row):
    """Raise ``BoundaryIncompatible`` unless the sampled u0 and u1 vanish at
    the clamped end x=0, to tolerances relative to the rows' size: u1 to
    that of ``equivalence.check_compatibility``'s ``u1_clamped`` row."""
    u0_max = np.max(np.abs(u0row))
    if abs(u0row[0]) > 1e-10 * (1.0 + u0_max):
        raise BoundaryIncompatible("u0(0) != 0 violates the clamped condition")
    if abs(u1row[0]) > 1e-8 * (1.0 + max(u0_max, np.max(np.abs(u1row)))):
        raise BoundaryIncompatible("u1(0) != 0 violates the clamped condition")


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

    # every step solves this 2x2 acoustic closure for a_r and the new y, on
    # Python floats
    p, q = pd.p, pd.q
    abc2, abc3 = abc[-2].item(), abc[-3].item()
    x1_geom = dt**2 * (3.0 - 4.0 * abc2 + abc3) / (2.0 * dx)
    half = 1.0 - 0.5 * dt * k[0].item()
    a11 = half * x1_geom + 3.0 * dt / (2.0 * p)
    a12 = q / p
    a21 = dt**2
    a22 = p + 0.5 * q * dt
    det = a11 * a22 - a12 * a21
    if abs(det) < 1e-14:
        raise NonFinite("singular acoustic boundary closure", step=2)

    # Sine modes are row vectors, as in ``solve_linear_dirichlet``.  Rows 0
    # and 1 project their physical second differences, which carries any
    # u0(0) residue; later levels vanish at x = 0.  hs[n] is D_xx u at level
    # n in modes times gain = dt^2 (I - beta D_xx)^{-1}: the part of dt^2 a
    # it drives, with the memory taken of it directly.
    S, mu, inv_disp = _sine_modes(nx, dx, pd.beta)
    proj = 2.0 / (nx + 1)
    gain = dt**2 * inv_disp
    neg_mu = -mu * gain
    lift = (proj / dx**2) * gain * S[-1]
    abc_hat = proj * (abc[1:-1] @ S)
    near_end = np.ascontiguousarray(S[:, [-1, -2]])  # modes -> nodes nx, nx - 1
    hs = np.empty((nt + 1, nx))
    np.matmul(second_diff(u[:2], dx)[:, 1:-1], S, out=hs[:2])
    hs[:2] *= proj * gain
    prev, cur = proj * (u[:2, 1:-1] @ S)
    diff = cur - prev  # u^n - u^{n-1} in modes
    ux_r = np.empty(nt + 1)
    ux_r[:2] = _first_diff_ends(u[:2], dx)[1]

    # Reversed weights of the memory's local triangle: level n reads
    # wl[nt - n + m] = -dt k[n - m] for m < n, and the level's own D_xx u
    # enters as its weight 1 - dt k[0] / 2; the flux memory reads the same
    # weights one lag on, negated.
    wl = -dt * k[::-1]
    wl[-1] = 1.0 + 0.5 * wl[-1]
    loc, tmp = np.empty(nx), np.empty(nx)
    dt2, two_dx, two_dt, damp = dt**2, 2.0 * dx, 2.0 * dt, p - 0.5 * q * dt
    u_prev, u_cur, y_cur = u[0, -1].item(), u[1, -1].item(), y[1].item()
    c2, c3 = u[1, -2].item(), u[1, -3].item()  # u^n at nodes nx, nx - 1
    steps = []  # u_R, y, y' and dt^2 a_r of each step

    # acc[n] (the interior of row n + 1) gathers dt^2 a of step n in modes:
    # the projected forcing, then the history memory of each block of steps
    # in one lag-block product, then the step's local triangle and level.
    acc = u[1:, 1:-1]
    if F is not None:
        np.matmul(F[1:nt, 1:-1], S, out=acc[1:])
        acc[1:] *= proj * gain
    for n0 in range(1, nt, ROW_BLOCK):
        n1 = min(n0 + ROW_BLOCK, nt)
        # rows n0..n1 of the memory before the block: levels n0..n1-1 of the
        # field's, and levels n0+1..n1 of the flux balance's with its forcing
        lags = lag_block(k, dt, n0, n1 + 1, n0)
        acc[n0:n1] -= lags[:-1] @ hs[:n0]
        flux = lags[1:] @ ux_r[:n0]
        flux += g1[n0 + 1 : n1 + 1]
        for n, rhs in enumerate(flux.tolist(), n0):
            a = acc[n]
            a += np.matmul(wl[nt - n + n0 :], hs[n0 : n + 1], out=loc)
            diff += a
            # P = 2 u^n - u^{n-1} + dt^2 a_hom at the nodes nx and nx - 1
            d2, d3 = (diff @ near_end).tolist()
            p2, p3 = c2 + d2, c3 + d3
            c_u = 2.0 * u_cur - u_prev

            # the 2x2 closure; the flux memory lacks only its m = n+1 node
            x0 = (3.0 * c_u - 4.0 * p2 + p3) / two_dx
            rhs -= (wl[nt - 1 - n + n0 : nt] @ ux_r[n0 : n + 1]).item()
            b1 = -(half * x0 - rhs + (3.0 * c_u - 4.0 * u_cur + u_prev) / (two_dt * p))
            b2 = damp * y_cur + u_prev - u_cur
            a_r = (b1 * a22 - a12 * b2) / det
            y_cur = (a11 * b2 - a21 * b1) / det
            s = dt2 * a_r
            u_new = c_u + s  # abc ends in 1
            if not (math.isfinite(u_new) and math.isfinite(y_cur)):
                raise NonFinite("direct marching", step=n + 1)
            ut_r = (3.0 * u_new - 4.0 * u_cur + u_prev) / two_dt
            u_prev, u_cur = u_cur, u_new
            steps.append((u_new, y_cur, (-ut_r - q * y_cur) / p, s))

            c2, c3 = p2 + s * abc2, p3 + s * abc3
            ux_r[n + 1] = (3.0 * u_new - 4.0 * c2 + c3) / two_dx
            diff += np.multiply(abc_hat, s, out=tmp)
            cur += diff
            np.multiply(neg_mu, cur, out=hs[n + 1])
            hs[n + 1] += np.multiply(lift, u_new, out=tmp)
    u[2:, -1], y[2:], yp[2:], sr = np.array(steps).T

    # Rows 2.. are the physical accelerations summed like the recurrence,
    # not back-transformed modes (see the module docstring); row blocks keep
    # the transform's buffer small, and each block takes its right-end
    # accelerations' share a_r abc_hat in one product.
    for b in range(1, nt, 64):
        blk = acc[b : b + 64]
        blk += np.multiply.outer(sr[b - 1 : b + 63], abc_hat)
        acc[b : b + 64] = blk @ S
    acc[0] -= u[0, 1:-1]
    np.cumsum(acc, axis=0, out=acc)  # differences u[n+1] - u[n]
    acc[0] += u[0, 1:-1]
    np.cumsum(acc, axis=0, out=acc)

    if not np.all(np.isfinite(u)):
        raise NonFinite("direct marching")
    return DirectSolution(u=u, y=y, yprime=yp, f=overdetermination(pd, u))


def _dirichlet_coefficients(pd):
    """Per-mode gain dt^2/(1 + beta mu) and recurrence factor
    c = 2 - gain mu of the homogeneous Dirichlet march."""
    grid = pd.grid
    _, mu, inv_disp = _sine_modes(grid.nx, grid.dx, pd.beta)
    gain = grid.dt**2 * inv_disp
    return gain, 2.0 - gain * mu


def _dirichlet_seed(pd, v0row, v1row, prev_row=None):
    """Start of a modal Dirichlet march at ``v0row``: ``(w0, taper, offset)``.

    ``w0`` holds the sine modes of ``v0row``; the first step sets
    vhat^1 = taper h^0 + offset, h^0 being the scaled forcing of level 0.
    Without ``prev_row`` that is the Taylor start from t = 0 (taper 1/2),
    which takes the second difference of ``v0row`` in physical space, so
    nonzero endpoints of ``v0row`` enter it.  With ``prev_row``, the solved
    level one step before, it is the recurrence itself (taper 1), and
    ``v1row`` is not read.
    """
    grid = pd.grid
    S, _, _ = _sine_modes(grid.nx, grid.dx, pd.beta)
    gain, c = _dirichlet_coefficients(pd)
    proj = 2.0 / (grid.nx + 1)
    v0row = np.asarray(v0row, dtype=float)
    if prev_row is None:
        rows = np.stack([v0row, np.asarray(v1row, float), second_diff(v0row, grid.dx)])
        w0, w1, d0 = proj * (rows[:, 1:-1] @ S)
        return w0, 0.5, w0 + grid.dt * w1 + 0.5 * gain * d0
    rows = np.stack([np.asarray(prev_row, float), v0row])
    w_prev, w0 = proj * (rows[:, 1:-1] @ S)
    return w0, 1.0, c * w0 - w_prev


def _march_modes(h, seed, c):
    """The three-level recurrence vhat^{n+1} = c vhat^n - vhat^{n-1} + h^n,
    in place: on entry ``h[n]`` holds the scaled forcing of level n, on
    exit the modes of level n + 1.  ``seed`` is ``_dirichlet_seed``'s."""
    w0, taper, offset = seed
    h[0] *= taper
    h[0] += offset
    prev, tmp = w0, np.empty(h.shape[1:])  # one temporary for every step
    for cur, nxt in zip(h, h[1:]):
        np.multiply(c, cur, out=tmp)
        tmp -= prev
        nxt += tmp
        prev = cur


def solve_linear_dirichlet(pd, v0row, v1row, K, prev_row=None):
    """March v_tt - v_xx - beta v_xxtt = K with homogeneous Dirichlet ends.

    The three-level scheme of ``solve_direct`` with both ends pinned, run
    in the sine basis where D_xx and (I - beta D_xx)^{-1} are diagonal:
    each mode follows ``_march_modes`` with Khat the projected forcing
    scaled by ``_dirichlet_coefficients``' gain, from ``_dirichlet_seed``.

    Without ``prev_row`` the march starts at t = 0 by the Taylor start
    from ``v0row`` and the velocity ``v1row``.  ``prev_row`` is the solved
    level one step before ``v0row``: the march then continues a global one
    and ``v1row`` is not read.  Row 0 is ``v0row`` as given; every later
    row vanishes at both ends.
    """
    grid = pd.grid
    nx, nt = grid.nx, grid.nt
    K = np.asarray(K, dtype=float)
    if K.shape != (nt + 1, nx + 2):
        raise ValueError(f"forcing shape {K.shape} does not match the grid")
    S, _, _ = _sine_modes(nx, grid.dx, pd.beta)
    gain, c = _dirichlet_coefficients(pd)

    # The march runs inside the output: h[n] holds the scaled forcing of
    # level n until the march overwrites it with vhat^{n+1}; K[nt] never
    # enters the march.
    v = np.zeros((nt + 1, nx + 2))
    h = v[1:, 1:-1]
    np.matmul(K[:nt, 1:-1], S, out=h)
    h *= (2.0 / (nx + 1)) * gain
    _march_modes(h, _dirichlet_seed(pd, v0row, v1row, prev_row), c)
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
    field: f(t) = -integral of (phi' - beta phi''') u(., t), one product of
    u with the sensor row's trapezoid weights.
    """
    wq = pd.grid.dx * profiles(pd).w_direct
    wq[[0, -1]] *= 0.5
    return -(np.asarray(u, float) @ wq)
