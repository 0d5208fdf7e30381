"""Uniform space-time grids and discrete spatial operators.

Space rows are 1-D float arrays over all nodes ``x_0 .. x_{nx+1}`` (length
``nx + 2``); fields are 2-D arrays with one row per time level (shape
``(nt + 1, nx + 2)``).  A row that vanishes at both ends is also held as
its ``nx`` sine coefficients (``_sine_modes``).  ``spatial_h2_norm``
measures physical rows by their difference stencils; ``_h2_form`` is the
same norm in sine coefficients and serves only rows held as modes.  All
operators are pure functions of their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Grid",
    "second_diff",
    "first_diff",
    "DispersiveInverse",
    "quad_trapz",
    "spatial_h2_norm",
]


@dataclass(frozen=True)
class Grid:
    """Uniform discretization of (0, ell) x [0, T].

    ``nx`` counts interior space nodes, so there are ``nx + 2`` nodes with
    ``x_0 = 0`` and ``x_{nx+1} = ell`` exactly; ``nt`` counts time steps.
    """

    ell: float
    T: float
    nx: int
    nt: int

    def __post_init__(self):
        if self.nx < 3:
            raise ValueError("need at least 3 interior space nodes")
        if self.nt < 2:
            raise ValueError("need at least 2 time steps")
        if not (0 < self.ell < np.inf and 0 < self.T < np.inf):
            raise ValueError("domain length and horizon must be finite and positive")

    @property
    def dx(self):
        return self.ell / (self.nx + 1)

    @property
    def dt(self):
        return self.T / self.nt

    @property
    def x(self):
        return np.linspace(0.0, self.ell, self.nx + 2)

    @property
    def t(self):
        return np.linspace(0.0, self.T, self.nt + 1)

    def time_window(self, steps):
        """Grid over the same space nodes but only ``steps`` time steps."""
        return Grid(self.ell, steps * self.dt, self.nx, steps)


def second_diff(row, dx):
    """Three-point second difference along the last axis.

    Interior nodes get the centered stencil; the two endpoint entries get
    one-sided second-order values.  Endpoint values are for quadrature and
    diagnostics only; Dirichlet solves never read them.
    """
    row = np.asarray(row, dtype=float)
    out = np.empty_like(row)
    out[..., 1:-1] = (row[..., :-2] - 2.0 * row[..., 1:-1] + row[..., 2:]) / dx**2
    out[..., 0], out[..., -1] = _second_diff_ends(row, dx)
    return out


def _by_node(a):
    """``a`` indexed by the node along its last axis: ``_by_node(a)[j]`` is
    ``a[..., j]``.  On a 1-D row the entries are scalars, which compute
    several times faster than the 0-d arrays that ``a[..., j]`` gives."""
    return a.T if a.ndim <= 2 else np.moveaxis(a, -1, 0)


def _second_diff_ends(row, dx):
    """One-sided second differences at the first and last node."""
    r = _by_node(row)
    return (
        (2 * r[0] - 5 * r[1] + 4 * r[2] - r[3]) / dx**2,
        (2 * r[-1] - 5 * r[-2] + 4 * r[-3] - r[-4]) / dx**2,
    )


def first_diff(row, dx):
    """Centered first difference along the last axis, one-sided at the ends."""
    row = np.asarray(row, dtype=float)
    out = np.empty_like(row)
    out[..., 1:-1] = (row[..., 2:] - row[..., :-2]) / (2.0 * dx)
    out[..., 0], out[..., -1] = _first_diff_ends(row, dx)
    return out


def _first_diff_ends(row, dx):
    """One-sided first differences at the first and last node."""
    r = _by_node(row)
    return (
        (-3 * r[0] + 4 * r[1] - r[2]) / (2.0 * dx),
        (3 * r[-1] - 4 * r[-2] + r[-3]) / (2.0 * dx),
    )


@lru_cache(maxsize=8)
def _sine_matrix(nx):
    """``S[i, j] = sin(pi i j / (nx + 1))`` for i, j = 1..nx, read-only.

    The phase ``i*j`` is reduced modulo ``2(nx + 1)`` in integers so each
    entry is rounded once.
    """
    j = np.arange(1, nx + 1)
    S = np.sin((np.pi / (nx + 1)) * (np.outer(j, j) % (2 * (nx + 1))))
    S.flags.writeable = False
    return S


@lru_cache(maxsize=8)
def _sine_modes(nx, dx, beta):
    """Sine basis of the Dirichlet interior and the operator eigenvalues.

    ``S = _sine_matrix(nx)`` is symmetric with ``S @ S = (nx + 1)/2 I``;
    row vectors project as ``(2/(nx + 1)) w @ S`` and return as
    ``w_hat @ S``.  Its columns are eigenvectors of the interior second
    difference with eigenvalues ``-mu_j``, so ``(I - beta D_xx)^{-1}`` acts
    as ``1/(1 + beta mu_j)``.  Returns read-only ``(S, mu, 1/(1 + beta mu))``.
    """
    j = np.arange(1, nx + 1)
    mu = (4.0 / dx**2) * np.sin(np.pi * j / (2 * (nx + 1))) ** 2
    modes = (_sine_matrix(nx), mu, 1.0 / (1.0 + beta * mu))
    for a in modes:
        a.flags.writeable = False
    return modes


def _end_stencil_modes(nx, dx):
    """The one-sided end stencils as functionals of sine coefficients.

    Rows, for a row with zero ends given by its coefficients ``w_hat``:
    ``first_diff`` at the first and at the last node, then ``second_diff``
    at the first and at the last node; ``w_hat @ rows.T`` evaluates them.
    They are the stencils applied to each sine on the nodes.
    """
    sines = np.zeros((nx, nx + 2))
    sines[:, 1:-1] = _sine_matrix(nx)
    return np.stack(_first_diff_ends(sines, dx) + _second_diff_ends(sines, dx))


class DispersiveInverse:
    """Solver for (I - beta * D_xx) w = rhs with Dirichlet data.

    The endpoint values are lifted into the interior right-hand side, which
    is solved in the sine basis of ``_sine_modes``, where the operator is
    diagonal; one step of iterative refinement on the tridiagonal residual
    matches a direct factorization (Higham 2002, ch. 12).
    """

    def __init__(self, beta, dx, n_interior):
        if beta < 0:
            raise ValueError("beta must be nonnegative")
        self.n = n_interior
        self._c = beta / dx**2
        self._S, _, inv_disp = _sine_modes(n_interior, dx, beta)
        self._gain = (2.0 / (n_interior + 1)) * inv_disp

    def _modal_solve(self, b):
        return ((b @ self._S) * self._gain) @ self._S

    def solve(self, rhs, left_bc=0.0, right_bc=0.0):
        """Full-row solution with prescribed endpoint values."""
        c = self._c
        b = np.array(rhs, dtype=float)[1:-1]
        b[0] += c * left_bc
        b[-1] += c * right_bc
        w = self._modal_solve(b)
        resid = b - (1.0 + 2.0 * c) * w
        resid[1:] += c * w[:-1]
        resid[:-1] += c * w[1:]
        out = np.empty(self.n + 2)
        out[0], out[-1] = left_bc, right_bc
        out[1:-1] = w + self._modal_solve(resid)
        return out


def quad_trapz(row, dx):
    """Composite trapezoid quadrature of node values along the last axis."""
    row = np.asarray(row, dtype=float)
    return dx * (row[..., :].sum(axis=-1) - 0.5 * (row[..., 0] + row[..., -1]))


@lru_cache(maxsize=8)
def _h2_form(nx, dx):
    """The squared ``spatial_h2_norm`` over ``dx`` of a row with zero ends, as
    a quadratic form in its sine coefficients: diagonal plus rank 6.

    With N = nx + 1, the value and the interior second differences
    (eigenvalues -mu) are diagonal, (N/2)(1 + mu_j^2).  The centered first
    difference takes sine j to s_j times cosine j, s_j = sin(j pi/N)/dx;
    the cosines are orthogonal under the DCT-I sum over nodes 0..N with
    halved ends, so over nodes 1..nx the part is (N/2) sum a_j^2 less
    (sum a_j)^2/2 and (sum (-1)^j a_j)^2/2, with a = s w_hat.  The four
    one-sided end stencils enter with the trapezoid weight one half.
    Returns read-only ``(d, B, w)``: the form is
    ``sum_j d_j w_hat_j^2 + sum_k w_k (w_hat @ B)_k^2``.
    """
    N = nx + 1
    j = np.arange(1, N)
    s = np.sin(np.pi * j / N) / dx
    mu = _sine_modes(nx, dx, 0.0)[1]
    d = (N / 2) * (1.0 + s * s + mu * mu)
    B = np.column_stack((s, (-1.0) ** j * s, _end_stencil_modes(nx, dx).T))
    w = np.array([-0.5, -0.5, 0.5, 0.5, 0.5, 0.5])
    for a in (d, B, w):
        a.flags.writeable = False
    return d, B, w


def _h2_squares(w_hat, dx):
    """The form of ``_h2_form`` of each row of ``w_hat``, which it squares in
    place: callers pass a temporary."""
    d, B, w = _h2_form(w_hat.shape[-1], dx)
    p = w_hat @ B
    np.square(w_hat, out=w_hat)
    return w_hat @ d + (p * p) @ w


def spatial_h2_norm(row, dx):
    """Discrete H2(I) norm along the last axis: trapezoid L2 norms of the
    value, ``first_diff`` and ``second_diff``."""
    return np.sqrt(_stencil_squares(row, dx).sum(axis=0))


def _stencil_squares(rows, dx):
    """Trapezoid integrals along the last axis of the squared value,
    ``first_diff`` and ``second_diff`` of ``rows``, stacked on a new first
    axis.  Each difference is squared in place and dropped before the next."""
    rows = np.asarray(rows, dtype=float)
    out = [quad_trapz(rows * rows, dx)]
    for diff in (first_diff, second_diff):
        layer = diff(rows, dx)
        out.append(quad_trapz(np.square(layer, out=layer), dx))
    return np.stack(out)
