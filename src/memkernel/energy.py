"""Discrete energy functionals and the H2-in-time solution norm.

For the homogeneous Dirichlet problem v_tt - v_xx - beta v_xxtt = K the
first-level energy E1 = (|v_t|^2 + |v_x|^2 + beta |v_xt|^2) / 2 is conserved
when K = 0 and controlled by the data otherwise; the second-level energy E2
uses one more spatial derivative.  ``solution_norm`` measures v, v_t and
v_tt in discrete H2; ``modal_solution_norm`` is the same norm of a field
held as sine coefficients, and the metric of the Picard iteration.  Both
take their squared row norms from the one H2 form of ``grids`` and walk
the field in slabs of ``ROW_BLOCK`` time rows, summing the squares of each
layer by the trapezoid rule, so no field-sized layer is formed.  The a
priori bound C (|v0| + |v1| + |K|) on it, with C calibrated once and
frozen, is a stability sentinel of the test suite (``tests/verify.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import _h2_squares, _spatial_h2_squares, first_diff, quad_trapz, second_diff
from .timeconv import ROW_BLOCK, integrate_prefix, time_derivative

__all__ = [
    "EnergyTrack",
    "energy_series",
    "solution_norm",
    "modal_solution_norm",
]


@dataclass(frozen=True)
class EnergyTrack:
    """Per-level energies and cumulative second-derivative measures."""

    t: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    cum_vtt: np.ndarray
    cum_vxtt: np.ndarray
    cum_vxxtt: np.ndarray


def energy_series(v, beta, grid):
    """Energy functionals of a field, discrete derivatives throughout."""
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

    e1 = 0.5 * (sq(vt) + sq(vx) + beta * sq(vxt))
    e2 = 0.5 * (sq(vxt) + sq(vxx) + beta * sq(vxxt))
    return EnergyTrack(
        t=grid.t,
        e1=e1,
        e2=e2,
        cum_vtt=integrate_prefix(sq(vtt), 0.0, dt),
        cum_vxtt=integrate_prefix(sq(vxtt), 0.0, dt),
        cum_vxxtt=integrate_prefix(sq(vxxtt), 0.0, dt),
    )


def solution_norm(v, grid):
    """H2-in-time norm surrogate: v, v_t, v_tt measured in discrete H2(I).

    Sum of the three L2-in-time norms of the spatial H2 row norms.
    """
    return _h2_in_time(_spatial_h2_squares, grid, v)


def modal_solution_norm(v_hat, grid, minus=None):
    """``solution_norm`` of a field whose rows vanish at both ends, given by
    their sine coefficients; the fixed-point iteration metric.  With
    ``minus``, the norm of ``v_hat - minus``."""
    return _h2_in_time(_h2_squares, grid, v_hat, minus)


def _h2_in_time(row_squares, grid, v, minus=None):
    # Time differences act on each coefficient as on each node.  A slab of
    # ROW_BLOCK rows reads the two rows on either side that v_tt reaches; the
    # last slab reaches back to row n-4 for the one-sided v_tt at row n-1.
    dt, dx = grid.dt, grid.dx
    v = np.asarray(v, float)
    n = v.shape[0]
    sums, ends = np.zeros(3), np.zeros(3)
    for r0 in range(0, n, ROW_BLOCK):
        r1 = min(r0 + ROW_BLOCK, n)
        a, b = max(min(r0, n - 2) - 2, 0), min(r1 + 2, n)
        stack = np.empty((3, b - a) + v.shape[1:])
        if minus is None:
            stack[0] = v[a:b]
        else:
            np.subtract(v[a:b], minus[a:b], out=stack[0])
        time_derivative(stack[0], dt, out=stack[1])
        time_derivative(stack[1], dt, out=stack[2])
        sq = row_squares(stack[:, r0 - a : r1 - a], dx)
        sums += sq.sum(axis=1)
        if r0 == 0:
            ends += sq[:, 0]
        if r1 == n:
            ends += sq[:, -1]
    return float(np.sqrt(dt * dx * (sums - 0.5 * ends)).sum())
