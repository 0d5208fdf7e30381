"""Discrete energy functionals and the H2-in-time solution norm.

For the homogeneous Dirichlet problem v_tt - v_xx - beta v_xxtt = K the
first-level energy E1 = (|v_t|^2 + |v_x|^2 + beta |v_xt|^2) / 2 is
conserved when K = 0 and controlled by the data otherwise; the second-level
energy E2 uses one more spatial derivative.  ``solution_norm`` measures v,
v_t and v_tt in discrete H2; ``modal_solution_norm`` is the same norm of a
field held as sine coefficients, and the metric of the Picard iteration.
The energies and both norms walk the field in slabs of ``ROW_BLOCK`` time
rows, so no field-sized layer is formed.  Physical rows are measured by
their difference stencils, and only the metric's rows, held as modes, by
the H2 form of ``grids``.  The a priori bound C (|v0| + |v1| + |K|) on
``solution_norm``, with C calibrated once and frozen, is a stability
sentinel of the test suite (``tests/verify.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import _h2_squares, _stencil_squares, quad_trapz
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
    # rows: v, v_t, v_tt; columns: value, first and second space difference
    (_, vx, vxx), (vt, vxt, vxxt), (vtt, vxtt, vxxtt) = _stencil_table(v, grid)
    return EnergyTrack(
        t=grid.t,
        e1=0.5 * (vt + vx + beta * vxt),
        e2=0.5 * (vxt + vxx + beta * vxxt),
        cum_vtt=integrate_prefix(vtt, 0.0, grid.dt),
        cum_vxtt=integrate_prefix(vxtt, 0.0, grid.dt),
        cum_vxxtt=integrate_prefix(vxxtt, 0.0, grid.dt),
    )


def solution_norm(v, grid):
    """H2-in-time norm surrogate: v, v_t, v_tt measured in discrete H2(I).

    Sum of the three L2-in-time norms of the spatial H2 row norms.
    """
    return float(np.sqrt(quad_trapz(_stencil_table(v, grid).sum(axis=1), grid.dt)).sum())


def modal_solution_norm(v_hat, grid, minus=None):
    """``solution_norm`` of a field whose rows vanish at both ends, given by
    their sine coefficients; the fixed-point iteration metric.  With
    ``minus``, the norm of ``v_hat - minus``."""
    squares = [_h2_squares(layers, grid.dx) for layers in _slabs(v_hat, grid.dt, minus)]
    sums = sum(slab.sum(axis=1) for slab in squares)
    ends = squares[0][:, 0] + squares[-1][:, -1]
    return float(np.sqrt(grid.dt * grid.dx * (sums - 0.5 * ends)).sum())


def _stencil_table(v, grid):
    """Squared row norms (``_stencil_squares``): entry ``[i, j, n]`` is that
    of the j-th space difference of the i-th time derivative of v at level
    n.  Each layer of a slab is measured on its own, so the temporaries stay
    one layer in size."""
    return np.concatenate([[_stencil_squares(layer, grid.dx) for layer in layers]
                           for layers in _slabs(v, grid.dt)], axis=-1)


def _slabs(v, dt, minus=None):
    """Yield v, v_t and v_tt (of ``v - minus`` with ``minus``) on each slab
    of ``ROW_BLOCK`` time rows, stacked in a fresh temporary.  Time
    differences act on each coefficient as on each node.  A slab reads the
    two rows on either side that v_tt reaches; the last reaches back to row
    n-4 for the one-sided v_tt at row n-1."""
    v = np.asarray(v, float)
    n = v.shape[0]
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
        yield stack[:, r0 - a : r1 - a]
