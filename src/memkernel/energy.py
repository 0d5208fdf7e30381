"""Discrete energy functionals and the linear-solve stability sentinel.

For the homogeneous Dirichlet problem v_tt - v_xx - beta v_xxtt = K the
first-level energy E1 = (|v_t|^2 + |v_x|^2 + beta |v_xt|^2) / 2 is conserved
when K = 0 and controlled by the data otherwise; the second-level energy E2
uses one more spatial derivative.  The solution norm in H2-in-time is
bounded by C (|v0| + |v1| + |K|).  The constant is not computable from the
analysis, so it is calibrated once on a manufactured suite and frozen; the
margin check is a stability sentinel, not a proof.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import first_diff, quad_trapz, second_diff, spatial_h2_norm
from .timeconv import integrate_prefix, l2_time_norm, time_derivative

__all__ = [
    "EnergyTrack",
    "energy_series",
    "solution_norm",
    "check_estimate",
    "CALIBRATED_BOUND",
]

# 1.2 x the largest LHS/RHS ratio observed on the 20-case calibration suite
# (seed 777, beta=0.1, nx=80, nt=200); the ratio converges under grid
# refinement, so the same constant serves finer grids of this family.
# Regenerate with calibrate_constant(20, seed=777, pd=<family problem>)
# from tests/verify.py.
CALIBRATED_BOUND = 17.845101900212978


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

    Sum of the three L2-in-time norms of the spatial H2 row norms; the same
    surrogate drives the fixed-point iteration metric.
    """
    v = np.asarray(v, float)
    dt, dx = grid.dt, grid.dx
    vt = time_derivative(v, dt)
    layers = (v, vt, time_derivative(vt, dt))
    return float(sum(l2_time_norm(spatial_h2_norm(layer, dx), dt) for layer in layers))


def check_estimate(v, v0row, v1row, K, beta, grid, bound=None):
    """Margin of the calibrated stability estimate; nonnegative is healthy.

    Returns bound * (|v0| + |v1| + |K|) - |v| with the H2 surrogates above.
    """
    c = CALIBRATED_BOUND if bound is None else bound
    dx, dt = grid.dx, grid.dt
    lhs = solution_norm(v, grid)
    k_norm = l2_time_norm(np.sqrt(quad_trapz(np.asarray(K, float) ** 2, dx)), dt)
    rhs = spatial_h2_norm(v0row, dx) + spatial_h2_norm(v1row, dx) + k_norm
    return c * rhs - lhs
