"""Reference march for the homogeneous Dirichlet problem.

Steps v_tt - v_xx - beta v_xxtt = K in physical space, one banded Cholesky
solve of (I - beta D_xx) per step.  Tests pin the sine-modal
``solve_linear_dirichlet`` to it.
"""

import numpy as np

from memkernel.grids import DispersiveInverse, second_diff


def banded_march(pd, v0row, v1row, K):
    grid = pd.grid
    nx, nt, dx, dt = grid.nx, grid.nt, grid.dx, grid.dt
    K = np.asarray(K, dtype=float)
    inv = DispersiveInverse(pd.beta, dx, nx)

    v = np.zeros((nt + 1, nx + 2))
    v[0] = v0row
    a0 = inv.solve(second_diff(v[0], dx) + K[0], 0.0, 0.0)
    v[1] = v[0] + dt * np.asarray(v1row, float) + 0.5 * dt**2 * a0
    v[1, 0] = v[1, -1] = 0.0
    for n in range(1, nt):
        a = inv.solve(second_diff(v[n], dx) + K[n], 0.0, 0.0)
        v[n + 1] = 2.0 * v[n] - v[n - 1] + dt**2 * a
        v[n + 1, 0] = v[n + 1, -1] = 0.0
    return v
