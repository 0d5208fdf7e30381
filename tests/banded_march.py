"""Reference solves for the dispersive operator and the Dirichlet march.

``dense_dispersive_solve`` solves (I - beta D_xx) w = rhs with Dirichlet
data by ``np.linalg.solve`` on the assembled tridiagonal matrix, so it
shares no code with the library's sine-basis ``DispersiveInverse``.
``banded_march`` steps v_tt - v_xx - beta v_xxtt = K in physical space with
one such solve per step.  Tests pin the library solvers to both.
"""

import numpy as np

from memkernel.grids import second_diff


def dense_dispersive_solve(beta, dx, rhs, left_bc=0.0, right_bc=0.0):
    rhs = np.asarray(rhs, dtype=float)
    n = rhs.shape[0] - 2
    c = beta / dx**2
    A = (1.0 + 2.0 * c) * np.eye(n) - c * (np.eye(n, k=1) + np.eye(n, k=-1))
    b = rhs[1:-1].copy()
    b[0] += c * left_bc
    b[-1] += c * right_bc
    return np.concatenate(([left_bc], np.linalg.solve(A, b), [right_bc]))


def banded_march(pd, v0row, v1row, K):
    grid = pd.grid
    nt, dx, dt = grid.nt, grid.dx, grid.dt
    K = np.asarray(K, dtype=float)

    def accel(row, forcing):
        return dense_dispersive_solve(pd.beta, dx, second_diff(row, dx) + forcing)

    v = np.zeros((nt + 1, grid.nx + 2))
    v[0] = v0row
    v[1] = v[0] + dt * np.asarray(v1row, float) + 0.5 * dt**2 * accel(v[0], K[0])
    v[1, 0] = v[1, -1] = 0.0
    for n in range(1, nt):
        v[n + 1] = 2.0 * v[n] - v[n - 1] + dt**2 * accel(v[n], K[n])
        v[n + 1, 0] = v[n + 1, -1] = 0.0
    return v
