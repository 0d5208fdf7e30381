"""Reconstruction from noisy measurements.

Recovering the kernel consumes the fourth derivative of f, so noise is
amplified ferociously: this is an ill-posed step, and the pipeline's only
defense is derivative smoothing (a Chebyshev fit whose residual target
is the known noise level).  The sweep below shows the
graceful part of the degradation: errors grow steeply with sigma, but the
iteration keeps converging and nothing blows up.

Run from the repository root:  python3 demos/05_noisy_measurement.py
"""

import numpy as np

from memkernel import (
    Grid,
    InverseOptions,
    Kernel,
    ProblemData,
    l2_time_norm,
    parse,
    reconstruct,
    solve_direct,
)

PI = repr(np.pi)

grid = Grid(ell=1.0, T=1.0, nx=200, nt=400)
pd = ProblemData(
    beta=0.1, p=1.0, q=1.0, ell=1.0, T=1.0,
    u0=parse(f"sin({2 * np.pi}*x)", "x"),
    u1=parse("0*x", "x"),
    phi=parse(f"sin({PI}*x)^3", "x"),
    grid=grid,
)
k_true = Kernel.from_expression(parse("0.4*cos(2*t)", "t"), grid.t)
f = solve_direct(pd, k_true).f
kt = 0.4 * np.cos(2 * grid.t)
scale = np.max(np.abs(f))
rng = np.random.default_rng(2024)

print("relative noise sigma -> relative kernel error")
for rel_sigma in (0.0, 1e-5, 1e-4, 1e-3):
    sigma = rel_sigma * scale
    noisy = f + sigma * rng.standard_normal(f.shape)
    rec = reconstruct(pd, noisy, InverseOptions(noise_sigma=sigma, force=True))
    rel = l2_time_norm(rec.kernel.k - kt, grid.dt) / l2_time_norm(kt, grid.dt)
    finite = np.all(np.isfinite(rec.kernel.k))
    print(f"   sigma = {rel_sigma:7.0e}   err = {rel:8.2e}   finite: {finite}")

print("\nFour numerical derivatives of noisy data: expect roughly three "
      "orders of error amplification per three orders of noise.")
