"""Derivatives of measured time series, up to fourth order.

The kernel update consumes the fourth derivative of the measurement series,
so the estimator matters.  Sampled series go through a global Chebyshev fit
with residual-driven degree selection, then exact differentiation of the
fit.  The residual target is a tight relative level for clean data and the
noise level for noisy data, so the fit doubles as a spectral filter; naive
high-order difference stencils amplify sample noise by 1/dt^4.  The fit
stops at the first degree that its rule chooses.

Symbolic inputs bypass all of this: expressions are differentiated exactly.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import chebyshev

from .expressions import differentiate, sample

__all__ = ["derivative_stack", "derivative_stack_from_expression", "fit_noise_gains"]

def derivative_stack_from_expression(expr, t):
    """Sample an expression and its first four exact derivatives."""
    out = np.empty((5, len(t)))
    e = expr
    for m in range(5):
        out[m] = sample(e, t)
        e = differentiate(e)
    return out


def derivative_stack(values, dt, *, noise_sigma=0.0, return_degree=False):
    """Estimate ``values`` and its first four time derivatives.

    Returns an array of shape ``(5, len(values))``.  ``noise_sigma`` is the
    absolute standard deviation of the measurement noise (0 for clean data);
    it sets the residual target of the degree search.  With
    ``return_degree`` the fitted degree is returned too, as a second value
    (None for an all-zero series, which is not fitted).
    """
    # The fit reproduces any smooth content of the samples, including the
    # smooth discretization error of a synthesized series, so pushing the
    # residual toward machine precision buys nothing while the endpoint
    # error of high-degree derivatives grows.  Pick the smallest degree
    # that (a) resolves the series down to the residual target -- a tight
    # relative level for clean data, the noise level for noisy data -- and
    # (b) sits at the onset of the residual plateau, under ten times the
    # next degree's residual; beyond it extra degrees only chase roundoff or
    # noise.  Degrees are fitted in order until one qualifies, else the last.
    # No degree exceeds n - 1, the interpolant, which is all a series of
    # fewer than five samples gets.
    f = np.asarray(values, dtype=float)
    n = f.shape[0]
    t = np.arange(n) * dt
    cap = min(max(12, n // 4), 48, n - 1)
    scale = np.max(np.abs(f))
    if scale == 0.0:
        out = np.zeros((5, n))
        return (out, None) if return_degree else out
    target = max(1.05 * noise_sigma, 1e-9 * scale)
    fit, resid = None, np.inf
    for deg in range(4, cap + 1, 2) if n >= 5 else [n - 1]:
        nxt = chebyshev.Chebyshev.fit(t, f, deg)
        nxt_resid = np.sqrt(np.mean((nxt(t) - f) ** 2))
        if resid <= target and resid < 10.0 * max(nxt_resid, 1e-300):
            break
        fit, resid = nxt, nxt_resid
    degree = fit.degree()
    out = np.empty((5, n))
    out[0] = f
    for m in range(1, 5):
        fit = fit.deriv(1)
        out[m] = fit(t)
    return (out, degree) if return_degree else out


def fit_noise_gains(n, dt, degree, orders):
    """2-norms of the linear maps from n samples on t = 0, dt, .. to the
    ``orders``-th derivatives at t = 0 of their least-squares Chebyshev fit
    of ``degree`` (the fit ``derivative_stack`` makes): sample noise of
    standard deviation sigma moves the fitted f^(j)(0) by sigma times gain j.
    """
    x = np.linspace(-1.0, 1.0, n)  # the fit maps its domain [0, (n-1) dt] onto [-1, 1]
    basis = chebyshev.chebvander(x, degree)
    unit = np.eye(degree + 1)
    gains = []
    for j in orders:
        # the row that takes Chebyshev coefficients to the j-th derivative at t = 0
        row = chebyshev.chebval(-1.0, chebyshev.chebder(unit, j)) * (2.0 / ((n - 1) * dt)) ** j
        # its map on the samples is row @ pinv(basis): the minimum-norm solution
        gains.append(float(np.linalg.norm(np.linalg.lstsq(basis.T, row, rcond=None)[0])))
    return tuple(gains)
