"""Derivatives of measured time series, up to fourth order.

The kernel update consumes the fourth derivative of the measurement series,
so the estimator matters.  Three routes are provided:

* ``chebfit`` (the ``auto`` default) -- global Chebyshev fit with
  residual-driven degree selection, then exact differentiation of the fit.
  The residual target is a tight relative level for clean data and the
  noise level for noisy data, so the fit doubles as a spectral filter;
  naive high-order difference stencils amplify sample noise by 1/dt^4.
* ``savgol`` -- local polynomial (Savitzky-Golay) derivative filters with a
  short window.  Cheap and fully local, but it inherits the 1/dt^4 noise
  amplification on fine grids; kept as an explicit option.
* ``spline`` -- quintic smoothing spline with the residual budget set from
  a known noise level.  Knot placement can be temperamental; prefer the
  noise-aware ``chebfit`` route.

Symbolic inputs bypass all of this: expressions are differentiated exactly.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import chebyshev
from scipy.interpolate import UnivariateSpline
from scipy.signal import savgol_filter

from .expressions import differentiate, sample

__all__ = ["DERIVATIVE_MODES", "derivative_stack", "derivative_stack_from_expression"]

DERIVATIVE_MODES = ("auto", "chebfit", "savgol", "spline")


def derivative_stack_from_expression(expr, t):
    """Sample an expression and its first four exact derivatives."""
    out = np.empty((5, len(t)))
    e = expr
    for m in range(5):
        out[m] = sample(e, t)
        e = differentiate(e)
    return out


def derivative_stack(values, dt, mode="chebfit", orders=4, *,
                     noise_sigma=0.0, max_degree=None,
                     window=7, polyorder=5):
    """Estimate ``values`` and its first ``orders`` time derivatives.

    Returns an array of shape ``(orders + 1, len(values))``.  ``noise_sigma``
    is the absolute standard deviation of the measurement noise (0 for clean
    data); it controls the spline residual budget and, for ``auto``, the
    choice between the clean and noisy routes.
    """
    f = np.asarray(values, dtype=float)
    if mode in ("auto", "chebfit"):
        return _cheb_stack(f, dt, orders, max_degree, noise_sigma)
    if mode == "savgol":
        return _savgol_stack(f, dt, orders, window, polyorder)
    if mode == "spline":
        return _spline_stack(f, dt, orders, noise_sigma)
    raise ValueError(f"unknown derivative mode {mode!r}")


def _cheb_stack(f, dt, orders, max_degree, noise_sigma=0.0):
    # The fit reproduces any smooth content of the samples, including the
    # smooth discretization error of a synthesized series, so pushing the
    # residual toward machine precision buys nothing while the endpoint
    # error of high-degree derivatives grows.  Pick the smallest degree
    # that (a) resolves the series down to the residual target -- a tight
    # relative level for clean data, the noise level for noisy data -- and
    # (b) sits at the onset of the residual plateau; beyond that point
    # extra degrees only chase roundoff or noise.
    n = f.shape[0]
    t = np.arange(n) * dt
    cap = max_degree if max_degree is not None else min(max(12, n // 4), 48)
    scale = np.max(np.abs(f))
    if scale == 0.0:
        return np.zeros((orders + 1, n))
    target = max(1.05 * noise_sigma, 1e-9 * scale)
    fits, resids = [], []
    for deg in range(4, cap + 1, 2):
        fit = chebyshev.Chebyshev.fit(t, f, deg)
        fits.append(fit)
        resids.append(np.sqrt(np.mean((fit(t) - f) ** 2)))
    fit = fits[-1]
    for i in range(len(fits) - 1):
        tight = resids[i] <= target
        plateau = resids[i] < 10.0 * max(resids[i + 1], 1e-300)
        if tight and plateau:
            fit = fits[i]
            break
    out = np.empty((orders + 1, n))
    out[0] = f
    for m in range(1, orders + 1):
        fit = fit.deriv(1)
        out[m] = fit(t)
    return out


def _savgol_stack(f, dt, orders, window, polyorder):
    n = f.shape[0]
    window = min(window if window % 2 == 1 else window + 1, n if n % 2 == 1 else n - 1)
    polyorder = min(polyorder, window - 1)
    if polyorder <= orders:
        raise ValueError("polyorder must exceed the requested derivative order")
    out = np.empty((orders + 1, n))
    out[0] = f
    for m in range(1, orders + 1):
        out[m] = savgol_filter(f, window, polyorder, deriv=m, delta=dt, mode="interp")
    return out


def _spline_stack(f, dt, orders, noise_sigma):
    n = f.shape[0]
    t = np.arange(n) * dt
    sigma = noise_sigma if noise_sigma > 0 else 1e-12 * max(np.max(np.abs(f)), 1.0)
    spl = UnivariateSpline(t, f, k=5, s=n * sigma**2)
    out = np.empty((orders + 1, n))
    out[0] = f
    for m in range(1, orders + 1):
        out[m] = spl.derivative(m)(t)
    return out
