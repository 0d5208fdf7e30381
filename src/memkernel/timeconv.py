"""Trapezoid convolution quadrature and discrete time norms.

All series live on the shared uniform time grid ``t_n = n*dt``.  The
convolution (k * g)(t_n) uses the composite trapezoid rule in the lag
variable, with the value at t_0 forced to exactly zero (the continuous
convolution vanishes there and several initial-time identities rely on it).

A single series is convolved without a matrix: the first n terms of the
linear convolution less the two halved endpoint products, O(n) memory.  A
field is multiplied by the dense lower-triangular convolution matrix, whose
n^2 build is shared by all of its columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "Kernel",
    "conv",
    "conv_field",
    "convolution_matrix",
    "integrate_prefix",
    "l2_time_norm",
    "time_derivative",
]


@dataclass(frozen=True)
class Kernel:
    """Memory kernel sampled on the time grid, with its rate and k(0).

    ``k`` is always the trapezoid prefix integral of ``kprime`` shifted by
    ``k0``, so the three fields stay mutually consistent to roundoff.  Build
    instances through the classmethods.
    """

    k: np.ndarray
    kprime: np.ndarray
    k0: float
    dt: float

    def __post_init__(self):
        object.__setattr__(self, "k", np.asarray(self.k, dtype=float))
        object.__setattr__(self, "kprime", np.asarray(self.kprime, dtype=float))
        scale = 1.0 + np.max(np.abs(self.k))
        if abs(self.k[0] - self.k0) > 1e-12 * scale:
            raise ValueError("k[0] disagrees with k0")
        resid = np.max(np.abs(self.k - integrate_prefix(self.kprime, self.k0, self.dt)))
        if resid > 1e-12 * scale:
            raise ValueError("k is not the prefix integral of kprime")

    @classmethod
    def from_kprime(cls, kprime, k0, dt):
        kprime = np.asarray(kprime, dtype=float)
        return cls(integrate_prefix(kprime, k0, dt), kprime, float(k0), dt)

    @classmethod
    def from_expression(cls, expr, t):
        """Sample the rate exactly and integrate it back to the kernel.

        Integrating the sampled rate (rather than sampling the kernel
        itself) keeps the prefix-integral consistency exact; the O(dt^2)
        quadrature deviation from the ideal kernel sits below the scheme
        order everywhere it is used.
        """
        from .expressions import differentiate, sample

        t = np.asarray(t, dtype=float)
        kprime = sample(differentiate(expr), t)
        return cls.from_kprime(kprime, float(expr.eval(float(t[0]))), t[1] - t[0])

    @classmethod
    def zero(cls, nt, dt):
        return cls(np.zeros(nt + 1), np.zeros(nt + 1), 0.0, dt)


# Rows per block of the lower-triangular product in ``_lower_product``.
ROW_BLOCK = 128


def convolution_matrix(k, dt):
    """Lower-triangular matrix W with (W @ g)[n] = trapezoid conv of k and g.

    Row n carries dt * k[n-m] for m = 0..n with the endpoint weights halved;
    row 0 is identically zero.
    """
    k = np.asarray(k, dtype=float)
    n = k.shape[0]
    # row i of the reversed windows of (0, ..., 0, dt*k) is dt*k[i], ..., dt*k[0],
    # 0, ...; scaling the n samples rather than the n^2 entries gives the same
    # bits, because the halvings below are exact
    dtk = dt * k
    w = sliding_window_view(np.concatenate((np.zeros(n - 1), dtk)), n)[:, ::-1].copy()
    w[:, 0] *= 0.5
    w.flat[:: n + 1] *= 0.5  # the diagonal
    w[0, 0] = 0.0
    return w


def _lower_product(w, g):
    """``w @ g`` for lower-triangular ``w`` and a 2-D ``g``, skipping the
    zero upper triangle of ``w``; ``conv_field``'s product.

    Rows ``r0:r1`` need only the first ``r1`` columns of ``w`` and rows of
    ``g``; the slice ``w[r0:r1, :r1]`` has unit inner stride, so BLAS reads
    it in place.  Up to ``ROW_BLOCK`` rows this is the single full product.
    """
    n = w.shape[0]
    out = np.empty((n,) + g.shape[1:])
    for r0 in range(0, n, ROW_BLOCK):
        r1 = min(r0 + ROW_BLOCK, n)
        np.matmul(w[r0:r1, :r1], g[:r1], out=out[r0:r1])
    return out


def conv(k, g, dt):
    """Trapezoid convolution of two equal-length series; exact 0 at t_0.

    Row n of the linear convolution is sum_{m<=n} k[n-m] g[m]; the trapezoid
    rule halves its two endpoint terms k[n] g[0] and k[0] g[n].
    """
    k = np.asarray(k, dtype=float)
    g = np.asarray(g, dtype=float)
    if k.shape != g.shape:
        raise ValueError(f"length mismatch: {k.shape} vs {g.shape}")
    out = np.convolve(k, g)[: k.shape[0]]
    out -= 0.5 * (k * g[0] + k[0] * g)
    out *= dt
    out[0] = 0.0
    return out


def conv_field(k, field, dt):
    """Convolution applied down each spatial column of a field."""
    k = np.asarray(k, dtype=float)
    field = np.asarray(field, dtype=float)
    if field.shape[0] != k.shape[0]:
        raise ValueError(
            f"field has {field.shape[0]} time levels, kernel has {k.shape[0]}"
        )
    return _lower_product(convolution_matrix(k, dt), field)


def integrate_prefix(rate, start, dt):
    """Running trapezoid integral of ``rate`` along axis 0, shifted by ``start``."""
    rate = np.asarray(rate, dtype=float)
    out = np.empty_like(rate)
    out[0] = 0.0
    np.cumsum(0.5 * dt * (rate[1:] + rate[:-1]), axis=0, out=out[1:])
    return out + start


def l2_time_norm(series, dt):
    """sqrt of the trapezoid integral of series^2 over the sampled span."""
    s = np.asarray(series, dtype=float)
    sq = s * s
    return np.sqrt(dt * (sq.sum() - 0.5 * (sq[0] + sq[-1])))


def time_derivative(values, dt):
    """Second-order time derivative along axis 0 (centered, one-sided ends)."""
    v = np.asarray(values, dtype=float)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * dt)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * dt)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * dt)
    return out
