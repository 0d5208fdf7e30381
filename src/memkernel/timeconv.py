"""Trapezoid convolution quadrature and discrete time norms.

All series live on the shared uniform time grid ``t_n = n*dt``.  The
convolution (k * g)(t_n) uses the composite trapezoid rule in the lag
variable, with the value at t_0 forced to exactly zero (the continuous
convolution vanishes there and several initial-time identities rely on it).

A single series is convolved without a matrix: the first n terms of the
linear convolution less the two halved endpoint products, O(n) memory.  A
field is multiplied by the lower-triangular convolution matrix one block of
``ROW_BLOCK`` rows at a time, each block shared by all of the field's
columns and built by the helper that builds the whole matrix, so no call
holds more than ``ROW_BLOCK * n`` matrix entries.  That helper,
``lag_block``, builds any block of the matrix of a series taken as zero
past its length: the inverse iteration's window tails and the direct
march's history before each block of steps are single products with one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Kernel",
    "conv",
    "conv_field",
    "convolution_matrix",
    "integrate_prefix",
    "l2_time_norm",
    "lag_block",
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


# Rows per block of a convolution matrix that a field is multiplied by, of
# the slabs of the H2-in-time norm (``energy``), and steps per history block
# of the direct march.
ROW_BLOCK = 128


def lag_block(k, dt, r0, r1, cols):
    """Rows ``r0:r1``, columns ``0:cols`` of ``convolution_matrix(k, dt)``,
    k being zero past its length.

    Entry (i, j) is dt*k[i-j] for 0 <= i - j < len(k) and 0 otherwise, with
    column 0 and the diagonal halved and row 0 zero.  The m = r1 - r0 rows
    read the samples of lags r0 - cols + 1 .. r1 - 1, held once with zeros
    for the lags outside 0..len(k) - 1, with strides (+1, -1); scaling the
    samples rather than the entries gives the same bits, because the
    trapezoid halvings are exact.  Only the block itself is built.
    """
    m = r1 - r0
    lo = r0 - cols + 1  # the lag of the samples' first entry
    lags = np.zeros(m + cols - 1)
    a, b = max(lo, 0), min(r1, k.shape[0])
    if a < b:
        np.multiply(dt, k[a:b], out=lags[a - lo : b - lo])
    step = lags.strides[0]
    w = np.ndarray((m, cols), buffer=lags, offset=(cols - 1) * step,
                   strides=(step, -step)).copy()
    w[:, 0] *= 0.5
    w[: max(cols - r0, 0)].flat[r0 :: cols + 1] *= 0.5  # the diagonal
    if r0 == 0:
        w[0, 0] = 0.0
    return w


def convolution_matrix(k, dt):
    """Lower-triangular matrix W with (W @ g)[n] = trapezoid conv of k and g.

    Row n carries dt * k[n-m] for m = 0..n with the endpoint weights halved;
    row 0 is identically zero.
    """
    k = np.asarray(k, dtype=float)
    n = k.shape[0]
    return lag_block(k, dt, 0, n, n)


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
    """Convolution applied down each spatial column of a field.

    The convolution matrix is built and applied ``ROW_BLOCK`` rows at a
    time, so at most ``ROW_BLOCK * n`` of its entries are held at once.
    """
    k = np.asarray(k, dtype=float)
    field = np.asarray(field, dtype=float)
    if field.shape[0] != k.shape[0]:
        raise ValueError(
            f"field has {field.shape[0]} time levels, kernel has {k.shape[0]}"
        )
    n = k.shape[0]
    out = np.empty(field.shape)
    for r0 in range(0, n, ROW_BLOCK):
        r1 = min(r0 + ROW_BLOCK, n)
        np.matmul(lag_block(k, dt, r0, r1, r1), field[:r1], out=out[r0:r1])
    return out


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


def time_derivative(values, dt, out=None):
    """Second-order time derivative along axis 0 (centered, one-sided ends),
    written into ``out`` when given."""
    v = np.asarray(values, dtype=float)
    if out is None:
        out = np.empty_like(v)
    np.subtract(v[2:], v[:-2], out=out[1:-1])
    out[1:-1] /= 2.0 * dt
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * dt)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * dt)
    return out
