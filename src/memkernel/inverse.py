"""Kernel reconstruction by fixed-point iteration with window continuation.

One window solves the homogeneous reformulation on [T0, T0 + tau_w] as the
fixed point of a map A acting on pairs (v, k'):

1. the kernel rate is updated from the fourth measurement derivative and
   sensor projections of the current field iterate,
2. the rate integrates to the kernel (anchored at the window's seam value),
3. the third derivative of the boundary displacement follows from the
   sensor functionals of the field,
4. its prefix integral and the oscillator constants give the transported
   source z'' x/ell,
5. the field is re-solved from the linear Dirichlet problem driven by the
   updated kernel, the memory of the field iterate, and that source.

Picard iteration of A contracts for short enough windows; the solved span
then shifts forward.  A window is a row slice of the one global problem.
Its Dirichlet march continues the global one from the two solved levels
n0-1 and n0; only the first window takes the Taylor start.  Its memory
terms are rows n0..n0+W of the global trapezoid convolutions.
Each series splits into its solved history (zero past the seam node n0)
and the window's increment (zero at the seam).  What reads only the solved
span is built once per window attempt (``_solved_history``): the history x
history tails and the convolution matrices of the heads of k, k' and the
two sensor series.  A Picard step takes the two sensor series as one
(W+1, 2) block and forms k' and y''' as the two columns of a second block.
On the first window it takes the block's time derivative and its memory
against the k' iterate, with the window's measurement columns f'/psi(ell)
and f''/psi(ell).  On a later window the split leaves no increment x
increment term, so the map is affine in its iterate with a linear part
fixed for the attempt.  The window's rate operator holds the time
derivative, k0 and the k' head's memory of the series' increment, and a
constant block holds f'''', the measurement columns and the tails; the
step is that operator times the series block plus the series heads times
the k' increment, with no time derivative and no convolution of its own.
One prefix integral from the seam values of k and y'' gives [k, y''], and
with z'' written into its second column, that block times fixed modal rows
is the march forcing.  The field memory convolves the kernel's increment
with the v_xx head through ``timeconv.conv_field``, which builds no whole
convolution matrix.  The solved span keeps v, k', y''' and the two sensor
series of v; k, y'' and v_xx are derived where they are read.  The map
takes its sensor rates as time derivatives of those series, so it forms
no time derivative of a field.

The iterate's field is held as sine coefficients of its rows, row 0 being
the projected seam row.  In that basis the map does no transform: the
sensor series are one product with two fixed modal vectors (the one-sided
v_xx end values included), v_xx is -mu times the coefficients, the memory
term convolves those, the forcing is assembled from projected profiles and
the Dirichlet march is its three-level recurrence.  The march reads its
forcing scaled by its gain, and every piece comes scaled: the forcing rows,
the v_xx modes of the iterate and of the seam row, and a later window's
projected v_xx head and tail, so no call scales the forcing itself.  The
iteration metric is ``energy.modal_solution_norm``, a diagonal-plus-rank-6
form per row summed over slabs of rows; the difference of two iterates is
formed one slab at a time.  Only the seam row, which may have nonzero
ends, is read in physical space, once per window, and the physical field
is formed once per accepted window.  Each accepted window records a norm
track.  On window 0, whose seam row may have nonzero ends, it is
``solution_norm`` of the physical rows; on later windows, whose rows all
vanish at both ends, it is the iteration metric of the accepted iterate,
which equals that to roundoff.

Without a fixed ``window_steps`` the widths are chosen for cost.  On this
Volterra system the Picard distances follow d_n = d_(n-1) c / n, with c
proportional to the window width, so the map calls per window grow faster
than its width.  The first attempt is min(nt, FIRST_WINDOW_STEPS) wide, so
that fitting c costs no O(nt^2) work; the candidate widths are the
half-octave ladder down from nt.  The third map call of an attempt fits c;
the attempt is abandoned for a window of half its width or less when that
is predicted to cost fewer map calls per solved step, and each accepted
window sizes the next one from its own fit, up to n0 + W; a remainder of
at most half that width joins the window when the sum stays within n0.
An attempt that diverges or runs out of ``max_iter`` is halved and
retried, until half its width is below MIN_WINDOW_STEPS; as every retry at
least halves it, retries are bounded.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from .direct import (_dirichlet_coefficients, _dirichlet_seed, _march_modes,
                     profiles, solve_linear_dirichlet)
from .energy import modal_solution_norm, solution_norm
from .equivalence import (EquivSetup, build_setup, check_compatibility,
                          sensor_functional, sensor_moment)
from .errors import CompatibilityFailed, NoConvergence, NonFinite
from .grids import _end_stencil_modes, _sine_modes, quad_trapz, second_diff
from .timeconv import (Kernel, conv, conv_field, convolution_matrix, integrate_prefix,
                       l2_time_norm, lag_block, time_derivative)

__all__ = [
    "InverseOptions",
    "IterState",
    "WindowData",
    "WindowDiagnostics",
    "Reconstruction",
    "state_distance",
    "apply_map_A",
    "solve_window",
    "reconstruct",
]

MIN_WINDOW_STEPS = 8
# Width of an adaptive run's first attempt when nt is larger.  That attempt
# only fits c for the cost model, and at the full horizon its three map
# calls cost O(nt^2 nx) in the field memory; later widths still grow to n0 + W.
FIRST_WINDOW_STEPS = 512


@dataclass(frozen=True)
class InverseOptions:
    """Knobs of the reconstruction; defaults follow the build contract."""

    tol: float = 1e-10
    max_iter: int = 50
    window_steps: int | None = None  # None: chosen for cost, from min(nt, FIRST_WINDOW_STEPS)
    vt_sign: float = +1.0  # sign of the velocity-projection term; see README
    noise_sigma: float = 0.0
    force: bool = False
    initial_kprime: float = 0.0  # alternative Picard start, for uniqueness checks

    def __post_init__(self):
        for name in ("max_iter", "window_steps"):
            count = getattr(self, name)
            try:  # a float count would be truncated, and a bool read as 0 or 1
                ok = not isinstance(count, bool) and operator.index(count) >= 1
            except TypeError:
                ok = count is None and name == "window_steps"  # None: chosen for cost
            if not ok:
                raise ValueError(f"{name} must be an integer of at least 1")
        if not 0 < self.tol < np.inf:
            raise ValueError("tol must be finite and positive")
        if not 0 <= self.noise_sigma < np.inf:
            raise ValueError("noise_sigma must be finite and non-negative")
        if self.vt_sign not in (1.0, -1.0):
            raise ValueError("vt_sign must be +1 or -1")
        if not np.isfinite(self.initial_kprime):
            raise ValueError("initial_kprime must be finite")


@dataclass
class IterState:
    """One Picard iterate on a window: field, kernel rate, and oscillator."""

    vhat: np.ndarray  # (W+1, nx) sine coefficients; row 0 is the seam row's
    kprime: np.ndarray  # (W+1,)
    yccc: np.ndarray  # third displacement derivative on the window


@dataclass
class WindowData:
    """Frozen inputs of one window: seams, measurement slices, solved history.

    The march continues the global one from ``u_before`` and ``u_tau``, the
    solved levels n0-1 and n0; window 0 has no ``u_before`` and takes the
    Taylor start from the initial velocity.  ``seed`` is that start in sine
    modes (``direct._dirichlet_seed``).  ``seam`` holds k and y'' at node
    n0, from which the map integrates its [k', y'''] block, and ``fpsi``
    the measurement columns f'/psi(ell) and f''/psi(ell) that its sensor
    series and their rates take; both are read-only.  The seam row may have
    nonzero ends, so its two sensor series values ``row0`` and its v_xx
    modes ``vxx0`` (scaled by the march gain) are taken on the physical
    row.  ``vt_sign`` is the sign of the velocity-projection term that the
    map runs on this window.  ``hist`` holds the operators of the solved
    span, built once per window attempt and read-only.  ``rate_op`` is the
    rate operator (``_rate_operator``): for each sensor series the time
    derivative (one-sided end rows included, times vt_sign for the phi'''
    projection) less k0 and less the k' head's memory of the series'
    increment, one (W+1)^2 matrix for both series at vt_sign +1 and one per
    series at -1.  ``rate_const`` holds, one series per row, the rates'
    terms that the iterate does not enter: f'''', the measurement columns
    with their k0 and k' head memory, and the series' tails.  ``series`` is
    the stacked matrix of the two sensor series' heads that takes the k'
    increment, ``k`` the kernel head's that takes the v_xx increment, and
    ``vxx``, ``vxx_tail`` are the v_xx head and tail in sine coefficients,
    scaled by the march gain (see ``_solved_history``).  ``seed_memory`` is
    that tail on the physical nodes, unscaled: the solved span's memory,
    which the Picard seed's march subtracts from its forcing.
    """

    pd_w: object  # ProblemData restricted to the window's time span
    start: int  # global index of the window's first node
    steps: int  # W: number of time steps in the window
    seam: np.ndarray  # (k, y'') at the seam node
    u_tau: np.ndarray
    u_before: np.ndarray | None
    f: np.ndarray  # (5, W+1) measurement derivative slices
    fpsi: np.ndarray  # (W+1, 2): f'/psi(ell), f''/psi(ell)
    modes: SimpleNamespace  # ``_map_modes``: the problem's, shared by every window
    seed: tuple
    row0: tuple  # (phi''' projection, linear part of G) of the seam row
    vxx0: np.ndarray
    vt_sign: float  # sign of the velocity-projection term
    # the solved span (present when start > 0); see ``_solved_history``
    hist: SimpleNamespace | None = None
    seed_memory: np.ndarray | None = None


@dataclass
class WindowDiagnostics:
    index: int
    start: int
    steps: int
    iterations: int  # map calls of the accepted attempt
    distances: tuple  # the contraction record: floor-wobble steps dropped
    halvings: int
    norm_track: float
    contraction: float  # c fitted on the accepted attempt; 0 on a shorter record
    retries: tuple  # per abandoned attempt: "cost", "budget" or "diverged"


@dataclass
class Reconstruction:
    """Assembled global solution of the inverse problem plus diagnostics."""

    kernel: Kernel
    v: np.ndarray
    y: np.ndarray
    yprime: np.ndarray
    y2: np.ndarray
    y3: np.ndarray
    windows: list
    report: object
    setup: EquivSetup


@lru_cache(maxsize=8)
def _map_modes(pd):
    """The fixed modal vectors of the map on ``pd``'s grid, read-only.

    ``sensor`` (2, nx): for a row with zero ends and coefficients w,
    ``sensor @ w`` is its phi''' projection (a_proj = dx S phi''') and the part
    of G linear in it: a_g is dx (-mu) (S psi) plus the trapezoid's halved
    end weights psi(0), psi(ell) on the one-sided v_xx end stencils, over
    psi(ell).  ``gain`` and ``c`` are the Dirichlet march's, ``S`` that of
    ``grids._sine_modes``.  The march reads its forcing scaled by the gain,
    and the two vectors that build that forcing carry it: ``forcing``
    (2, nx), whose ``[k, z''] @ forcing`` are the scaled modes of
    z'' x/ell - k u0'', its rows in the column order of ``apply_map_A``'s
    block, and ``neg_mu_gain``, -mu times the gain, which takes a row's
    coefficients to its scaled v_xx modes.
    """
    grid, prof, psi = pd.grid, profiles(pd), sensor_moment(pd)
    nx, dx = grid.nx, grid.dx
    S, mu, _ = _sine_modes(nx, dx, pd.beta)
    gain, c = _dirichlet_coefficients(pd)
    sd0, sdl = _end_stencil_modes(nx, dx)[2:]
    a_g = dx * (-mu) * (S @ psi[1:-1]) + 0.5 * dx * (psi[0] * sd0 + psi[-1] * sdl)
    sensor = np.stack([dx * (S @ prof.phippp[1:-1]), a_g / psi[-1]])
    forcing = gain * _project(np.stack([-prof.u0pp, grid.x / pd.ell]), S)
    return _read_only(SimpleNamespace(S=S, neg_mu_gain=-mu * gain, gain=gain, c=c,
                                      sensor=sensor, forcing=forcing))


def _read_only(arrays):
    """A namespace of arrays, each made read-only."""
    for a in vars(arrays).values():
        a.flags.writeable = False
    return arrays


def _project(rows, S):
    """Sine coefficients of the interior of physical rows."""
    return (2.0 / (S.shape[0] + 1)) * (rows[..., 1:-1] @ S)


def _state_norm(s, grid_w, minus=None):
    """Iteration metric of the iterate ``s``, or of ``s - minus``: the modal
    field in the H2-in-time surrogate plus the L2 time norm of the kernel
    rate.  The field difference is formed one slab at a time."""
    if minus is None:
        return modal_solution_norm(s.vhat, grid_w) + l2_time_norm(s.kprime, grid_w.dt)
    return (modal_solution_norm(s.vhat, grid_w, minus.vhat)
            + l2_time_norm(s.kprime - minus.kprime, grid_w.dt))


def state_distance(s1, s2, grid_w):
    """Iteration metric of the difference of two iterates.  Both share the
    seam row, so every row of the difference vanishes at both ends."""
    return _state_norm(s1, grid_w, s2)


def _field_memory(k, vxx, hist, dt):
    """Rows n0..n0+W of the global trapezoid convolution of k with v_xx;
    ``k`` and ``vxx`` are the window's iterates.  The first window (``hist``
    None) convolves them directly.  A later one splits each series into its
    solved history and its increment, the iterate past the seam row (see
    ``_solved_history``): the kernel's increment meets the v_xx head in the
    call's one ``conv_field``, the k head's matrix takes the v_xx increment,
    and the history x history tail is added."""
    if hist is None:
        return conv_field(k, vxx, dt)
    dk = k.copy()
    dk[0] = 0.0
    out = conv_field(dk, hist.vxx, dt)
    out += hist.k @ vxx[1:]
    out += hist.vxx_tail
    return out


def _sensor_series(vhat, win):
    """A modal iterate's two sensor series as a (W+1, 2) block: its phi'''
    projection and the part of the boundary functional G that is linear in
    it (G less f'/psi(ell)); row 0 holds the seam row's."""
    series = vhat @ win.modes.sensor.T
    series[0] = win.row0
    return series


def apply_map_A(state, win, setup, pd):
    """One application of the fixed-point map on a window, in sine modes.

    k' and y''' are the two columns of one (W+1, 2) block, made from the
    sensor-series block: on the first window from its time derivative and
    its memory, on a later one as the window's rate operator times the
    block, plus its constant rows and the series heads times the k'
    increment.  One prefix integral from the seam pair turns it into
    [k, y'']; its second column then becomes z'' = p y''' + q y'', and the
    block times the forcing rows is the march forcing."""
    dt, W, modes, hist = win.pd_w.grid.dt, win.steps, win.modes, win.hist

    vhat = state.vhat
    # the phi''' projection and G of v as one block
    series = _sensor_series(vhat, win)
    if hist is None:
        # k'/alpha = f'''' + vt_sign proj_t - k0 proj - mem_proj and
        # y''' + ghat_u0 k' = G_t - k0 G - mem_G, in place of the rates
        rates = time_derivative(series, dt)
        series[:, 1] += win.fpsi[:, 0]
        rates[:, 1] += win.fpsi[:, 1]
        mem = np.column_stack([conv(state.kprime, s, dt) for s in series.T])
        rates[:, 0] *= win.vt_sign
        series *= setup.k0
        rates -= series
        rates -= mem
        rates[:, 0] += win.f[4]
    else:
        # the same sums, affine in the iterate: series j meets rate_op[j], or
        # rate_op[0] for both series at vt_sign +1
        rates = np.matmul(hist.rate_op, series.T[:, :, None]).reshape(2, W + 1)
        rates += hist.rate_const
        rates -= (hist.series @ state.kprime[1:]).reshape(2, W + 1)
        rates = rates.T
    rates[:, 0] *= setup.alpha
    rates[:, 1] -= setup.ghat_u0 * rates[:, 0]
    kp_new, y3 = rates.T

    k_z2 = integrate_prefix(rates, win.seam, dt)  # [k, y''], then [k, z'']
    k_z2[:, 1] *= pd.q
    k_z2[:, 1] += pd.p * y3

    vxx = vhat * modes.neg_mu_gain
    vxx[0] = win.vxx0
    mem_field = _field_memory(k_z2[:, 0], vxx, hist, dt)
    # the march reads the forcing of levels 0..W-1, scaled by its gain as
    # the forcing rows and the v_xx modes are
    vhat_new = np.empty_like(vhat)
    vhat_new[0] = win.seed[0]
    h = vhat_new[1:]
    np.matmul(k_z2[:W], modes.forcing, out=h)
    h -= mem_field[:W]
    _march_modes(h, win.seed, modes.c)

    if not (np.isfinite(vhat_new).all() and np.isfinite(kp_new).all()):
        raise NonFinite("fixed-point map output")
    return IterState(vhat=vhat_new, kprime=kp_new, yccc=y3)


def _initial_state(win, setup, pd, kprime0=0.0):
    """Picard seed: constant kernel at the seam value, flat kernel rate.
    Its field is marched in physical space and projected."""
    prof = profiles(pd)
    W = win.steps
    kp = np.full(W + 1, kprime0)
    K = -win.seam[0] * np.outer(np.ones(W + 1), prof.u0pp)
    if win.seed_memory is not None:
        K -= win.seed_memory
    v = solve_linear_dirichlet(win.pd_w, win.u_tau, setup.v1row, K, win.u_before)
    vhat = _project(v, win.modes.S)
    vhat[0] = win.seed[0]
    return IterState(vhat=vhat, kprime=kp, yccc=np.zeros(W + 1))


FLOOR_TOL = 1e-6  # stagnation below this relative level counts as the floor
NORM_TRACK_BOUND = 10.0  # window-to-window norm growth that draws a warning
PROBE_CALL = 3  # the map call after which an adaptive attempt fits its profile

# Fixed cost of one map call, in rows of window: a call plus its distance
# takes about t0 + t1*W, and CALL_ROWS = t0/t1.  Per-call fits spread too
# widely to pick it (t0/t1 ~ 8..41 rows), so it was swept end to end:
# in-process reconstruct with one BLAS thread on a 2-vCPU x86-64 Linux VM,
# the bench grids at seeds 40..42, mean seconds of two runs of 4 and 8
# alternating reps.  No other value was faster on both grids in both runs:
#   CALL_ROWS            12           20           36           60
#   long_horizon   0.115/0.126  0.100/0.120  0.108/0.136  0.128/0.138
#   windows_T4     0.253/0.241  0.262/0.226  0.224/0.218  0.243/0.204
CALL_ROWS = 36


class _Narrow(Exception):
    """An adaptive attempt abandoned at the probe for a narrower window."""

    def __init__(self, steps):
        super().__init__(f"retry at {steps} steps")
        self.steps = steps


def _trim_floor_wobble(distances):
    """Cut the crawl along the roundoff floor off the contraction record.

    Geometric decay drops well below 4x the eventual minimum within one or
    two steps, whereas the floor wobble stays inside that band, so cutting
    at the first entry within the band keeps exactly the contraction phase.
    """
    floor = min(distances)
    cut = next(i for i, d in enumerate(distances) if d <= 4.0 * floor)
    return distances[: cut + 1]


def _contraction(distances):
    """The profile constant c = n d_n / d_(n-1) at n = PROBE_CALL, or 0 if
    the record is shorter or stalls at an exact zero."""
    if len(distances) < PROBE_CALL or distances[PROBE_CALL - 2] == 0:
        return 0.0
    return PROBE_CALL * distances[PROBE_CALL - 1] / distances[PROBE_CALL - 2]


def _predicted_calls(c, max_iter):
    """Map calls until the profile d_m = d_1 prod_{j=2..m} c/j falls to
    FLOOR_TOL * d_1; infinite if that takes more than ``max_iter``."""
    drop = 1.0
    for m in range(2, max_iter + 1):
        drop *= c / m
        if drop <= FLOOR_TOL:
            return m
    return np.inf


def _cheapest_width(kappa, ladder, cap, max_iter):
    """Of ``cap`` and the ``ladder`` rungs below it, the width of least map-call
    cost per solved step for c = kappa * width; the narrowest on a tie."""
    def cost(w):
        return _predicted_calls(kappa * w, max_iter) * (w + CALL_ROWS) / w

    widths = [cap] + [w for w in ladder if w < cap]
    return min(widths, key=lambda w: (cost(w), w))


def solve_window(win, setup, pd, tol=1e-10, max_iter=50, initial_kprime=0.0, ladder=()):
    """Iterate the map to its fixed point on one window.

    With scale = 1 + first-step distance, the window is accepted when the
    successive-iterate distance d falls to tol * scale, or when it is at or
    below the floor FLOOR_TOL * max(scale, s) and no longer halves
    (d > 0.5 * previous d); s is the norm of the first map output.  A
    metric of doubled difference stencils on physical fields amplifies
    roundoff in proportion to the iterate, so its geometric decay bottomed
    out on that floor above the tolerance; the modal metric decays to the
    tolerance, and the second clause remains a guard.  Returns the state
    and the distance of every map call; ``_trim_floor_wobble`` cuts any
    floor-noise steps off that record.  Raises ``NoConvergence`` if the
    iteration diverges or the budget runs out (the caller then halves the
    window).

    After the PROBE_CALL-th map call the fitted profile picks the cheapest
    of this window's width and the ``ladder`` rungs below it (none for a
    fixed width); if that is at most half this window, the attempt stops
    with ``_Narrow``.
    """
    grid_w = win.pd_w.grid
    state = _initial_state(win, setup, pd, initial_kprime)
    distances = []
    for it in range(1, max_iter + 1):
        new = apply_map_A(state, win, setup, pd)
        d = state_distance(new, state, grid_w)
        d_prev = distances[-1] if distances else np.inf
        distances.append(d)
        state = new
        if it == 1:
            scale = 1.0 + d
            floor = FLOOR_TOL * max(scale, _state_norm(new, grid_w))
        if not np.isfinite(d) or d > 1e4 * scale:
            raise NoConvergence(it, d / d_prev if it > 1 else np.inf,
                                window=win.start, reason="diverged")
        if d <= tol * scale or (d <= floor and d > 0.5 * d_prev):
            return state, distances
        if it == PROBE_CALL:
            steps = _cheapest_width(_contraction(distances) / win.steps, ladder,
                                    win.steps, max_iter)
            if 2 * steps <= win.steps:
                raise _Narrow(steps)
    ratio = distances[-1] / distances[-2] if len(distances) > 1 else np.inf
    raise NoConvergence(max_iter, ratio, window=win.start)


def _solved_history(glob, k, n0, W, dt, dx):
    """The memory operators of a window of W <= n0 steps at n0 > 0, built
    from the solved span given the kernel ``k`` over nodes 0..n0.

    Rows n0..n0+W of a global trapezoid convolution a * b split by each
    series into its history (zero past n0) and the window's increment (zero
    at the seam): history x history is the tail, and each increment meets
    the other series' head (nodes 0..W); increment x increment vanishes on
    these rows as W <= n0.  The convolution is symmetric, so a head acts on
    an increment's nodes 1..W as columns 1..W of its convolution matrix.
    Returns, as a namespace: ``k`` and ``kp``, those columns for the heads
    of k and k'; ``series``, those of the heads of ``proj`` and ``gfun``
    stacked so that ``(series @ dkp).reshape(2, W + 1)`` holds one series
    per row; ``series_tail``, the (W+1, 2) tails of both against k'; ``vxx``
    and ``vxx_tail``, the head of v's ``second_diff`` and the tail of
    k * v_xx.  Time convolution and spatial stencil act on different axes,
    so that tail is the ``second_diff`` of k * v's.  Every tail is one
    product with a lag block: rows n0..n0+W, columns 0..n0 of the
    convolution matrix of a history, zero past n0 (``timeconv.lag_block``),
    the block of k' taking both sensor series' histories at once.
    """
    hist = slice(0, n0 + 1)
    rows = (n0, n0 + W + 1, n0 + 1)
    series_hist = np.column_stack((glob["proj"][hist], glob["gfun"][hist]))
    heads = [convolution_matrix(glob[name][: W + 1], dt) for name in ("proj", "gfun")]
    return SimpleNamespace(
        k=convolution_matrix(k[: W + 1], dt)[:, 1:],
        kp=convolution_matrix(glob["kp"][: W + 1], dt)[:, 1:],
        series=np.concatenate(heads)[:, 1:],
        series_tail=lag_block(glob["kp"][hist], dt, *rows) @ series_hist,
        vxx=second_diff(glob["v"][: W + 1], dx),
        vxx_tail=second_diff(lag_block(k[hist], dt, *rows) @ glob["v"][hist], dx),
    )


def _rate_operator(kp, k0, dt, vt_sign):
    """A later window's rate operator, from ``kp``, the k' head's columns
    of ``_solved_history``: for a sensor series, the matrix that takes its
    window values to its time derivative (one-sided end rows included;
    times vt_sign for the phi''' projection), less k0 times the values and
    less the k' head's memory of their increment.  The leading axis holds
    one matrix per series, or at vt_sign +1 the one that serves both."""
    n = kp.shape[0]
    signs = (1.0,) if vt_sign > 0 else (vt_sign, 1.0)
    op = np.empty((len(signs), n, n))
    eye = np.eye(n)
    for m, sign in zip(op, signs):
        time_derivative(eye, dt, out=m)
        m *= sign
        m[:, 1:] -= kp
        m.flat[:: n + 1] -= k0
    return op


def _window_data(pd, setup, n0, W, glob=None, vt_sign=1.0):
    """Inputs of the window of W steps at node n0, reading its seams and the
    solved history from the solved span ``glob`` (unused when n0 == 0); the
    seam values of k and y'' integrate its k' and y''' over nodes 0..n0.
    ``vt_sign`` is the sign of the velocity-projection term that the map
    runs on this window.  The solved span's memory operators are built
    here, once and read-only: the rate operator for that sign with its
    constant rows, and the v_xx head and tail projected and scaled by the
    march gain; the physical tail is kept apart for the Picard seed."""
    grid = pd.grid
    dt, dx = grid.dt, grid.dx
    pd_w = replace(pd, T=W * dt, grid=grid.time_window(W))
    fslice = setup.f_derivs[:, n0 : n0 + W + 1]
    fpsi = fslice[1:3].T / setup.psi_ell
    modes, span = _map_modes(pd), {}
    if n0 == 0:
        seam, u_tau, u_before = (setup.k0, setup.y2prime0), setup.v0row, None
    else:
        hist = slice(0, n0 + 1)
        k = integrate_prefix(glob["kp"][hist], setup.k0, dt)
        y2 = integrate_prefix(glob["y3"][hist], setup.y2prime0, dt)
        ops = _solved_history(glob, k, n0, W, dt, dx)
        # the rates' terms that the iterate does not enter: f'''', the
        # measurement columns with their k0 and k' head memory, and the tails
        const = np.stack([fslice[4],
                          fpsi[:, 1] - setup.k0 * fpsi[:, 0] - ops.kp @ fpsi[1:, 0]])
        const -= ops.series_tail.T
        span = dict(hist=_read_only(SimpleNamespace(
            k=ops.k, series=ops.series,
            rate_op=_rate_operator(ops.kp, setup.k0, dt, vt_sign), rate_const=const,
            vxx=modes.gain * _project(ops.vxx, modes.S),
            vxx_tail=modes.gain * _project(ops.vxx_tail, modes.S),
        )), seed_memory=ops.vxx_tail)
        ops.vxx_tail.flags.writeable = False
        v = glob["v"]
        seam, u_tau, u_before = (k[n0], y2[n0]), v[n0], v[n0 - 1]
    seam = np.array(seam, dtype=float)
    for a in (seam, fpsi):
        a.flags.writeable = False
    vxx0 = second_diff(u_tau, dx)
    row0 = (float(quad_trapz(u_tau * profiles(pd).phippp, dx)),
            float(sensor_functional(setup, 0.0, vxx0, dx)))
    return WindowData(
        pd_w=pd_w, start=n0, steps=W, seam=seam,
        u_tau=u_tau, u_before=u_before, f=fslice, fpsi=fpsi, modes=modes,
        seed=_dirichlet_seed(pd_w, u_tau, setup.v1row, u_before), row0=row0,
        vxx0=modes.gain * _project(vxx0, modes.S), vt_sign=vt_sign, **span,
    )


def reconstruct(pd, f, options=InverseOptions()):
    """Recover the kernel (and the field/oscillator) from the measurement.

    Marches windows across [0, T]; each window is solved by Picard
    iteration and writes its rows into the solved span, from which the
    following windows read their seams and solved history.
    """
    setup = build_setup(pd, f, noise_sigma=options.noise_sigma)
    report = check_compatibility(setup, pd)
    if not report.passed and not options.force:
        raise CompatibilityFailed(report)

    grid = pd.grid
    nt, nx, dt = grid.nt, grid.nx, grid.dt

    glob = {name: np.zeros(nt + 1) for name in ("kp", "y3", "proj", "gfun")}
    glob["v"] = np.zeros((nt + 1, nx + 2))

    # an adaptive march starts at the full horizon, up to FIRST_WINDOW_STEPS
    adaptive = options.window_steps is None
    width = min(nt, FIRST_WINDOW_STEPS) if adaptive else options.window_steps
    width = int(np.clip(width, MIN_WINDOW_STEPS, nt))
    ladder = []  # half-octave widths down from nt, an adaptive window's candidates
    while adaptive and (w := round(nt * 2.0 ** (-len(ladder) / 2))) >= MIN_WINDOW_STEPS:
        ladder.append(w)
    windows = []
    n0 = 0
    prev_track = None
    while n0 < nt:
        W = min(width, nt - n0)
        rest = nt - n0 - W
        if adaptive and 2 * rest <= W and W + rest <= n0:
            W += rest  # fold a short tail into this window
        elif rest == 1:
            W -= 1  # a one-step tail has no time grid; leave two steps
        retries = []
        while True:
            win = _window_data(pd, setup, n0, W, glob, options.vt_sign)
            try:
                state, record = solve_window(
                    win, setup, pd, tol=options.tol, max_iter=options.max_iter,
                    initial_kprime=options.initial_kprime, ladder=ladder,
                )
                break
            except _Narrow as exc:
                W = exc.steps
                retries.append("cost")
            except NoConvergence as exc:
                if W // 2 < MIN_WINDOW_STEPS:
                    raise
                W //= 2
                retries.append(exc.reason)
        distances = _trim_floor_wobble(record)
        contraction = _contraction(distances)
        if adaptive:
            # W <= n0 keeps increment x increment off the window's rows
            width = _cheapest_width(contraction / W, ladder, n0 + W, options.max_iter)
        else:
            width = W  # never grow back: keeps every window within the solved span

        # write the rows the window solved; its seam belongs to the span
        # before, except on window 0, whose seam row is v0row verbatim
        new = slice(0 if n0 == 0 else 1, W + 1)
        rows = slice(n0 + new.start, n0 + W + 1)
        v_w = glob["v"][n0 : n0 + W + 1]
        np.matmul(state.vhat[1:], win.modes.S, out=v_w[1:, 1:-1])
        v_w[0] = win.u_tau
        series = _sensor_series(state.vhat, win)
        glob["proj"][rows] = series[new, 0]
        glob["gfun"][rows] = win.fpsi[new, 0] + series[new, 1]
        glob["kp"][rows] = state.kprime[new]
        glob["y3"][rows] = state.yccc[new]

        # a later window's rows vanish at both ends, so the iteration metric
        # measures them as solution_norm does; window 0's seam row may not
        if n0 == 0:
            track = solution_norm(v_w, win.pd_w.grid) + l2_time_norm(state.kprime, dt)
        else:
            track = _state_norm(state, win.pd_w.grid)
        if prev_track is not None and track > NORM_TRACK_BOUND * prev_track:
            warnings.warn(
                f"window norm grew from {prev_track:.3g} to {track:.3g}, "
                f"beyond the {NORM_TRACK_BOUND}x a-priori bound",
                stacklevel=2,
            )
        prev_track = track
        windows.append(
            WindowDiagnostics(
                index=len(windows), start=n0, steps=W,
                iterations=len(record), distances=tuple(distances),
                halvings=len(retries), norm_track=track,
                contraction=contraction, retries=tuple(retries),
            )
        )
        n0 += W
        # free this window's operators and iterate before the next window
        # builds its own, so that two windows' data are never held at once
        del win, state

    kernel = Kernel.from_kprime(glob["kp"], setup.k0, dt)
    y2 = integrate_prefix(glob["y3"], setup.y2prime0, dt)
    yprime = integrate_prefix(y2, setup.yprime0, dt)
    y = integrate_prefix(yprime, setup.y0, dt)
    return Reconstruction(
        kernel=kernel, v=glob["v"], y=y, yprime=yprime, y2=y2,
        y3=glob["y3"], windows=windows, report=report, setup=setup,
    )
