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
and the window's increment (zero at the seam).  The history x history part
is computed once per window; each Picard step convolves the increments
with the other series' history.

Without a fixed ``window_steps`` the widths are chosen for cost.  On this
Volterra system the Picard distances follow d_n = d_(n-1) c / n, with c
proportional to the window width, so the map calls per window grow faster
than its width.  The third map call of an attempt fits c; the attempt is
abandoned for a window of half its width or less when that is predicted
to cost fewer map calls per solved step, and each accepted window sizes
the next one from its own fit.  An attempt that diverges or runs out of
``max_iter`` is halved and retried, until half its width is below
MIN_WINDOW_STEPS; as every retry at least halves it, retries are bounded.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .direct import solve_linear_dirichlet, profiles
from .energy import solution_norm
from .equivalence import (
    EquivSetup,
    build_setup,
    check_compatibility,
    sensor_functional,
)
from .errors import CompatibilityFailed, NoConvergence, NonFinite
from .grids import quad_trapz, second_diff
from .timeconv import (
    Kernel,
    conv,
    conv_field,
    integrate_prefix,
    l2_time_norm,
    time_derivative,
)

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


@dataclass(frozen=True)
class InverseOptions:
    """Knobs of the reconstruction; defaults follow the build contract."""

    tol: float = 1e-10
    max_iter: int = 50
    window_steps: int | None = None  # None: widths chosen for cost, starting at nt
    vt_sign: float = +1.0  # sign of the velocity-projection term; see README
    noise_sigma: float = 0.0
    force: bool = False
    initial_kprime: float = 0.0  # alternative Picard start, for uniqueness checks

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not 0 < self.tol < np.inf:
            raise ValueError("tol must be finite and positive")
        if self.window_steps is not None and self.window_steps < 1:
            raise ValueError("window_steps must be at least 1")
        if not 0 <= self.noise_sigma < np.inf:
            raise ValueError("noise_sigma must be finite and non-negative")


@dataclass
class IterState:
    """One Picard iterate on a window: field, kernel rate, and oscillator."""

    v: np.ndarray  # (W+1, nx+2), zero at both space endpoints
    kprime: np.ndarray  # (W+1,)
    yccc: np.ndarray  # third displacement derivative on the window


@dataclass
class WindowData:
    """Frozen inputs of one window: seams, measurement slices, solved history.

    The march continues the global one from ``u_before`` and ``u_tau``, the
    solved levels n0-1 and n0; window 0 has no ``u_before`` and takes the
    Taylor start from the initial velocity.
    """

    pd_w: object  # ProblemData restricted to the window's time span
    start: int  # global index of the window's first node
    steps: int  # W: number of time steps in the window
    k_seam: float
    y2_seam: float
    u_tau: np.ndarray
    u_before: np.ndarray | None
    f: np.ndarray  # (5, W+1) measurement derivative slices
    # the solved span (present when start > 0); see ``_solved_history``
    head: dict | None = None
    tails: dict | None = None


@dataclass
class WindowDiagnostics:
    index: int
    start: int
    steps: int
    iterations: int
    distances: tuple
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


def _state_norm(state, grid_w):
    """Size of one iterate in the iteration metric."""
    return solution_norm(state.v, grid_w) + l2_time_norm(state.kprime, grid_w.dt)


def state_distance(s1, s2, grid_w):
    """Iteration metric: field difference in the H2-in-time surrogate plus
    the L2 time norm of the kernel-rate difference."""
    dv = solution_norm(s1.v - s2.v, grid_w)
    dk = l2_time_norm(s1.kprime - s2.kprime, grid_w.dt)
    return dv + dk


def _window_memory(conv_fn, a_w, b_w, a, b, head, tails, dt):
    """Rows n0..n0+W of the global trapezoid convolution (a * b).

    ``a_w``, ``b_w`` are the window's iterates of the series ``a``, ``b``.
    The first window (``tails`` None) convolves them directly.  Later ones
    add to the history x history part ``tails[b]`` each increment (the
    iterate with its seam entry zeroed) convolved with the other series'
    ``head``; increment x increment vanishes on these rows as W <= n0.
    """
    if tails is None:
        return conv_fn(a_w, b_w, dt)
    da, db = np.array(a_w, dtype=float), np.array(b_w, dtype=float)
    da[0] = db[0] = 0.0
    return conv_fn(da, head[b], dt) + conv_fn(head[a], db, dt) + tails[b]


def apply_map_A(state, win, setup, pd, vt_sign=1.0):
    """One application of the fixed-point map on a window."""
    grid_w = win.pd_w.grid
    dt, dx = grid_w.dt, grid_w.dx
    prof = profiles(pd)

    v, kp_old = state.v, state.kprime
    vxx = second_diff(v, dx)

    # v_t and vxx_t are not kept: fewer fields alive while conv_field holds
    # its n x n matrix lowers the peak memory of the iteration
    proj_v = quad_trapz(v * prof.phippp, dx)
    proj_vt = quad_trapz(time_derivative(v, dt) * prof.phippp, dx)

    hist = (win.head, win.tails, dt)  # the solved span, None on the first window
    mem_proj = _window_memory(conv, kp_old, proj_v, "kp", "proj", *hist)
    kp_new = setup.alpha * (
        win.f[4] + vt_sign * proj_vt - setup.k0 * proj_v - mem_proj
    )
    k_new = integrate_prefix(kp_new, win.k_seam, dt)

    g_of_v = sensor_functional(setup, win.f[1], vxx, dx)
    gp_of_v = sensor_functional(setup, win.f[2], time_derivative(vxx, dt), dx)
    mem_g = _window_memory(conv, kp_old, g_of_v, "kp", "gfun", *hist)
    y3 = gp_of_v - kp_new * setup.ghat_u0 - setup.k0 * g_of_v - mem_g
    y2 = integrate_prefix(y3, win.y2_seam, dt)
    z2 = pd.p * y3 + pd.q * y2

    mem_field = _window_memory(conv_field, k_new, vxx, "k", "vxx", *hist)
    K = -np.outer(k_new, prof.u0pp) - mem_field + np.outer(z2, grid_w.x / pd.ell)
    v_new = solve_linear_dirichlet(win.pd_w, win.u_tau, setup.v1row, K, win.u_before)

    if not (np.all(np.isfinite(v_new)) and np.all(np.isfinite(kp_new))):
        raise NonFinite("fixed-point map output")
    return IterState(v=v_new, kprime=kp_new, yccc=y3)


def _initial_state(win, setup, pd, kprime0=0.0):
    """Picard seed: constant kernel at the seam value, flat kernel rate."""
    grid_w = win.pd_w.grid
    prof = profiles(pd)
    W = win.steps
    kp = np.full(W + 1, kprime0)
    K = -win.k_seam * np.outer(np.ones(W + 1), prof.u0pp)
    if win.start > 0:
        K = K - win.tails["vxx"]
    v = solve_linear_dirichlet(win.pd_w, win.u_tau, setup.v1row, K, win.u_before)
    return IterState(v=v, kprime=kp, yccc=np.zeros(W + 1))


FLOOR_TOL = 1e-6  # stagnation below this relative level counts as the floor
NORM_TRACK_BOUND = 10.0  # window-to-window norm growth that draws a warning
PROBE_CALL = 3  # the map call after which an adaptive attempt fits its profile

# Fixed cost of one map call, in rows of window: a call plus its distance
# takes about t0 + t1*W, and CALL_ROWS = t0/t1.  Measured in-process with one
# BLAS thread on a 2-vCPU x86-64 Linux VM (Python 3.11, numpy 2.4), on later
# windows of the bench grids (nx = 100, 160, 200; W = 12..400):
# t ~ 0.75 ms + 17..24 us * W, so t0/t1 ~ 33..41 rows.  Single fits on that
# shared host spread from 15 to 88 rows; across that range the chosen widths
# change by up to 2x, while the modelled cost changes by at most 27%.
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


def solve_window(win, setup, pd, tol=1e-10, max_iter=50, vt_sign=1.0,
                 initial_kprime=0.0, ladder=()):
    """Iterate the map to its fixed point on one window.

    With scale = 1 + first-step distance, the window is accepted when the
    successive-iterate distance d falls to tol * scale, or when it is at or
    below the floor FLOOR_TOL * max(scale, s) and no longer halves
    (d > 0.5 * previous d); s is the norm of the first map output.  The
    metric contains doubled difference stencils, which amplify roundoff in
    proportion to the iterate, so the geometric decay can bottom out on
    that floor above the tolerance; the second clause stops there instead
    of crawling along it.  The floor-noise steps are dropped from the
    contraction record.  Raises ``NoConvergence`` if the iteration diverges
    or the budget runs out (the caller then halves the window).

    After the PROBE_CALL-th map call the fitted profile picks the cheapest
    of this window's width and the ``ladder`` rungs below it (none for a
    fixed width); if that is at most half this window, the attempt stops
    with ``_Narrow``.
    """
    grid_w = win.pd_w.grid
    state = _initial_state(win, setup, pd, initial_kprime)
    distances = []
    for it in range(1, max_iter + 1):
        new = apply_map_A(state, win, setup, pd, vt_sign)
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
            return state, _trim_floor_wobble(distances)
        if it == PROBE_CALL:
            steps = _cheapest_width(_contraction(distances) / win.steps, ladder,
                                    win.steps, max_iter)
            if 2 * steps <= win.steps:
                raise _Narrow(steps)
    ratio = distances[-1] / distances[-2] if len(distances) > 1 else np.inf
    raise NoConvergence(max_iter, ratio, window=win.start)


def _solved_history(glob, n0, W, dt):
    """What a window of W <= n0 steps at n0 > 0 needs of the solved span.

    ``head``: read-only views of the global series over nodes 0..W.
    ``tails``: rows n0..n0+W of the global convolution of each kernel's
    history (zero past n0) with the series' history, keyed by the series:
    ``proj`` and ``gfun`` against ``kp``, ``vxx`` against ``k``.  Only the
    (W+1) x (n0+1) block of the convolution matrix that these rows read is
    built for the field; row i of it is dt*k[n0-m+i] over columns m >= i,
    with the two endpoint weights of row 0 halved.
    """
    head = {name: arr[: W + 1] for name, arr in glob.items()}
    for view in head.values():
        view.flags.writeable = False
    hist = slice(0, n0 + 1)
    tails = {}
    for name in ("proj", "gfun"):
        kp, series = np.zeros(n0 + W + 1), np.zeros(n0 + W + 1)
        kp[hist], series[hist] = glob["kp"][hist], glob[name][hist]
        tails[name] = conv(kp, series, dt)[n0:]
    lags = np.concatenate((np.zeros(W), dt * glob["k"][n0::-1]))
    block = sliding_window_view(lags, n0 + 1)[::-1].copy()
    block[0, [0, n0]] *= 0.5
    tails["vxx"] = block @ glob["vxx"][hist]
    return head, tails


def _window_data(pd, setup, n0, W, glob=None):
    """Inputs of the window of W steps at node n0, reading its seams and the
    solved history from the global arrays ``glob`` (unused when n0 == 0)."""
    grid = pd.grid
    dt = grid.dt
    pd_w = replace(pd, T=W * dt, grid=grid.time_window(W))
    fslice = setup.f_derivs[:, n0 : n0 + W + 1]
    if n0 == 0:
        return WindowData(
            pd_w=pd_w, start=0, steps=W, k_seam=setup.k0,
            y2_seam=setup.y2prime0, u_tau=setup.v0row, u_before=None,
            f=fslice,
        )
    v = glob["v"]
    head, tails = _solved_history(glob, n0, W, dt)
    return WindowData(
        pd_w=pd_w, start=n0, steps=W, k_seam=float(glob["k"][n0]),
        y2_seam=float(glob["y2"][n0]), u_tau=v[n0], u_before=v[n0 - 1],
        f=fslice, head=head, tails=tails,
    )


def reconstruct(pd, f, options=InverseOptions()):
    """Recover the kernel (and the field/oscillator) from the measurement.

    Marches windows across [0, T]; each window is solved by Picard
    iteration and writes its rows into the global arrays, from which the
    following windows read their seams and solved history.
    """
    setup = build_setup(pd, f, noise_sigma=options.noise_sigma)
    report = check_compatibility(setup, pd)
    if not report.passed and not options.force:
        raise CompatibilityFailed(report)

    grid = pd.grid
    nt, nx, dt, dx = grid.nt, grid.nx, grid.dt, grid.dx
    prof = profiles(pd)

    glob = {name: np.zeros(nt + 1) for name in ("k", "kp", "y2", "y3", "proj", "gfun")}
    glob.update(v=np.zeros((nt + 1, nx + 2)), vxx=np.zeros((nt + 1, nx + 2)))

    # an adaptive march starts at the full horizon
    adaptive = options.window_steps is None
    width = nt if adaptive else options.window_steps
    width = int(np.clip(width, MIN_WINDOW_STEPS, nt))
    ladder = []  # half-octave widths down from nt, an adaptive window's candidates
    while adaptive and (w := round(nt * 2.0 ** (-len(ladder) / 2))) >= MIN_WINDOW_STEPS:
        ladder.append(w)
    windows = []
    n0 = 0
    prev_track = None
    while n0 < nt:
        W = min(width, nt - n0)
        if nt - n0 - W == 1:
            W -= 1  # a one-step tail has no time grid; leave two steps
        retries = []
        while True:
            win = _window_data(pd, setup, n0, W, glob)
            try:
                state, distances = solve_window(
                    win, setup, pd, tol=options.tol, max_iter=options.max_iter,
                    vt_sign=options.vt_sign, initial_kprime=options.initial_kprime,
                    ladder=ladder,
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
        contraction = _contraction(distances)
        if adaptive:
            # W <= n0 keeps increment x increment off the window's rows
            width = _cheapest_width(contraction / W, ladder, n0 + W, options.max_iter)
        else:
            width = W  # never grow back: keeps every window within the solved span

        # write the rows the window solved; its seam belongs to the span before
        new = slice(0 if n0 == 0 else 1, W + 1)
        rows = slice(n0 + new.start, n0 + W + 1)
        v = state.v[new]
        vxx = second_diff(v, dx)
        glob["v"][rows] = v
        glob["vxx"][rows] = vxx
        glob["proj"][rows] = quad_trapz(v * prof.phippp, dx)
        glob["gfun"][rows] = sensor_functional(setup, win.f[1][new], vxx, dx)
        glob["kp"][rows] = state.kprime[new]
        glob["y3"][rows] = state.yccc[new]
        solved = slice(0, n0 + W + 1)
        glob["k"][solved] = integrate_prefix(glob["kp"][solved], setup.k0, dt)
        glob["y2"][solved] = integrate_prefix(glob["y3"][solved], setup.y2prime0, dt)

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
                iterations=len(distances), distances=tuple(distances),
                halvings=len(retries), norm_track=track,
                contraction=contraction, retries=tuple(retries),
            )
        )
        n0 += W

    kernel = Kernel.from_kprime(glob["kp"], setup.k0, dt)
    yprime = integrate_prefix(glob["y2"], setup.yprime0, dt)
    y = integrate_prefix(yprime, setup.y0, dt)
    return Reconstruction(
        kernel=kernel, v=glob["v"], y=y, yprime=yprime, y2=glob["y2"],
        y3=glob["y3"], windows=windows, report=report, setup=setup,
    )
