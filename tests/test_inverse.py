import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_problem
from memkernel.direct import profiles, solve_direct
from memkernel.energy import solution_norm
from memkernel.equivalence import build_setup, sensor_functional
from memkernel.errors import CompatibilityFailed, NoConvergence
from memkernel.expressions import parse
from memkernel.grids import Grid, _sine_matrix, quad_trapz, second_diff
from memkernel.inverse import (
    InverseOptions,
    IterState,
    apply_map_A,
    reconstruct,
    solve_window,
    state_distance,
    _field_memory,
    _initial_state,
    _project,
    _series_memory,
    _solved_history,
    _window_data,
)
from memkernel.timeconv import (Kernel, conv, conv_field, convolution_matrix,
                                integrate_prefix, l2_time_norm)
from verify import (reference_apply_map_A, reference_sensor_rates,
                    reference_solution_norm, reference_solved_history, transform_to_v)

PI = repr(np.pi)
TWIN_KW = dict(phi=f"sin({PI}*x)^3", u0=f"sin({2 * np.pi}*x)", u1="0*x")


def twin_problem(nx=100, nt=200, **kw):
    merged = {**TWIN_KW, **kw}
    return make_problem(nx=nx, nt=nt, **merged)


def twin_measurement(pd, kexpr):
    kern = Kernel.from_expression(parse(kexpr, "t"), pd.grid.t)
    return solve_direct(pd, kern).f, kern


def rel_kernel_error(rec, pd, kexpr):
    kt = parse(kexpr, "t").eval(pd.grid.t)
    return l2_time_norm(rec.kernel.k - kt, pd.grid.dt) / l2_time_norm(kt, pd.grid.dt)


def physical_field(vhat, win):
    """The field of a modal iterate: rows 1.. from their sine coefficients
    with zero ends, row 0 the window's physical seam row."""
    v = np.zeros((vhat.shape[0], vhat.shape[1] + 2))
    v[1:, 1:-1] = vhat[1:] @ _sine_matrix(vhat.shape[1])
    v[0] = win.u_tau
    return v


@settings(max_examples=60, deadline=None)
@example(W=1, extra=0, width=1, seed=0)
@example(W=1, extra=5, width=2, seed=1)
@example(W=40, extra=0, width=3, seed=2)
@example(W=8, extra=400, width=2, seed=3)  # a history over several ROW_BLOCKs
@example(W=60, extra=300, width=1, seed=4)  # n0 >> W, with a wide window
@given(W=st.integers(1, 60), extra=st.integers(0, 60), width=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_window_memory_is_a_slice_of_the_global_convolution(W, extra, width, seed):
    # random series and fields on the whole span; the window at n0 >= W
    # sees nodes 0..n0 as solved history and its own nodes n0..n0+W as
    # iterates, and its memory operators must reproduce rows n0..n0+W of the
    # global conv and of conv_field(k, second_diff(v)).  The split sums
    # round differently from the global ones, so the bound is relative to
    # |M| @ |g|, M the convolution matrix.
    rng = np.random.default_rng(seed)
    n0 = W + extra
    n = n0 + W + 1
    dt, dx = rng.uniform(1e-3, 1.0, 2)
    glob = {name: rng.standard_normal(n) for name in ("kp", "proj", "gfun")}
    glob["v"] = rng.standard_normal((n, width + 3))  # second_diff needs 4 nodes
    k = rng.standard_normal(n)
    hist = _solved_history(glob, k[: n0 + 1], n0, W, dt, dx)
    series = dict(glob, k=k, vxx=second_diff(glob["v"], dx))
    rows = slice(n0, n)
    block = np.column_stack((glob["proj"], glob["gfun"]))[rows]
    mem_proj, mem_g = _series_memory(glob["kp"][rows], block, hist, dt).T
    mem_field = _field_memory(k[rows], series["vxx"][rows], hist, dt)
    for mem, conv_fn, a, b in ((mem_proj, conv, "kp", "proj"), (mem_g, conv, "kp", "gfun"),
                               (mem_field, conv_field, "k", "vxx")):
        ref = conv_fn(series[a], series[b], dt)[rows]
        scale = np.max((np.abs(convolution_matrix(series[a], dt))
                        @ np.abs(series[b]))[rows])
        assert mem.shape == ref.shape
        assert np.max(np.abs(mem - ref)) <= 1e-13 * scale


@functools.lru_cache(maxsize=1)
def _rates_case():
    pd = twin_problem(nx=40, nt=80)
    return pd, build_setup(pd, twin_measurement(pd, "0.4*cos(2*t)")[0])


@settings(max_examples=40, deadline=None)
@example(rows=3, seed=0)
@given(rows=st.integers(3, 60), seed=st.integers(0, 2**32 - 1))
def test_map_rates_on_series_match_the_field_rates(rows, seed):
    # with a zero kernel-rate iterate the first window has no memory terms,
    # so the map's k' and y''' carry its sensor rates, which it takes as
    # time derivatives of series; the reference takes them on v_t and v_xxt.
    # Each output is a sum of stencil terms of v and the data; the bound is
    # 1e-12 of the largest sum of their absolute values
    pd, setup = _rates_case()
    prof = profiles(pd)
    dt, dx = pd.grid.dt, pd.grid.dx
    win = _window_data(pd, setup, 0, rows - 1)
    vhat = np.random.default_rng(seed).standard_normal((rows, pd.grid.nx))
    vhat[0] = win.seed[0]
    v = physical_field(vhat, win)
    zero = np.zeros(rows)
    out = apply_map_A(IterState(vhat=vhat, kprime=zero, yccc=zero), win, setup, pd)

    proj_vt, gp = reference_sensor_rates(setup, prof, win.f[2], v, dt, dx)
    proj_v = quad_trapz(v * prof.phippp, dx)
    g = sensor_functional(setup, win.f[1], second_diff(v, dx), dx)
    kp = setup.alpha * (win.f[4] + proj_vt - setup.k0 * proj_v)
    y3 = gp - out.kprime * setup.ghat_u0 - setup.k0 * g

    # time_derivative's absolute stencil terms sum to at most 8/(2 dt) times
    # the largest entry, second_diff's to 12/dx^2 times it
    vmax, f = np.max(np.abs(v)), np.max(np.abs(win.f), axis=1)
    abs_proj = vmax * quad_trapz(np.abs(prof.phippp), dx)
    abs_g = 12 / dx**2 * vmax * quad_trapz(np.abs(setup.psi_row), dx)
    kp_scale = abs(setup.alpha) * (f[4] + 4 / dt * abs_proj + abs(setup.k0) * abs_proj)
    y3_scale = ((f[2] + 4 / dt * abs_g + abs(setup.k0) * (f[1] + abs_g)) / abs(setup.psi_ell)
                + np.max(np.abs(out.kprime * setup.ghat_u0)))
    assert np.max(np.abs(out.kprime - kp)) <= 1e-12 * kp_scale
    assert np.max(np.abs(out.yccc - y3)) <= 1e-12 * y3_scale


def test_map_zero_data_returns_zero_state():
    pd = twin_problem(u0="0*x", u1="0*x")
    setup = build_setup(pd, parse("0*t", "t"))
    W = 40
    win = _window_data(pd, setup, 0, W)
    z = np.zeros(W + 1)
    state = IterState(vhat=np.zeros((W + 1, pd.grid.nx)), kprime=z.copy(),
                      yccc=z.copy())
    out = apply_map_A(state, win, setup, pd)
    assert np.allclose(out.vhat, 0.0)
    assert np.allclose(out.kprime, 0.0)
    assert np.allclose(out.yccc, 0.0)


def test_map_near_fixed_point_on_twin_truth():
    """Feeding the transformed exact solution moves the state only by
    discretization slack (zero-kernel data, so the kernel output is the
    method's bias, not signal)."""
    pd = twin_problem(nx=100, nt=200)
    kern = Kernel.zero(pd.grid.nt, pd.grid.dt)
    sol = solve_direct(pd, kern)
    setup = build_setup(pd, sol.f)
    v_true, _ = transform_to_v(pd, sol)
    W = pd.grid.nt
    win = _window_data(pd, setup, 0, W)
    # a modal iterate's rows vanish at both ends; v_true's ends are slack of
    # the centered u_t (up to 2.5e-3 here), lifted off linearly, which
    # leaves every second difference as it is
    x = pd.grid.x / pd.ell
    lift = np.outer(v_true[:, 0], 1.0 - x) + np.outer(v_true[:, -1], x)
    vhat = _project(v_true - lift, win.modes.S)
    vhat[0] = win.seed[0]
    state = IterState(vhat=vhat, kprime=np.zeros(W + 1), yccc=np.zeros(W + 1))
    out = apply_map_A(state, win, setup, pd)
    assert l2_time_norm(out.kprime, pd.grid.dt) <= 0.05
    v_out = physical_field(out.vhat, win)
    assert np.max(np.abs(v_out - v_true)) <= 0.01 * np.max(np.abs(v_true))


def test_map_contracts_between_nearby_states():
    pd = twin_problem(nx=80, nt=160)
    f, _ = twin_measurement(pd, "0.4*cos(2*t)")
    setup = build_setup(pd, f)
    W = 40  # short window: strong contraction
    win = _window_data(pd, setup, 0, W)
    base = _initial_state(win, setup, pd)
    s1 = apply_map_A(base, win, setup, pd)
    rng = np.random.default_rng(5)
    pert_v = np.zeros((W + 1, pd.grid.nx + 2))
    pert_v[2:, 1:-1] = 1e-4 * rng.standard_normal(pert_v[2:, 1:-1].shape)
    s2 = IterState(
        vhat=s1.vhat + _project(pert_v, win.modes.S),
        kprime=s1.kprime + 1e-4 * np.sin(np.linspace(0, 2, W + 1)),
        yccc=s1.yccc.copy(),
    )
    num = state_distance(
        apply_map_A(s1, win, setup, pd), apply_map_A(s2, win, setup, pd),
        win.pd_w.grid,
    )
    den = state_distance(s1, s2, win.pd_w.grid)
    assert num < den  # one application brings the states closer


def _iterate_pair(rows, nx, seed):
    rng = np.random.default_rng(seed)
    return [IterState(vhat=rng.standard_normal((rows, nx)), kprime=rng.standard_normal(rows),
                      yccc=np.zeros(rows)) for _ in range(2)]


@pytest.mark.parametrize("rows", [257, 300, 384])
def test_state_distance_is_the_norm_of_the_physical_difference(rows):
    # three slabs of rows: the metric of two iterates is the full-field
    # norm of their physical difference plus the L2 norm of the k' difference
    nx = 60
    grid = Grid(ell=1.0, T=1.3, nx=nx, nt=rows - 1)
    s1, s2 = _iterate_pair(rows, nx, rows)
    diff = np.zeros((rows, nx + 2))
    diff[:, 1:-1] = (s1.vhat - s2.vhat) @ _sine_matrix(nx)
    ref = reference_solution_norm(diff, grid) + l2_time_norm(s1.kprime - s2.kprime, grid.dt)
    assert abs(state_distance(s1, s2, grid) - ref) <= 1e-13 * ref


def test_state_distance_forms_no_field_sized_layer():
    rows, nx = 1201, 100
    grid = Grid(ell=1.0, T=1.0, nx=nx, nt=rows - 1)
    s1, s2 = _iterate_pair(rows, nx, 0)
    tracemalloc.start()
    try:
        state_distance(s1, s2, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < s1.vhat.nbytes


def test_window_zero_data_converges_immediately():
    pd = twin_problem(u0="0*x", u1="0*x")
    setup = build_setup(pd, parse("0*t", "t"))
    win = _window_data(pd, setup, 0, 40)
    state, distances = solve_window(win, setup, pd)
    assert len(distances) == 1
    assert distances[0] == 0.0
    assert np.allclose(state.kprime, 0.0)


def test_window_distance_sequence_contracts():
    pd = twin_problem(nx=100, nt=200)
    f, _ = twin_measurement(pd, "0.5*exp(-t)")
    setup = build_setup(pd, f)
    win = _window_data(pd, setup, 0, 50)
    state, distances = solve_window(win, setup, pd)
    ratios = [distances[i + 1] / distances[i] for i in range(len(distances) - 1)]
    assert all(r < 1.0 for r in ratios[-3:])
    assert distances[-1] < 1e-5 * distances[0]


def test_oversized_window_not_convergent_and_halving_recovers():
    # weakly paired sensor/data: the full-horizon window fails to contract,
    # the reconstruction recovers by halving
    pd = make_problem(nx=80, nt=160,
                      phi=f"sin({PI}*x)^3",
                      u0=f"sin({PI}*x)+0.01*sin({2 * np.pi}*x)", u1="0*x")
    f, kern = twin_measurement(pd, "0.4*cos(2*t)")
    setup = build_setup(pd, f)
    win = _window_data(pd, setup, 0, 160)
    with pytest.raises(NoConvergence):
        solve_window(win, setup, pd)
    rec = reconstruct(pd, f, InverseOptions(force=True))
    assert sum(w.halvings for w in rec.windows) >= 1
    assert max(w.steps for w in rec.windows) < 160
    assert rel_kernel_error(rec, pd, "0.4*cos(2*t)") < 0.2


def test_twin_cosine_kernel_accuracy_and_refinement():
    errs = []
    for nx, nt in ((100, 200), (200, 400)):
        pd = twin_problem(nx=nx, nt=nt)
        f, _ = twin_measurement(pd, "0.4*cos(2*t)")
        rec = reconstruct(pd, f)
        errs.append(rel_kernel_error(rec, pd, "0.4*cos(2*t)"))
    assert errs[1] <= 1e-2
    assert errs[0] / errs[1] >= 3.0


def test_twin_exponential_kernel():
    pd = twin_problem(nx=200, nt=400)
    f, _ = twin_measurement(pd, "0.5*exp(-t)")
    rec = reconstruct(pd, f)
    assert rel_kernel_error(rec, pd, "0.5*exp(-t)") <= 1e-2


def test_twin_windowed_march_matches_single_window():
    pd = twin_problem(nx=100, nt=200)
    f, _ = twin_measurement(pd, "0.4*cos(2*t)")
    rec_one = reconstruct(pd, f, InverseOptions(window_steps=pd.grid.nt))
    rec_win = reconstruct(pd, f, InverseOptions(window_steps=50))
    assert len(rec_one.windows) == 1 and len(rec_win.windows) == 4
    e1 = rel_kernel_error(rec_one, pd, "0.4*cos(2*t)")
    e4 = rel_kernel_error(rec_win, pd, "0.4*cos(2*t)")
    assert abs(e1 - e4) < 0.5 * max(e1, e4) + 1e-3


def test_windowed_kernel_does_not_depend_on_the_window_width():
    # later windows continue the global march from their two solved levels,
    # so the seams add no error of their own
    pd = twin_problem(nx=100, nt=200)
    f, _ = twin_measurement(pd, "0.4*cos(2*t)")
    k_one = reconstruct(pd, f, InverseOptions(window_steps=pd.grid.nt)).kernel.k
    rec_win = reconstruct(pd, f, InverseOptions(window_steps=50))
    assert len(rec_win.windows) == 4
    dt = pd.grid.dt
    assert l2_time_norm(rec_win.kernel.k - k_one, dt) <= 5e-5 * l2_time_norm(k_one, dt)


def _count_map_calls(monkeypatch):
    """Patch the map to count its calls per (start, steps) of the window."""
    import memkernel.inverse as inverse

    calls = {}
    real_map = inverse.apply_map_A

    def counting_map(state, win, *args, **kwargs):
        key = (win.start, win.steps)
        calls[key] = calls.get(key, 0) + 1
        return real_map(state, win, *args, **kwargs)

    monkeypatch.setattr(inverse, "apply_map_A", counting_map)
    return calls


def test_window_stops_when_contraction_ends(monkeypatch):
    """A window ends once the distance reaches the tolerance or stops
    halving on the roundoff floor: at most two map calls per window go
    beyond its contraction record.  (The budget exit that halves an
    oversized window is pinned by acceptance criterion 6.)"""
    pd = twin_problem(nx=100, nt=200)
    f, _ = twin_measurement(pd, "0.4*cos(2*t)")
    calls = _count_map_calls(monkeypatch)
    rec = reconstruct(pd, f, InverseOptions(window_steps=50))
    total = sum(calls.values())
    assert total <= sum(len(w.distances) for w in rec.windows) + 2 * len(rec.windows)


@pytest.mark.parametrize("options", [InverseOptions(window_steps=50),
                                     InverseOptions(tol=1e-14)])
def test_window_iterations_count_the_map_calls(monkeypatch, options):
    # the accepted attempt of each window is the only one at its
    # (start, steps); abandoned attempts of the adaptive run sit elsewhere.
    # At tol = 1e-14 the last window stops on the roundoff floor, so its
    # contraction record is shorter than its map calls
    pd = twin_problem(nx=100, nt=200)
    f, _ = twin_measurement(pd, "0.4*cos(2*t)")
    calls = _count_map_calls(monkeypatch)
    rec = reconstruct(pd, f, options)
    for w in rec.windows:
        assert calls[(w.start, w.steps)] == w.iterations
        assert len(w.distances) <= w.iterations
    if options.tol < 1e-10:
        assert any(len(w.distances) < w.iterations for w in rec.windows)


@functools.lru_cache(maxsize=1)
def _solved_twin():
    # a twin solved in 40-step windows, and its solved span as the window
    # loop keeps it
    pd = twin_problem(nx=40, nt=120)
    f, _ = twin_measurement(pd, "0.4*cos(2*t)")
    setup = build_setup(pd, f)
    rec = reconstruct(pd, f, InverseOptions(window_steps=40))
    prof, dx = profiles(pd), pd.grid.dx
    glob = dict(v=rec.v, kp=rec.kernel.kprime, y3=rec.y3,
                proj=quad_trapz(rec.v * prof.phippp, dx),
                gfun=sensor_functional(setup, setup.f_derivs[1], second_diff(rec.v, dx), dx))
    return pd, setup, glob


@pytest.mark.parametrize("n0, W", [(0, 40), (0, 120), (40, 40), (80, 30)])
def test_modal_map_matches_the_physical_map(n0, W):
    # the modal map against the physical one on a physical iterate: the
    # kernel rate, y3 and the back-transformed field, on the first window and
    # on later windows with solved history.  Both compute the same sums in
    # other orders (sensor series, memory, forcing in modes), so they agree to
    # roundoff relative to each output's size (observed at most 4.7e-13, on
    # y3 of the later windows, whose time derivative of G amplifies it).
    # Both signs of the velocity-projection term are pinned
    pd, setup, glob = _solved_twin()
    win = _window_data(pd, setup, n0, W, glob)
    history = (None, None)
    if n0 > 0:
        k = integrate_prefix(glob["kp"][: n0 + 1], setup.k0, pd.grid.dt)
        history = reference_solved_history(glob, k, n0, W, pd.grid.dt, pd.grid.dx)
    for vt_sign in (1.0, -1.0):
        state = apply_map_A(_initial_state(win, setup, pd, 0.3), win, setup, pd, vt_sign)
        for _ in range(2):  # two successive iterates, with nonzero kernel rates
            out = apply_map_A(state, win, setup, pd, vt_sign)
            v_ref, kp_ref, y3_ref = reference_apply_map_A(
                physical_field(state.vhat, win), state.kprime, win, setup, pd, history,
                vt_sign=vt_sign)
            for got, ref in ((physical_field(out.vhat, win), v_ref),
                             (out.kprime, kp_ref), (out.yccc, y3_ref)):
                assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
            state = out


def _weakly_paired_problem():
    # acceptance criterion 6's data: the full-horizon window cannot contract
    pd = make_problem(nx=80, nt=160, phi=f"sin({PI}*x)^3",
                      u0=f"sin({PI}*x)+0.01*sin({2 * np.pi}*x)", u1="0*x")
    f, _ = twin_measurement(pd, "0.4*cos(2*t)")
    return pd, f


def test_adaptive_width_retries_early_and_says_why(monkeypatch):
    """The probe abandons the oversized first attempt after its third map
    call, and every later window stays within the solved span."""
    import memkernel.inverse as inverse

    pd, f = _weakly_paired_problem()
    attempts = []  # (start, steps) of each map call's window
    real_map = inverse.apply_map_A

    def recording_map(state, win, *args, **kwargs):
        attempts.append((win.start, win.steps))
        return real_map(state, win, *args, **kwargs)

    monkeypatch.setattr(inverse, "apply_map_A", recording_map)
    rec = reconstruct(pd, f, InverseOptions(force=True))
    first = rec.windows[0]
    assert first.retries and first.retries[0] == "cost"
    assert first.halvings == len(first.retries)
    accepted = {(w.start, w.steps) for w in rec.windows}
    cost_retries = sum(w.retries.count("cost") for w in rec.windows)
    abandoned = [a for a in attempts if a not in accepted]
    assert cost_retries >= 1 and len(abandoned) <= 3 * cost_retries
    assert all(r in ("cost", "budget", "diverged") for w in rec.windows for r in w.retries)
    assert all(w.contraction > 0 for w in rec.windows)
    assert all(w.steps <= w.start for w in rec.windows[1:])


@pytest.mark.parametrize("nx, nt", [(40, 600), (200, 400)])
def test_first_adaptive_attempt_is_bounded(monkeypatch, nx, nt):
    # the first attempt only fits c: it is FIRST_WINDOW_STEPS wide when nt
    # is larger, nt wide otherwise (the README twin), and in both cases the
    # probe still narrows it
    import memkernel.inverse as inverse

    pd = twin_problem(nx=nx, nt=nt)
    f, _ = twin_measurement(pd, "0.4*cos(2*t)")
    attempts = []
    real_window_data = inverse._window_data

    def recording_window_data(pd, setup, n0, W, glob=None):
        attempts.append((n0, W))
        return real_window_data(pd, setup, n0, W, glob)

    monkeypatch.setattr(inverse, "_window_data", recording_window_data)
    rec = reconstruct(pd, f)
    assert attempts[0] == (0, min(nt, inverse.FIRST_WINDOW_STEPS))
    assert sum(w.halvings for w in rec.windows) >= 1


def test_adaptive_layout_does_not_depend_on_the_initial_iterate():
    # acceptance criterion 7's twin: the width choice must not sit on a tie
    # that the Picard start could tip
    pd = twin_problem(nx=60, nt=120)
    f, _ = twin_measurement(pd, "0.4*cos(2*t)")
    layouts = [
        [(w.start, w.steps) for w in reconstruct(
            pd, f, InverseOptions(tol=3e-9, initial_kprime=kp)).windows]
        for kp in (0.0, 0.5)
    ]
    assert layouts[0] == layouts[1]


def test_narrow_windows_on_a_fine_grid_reach_the_floor():
    # with a floor relative to 1 + d_1 alone, the narrow windows' small first
    # distances put the floor below roundoff, and this run stalled at node 275
    pd = twin_problem(nx=400, nt=800)
    f, _ = twin_measurement(pd, "0.4*cos(2*t)")
    rec = reconstruct(pd, f, InverseOptions(window_steps=50))
    assert [w.steps for w in rec.windows] == [50] * 16
    assert rel_kernel_error(rec, pd, "0.4*cos(2*t)") <= 1e-3


def test_adaptive_run_folds_a_short_tail():
    # a remainder of at most half the chosen width joins its window where
    # the widened window stays within the solved span; at the README grid
    # the last window otherwise takes 8 steps after a 50-step one
    pd = twin_problem(nx=200, nt=400)
    f, _ = twin_measurement(pd, "0.4*cos(2*t)")
    windows = reconstruct(pd, f).windows
    assert windows[-1].start + windows[-1].steps == pd.grid.nt
    prev, last = windows[-2:]
    assert 2 * last.steps > prev.steps or prev.steps + last.steps > prev.start
    assert all(w.steps <= w.start for w in windows[1:])


def test_final_window_never_leaves_a_one_step_tail():
    # 121 steps in 60-step windows would leave one step after the second
    # window, and a one-step window has no time grid; it stops a step short
    pd = twin_problem(nx=60, nt=121)
    f, _ = twin_measurement(pd, "0.4*cos(2*t)")
    rec = reconstruct(pd, f, InverseOptions(window_steps=60, force=True))
    assert [(w.start, w.steps) for w in rec.windows] == [(0, 60), (60, 59), (119, 2)]
    assert all(w.steps <= w.start for w in rec.windows[1:])
    assert np.all(np.isfinite(rec.kernel.k))


def test_window_seams_are_continuous():
    pd = twin_problem(nx=100, nt=200)
    f, _ = twin_measurement(pd, "0.4*cos(2*t)")
    rec = reconstruct(pd, f, InverseOptions(window_steps=50))
    kern = rec.kernel
    # the assembled kernel is one consistent prefix integral: no jumps
    jumps = np.abs(np.diff(kern.k))
    assert np.max(jumps) < 10.0 * pd.grid.dt * (1 + np.max(np.abs(kern.kprime)))


def test_zero_kernel_twin_zero_data_is_exact():
    pd = twin_problem(nx=200, nt=400, u0="0*x", u1="0*x")
    sol = solve_direct(pd, Kernel.zero(pd.grid.nt, pd.grid.dt))
    assert np.max(np.abs(sol.f)) == 0.0
    rec = reconstruct(pd, sol.f)
    assert l2_time_norm(rec.kernel.k, pd.grid.dt) <= 1e-6


def test_zero_kernel_twin_nonzero_data_small():
    pd = twin_problem(nx=100, nt=200)
    sol = solve_direct(pd, Kernel.zero(pd.grid.nt, pd.grid.dt))
    rec = reconstruct(pd, sol.f)
    assert l2_time_norm(rec.kernel.k, pd.grid.dt) <= 5e-3


def test_compatibility_gate_blocks_and_force_overrides():
    pd = twin_problem(nx=100, nt=200)
    f, _ = twin_measurement(pd, "0.4*cos(2*t)")
    bad = f + 0.5 * (1 + np.max(np.abs(f)))
    with pytest.raises(CompatibilityFailed):
        reconstruct(pd, bad)
    rec = reconstruct(pd, bad, InverseOptions(force=True))  # runs through
    assert np.all(np.isfinite(rec.kernel.k))


def test_velocity_projection_sign_variant_breaks_reconstruction():
    pd = twin_problem(nx=100, nt=200)
    f, _ = twin_measurement(pd, "0.4*cos(2*t)")
    good = rel_kernel_error(reconstruct(pd, f), pd, "0.4*cos(2*t)")
    try:
        bad = rel_kernel_error(
            reconstruct(pd, f, InverseOptions(vt_sign=-1.0)), pd, "0.4*cos(2*t)"
        )
        assert bad > 50.0 * good
    except NoConvergence:
        pass  # divergence is an equally clear demonstration


def test_fixed_point_residual_small_after_convergence():
    pd = twin_problem(nx=80, nt=160)
    f, _ = twin_measurement(pd, "0.4*cos(2*t)")
    setup = build_setup(pd, f)
    tol = 1e-9
    win = _window_data(pd, setup, 0, pd.grid.nt)
    state, distances = solve_window(win, setup, pd, tol=tol)
    again = apply_map_A(state, win, setup, pd)
    move = state_distance(again, state, win.pd_w.grid)
    assert move <= 2.0 * max(tol * (1 + distances[0]), distances[-1])


def test_reconstructions_from_different_starts_agree():
    pd = twin_problem(nx=60, nt=120)
    f, _ = twin_measurement(pd, "0.4*cos(2*t)")
    tol = 3e-9
    r1 = reconstruct(pd, f, InverseOptions(tol=tol))
    r2 = reconstruct(pd, f, InverseOptions(tol=tol, initial_kprime=0.5))
    d = solution_norm(r1.v - r2.v, pd.grid) + l2_time_norm(
        r1.kernel.kprime - r2.kernel.kprime, pd.grid.dt
    )
    assert d <= 10.0 * tol


def test_noisy_measurement_degrades_gracefully():
    pd = twin_problem(nx=200, nt=400)
    f, _ = twin_measurement(pd, "0.4*cos(2*t)")
    rng = np.random.default_rng(11)
    sigma = 1e-3 * np.max(np.abs(f))
    noisy = f + sigma * rng.standard_normal(f.shape)
    rec = reconstruct(pd, noisy, InverseOptions(noise_sigma=sigma, force=True))
    assert np.all(np.isfinite(rec.kernel.k))
    assert rel_kernel_error(rec, pd, "0.4*cos(2*t)") <= 1.0


def test_iter_state_invariants_hold():
    pd = twin_problem(nx=100, nt=200)
    f, _ = twin_measurement(pd, "0.4*cos(2*t)")
    rec = reconstruct(pd, f)
    assert np.allclose(rec.v[:, 0], 0.0)
    assert np.allclose(rec.v[:, -1], 0.0)
    assert np.allclose(rec.v[0], rec.setup.v0row)
    assert rec.kernel.k0 == rec.setup.k0


def test_norm_track_recorded():
    pd = twin_problem(nx=100, nt=200)
    f, _ = twin_measurement(pd, "0.4*cos(2*t)")
    rec = reconstruct(pd, f, InverseOptions(window_steps=50))
    tracks = [w.norm_track for w in rec.windows]
    assert all(np.isfinite(tr) and tr >= 0 for tr in tracks)
    assert max(tracks) <= 10.0 * min(tr for tr in tracks if tr > 0)


def test_norm_track_matches_the_physical_norm(monkeypatch):
    # after window 0 the track is the iteration metric of the accepted
    # iterate; it must equal solution_norm of the window's rows of v plus the
    # L2 norm of its k', the reference that window 0 still takes
    import memkernel.inverse as inverse

    pd = twin_problem(nx=100, nt=200)
    f, _ = twin_measurement(pd, "0.4*cos(2*t)")
    accepted = []  # the state of every solve_window that returned
    real_solve = inverse.solve_window

    def recording(*args, **kwargs):
        state, record = real_solve(*args, **kwargs)
        accepted.append(state)
        return state, record

    monkeypatch.setattr(inverse, "solve_window", recording)
    rec = reconstruct(pd, f, InverseOptions(window_steps=50))
    assert len(rec.windows) == len(accepted) == 4
    for w, state in zip(rec.windows, accepted):
        grid_w = pd.grid.time_window(w.steps)
        ref = (solution_norm(rec.v[w.start : w.start + w.steps + 1], grid_w)
               + l2_time_norm(state.kprime, grid_w.dt))
        assert abs(w.norm_track - ref) <= 1e-13 * ref


@pytest.mark.parametrize(
    "bad", [{"window_steps": 0}, {"window_steps": -3}, {"noise_sigma": -0.01},
            {"tol": np.inf}, {"noise_sigma": np.inf},
            # counts are integers: a float would be truncated, a bool read as 0 or 1
            {"max_iter": 10.5}, {"max_iter": 10.0}, {"max_iter": True}, {"max_iter": None},
            {"window_steps": 20.5}, {"window_steps": np.float64(20.0)},
            {"window_steps": True}, {"window_steps": np.True_}],
)
def test_inverse_options_reject_negative_values(bad):
    with pytest.raises(ValueError):
        InverseOptions(**bad)
    InverseOptions(window_steps=None, noise_sigma=0.0)  # the edges are fine
    InverseOptions(max_iter=np.int64(10), window_steps=np.int32(20))  # numpy integers count


@pytest.mark.parametrize(
    "bad", [{"initial_kprime": np.nan}, {"initial_kprime": -np.inf},
            {"vt_sign": np.inf}, {"vt_sign": np.nan}, {"vt_sign": 0.5}, {"vt_sign": 0.0}],
)
def test_inverse_options_reject_a_non_finite_start_and_a_non_unit_sign(bad):
    # a NaN start would surface only as NonFinite from inside the map
    with pytest.raises(ValueError, match="initial_kprime|vt_sign"):
        InverseOptions(**bad)
    InverseOptions(vt_sign=-1, initial_kprime=-0.5)  # either sign and any finite start


@pytest.mark.parametrize("n0, W", [(0, 40), (40, 40), (80, 30)])
def test_window_operators_are_read_only(n0, W):
    pd, setup, glob = _solved_twin()
    win = _window_data(pd, setup, n0, W, glob)
    cached = list(vars(win.modes).values()) + [win.fpsi, win.seam]
    if n0 > 0:
        cached += list(vars(win.hist).values()) + [win.seed_memory]
        assert set(vars(win.hist)) == {"k", "kp", "series", "series_tail", "vxx", "vxx_tail"}
    for arr in cached:
        with pytest.raises(ValueError):
            arr[0] = 1.0
