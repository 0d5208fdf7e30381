import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_problem
from memkernel.direct import solve_direct
from memkernel.energy import solution_norm
from memkernel.equivalence import build_setup
from memkernel.errors import CompatibilityFailed, NoConvergence
from memkernel.expressions import parse
from memkernel.inverse import (
    InverseOptions,
    IterState,
    apply_map_A,
    reconstruct,
    solve_window,
    state_distance,
    _solved_history,
    _window_data,
    _window_memory,
)
from memkernel.timeconv import Kernel, conv, conv_field, convolution_matrix, l2_time_norm
from verify import transform_to_v

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


@settings(max_examples=60, deadline=None)
@example(W=1, extra=0, width=1, seed=0)
@example(W=1, extra=5, width=2, seed=1)
@example(W=40, extra=0, width=3, seed=2)
@given(W=st.integers(1, 60), extra=st.integers(0, 60), width=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_window_memory_is_a_slice_of_the_global_convolution(W, extra, width, seed):
    # random series and fields on the whole span; the window at n0 >= W
    # sees nodes 0..n0 as solved history and its own nodes n0..n0+W as
    # iterates, and must reproduce rows n0..n0+W of the global conv and
    # conv_field.  The split sums round differently from the global ones,
    # so the bound is relative to |M| @ |g|, M the convolution matrix.
    rng = np.random.default_rng(seed)
    n0 = W + extra
    n = n0 + W + 1
    dt = rng.uniform(1e-3, 1.0)
    glob = {name: rng.standard_normal(n) for name in ("k", "kp", "proj", "gfun")}
    glob["vxx"] = rng.standard_normal((n, width))
    head, tails = _solved_history(glob, n0, W, dt)
    rows = slice(n0, n)
    for conv_fn, a, b in ((conv, "kp", "proj"), (conv, "kp", "gfun"),
                          (conv_field, "k", "vxx")):
        mem = _window_memory(conv_fn, glob[a][rows], glob[b][rows], a, b, head, tails, dt)
        ref = conv_fn(glob[a], glob[b], dt)[rows]
        scale = np.max((np.abs(convolution_matrix(glob[a], dt)) @ np.abs(glob[b]))[rows])
        assert mem.shape == ref.shape
        assert np.max(np.abs(mem - ref)) <= 1e-13 * scale


def test_map_zero_data_returns_zero_state():
    pd = twin_problem(u0="0*x", u1="0*x")
    setup = build_setup(pd, parse("0*t", "t"))
    W = 40
    win = _window_data(pd, setup, 0, W)
    z = np.zeros(W + 1)
    state = IterState(v=np.zeros((W + 1, pd.grid.nx + 2)), kprime=z.copy(),
                      yccc=z.copy())
    out = apply_map_A(state, win, setup, pd)
    assert np.allclose(out.v, 0.0)
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
    state = IterState(v=v_true, kprime=np.zeros(W + 1), yccc=np.zeros(W + 1))
    out = apply_map_A(state, win, setup, pd)
    assert l2_time_norm(out.kprime, pd.grid.dt) <= 0.05
    assert np.max(np.abs(out.v - v_true)) <= 0.01 * np.max(np.abs(v_true))


def test_map_contracts_between_nearby_states():
    pd = twin_problem(nx=80, nt=160)
    f, _ = twin_measurement(pd, "0.4*cos(2*t)")
    setup = build_setup(pd, f)
    W = 40  # short window: strong contraction
    win = _window_data(pd, setup, 0, W)
    from memkernel.inverse import _initial_state

    base = _initial_state(win, setup, pd)
    s1 = apply_map_A(base, win, setup, pd)
    rng = np.random.default_rng(5)
    pert_v = np.zeros_like(s1.v)
    pert_v[2:, 1:-1] = 1e-4 * rng.standard_normal(pert_v[2:, 1:-1].shape)
    s2 = IterState(
        v=s1.v + pert_v,
        kprime=s1.kprime + 1e-4 * np.sin(np.linspace(0, 2, W + 1)),
        yccc=s1.yccc.copy(),
    )
    num = state_distance(
        apply_map_A(s1, win, setup, pd), apply_map_A(s2, win, setup, pd),
        win.pd_w.grid,
    )
    den = state_distance(s1, s2, win.pd_w.grid)
    assert num < den  # one application brings the states closer


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


def test_window_stops_when_contraction_ends(monkeypatch):
    """A window ends once the distance stops halving on the roundoff floor:
    at most two map calls per window go beyond its contraction record.
    (The budget exit that halves an oversized window is pinned by
    acceptance criterion 6.)"""
    import memkernel.inverse as inverse

    pd = twin_problem(nx=100, nt=200)
    f, _ = twin_measurement(pd, "0.4*cos(2*t)")
    calls = 0
    real_map = inverse.apply_map_A

    def counting_map(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real_map(*args, **kwargs)

    monkeypatch.setattr(inverse, "apply_map_A", counting_map)
    rec = reconstruct(pd, f, InverseOptions(window_steps=50))
    assert calls <= sum(w.iterations for w in rec.windows) + 2 * len(rec.windows)


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


@pytest.mark.parametrize(
    "bad", [{"window_steps": 0}, {"window_steps": -3}, {"noise_sigma": -0.01},
            {"tol": np.inf}, {"noise_sigma": np.inf}],
)
def test_inverse_options_reject_negative_values(bad):
    with pytest.raises(ValueError):
        InverseOptions(**bad)
    InverseOptions(window_steps=None, noise_sigma=0.0)  # the edges are fine
