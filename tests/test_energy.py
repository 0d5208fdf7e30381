import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_problem
from memkernel.direct import solve_linear_dirichlet
from memkernel.energy import energy_series, modal_solution_norm, solution_norm
from memkernel.grids import Grid, _sine_matrix, spatial_h2_norm
from verify import (
    CALIBRATED_BOUND,
    calibrate_constant,
    check_estimate,
    reference_energy_series,
    reference_solution_norm,
    reference_spatial_h2_norm,
)


def _calibration_problem():
    return make_problem(nx=80, nt=200, beta=0.1)


def test_zero_field_all_zero():
    pd = _calibration_problem()
    g = pd.grid
    track = energy_series(np.zeros((g.nt + 1, g.nx + 2)), pd.beta, g)
    for arr in (track.e1, track.e2, track.cum_vtt, track.cum_vxtt, track.cum_vxxtt):
        assert np.allclose(arr, 0.0)


def test_mode_energy_conserved():
    beta = 0.1
    pd = make_problem(nx=200, nt=800, beta=beta, T=1.0)
    g = pd.grid
    v0 = np.sin(np.pi * g.x / pd.ell)
    v = solve_linear_dirichlet(pd, v0, np.zeros(g.nx + 2), np.zeros((g.nt + 1, g.nx + 2)))
    track = energy_series(v, beta, g)
    inner = track.e1[2:-2]  # one-sided time stencils pollute the edge levels
    drift = np.max(np.abs(inner - inner[0]))
    assert drift <= 0.01 * inner[0]


def test_linear_in_time_field_has_zero_vtt():
    pd = _calibration_problem()
    g = pd.grid
    v = np.outer(g.t, np.sin(np.pi * g.x))
    track = energy_series(v, pd.beta, g)
    assert np.allclose(track.cum_vtt, 0.0, atol=1e-18)
    assert np.allclose(track.cum_vxxtt, 0.0, atol=1e-12)


def test_zero_data_margin_zero():
    pd = _calibration_problem()
    g = pd.grid
    zero_row = np.zeros(g.nx + 2)
    zero_K = np.zeros((g.nt + 1, g.nx + 2))
    v = np.zeros_like(zero_K)
    assert check_estimate(v, zero_row, zero_row, zero_K, pd.beta, g) == 0.0


def test_mode_case_margin_positive():
    pd = _calibration_problem()
    g = pd.grid
    v0 = np.sin(np.pi * g.x / pd.ell)
    zero_row = np.zeros(g.nx + 2)
    K = np.zeros((g.nt + 1, g.nx + 2))
    v = solve_linear_dirichlet(pd, v0, zero_row, K)
    assert check_estimate(v, v0, zero_row, K, pd.beta, g) >= 0.0


def test_calibration_suite_margins_nonnegative():
    pd = _calibration_problem()
    raw = calibrate_constant(20, seed=777, pd=pd, headroom=1.0)
    assert 1.2 * raw == pytest.approx(CALIBRATED_BOUND, rel=1e-12)
    assert raw < CALIBRATED_BOUND


def test_fresh_random_cases_margin_nonnegative():
    from verify import _random_case

    pd = _calibration_problem()
    rng = np.random.default_rng(777)
    for _ in range(20):
        v0, v1, K = _random_case(pd, rng)
        v = solve_linear_dirichlet(pd, v0, v1, K)
        assert check_estimate(v, v0, v1, K, pd.beta, pd.grid) >= 0.0


def test_forced_zero_data_margin_nonnegative():
    from verify import _random_case

    pd = _calibration_problem()
    rng = np.random.default_rng(31)
    zero_row = np.zeros(pd.grid.nx + 2)
    for _ in range(10):
        _, _, K = _random_case(pd, rng)
        v = solve_linear_dirichlet(pd, zero_row, zero_row, K)
        assert check_estimate(v, zero_row, zero_row, K, pd.beta, pd.grid) >= 0.0


def test_ratio_bounded_under_refinement():
    ratios = []
    for nx, nt in ((60, 150), (120, 300), (240, 600)):
        pd = make_problem(nx=nx, nt=nt, beta=0.1)
        ratios.append(calibrate_constant(5, seed=5, pd=pd, headroom=1.0))
    assert max(ratios) / min(ratios) < 1.1


@settings(max_examples=40, deadline=None)
@example(rows=3, nx=3, seed=0)
@example(rows=129, nx=40, seed=1)  # slabs of 128 rows and 1 row
@example(rows=130, nx=7, seed=2)
@example(rows=257, nx=100, seed=3)  # a one-row last slab after two full ones
@example(rows=801, nx=160, seed=4)
@given(rows=st.integers(3, 300), nx=st.integers(3, 200), seed=st.integers(0, 2**32 - 1))
def test_energy_series_is_the_full_field_track(rows, nx, seed):
    # the track is taken one slab of time rows at a time, but each entry is
    # the same stencil sum over the same row as in the full derivative
    # fields, so it must equal them bit for bit, at slab edges too
    rng = np.random.default_rng(seed)
    grid = Grid(ell=1.0, T=rng.uniform(0.1, 4.0), nx=nx, nt=rows - 1)
    v = rng.standard_normal((rows, nx + 2))
    beta = rng.uniform(0.0, 1.0)
    track, ref = energy_series(v, beta, grid), reference_energy_series(v, beta, grid)
    for name in ("e1", "e2", "cum_vtt", "cum_vxtt", "cum_vxxtt"):
        assert np.array_equal(getattr(track, name), getattr(ref, name)), name


def test_energy_series_forms_no_field_sized_layer():
    # a track built from the nine full derivative fields peaks near ten fields
    g = Grid(ell=1.0, T=1.0, nx=100, nt=3200)
    v = np.random.default_rng(0).standard_normal((g.nt + 1, g.nx + 2))
    tracemalloc.start()
    try:
        energy_series(v, 0.1, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < v.nbytes


def test_solution_norm_matches_hand_value():
    pd = _calibration_problem()
    g = pd.grid
    v = np.outer(np.ones(g.nt + 1), np.sin(np.pi * g.x))
    n = solution_norm(v, g)
    exact = np.sqrt(0.5 + np.pi**2 / 2 + np.pi**4 / 2)
    assert n == pytest.approx(exact, rel=2e-3)


def _smooth_field(rng, rows, nx, T):
    # smooth in x and t, with O(1) values, slopes and curvatures at both ends
    x, t = np.linspace(0.0, 1.0, nx + 2), np.linspace(0.0, T, rows)
    a = rng.uniform(-1.0, 1.0, (3, 6))
    return sum(np.outer(np.cos((m + 1) * t + a[m, 0]),
                        a[m, 1] + a[m, 2] * x + a[m, 3] * np.cos(3 * x + a[m, 4])
                        + np.exp(a[m, 5] * x))
               for m in range(3))


@settings(max_examples=60, deadline=None)
@example(rows=1201, nx=100, scale=1.0, seed=0, smooth=False)
@example(rows=101, nx=160, scale=1.0, seed=1, smooth=False)
@example(rows=401, nx=100, scale=1e-12, seed=2, smooth=False)
@example(rows=201, nx=100, scale=1.0, seed=3, smooth=True)
@example(rows=201, nx=400, scale=1.0, seed=1, smooth=True)
@given(rows=st.integers(3, 300), nx=st.integers(3, 200),
       scale=st.sampled_from((1.0, 1e-12)), seed=st.integers(0, 2**32 - 1),
       smooth=st.booleans())
def test_solution_norm_matches_full_field_reference(rows, nx, scale, seed, smooth):
    # rows = W + 1 time levels of a window; 1e-12 is the size of iterate
    # differences near the roundoff floor.  Both sides sum the squares of
    # the difference stencils; the library does it one slab of time rows at
    # a time, so the two may differ only in rounding, relative to the norm
    # itself.  Smooth rows with nonzero ends are where a measure through
    # sine coefficients loses digits to its lift of the end values.
    rng = np.random.default_rng(seed)
    grid = Grid(ell=1.0, T=rng.uniform(0.1, 4.0), nx=nx, nt=rows - 1)
    if smooth:
        v = scale * _smooth_field(rng, rows, nx, grid.T)
    else:
        v = scale * rng.standard_normal((rows, nx + 2))
    ref = reference_solution_norm(v, grid)
    assert abs(solution_norm(v, grid) - ref) <= 1e-13 * ref
    row_norm = spatial_h2_norm(v[0], grid.dx)
    row_ref = reference_spatial_h2_norm(v[0], grid.dx)
    assert np.ndim(row_norm) == 0
    assert abs(row_norm - row_ref) <= 1e-13 * row_ref


@settings(max_examples=40, deadline=None)
@example(rows=3, nx=3, seed=0)
@example(rows=801, nx=160, seed=1)
@example(rows=129, nx=40, seed=2)  # slabs of 128 rows and 1 row
@example(rows=130, nx=7, seed=3)
@example(rows=257, nx=100, seed=4)  # a one-row last slab after two full ones
@given(rows=st.integers(3, 300), nx=st.integers(3, 200), seed=st.integers(0, 2**32 - 1))
def test_modal_norm_is_the_norm_of_the_field(rows, nx, seed):
    # the iteration metric takes the norm of rows with zero ends from their
    # sine coefficients; it must be the full-field norm of those rows
    rng = np.random.default_rng(seed)
    grid = Grid(ell=1.0, T=rng.uniform(0.1, 4.0), nx=nx, nt=rows - 1)
    v = np.zeros((rows, nx + 2))
    v[:, 1:-1] = rng.standard_normal((rows, nx))
    v_hat = (2.0 / (nx + 1)) * (v[:, 1:-1] @ _sine_matrix(nx))
    ref = reference_solution_norm(v, grid)
    assert abs(modal_solution_norm(v_hat, grid) - ref) <= 1e-13 * ref
