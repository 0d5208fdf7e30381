import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev

from conftest import make_problem
from memkernel.derivatives import derivative_stack, derivative_stack_from_expression
from memkernel.direct import solve_direct
from memkernel.expressions import parse
from memkernel.timeconv import Kernel
from verify import reference_derivative_stack


def _clean_series(nt, T=1.0):
    t = np.linspace(0, T, nt + 1)
    f = 0.3 * np.cos(2.2 * t) + 0.1 * np.exp(-t) + 0.05 * t**3
    exact = np.array([
        f,
        -0.66 * np.sin(2.2 * t) - 0.1 * np.exp(-t) + 0.15 * t**2,
        -1.452 * np.cos(2.2 * t) + 0.1 * np.exp(-t) + 0.3 * t,
        3.1944 * np.sin(2.2 * t) - 0.1 * np.exp(-t) + 0.3,
        7.02768 * np.cos(2.2 * t) + 0.1 * np.exp(-t),
    ])
    return t, f, exact


def test_symbolic_stack_is_exact():
    e = parse("cos(2*t)*0.5", "t")
    t = np.linspace(0, 1, 33)
    stack = derivative_stack_from_expression(e, t)
    assert np.allclose(stack[0], 0.5 * np.cos(2 * t))
    assert np.allclose(stack[3], 4.0 * np.sin(2 * t))
    assert np.allclose(stack[4], 8.0 * np.cos(2 * t))


def test_clean_series_fourth_derivative():
    t, f, exact = _clean_series(400)
    dt = t[1] - t[0]
    stack = derivative_stack(f, dt)
    scale = np.max(np.abs(exact[4]))
    assert np.max(np.abs(stack[4] - exact[4])) <= 1e-6 * scale


def test_chebfit_resists_roundoff_scale_noise():
    t, f, exact = _clean_series(800)
    dt = t[1] - t[0]
    rng = np.random.default_rng(99)
    noisy = f + 1e-14 * rng.standard_normal(f.shape)
    stack = derivative_stack(noisy, dt)
    scale = np.max(np.abs(exact[4]))
    assert np.max(np.abs(stack[4] - exact[4])) <= 1e-5 * scale


def test_noise_aware_fit_tames_measurement_noise():
    t, f, exact = _clean_series(400)
    dt = t[1] - t[0]
    rng = np.random.default_rng(17)
    sigma = 1e-3 * np.max(np.abs(f))
    noisy = f + sigma * rng.standard_normal(f.shape)
    stack = derivative_stack(noisy, dt, noise_sigma=sigma)
    assert np.all(np.isfinite(stack))
    scale = np.max(np.abs(exact[4]))
    # heavily smoothed: only demand the right order of magnitude
    assert np.max(np.abs(stack[4] - exact[4])) <= 3.0 * scale


def test_zero_series_stays_zero():
    stack = derivative_stack(np.zeros(101), 0.01)
    assert np.allclose(stack, 0.0)


@settings(max_examples=60, deadline=None)
@example(n=3, kind="clean", seed=0)
@example(n=1500, kind="target", seed=1)
@example(n=1500, kind="noisy", seed=2)
@given(
    n=st.integers(3, 1500),
    kind=st.sampled_from(["clean", "target", "noisy"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_degree_search_matches_fitting_every_degree(n, kind, seed):
    # "target": clean samples fitted at a noise level; "noisy": samples
    # carrying that noise
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, rng.uniform(0.5, 4.0), n)
    amp, freq, phase = rng.uniform(-1.0, 1.0, (3, 3))
    f = np.cos(np.outer(t, 3.0 * freq) + np.pi * phase) @ amp + 0.05 * amp[0] * t**3
    sigma = 0.0 if kind == "clean" else 10.0 ** rng.uniform(-8, -2) * np.max(np.abs(f))
    if kind == "noisy":
        f = f + sigma * rng.standard_normal(n)
    dt = t[1] - t[0]
    stack = derivative_stack(f, dt, noise_sigma=sigma)
    assert stack.tobytes() == reference_derivative_stack(f, dt, noise_sigma=sigma).tobytes()


def test_degree_search_stops_once_a_degree_is_chosen(monkeypatch):
    # the measurement of the long-horizon benchmark config (nx=100, nt=1200,
    # its seed-0 kernel); fitting every even degree from 4 to 48 takes 23 fits
    pi = np.pi
    pd = make_problem(nx=100, nt=1200, u0=f"sin({2 * pi}*x)", u1="0*x",
                      phi=f"sin({pi}*x)^3")
    kern = Kernel.from_expression(parse("0.4689*cos(2.258*t)", "t"), pd.grid.t)
    f = solve_direct(pd, kern).f
    reference = reference_derivative_stack(f, pd.grid.dt)
    degrees = []
    fit = chebyshev.Chebyshev.fit
    monkeypatch.setattr(chebyshev.Chebyshev, "fit",
                        lambda t, y, deg: degrees.append(deg) or fit(t, y, deg))
    stack = derivative_stack(f, pd.grid.dt)
    assert len(degrees) <= 10, degrees
    assert stack.tobytes() == reference.tobytes()


@pytest.mark.parametrize("n", [3, 4, 11])
def test_short_series_fit_no_degree_above_the_interpolant(monkeypatch, n):
    # a degree above n - 1 makes numpy warn RankWarning, a RuntimeWarning,
    # which the suite turns into an error; below 5 samples the interpolant
    # is fitted once
    degrees = []
    fit = chebyshev.Chebyshev.fit
    monkeypatch.setattr(chebyshev.Chebyshev, "fit",
                        lambda t, y, deg: degrees.append(deg) or fit(t, y, deg))
    f = np.random.default_rng(n).standard_normal(n)
    stack = derivative_stack(f, 0.1)
    assert max(degrees) == n - 1
    assert n >= 5 or degrees == [n - 1]
    assert np.all(np.isfinite(stack))
