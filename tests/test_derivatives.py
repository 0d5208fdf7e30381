import numpy as np

from memkernel.derivatives import derivative_stack, derivative_stack_from_expression
from memkernel.expressions import parse


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
