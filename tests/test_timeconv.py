import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memkernel.timeconv import (
    conv,
    conv_field,
    convolution_matrix,
    integrate_prefix,
    l2_time_norm,
    time_derivative,
)
from verify import check_young, check_zero_start, reference_convolution_matrix


def _grid(nt, T=1.0):
    t = np.linspace(0.0, T, nt + 1)
    return t, T / nt


def test_conv_zero_kernel():
    t, dt = _grid(50)
    assert np.allclose(conv(np.zeros_like(t), np.sin(t), dt), 0.0)


def test_conv_of_constants_is_time():
    t, dt = _grid(64)
    out = conv(np.ones_like(t), np.ones_like(t), dt)
    assert out[0] == 0.0
    assert np.allclose(out, t, atol=1e-14)


def test_conv_linear_kernel_exact():
    # kernel t, input 1: integral of (t - s) ds = t^2/2, exact for trapezoid
    t, dt = _grid(40)
    out = conv(t, np.ones_like(t), dt)
    assert np.allclose(out, t**2 / 2.0, atol=1e-14)


def test_conv_second_order_accuracy():
    errs = []
    for nt in (100, 200, 400):
        t, dt = _grid(nt)
        out = conv(np.exp(-t), np.cos(t), dt)
        exact = 0.5 * (np.cos(t) + np.sin(t) - np.exp(-t))
        errs.append(np.max(np.abs(out - exact)))
    assert 1.9 < np.log2(errs[0] / errs[1]) < 2.1
    assert 1.9 < np.log2(errs[1] / errs[2]) < 2.1


def test_conv_length_mismatch():
    with pytest.raises(ValueError):
        conv(np.zeros(5), np.zeros(6), 0.1)
    with pytest.raises(ValueError):
        conv_field(np.zeros(5), np.zeros((6, 4)), 0.1)


def test_conv_bilinear_and_causal():
    rng = np.random.default_rng(11)
    t, dt = _grid(60)
    k = rng.standard_normal(t.shape)
    g1 = rng.standard_normal(t.shape)
    g2 = rng.standard_normal(t.shape)
    lhs = conv(k, 2.0 * g1 - 3.0 * g2, dt)
    rhs = 2.0 * conv(k, g1, dt) - 3.0 * conv(k, g2, dt)
    assert np.allclose(lhs, rhs, atol=1e-12)
    # causality: editing the tail leaves earlier outputs untouched
    g1_tail = g1.copy()
    g1_tail[31:] += 5.0
    assert np.allclose(conv(k, g1_tail, dt)[:31], conv(k, g1, dt)[:31], atol=1e-12)
    k_tail = k.copy()
    k_tail[31:] -= 2.0
    assert np.allclose(conv(k_tail, g1, dt)[:31], conv(k, g1, dt)[:31], atol=1e-12)


def test_conv_field_matches_columnwise_conv():
    rng = np.random.default_rng(5)
    t, dt = _grid(30)
    k = rng.standard_normal(t.shape)
    F = rng.standard_normal((t.shape[0], 7))
    out = conv_field(k, F, dt)
    for j in range(7):
        assert np.allclose(out[:, j], conv(k, F[:, j], dt), atol=1e-13)


@pytest.mark.parametrize("n", [1, 2, 3, 17, 128, 129, 401])
def test_convolution_matrix_bitwise_equals_reference(n):
    rng = np.random.default_rng(n)
    k = rng.standard_normal(n)
    dt = 0.37 / n
    w = convolution_matrix(k, dt)
    ref = reference_convolution_matrix(k, dt)
    assert w.shape == ref.shape == (n, n)
    assert w.tobytes() == ref.tobytes()


@settings(max_examples=60, deadline=None)
@example(n=127, width=1, seed=0)
@example(n=128, width=3, seed=1)
@example(n=129, width=5, seed=2)
@example(n=256, width=2, seed=3)
@example(n=257, width=4, seed=4)
@example(n=2, width=1, seed=5)
@example(n=1201, width=3, seed=6)
@given(n=st.integers(1, 400), width=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_blocked_conv_matches_dense_reference(n, width, seed):
    # the blocked product sums in another order than the full one, so the
    # bound is relative to |W| @ |g|, the scale of its rounding error
    rng = np.random.default_rng(seed)
    k = rng.standard_normal(n)
    field = rng.standard_normal((n, width))
    dt = rng.uniform(1e-3, 1.0)
    ref_w = reference_convolution_matrix(k, dt)
    for out, g in ((conv(k, field[:, 0], dt), field[:, 0]), (conv_field(k, field, dt), field)):
        assert out.shape == g.shape
        scale = np.max(np.abs(ref_w) @ np.abs(g))
        assert np.max(np.abs(out - ref_w @ g)) <= 1e-13 * scale


def test_conv_field_constant_in_time():
    t, dt = _grid(200)
    k = np.exp(-t)
    F = np.outer(np.ones_like(t), np.array([1.0, -2.0, 0.5]))
    out = conv_field(k, F, dt)
    running = integrate_prefix(k, 0.0, dt) - k[0] * 0.0  # plain prefix integral
    running -= running[0]
    for j in range(3):
        assert np.allclose(out[:, j], F[0, j] * running, atol=5e-4)


def test_conv_field_zero():
    t, dt = _grid(20)
    assert np.allclose(conv_field(np.zeros_like(t), np.ones((21, 4)), dt), 0.0)
    assert np.allclose(conv_field(np.ones_like(t), np.zeros((21, 4)), dt), 0.0)


def test_integrate_prefix_constants():
    t, dt = _grid(32)
    assert np.allclose(integrate_prefix(np.zeros_like(t), 2.0, dt), 2.0)
    assert np.allclose(integrate_prefix(np.ones_like(t), 0.0, dt), t, atol=1e-14)


def test_integrate_prefix_cosine_bound():
    t, dt = _grid(128, T=2.0)
    out = integrate_prefix(np.cos(t), 0.0, dt)
    err = np.abs(out - np.sin(t))
    assert np.all(err <= dt**2 / 12.0 * t + 1e-15)


def test_integrate_prefix_field_matches_columns():
    t, dt = _grid(40)
    rng = np.random.default_rng(11)
    field = rng.standard_normal((t.size, 7))
    start = rng.standard_normal(7)
    out = integrate_prefix(field, start, dt)
    cols = [integrate_prefix(field[:, j], start[j], dt) for j in range(7)]
    assert np.array_equal(out, np.stack(cols, axis=1))


def test_prefix_then_derivative_recovers_rate():
    t, dt = _grid(256)
    rate = np.cos(3 * t)
    series = integrate_prefix(rate, 0.7, dt)
    back = time_derivative(series, dt)
    assert np.max(np.abs(back[1:-1] - rate[1:-1])) < 5.0 * dt**2


def test_l2_time_norm_values():
    t, dt = _grid(1000)
    assert l2_time_norm(np.zeros_like(t), dt) == 0.0
    assert l2_time_norm(np.ones_like(t), dt) == pytest.approx(1.0)
    assert l2_time_norm(t, dt) == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-5)


def test_l2_time_norm_prefix_argument():
    t, dt = _grid(100)
    full = l2_time_norm(t, dt)
    half = l2_time_norm(t[:51], dt)
    assert half < full
    assert half == pytest.approx(np.sqrt(0.5**3 / 3.0), abs=1e-4)


def test_check_young_zero_kernel():
    t, dt = _grid(50)
    assert check_young(np.zeros_like(t), np.sin(t), dt) == pytest.approx(0.0)


def test_check_young_constant_pair():
    t, dt = _grid(400)
    margin = check_young(np.ones_like(t), np.ones_like(t), dt)
    assert margin == pytest.approx(1.0 - 1.0 / np.sqrt(3.0), abs=1e-4)
    assert margin == pytest.approx(0.4226, abs=1e-3)


def test_check_young_random_smooth_pairs():
    rng = np.random.default_rng(123)
    t, dt = _grid(160)
    for _ in range(100):
        a = rng.uniform(-1, 1, 4)
        b = rng.uniform(-1, 1, 4)
        w = rng.uniform(0.5, 6.0, 4)
        k = sum(ai * np.cos(wi * t) for ai, wi in zip(a, w))
        g = sum(bi * np.sin(wi * t) for bi, wi in zip(b, w))
        assert check_young(k, g, dt) >= -1e-8


def test_zero_start_bounds_random_series():
    rng = np.random.default_rng(321)
    t, dt = _grid(200)
    for _ in range(100):
        a = rng.uniform(-2, 2, 5)
        w = rng.uniform(0.5, 8.0, 5)
        rate = sum(ai * np.cos(wi * t) for ai, wi in zip(a, w))
        series = integrate_prefix(rate, 0.0, dt)  # starts at exactly zero
        sup_m, l2_m = check_zero_start(series, dt)
        assert sup_m >= 0.0
        assert l2_m >= 0.0
