"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time

import numpy as np

from conftest import make_problem
from memkernel.direct import solve_direct, solve_linear_dirichlet
from memkernel.energy import energy_series, solution_norm
from memkernel.equivalence import build_setup, check_compatibility
from memkernel.errors import NoConvergence
from memkernel.expressions import parse
from memkernel.inverse import (
    InverseOptions,
    _window_data,
    reconstruct,
    solve_window,
)
from memkernel.timeconv import (
    Kernel,
    integrate_prefix,
    l2_time_norm,
)
from test_direct import _manufactured_case
from verify import (
    CALIBRATED_BOUND,
    _random_case,
    calibrate_constant,
    check_estimate,
    check_young,
    check_zero_start,
    equivalent_residual,
    residual_interior_norm,
    transform_to_v,
)

PI = repr(np.pi)
TWIN_KW = dict(phi=f"sin({PI}*x)^3", u0=f"sin({2 * np.pi}*x)", u1="0*x")


def report(number, description, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] criterion {number}: {description} {detail}".rstrip())
    assert passed, f"criterion {number}: {description} {detail}"


def _twin(nx, nt, kexpr):
    pd = make_problem(nx=nx, nt=nt, **TWIN_KW)
    kern = Kernel.from_expression(parse(kexpr, "t"), pd.grid.t)
    sol = solve_direct(pd, kern)
    return pd, kern, sol


def _rel_err(pd, rec, kexpr):
    kt = parse(kexpr, "t").eval(pd.grid.t)
    return l2_time_norm(rec.kernel.k - kt, pd.grid.dt) / l2_time_norm(kt, pd.grid.dt)


def test_criterion_1_manufactured_convergence():
    t0 = time.monotonic()
    errs = []
    for nx, nt in ((50, 100), (100, 200), (200, 400), (400, 800)):
        pd, kern, F, g1, u_exact, y_exact = _manufactured_case(nx, nt)
        sol = solve_direct(pd, kern, forcing=F, flux_forcing=g1)
        errs.append(np.max(np.abs(sol.u - u_exact)) + np.max(np.abs(sol.y - y_exact)))
    elapsed = time.monotonic() - t0
    orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(3)]
    ok = all(1.7 <= o <= 2.3 for o in orders) and elapsed < 10.0
    report(1, "manufactured-solution convergence order in [1.7, 2.3]", ok,
           f"(orders {[round(o, 2) for o in orders]}, {elapsed:.1f}s)")


def test_criterion_2_dispersive_mode_frequency():
    beta, ell = 0.1, 1.0
    pd = make_problem(nx=200, nt=800, beta=beta, T=1.0)
    g = pd.grid
    v0 = np.sin(np.pi * g.x / ell)
    v = solve_linear_dirichlet(pd, v0, np.zeros(g.nx + 2),
                               np.zeros((g.nt + 1, g.nx + 2)))
    trace = v[:, (g.nx + 2) // 2]
    trace /= trace[0]
    # first zero crossing of cos(omega t) sits at omega t = pi/2
    idx = int(np.argmax(trace <= 0.0))
    t0, t1 = g.t[idx - 1], g.t[idx]
    f0, f1 = trace[idx - 1], trace[idx]
    t_zero = t0 - f0 * (t1 - t0) / (f1 - f0)
    omega_meas = np.pi / (2.0 * t_zero)
    omega_exact = np.sqrt((np.pi / ell) ** 2 / (1.0 + beta * (np.pi / ell) ** 2))
    rel = abs(omega_meas - omega_exact) / omega_exact
    report(2, "dispersive mode frequency within 1%", rel <= 0.01,
           f"(measured {omega_meas:.5f}, exact {omega_exact:.5f}, rel {rel:.2e})")


def test_criterion_3_convolution_inequalities():
    rng = np.random.default_rng(20240815)
    nt, T = 160, 1.0
    t = np.linspace(0, T, nt + 1)
    dt = T / nt
    worst_young = np.inf
    for _ in range(100):
        a, b = rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4)
        w = rng.uniform(0.5, 6.0, 4)
        k = sum(ai * np.cos(wi * t) for ai, wi in zip(a, w))
        g = sum(bi * np.sin(wi * t) for bi, wi in zip(b, w))
        worst_young = min(worst_young, check_young(k, g, dt))
    worst_zero = np.inf
    for _ in range(100):
        a = rng.uniform(-2, 2, 5)
        w = rng.uniform(0.5, 8.0, 5)
        rate = sum(ai * np.cos(wi * t) for ai, wi in zip(a, w))
        series = integrate_prefix(rate, 0.0, dt)
        worst_zero = min(worst_zero, min(check_zero_start(series, dt)))
    ok = worst_young >= -1e-8 and worst_zero >= 0.0
    report(3, "convolution bound and zero-start bounds hold", ok,
           f"(min margins {worst_young:.3e}, {worst_zero:.3e})")


def test_criterion_4_equivalence_residual_order():
    norms = []
    for nx, nt in ((60, 120), (120, 240), (240, 480)):
        pd = make_problem(nx=nx, nt=nt)
        kern = Kernel.from_expression(parse("0.5*exp(-t)", "t"), pd.grid.t)
        sol = solve_direct(pd, kern)
        v, z = transform_to_v(pd, sol)
        norms.append(residual_interior_norm(pd, equivalent_residual(pd, v, z, kern)))
    orders = [float(np.log2(norms[i] / norms[i + 1])) for i in range(2)]
    ok = all(o >= 1.5 for o in orders)
    report(4, "equivalence residual decays at order >= 1.5", ok,
           f"(orders {[round(o, 2) for o in orders]})")


def test_criterion_5_twin_reconstruction():
    lines = []
    ok = True
    for kexpr in ("0.4*cos(2*t)", "0.5*exp(-t)"):
        errs = []
        for nx, nt in ((200, 400), (400, 800)):
            t0 = time.monotonic()
            pd, kern, sol = _twin(nx, nt, kexpr)
            rec = reconstruct(pd, sol.f)
            elapsed = time.monotonic() - t0
            errs.append(_rel_err(pd, rec, kexpr))
            ok = ok and elapsed < 60.0
        ok = ok and errs[0] <= 1e-2 and errs[0] / errs[1] >= 3.0
        lines.append(f"{kexpr}: {errs[0]:.2e} -> {errs[1]:.2e} ({errs[0]/errs[1]:.1f}x)")
    # zero-kernel twin on identically zero data: exact zero fixed point
    pd = make_problem(nx=200, nt=400, u0="0*x", u1="0*x", phi=TWIN_KW["phi"])
    sol = solve_direct(pd, Kernel.zero(pd.grid.nt, pd.grid.dt))
    rec0 = reconstruct(pd, sol.f)
    zerr = l2_time_norm(rec0.kernel.k, pd.grid.dt)
    ok = ok and zerr <= 1e-6
    report(5, "twin kernel reconstruction", ok,
           "(" + "; ".join(lines) + f"; zero twin {zerr:.1e})")


def test_criterion_6_contraction_and_halving():
    pd, kern, sol = _twin(100, 200, "0.4*cos(2*t)")
    rec = reconstruct(pd, sol.f, InverseOptions(window_steps=50))
    ratios_ok = True
    for w in rec.windows:
        d = w.distances
        ratios = [d[i + 1] / d[i] for i in range(len(d) - 1)]
        ratios_ok = ratios_ok and all(r < 1.0 for r in ratios[-3:])
    # weakly paired data: the full window cannot contract, halving recovers
    pd2 = make_problem(nx=80, nt=160, phi=TWIN_KW["phi"],
                       u0=f"sin({PI}*x)+0.01*sin({2 * np.pi}*x)", u1="0*x")
    kern2 = Kernel.from_expression(parse("0.4*cos(2*t)", "t"), pd2.grid.t)
    f2 = solve_direct(pd2, kern2).f
    setup2 = build_setup(pd2, f2)
    raised = False
    try:
        solve_window(_window_data(pd2, setup2, 0, 160),
                     setup2, pd2)
    except NoConvergence:
        raised = True
    rec2 = reconstruct(pd2, f2, InverseOptions(force=True))
    recovered = sum(w.halvings for w in rec2.windows) >= 1 and np.all(
        np.isfinite(rec2.kernel.k)
    )
    ok = ratios_ok and raised and recovered
    report(6, "contraction ratios < 1; oversized window halves and recovers", ok,
           f"(halvings {sum(w.halvings for w in rec2.windows)})")


def test_criterion_7_uniqueness_surrogate():
    pd, kern, sol = _twin(60, 120, "0.4*cos(2*t)")
    tol = 3e-9
    r1 = reconstruct(pd, sol.f, InverseOptions(tol=tol))
    r2 = reconstruct(pd, sol.f, InverseOptions(tol=tol, initial_kprime=0.5))
    d = solution_norm(r1.v - r2.v, pd.grid) + l2_time_norm(
        r1.kernel.kprime - r2.kernel.kprime, pd.grid.dt
    )
    ok = d <= 10.0 * tol
    report(7, "independent initial iterates agree to 10*tol", ok,
           f"(distance {d:.2e} vs {10 * tol:.1e})")


def test_criterion_8_energy_sentinel():
    pd = make_problem(nx=80, nt=200, beta=0.1)
    raw = calibrate_constant(20, seed=777, pd=pd, headroom=1.0)
    calib_ok = 1.2 * raw <= CALIBRATED_BOUND * (1 + 1e-12)
    rng = np.random.default_rng(424241)
    fresh_ok = True
    worst = np.inf
    for _ in range(20):
        v0, v1, K = _random_case(pd, rng)
        v = solve_linear_dirichlet(pd, v0, v1, K)
        m = check_estimate(v, v0, v1, K, pd.beta, pd.grid)
        worst = min(worst, m)
        fresh_ok = fresh_ok and m >= 0.0
    pdm = make_problem(nx=200, nt=800, beta=0.1)
    gm = pdm.grid
    v0 = np.sin(np.pi * gm.x)
    v = solve_linear_dirichlet(pdm, v0, np.zeros(gm.nx + 2),
                               np.zeros((gm.nt + 1, gm.nx + 2)))
    e1 = energy_series(v, pdm.beta, gm).e1[2:-2]
    drift = np.max(np.abs(e1 - e1[0])) / e1[0]
    ok = calib_ok and fresh_ok and drift <= 0.01
    report(8, "energy margins nonnegative; mode E1 drift <= 1%", ok,
           f"(min fresh margin {worst:.2f}, drift {drift:.2e})")


def test_criterion_9_compatibility_gate():
    pd, kern, sol = _twin(200, 400, "0.5*exp(-t)")
    setup = build_setup(pd, sol.f)
    rep = check_compatibility(setup, pd)
    idents = ["f_at_0", "fprime_at_0", "f2_at_0", "f3_at_0"]
    all_pass = all(rep[name].passed for name in idents)
    corrupted = build_setup(pd, sol.f + 0.25 * (1 + np.abs(sol.f).max()))
    rep_bad = check_compatibility(corrupted, pd)
    ok = all_pass and not rep_bad["f_at_0"].passed
    report(9, "twin passes the four identities; corrupted f fails the first", ok)


def test_criterion_10_determinism(tmp_path):
    from memkernel.cli import main

    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[problem]\nbeta = 0.1\np = 1.0\nq = 1.0\nell = 1.0\nT = 1.0\n"
        "[grid]\nnx = 60\nnt = 120\n"
        f"[functions]\nu0 = sin({2 * np.pi}*x)\nu1 = 0*x\n"
        f"phi = sin({PI}*x)^3\nk_true = 0.5*exp(-t)\n"
        "[noise]\nsigma = 0.001\nseed = 99\n"
    )
    digests = []
    for tag in ("a", "b"):
        out_s, out_i = tmp_path / f"s{tag}", tmp_path / f"i{tag}"
        assert main(["synth", "--config", str(cfg), "--out", str(out_s)]) == 0
        assert main(["invert", "--config", str(cfg), "--out", str(out_i),
                     "--twin", "--force"]) == 0
        digests.append(
            {p.name: p.read_bytes() for p in list(out_s.iterdir()) + list(out_i.iterdir())}
        )
    ok = digests[0] == digests[1]
    report(10, "seeded synth + invert reruns are byte-identical", ok)
