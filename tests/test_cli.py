import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import memkernel
from memkernel.cli import EXIT_COMPAT, EXIT_CONFIG, load_config, main
from memkernel.errors import ConfigError
from memkernel.rng import PortableRng

PI = repr(np.pi)

TWIN_CONFIG = f"""
[problem]
beta = 0.1
p = 1.0
q = 1.0
ell = 1.0
T = 1.0

[grid]
nx = 60
nt = 120

[functions]
u0 = sin({2 * np.pi}*x)
u1 = 0*x
phi = sin({PI}*x)^3
k_true = 0.5*exp(-t)

[inverse]
tol = 1e-9

[noise]
sigma = 0.001
seed = 20240601
"""


def write_config(tmp_path, text=TWIN_CONFIG, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_rng_is_reproducible_and_documented_algorithm():
    a = PortableRng(42)
    b = PortableRng(42)
    seq_a = [a.next_u64() for _ in range(5)]
    seq_b = [b.next_u64() for _ in range(5)]
    assert seq_a == seq_b
    assert all(0 <= v < 2**64 for v in seq_a)
    assert len(set(seq_a)) == 5
    u = PortableRng(1).uniform()
    assert 0.0 <= u < 1.0
    g = PortableRng(7).gauss_array(2000)
    assert abs(np.mean(g)) < 0.1
    assert abs(np.std(g) - 1.0) < 0.1


def test_rng_differs_across_seeds():
    assert PortableRng(1).next_u64() != PortableRng(2).next_u64()


def test_load_config_defaults_and_overrides(tmp_path):
    cfg = load_config(write_config(tmp_path)).cfg
    assert cfg.nx == 60
    assert cfg.noise_sigma == pytest.approx(1e-3)
    assert cfg.k_true is not None
    assert cfg.max_iter == 50  # default


def test_config_errors(tmp_path):
    bad = write_config(tmp_path, "[problem]\nbeta = -1\n", "bad1.ini")
    with pytest.raises(ConfigError):
        load_config(bad)
    bad = write_config(tmp_path, "[problem]\nwhat = 1\n", "bad2.ini")
    with pytest.raises(ConfigError):
        load_config(bad)
    bad = write_config(tmp_path, "[functions]\nu0 = sin(\n", "bad3.ini")
    with pytest.raises(ConfigError):
        load_config(bad)
    assert main(["direct", "--config", str(tmp_path / "missing.ini")]) == EXIT_CONFIG


def _assert_invert_exits_config(tmp_path, capsys, old, new):
    assert old in TWIN_CONFIG
    cfgp = write_config(tmp_path, TWIN_CONFIG.replace(old, new), "bad.ini")
    code = main(["invert", "--twin", "--config", str(cfgp), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("config error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "line",
    ["max_iter = 0", "derivative_mode = bogus", "derivative_mode = spline",
     "window_policy = bondu", "window_policy = bound", "tol = -1", "tol = inf",
     "max_halvings = -1", "window_steps = -3", "window_steps = 0",
     "smooth_sigma = -0.01", "smooth_sigma = inf", "sigma = -0.01", "sigma = inf"],
)
def test_bad_inverse_option_exits_config(tmp_path, capsys, line):
    # the [noise] level replaces its own line, [inverse] keys the tolerance;
    # retired keys (window_policy, max_halvings) are unknown keys
    old = "sigma = 0.001" if line.startswith("sigma") else "tol = 1e-9"
    _assert_invert_exits_config(tmp_path, capsys, old, line)


@pytest.mark.parametrize(
    "old, new",
    [("tol = 1e-9", "tol = 1e-9\ntol = 1e-8"),
     ("[problem]\n", ""),
     ("tol = 1e-9", "tol 1e-9"),
     ("u1 = 0*x", "u1 = 0 % x")],
    ids=["duplicate-key", "no-section-header", "no-equals-sign", "bad-interpolation"],
)
def test_config_syntax_error_exits_config(tmp_path, capsys, old, new):
    _assert_invert_exits_config(tmp_path, capsys, old, new)


def test_cli_import_skips_heavy_scipy_modules():
    # a fresh interpreter, so modules other tests loaded do not count; the
    # runtime is numpy only, so no scipy module may be loaded at all
    code = ("import sys, memkernel.cli; print([m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')])")
    src = str(Path(memkernel.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def _readme_block():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split("```ini\n", 1)[1].split("```", 1)[0]


def test_readme_config_block_runs_as_written(tmp_path):
    cfgp = write_config(tmp_path, _readme_block(), "readme.ini")
    code = main(["invert", "--twin", "--config", str(cfgp), "--out", str(tmp_path / "o")])
    assert code == 0
    assert (tmp_path / "o" / "k.csv").exists()


@pytest.mark.parametrize(
    "old, new",
    [("beta = 0.1", "beta = 0"), ("nx = 60", "nx = 2"),
     (f"u0 = sin({2 * np.pi}*x)", "u0 = sin("),
     ("beta = 0.1", "beta = nan"), ("p = 1.0", "p = inf"), ("T = 1.0", "T = nan"),
     (f"u0 = sin({2 * np.pi}*x)", "u0 = 1+x"), (f"u0 = sin({2 * np.pi}*x)", "u0 = 1/x"),
     (f"u0 = sin({2 * np.pi}*x)", "u0 = x^2/(x+1e-200)"), ("u1 = 0*x", "u1 = 1+x")],
)
def test_bad_problem_input_exits_config(tmp_path, capsys, old, new):
    _assert_invert_exits_config(tmp_path, capsys, old, new)


@pytest.mark.parametrize(
    "command, line",
    [("invert", "f = 1/t"), ("synth", "k_true = 1/(t-0.5)")],
)
def test_kernel_or_measurement_off_the_time_nodes_exits_config(tmp_path, capsys,
                                                                command, line):
    # t = 0 and t = 0.5 are time nodes at nt = 120
    cfgp = write_config(tmp_path, TWIN_CONFIG.replace("k_true = 0.5*exp(-t)", line))
    code = main([command, "--config", str(cfgp), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("config error:") and line.split()[0] in err


def test_direct_command_outputs(tmp_path):
    cfgp = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["direct", "--config", str(cfgp), "--out", str(out)]) == 0
    for name in ("u.csv", "y.csv", "f.csv", "energy.csv", "resolved_config.ini"):
        assert (out / name).exists(), name
    header = (out / "energy.csv").read_text().splitlines()[0]
    assert header == "t,E1,E2,cum_vtt,cum_vxtt,cum_vxxtt"
    assert (out / "u.csv").read_text().splitlines()[0] == "x,t,value"


def test_direct_requires_kernel(tmp_path):
    text = TWIN_CONFIG.replace("k_true = 0.5*exp(-t)\n", "")
    cfgp = write_config(tmp_path, text, "nok.ini")
    assert main(["direct", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_matrix_field_format(tmp_path):
    cfgp = write_config(tmp_path, TWIN_CONFIG + "\n[output]\nfield_format = matrix\n")
    out = tmp_path / "mat"
    assert main(["direct", "--config", str(cfgp), "--out", str(out)]) == 0
    first = (out / "u.csv").read_text().splitlines()[0]
    assert first.startswith("t\\x,0.0,")


def test_synth_outputs_and_compat(tmp_path):
    cfgp = write_config(tmp_path)
    out = tmp_path / "synth"
    assert main(["synth", "--config", str(cfgp), "--out", str(out)]) == 0
    assert (out / "f.csv").exists()
    assert (out / "f_noisy.csv").exists()  # sigma > 0 in the config
    report = (out / "compat_report.txt").read_text()
    assert report.splitlines()[0] == "name,value,tolerance,pass"
    assert "false" not in report  # twin data satisfy every identity


def test_synth_zero_noise_writes_no_noisy_file(tmp_path):
    text = TWIN_CONFIG.replace("sigma = 0.001", "sigma = 0.0")
    cfgp = write_config(tmp_path, text, "clean.ini")
    out = tmp_path / "clean"
    assert main(["synth", "--config", str(cfgp), "--out", str(out)]) == 0
    assert not (out / "f_noisy.csv").exists()


def test_invert_twin_mode(tmp_path, capsys):
    cfgp = write_config(tmp_path)
    out = tmp_path / "twin"
    text = TWIN_CONFIG.replace("sigma = 0.001", "sigma = 0.0")
    cfgp = write_config(tmp_path, text, "twin.ini")
    assert main(["invert", "--config", str(cfgp), "--out", str(out), "--twin"]) == 0
    printed = capsys.readouterr().out
    assert "rel_L2_error=" in printed
    rel = float(printed.split("rel_L2_error=")[1].split()[0])
    assert rel < 0.05
    for name in ("k.csv", "v.csv", "y.csv", "diagnostics.csv", "error.csv", "summary.txt"):
        assert (out / name).exists(), name
    assert (out / "k.csv").read_text().splitlines()[0] == "t,k,kprime"
    assert (out / "y.csv").read_text().splitlines()[0] == "t,y,yprime,y2,y3"
    assert (out / "error.csv").read_text().splitlines()[0] == "t,k_true,k_rec,abs_err"


def test_invert_requires_exactly_one_source(tmp_path):
    both = TWIN_CONFIG + "\n"
    both = both.replace("k_true = 0.5*exp(-t)", "k_true = 0.5*exp(-t)\nf = 1+t")
    cfgp = write_config(tmp_path, both, "both.ini")
    assert main(["invert", "--config", str(cfgp), "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    neither = TWIN_CONFIG.replace("k_true = 0.5*exp(-t)\n", "")
    cfgp = write_config(tmp_path, neither, "neither.ini")
    assert main(["invert", "--config", str(cfgp), "--out", str(tmp_path / "y")]) == EXIT_CONFIG


def test_invert_inconsistent_measurement_exits_compat(tmp_path):
    text = TWIN_CONFIG.replace("k_true = 0.5*exp(-t)", "f = 1+t")
    cfgp = write_config(tmp_path, text, "bad_meas.ini")
    code = main(["invert", "--config", str(cfgp), "--out", str(tmp_path / "z")])
    assert code == EXIT_COMPAT


def test_noisy_twin_passes_its_own_gate(tmp_path):
    # TWIN_CONFIG's measurement carries noise (sigma = 0.001); the gate
    # allows each f^(j)(0) it reads that noise's effect, so no --force
    cfgp = write_config(tmp_path)
    assert main(["invert", "--twin", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 0


def test_noisy_readme_twin_passes_its_own_gate(tmp_path):
    text = _readme_block()
    for old, new in (("nx = 200", "nx = 60"), ("nt = 400", "nt = 120"),
                     ("\nsigma = 0.0 ", "\nsigma = 0.001 ")):
        assert old in text
        text = text.replace(old, new)
    cfgp = write_config(tmp_path, text, "noisy.ini")
    assert main(["invert", "--twin", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 0


def test_noisy_twin_with_an_offset_measurement_exits_compat(tmp_path, monkeypatch):
    # an offset of 0.1 max|f| is far beyond the noise the gate allows for
    import memkernel.cli as cli

    noisy = cli._noisy_measurement
    monkeypatch.setattr(cli, "_noisy_measurement",
                        lambda cfg, f: noisy(cfg, f) + 0.1 * np.max(np.abs(f)))
    cfgp = write_config(tmp_path)
    code = main(["invert", "--twin", "--config", str(cfgp), "--out", str(tmp_path / "o")])
    assert code == EXIT_COMPAT


def test_check_command(tmp_path, capsys):
    cfgp = write_config(tmp_path)
    out = tmp_path / "check"
    assert main(["check", "--config", str(cfgp), "--out", str(out)]) == 0
    assert "compatibility: pass" in capsys.readouterr().out
    assert (out / "compat_report.txt").exists()


def _readme_config(tmp_path, k_line=None):
    """The README's config at nx=40, nt=80, its k_true line replaced by
    ``k_line`` (dropped when None)."""
    lines = [k_line if line.startswith("k_true") else line
             for line in _readme_block().splitlines()]
    text = "\n".join(line for line in lines if line is not None)
    for old, new in (("nx = 200", "nx = 40"), ("nt = 400", "nt = 80")):
        assert old in text
        text = text.replace(old, new)
    return write_config(tmp_path, text, "readme.ini")


@pytest.mark.parametrize("k_line", ["f = 1+t", None], ids=["symbolic-f", "zero-f"])
def test_check_without_a_kernel_reports_the_measurement(tmp_path, capsys, k_line):
    # a symbolic f, or with neither f nor k_true a zero measurement, is
    # checked as given; neither fits this data
    cfgp = _readme_config(tmp_path, k_line)
    out = tmp_path / "check"
    assert main(["check", "--config", str(cfgp), "--out", str(out)]) == 0
    assert "compatibility: FAIL" in capsys.readouterr().out
    assert (out / "compat_report.txt").exists()


@pytest.mark.parametrize(
    "k_line, message",
    [(None, "twin mode needs k_true"),
     ("k_true = 0.4*cos(2*t)\nf = 1+t", "mutually exclusive")],
    ids=["no-k_true", "with-f"],
)
def test_twin_needs_k_true_alone(tmp_path, capsys, k_line, message):
    cfgp = _readme_config(tmp_path, k_line)
    code = main(["invert", "--twin", "--config", str(cfgp), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_coarse_twin_passes_its_own_compatibility_gate(tmp_path):
    # at nx=40 the solver's f misses the exact identities by its O(dx^2)
    # quadrature gap, which the sampled-f tolerance admits
    cfgp = _readme_config(tmp_path, "k_true = 0.4*cos(2*t)")
    code = main(["invert", "--twin", "--config", str(cfgp), "--out", str(tmp_path / "o")])
    assert code == 0


def test_compat_report_holds_plain_numbers(tmp_path):
    cfgp = write_config(tmp_path)
    out = tmp_path / "check"
    assert main(["check", "--config", str(cfgp), "--out", str(out)]) == 0
    header, *rows = (out / "compat_report.txt").read_text().splitlines()
    assert header == "name,value,tolerance,pass"
    assert rows
    for row in rows:
        _, value, tolerance, passed = row.split(",")
        float(value), float(tolerance)
        assert passed in ("true", "false")


def test_check_flags_broken_sensor(tmp_path, capsys):
    text = TWIN_CONFIG.replace(f"phi = sin({PI}*x)^3", "phi = x*(1-x)")
    cfgp = write_config(tmp_path, text, "broken.ini")
    out = tmp_path / "broken"
    assert main(["check", "--config", str(cfgp), "--out", str(out)]) == 0
    assert "FAIL" in capsys.readouterr().out
    report = (out / "compat_report.txt").read_text()
    slope_lines = [l for l in report.splitlines() if l.startswith("sensor_slope")]
    assert any(l.endswith("false") for l in slope_lines)


def test_energy_command(tmp_path, capsys):
    cfgp = write_config(tmp_path)
    out = tmp_path / "energy"
    assert main(["energy", "--config", str(cfgp), "--out", str(out)]) == 0
    assert (out / "energy.csv").exists()
    assert "E1_drift=" in capsys.readouterr().out


def test_timeseries_header_contract(tmp_path):
    cfgp = write_config(tmp_path)
    out = tmp_path / "hdr"
    assert main(["synth", "--config", str(cfgp), "--out", str(out)]) == 0
    assert (out / "f.csv").read_text().splitlines()[0] == "t,value"
    assert (out / "f_noisy.csv").read_text().splitlines()[0] == "t,value"


def test_unrecoverable_window_exits_no_convergence(tmp_path):
    # weakly paired sensor/data cannot converge in two map calls at any
    # width; once halving reaches the minimum width the failure surfaces as
    # the dedicated exit code
    text = TWIN_CONFIG.replace(f"u0 = sin({2 * np.pi}*x)",
                               f"u0 = sin({PI}*x)+0.01*sin({2 * np.pi}*x)")
    text = text.replace("[inverse]\ntol = 1e-9",
                        "[inverse]\ntol = 1e-9\nmax_iter = 2\nwindow_steps = 120")
    text = text.replace("sigma = 0.001", "sigma = 0.0")
    cfgp = write_config(tmp_path, text, "stiff.ini")
    code = main(["invert", "--config", str(cfgp), "--out", str(tmp_path / "nc"),
                 "--twin", "--force"])
    from memkernel.cli import EXIT_NO_CONVERGENCE

    assert code == EXIT_NO_CONVERGENCE


def _dir_digest(root):
    digest = {}
    for p in sorted(Path(root).iterdir()):
        digest[p.name] = p.read_bytes()
    return digest


def test_synth_and_invert_are_byte_deterministic(tmp_path):
    cfgp = write_config(tmp_path)
    runs = []
    for tag in ("a", "b"):
        out_s = tmp_path / f"synth_{tag}"
        out_i = tmp_path / f"invert_{tag}"
        assert main(["synth", "--config", str(cfgp), "--out", str(out_s)]) == 0
        # noisy twin inversion: seeded noise, --force past the perturbed gate
        assert main(["invert", "--config", str(cfgp), "--out", str(out_i),
                     "--twin", "--force"]) == 0
        runs.append((_dir_digest(out_s), _dir_digest(out_i)))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]


def test_noise_is_seeded_and_scaled(tmp_path):
    cfgp = write_config(tmp_path)
    out1 = tmp_path / "n1"
    out2 = tmp_path / "n2"
    assert main(["synth", "--config", str(cfgp), "--out", str(out1)]) == 0
    assert main(["synth", "--config", str(cfgp), "--out", str(out2)]) == 0
    assert (out1 / "f_noisy.csv").read_bytes() == (out2 / "f_noisy.csv").read_bytes()
    clean = np.loadtxt(out1 / "f.csv", delimiter=",", skiprows=1)
    noisy = np.loadtxt(out1 / "f_noisy.csv", delimiter=",", skiprows=1)
    resid = noisy[:, 1] - clean[:, 1]
    scale = np.max(np.abs(clean[:, 1]))
    assert 0.2e-3 * scale < np.std(resid) < 5e-3 * scale
