"""Command-line harness: reproducible experiment pipelines over config files.

Commands
--------
direct   solve the forward problem with a known kernel; write u/y/f/energy
synth    synthesize a measurement series (optionally noisy) + compat report
invert   reconstruct the kernel from a measurement (or in-process twin)
check    emit the data/measurement compatibility report only
energy   forward solve plus the discrete energy track only

Configuration is an INI file (key = value under [section] headers); every
run echoes the fully resolved configuration next to its outputs.  Exit
codes: 0 ok, 2 config error, 3 compatibility failure, 4 no convergence.
"""

from __future__ import annotations

import argparse
import sys
import typing
from configparser import ConfigParser, Error as ConfigParserError
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import csvio
from .derivatives import derivative_stack_from_expression
from .direct import ProblemData, profiles, solve_direct
from .energy import energy_series
from .equivalence import build_setup, check_compatibility
from .errors import (
    BoundaryIncompatible,
    CompatibilityFailed,
    ConfigError,
    EvaluationError,
    MemKernelError,
    NoConvergence,
)
from .expressions import parse, to_text
from .grids import Grid
from .inverse import InverseOptions, reconstruct
from .rng import PortableRng
from .timeconv import Kernel, l2_time_norm

__all__ = ["main", "Run", "RunConfig", "load_config"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COMPAT = 3
EXIT_NO_CONVERGENCE = 4


@dataclass(frozen=True)
class RunConfig:
    beta: float = 0.1
    p: float = 1.0
    q: float = 1.0
    ell: float = 1.0
    T: float = 1.0
    nx: int = 100
    nt: int = 200
    u0: str = "0*x"
    u1: str = "0*x"
    phi: str = "x^3*(1-x)^3"
    k_true: str | None = None
    f: str | None = None
    tol: float = 1e-10
    max_iter: int = 50
    window_steps: int | None = None
    sign_variant: str = "plus"
    derivative_mode: str = "auto"
    smooth_sigma: float = 0.0
    noise_sigma: float = 0.0
    noise_seed: int = 12345
    field_format: str = "long"


@dataclass(frozen=True)
class Run:
    """A validated config and what the commands run from it: the parsed
    expressions by key (k_true and f when set), the inverse options, and
    the true kernel sampled from k_true (None without it)."""

    cfg: RunConfig
    pd: ProblemData
    options: InverseOptions
    exprs: dict
    kernel: Kernel | None


_SECTIONS = {
    "problem": ("beta", "p", "q", "ell", "T"),
    "grid": ("nx", "nt"),
    "functions": ("u0", "u1", "phi", "k_true", "f"),
    "inverse": (
        "tol", "max_iter", "window_steps", "sign_variant",
        "derivative_mode", "smooth_sigma",
    ),
    "noise": ("noise_sigma", "noise_seed"),
    "output": ("field_format",),
}
_KEY_SECTION = {k: s for s, keys in _SECTIONS.items() for k in keys}
# each key converts to the type RunConfig declares for it; ``int | None``
# converts to int
_KEY_TYPE = {
    name: next((a for a in typing.get_args(tp) if a is not type(None)), tp)
    for name, tp in typing.get_type_hints(RunConfig).items()
}
# config files use sigma/seed under [noise]
_ALIASES = {("noise", "sigma"): "noise_sigma", ("noise", "seed"): "noise_seed"}


def load_config(path):
    """Parse an INI config, validating keys and types, and build the ``Run``
    the commands take from it (``_build``)."""
    parser = ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.optionxform = str
    # syntax errors surface on reading, bad '%' interpolation on the lookup
    try:
        read = parser.read(path)
        items = {section: parser.items(section) for section in parser.sections()}
    except ConfigParserError as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    values = {}
    for section, section_items in items.items():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in section_items:
            name = _ALIASES.get((section, key), key)
            if _KEY_SECTION.get(name) != section:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            try:
                values[name] = _KEY_TYPE[name](raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r} in [{section}]: {raw!r}") from exc
    return _build(RunConfig(**values))


@contextmanager
def _rejected(label=None):
    """Re-raise a builder's rejection as a ``ConfigError``, prefixed with
    ``label`` where the builder's message does not name the key."""
    try:
        yield
    except (ValueError, EvaluationError, BoundaryIncompatible) as exc:
        raise ConfigError(f"{label}: {exc}" if label else str(exc)) from exc


def _build(cfg):
    """Reject a bad config once, by building what the commands run.

    ``Grid``, ``ProblemData``, the expression parser and ``InverseOptions``
    each check their own inputs; ``direct.profiles`` samples u0, u1 and phi
    with every derivative the solvers take on the space nodes, where u0
    meets the clamp; ``Kernel.from_expression`` samples k_true's rate, and
    ``derivative_stack_from_expression`` f with its four derivatives, on the
    time nodes.
    """
    # derivative_mode's two names select the one estimator; the key stays
    # so configs that set it still load
    for key, allowed in (("sign_variant", ("plus", "minus")),
                         ("derivative_mode", ("auto", "chebfit")),
                         ("field_format", ("long", "matrix"))):
        if getattr(cfg, key) not in allowed:
            raise ConfigError(f"{key} must be {' or '.join(map(repr, allowed))}")
    # InverseOptions would name smooth_sigma noise_sigma, and sees sigma only scaled
    for key, label in (("smooth_sigma", "smooth_sigma"), ("noise_sigma", "[noise] sigma")):
        if not 0 <= getattr(cfg, key) < np.inf:
            raise ConfigError(f"{label} must be finite and non-negative")
    exprs = {}
    for key in _SECTIONS["functions"]:
        if getattr(cfg, key) is not None:
            with _rejected(f"cannot parse {key}"):
                exprs[key] = parse(getattr(cfg, key), "t" if key in ("k_true", "f") else "x")
    with _rejected():
        grid = Grid(ell=cfg.ell, T=cfg.T, nx=cfg.nx, nt=cfg.nt)
        pd = ProblemData(
            beta=cfg.beta, p=cfg.p, q=cfg.q, ell=cfg.ell, T=cfg.T,
            u0=exprs["u0"], u1=exprs["u1"], phi=exprs["phi"], grid=grid,
        )
        options = InverseOptions(
            tol=cfg.tol, max_iter=cfg.max_iter, window_steps=cfg.window_steps,
            vt_sign=+1.0 if cfg.sign_variant == "plus" else -1.0, noise_sigma=cfg.smooth_sigma,
        )
        profiles(pd)
    kernel = None
    if "k_true" in exprs:
        with _rejected("k_true on the time nodes"):
            kernel = Kernel.from_expression(exprs["k_true"], grid.t)
    if "f" in exprs:
        with _rejected("f on the time nodes"):
            derivative_stack_from_expression(exprs["f"], grid.t)
    return Run(cfg=cfg, pd=pd, options=options, exprs=exprs, kernel=kernel)


def _echo_config(run, out):
    lines = []
    for section, keys in _SECTIONS.items():
        lines.append(f"[{section}]")
        for name in keys:
            value = to_text(run.exprs[name]) if name in run.exprs else getattr(run.cfg, name)
            if value is not None:
                lines.append(f"{name} = {value}")
        lines.append("")
    csvio.write_text(out / "resolved_config.ini", "\n".join(lines))


def _write_field(path, run, field):
    matrix = run.cfg.field_format == "matrix"
    write = csvio.write_field_matrix if matrix else csvio.write_field_long
    write(path, run.pd.grid.x, run.pd.grid.t, field)


def _write_energy(out, pd, u):
    track = energy_series(u, pd.beta, pd.grid)
    csvio.write_columns(
        out / "energy.csv",
        "t,E1,E2,cum_vtt,cum_vxtt,cum_vxxtt",
        [track.t, track.e1, track.e2, track.cum_vtt, track.cum_vxtt, track.cum_vxxtt],
    )
    return track


def _require_kernel(run):
    if run.kernel is None:
        raise ConfigError("this command needs k_true under [functions]")
    return run.kernel


def _noisy_measurement(cfg, f):
    scale = float(np.max(np.abs(f)))
    rng = PortableRng(cfg.noise_seed)
    noise = np.array(rng.gauss_array(len(f)))
    return f + cfg.noise_sigma * scale * noise


def cmd_direct(run, out, args):
    pd = run.pd
    sol = solve_direct(pd, _require_kernel(run))
    _write_field(out / "u.csv", run, sol.u)
    csvio.write_columns(out / "y.csv", "t,y,yprime", [pd.grid.t, sol.y, sol.yprime])
    csvio.write_timeseries(out / "f.csv", pd.grid.t, sol.f)
    _write_energy(out, pd, sol.u)
    return EXIT_OK


def cmd_synth(run, out, args):
    pd = run.pd
    sol = solve_direct(pd, _require_kernel(run))
    csvio.write_timeseries(out / "f.csv", pd.grid.t, sol.f)
    if run.cfg.noise_sigma > 0:
        csvio.write_timeseries(
            out / "f_noisy.csv", pd.grid.t, _noisy_measurement(run.cfg, sol.f)
        )
    setup = build_setup(pd, sol.f)
    report = check_compatibility(setup, pd)
    csvio.write_text(out / "compat_report.txt", report.to_text())
    return EXIT_OK


def cmd_check(run, out, args):
    pd = run.pd
    if "f" in run.exprs:
        measurement = run.exprs["f"]
    elif run.kernel is not None:
        measurement = solve_direct(pd, run.kernel).f
    else:
        measurement = np.zeros(pd.grid.nt + 1)
    setup = build_setup(pd, measurement)
    report = check_compatibility(setup, pd)
    csvio.write_text(out / "compat_report.txt", report.to_text())
    print("compatibility:", "pass" if report.passed else "FAIL")
    return EXIT_OK


def cmd_energy(run, out, args):
    sol = solve_direct(run.pd, _require_kernel(run))
    track = _write_energy(out, run.pd, sol.u)
    inner = track.e1[2:-2]
    drift = float(np.max(np.abs(inner - inner[0])))
    print(f"E1_drift={drift!r}")
    return EXIT_OK


def cmd_invert(run, out, args):
    cfg, pd, f, kern_true = run.cfg, run.pd, run.exprs.get("f"), run.kernel
    if args.twin:
        if kern_true is None:
            raise ConfigError("twin mode needs k_true under [functions]")
        if f is not None:
            raise ConfigError("twin mode and a measurement f are mutually exclusive")
    elif (f is None) == (kern_true is None):
        raise ConfigError("invert needs exactly one of f (measurement) or k_true (--twin)")

    sigma_abs = 0.0
    if f is None:
        f = solve_direct(pd, kern_true).f
        if cfg.noise_sigma > 0:
            sigma_abs = cfg.noise_sigma * float(np.max(np.abs(f)))
            f = _noisy_measurement(cfg, f)

    options = replace(run.options, force=args.force,
                      noise_sigma=max(run.options.noise_sigma, sigma_abs))
    rec = reconstruct(pd, f, options)
    t = pd.grid.t
    csvio.write_columns(out / "k.csv", "t,k,kprime", [t, rec.kernel.k, rec.kernel.kprime])
    _write_field(out / "v.csv", run, rec.v)
    csvio.write_columns(
        out / "y.csv", "t,y,yprime,y2,y3", [t, rec.y, rec.yprime, rec.y2, rec.y3]
    )
    rows = [
        (w.index, it + 1, d,
         d / w.distances[it - 1] if it > 0 else float("nan"), w.norm_track)
        for w in rec.windows
        for it, d in enumerate(w.distances)
    ]
    csvio.write_columns(
        out / "diagnostics.csv",
        "window,iter,distance,ratio,norm_track",
        list(zip(*rows)) if rows else [[], [], [], [], []],
    )
    if kern_true is not None:
        err = np.abs(rec.kernel.k - kern_true.k)
        csvio.write_columns(
            out / "error.csv", "t,k_true,k_rec,abs_err",
            [t, kern_true.k, rec.kernel.k, err],
        )
        denom = l2_time_norm(kern_true.k, pd.grid.dt)
        num = l2_time_norm(rec.kernel.k - kern_true.k, pd.grid.dt)
        rel = float(num / denom) if denom > 0 else float(num)
        line = f"rel_L2_error={rel!r}"
        print(line)
        csvio.write_text(out / "summary.txt", line + "\n")
    return EXIT_OK


_COMMANDS = {
    "direct": cmd_direct,
    "synth": cmd_synth,
    "invert": cmd_invert,
    "check": cmd_check,
    "energy": cmd_energy,
}


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="memkernel",
        description="Forward solves and memory-kernel reconstruction "
        "for the dispersive wave system with acoustic boundary conditions.",
    )
    ap.add_argument("command", choices=sorted(_COMMANDS))
    ap.add_argument("--config", required=True, help="INI configuration file")
    ap.add_argument("--out", default="out", help="output directory")
    ap.add_argument("--force", action="store_true",
                    help="proceed despite compatibility failures")
    ap.add_argument("--twin", action="store_true",
                    help="invert: synthesize the measurement from k_true in-process")
    return ap


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        run = load_config(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _echo_config(run, out)
        return _COMMANDS[args.command](run, out, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CompatibilityFailed as exc:
        print(f"compatibility failure: {exc}", file=sys.stderr)
        return EXIT_COMPAT
    except NoConvergence as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except MemKernelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
