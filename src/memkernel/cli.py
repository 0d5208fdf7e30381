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
from dataclasses import dataclass
from configparser import ConfigParser, Error as ConfigParserError
from pathlib import Path

import numpy as np

from . import csvio
from .direct import ProblemData, _check_clamped, solve_direct
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
from .expressions import differentiate, parse, sample, to_text
from .grids import Grid
from .inverse import InverseOptions, reconstruct
from .rng import PortableRng
from .timeconv import Kernel, l2_time_norm

__all__ = ["main", "RunConfig", "load_config"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COMPAT = 3
EXIT_NO_CONVERGENCE = 4


@dataclass
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
    """Parse an INI config into a RunConfig, validating keys and types."""
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
    cfg = RunConfig()
    for section, section_items in items.items():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in section_items:
            name = _ALIASES.get((section, key), key)
            if _KEY_SECTION.get(name) != section:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            try:
                value = _KEY_TYPE[name](raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r} in [{section}]: {raw!r}") from exc
            setattr(cfg, name, value)
    _validate(cfg)
    return cfg


def _validate(cfg):
    """Reject a bad config once, by building what the commands build.

    ``Grid``, ``ProblemData``, the expression parser and ``InverseOptions``
    each check their own inputs and raise ``ValueError``; u0, u1 and phi are
    then sampled on the space nodes, where the clamp rule of the solvers
    applies, and k_true, its rate and f with the four derivatives the
    inverse solver takes on the time nodes.
    """
    if cfg.sign_variant not in ("plus", "minus"):
        raise ConfigError("sign_variant must be 'plus' or 'minus'")
    # both names select the one estimator; the key stays so configs that
    # set it still load
    if cfg.derivative_mode not in ("auto", "chebfit"):
        raise ConfigError("derivative_mode must be 'auto' or 'chebfit'")
    if cfg.field_format not in ("long", "matrix"):
        raise ConfigError("field_format must be 'long' or 'matrix'")
    # InverseOptions sees only max(smooth_sigma, noise level), so a negative
    # or infinite value would pass there unnoticed
    if not 0 <= cfg.smooth_sigma < np.inf:
        raise ConfigError("smooth_sigma must be finite and non-negative")
    if not 0 <= cfg.noise_sigma < np.inf:
        raise ConfigError("[noise] sigma must be finite and non-negative")
    try:
        pd = _problem(cfg)
        _inverse_options(cfg, force=False)
        for key in ("k_true", "f"):
            if getattr(cfg, key) is not None:
                _parse_key(cfg, key, "t")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # the data must evaluate on the space nodes, and u0 meet the clamp; the
    # kernel with its rate and the measurement with the four derivatives
    # the inverse solver takes must evaluate on the time nodes
    x, t = pd.grid.x, pd.grid.t
    exprs = [("u0", pd.u0, x), ("u1", pd.u1, x), ("phi", pd.phi, x)]
    for key, order in (("k_true", 1), ("f", 4)):
        if getattr(cfg, key) is not None:
            e = parse(getattr(cfg, key), "t")
            exprs.append((key, e, t))
            for _ in range(order):
                e = differentiate(e)
                exprs.append((key, e, t))
    for key, expr, points in exprs:
        try:
            row = sample(expr, points)
            if key == "u0":
                _check_clamped(row)
        except (EvaluationError, BoundaryIncompatible) as exc:
            raise ConfigError(f"{key} on the grid: {exc}") from exc


def _parse_key(cfg, key, var):
    try:
        return parse(getattr(cfg, key), var)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {key}: {exc}") from exc


def _problem(cfg):
    grid = Grid(ell=cfg.ell, T=cfg.T, nx=cfg.nx, nt=cfg.nt)
    return ProblemData(
        beta=cfg.beta, p=cfg.p, q=cfg.q, ell=cfg.ell, T=cfg.T,
        u0=_parse_key(cfg, "u0", "x"), u1=_parse_key(cfg, "u1", "x"),
        phi=_parse_key(cfg, "phi", "x"), grid=grid,
    )


def _echo_config(cfg, out):
    lines = []
    for section, keys in _SECTIONS.items():
        lines.append(f"[{section}]")
        for name in keys:
            value = getattr(cfg, name)
            if value is None:
                continue
            if name in ("u0", "u1", "phi"):
                value = to_text(parse(value, "x"))
            elif name in ("k_true", "f"):
                value = to_text(parse(value, "t"))
            lines.append(f"{name} = {value}")
        lines.append("")
    csvio.write_text(out / "resolved_config.ini", "\n".join(lines))


def _inverse_options(cfg, force, sigma_abs=0.0):
    return InverseOptions(
        tol=cfg.tol,
        max_iter=cfg.max_iter,
        window_steps=cfg.window_steps,
        vt_sign=+1.0 if cfg.sign_variant == "plus" else -1.0,
        noise_sigma=max(cfg.smooth_sigma, sigma_abs),
        force=force,
    )


def _write_field(path, pd, field, fmt):
    if fmt == "matrix":
        csvio.write_field_matrix(path, pd.grid.x, pd.grid.t, field)
    else:
        csvio.write_field_long(path, pd.grid.x, pd.grid.t, field)


def _write_energy(out, pd, u):
    track = energy_series(u, pd.beta, pd.grid)
    csvio.write_columns(
        out / "energy.csv",
        "t,E1,E2,cum_vtt,cum_vxtt,cum_vxxtt",
        [track.t, track.e1, track.e2, track.cum_vtt, track.cum_vxtt, track.cum_vxxtt],
    )
    return track


def _require_kernel(cfg):
    if cfg.k_true is None:
        raise ConfigError("this command needs k_true under [functions]")
    return Kernel.from_expression(parse(cfg.k_true, "t"), np.linspace(0, cfg.T, cfg.nt + 1))


def _noisy_measurement(cfg, f):
    scale = float(np.max(np.abs(f)))
    rng = PortableRng(cfg.noise_seed)
    noise = np.array(rng.gauss_array(len(f)))
    return f + cfg.noise_sigma * scale * noise


def cmd_direct(cfg, out, args):
    pd = _problem(cfg)
    kern = _require_kernel(cfg)
    sol = solve_direct(pd, kern)
    _write_field(out / "u.csv", pd, sol.u, cfg.field_format)
    csvio.write_columns(out / "y.csv", "t,y,yprime", [pd.grid.t, sol.y, sol.yprime])
    csvio.write_timeseries(out / "f.csv", pd.grid.t, sol.f)
    _write_energy(out, pd, sol.u)
    return EXIT_OK


def cmd_synth(cfg, out, args):
    pd = _problem(cfg)
    kern = _require_kernel(cfg)
    sol = solve_direct(pd, kern)
    csvio.write_timeseries(out / "f.csv", pd.grid.t, sol.f)
    if cfg.noise_sigma > 0:
        csvio.write_timeseries(
            out / "f_noisy.csv", pd.grid.t, _noisy_measurement(cfg, sol.f)
        )
    setup = build_setup(pd, sol.f)
    report = check_compatibility(setup, pd)
    csvio.write_text(out / "compat_report.txt", report.to_text())
    return EXIT_OK


def cmd_check(cfg, out, args):
    pd = _problem(cfg)
    if cfg.f is not None:
        measurement = parse(cfg.f, "t")
    elif cfg.k_true is not None:
        measurement = solve_direct(pd, _require_kernel(cfg)).f
    else:
        measurement = np.zeros(pd.grid.nt + 1)
    setup = build_setup(pd, measurement)
    report = check_compatibility(setup, pd)
    csvio.write_text(out / "compat_report.txt", report.to_text())
    print("compatibility:", "pass" if report.passed else "FAIL")
    return EXIT_OK


def cmd_energy(cfg, out, args):
    pd = _problem(cfg)
    kern = _require_kernel(cfg)
    sol = solve_direct(pd, kern)
    track = _write_energy(out, pd, sol.u)
    inner = track.e1[2:-2]
    drift = float(np.max(np.abs(inner - inner[0])))
    print(f"E1_drift={drift!r}")
    return EXIT_OK


def cmd_invert(cfg, out, args):
    pd = _problem(cfg)
    twin = bool(args.twin)
    if twin:
        if cfg.k_true is None:
            raise ConfigError("twin mode needs k_true under [functions]")
        if cfg.f is not None:
            raise ConfigError("twin mode and a measurement f are mutually exclusive")
    elif (cfg.f is None) == (cfg.k_true is None):
        raise ConfigError("invert needs exactly one of f (measurement) or k_true (--twin)")

    sigma_abs = 0.0
    if twin or cfg.f is None:
        kern_true = _require_kernel(cfg)
        f = solve_direct(pd, kern_true).f
        if cfg.noise_sigma > 0:
            sigma_abs = cfg.noise_sigma * float(np.max(np.abs(f)))
            f = _noisy_measurement(cfg, f)
    else:
        kern_true = None
        f = parse(cfg.f, "t")

    rec = reconstruct(pd, f, _inverse_options(cfg, args.force, sigma_abs))
    t = pd.grid.t
    csvio.write_columns(out / "k.csv", "t,k,kprime", [t, rec.kernel.k, rec.kernel.kprime])
    _write_field(out / "v.csv", pd, rec.v, cfg.field_format)
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
    ap.add_argument("--sign-variant", choices=["plus", "minus"], default=None,
                    help="sign of the velocity-projection term in the kernel update")
    ap.add_argument("--field-format", choices=["long", "matrix"], default=None)
    return ap


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.sign_variant is not None:
            cfg.sign_variant = args.sign_variant
        if args.field_format is not None:
            cfg.field_format = args.field_format
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _echo_config(cfg, out)
        return _COMMANDS[args.command](cfg, out, args)
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
