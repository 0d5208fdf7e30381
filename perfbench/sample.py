"""One benchmark sample, run in a fresh interpreter by ``run.py``.

    python3 perfbench/sample.py SPEC.json

The spec names the workload kind (``cli`` or ``inproc``), its inputs, and
where to write the result.  The sample records the monotonic clock when the
workload's first call can be issued (``ready``); run.py took the same
clock at spawn, so ``ready - spawn`` is the set-up time.  With ``trace``
set, the layers are wrapped by ``spans.Tracer`` right after the import and
the spans are written out when the sample ends.
"""

from __future__ import annotations

import json
import sys
import time


def rel_l2(k, a, b, dt):
    """Relative trapezoid-L2 distance of ``k`` from ``a*cos(b*t)`` on t = n*dt."""
    import numpy as np

    t = dt * np.arange(len(k))
    exact = a * np.cos(b * t)

    def norm(s):
        sq = s * s
        return float(np.sqrt(dt * (sq.sum() - 0.5 * (sq[0] + sq[-1]))))

    return norm(np.asarray(k) - exact) / norm(exact)


def _inproc_setup(p):
    import numpy as np
    from memkernel import Grid, Kernel, ProblemData, parse, solve_direct

    grid = Grid(ell=1.0, T=p["T"], nx=p["nx"], nt=p["nt"])
    pd = ProblemData(
        beta=0.1, p=1.0, q=1.0, ell=1.0, T=p["T"],
        u0=parse(p["u0"], "x"), u1=parse("0*x", "x"),
        phi=parse(f"sin({np.pi!r}*x)^3", "x"), grid=grid,
    )
    k_true = Kernel.from_expression(parse(p["kernel"], "t"), grid.t)
    return pd, solve_direct(pd, k_true).f


def _inproc_run(spec, result):
    import hashlib

    import numpy as np
    import memkernel

    tracer = _tracer(spec)
    p = spec["params"]
    pd, f = _inproc_setup(p)
    result["ready"] = time.monotonic()
    if spec["setup_only"]:
        return 0, tracer
    options = memkernel.InverseOptions(force=p["force"])
    t0 = time.perf_counter()
    rec = memkernel.reconstruct(pd, f, options)
    result["wall"] = time.perf_counter() - t0
    a, b = spec["kernel"]
    result["rel_l2"] = rel_l2(rec.kernel.k, a, b, pd.grid.dt)
    result["finite"] = bool(np.all(np.isfinite(rec.kernel.k)) and np.all(np.isfinite(rec.v)))
    digest = hashlib.sha256()
    for arr in (rec.kernel.k, rec.kernel.kprime, rec.v, rec.y):
        digest.update(np.ascontiguousarray(arr).tobytes())
    result["digest"] = digest.hexdigest()
    return 0, tracer


def _cli_run(spec, result):
    import memkernel.cli

    result["ready"] = time.monotonic()
    if spec["setup_only"]:
        return 0, None
    tracer = _tracer(spec)
    return memkernel.cli.main(spec["argv"]), tracer


def _tracer(spec):
    if not spec["trace"]:
        return None
    from spans import Tracer

    return Tracer().install()


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    result = {}
    run = _cli_run if spec["kind"] == "cli" else _inproc_run
    code, tracer = run(spec, result)
    if tracer is not None:
        import memkernel.direct

        tracer.uninstall()
        dump = tracer.dump()
        dump["profiles_misses"] = memkernel.direct.profiles.cache_info().misses
        with open(spec["spans"], "w") as fh:
            json.dump(dump, fh)
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
