"""memkernel benchmark: three workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/`` (byte-compiled first), nothing needs installing.  Every sample runs
in a fresh interpreter, one at a time, started from this process, so
each pays the import and every cold cache as a command-line user does, and
no in-process cache (such as the ``profiles`` lru_cache) carries over from
one sample to the next.  The loop is closed: the next sample starts when
the previous one has exited, until ``--seconds`` is used up.

``--seed`` picks the true kernel ``a*cos(b*t)``, a in [0.3, 0.5] and b in
[1.5, 2.5]; the program sees only the generated config or measurement.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (CLI: spawn to
exit; in-process: the ``reconstruct`` call), ``setup_s`` (spawn until the
first call can be issued), ``peak_rss_mb``.  Both times are scaled to a
reference host speed by a probe run next to every sample (see
``PROBE_REF_S``).  ``--trace 1`` alternates
untraced and traced samples (layers wrapped by ``spans.py``) plus one
``-X importtime`` run, and reports the per-layer metrics and the tracing
overhead.  Every sample's outputs are checked; a failed check, a raise or
a non-zero exit counts the sample as failed.  Human-readable summary and
run metadata lines come first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import compileall
import ctypes
import hashlib
import json
import math
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

from sample import rel_l2
from spans import layer_stats, outermost_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DEADLINE_S = 170.0  # a run must end within 180 s
# One BLAS thread.  On a 2-vCPU virtual machine the two-thread OpenBLAS pool
# stalls for ~1 s in the first LAPACK call (derivative_stack's lstsq) of a
# process started after an idle spell, and slows several-fold when anything
# else runs; one thread keeps samples steady.  run.py sets it before
# numpy loads, so the recorded blas_threads is what the samples use.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_SETUPS = 3  # set-up is measured at least this often per run
# Host-speed normalisation.  On the shared 2-vCPU virtual machine this was
# built on, the speed of one vCPU switched between states (a fixed piece of
# work took 0.30 s in one and 0.63 s in another) for seconds to minutes at a
# time, with no steal time reported and CPU time tracking wall time, so raw
# seconds spread 23-40% between runs of the same code.  So the run is pinned
# to one CPU, the probe (probe.py, a fresh interpreter doing a fixed mix of
# work with no memkernel code) runs before and after every sample, and each
# sample's times are scaled by PROBE_REF_S over the mean of its two probes:
# they are seconds on a host that runs the probe in PROBE_REF_S.  A change
# to memkernel moves the scaled time by the same share as the raw one.  The
# unscaled medians and the probe are printed with every run.
PROBE_ARGV = [sys.executable, "-I", str(HERE / "probe.py")]
PROBE_REF_S = 0.60

PI = repr(math.pi)
TWO_PI = repr(2 * math.pi)
README_U0 = f"sin({TWO_PI}*x)"

# kernel_rel_l2 ceilings are the largest error the seed commit gave over
# the seed range, with 25% headroom.
WORKLOADS = {
    "twin_cli": {
        "kind": "cli", "command": "invert", "flags": ["--twin"],
        "nx": 200, "nt": 400, "T": 1.0, "u0": README_U0, "ceiling": 3.8e-3,
        "why": "README path: memkernel invert --twin at nx=200 nt=400; import, "
               "32 marches, CSV output; convolutions at n=401, below the FFT crossover",
    },
    "long_horizon": {
        "kind": "inproc", "nx": 100, "nt": 1200, "T": 1.0, "u0": README_U0,
        "force": False, "ceiling": 1.6e-2,
        "why": "in-process reconstruct at nx=100 nt=1200: dense O(nt^2) "
               "convolutions lead time and memory, the FFT side of the crossover",
    },
    "windows_T4": {
        "kind": "inproc", "nx": 160, "nt": 800, "T": 4.0,
        "u0": f"sin({PI}*x)+0.01*sin({TWO_PI}*x)", "force": True, "ceiling": 0.19,
        "why": "weakly paired data at T=4 with adaptive windows: halving waste "
               "and the head/tail history path over 8 accepted windows",
    },
}

# Spans each workload must record, so a layer a caller reaches by a name the
# tracer missed shows up as a failure, not as a zero.
_INVERSE_SPANS = (
    "inverse.reconstruct", "inverse.solve_window", "inverse.apply_map_A",
    "inverse.state_distance", "timeconv.conv", "timeconv.conv_field",
    "timeconv.convolution_matrix", "direct.solve_linear_dirichlet",
    "grids.DispersiveInverse.solve", "energy.solution_norm",
    "equivalence.build_setup", "equivalence.check_compatibility",
    "derivatives.derivative_stack", "expressions.differentiate",
    "direct.solve_direct",
)
EXPECTED_SPANS = {
    "twin_cli": _INVERSE_SPANS + ("csvio.write_field_long", "csvio.write_columns"),
    "long_horizon": _INVERSE_SPANS,
    "windows_T4": _INVERSE_SPANS,
}
# Call sites named in the benchmark's definition; each must be patched.
EXPECTED_PATCHES = (
    "memkernel.inverse.conv", "memkernel.inverse.solve_linear_dirichlet",
    "memkernel.cli.reconstruct", "memkernel.csvio.write_field_long",
    "memkernel.grids.DispersiveInverse.solve",
)

END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")
# "<span>.calls", "<span>.s" (busy) and "<span>.self_s" come straight from
# the spans; the rest are derived in layer_metrics.
PER_LAYER = (
    "import.memkernel.s", "import.derivatives.s",
    "timeconv.conv.calls", "timeconv.conv.s",
    "timeconv.conv_field.calls", "timeconv.conv_field.s",
    "timeconv.convolution_matrix.calls", "timeconv.convolution_matrix.s",
    "timeconv.dense_bytes", "timeconv.madds",
    "direct.solve_linear_dirichlet.calls", "direct.solve_linear_dirichlet.s",
    "direct.solve_direct.s", "direct.profiles.misses",
    "grids.DispersiveInverse.solve.calls", "grids.DispersiveInverse.solve.s",
    "inverse.reconstruct.s", "inverse.solve_window.calls", "inverse.windows",
    "inverse.halvings", "inverse.window_yield", "inverse.apply_map_A.calls",
    "inverse.apply_map_A.self_s", "inverse.picard_yield", "inverse.state_distance.s",
    "inverse.kernel_rel_l2",
    "energy.solution_norm.s",
    "equivalence.build_setup.s", "equivalence.check_compatibility.s",
    "derivatives.derivative_stack.s", "expressions.differentiate.calls",
    "csvio.write_field_long.s", "csvio.write_columns.s", "csvio.bytes", "csvio.mb_per_s",
    "trace.wall_s", "trace.overhead_s",
)
UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
         "timeconv.dense_bytes": "B_computed", "timeconv.madds": "madd_computed",
         "csvio.bytes": "B", "csvio.mb_per_s": "MB/s",
         "inverse.window_yield": "ratio", "inverse.picard_yield": "ratio",
         "inverse.kernel_rel_l2": "ratio"}


def unit(name):
    return UNITS.get(name) or ("s" if name.endswith((".s", "_s")) else "count")


def kernel_of(seed):
    rng = random.Random(seed)
    return round(0.3 + 0.2 * rng.random(), 4), round(1.5 + rng.random(), 4)


def cli_config(wl, a, b):
    return f"""[problem]
beta = 0.1
p = 1.0
q = 1.0
ell = 1.0
T = {wl["T"]!r}

[grid]
nx = {wl["nx"]}
nt = {wl["nt"]}

[functions]
u0 = {wl["u0"]}
u1 = 0*x
phi = sin({PI}*x)^3
k_true = {a!r}*cos({b!r}*t)

[inverse]
tol = 1e-10
max_iter = 50
sign_variant = plus
derivative_mode = auto
smooth_sigma = 0.0

[noise]
sigma = 0.0
seed = 12345
"""


class Sample:
    """Outcome of one child interpreter."""

    def __init__(self):
        self.ok = False
        self.why = ""
        self.wall = self.setup = self.rss_mb = self.duration = None
        self.speed = None  # PROBE_REF_S / probe seconds around this sample
        self.digest = None
        self.rel_l2 = None
        self.spans = None


class Bench:
    def __init__(self, name, seed, seconds, trace):
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.kernel = kernel_of(seed)
        self.started = time.monotonic()
        self.count = 0
        self.reference = None  # digest every sample of this run must repeat
        self.reference_rel_l2 = None
        self.probe_s = None  # the latest host_probe(), also the next sample's "before"
        self.probes = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        shutil.rmtree(WORK, ignore_errors=True)
        WORK.mkdir()
        if self.wl["kind"] == "cli":
            (WORK / "run.ini").write_text(cli_config(self.wl, *self.kernel), encoding="ascii")

    # -- child processes -------------------------------------------------

    def _spawn(self, argv, stdout, stderr):
        """Run argv to completion; return (exit code, seconds, peak RSS MB,
        spawn time on the monotonic clock)."""
        timeout = max(1.0, DEADLINE_S - (time.monotonic() - self.started))
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            actions = [(os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                       (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
            t0 = time.monotonic()
            pid = os.posix_spawn(argv[0], argv, self.env, file_actions=actions)
            timer = threading.Timer(timeout, os.kill, (pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(pid, 0)
            except BaseException:  # SIGTERM or ^C: take the sample down too
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                raise
            finally:
                timer.cancel()
            t1 = time.monotonic()
        return os.waitstatus_to_exitcode(status), t1 - t0, usage.ru_maxrss / 1024.0, t0

    def sample(self, traced=False, setup_only=False):
        i = self.count
        self.count += 1
        s = Sample()
        tag = f"s{i}"
        out_dir = WORK / f"out{i}"
        spec = {
            "kind": self.wl["kind"], "trace": traced, "setup_only": setup_only,
            "kernel": list(self.kernel),
            "result": str(WORK / f"{tag}.result.json"),
            "spans": str(WORK / f"{tag}.spans.json"),
        }
        if self.wl["kind"] == "cli":
            spec["argv"] = [self.wl["command"], "--config", str(WORK / "run.ini"),
                            "--out", str(out_dir)] + self.wl["flags"]
        else:
            a, b = self.kernel
            spec["params"] = {key: self.wl[key] for key in ("nx", "nt", "T", "u0", "force")}
            spec["params"]["kernel"] = f"{a!r}*cos({b!r}*t)"
        spec_path = WORK / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec))
        before = self.probe_s if self.probe_s is not None else self.probe()
        code, s.duration, s.rss_mb, spawned = self._spawn(
            [sys.executable, str(HERE / "sample.py"), str(spec_path)],
            WORK / f"{tag}.stdout", WORK / f"{tag}.stderr")
        s.speed = PROBE_REF_S / (0.5 * (before + self.probe()))
        try:
            result = json.loads(Path(spec["result"]).read_text())
        except (OSError, ValueError):
            result = {}
        if "ready" in result:
            s.setup = result["ready"] - spawned
        if setup_only:
            s.ok = code == 0 and s.setup is not None
            return s
        s.wall = result.get("wall", s.duration)
        if code != 0:
            s.why = f"exit code {code}: " + _tail(WORK / f"{tag}.stderr")
        elif self.wl["kind"] == "cli":
            s.why = self._check_cli(s, out_dir)
        else:
            s.why = self._check_inproc(s, result)
        if not s.why and self.reference is not None and s.digest != self.reference:
            s.why = "outputs differ from the first sample of this run"
        if traced and not s.why:
            s.spans = json.loads(Path(spec["spans"]).read_text())
            s.why = self._check_spans(s.spans)
        s.ok = not s.why
        if s.ok and self.reference is None:
            self.reference = s.digest
        shutil.rmtree(out_dir, ignore_errors=True)
        return s

    def probe(self):
        self.probe_s = host_probe()
        self.probes.append(self.probe_s)
        return self.probe_s

    # -- output checks -----------------------------------------------------

    def _check_inproc(self, s, result):
        if "digest" not in result:
            return "no result written"
        s.digest, s.rel_l2 = result["digest"], result["rel_l2"]
        if not result["finite"]:
            return "non-finite k or v"
        if not s.rel_l2 <= self.wl["ceiling"]:
            return f"kernel_rel_l2 {s.rel_l2!r} above ceiling {self.wl['ceiling']!r}"
        return ""

    def _check_cli(self, s, out_dir):
        if not out_dir.is_dir():
            return "no output directory"
        digest = hashlib.sha256()
        files = sorted(out_dir.iterdir())
        for path in files:
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        s.digest = digest.hexdigest()
        if self.reference is not None:
            # byte-identical to a sample that passed every check below
            s.rel_l2 = self.reference_rel_l2
            return ""
        import numpy as np

        tables = {}
        for path in files:
            if path.suffix == ".csv":
                try:
                    tables[path.name] = _parse_csv(path.read_text(encoding="ascii"))
                except ValueError as exc:
                    return f"{path.name}: {exc}"
        for name in ("k.csv", "v.csv", "y.csv"):
            if name not in tables:
                return f"{name} missing"
            if not np.all(np.isfinite(tables[name][1])):
                return f"{name} has non-finite values"
        t, k = tables["k.csv"][1][:, 0], tables["k.csv"][1][:, 1]
        s.rel_l2 = rel_l2(k, *self.kernel, t[1] - t[0])
        if not s.rel_l2 <= self.wl["ceiling"]:
            return f"kernel_rel_l2 {s.rel_l2!r} above ceiling {self.wl['ceiling']!r}"
        self.reference_rel_l2 = s.rel_l2
        return ""

    def _check_spans(self, dump):
        missing = [p for p in EXPECTED_PATCHES if p not in dump["patched"]]
        if missing:
            return f"call sites not wrapped: {missing}"
        names = dump["names"]
        seen = {names[span[0]] for span in dump["spans"]}
        silent = [n for n in EXPECTED_SPANS[self.name] if n not in seen]
        if silent:
            return f"layers recorded no calls: {silent}"
        return ""

    # -- runs --------------------------------------------------------------

    def collect(self, step):
        """Call ``step`` (one sample or one pair) until the next call would
        overrun ``--seconds``; at least once."""
        out, durations = [], []
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            out.append(step())
            durations.append(time.monotonic() - t0)
            if time.monotonic() - start + statistics.median(durations) > self.seconds:
                return out

    def setups(self, samples):
        """Scaled set-up seconds of the samples, topped up to MIN_SETUPS."""
        values = [s.setup * s.speed for s in samples if s.setup is not None]
        while len(values) < MIN_SETUPS:
            extra = self.sample(setup_only=True)
            if not extra.ok:
                break
            values.append(extra.setup * extra.speed)
        return values

    def import_times(self, runs=3):
        """Median over fresh ``-X importtime`` runs of each import time."""
        stmt = "import memkernel.cli" if self.wl["kind"] == "cli" else "import memkernel"
        err = WORK / "importtime.stderr"
        parsed = []
        for _ in range(runs):
            code, *_ = self._spawn([sys.executable, "-X", "importtime", "-c", stmt],
                                   WORK / "importtime.stdout", err)
            if code != 0:
                print(f"FAILED import probe: {_tail(err)}")
                return None
            parsed.append(_parse_importtime(err.read_text()))
        return {k: statistics.median(p.get(k, 0.0) for p in parsed) for k in parsed[0]}


def host_probe():
    """Seconds PROBE_ARGV takes now."""
    t0 = time.perf_counter()
    subprocess.run(PROBE_ARGV, check=True, timeout=60, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def _tail(path, limit=300):
    try:
        text = Path(path).read_text(errors="replace").strip()
    except OSError:
        return ""
    return text[-limit:].replace("\n", " | ")


def _parse_csv(text):
    """(header, float array) of a CSV product; every field must be a number."""
    import numpy as np

    lines = text.split("\n")
    if lines[-1] != "":
        raise ValueError("missing final newline")
    header, rows = lines[0], lines[1:-1]
    width = header.count(",")
    if any(row.count(",") != width for row in rows):
        raise ValueError("ragged rows")
    flat = ",".join(rows).split(",") if rows else []
    values = np.array(flat, dtype=float)  # raises ValueError on a non-number
    return header, values.reshape(len(rows), width + 1)


def _parse_importtime(text):
    """Cumulative import seconds of each memkernel module; under "total",
    that of the outermost one (everything the import statement loaded)."""
    out = {}
    for line in text.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(memkernel\S*)$", line)
        if m:
            out[m.group(2)] = int(m.group(1)) * 1e-6
    out["total"] = max(out.values())
    return out


def percentile_note(values):
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return f"max={max(values)!r} (n={n}, too few samples for a tail percentile)"
    p = math.floor(100 * (1 - 10 / n))
    q = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return f"p{p}={q!r} (n={n})"


def layer_metrics(samples, untraced, imports, rel):
    """Per-layer metrics: medians over the traced samples of each value."""
    per_sample = []
    for s in samples:
        names, spans, counts = s.spans["names"], s.spans["spans"], s.spans["counts"]
        st = layer_stats(names, spans)
        m = {}
        for metric in PER_LAYER:
            span, _, kind = metric.rpartition(".")
            if span in st:
                m[metric] = st[span][kind]
        attempts = st["inverse.solve_window"]["calls"]
        maps = st["inverse.apply_map_A"]["calls"]
        csv_s = outermost_seconds(names, spans, "csvio.")
        m.update({
            "timeconv.dense_bytes": counts["timeconv.dense_bytes"],
            "timeconv.madds": counts["timeconv.madds"],
            "direct.profiles.misses": s.spans["profiles_misses"],
            "inverse.windows": counts["inverse.windows"],
            "inverse.halvings": counts["inverse.halvings"],
            "inverse.window_yield": counts["inverse.windows"] / attempts if attempts else 0.0,
            "inverse.picard_yield": counts["inverse.iterations"] / maps if maps else 0.0,
            "csvio.bytes": counts["csvio.bytes"],
            "csvio.mb_per_s": counts["csvio.bytes"] / 1e6 / csv_s if csv_s > 0 else 0.0,
            "trace.wall_s": s.wall * s.speed,
        })
        per_sample.append(m)
    metrics = {k: statistics.median(m[k] for m in per_sample) for k in per_sample[0]}
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(
        s.wall * s.speed for s in untraced)
    metrics["import.memkernel.s"] = imports["total"]
    metrics["import.derivatives.s"] = imports.get("memkernel.derivatives", 0.0)
    metrics["inverse.kernel_rel_l2"] = rel if rel is not None else 0.0
    return metrics


def blas_threads():
    """OpenBLAS thread count as the bundled library reports it."""
    try:
        import numpy

        libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
        for path in sorted(libs.glob("*openblas*")):
            lib = ctypes.CDLL(str(path))
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return fn()
    except (ImportError, OSError):
        pass
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or "unknown"


def run_metadata(bench, cpus):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "missing"

    return {
        "commit": commit or "unknown (not a git checkout)",
        "workload": bench.name, "seed": bench.seed,
        "kernel": f"{bench.kernel[0]!r}*cos({bench.kernel[1]!r}*t)",
        "python": sys.version.split()[0], "numpy": version("numpy"),
        "scipy": version("scipy"), "nproc": len(cpus),
        "pinned_cpu": min(cpus), "probe_ref_s": PROBE_REF_S,
        "blas_threads": blas_threads(),
        # tracked, never gated: a performance change may add code
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((SRC / "memkernel").glob("*.py"))),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.environ.update(BLAS_ENV)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # samples and probes share one CPU, so the probe sees the samples' host speed
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    if not (SRC / "memkernel" / "__init__.py").is_file():
        print(f"no memkernel sources under {SRC}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(str(SRC / "memkernel"), quiet=1):
        print("byte-compiling memkernel failed", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print("meta " + json.dumps(run_metadata(bench, cpus)))
    if bench.trace:
        pairs = bench.collect(lambda: (bench.sample(), bench.sample(traced=True)))
        untraced = [u for u, _ in pairs]
        traced = [t for _, t in pairs]
        samples = untraced + traced
        good_t = [s for s in traced if s.ok]
        good_u = [s for s in untraced if s.ok]
        imports = bench.import_times()
    else:
        samples = bench.collect(bench.sample)
    attempted, failed = len(samples), sum(not s.ok for s in samples)
    if bench.trace and imports is None:
        attempted, failed = attempted + 1, failed + 1
    good = [s for s in samples if s.ok] or samples
    for s in samples:
        if not s.ok:
            print(f"FAILED sample: {s.why}")
    rel = next((s.rel_l2 for s in good if s.rel_l2 is not None), None)

    if bench.trace:
        if good_t and good_u and imports:
            metrics = layer_metrics(good_t, good_u, imports, rel)
        else:
            metrics = dict.fromkeys(PER_LAYER, 0.0)
        print(f"{bench.name}: traced samples={len(traced)} failed={failed}/{attempted} "
              f"tracing overhead {metrics['trace.overhead_s']!r} s")
        for n in PER_LAYER:
            print(f"  {n} = {metrics[n]!r} {unit(n)}")
        names = PER_LAYER
    else:
        walls = [s.wall * s.speed for s in good]
        setups = bench.setups(good) or [s.duration * s.speed for s in good]
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(s.rss_mb for s in good),
        }
        print(f"{bench.name}: samples={attempted} failed_ratio={failed / attempted!r} "
              f"({failed}/{attempted})")
        print(f"  wall_s median={metrics['wall_s']!r} s {percentile_note(walls)}")
        print(f"  setup_s median={metrics['setup_s']!r} s (n={len(setups)})")
        print(f"  peak_rss_mb median={metrics['peak_rss_mb']!r} MB (n={len(good)})")
        print(f"  unscaled: wall median={statistics.median(s.wall for s in good)!r} s, "
              f"host probe median={statistics.median(bench.probes)!r} s "
              f"(n={len(bench.probes)}, reference {PROBE_REF_S!r} s)")
        if rel is not None:
            print(f"  kernel_rel_l2={rel!r} (ceiling {bench.wl['ceiling']!r})")
        names = END_TO_END
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": unit(n)} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
