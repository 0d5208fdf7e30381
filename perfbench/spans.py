"""Span tracer that wraps memkernel's layers from outside the package.

Every function in ``TARGETS`` is replaced, for the length of one traced
sample, at each name a caller can look it up by: the module global of every
``memkernel`` module that holds it (``from .timeconv import conv`` makes
``memkernel.inverse.conv`` such a name) and, for methods, the class
attribute.  Each call records a span ``(target, parent span, start, end)``
in memory; the sample writes them out when it ends and run.py derives
per-layer counts, busy time and self time from them.

Nothing inside ``src/`` is edited: ``install`` patches, ``uninstall``
restores, and both check that no alias was missed or left behind.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time

# Layer = the defining module's short name; the span is named "<layer>.<attr>".
TARGETS = (
    ("timeconv", "conv"),
    ("timeconv", "conv_field"),
    ("timeconv", "convolution_matrix"),
    ("direct", "solve_direct"),
    ("direct", "solve_linear_dirichlet"),
    ("grids", "DispersiveInverse.solve"),
    ("inverse", "reconstruct"),
    ("inverse", "solve_window"),
    ("inverse", "apply_map_A"),
    ("inverse", "state_distance"),
    ("energy", "solution_norm"),
    ("energy", "energy_series"),
    ("equivalence", "build_setup"),
    ("equivalence", "check_compatibility"),
    ("derivatives", "derivative_stack"),
    ("expressions", "differentiate"),
    ("csvio", "write_text"),
    ("csvio", "write_columns"),
    ("csvio", "write_timeseries"),
    ("csvio", "write_field_long"),
    ("csvio", "write_field_matrix"),
)


def _shape(a):
    return getattr(a, "shape", None) or (len(a),)


# Work computed from argument shapes at the wrapper (not measured): the dense
# matrix costs 8*n^2 bytes, and its product with an (n, m) operand n*n*m
# multiply-adds.
def _count_matrix(counts, args, kwargs):
    n = _shape(args[0])[0]
    counts["timeconv.dense_bytes"] += 8 * n * n


def _count_conv(counts, args, kwargs):
    n = _shape(args[0])[0]
    m = 1
    for d in _shape(args[1])[1:]:
        m *= d
    counts["timeconv.madds"] += n * n * m


def _count_text(counts, args, kwargs):
    text = args[1] if len(args) > 1 else kwargs["text"]
    counts["csvio.bytes"] += len(text.encode("ascii"))


def _count_windows(counts, rec):
    counts["inverse.windows"] += len(rec.windows)
    counts["inverse.halvings"] += sum(w.halvings for w in rec.windows)
    counts["inverse.iterations"] += sum(w.iterations for w in rec.windows)


_BEFORE = {
    "timeconv.convolution_matrix": _count_matrix,
    "timeconv.conv": _count_conv,
    "timeconv.conv_field": _count_conv,
    "csvio.write_text": _count_text,
}
_AFTER = {"inverse.reconstruct": _count_windows}
COUNTERS = (
    "timeconv.dense_bytes", "timeconv.madds", "csvio.bytes",
    "inverse.windows", "inverse.halvings", "inverse.iterations",
)


def _modules():
    pkg = importlib.import_module("memkernel")
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        mods.append(importlib.import_module(f"memkernel.{info.name}"))
    return mods


def _resolve(layer, path):
    owner = importlib.import_module(f"memkernel.{layer}")
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Records spans for every call into ``TARGETS`` between install and
    uninstall.  Spans live in ``self.spans`` as ``[target, parent, t0, t1]``."""

    def __init__(self):
        self.names = [f"{layer}.{path}" for layer, path in TARGETS]
        self.spans = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack = [-1]
        self._patched = []  # (owner, attribute, original, dotted name)
        self._wrappers = set()

    def _wrap(self, idx, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        before = _BEFORE.get(self.names[idx])
        after = _AFTER.get(self.names[idx])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(counts, args, kwargs)
            i = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(i)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[i] = [idx, parent, t0, t1]
            if after is not None:
                after(counts, out)
            return out

        return wrapper

    def install(self):
        """Patch every name under which a caller can reach a target."""
        by_id = {}
        for idx, (layer, path) in enumerate(TARGETS):
            owner, attr = _resolve(layer, path)
            original = vars(owner)[attr]
            wrapper = self._wrap(idx, original)
            self._wrappers.add(wrapper)
            by_id[id(original)] = (original, wrapper)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                self._patched.append(
                    (owner, attr, original, f"{owner.__module__}.{owner.__name__}.{attr}"))
        for mod in _modules():
            for name, value in list(vars(mod).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, name, hit[1])
                    self._patched.append((mod, name, value, f"{mod.__name__}.{name}"))
        missed = [name for _, name, _ in self._aliases(set(by_id))]
        if missed:
            raise RuntimeError(f"targets still reachable unwrapped: {missed}")
        return self

    def uninstall(self):
        """Restore every patched name; raise if any wrapper is left behind."""
        for owner, attr, original, _ in reversed(self._patched):
            setattr(owner, attr, original)
        wrong = [name for owner, attr, original, name in self._patched
                 if vars(owner)[attr] is not original]
        left = [name for _, name, _ in self._aliases({id(w) for w in self._wrappers})]
        if wrong or left:
            raise RuntimeError(f"wrappers not restored: {wrong + left}")

    @staticmethod
    def _aliases(ids):
        """(owner, qualified name, object) of every module global or class
        attribute in memkernel whose object id is in ``ids``."""
        found = []
        for mod in _modules():
            for name, value in vars(mod).items():
                if id(value) in ids:
                    found.append((mod, f"{mod.__name__}.{name}", value))
                if isinstance(value, type) and value.__module__ == mod.__name__:
                    for attr, member in vars(value).items():
                        if id(member) in ids:
                            found.append((value, f"{mod.__name__}.{name}.{attr}", member))
        return found

    def dump(self):
        return {"names": self.names, "spans": self.spans, "counts": self.counts,
                "patched": sorted(name for *_, name in self._patched)}


def layer_stats(names, spans):
    """Per span name: calls, busy seconds (spans not nested in a span of the
    same name) and self seconds (busy minus time covered by child spans)."""
    child = [0.0] * len(spans)
    for _, parent, t0, t1 in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    stats = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in names}
    for i, (idx, parent, t0, t1) in enumerate(spans):
        entry = stats[names[idx]]
        entry["calls"] += 1
        entry["self_s"] += (t1 - t0) - child[i]
        p = parent
        while p >= 0 and spans[p][0] != idx:
            p = spans[p][1]
        if p < 0:
            entry["s"] += t1 - t0
    return stats


def outermost_seconds(names, spans, prefix):
    """Seconds inside spans whose name starts with ``prefix`` and that have
    no ancestor with that prefix (the layer's total busy time)."""
    total = 0.0
    for idx, parent, t0, t1 in spans:
        if not names[idx].startswith(prefix):
            continue
        p = parent
        while p >= 0 and not names[spans[p][0]].startswith(prefix):
            p = spans[p][1]
        if p < 0:
            total += t1 - t0
    return total
