"""Span tracer for the benchmark's traced run.

The tracer wraps every public function of each qgame module at every name a
caller uses for it: `qgame.equilibria.payoffs_matrix_path`,
`qgame.qmat.validate_density_matrix` and `qgame.cli.verify_profile_nash` are
all the same kind of binding.  A span records its name, start, end, parent
span and op id.  Spans stay in memory, in flat arrays, until the pass ends;
`uninstall` restores the original bindings, so the untraced run patches
nothing.

A span's self time is its duration minus the durations of its direct
children.  The harness times each op from outside; the part of that wall time
no span covers is reported as unattributed, so per-layer self times plus the
remainder add up to op wall time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import math
import statistics
import time
from array import array

import numpy as np

from oracles import axis_vector

LAYERS = ("cli", "equilibria", "discord", "quantize", "games", "qmat")
PAYOFF_ROUTES = ("quantize.payoffs_matrix_path", "quantize.payoffs_closed_form")
VERDICT = "equilibria.verify_profile_nash"
DISCORD = "discord.quantum_discord"
ENTROPY = "discord.conditional_entropy"
# evaluations within 1e-15 of the running best do not count as improving,
# the same rule the package's minimizer applies
_IMPROVE_TOL = 1e-15

# (name, unit, better) of every metric the traced run reports
PER_LAYER = (
    ("qmat.validate_density_matrix.calls_per_op", "calls/op", "lower"),
    ("qmat.calls_per_op", "calls/op", "lower"),
    ("qmat.self_ms_per_op", "ms", "lower"),
    ("qmat.share", "fraction", "lower"),
    ("quantize.payoffs_matrix_path.calls_per_op", "calls/op", "lower"),
    ("quantize.payoffs_matrix_path.us_per_call", "us", "lower"),
    ("quantize.payoffs_closed_form.us_per_call", "us", "lower"),
    ("quantize.self_ms_per_op", "ms", "lower"),
    ("quantize.share", "fraction", "lower"),
    ("quantize.route_drift_max", "payoff", "lower"),
    ("equilibria.payoff_evals_per_verdict", "calls", "lower"),
    ("equilibria.self_ms_per_op", "ms", "lower"),
    ("equilibria.share", "fraction", "lower"),
    ("discord.conditional_entropy.calls_per_op", "calls/op", "lower"),
    ("discord.conditional_entropy.us_per_call", "us", "lower"),
    ("discord.distinct_axis_ratio", "fraction", "higher"),
    ("discord.improving_eval_ratio", "fraction", "higher"),
    ("discord.self_ms_per_op", "ms", "lower"),
    ("discord.share", "fraction", "lower"),
    ("discord.oracle_error_max", "bits", "lower"),
    ("games.self_ms_per_op", "ms", "lower"),
    ("cli.self_ms_per_op", "ms", "lower"),
    ("cli.share", "fraction", "lower"),
    ("trace.op_ms_per_op", "ms", "lower"),
    ("trace.unattributed_ms_per_op", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


class Tracer:
    """Wraps qgame's public functions and records one span per call."""

    def __init__(self, package):
        modules = [importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS]
        targets = {}
        for layer, mod in zip(LAYERS, modules):
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    targets[fn] = f"{layer}.{attr}"
        self.names = sorted(set(targets.values()))
        self.ids = {name: i for i, name in enumerate(self.names)}
        # the entropy scan's axes and values feed the discord ratios
        wrappers = {fn: self._wrap(fn, self.ids[name], name == ENTROPY)
                    for fn, name in targets.items()}
        self._bindings = [(mod, attr, val, wrappers[val])
                          for mod in (package, *modules)
                          for attr, val in list(vars(mod).items())
                          if inspect.isfunction(val) and val in wrappers]
        self.reset()

    def reset(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.captured = []
        self.stack = [-1]
        self.op = -1

    def install(self) -> None:
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)

    def _wrap(self, fn, nid: int, capture: bool):
        perf = time.perf_counter
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tr.name)
            tr.name.append(nid)
            tr.parent.append(tr.stack[-1])
            tr.op_id.append(tr.op)
            tr.end.append(0.0)
            tr.stack.append(idx)
            tr.start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.end[idx] = perf()
                tr.stack.pop()
            if capture:
                tr.captured.append((idx, args, kwargs, result))
            return result

        return wrapper

    # ------------------------------------------------------------ analysis

    def _arrays(self):
        name = np.frombuffer(self.name, dtype=np.intc).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.intc).astype(np.int64)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        return name, parent, dur

    def analyse(self) -> dict:
        """Totals of one pass: calls, inclusive and self time per function,
        payoff evaluations per verdict and the discord scan's axis counts."""
        name, parent, dur = self._arrays()
        n_names = len(self.names)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=name.size)
        self_time = dur - child
        calls = np.bincount(name, minlength=n_names)
        incl = np.bincount(name, weights=dur, minlength=n_names)
        own = np.bincount(name, weights=self_time, minlength=n_names)

        evals = []
        if VERDICT in self.ids:
            verdict_id = self.ids[VERDICT]
            anc = _nearest_ancestor(name, parent, verdict_id)
            routes = np.isin(name, [self.ids[r] for r in PAYOFF_ROUTES if r in self.ids])
            per_span = np.bincount(anc[routes & (anc >= 0)], minlength=name.size)
            evals = per_span[name == verdict_id].tolist()

        groups = {}
        if self.captured:
            anc = _nearest_ancestor(name, parent, self.ids[DISCORD])
            for idx, args, kwargs, value in self.captured:
                axis = kwargs["axis"] if "axis" in kwargs else args[1]
                groups.setdefault(int(anc[idx]), []).append((axis, value))
        n_evals = distinct = improving = 0
        for seq in groups.values():
            n_evals += len(seq)
            distinct += len({_measurement_key(axis) for axis, _ in seq})
            best = math.inf
            for _, value in seq:
                if value < best - _IMPROVE_TOL:
                    best = value
                    improving += 1

        return {
            "spans": int(name.size),
            "calls": dict(zip(self.names, calls.tolist())),
            "incl_s": dict(zip(self.names, incl.tolist())),
            "self_s": dict(zip(self.names, own.tolist())),
            "evals_per_verdict": evals,
            "entropy_evals": n_evals,
            "entropy_distinct": distinct,
            "entropy_improving": improving,
        }

    def write_spans(self, path) -> None:
        """Write the pass's spans as gzipped CSV, one row per span."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span,op,parent,name,start_s,end_s\n")
            for i in range(len(self.name)):
                fh.write(f"{i},{self.op_id[i]},{self.parent[i]},{self.names[self.name[i]]},"
                         f"{self.start[i]:.9f},{self.end[i]:.9f}\n")


def _nearest_ancestor(name, parent, target: int) -> np.ndarray:
    """Index of each span's closest enclosing span named `target`, or -1."""
    found = np.full(name.size, -1, dtype=np.int64)
    cur = parent.copy()
    while True:
        live = (found < 0) & (cur >= 0)
        if not live.any():
            return found
        hit = live.copy()
        hit[live] = name[cur[live]] == target
        found[hit] = cur[hit]
        step = live & ~hit
        cur[step] = parent[cur[step]]
        cur[~step] = -1


def _measurement_key(axis) -> tuple:
    """One key per projective measurement: n and -n, and every azimuth at a
    pole, are the same measurement."""
    n = axis_vector(float(axis[0]), float(axis[1]))
    n = np.where(np.abs(n) < 1e-12, 0.0, n)
    for comp in (n[2], n[0], n[1]):
        if comp != 0.0:
            if comp < 0:
                n = -n
            break
    return tuple(np.round(n, 9) + 0.0)


def layer_metrics(passes: list, n_ops: int, untraced_s: float, traced_s: float,
                  diag: dict) -> dict:
    """Per-layer metrics from the traced passes.

    Counts come from the first pass (every pass runs the same inputs, so they
    repeat exactly); times are totals over all passes, so that self times
    plus the unattributed remainder add up to op wall time.
    """
    first = passes[0]
    calls = first["calls"]
    ops_total = n_ops * len(passes)

    def total(key, name):
        return sum(p[key].get(name, 0.0) for p in passes)

    def layer_self(layer):
        return sum(total("self_s", n) for n in first["self_s"] if n.startswith(layer + "."))

    def per_call_us(name):
        count = sum(p["calls"].get(name, 0) for p in passes)
        return total("incl_s", name) / count * 1e6 if count else 0.0

    out = {
        "qmat.validate_density_matrix.calls_per_op":
            calls.get("qmat.validate_density_matrix", 0) / n_ops,
        "qmat.calls_per_op":
            sum(c for n, c in calls.items() if n.startswith("qmat.")) / n_ops,
        "quantize.payoffs_matrix_path.calls_per_op":
            calls.get("quantize.payoffs_matrix_path", 0) / n_ops,
        "quantize.payoffs_matrix_path.us_per_call": per_call_us("quantize.payoffs_matrix_path"),
        "quantize.payoffs_closed_form.us_per_call": per_call_us("quantize.payoffs_closed_form"),
        "quantize.route_drift_max": diag.get("route_drift_max", 0.0),
        "equilibria.payoff_evals_per_verdict":
            float(statistics.median(first["evals_per_verdict"]))
            if first["evals_per_verdict"] else 0.0,
        "discord.conditional_entropy.calls_per_op": calls.get(ENTROPY, 0) / n_ops,
        "discord.conditional_entropy.us_per_call": per_call_us(ENTROPY),
        "discord.distinct_axis_ratio":
            first["entropy_distinct"] / first["entropy_evals"] if first["entropy_evals"] else 0.0,
        "discord.improving_eval_ratio":
            first["entropy_improving"] / first["entropy_evals"] if first["entropy_evals"] else 0.0,
        "discord.oracle_error_max": diag.get("oracle_error_max", 0.0),
        "trace.op_ms_per_op": traced_s / ops_total * 1e3,
        "trace.overhead_ratio": traced_s / untraced_s,
    }
    attributed = 0.0
    for layer in LAYERS:
        own = layer_self(layer)
        attributed += own
        out[f"{layer}.self_ms_per_op"] = own / ops_total * 1e3
        out[f"{layer}.share"] = own / traced_s
    out["trace.unattributed_ms_per_op"] = (traced_s - attributed) / ops_total * 1e3
    return {name: out[name] for name, _, _ in PER_LAYER}
