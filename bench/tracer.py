"""In-memory span tracer over the public functions of the hemiflow layers.

The tracer replaces each traced function by a wrapper at every module
attribute that binds it (``hemiflow.model.epsilon`` as well as
``hemiflow.bubbles.epsilon``), so a call is recorded whichever name the
caller used.  Spans are recorded only while an op span is open; each span
keeps its parent, and the whole list stays in memory until ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (layer, attribute path inside hemiflow.<layer>) for every traced function;
# the metric prefix is "<layer>.<function>" with any class name dropped
TRACED = (
    ("geometry", "geodesic_distance"),
    ("geometry", "tangent_basis"),
    ("geometry", "geodesic_step"),
    ("fields", "ScalarField.chart_data"),
    ("fields", "ScalarField.tangent_gradient"),
    ("fields", "ScalarField.tangent_hessian"),
    ("fields", "ScalarField.boundary_hessian"),
    ("fields", "ScalarField.min_max"),
    ("bubbles", "epsilon"),
    ("bubbles", "epsilon_dlambda"),
    ("bubbles", "epsilon_da"),
    ("bubbles", "ChartedBubble.build"),
    ("constants", "compute_constants"),
    ("model", "ReducedModel.frames"),
    ("model", "ReducedModel.assemble"),
    ("model", "ReducedModel.vbar_budget"),
    ("model", "ReducedModel.remainder_budgets"),
    ("model", "ReducedModel.gradient_components"),
    ("model", "ReducedModel.grad_a"),
    ("model", "ReducedModel.normalize_alphas"),
    ("model", "ReducedModel.imbalances"),
    ("flow", "PseudogradientFlow.classify_region"),
    ("flow", "PseudogradientFlow.pseudogradient"),
    ("flow", "PseudogradientFlow.decrease_certificate"),
    ("flow", "PseudogradientFlow.integrate"),
    ("flow", "PseudogradientFlow.gamma_quantities"),
    ("landscape", "find_critical_points"),
    ("landscape", "check_assumptions"),
    ("census", "census_report"),
    ("census", "existence_check"),
)

# modules imported before wrapping so that every binding is visible
MODULES = ("geometry", "fields", "bubbles", "constants", "intervals", "model",
           "flow", "landscape", "census", "oracles", "verify", "config", "cli")

OP = "op"


def metric_name(layer: str, path: str) -> str:
    return f"{layer}.{path.rsplit('.', 1)[-1]}"


TRACED_NAMES = tuple(metric_name(layer, path) for layer, path in TRACED)

# a per-span count read from the result, for the derived ratios
COUNTS = {
    "model.frames": len,
    "flow.integrate": lambda traj: len(traj.points) - 1,
    "landscape.find_critical_points": len,
}


class Tracer:
    """Span store.  A span is (name, parent index, start ns, end ns, count)."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def op(self, count=None):
        """Context manager for one op: the root span of everything it calls."""
        return _OpSpan(self, count)

    def wrap(self, name: str, fn, count=None):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            value = None
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    value = count(result)
                return result
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                spans[sid] = (name, parent, t0, t1, value)

        traced.__wrapped_by_bench__ = fn
        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


class _OpSpan:
    def __init__(self, tracer: Tracer, count):
        self.tracer = tracer
        self.count = count

    def __enter__(self):
        tr = self.tracer
        self.sid = len(tr.spans)
        tr.spans.append(None)
        tr._stack.append(self.sid)
        self.t0 = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter_ns()
        tr = self.tracer
        tr._stack.pop()
        tr.spans[self.sid] = (OP, -1, self.t0, t1, self.count)
        return False


def install(tracer: Tracer) -> dict:
    """Wrap every traced function at each hemiflow module attribute bound to it.

    Returns {metric name: [qualified binding, ...]} for the bindings replaced.
    """
    mods = {m: importlib.import_module(f"hemiflow.{m}") for m in MODULES}
    scope = [mod for name, mod in sys.modules.items()
             if mod is not None and (name == "hemiflow" or name.startswith("hemiflow."))]
    bindings = {}
    for layer, path in TRACED:
        name = metric_name(layer, path)
        owner = mods[layer]
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        attr = parts[-1]
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, staticmethod):
            wrapper = staticmethod(tracer.wrap(name, raw.__func__, COUNTS.get(name)))
            setattr(owner, attr, wrapper)
            bindings[name] = [f"hemiflow.{layer}.{path}"]
            continue
        wrapper = tracer.wrap(name, raw, COUNTS.get(name))
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            bindings[name] = [f"hemiflow.{layer}.{path}"]
            continue
        found = []
        for mod in scope:
            for key, val in list(vars(mod).items()):
                if val is raw:
                    setattr(mod, key, wrapper)
                    found.append(f"{mod.__name__}.{key}")
        bindings[name] = sorted(found)
    return bindings


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def self_times(spans) -> list:
    """Per-span self time in ns: duration minus the union of child intervals."""
    children = [[] for _ in spans]
    for i, (_, parent, _, _, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, _, t0, t1, _) in enumerate(spans):
        covered = 0
        cur_lo = cur_hi = None
        for c in sorted(children[i], key=lambda k: spans[k][2]):
            lo, hi = max(spans[c][2], t0), min(spans[c][3], t1)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(t1 - t0 - covered)
    return out


def _ancestor_names(spans, i):
    parent = spans[i][1]
    while parent >= 0:
        yield spans[parent][0]
        parent = spans[parent][1]


def layer_metrics(spans) -> dict:
    """Per-op calls and self time of each traced function, and derived ratios.

    Op spans carry the op's bubble-pair count as their count.
    """
    selfs = self_times(spans)
    ops = sum(1 for s in spans if s[0] == OP)
    if ops == 0:
        raise ValueError("no op spans recorded")
    calls = dict.fromkeys(TRACED_NAMES, 0)
    self_ns = dict.fromkeys(TRACED_NAMES, 0)
    counts = dict.fromkeys(COUNTS, 0)
    pairs = chart_in_frames = integrate_assembles = integrate_direct = 0
    for i, (name, parent, _, _, value) in enumerate(spans):
        if name == OP:
            pairs += value or 0
            continue
        calls[name] += 1
        self_ns[name] += selfs[i]
        if value is not None:
            counts[name] += value
        if name == "fields.chart_data" and "model.frames" in _ancestor_names(spans, i):
            chart_in_frames += 1
        elif name == "model.assemble":
            if spans[parent][0] == "flow.integrate":
                integrate_direct += 1
            if "flow.integrate" in _ancestor_names(spans, i):
                integrate_assembles += 1
    out = {}
    for name in TRACED_NAMES:
        out[f"{name}.calls_per_op"] = calls[name] / ops
        out[f"{name}.self_ms_per_op"] = self_ns[name] / 1e6 / ops
    steps = counts["flow.integrate"]
    pair_evals = calls["bubbles.epsilon"] + calls["bubbles.epsilon_dlambda"] + calls["bubbles.epsilon_da"]
    out["fields.chart_data.per_frame"] = _ratio(chart_in_frames, counts["model.frames"])
    out["bubbles.pair_evals_per_pair"] = _ratio(pair_evals, pairs)
    out["flow.integrate.steps_per_op"] = steps / ops
    out["flow.integrate.accept_ratio"] = _ratio(steps, integrate_direct - calls["flow.integrate"])
    out["flow.integrate.assemble_per_step"] = _ratio(integrate_assembles, steps)
    out["landscape.records_per_op"] = counts["landscape.find_critical_points"] / ops
    return out


def _ratio(num, den) -> float:
    return num / den if den > 0 else 0.0
