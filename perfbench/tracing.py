"""Span tracer for the coopbeam benchmark.

The tracer wraps the public functions of each coopbeam layer from outside the
package and rebinds every module attribute that holds one of them, so calls
made through names imported with ``from .x import f`` are traced too.  Each
traced call records a span ``[name, start, end, parent, root]`` in memory:
``parent`` is the index of the enclosing span (-1 for none) and ``root`` the
index of the top-level solver call it belongs to (a span directly under
``experiments.run_experiment`` starts a new root).  Counts come only from the
functions' public return values.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

EXPERIMENT_SPAN = "experiments.run_experiment"


def _feasibility(counts, sol):
    counts["newton_steps"] += sol.iterations
    counts["infeasible"] += sol.status == "infeasible"
    counts["numerical_failures"] += sol.status == "numerical-failure"


def _bisection(counts, res):
    counts["checks"] += len(res.history)
    counts["saturated"] += bool(res.saturated)


def _randomization(counts, res):
    counts["candidates"] += res.candidates


def _algorithm1(counts, out):
    state = out[0]
    counts["outer_iters"] += state.iterations
    for step, accepted in state.accept_flags:
        kind = "rx" if step == "receivers" else "theta"
        counts[f"{kind}_attempts"] += 1
        counts[f"{kind}_accepts"] += bool(accepted)


def _ao_single_user(counts, out):
    counts["iters"] += out[0].iteration


# layer -> {public function: (metric group, result hook)}; span name is "layer.group"
SPANNED = {
    "channels": {
        "build_double_irs_scenario": ("build", None),
        "build_single_irs_baseline_A1": ("build", None),
        "build_single_irs_baseline_A2": ("build", None),
    },
    "metrics": {
        "effective_channel": ("effective_channel", None),
        "sinr_per_user": ("sinr_per_user", None),
    },
    "single_user": {
        "single_irs_opt": ("single_irs_opt", None),
        "ao_single_user": ("ao_single_user", _ao_single_user),
    },
    "multi_user": {
        "algorithm1": ("algorithm1", _algorithm1),
        "dft_codebook_search": ("dft_codebook_search", None),
        "build_p31_instance": ("build_instance", None),
        "build_p34_instance": ("build_instance", None),
        "mmse_receivers": ("receivers", None),
        "zf_receivers": ("receivers", None),
    },
    "sdp": {
        "feasibility_check": ("feasibility_check", _feasibility),
        "bisection_maxmin": ("bisection_maxmin", _bisection),
        "gaussian_randomization": ("gaussian_randomization", _randomization),
        "matched_filter_bound": ("matched_filter_bound", None),
    },
    "experiments": {
        "run_experiment": ("run_experiment", None),
    },
}

# called tens of thousands of times per draw inside ao_single_user: counted, not spanned
COUNTED = {"single_user": {"snr_value": "snr_value"}}

LAYERS = tuple(SPANNED)


class TraceError(RuntimeError):
    """The tracer could not cover every reference to a traced function."""


class Tracer:
    """Wraps the layer functions while installed; spans and counts stay in memory."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(Counter)
        self._stack = []
        self._patched = []  # (module, attribute, original)

    # -- installation ----------------------------------------------------

    def install(self):
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer, fns in SPANNED.items():
            module = sys.modules[f"coopbeam.{layer}"]
            for fname, (group, hook) in fns.items():
                fn = getattr(module, fname)
                wrappers[id(fn)] = (fn, self._spanned(fn, f"{layer}.{group}", hook))
        for layer, fns in COUNTED.items():
            module = sys.modules[f"coopbeam.{layer}"]
            for fname, group in fns.items():
                fn = getattr(module, fname)
                wrappers[id(fn)] = (fn, self._counted(fn, f"{layer}.{group}"))
        modules = _coopbeam_modules()
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))
        originals = {id(fn) for fn, _ in wrappers.values()}
        for module in modules:
            for attr, value in vars(module).items():
                inner = value.values() if isinstance(value, dict) else (value,)
                if any(id(v) in originals for v in inner):
                    self.uninstall()
                    raise TraceError(f"untraced copy reachable as {module.__name__}.{attr}")

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _spanned(self, fn, name, hook):
        spans, stack, counts = self.spans, self._stack, self.counts[name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            if parent < 0 or spans[parent][0] == EXPERIMENT_SPAN:
                root = sid
            else:
                root = spans[parent][4]
            span = [name, 0.0, 0.0, parent, root]
            spans.append(span)
            stack.append(sid)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                counts["calls"] += 1
            if hook is not None:
                hook(counts, out)
            return out

        return traced

    def _counted(self, fn, name):
        counts = self.counts[name]

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts["calls"] += 1
            return fn(*args, **kwargs)

        return counted

    # -- analysis ----------------------------------------------------------

    def deterministic_counts(self):
        """Every count (no times), keyed by span name; equal across same-seed runs."""
        return {name: dict(sorted(c.items())) for name, c in sorted(self.counts.items()) if c}

    def self_times(self):
        """(self seconds per span name, durations per span name)."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _root in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s = Counter()
        durations = defaultdict(list)
        for sid, (name, start, end, _parent, _root) in enumerate(self.spans):
            self_s[name] += (end - start) - covered[sid]
            durations[name].append(end - start)
        return self_s, durations

    def inclusive_times(self):
        """Seconds inside spans of each name, not counting a span nested in one of the same name."""
        out = Counter()
        for name, start, end, parent, _root in self.spans:
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                out[name] += end - start
        return out

    def write_spans(self, path):
        """One JSON object per line: id, name, start and end (s from the first span), parent, root."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, root) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": sid, "name": name, "start": round(start - t0, 9),
                         "end": round(end - t0, 9), "parent": parent, "root": root}
                    )
                    + "\n"
                )


def _coopbeam_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "coopbeam" or name.startswith("coopbeam."))]


def _ratio(num, den):
    return num / den if den else 0.0


def _quantile_ms(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0] * 1e3
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e3


def layer_metrics(tracer, overhead_ratio):
    """Per-layer metrics as {name: (value, unit)}; names match BENCHMARK.json."""
    self_s, durations = tracer.self_times()
    c = tracer.counts
    out = {}

    def calls_self(name):
        out[f"{name}.calls"] = (c[name]["calls"], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")

    fc = "sdp.feasibility_check"
    calls_self(fc)
    out[f"{fc}.p50_ms"] = (_quantile_ms(durations[fc], 50), "ms")
    out[f"{fc}.p99_ms"] = (_quantile_ms(durations[fc], 99), "ms")
    out[f"{fc}.newton_steps"] = (c[fc]["newton_steps"], "count")
    out[f"{fc}.newton_per_check"] = (_ratio(c[fc]["newton_steps"], c[fc]["calls"]), "steps/check")
    out[f"{fc}.infeasible_frac"] = (_ratio(c[fc]["infeasible"], c[fc]["calls"]), "ratio")
    out[f"{fc}.numerical_failures"] = (c[fc]["numerical_failures"], "count")

    bm = "sdp.bisection_maxmin"
    calls_self(bm)
    out[f"{bm}.checks_per_call"] = (_ratio(c[bm]["checks"], c[bm]["calls"]), "checks/call")
    out[f"{bm}.saturated"] = (c[bm]["saturated"], "count")

    gr = "sdp.gaussian_randomization"
    calls_self(gr)
    out[f"{gr}.candidates"] = (c[gr]["candidates"], "count")
    calls_self("sdp.matched_filter_bound")

    a1 = "multi_user.algorithm1"
    calls_self(a1)
    a1_durations = durations[a1]
    out[f"{a1}.p50_s"] = (statistics.median(a1_durations) if a1_durations else 0.0, "s")
    out[f"{a1}.outer_iters_mean"] = (_ratio(c[a1]["outer_iters"], c[a1]["calls"]), "iters")
    out[f"{a1}.theta_accept_ratio"] = (_ratio(c[a1]["theta_accepts"], c[a1]["theta_attempts"]), "ratio")
    out[f"{a1}.rx_accept_ratio"] = (_ratio(c[a1]["rx_accepts"], c[a1]["rx_attempts"]), "ratio")
    for name in ("multi_user.dft_codebook_search", "multi_user.build_instance",
                 "multi_user.receivers", "single_user.single_irs_opt"):
        calls_self(name)

    ao = "single_user.ao_single_user"
    calls_self(ao)
    out[f"{ao}.iters_mean"] = (_ratio(c[ao]["iters"], c[ao]["calls"]), "iters")
    out["single_user.snr_value.calls"] = (c["single_user.snr_value"]["calls"], "count")

    for name in ("metrics.effective_channel", "metrics.sinr_per_user", "channels.build"):
        calls_self(name)
    out[f"{EXPERIMENT_SPAN}.self_s"] = (self_s[EXPERIMENT_SPAN], "s")
    for layer in LAYERS:
        if layer != "experiments":
            out[f"{layer}.self_s"] = (
                sum(v for k, v in self_s.items() if k.startswith(layer + ".")), "s"
            )
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out
