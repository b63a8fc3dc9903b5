"""Span tracing for the traced perfbench run, installed from outside the program.

``Tracer.install`` replaces the public functions of each ``streamrate`` module
with wrappers on the module attributes.  Calls made inside the package look
those attributes up at call time (``compute_bounds`` ->
``solve_test_channel_single``, ``decode_rate`` -> ``conditional_variance``),
so they nest as child spans.  Spans are kept in memory as (op id, name,
start, end, parent) and written as JSON at the end of the run.

Per round the tracer keeps, for each wrapped function, its call count and its
self time (span duration minus the time its child spans cover), plus the
counters below.  Counters marked *computed* are derived from call arguments
and repeat exactly for the same inputs.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter

SPANNED = {
    "cli": ("main",),
    "gauss_markov": (
        "lower_bound_single", "solve_test_channel_single", "rate_upper_single",
        "rate_upper_multi", "eta_multi", "naive_wz_rate", "compute_bounds",
    ),
    "oracle": (
        "verify_single_burst_worst_case", "verify_multi_burst_worst_case",
        "verify_exchange_inequalities", "enumerate_multi_burst", "conditional_variance",
        "decode_rate", "decode_mmse",
    ),
    "sim": ("simulate_gm_stream", "sweep_burst_position", "simulate_binning"),
    "markov": (
        "stationary_distribution", "lossless_bounds", "conditional_entropy_lag",
        "window_conditional_entropy", "multiterminal_sum_rate",
    ),
    "sliding": ("rate_recovery", "layer_plan", "baseline_rates"),
}
# cheap inner functions: counted, not spanned, so their time stays in the caller
COUNTED = {"gauss_markov": ("gamma_single", "kalman_steady_sigma")}

# the layer whose self time should carry most of each workload's traced round
DOMINANT = {
    "bounds": "gauss_markov",
    "verify": "oracle",
    "montecarlo": "sim",
    "lossless": "markov.stationary_distribution",
}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    names = [(f"setup.import_{m}_s", "s") for m in ("numpy", "scipy", "streamrate")]
    names += [("cli.main.calls", "count"), ("cli.main.self_s", "s"), ("cli.nonzero_exits", "count")]
    for layer, fns in SPANNED.items():
        if layer == "cli":
            continue
        for fn in fns:
            names += [(f"{layer}.{fn}.calls", "count"), (f"{layer}.{fn}.self_s", "s")]
        names += [(f"{layer}.{fn}.calls", "count") for fn in COUNTED.get(layer, ())]
        if layer == "oracle":
            names += [("oracle.GaussianSystem.calls", "count"), ("oracle.patterns", "count"),
                      ("oracle.condvar_per_check", "1"), ("oracle.flops_computed", "flop")]
        if layer == "sim":
            names += [("sim.normal_draws", "count"), ("sim.draws_per_output", "1")]
        if layer == "gauss_markov":
            names += [("gauss_markov.evals_per_solve", "1"), ("gauss_markov.eta_per_multi", "1"),
                      ("gauss_markov.solve_reuse", "1")]
        names.append((f"{layer}.errors", "count"))
    names += [("trace.round_s", "s"), ("trace.dominant_share", "1"), ("trace.overhead", "1")]
    return names


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op_id = -1
        self._local = threading.local()
        self._installed: list = []
        self.begin_round()

    # -------------------------------------------------------------- install

    def install(self, streamrate) -> None:
        import streamrate.cli  # noqa: F401  (not imported by the package itself)

        typed = (streamrate.ValidationError, streamrate.NumericalError, streamrate.ConvergenceError)
        for layer, fns in SPANNED.items():
            module = getattr(streamrate, layer)
            for fn in fns:
                self._patch(module, fn, self._span(layer, fn, getattr(module, fn), typed))
        for layer, fns in COUNTED.items():
            module = getattr(streamrate, layer)
            for fn in fns:
                self._patch(module, fn, self._count(f"{layer}.{fn}.calls", getattr(module, fn)))
        system = streamrate.oracle.GaussianSystem
        self._patch(system, "__post_init__", self._count("oracle.GaussianSystem.calls", system.__post_init__))
        self._patch(streamrate.cli, "main", self._exit_counter(streamrate.cli.main))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()

    def _patch(self, owner, name, wrapper) -> None:
        self._installed.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    # -------------------------------------------------------------- wrappers

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, layer: str, fn_name: str, fn, typed):
        name = f"{layer}.{fn_name}"
        on_call = self._on_call.get(name)
        on_return = self._on_return.get(name)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if on_call is not None:
                on_call(self, args, kwargs)
            stack = self._stack()
            parent = stack[-1] if stack else None
            index = len(self.spans)
            self.spans.append(None)
            frame = [layer, 0.0, index]  # layer, child time, span index
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except typed:
                if parent is None or parent[0] != layer:
                    self.counts[f"{layer}.errors"] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                self.spans[index] = (self.op_id, name, start, end, parent[2] if parent else -1)
            if on_return is not None:
                on_return(self, result)
            return result

        return wrapped

    def _count(self, key: str, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapped

    def _exit_counter(self, main):
        @functools.wraps(main)
        def wrapped(*args, **kwargs):
            code = main(*args, **kwargs)
            if code != 0:
                self.counts["cli.nonzero_exits"] += 1
            return code

        return wrapped

    # computed counters, derived from call arguments and results
    def _condvar(self, args, kwargs):
        given = args[2] if len(args) > 2 else kwargs["given"]
        self.counts["oracle.flops_x3"] += len(given) ** 3

    def _stream(self, args, kwargs):
        cfg = args[0] if args else kwargs["cfg"]
        self.counts["sim.normal_draws"] += (2 * cfg.horizon + 1) * cfg.trials

    def _solve(self, args, kwargs):
        self.configs.add(args[0] if args else kwargs["cfg"])

    def _patterns(self, result):
        self.counts["oracle.patterns"] += len(result)

    _on_call = {
        "oracle.conditional_variance": _condvar,
        "sim.simulate_gm_stream": _stream,
        "gauss_markov.solve_test_channel_single": _solve,
    }
    _on_return = {"oracle.enumerate_multi_burst": _patterns}

    # -------------------------------------------------------------- rounds

    def begin_round(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.configs: set = set()

    def round_metrics(self, workload: str, round_s: float, units_by_tag: Counter) -> dict[str, float]:
        """Per-layer metrics of the round just finished."""
        m: dict[str, float] = {}
        for layer, fns in SPANNED.items():
            for fn in fns:
                m[f"{layer}.{fn}.calls"] = self.calls[f"{layer}.{fn}"]
                m[f"{layer}.{fn}.self_s"] = self.self_s[f"{layer}.{fn}"]
            m[f"{layer}.errors"] = self.counts[f"{layer}.errors"]
        for layer, fns in COUNTED.items():
            for fn in fns:
                m[f"{layer}.{fn}.calls"] = self.counts[f"{layer}.{fn}.calls"]
        m["cli.nonzero_exits"] = self.counts["cli.nonzero_exits"]
        m["oracle.GaussianSystem.calls"] = self.counts["oracle.GaussianSystem.calls"]
        m["oracle.patterns"] = self.counts["oracle.patterns"]
        m["oracle.flops_computed"] = self.counts["oracle.flops_x3"] / 3
        m["oracle.condvar_per_check"] = _ratio(self.calls["oracle.conditional_variance"], units_by_tag["oracle"])
        m["sim.normal_draws"] = self.counts["sim.normal_draws"]
        m["sim.draws_per_output"] = _ratio(self.counts["sim.normal_draws"], units_by_tag["stream"])
        solves = self.calls["gauss_markov.solve_test_channel_single"]
        m["gauss_markov.evals_per_solve"] = _ratio(self.counts["gauss_markov.gamma_single.calls"], solves)
        m["gauss_markov.eta_per_multi"] = _ratio(
            self.calls["gauss_markov.eta_multi"], self.calls["gauss_markov.rate_upper_multi"])
        m["gauss_markov.solve_reuse"] = _ratio(len(self.configs), solves)
        m["trace.round_s"] = round_s
        key = DOMINANT[workload]
        dominant = sum(v for k, v in self.self_s.items() if k == key or k.startswith(key + "."))
        m["trace.dominant_share"] = _ratio(dominant, round_s)
        return m

    def write_spans(self, path: str) -> None:
        """Spans as columns; ``parent`` is a row index, -1 for a top-level span,
        and times are seconds from the first span's start."""
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = min((s[2] for s in self.spans), default=0.0)
        cols = {"op": [], "name": [], "start": [], "end": [], "parent": []}
        for op, name, start, end, parent in self.spans:
            cols["op"].append(op)
            cols["name"].append(index[name])
            cols["start"].append(start - t0)
            cols["end"].append(end - t0)
            cols["parent"].append(parent)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "spans": cols}, fh, separators=(",", ":"))
