"""One fresh perfbench worker process: set up a workload, then run its rounds.

Started by run.py with the checkout's ``src`` on PYTHONPATH.  It writes one
JSON line per event to its standard output (the CLI's own output is captured
in memory, so the two never mix):

* ``{"event": "ready"}`` once ``streamrate`` is imported and the workload's
  inputs are built.  The parent's clock from process start to this line is
  one ``setup_s`` sample.  In ``--mode setup`` the worker exits here.
* ``{"event": "warm", ...}`` after the untimed warm-up round.  The warm-up
  skips the few ops whose code path the other ops already warm.

Then it reads one command per line from its standard input, so the parent
can interleave its other samples with the rounds:

* ``round``: run the workload's fixed op list once, closed loop, one op at a
  time, and reply ``{"event": "round", "busy": <op seconds>, ...}``.  Only
  the op calls are timed; checking their output is not.
* ``trace``: install the span tracer for the rounds that follow.
* ``done``: reply with the tally, peak memory and per-layer metrics, and exit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from collections import Counter

import workloads
from spans import Tracer

EXACT_COUNTERS = ("oracle.patterns", "oracle.flops_computed", "sim.normal_draws")


def emit(doc: dict) -> None:
    sys.__stdout__.write(json.dumps(doc) + "\n")
    sys.__stdout__.flush()


class Rounds:
    """Runs rounds of ops and tallies attempts, failures and units."""

    def __init__(self, ops):
        self.ops = ops
        self.tracer: Tracer | None = None
        self.attempted = 0
        self.failed = 0
        self.expected_errors = 0
        self.failures: list[str] = []
        self.op_seq = 0

    def run_round(self, warm_up: bool = False) -> tuple[float, int, Counter]:
        """One pass over the op list: (op seconds, units, units by tag)."""
        busy, units, by_tag = 0.0, 0, Counter()
        for op in self.ops:
            if warm_up and not op.warm:
                continue
            self.attempted += 1
            if self.tracer is not None:
                self.tracer.op_id = self.op_seq
            self.op_seq += 1
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception:  # an untyped exception escaping a public entry point is a failure
                busy += time.perf_counter() - t0
                self._fail(f"{op.name}: {traceback.format_exc(limit=3)}")
                continue
            busy += time.perf_counter() - t0
            try:
                n = op.check(out)
            except workloads.ExpectedError:
                self.expected_errors += 1
                continue
            except workloads.CheckFailed as exc:
                self._fail(str(exc))
                continue
            units += n
            by_tag[op.tag] += n
        return busy, units, by_tag

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(what)


def layer_summary(per_round: list[dict]) -> tuple[dict, bool]:
    """Median of each per-layer metric over the traced rounds, and whether
    the call counts and computed counters were identical in every round."""
    if not per_round:
        return {}, True
    metrics = {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}
    exact = [k for k in per_round[0] if k.endswith(".calls") or k in EXACT_COUNTERS]
    return metrics, all(r[k] == per_round[0][k] for r in per_round for k in exact)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--src", required=True, help="the checkout's src directory")
    p.add_argument("--mode", choices=["setup", "serve"], required=True)
    p.add_argument("--spans", default=None, help="where a traced run writes its spans")
    args = p.parse_args(argv)

    import numpy
    import scipy
    import streamrate
    import streamrate.cli  # noqa: F401

    if not os.path.abspath(streamrate.__file__).startswith(os.path.abspath(args.src) + os.sep):
        sys.stderr.write(f"perfbench: imported streamrate from {streamrate.__file__}, not {args.src}\n")
        return 2
    inputs = workloads.build_inputs(args.workload, args.seed, args.workdir)
    ops = workloads.make_ops(inputs)
    emit({"event": "ready"})
    if args.mode == "setup":
        return 0

    rounds = Rounds(ops)
    busy, _, _ = rounds.run_round(warm_up=True)  # its outputs are checked and tallied too
    emit({"event": "warm", "busy": busy})
    per_round: list[dict] = []
    for line in sys.stdin:
        command = line.strip()
        if command == "round":
            if rounds.tracer is not None:
                rounds.tracer.begin_round()
            busy, units, by_tag = rounds.run_round()
            if rounds.tracer is not None:
                per_round.append(rounds.tracer.round_metrics(args.workload, busy, by_tag))
            emit({"event": "round", "busy": busy, "units": units})
        elif command == "trace":
            rounds.tracer = Tracer()
            rounds.tracer.install(streamrate)
            emit({"event": "tracing"})
        elif command == "done":
            break
        else:
            sys.stderr.write(f"perfbench worker: unknown command {command!r}\n")
            return 2
    if rounds.tracer is not None:
        rounds.tracer.uninstall()
        if args.spans:
            rounds.tracer.write_spans(args.spans)
    metrics, counts_repeat = layer_summary(per_round)
    emit({
        "event": "result",
        "ops_per_round": len(ops),
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "expected_errors": rounds.expected_errors,
        "failures": rounds.failures,
        "layer_metrics": metrics,
        "counts_repeat": counts_repeat,
        "spans": len(rounds.tracer.spans) if rounds.tracer is not None else 0,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
