"""perfbench: end-to-end and per-layer benchmark of streamrate.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bounds --seed 1 --seconds 10 --trace 0

Workloads: bounds, verify, montecarlo, lossless (see perfbench/README.md).
With ``--trace 0`` it measures the end-to-end metrics with tracing off; with
``--trace 1`` it makes the traced run and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name with its unit, and the machine facts.  The full result,
including every sample, is also written to ``.bench_build/perfbench/``.

Everything runs one process at a time on one client thread: one warm worker
process runs the timed rounds, and between its rounds the parent takes the
other samples -- fresh workers for set-up time and ``streamrate``
subprocesses for cold-CLI time -- so that every metric's samples are spread
over the whole run.  The program is imported from the checkout's
``src`` directory; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import workloads  # the script's directory is first on sys.path
from spans import metric_names

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 5  # fresh workers; the last one also runs the timed rounds
COLD_SAMPLES = 5
IMPORT_SAMPLES = 3
WORKER_TIMEOUT_S = 150
COLD_TIMEOUT_S = 60
MAX_TRACED_ROUNDS = 4  # bounds the spans kept in memory
# The reference speed: the calibration loop of REF_ITERATIONS takes REF_SECONDS
# (about its median on a 2-vCPU Xeon sandbox with Python 3.11).
REF_ITERATIONS = 300_000
REF_SECONDS = 0.025

WORK_UNITS = {
    "bounds": "bound rows written",
    "verify": "inequality checks",
    "montecarlo": "trial-steps",
    "lossless": "(chain, B, W) bound evaluations",
}


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------- facts


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def git_commit(root: str) -> str | None:
    """HEAD of the checkout, read from .git without leaving it; None outside a repository."""
    head = _read(os.path.join(root, ".git", "HEAD"))
    if head is None:
        return None
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(os.path.join(root, ".git", ref))
    if direct is not None:
        return direct.strip()
    for line in (_read(os.path.join(root, ".git", "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def loadavg() -> str | None:
    text = _read("/proc/loadavg")
    return text.strip() if text else None


def machine_facts(root: str) -> dict:
    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model or platform.processor() or None,
        "python": platform.python_version(),
        "STREAMRATE_THREADS": os.environ.get("STREAMRATE_THREADS", "unset"),
        "git_commit": git_commit(root),
        "loadavg_start": loadavg(),
    }


# ---------------------------------------------------------------- import breakdown


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import seconds of numpy, scipy and streamrate from ``-X importtime``.

    The log lists each module after its imports, indented by depth.  A
    package's time is the sum of the cumulative times of its outermost
    entries (``scipy.linalg`` and ``scipy.optimize``, not the ``scipy``
    nested inside them).
    """
    pending: list[tuple[int, str, int, list]] = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, raw = line[len("import time:"):].split("|", 2)
        name = raw.lstrip()
        depth = (len(raw) - len(name) - 1) // 2
        children = []
        while pending and pending[-1][0] > depth:
            children.insert(0, pending.pop())
        pending.append((depth, name, int(cumulative), children))

    def total(nodes, prefix):
        s = 0
        for _, name, cum, children in nodes:
            if name == prefix or name.startswith(prefix + "."):
                s += cum
            else:
                s += total(children, prefix)
        return s

    return {f"setup.import_{p}_s": total(pending, p) / 1e6 for p in ("numpy", "scipy", "streamrate")}


# ---------------------------------------------------------------- processes


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Worker:
    """A fresh worker process; ``setup_s`` is the time from its start to its ready line."""

    def __init__(self, root: str, src: str, args, workdir: str, mode: str, spans: str | None = None):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--workdir", workdir, "--src", src, "--mode", mode]
        if spans:
            cmd += ["--spans", spans]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     cwd=root, env=child_env(src), text=True)
        self.timer = threading.Timer(WORKER_TIMEOUT_S, self.proc.kill)
        self.timer.start()
        try:
            self.expect("ready")
            self.setup_s = time.perf_counter() - t0
            if mode == "setup":
                self.close()
            else:
                self.expect("warm")
        except BaseException:
            self.close(kill=True)
            raise

    def expect(self, event: str) -> dict:
        line = self.proc.stdout.readline()
        doc = json.loads(line) if line.startswith("{") else {}
        if doc.get("event") != event:
            raise BenchError(f"worker sent {line.strip()[:200]!r} instead of {event!r}")
        return doc

    def command(self, command: str, reply: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self.expect(reply)

    def close(self, kill: bool = False) -> None:
        """Stop the worker and wait for it; unless killed, raise if it did not exit cleanly."""
        if kill:
            self.proc.kill()
        try:
            self.proc.stdin.close()
        except OSError:  # the pipe is already broken when the worker died
            pass
        code = self.proc.wait()
        self.timer.cancel()
        self.proc.stdout.close()
        if code != 0 and not kill:
            raise BenchError(f"worker exited with code {code}")

    def finish(self) -> dict:
        try:
            result = self.command("done", "result")
        except BaseException:
            self.close(kill=True)
            raise
        self.close()
        return result


def cold_cli(root: str, src: str, spec: workloads.OpSpec) -> tuple[float, bool, str]:
    """One ``streamrate`` subprocess running the representative command: (seconds, ok, detail)."""
    cmd = [sys.executable, "-m", "streamrate.cli"] + spec.argv
    t0 = time.perf_counter()
    res = subprocess.run(cmd, capture_output=True, text=True, cwd=root, env=child_env(src),
                         timeout=COLD_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    try:
        workloads.check_cli(spec, workloads.CliResult(res.returncode, res.stdout, res.stderr))
    except (workloads.CheckFailed, workloads.ExpectedError) as exc:
        return elapsed, False, str(exc)
    return elapsed, True, ""


def import_breakdown(root: str, src: str) -> dict[str, float]:
    samples = []
    for _ in range(IMPORT_SAMPLES):
        res = subprocess.run([sys.executable, "-X", "importtime", "-c", "import streamrate"],
                             capture_output=True, text=True, cwd=root, env=child_env(src),
                             timeout=COLD_TIMEOUT_S)
        if res.returncode != 0:
            raise BenchError(f"import streamrate failed: {res.stderr.strip()[-300:]}")
        samples.append(parse_importtime(res.stderr))
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


# ---------------------------------------------------------------- runs


# ---------------------------------------------------------------- machine speed


def reference_s() -> float:
    """Time of a fixed pure-Python loop: the machine's speed at this moment."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t0


class Calibrated:
    """Rescales each timing sample to the reference speed.

    The speed of a shared machine drifts by tens of percent over seconds to
    minutes.  The calibration loop is timed in this process just before and
    just after each sample, and the sample is multiplied by REF_SECONDS over
    the mean of the two.  The raw samples are kept in the result file.
    """

    def __init__(self):
        self.last = reference_s()
        self.factors: list[float] = []

    def scale(self, seconds: float) -> float:
        after = reference_s()
        factor = REF_SECONDS / ((self.last + after) / 2)
        self.last = after
        self.factors.append(factor)
        return seconds * factor


def end_to_end(root, src, args, workdir, inputs) -> tuple[dict, dict]:
    """Rounds in one warm worker, with the other set-up and cold-CLI samples
    interleaved between them, so each metric's samples span the whole run."""
    extras = ["setup", "cold"] * (SETUP_SAMPLES - 1) + ["cold"] * (COLD_SAMPLES - SETUP_SAMPLES + 1)
    n_extra = len(extras)
    raw = {"setup_s": [], "cold_cli_s": [], "round_s": []}
    scaled = {"setup_s": [], "cold_cli_s": [], "round_s": []}
    cold_failures, units = [], 0
    cal = Calibrated()

    def sample(metric: str, seconds: float) -> None:
        raw[metric].append(seconds)
        scaled[metric].append(cal.scale(seconds))

    def extra(kind: str) -> None:
        if kind == "setup":
            sample("setup_s", Worker(root, src, args, workdir, "setup").setup_s)
        else:
            elapsed, ok, detail = cold_cli(root, src, inputs.cold)
            sample("cold_cli_s", elapsed)
            if not ok:
                cold_failures.append(detail)

    worker = Worker(root, src, args, workdir, "serve")
    sample("setup_s", worker.setup_s)
    try:
        while sum(raw["round_s"]) < args.seconds:
            while extras and n_extra - len(extras) < n_extra * sum(raw["round_s"]) / args.seconds:
                extra(extras.pop(0))
            doc = worker.command("round", "round")
            sample("round_s", doc["busy"])
            units += doc["units"]
    except BaseException:
        worker.close(kill=True)
        raise
    res = worker.finish()
    for kind in extras:
        extra(kind)
    attempted = res["attempted"] + COLD_SAMPLES
    failed = res["failed"] + len(cold_failures)
    metrics = {name: (statistics.median(v), "s") for name, v in scaled.items()}
    metrics["work_per_s"] = (units / sum(scaled["round_s"]), "units/s")
    metrics["peak_rss_mb"] = (res["peak_rss_mb"], "MB")
    metrics["fail_ratio"] = (failed / attempted, "1")
    at = {name: f"; wall median {statistics.median(v):.4g} s" for name, v in raw.items()}
    notes = {
        "setup_s": f"median of {len(raw['setup_s'])} fresh workers{at['setup_s']}",
        "cold_cli_s": f"median of {len(raw['cold_cli_s'])} subprocesses{at['cold_cli_s']}: "
                      f"streamrate {' '.join(inputs.cold.argv)}",
        "round_s": f"median of {len(raw['round_s'])} warm rounds of {res['ops_per_round']} ops{at['round_s']}",
        "work_per_s": f"{WORK_UNITS[args.workload]} per second of timed op time, {units} in total; "
                      f"wall {units / sum(raw['round_s']):.6g}",
        "peak_rss_mb": "peak resident memory of the timed worker",
        "fail_ratio": f"{failed} of {attempted} ops failed; {res['expected_errors']} typed errors expected",
        "speed": f"machine speed relative to the reference, median {statistics.median(cal.factors):.3f} "
                 f"(min {min(cal.factors):.3f}, max {max(cal.factors):.3f}); times above are rescaled to it",
    }
    detail = {"samples": {"wall": raw, "rescaled": scaled, "speed": cal.factors},
              "versions": res["versions"], "failures": res["failures"] + cold_failures,
              "attempted": attempted, "failed": failed}
    return {"metrics": metrics, "notes": notes}, detail


def traced(root, src, args, workdir, out_dir) -> tuple[dict, dict]:
    """Untraced rounds, then traced rounds, in one warm worker; each phase
    gets half of the run's seconds.  Per-layer times are wall seconds; the
    overhead compares rounds rescaled to the reference speed."""
    imports = import_breakdown(root, src)
    spans_path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.json")
    worker = Worker(root, src, args, workdir, "serve", spans=spans_path)
    cal = Calibrated()
    plain, traced_times = [], []
    try:
        while not plain or sum(plain) < args.seconds / 2:
            plain.append(cal.scale(worker.command("round", "round")["busy"]))
        worker.command("trace", "tracing")
        cal.last = reference_s()
        while not traced_times or (sum(traced_times) < args.seconds / 2 and len(traced_times) < MAX_TRACED_ROUNDS):
            traced_times.append(cal.scale(worker.command("round", "round")["busy"]))
    except BaseException:
        worker.close(kill=True)
        raise
    res = worker.finish()
    overhead = statistics.median(traced_times) / statistics.median(plain) - 1.0
    values = dict(res["layer_metrics"], **imports, **{"trace.overhead": overhead})
    metrics = {name: (values[name], unit) for name, unit in metric_names()}
    notes = {"trace.overhead": f"median traced round {statistics.median(traced_times):.4f} s "
                               f"over median untraced round {statistics.median(plain):.4f} s (rescaled)",
             "counts": "repeat exactly across traced rounds" if res["counts_repeat"] else "DIFFER across traced rounds"}
    detail = {"samples": {"plain_round_s": plain, "traced_round_s": traced_times, "speed": cal.factors},
              "versions": res["versions"], "failures": res["failures"], "spans_file": spans_path,
              "spans": res["spans"], "counts_repeat": res["counts_repeat"],
              "attempted": res["attempted"], "failed": res["failed"]}
    return {"metrics": metrics, "notes": notes}, detail


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="timed seconds per run")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "streamrate", "__init__.py")):
        sys.stderr.write(f"perfbench: no streamrate sources under {src}; run from the root of a checkout\n")
        return 2
    facts = machine_facts(root)
    out_dir = os.path.join(root, ".bench_build", "perfbench")
    workdir = os.path.join(out_dir, f"inputs-{args.workload}-seed{args.seed}-{os.getpid()}")
    try:
        inputs = workloads.build_inputs(args.workload, args.seed, workdir)
        if args.trace:
            report, detail = traced(root, src, args, workdir, out_dir)
        else:
            report, detail = end_to_end(root, src, args, workdir, inputs)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    facts["loadavg_end"] = loadavg()
    facts.update(detail.pop("versions"))

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("machine " + json.dumps(facts))
    for name, (value, unit) in report["metrics"].items():
        note = report["notes"].get(name, "")
        print(f"  {name:<48} {value:>14.6g} {unit:<8} {note}")
    if "counts" in report["notes"]:
        print(f"  computed counters {report['notes']['counts']}")
    if "speed" in report["notes"]:
        print(f"  {report['notes']['speed']}")
    for failure in detail["failures"]:
        print(f"  FAILED {failure.strip()}")
    result = {
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report["metrics"].items() if name != "fail_ratio"},
    }
    with open(os.path.join(out_dir, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"machine": facts, "notes": report["notes"], "detail": detail,
                   "fail_ratio": detail["failed"] / detail["attempted"],
                   **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
