"""Seeded inputs, op lists and output checks for the four perfbench workloads.

A workload is built in two steps.  ``build_inputs`` turns (workload, seed)
into plain data -- CLI argument lists, library call arguments, and the JSON
input files the CLI reads -- using numpy only, so the parent process can
build the representative cold-CLI command without importing the program.
``make_ops`` then binds that data to the program's public entry points inside
a worker process.

Seeds vary input *values* (correlations, distortions, noise levels, chain
entries).  The *structure* that sets the cost of an op -- grid sizes, burst
lengths and guard intervals of the verification checks, horizons, trial
counts, chain kinds -- is the same for every seed, so runs with different
seeds measure the same amount of work.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

WORKLOADS = ("bounds", "verify", "montecarlo", "lossless")
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
FIGURES = ("fig2", "fig3", "fig4", "fig5", "fig9")

GOLDEN_MULTI_ARGV = [
    "oracle", "--check", "multi", "--B", "2", "--L", "3",
    "--rho", "0.9", "--sigma-z2", "0.1", "--tmax", "18",
]
GOLDEN_SIMULATE_ARGV = [
    "simulate", "--kind", "gm", "--rho", "0.9", "--D", "0.2", "--B", "1",
    "--T", "50", "--trials", "100000", "--burst", "48:1",
]
SIM_T, SIM_TRIALS = 50, 100_000
BIN_N, BIN_TRIALS, BIN_RATE = 16, 20_000, 0.77
GM_HEADER = ["rho", "B", "L", "D", "lower", "upper_single", "upper_multi", "high_res", "nwz"]
LOSSLESS_HEADER = ["B", "W", "predictive_rate", "lower", "upper"]
BOUND_TOL = 1e-9


class CheckFailed(Exception):
    """An op produced output that fails its check."""


class ExpectedError(Exception):
    """An op ended in a typed numerical error on a legal but hopeless input."""


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


@dataclass
class OpSpec:
    """One op as plain data: a CLI argv or a library call, and its check."""

    name: str
    tag: str  # groups units for the per-layer ratios: figure, gm, sliding, oracle, stream, binning, lossless, library
    check: str
    argv: list[str] | None = None
    call: str | None = None
    params: dict = field(default_factory=dict)
    allow_numerical: bool = False
    warm: bool = True  # False: the warm-up round skips it, its code path is warmed by other ops


@dataclass
class Op:
    name: str
    tag: str
    run: Callable[[], Any]
    check: Callable[[Any], int]
    warm: bool = True


@dataclass
class Inputs:
    workload: str
    seed: int
    ops: list[OpSpec]
    cold: OpSpec
    chains: list[np.ndarray] = field(default_factory=list)  # transition matrices, lossless only


def _f(x: float) -> str:
    return repr(float(x))


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOADS.index(workload)])


def _write_json(path: str, doc) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


# ---------------------------------------------------------------- inputs


def _bounds_inputs(rng, workdir):
    ops = [OpSpec(f"figure-{fig}", "figure", f"golden_csv:{fig}", argv=["figure", "--id", fig]) for fig in FIGURES]
    for B in (1, 2, 3, 4):
        doc = {
            "rho": sorted(float(x) for x in rng.uniform(0.05, 0.99, 5)),
            "B": B,
            "L": int(rng.integers(1, 7)),
            "D": sorted(float(x) for x in np.exp(rng.uniform(math.log(1e-3), math.log(0.95), 6))),
        }
        path = _write_json(os.path.join(workdir, f"sweep_B{B}.json"), doc)
        ops.append(OpSpec(f"gm-sweep-B{B}", "gm", "gm_rows", argv=["gm", "--sweep", path],
                          params={"rows": 30}, allow_numerical=True))
    for i in range(8):
        rho = rng.uniform(0.05, 0.99)
        D = math.exp(rng.uniform(math.log(1e-3), math.log(0.95)))
        B, L = int(rng.integers(1, 5)), int(rng.integers(1, 7))
        ops.append(OpSpec(f"gm-row-{i}", "gm", "gm_rows",
                          argv=["gm", "--rho", _f(rho), "--B", str(B), "--L", str(L), "--D", _f(D)],
                          params={"rows": 1}, allow_numerical=True))
    for i in range(4):
        d = np.sort(rng.uniform(0.05, 1.0, int(rng.integers(2, 8))))
        B, W = int(rng.integers(1, 4)), int(rng.integers(0, 4))
        ops.append(OpSpec(f"sliding-{i}", "sliding", "sliding",
                          argv=["sliding", "--d", ",".join(_f(x) for x in d), "--B", str(B), "--W", str(W)]))
    cold = OpSpec("figure-fig4", "figure", "golden_csv:fig4", argv=["figure", "--id", "fig4"])
    return ops, cold


def _verify_inputs(rng):
    golden = OpSpec("oracle-multi-golden", "oracle", "golden_multi", argv=list(GOLDEN_MULTI_ARGV))
    ops = [golden]

    def values():
        return ["--rho", _f(rng.uniform(0.5, 0.95)), "--sigma-z2", _f(rng.uniform(0.05, 1.0))]

    for B, L, tmax in ((1, 2, 16), (3, 2, 12)):
        ops.append(OpSpec(f"oracle-multi-B{B}-L{L}", "oracle", "report",
                          argv=["oracle", "--check", "multi", "--B", str(B), "--L", str(L),
                                "--tmax", str(tmax)] + values()))
    for B, tmax in ((2, 20), (4, 18)):
        ops.append(OpSpec(f"oracle-single-B{B}", "oracle", "report",
                          argv=["oracle", "--check", "single", "--B", str(B), "--tmax", str(tmax)] + values()))
    ops.append(OpSpec("oracle-exchange", "oracle", "report",
                      argv=["oracle", "--check", "exchange", "--tmax", "20", "--samples", "500",
                            "--seed", str(int(rng.integers(0, 2**31)))] + values()))
    return ops, golden


def _montecarlo_inputs(rng):
    golden = OpSpec("simulate-gm-golden", "stream", "golden_simulate", argv=list(GOLDEN_SIMULATE_ARGV),
                    params={"units": SIM_T * SIM_TRIALS})
    rho, sigma_z2 = float(rng.uniform(0.6, 0.95)), float(rng.uniform(0.05, 0.5))
    burst_len = int(rng.integers(1, 4))
    start = int(rng.integers(SIM_T // 2, SIM_T - burst_len))
    sim_seed = int(rng.integers(0, 2**31))
    cfg = {"rho": rho, "sigma_z2": sigma_z2, "horizon": SIM_T, "trials": SIM_TRIALS,
           "seed": sim_seed, "bursts": [[start, burst_len]]}
    ops = [
        golden,
        OpSpec("simulate-gm-seeded", "stream", "stream",
               argv=["simulate", "--kind", "gm", "--rho", _f(rho), "--sigma-z2", _f(sigma_z2),
                     "--T", str(SIM_T), "--trials", str(SIM_TRIALS), "--seed", str(sim_seed),
                     "--burst", f"{start}:{burst_len}"],
               params={"burst": (start, burst_len), "units": SIM_T * SIM_TRIALS}),
        OpSpec("sweep-burst-position", "stream", "sweep", call="sweep_burst_position",
               params={"cfg": cfg, "B": burst_len}),
        # the rate sets the bin count, and with it the size of the decoder's
        # candidate table, so it stays fixed to keep memory and time per seed
        OpSpec("simulate-binning", "binning", "binning",
               argv=["simulate", "--kind", "binning", "--n", str(BIN_N),
                     "--q", _f(rng.uniform(0.05, 0.15)), "--rate", str(BIN_RATE),
                     "--trials", str(BIN_TRIALS), "--seed", str(int(rng.integers(0, 2**31)))]),
    ]
    return ops, golden


def _stationary(P: np.ndarray) -> np.ndarray:
    """The benchmark's own stationary law: least-squares solve of pi (P - I) = 0, sum pi = 1."""
    n = P.shape[0]
    A = np.vstack([P.T - np.eye(n), np.ones(n)])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    return np.linalg.lstsq(A, b, rcond=None)[0]


def _chain_family(rng) -> list[tuple[str, np.ndarray]]:
    """Four random irreducible, two binary-symmetric, two nearly reducible and
    one period-2 chain whose uniform start is not stationary."""
    chains = []
    for _ in range(4):
        n = int(rng.integers(2, 9))
        raw = rng.dirichlet(np.ones(n), size=n) + 0.05
        chains.append(("random", raw / raw.sum(axis=1, keepdims=True)))
    for _ in range(2):
        q = rng.uniform(0.02, 0.48)
        chains.append(("binary-symmetric", np.array([[1.0 - q, q], [q, 1.0 - q]])))
    for _ in range(2):
        n = int(rng.integers(4, 9))
        k = int(rng.integers(2, n - 1))
        eps = rng.uniform(0.02, 0.05)
        P = np.zeros((n, n))
        for block, other in ((range(k), range(k, n)), (range(k, n), range(k))):
            for i in block:
                P[i, list(block)] = (1.0 - eps) * rng.dirichlet(np.ones(len(block)))
                P[i, list(other)] = eps * rng.dirichlet(np.ones(len(other)))
        chains.append(("nearly-reducible", P))
    n = int(rng.integers(3, 9))
    a = int(rng.choice([m for m in range(1, n) if 2 * m != n]))
    P = np.zeros((n, n))
    for part, other in ((range(a), range(a, n)), (range(a, n), range(a))):
        for i in part:
            P[i, list(other)] = rng.dirichlet(np.ones(len(other)))
    chains.append(("periodic", P))
    return chains


def _lossless_inputs(rng, workdir):
    ops, cold = [], None
    family = _chain_family(rng)
    for i, (kind, P) in enumerate(family):
        path = _write_json(os.path.join(workdir, f"chain{i}.json"),
                           {"alphabet_size": P.shape[0], "transition": P.tolist()})
        grid = [(B, W) for B in range(5) for W in range(5)]
        if kind == "periodic":
            # The CLI recomputes the stationary law on every call, and on a
            # periodic chain that takes seconds; one CLI call per round keeps
            # the stall measured, the rest of the grid goes to the library.
            # The aperiodic chains' CLI calls warm the same code path.
            cli_grid = [grid[int(rng.integers(0, len(grid)))]]
        else:
            cli_grid = grid
        for B, W in grid:
            if (B, W) in cli_grid:
                spec = OpSpec(f"lossless-{kind}-{i}-B{B}-W{W}", "lossless", "lossless_row",
                              argv=["lossless", "--chain", path, "--B", str(B), "--W", str(W)],
                              params={"B": B, "W": W}, warm=kind != "periodic")
                if cold is None and kind == "random" and (B, W) == (1, 1):
                    cold = spec
            else:
                spec = OpSpec(f"lossless_bounds-{kind}-{i}-B{B}-W{W}", "lossless", "lossless_bounds",
                              call="lossless_bounds", params={"chain": i, "B": B, "W": W})
            ops.append(spec)
        ops.append(OpSpec(f"multiterminal-{kind}-{i}", "library", "finite_rate",
                          call="multiterminal_sum_rate", params={"chain": i}))
        ops.append(OpSpec(f"is_symmetric-{kind}-{i}", "library",
                          "true" if P.shape[0] == 2 else "bool",
                          call="is_symmetric", params={"chain": i}))
    return ops, cold, [P for _, P in family]


def build_inputs(workload: str, seed: int, workdir: str) -> Inputs:
    """Deterministic op list for (workload, seed); writes the CLI's input files into workdir."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(workdir, exist_ok=True)
    rng = _rng(workload, seed)
    if workload == "bounds":
        return Inputs(workload, int(seed), *_bounds_inputs(rng, workdir))
    if workload == "verify":
        return Inputs(workload, int(seed), *_verify_inputs(rng))
    if workload == "montecarlo":
        return Inputs(workload, int(seed), *_montecarlo_inputs(rng))
    return Inputs(workload, int(seed), *_lossless_inputs(rng, workdir))


# ---------------------------------------------------------------- checks


def _floats(row) -> list[float]:
    try:
        return [float(x) for x in row]
    except ValueError as exc:
        raise CheckFailed(f"non-numeric cell in {row}: {exc}")


def _csv(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise CheckFailed("empty CSV output")
    return rows[0], rows[1:]


def _golden_text(name: str) -> str:
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        return fh.read()


def check_golden_csv(text: str, fig: str) -> int:
    header, rows = _csv(text)
    g_header, g_rows = _csv(_golden_text(f"{fig}.csv"))
    if header != g_header or len(rows) != len(g_rows):
        raise CheckFailed(f"{fig}: header or row count differs from the frozen output")
    for got, want in zip(rows, g_rows):
        for a, b in zip(_floats(got), _floats(want)):
            if not abs(a - b) <= 1e-10:
                raise CheckFailed(f"{fig}: {a!r} differs from frozen {b!r} by more than 1e-10")
    return len(rows)


def check_golden_multi(doc: dict) -> int:
    with open(os.path.join(GOLDEN, "multi_B2_L3_t18.json"), encoding="utf-8") as fh:
        want = json.load(fh)
    if doc.get("passed") != want["passed"] or doc.get("checks") != want["checks"]:
        raise CheckFailed("multi-burst report: passed/checks differ from the frozen report")
    details = doc.get("details", {})
    for t, fields in want["horizons"].items():
        got = details.get(t, {})
        for key, value in fields.items():
            if got.get(key) != value:
                raise CheckFailed(f"multi-burst report: {t}.{key} differs from the frozen report")
    return int(doc["checks"])


def check_gm_rows(text: str, rows_expected: int) -> int:
    header, rows = _csv(text)
    if header != GM_HEADER or len(rows) != rows_expected:
        raise CheckFailed(f"gm: expected {rows_expected} rows under {GM_HEADER}")
    for row in rows:
        vals = _floats(row)
        if not all(math.isfinite(v) for v in vals):
            raise CheckFailed(f"gm: non-finite value in {row}")
        lower, single, multi = vals[4], vals[5], vals[6]
        if not (lower <= single + BOUND_TOL and single <= multi + BOUND_TOL):
            raise CheckFailed(f"gm: bounds out of order in {row}")
    return len(rows)


def check_sliding(doc: dict) -> int:
    rate = doc["rate"]
    cum = doc["cumulative_rates"]
    if not (math.isfinite(rate) and rate > 0.0):
        raise CheckFailed(f"sliding: rate {rate!r}")
    if any(r < -BOUND_TOL for r in doc["layer_rates"]) or any(b > a + BOUND_TOL for a, b in zip(cum, cum[1:])):
        raise CheckFailed("sliding: negative layer rate or increasing cumulative rates")
    if any(not v >= rate - BOUND_TOL for v in doc["baselines"].values()):
        raise CheckFailed("sliding: a baseline scheme beats the optimal rate")
    return 1


def check_report(doc: dict) -> int:
    if doc.get("passed") is not True or doc.get("violations") != 0:
        raise CheckFailed(f"{doc.get('name')}: report did not pass")
    return int(doc["checks"])


def check_stream(text: str, burst: tuple[int, int], units: int) -> int:
    header, rows = _csv(text)
    if header != ["time", "mse", "stderr", "exact_mmse", "erased"] or len(rows) != SIM_T:
        raise CheckFailed("simulate: unexpected header or row count")
    start, length = burst
    for t, row in enumerate(rows):
        mse, se, exact = _floats(row[1:4])
        erased = row[4] == "True"
        if int(row[0]) != t or erased != (start <= t < start + length):
            raise CheckFailed(f"simulate: time or erasure flag wrong at row {t}")
        if not (exact > 0.0 and abs(mse - exact) <= 6.0 * se + 1e-12):
            raise CheckFailed(f"simulate: empirical MSE {mse!r} far from exact {exact!r} at t={t}")
    return units


def check_binning(doc: dict, argv: list[str]) -> int:
    opts = dict(zip(argv[1::2], argv[2::2]))
    n, trials, rate = int(opts["--n"]), int(opts["--trials"]), float(opts["--rate"])
    if doc["trials"] != trials or doc["bins"] != int(round(2.0 ** (n * rate))):
        raise CheckFailed("binning: trials or bin count wrong")
    if not (0.0 <= doc["p_hat"] <= 1.0 and doc["errors"] == round(doc["p_hat"] * trials)):
        raise CheckFailed("binning: error count and p_hat disagree")
    if not (doc["ci95"][0] <= doc["p_hat"] <= doc["ci95"][1]):
        raise CheckFailed("binning: interval does not contain the estimate")
    return trials * n


def check_lossless_values(B: int, W: int, predictive: float, lower: float, upper: float) -> int:
    vals = (predictive, lower, upper)
    if not all(math.isfinite(v) for v in vals):
        raise CheckFailed(f"lossless B={B} W={W}: non-finite bound")
    if not (predictive <= lower + 1e-12 and lower <= upper + 1e-12):
        raise CheckFailed(f"lossless B={B} W={W}: predictive <= lower <= upper fails {vals}")
    return 1


def check_lossless_row(text: str, B: int, W: int) -> int:
    header, rows = _csv(text)
    if header != LOSSLESS_HEADER or len(rows) != 1:
        raise CheckFailed("lossless: unexpected CSV shape")
    b, w, predictive, lower, upper = _floats(rows[0])
    if (b, w) != (B, W):
        raise CheckFailed("lossless: B, W not echoed")
    return check_lossless_values(B, W, predictive, lower, upper)


def check_cli(spec: OpSpec, res: CliResult) -> int:
    """Units of work in a CLI op's output, or CheckFailed / ExpectedError."""
    if res.code != 0:
        if spec.allow_numerical and res.code == 2 and res.stderr.startswith("numerical error:"):
            raise ExpectedError(res.stderr.strip())
        raise CheckFailed(f"{spec.name}: exit code {res.code}: {res.stderr.strip()[:200]}")
    kind, _, arg = spec.check.partition(":")
    try:
        if kind == "golden_csv":
            return check_golden_csv(res.stdout, arg)
        if kind == "golden_simulate":
            if res.stdout != _golden_text("simulate_gm_seed0.csv"):
                raise CheckFailed("simulate: output is not bit-identical to the frozen output")
            return spec.params["units"]
        if kind == "gm_rows":
            return check_gm_rows(res.stdout, spec.params["rows"])
        if kind == "lossless_row":
            return check_lossless_row(res.stdout, spec.params["B"], spec.params["W"])
        if kind == "stream":
            return check_stream(res.stdout, tuple(spec.params["burst"]), spec.params["units"])
        doc = json.loads(res.stdout)
        if kind == "golden_multi":
            return check_golden_multi(doc)
        if kind == "report":
            return check_report(doc)
        if kind == "sliding":
            return check_sliding(doc)
        if kind == "binning":
            return check_binning(doc, spec.argv)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise CheckFailed(f"{spec.name}: malformed output: {exc!r}")
    raise ValueError(f"unknown check {spec.check!r}")


# ---------------------------------------------------------------- ops


def run_cli(cli, argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def _check_sweep(rep, spec: OpSpec) -> int:
    cfg = spec.params["cfg"]
    if len(rep.offsets) != 11 or not rep.exact_nonincreasing:
        raise CheckFailed("sweep: exact MMSE is not non-increasing over 11 offsets")
    if not all(math.isfinite(v) for v in rep.empirical + rep.exact):
        raise CheckFailed("sweep: non-finite MSE")
    return len(rep.offsets) * cfg["trials"] * cfg["horizon"]


def make_ops(inputs: Inputs) -> list[Op]:
    """Bind the op specs to the program's public entry points.

    Every call looks its function up on the module at call time, so wrappers
    installed on module attributes by the traced run see it.  The library's
    chain objects carry the benchmark's own stationary solve, so only the
    CLI calls reach the program's solver.
    """
    import streamrate.cli as cli
    import streamrate.markov as markov
    import streamrate.sim as sim

    chains = [markov.MarkovChain(alphabet_size=P.shape[0], transition=P, stationary=_stationary(P))
              for P in inputs.chains]
    ops = []
    for spec in inputs.ops:
        if spec.argv is not None:
            ops.append(Op(spec.name, spec.tag,
                          lambda argv=spec.argv: run_cli(cli, argv),
                          lambda res, spec=spec: check_cli(spec, res), spec.warm))
        elif spec.call == "sweep_burst_position":
            cfg = dict(spec.params["cfg"])
            cfg["bursts"] = tuple(tuple(b) for b in cfg["bursts"])
            sim_cfg = sim.SimConfig(**cfg)
            ops.append(Op(spec.name, spec.tag,
                          lambda c=sim_cfg, B=spec.params["B"]: sim.sweep_burst_position(c, B),
                          lambda rep, spec=spec: _check_sweep(rep, spec)))
        elif spec.call == "lossless_bounds":
            chain, B, W = chains[spec.params["chain"]], spec.params["B"], spec.params["W"]
            ops.append(Op(spec.name, spec.tag,
                          lambda c=chain, B=B, W=W: markov.lossless_bounds(c, B, W),
                          lambda r, B=B, W=W: check_lossless_values(B, W, r.predictive_rate, r.lower, r.upper)))
        elif spec.call == "multiterminal_sum_rate":
            chain = chains[spec.params["chain"]]
            ops.append(Op(spec.name, spec.tag,
                          lambda c=chain: markov.multiterminal_sum_rate(c),
                          lambda r: _check(math.isfinite(r) and r >= -1e-12, f"sum rate {r!r}")))
        elif spec.call == "is_symmetric":
            chain = chains[spec.params["chain"]]
            must_hold = spec.check == "true"
            ops.append(Op(spec.name, spec.tag,
                          lambda c=chain: markov.is_symmetric(c, 1e-9),
                          lambda r, must=must_hold: _check(isinstance(r, bool) and (r or not must),
                                                           f"is_symmetric returned {r!r}")))
        else:
            raise ValueError(f"unknown op {spec.name}")
    return ops


def _check(ok: bool, what: str) -> int:
    if not ok:
        raise CheckFailed(what)
    return 0
