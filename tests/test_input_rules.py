"""The shared input rules of `streamrate.errors`, and the inputs that got
through the gaps between the modules' own copies of them.

Each such input raises ValidationError in the library and exits 1 with one
line on stderr through the CLI.  Each rule returns the number it admits as a
Python int or float, so numpy scalars and `Fraction`s give exactly the
results of the same calls with `int(x)` or `float(x)`.
"""

import json
import math
import numbers
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import streamrate as sr
from conftest import numpy_or_none, numpy_params
from oracles import decodability_check, riccati_prediction_error
from streamrate import ConvergenceError, NumericalError, ValidationError, cli
from streamrate.errors import (
    Record, check_int, check_open_unit, check_probability, check_real, check_seed, check_variance,
)

np = numpy_or_none()


class TestRules:
    @pytest.mark.parametrize("value", [
        0, 7, *numpy_params(lambda np: [np.int64(7), np.int32(7), np.uint64(7), np.int8(0)]),
    ])
    def test_int_accepts_python_and_numpy_integers(self, value):
        got = check_int("n", value, 0, 7)
        assert type(got) is int and got == int(value)

    @pytest.mark.parametrize(
        "value", [0.5, *numpy_params(lambda np: [np.float64(0.5), np.float32(0.9)]), Fraction(1, 3)], ids=repr,
    )
    def test_real_rules_return_the_float(self, value):
        for rule in (check_real, check_open_unit, check_probability, check_variance):
            got = rule("x", value)
            assert type(got) is float and got == float(value)

    @pytest.mark.needs_numpy
    def test_rules_range_test_the_converted_float(self):
        # Fraction(1, 10**400) is positive, and its float is 0.0
        assert check_real("x", Fraction(1, 10**400)) == 0.0
        assert check_variance("x", Fraction(1, 10**400), zero_ok=True) == 0.0
        with pytest.raises(ValidationError, match="positive and finite"):
            check_variance("sigma_z2", Fraction(1, 10**400))
        # below 1, and its float is 1.0
        with pytest.raises(ValidationError, match="strictly inside"):
            check_open_unit("rho", Fraction(10**20 - 1, 10**20))
        # NaN is a real number, and check_real is the one rule it passes
        assert math.isnan(check_real("x", math.nan)) and math.isnan(check_real("x", np.float32("nan")))

    # a Decimal is no numbers.Real, a str and a bool are no numbers, and
    # 10**400 is a real with no float
    NOT_REAL = [Decimal("0.5"), "0.5", True, False, 10**400, -(10**400), Fraction(10**400), None, 1j]

    @pytest.mark.parametrize("value", NOT_REAL, ids=repr)
    @pytest.mark.parametrize("rule", [
        check_real, check_open_unit, check_probability, check_variance,
        lambda name, value: check_probability(name, value, zero_ok=False),
        lambda name, value: check_variance(name, value, zero_ok=True),
    ], ids=["real", "open-unit", "probability", "variance", "probability-nonzero", "variance-zero-ok"])
    def test_real_rules_reject(self, rule, value):
        with pytest.raises(ValidationError, match="^x must "):
            rule("x", value)

    @pytest.mark.parametrize("value", [Decimal("1"), "1", True, False, Fraction(1), 1.0, None])
    def test_int_rules_reject(self, value):
        for rule in (lambda v: check_int("seed", v), check_seed):
            with pytest.raises(ValidationError, match="^seed must be an integer"):
                rule(value)

    @pytest.mark.parametrize(
        "value", [True, False, 1.0, 1.5, "1", None, *numpy_params(lambda np: [np.float64(1.0)]), math.nan],
    )
    def test_int_rejects_other_types(self, value):
        with pytest.raises(ValidationError, match="n must be an integer"):
            check_int("n", value)

    @pytest.mark.parametrize("value, lo, hi", [
        (-1, 0, None), (8, 0, 7), (2, 3, 9), *numpy_params(lambda np: [(np.int64(-1), 0, None)], width=3),
    ])
    def test_int_range(self, value, lo, hi):
        with pytest.raises(ValidationError, match="n must be an integer"):
            check_int("n", value, lo, hi)

    @pytest.mark.parametrize("value", [
        0.5, 1e-300, 1 - 1e-16, *numpy_params(lambda np: [np.float64(0.9), np.float32(0.5)]),
    ])
    def test_open_unit_accepts(self, value):
        check_open_unit("rho", value)

    @pytest.mark.parametrize("value", [0.0, 1.0, -0.5, 2.0, math.nan, math.inf, -math.inf, "0.5", None, 1j])
    def test_open_unit_rejects(self, value):
        with pytest.raises(ValidationError, match=r"rho must lie strictly inside \(0, 1\)"):
            check_open_unit("rho", value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0, -0.0, 0.0, "1", None])
    def test_variance_rejects(self, value):
        with pytest.raises(ValidationError, match="sigma_z2 must be positive and finite"):
            check_variance("sigma_z2", value)

    def test_variance_zero_where_legal(self):
        check_variance("sigma_z2", 0.0, zero_ok=True)
        check_variance("sigma_z2", 1e308)
        for bad in (math.nan, math.inf, -1e-300):
            with pytest.raises(ValidationError, match="nonnegative and finite"):
                check_variance("sigma_z2", bad, zero_ok=True)

    @pytest.mark.needs_numpy
    def test_seed_range(self):
        check_seed(0)
        check_seed(2**64 - 1)
        check_seed(np.uint64(2**64 - 1))
        for bad in (-1, 2**64, 1.5, True, np.int64(-1)):
            with pytest.raises(ValidationError, match="seed must be an integer"):
                check_seed(bad)
        assert type(check_seed(np.uint64(2**64 - 1))) is int


def _sim_cfg(**kw):
    args = dict(rho=0.9, sigma_z2=0.1, horizon=8, trials=10, seed=0)
    args.update(kw)
    return sr.SimConfig(**args)


def _bin_cfg(**kw):
    args = dict(n=4, q=0.1, rate=0.8, trials=10, seed=0)
    args.update(kw)
    return sr.BinningConfig(**args)


_D = sr.DistortionVector((0.1, 0.3, 0.5))


def _uniform(n):
    return [[1.0 / n] * n for _ in range(n)]

# Inputs that got through the gaps between the modules' copies of the rules
# (a bare TypeError, OverflowError or ValueError, a hang, a silent
# truncation, or a report with nothing checked), and the caps that keep
# huge counts from stalling or exhausting memory.
LIBRARY_ROWS = {
    "kalman-sigma-nan": lambda: sr.kalman_steady_sigma(0.9, math.nan),
    "kalman-sigma-inf": lambda: sr.kalman_steady_sigma(0.9, math.inf),
    "riccati-sigma-nan": lambda: riccati_prediction_error(0.9, math.nan),
    "stream-horizon-10.5": lambda: sr.simulate_gm_stream(_sim_cfg(horizon=10.5)),
    "stream-trials-10.5": lambda: sr.simulate_gm_stream(_sim_cfg(trials=10.5)),
    "binning-n-8.0": lambda: sr.simulate_binning(_bin_cfg(n=8.0)),
    "single-B-1.5": lambda: sr.verify_single_burst_worst_case(0.9, 0.1, 1.5, 6),
    "multi-B-1.5": lambda: sr.verify_multi_burst_worst_case(0.9, 0.1, 1.5, 2, 6),
    "exchange-samples-2.5": lambda: sr.verify_exchange_inequalities(0.9, 0.1, t=10, samples=2.5),
    "sweep-B-2.0": lambda: sr.sweep_burst_position(_sim_cfg(), 2.0),
    "sweep-offset-1.5": lambda: sr.sweep_burst_position(_sim_cfg(), 1, offsets=[1.5]),
    "decodability-horizon-10.0": lambda: decodability_check(1, 1, 1, 10.0, 2, 1),
    "gmconfig-B-True": lambda: sr.GmConfig(rho=0.9, B=True, D=0.2),
    "gmconfig-D-str": lambda: sr.GmConfig(rho=0.9, B=1, D="0.2"),
    "gmconfig-D-True": lambda: sr.GmConfig(rho=0.9, B=1, D=True),
    "binning-rate-str": lambda: _bin_cfg(rate="x"),
    "binning-rate-True": lambda: _bin_cfg(rate=True),
    "distortion-entry-str": lambda: sr.DistortionVector(("a",)),
    "lossless-B-True": lambda: sr.lossless_bounds(sr.binary_symmetric_chain(0.1), True, 1),
    "rate-recovery-B-True": lambda: sr.rate_recovery(_D, True, 1),
    "single-B-True": lambda: sr.verify_single_burst_worst_case(0.9, 0.1, True, 6),
    "multi-tmax-0": lambda: sr.verify_multi_burst_worst_case(0.9, 0.1, 1, 2, 0),
    "multi-tmax--5": lambda: sr.verify_multi_burst_worst_case(0.9, 0.1, 1, 2, -5),
    "stream-seed--1": lambda: sr.simulate_gm_stream(_sim_cfg(seed=-1)),
    "binning-seed--1": lambda: sr.simulate_binning(_bin_cfg(seed=-1)),
    "exchange-seed--1": lambda: sr.verify_exchange_inequalities(0.9, 0.1, seed=-1),
    "stream-seed-2**64": lambda: sr.simulate_gm_stream(_sim_cfg(seed=2**64)),
    "stream-seed-1.5": lambda: sr.simulate_gm_stream(_sim_cfg(seed=1.5)),
    "stream-trials-cap": lambda: _sim_cfg(trials=sr.sim.TRIALS_CAP + 1),
    "stream-bursts-5": lambda: _sim_cfg(bursts=5),
    "stream-burst-5": lambda: _sim_cfg(bursts=[5]),
    "stream-burst-triple": lambda: _sim_cfg(bursts=[(1, 2, 3)]),
    "stream-burst-single": lambda: _sim_cfg(bursts=[(1,)]),
    "stream-burst-start-1.0": lambda: _sim_cfg(bursts=[(1.0, 2)]),
    "binning-trials-cap": lambda: _bin_cfg(trials=2**63),
    "exchange-samples-cap": lambda: sr.verify_exchange_inequalities(0.9, 0.1, samples=sr.oracle.SAMPLES_CAP + 1),
    "gmconfig-L-cap": lambda: sr.GmConfig(rho=0.9, B=1, D=0.2, L=sr.gauss_markov.GUARD_CAP + 1),
    "layer-plan-B-cap": lambda: sr.layer_plan(_D, sr.sliding.WINDOW_CAP + 1, 0),
    "reduce-window-W-cap": lambda: sr.reduce_window(_D, 1, 10**30),
    "lossless-W-cap": lambda: sr.lossless_bounds(sr.binary_symmetric_chain(0.1), 1, sr.markov.LAG_CAP + 1),
    "entropy-lag-cap": lambda: sr.conditional_entropy_lag(sr.binary_symmetric_chain(0.1), 2**63),
    "chain-alphabet-size-str": lambda: sr.MarkovChain("2", [[0.5, 0.5], [0.5, 0.5]], [0.5, 0.5]),
    "chain-alphabet-size-True": lambda: sr.MarkovChain(True, [[1.0]], [1.0]),
    "chain-entry-str": lambda: sr.MarkovChain.from_transition([["0.5", "0.5"], ["0.5", "0.5"]]),
    "chain-entry-bool": lambda: sr.MarkovChain.from_transition([[False, True], [True, False]]),
    "chain-alphabet-cap": lambda: sr.MarkovChain.from_transition(_uniform(sr.markov.ALPHABET_CAP + 1)),
    "binary-chain-q-str": lambda: sr.binary_symmetric_chain("0.1"),
    "symmetric-tol-True": lambda: sr.is_symmetric(sr.binary_symmetric_chain(0.1), True),
    "erasure-index-1.5": lambda: sr.ErasurePattern(4, (1.5, 2.9)),
    "erasure-index-True": lambda: sr.ErasurePattern(4, (True,)),
    # a Decimal passed the rules' comparisons and failed later, or never
    "gmconfig-rho-Decimal": lambda: sr.GmConfig(rho=Decimal("0.9"), B=1, D=0.2),
    "simconfig-rho-Decimal": lambda: _sim_cfg(rho=Decimal("0.9")),
    "multi-rho-Decimal": lambda: sr.verify_multi_burst_worst_case(Decimal("0.9"), 0.1, 1, 2, 6),
    # 10**400 < inf, and then float(10**400) overflowed
    "test-channel-10**400": lambda: sr.TestChannel(10**400),
    "kalman-sigma-10**400": lambda: sr.kalman_steady_sigma(0.9, 10**400),
    "single-sigma-10**400": lambda: sr.verify_single_burst_worst_case(0.9, 10**400, 1, 4),
    "simconfig-sigma-10**400": lambda: _sim_cfg(sigma_z2=10**400),
    # 10**400 had no float 2B, and source_constants raised OverflowError
    "gmconfig-B-10**400": lambda: sr.compute_bounds(sr.GmConfig(rho=0.9, B=10**400, D=0.2)),
    "gmconfig-B-cap": lambda: sr.GmConfig(rho=0.9, B=sr.gauss_markov.BURST_CAP + 1, D=0.2),
    # past 4300 digits CPython refuses to print an int, and the message raised ValueError
    "check-int-10**5000": lambda: check_int("B", 10**5000, 1, 10),
    "check-open-unit-10**5000": lambda: check_open_unit("rho", 10**5000),
    "check-real-Fraction-10**5000": lambda: check_real("x", Fraction(10**5000)),
    # multi_burst compared B and L unchecked
    "multi-burst-B-True": lambda: sr.ErasurePattern.multi_burst(6, (0, 2, 3, 5), True, 1),
    "multi-burst-L-1.5": lambda: sr.ErasurePattern.multi_burst(6, (0, 2, 3, 5), 1, 1.5),
    "multi-burst-L-0": lambda: sr.ErasurePattern.multi_burst(6, (0, 2, 3, 5), 1, 0),
    # records built directly: p_hat divided by zero trials, a count above
    # its trials put ci_low above ci_high, and no layers had no amortized rate
    "binning-result-trials-0": lambda: sr.BinningResult(5, 0),
    "binning-result-errors-7-of-5": lambda: sr.BinningResult(7, 5),
    "layer-plan-no-layers": lambda: sr.sliding.LayerPlan((), 0),
}


# the rows of these kinds reach streamrate.sim, which needs numpy
SIM_ROWS = ("stream-", "binning-", "sweep-", "simconfig-")


@pytest.mark.parametrize("call", [
    pytest.param(call, marks=pytest.mark.needs_numpy) if name.startswith(SIM_ROWS) else call
    for name, call in LIBRARY_ROWS.items()
], ids=LIBRARY_ROWS.keys())
def test_library_rejects(call):
    with pytest.raises(ValidationError):
        call()


@pytest.mark.needs_numpy
def test_sim_bursts_are_kept_as_a_tuple_of_int_pairs():
    listed, tupled = _sim_cfg(bursts=[[1, 2]]), _sim_cfg(bursts=((1, 2),))
    assert listed == tupled and hash(listed) == hash(tupled)
    assert listed.bursts == ((1, 2),) and type(_sim_cfg(bursts=[(np.int64(1), 2)]).bursts[0][0]) is int


# the same inputs through the CLI; int flags reach the library only as ints,
# so fractional and boolean values come in through --sweep files; the
# simulate ones reach SimConfig and BinningConfig in LIBRARY_ROWS
_ORACLE = ["oracle", "--rho", "0.9", "--sigma-z2", "0.1", "--tmax", "6", "--check"]
CLI_ROWS = {
    "stream-seed--1": (["simulate", "--kind", "gm", "--sigma-z2", "0.1", "--T", "5", "--trials", "4", "--seed", "-1"], None),
    "binning-seed--1": (["simulate", "--kind", "binning", "--seed", "-1"], None),
    "exchange-seed--1": (["oracle", "--check", "exchange", "--rho", "0.9", "--sigma-z2", "0.1", "--seed", "-1"], None),
    "stream-seed-2**64": (["simulate", "--kind", "gm", "--sigma-z2", "0.1", "--seed", str(2**64)], None),
    "multi-tmax-0": (["oracle", "--check", "multi", "--rho", "0.9", "--sigma-z2", "0.1", "--tmax", "0"], None),
    "multi-tmax--5": (["oracle", "--check", "multi", "--rho", "0.9", "--sigma-z2", "0.1", "--tmax", "-5"], None),
    "gm-sweep-B-true": (["gm", "--sweep", "FILE"], {"rho": [0.9], "B": True, "D": [0.2]}),
    "stream-trials-huge": (["simulate", "--kind", "gm", "--sigma-z2", "0.1", "--trials", str(10**30)], None),
    "binning-trials-huge": (["simulate", "--kind", "binning", "--trials", str(2**40)], None),
    "exchange-samples-huge": (["oracle", "--check", "exchange", "--rho", "0.9", "--sigma-z2", "0.1",
                               "--samples", str(2**63)], None),
    "gm-L-huge": (["gm", "--rho", "0.9", "--D", "0.2", "--L", str(2**63)], None),
    "gm-B-10**400": (["gm", "--rho", "0.9", "--D", "0.2", "--B", str(10**400)], None),
    "sliding-B-huge": (["sliding", "--d", "0.1,0.3", "--B", str(10**30), "--W", "1"], None),
    "lossless-W-huge": (["lossless", "--chain", "FILE", "--B", "1", "--W", str(2**65)],
                        {"transition": [[0.9, 0.1], [0.2, 0.8]]}),
    "lossless-alphabet-cap": (["lossless", "--chain", "FILE", "--B", "1", "--W", "1"],
                              {"transition": _uniform(sr.markov.ALPHABET_CAP + 1)}),
    # a flag that the chosen check does not read, even at its default value
    "single-reads-no-L": ([*_ORACLE, "single", "--L", "1"], None),
    "single-reads-no-samples": ([*_ORACLE, "single", "--samples", "500"], None),
    "single-reads-no-seed": ([*_ORACLE, "single", "--seed", "0"], None),
    "multi-reads-no-samples": ([*_ORACLE, "multi", "--samples", "500"], None),
    "multi-reads-no-seed": ([*_ORACLE, "multi", "--seed", "0"], None),
    "exchange-reads-no-B": ([*_ORACLE, "exchange", "--B", "1"], None),
    "exchange-reads-no-L": ([*_ORACLE, "exchange", "--L", "1"], None),
    # a flag that the chosen simulate kind does not read, even at its default value
    "stream-noise-and-target": (["simulate", "--kind", "gm", "--sigma-z2", "0.1", "--D", "0.2"], None),
    "stream-B-without-target": (["simulate", "--kind", "gm", "--sigma-z2", "0.1", "--B", "1"], None),
    "stream-reads-no-n": (["simulate", "--kind", "gm", "--sigma-z2", "0.1", "--n", "8"], None),
    "stream-reads-no-q": (["simulate", "--kind", "gm", "--D", "0.2", "--q", "0.1"], None),
    "stream-reads-no-rate": (["simulate", "--kind", "gm", "--sigma-z2", "0.1", "--rate", "0.8"], None),
    "binning-reads-no-rho": (["simulate", "--kind", "binning", "--rho", "0.9"], None),
    "binning-reads-no-sigma-z2": (["simulate", "--kind", "binning", "--sigma-z2", "0.1"], None),
    "binning-reads-no-D": (["simulate", "--kind", "binning", "--D", "0.2"], None),
    "binning-reads-no-B": (["simulate", "--kind", "binning", "--B", "1"], None),
    "binning-reads-no-T": (["simulate", "--kind", "binning", "--T", "100"], None),
    "binning-reads-no-burst": (["simulate", "--kind", "binning", "--burst", "2:1"], None),
}


@pytest.mark.parametrize("argv, doc", [
    pytest.param(argv, doc, marks=pytest.mark.needs_numpy) if argv[0] == "simulate" else (argv, doc)
    for argv, doc in CLI_ROWS.values()
], ids=CLI_ROWS.keys())
def test_cli_rejects_with_one_line(argv, doc, tmp_path, capsys):
    if doc is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        argv = [str(path) if a == "FILE" else a for a in argv]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("validation error:") and captured.err.count("\n") == 1


def _results(i):
    """Every integer parameter of the public API, passed through i."""
    chain = sr.binary_symmetric_chain(0.1)
    cfg = _sim_cfg(horizon=i(6), trials=i(8), seed=i(2), bursts=((i(2), i(1)),))
    return [
        sr.compute_bounds(sr.GmConfig(rho=0.9, B=i(2), D=0.2, L=i(3))),
        sr.finite_t_lower(sr.GmConfig(rho=0.9, B=i(1), D=0.2), i(5)),
        sr.lossless_bounds(chain, i(1), i(2)),
        sr.conditional_entropy_lag(chain, i(2)),
        sr.window_conditional_entropy(chain, i(1), i(1)),
        sr.MarkovChain.from_json({"alphabet_size": i(2), "transition": [[0.9, 0.1], [0.1, 0.9]]}).alphabet_size,
        sr.rate_recovery(_D, i(1), i(1)),
        sr.layer_plan(_D, i(2), i(1)),
        sr.baseline_rates(_D, i(1), i(0)),
        sr.reduce_window(_D, i(1), i(1)),
        decodability_check(i(1), i(1), i(1), i(10), i(2), i(1)),
        sr.verify_single_burst_worst_case(0.9, 0.1, i(2), i(8)).to_dict(),
        sr.verify_multi_burst_worst_case(0.9, 0.1, i(1), i(2), i(8)).to_dict(),
        sr.verify_exchange_inequalities(0.9, 0.1, t=i(10), samples=i(20), seed=i(3)).to_dict(),
        sr.ErasurePattern(t=i(4), received=(i(0), i(2))),
        len(sr.enumerate_multi_burst(i(6), i(1), i(2))),
        sr.GaussianSystem(0.9, 0.1, i(3)).covariance.tolist(),
        list(sr.simulate_gm_stream(cfg).rows()),
        sr.sweep_burst_position(cfg, i(1), decode_time=i(5), offsets=[i(0), i(1)]),
        sr.simulate_binning(_bin_cfg(n=i(4), trials=i(20), seed=i(1))),
    ]


@pytest.mark.parametrize("numpy_int", numpy_params(lambda np: [np.int64, np.int32]))
def test_numpy_integers_give_the_python_results(numpy_int):
    assert _results(numpy_int) == _results(int)


@pytest.mark.needs_numpy
def test_float32_rho_gives_the_float_results():
    rho = np.float32(0.9)
    assert sr.compute_bounds(sr.GmConfig(rho=rho, B=1, D=0.2, L=2)) == sr.compute_bounds(
        sr.GmConfig(rho=float(rho), B=1, D=0.2, L=2)
    )
    assert type(sr.kalman_steady_sigma(rho, np.float32(0.1))) is float


@pytest.mark.parametrize("integer, real", numpy_params(lambda np: [(np.int64, np.float32), (np.uint64, np.float32)],
                                                     width=2))
def test_reports_from_numpy_inputs_write_as_json(integer, real):
    reports = [
        (sr.verify_single_burst_worst_case, (0.9, 0.1), (2, 8), {}),
        (sr.verify_multi_burst_worst_case, (0.9, 0.1), (1, 2, 8), {}),
        (sr.verify_exchange_inequalities, (0.9, 0.1), (), {"t": 10, "samples": 20, "seed": 3}),
    ]
    for fn, reals, ints, kw in reports:
        got = fn(*map(real, reals), *map(integer, ints), **{k: integer(v) for k, v in kw.items()})
        want = fn(*[float(real(x)) for x in reals], *ints, **kw)
        assert got.to_json() == want.to_json()


def _plain(x) -> bool:
    """x is a Python bool, int, float, str or None, or a tuple, list, dict or
    record of them."""
    if x is None or type(x) in (bool, int, float, str):
        return True
    if type(x) in (tuple, list):
        return all(map(_plain, x))
    if type(x) is dict:
        return all(type(k) is str and _plain(v) for k, v in x.items())
    return isinstance(x, Record) and _plain(x._values())


def _report(report):
    return report, report.to_dict(), report.to_json()


def _stream(cfg):
    # StreamResult holds numpy arrays by design; its rows are Python numbers
    return cfg, list(sr.simulate_gm_stream(cfg).rows())


def _system(n, v):
    sys_ = sr.GaussianSystem(n(v["rho"]), n(v["s2"]), n(4))
    pattern = sr.ErasurePattern(n(4), (n(0), n(2)))
    return (sys_, sys_.covariance.tolist(), sr.conditional_variance(sys_, ("s", n(4)), [("u", n(1))]),
            sr.decode_rate(sys_, pattern), sr.decode_mmse(sys_, pattern))


def _gm(n, v):
    cfg = sr.GmConfig(rho=n(v["rho"]), B=n(2), D=n(v["D"]), L=n(3))
    tc = sr.TestChannel(n(v["s2"]))
    return (cfg, tc, sr.compute_bounds(cfg), sr.lower_bound_single(cfg), sr.rate_upper_single(cfg),
            sr.rate_upper_multi(cfg), sr.high_res_rate(cfg), sr.naive_wz_rate(cfg),
            sr.solve_test_channel_single(cfg), sr.gamma_single(cfg, tc), sr.eta_multi(cfg, tc),
            sr.finite_t_lower(cfg, n(6)))


_P = [[0.75, 0.25], [0.25, 0.75]]  # exact in float32, so every kind gives a chain


def _markov(n, v):
    chain = sr.binary_symmetric_chain(n(v["q"]))
    P = [[n(p) for p in row] for row in _P]
    return (chain, sr.stationary_distribution(P), sr.MarkovChain(n(2), P, [n(0.5), n(0.5)]),
            sr.MarkovChain.from_transition(P), sr.MarkovChain.from_json({"alphabet_size": n(2), "transition": P}),
            sr.conditional_entropy_lag(chain, n(3)), sr.window_conditional_entropy(chain, n(1), n(2)),
            sr.lossless_bounds(chain, n(1), n(2)), sr.is_symmetric(chain, n(1e-12)))


def _sliding(n, v):
    d = sr.DistortionVector((n(0.1), n(v["D"] / 2 + 0.1), n(v["D"] / 2 + 0.5)))
    return (d, sr.reduce_window(d, n(1), n(1)), sr.rate_recovery(d, n(2), n(1)), sr.layer_plan(d, n(2), n(1)),
            sr.baseline_rates(d, n(1), n(0)))


def _patterns(n, v):
    return (sr.ErasurePattern(n(6), (n(0), n(2), n(3))), sr.ErasurePattern.no_erasure(n(4)),
            sr.ErasurePattern.single_burst(n(6), n(2), n(1)),
            sr.ErasurePattern.multi_burst(n(8), (n(0), n(1), n(4), n(5), n(6)), n(2), n(2)),
            sr.enumerate_multi_burst(n(6), n(1), n(2)))


def _sim(n, v):
    cfg = sr.SimConfig(rho=n(v["rho"]), sigma_z2=n(v["s2"]), horizon=n(6), trials=n(8), seed=n(2),
                       bursts=((n(2), n(1)),))
    binning = sr.BinningConfig(n=n(4), q=n(v["q"]), rate=n(0.75), trials=n(20), seed=n(1))
    return (_stream(cfg), sr.sweep_burst_position(cfg, n(1), decode_time=n(5), offsets=[n(0), n(1)]),
            binning, binning.bin_count, sr.simulate_binning(binning))


# every public entry point that takes a number, reached with each number passed through n
ENTRY_POINTS = {
    "gauss_markov": _gm,
    "kalman_steady_sigma": lambda n, v: sr.kalman_steady_sigma(n(v["rho"]), n(v["s2"])),
    "markov": _markov,
    "sliding": _sliding,
    "patterns": _patterns,
    "dense": _system,
    "single": lambda n, v: _report(sr.verify_single_burst_worst_case(n(v["rho"]), n(v["s2"]), n(2), n(8))),
    "multi": lambda n, v: _report(sr.verify_multi_burst_worst_case(n(v["rho"]), n(v["s2"]), n(2), n(2), n(10))),
    "exchange": lambda n, v: _report(
        sr.verify_exchange_inequalities(n(v["rho"]), n(v["s2"]), t=n(10), samples=n(20), seed=n(3))
    ),
    "sim": _sim,
}


def _outcome(entry, n, values):
    try:
        return entry(n, values)
    except (ValidationError, NumericalError, ConvergenceError) as exc:
        return type(exc)


@pytest.mark.needs_numpy
@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), values=st.fixed_dictionaries({
    "rho": st.floats(0.05, 0.95), "s2": st.floats(0.01, 10.0), "D": st.floats(0.05, 0.95),
    "q": st.floats(0.01, 0.49),
}))
def test_numpy_and_fraction_inputs_give_the_python_results(entry, data, values):
    integer_kinds, real_kinds = (np.int32, np.int64, np.uint64), (np.float32, np.float64, Fraction)
    drawn = []

    def kind_of(x):
        kinds = integer_kinds if type(x) is int else real_kinds
        drawn.append(data.draw(st.sampled_from(kinds))(x))
        return drawn[-1]

    got = _outcome(entry, kind_of, values)
    plain = iter([int(x) if isinstance(x, numbers.Integral) else float(x) for x in drawn])
    want = _outcome(entry, lambda _: next(plain), values)
    assert got == want
    assert isinstance(got, type) or _plain(got)
