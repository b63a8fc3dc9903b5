"""The shared input rules of `streamrate.errors`, and the inputs that got
through the gaps between the modules' own copies of them.

Each such input raises ValidationError in the library and exits 1 with one
line on stderr through the CLI.  numpy integers stay accepted wherever
Python ints are, with the same results.
"""

import json
import math

import numpy as np
import pytest

import streamrate as sr
from oracles import riccati_prediction_error
from streamrate import ValidationError, cli
from streamrate.errors import check_int, check_open_unit, check_seed, check_variance


class TestRules:
    @pytest.mark.parametrize("value", [0, 7, np.int64(7), np.int32(7), np.uint64(7), np.int8(0)])
    def test_int_accepts_python_and_numpy_integers(self, value):
        check_int("n", value, 0, 7)

    @pytest.mark.parametrize("value", [True, False, 1.0, 1.5, "1", None, np.float64(1.0), math.nan])
    def test_int_rejects_other_types(self, value):
        with pytest.raises(ValidationError, match="n must be an integer"):
            check_int("n", value)

    @pytest.mark.parametrize("value, lo, hi", [(-1, 0, None), (8, 0, 7), (2, 3, 9), (np.int64(-1), 0, None)])
    def test_int_range(self, value, lo, hi):
        with pytest.raises(ValidationError, match="n must be an integer"):
            check_int("n", value, lo, hi)

    @pytest.mark.parametrize("value", [0.5, 1e-300, 1 - 1e-16, np.float64(0.9), np.float32(0.5)])
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

    def test_seed_range(self):
        check_seed(0)
        check_seed(2**64 - 1)
        check_seed(np.uint64(2**64 - 1))
        for bad in (-1, 2**64, 1.5, True, np.int64(-1)):
            with pytest.raises(ValidationError, match="seed must be an integer"):
                check_seed(bad)


def _sim_cfg(**kw):
    args = dict(rho=0.9, sigma_z2=0.1, horizon=8, trials=10, seed=0)
    args.update(kw)
    return sr.SimConfig(**args)


def _bin_cfg(**kw):
    args = dict(n=4, q=0.1, rate=0.8, trials=10, seed=0)
    args.update(kw)
    return sr.BinningConfig(**args)


_D = sr.DistortionVector((0.1, 0.3, 0.5))

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
    "decodability-horizon-10.0": lambda: sr.decodability_check(1, 1, 1, 10.0, 2, 1),
    "gmconfig-B-True": lambda: sr.GmConfig(rho=0.9, B=True, D=0.2),
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
    "binning-trials-cap": lambda: _bin_cfg(trials=2**63),
    "exchange-samples-cap": lambda: sr.verify_exchange_inequalities(0.9, 0.1, samples=sr.oracle.SAMPLES_CAP + 1),
    "gmconfig-L-cap": lambda: sr.GmConfig(rho=0.9, B=1, D=0.2, L=sr.gauss_markov.GUARD_CAP + 1),
    "layer-plan-B-cap": lambda: sr.layer_plan(_D, sr.sliding.WINDOW_CAP + 1, 0),
    "reduce-window-W-cap": lambda: sr.reduce_window(_D, 1, 10**30),
    "lossless-W-cap": lambda: sr.lossless_bounds(sr.binary_symmetric_chain(0.1), 1, sr.markov.LAG_CAP + 1),
    "entropy-lag-cap": lambda: sr.conditional_entropy_lag(sr.binary_symmetric_chain(0.1), 2**63),
}


@pytest.mark.parametrize("call", LIBRARY_ROWS.values(), ids=LIBRARY_ROWS.keys())
def test_library_rejects(call):
    with pytest.raises(ValidationError):
        call()


# the same inputs through the CLI; int flags reach the library only as ints,
# so fractional and boolean values come in through --config and --sweep files
CLI_ROWS = {
    "stream-seed--1": (["simulate", "--kind", "gm", "--sigma-z2", "0.1", "--T", "5", "--trials", "4", "--seed", "-1"], None),
    "binning-seed--1": (["simulate", "--kind", "binning", "--seed", "-1"], None),
    "exchange-seed--1": (["oracle", "--check", "exchange", "--rho", "0.9", "--sigma-z2", "0.1", "--seed", "-1"], None),
    "stream-seed-2**64": (["simulate", "--kind", "gm", "--sigma-z2", "0.1", "--seed", str(2**64)], None),
    "multi-tmax-0": (["oracle", "--check", "multi", "--rho", "0.9", "--sigma-z2", "0.1", "--tmax", "0"], None),
    "multi-tmax--5": (["oracle", "--check", "multi", "--rho", "0.9", "--sigma-z2", "0.1", "--tmax", "-5"], None),
    "stream-horizon-10.5": (["simulate", "--kind", "gm", "--config", "FILE"], {"sigma_z2": 0.1, "T": 10.5}),
    "stream-trials-10.5": (["simulate", "--kind", "gm", "--config", "FILE"], {"sigma_z2": 0.1, "trials": 10.5}),
    "binning-n-8.0": (["simulate", "--kind", "binning", "--config", "FILE"], {"n": 8.0}),
    "stream-seed-1.5": (["simulate", "--kind", "gm", "--config", "FILE"], {"sigma_z2": 0.1, "seed": 1.5}),
    "gm-sweep-B-true": (["gm", "--sweep", "FILE"], {"rho": [0.9], "B": True, "D": [0.2]}),
    "stream-trials-huge": (["simulate", "--kind", "gm", "--sigma-z2", "0.1", "--trials", str(10**30)], None),
    "binning-trials-huge": (["simulate", "--kind", "binning", "--trials", str(2**40)], None),
    "exchange-samples-huge": (["oracle", "--check", "exchange", "--rho", "0.9", "--sigma-z2", "0.1",
                               "--samples", str(2**63)], None),
    "gm-L-huge": (["gm", "--rho", "0.9", "--D", "0.2", "--L", str(2**63)], None),
    "sliding-B-huge": (["sliding", "--d", "0.1,0.3", "--B", str(10**30), "--W", "1"], None),
    "lossless-W-huge": (["lossless", "--chain", "FILE", "--B", "1", "--W", str(2**65)],
                        {"transition": [[0.9, 0.1], [0.2, 0.8]]}),
}


@pytest.mark.parametrize("argv, doc", CLI_ROWS.values(), ids=CLI_ROWS.keys())
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
        sr.decodability_check(i(1), i(1), i(1), i(10), i(2), i(1)),
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


@pytest.mark.parametrize("numpy_int", [np.int64, np.int32])
def test_numpy_integers_give_the_python_results(numpy_int):
    assert _results(numpy_int) == _results(int)
