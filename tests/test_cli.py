import argparse
import contextlib
import csv
import importlib.util
import io
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import streamrate as sr
from conftest import numpy_or_none, run_without_numpy
from streamrate import cli

np = numpy_or_none()


def run(argv):
    return cli.main(argv)


GOLDEN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "golden")
FROZEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
GOLDEN_MULTI_ARGV = [
    "oracle", "--check", "multi", "--B", "2", "--L", "3", "--rho", "0.9", "--sigma-z2", "0.1", "--tmax", "18",
]
GOLDEN_SIMULATE_ARGV = [
    "simulate", "--kind", "gm", "--rho", "0.9", "--D", "0.2", "--B", "1",
    "--T", "50", "--trials", "100000", "--burst", "48:1",
]


def assert_validation_error(capsys):
    captured = capsys.readouterr()
    assert captured.err.startswith("validation error:") and "Traceback" not in captured.err
    assert captured.out == ""


def read_csv_text(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def read_csv(path):
    with open(path, newline="") as fh:
        return read_csv_text(fh.read())


@pytest.fixture()
def chain_file(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"alphabet_size": 2, "transition": [[0.9, 0.1], [0.1, 0.9]]}))
    return str(path)


class TestLosslessCommand:
    def test_w0_bounds_coincide(self, chain_file, tmp_path):
        out = tmp_path / "bounds.csv"
        assert run(["lossless", "--chain", chain_file, "--B", "1", "--W", "0", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        row = dict(zip(header, rows[0]))
        chain = sr.binary_symmetric_chain(0.1)
        expected = sr.lossless_bounds(chain, 1, 0)
        assert float(row["upper"]) == pytest.approx(float(row["lower"]), abs=1e-12)
        assert float(row["upper"]) == pytest.approx(expected.upper, abs=1e-12)

    def test_nats_toggle(self, chain_file, tmp_path):
        out = tmp_path / "bounds.csv"
        run(["lossless", "--chain", chain_file, "--B", "2", "--W", "1", "--nats", "--out", str(out)])
        header, rows = read_csv(out)
        row = dict(zip(header, rows[0]))
        expected = sr.lossless_bounds(sr.binary_symmetric_chain(0.1), 2, 1)
        assert float(row["upper"]) == pytest.approx(expected.upper * math.log(2), abs=1e-12)

    def test_periodic_chain_ordered_bounds(self, tmp_path):
        # period 2 with unequal parts, so its uniform start is not stationary
        path = tmp_path / "periodic.json"
        path.write_text(json.dumps({"transition": [[0, 0.5, 0.5], [1, 0, 0], [1, 0, 0]]}))
        out = tmp_path / "bounds.csv"
        assert run(["lossless", "--chain", str(path), "--B", "2", "--W", "1", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        row = dict(zip(header, rows[0]))
        assert float(row["predictive_rate"]) <= float(row["lower"]) <= float(row["upper"])

    @pytest.mark.parametrize("transition, second, W", [
        ([[0.9, 0.1], [0.2, 0.8]], 0.7, 1),
        ([[0.8, 0.2], [0.4, 0.6]], 0.4, 10**6),
    ], ids=["W1", "W1e6"])
    def test_two_state_closed_forms(self, transition, second, W, tmp_path, capsys):
        # both chains have pi = (2/3, 1/3); with their second eigenvalue the
        # lag-k flip probabilities are (1 - second**k) / 3 and 2 (1 - second**k) / 3.
        # At W = 1e6, upper (W + 1) equals the joint window entropy only up to rounding
        def h(p):
            return -p * math.log2(p) - (1 - p) * math.log2(1 - p)

        def lag(k):
            return 2 / 3 * h((1 - second**k) / 3) + 1 / 3 * h(2 * (1 - second**k) / 3)

        path = tmp_path / "chain.json"
        path.write_text(json.dumps({"transition": transition}))
        assert run(["lossless", "--chain", str(path), "--B", "1", "--W", str(W)]) == 0
        (row,) = csv.DictReader(io.StringIO(capsys.readouterr().out))
        want = {"predictive_rate": lag(1), "lower": lag(1) + (lag(W + 2) - lag(W + 1)) / (W + 1),
                "upper": lag(1) + (lag(2) - lag(1)) / (W + 1)}
        for key, value in want.items():
            assert abs(float(row[key]) - value) <= 1e-12, (key, row[key], value)

    def test_nan_transition_is_validation_error(self, tmp_path, capsys):
        # json.load accepts the NaN literal
        path = tmp_path / "nan.json"
        path.write_text('{"transition": [[NaN, 1], [0, 1]]}')
        assert run(["lossless", "--chain", str(path), "--B", "1", "--W", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error:") and "Traceback" not in err


class TestGmCommands:
    def test_single_row_matches_library(self, tmp_path):
        out = tmp_path / "gm.csv"
        assert run(["gm", "--rho", "0.9", "--B", "1", "--L", "2", "--D", "0.2", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        row = dict(zip(header, rows[0]))
        cfg = sr.GmConfig(rho=0.9, B=1, D=0.2, L=2)
        bounds = sr.compute_bounds(cfg)
        assert float(row["lower"]) == pytest.approx(bounds.lower, abs=1e-12)
        assert float(row["upper_single"]) == pytest.approx(bounds.upper_single, abs=1e-12)
        assert float(row["upper_multi"]) == pytest.approx(bounds.upper_multi, abs=1e-12)
        assert float(row["high_res"]) == pytest.approx(bounds.high_res, abs=1e-12)
        assert float(row["nwz"]) == pytest.approx(sr.naive_wz_rate(cfg), abs=1e-12)

    def test_sweep_file(self, tmp_path):
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"rho": [0.7, 0.9], "B": 1, "L": 1, "D": [0.2, 0.5]}))
        out = tmp_path / "gm.csv"
        assert run(["gm", "--sweep", str(sweep), "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert len(rows) == 4
        assert header[0] == "rho"

    def test_missing_flags_usage_error(self):
        assert run(["gm"]) == 1

    def test_numerical_error_exit_code(self, capsys):
        # a D below the normal float range is hopeless; D = 1e-13 solves
        assert run(["gm", "--rho", "0.9", "--B", "1", "--D", "1e-310"]) == 2
        assert capsys.readouterr().err.startswith("numerical error:")
        assert run(["gm", "--rho", "0.9", "--B", "1", "--D", "1e-13"]) == 0

    @pytest.mark.parametrize("rho, L", [(0.9453081488354617, 3), (0.999999999999, 5)])
    def test_aged_error_below_target_in_floats_is_precision_error(self, rho, L, capsys):
        # at D = 1 - 2**-53 the multi-burst aged error never exceeds D in
        # floats, so the upward bracket search overflows; it used to exit 2
        # with "objective is NaN at inf"
        argv = ["gm", "--rho", repr(rho), "--B", "1", "--L", str(L), "--D", "0.9999999999999999"]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "numerical error: multi-burst test channel: the MMSE stays below target 0.9999999999999999 "
            "up to the largest float noise; in floats the aged error never exceeds D\n"
        )

    def test_validation_error_exit_code(self):
        assert run(["gm", "--rho", "1.5", "--B", "1", "--D", "0.2"]) == 1


class TestSlidingCommand:
    def test_matches_library(self, tmp_path):
        out = tmp_path / "sliding.json"
        assert run(
            ["sliding", "--d", "0.1,0.25,0.4,0.55,0.7,0.85", "--B", "2", "--W", "1", "--out", str(out)]
        ) == 0
        doc = json.loads(out.read_text())
        d = sr.DistortionVector((0.1, 0.25, 0.4, 0.55, 0.7, 0.85))
        assert doc["rate"] == pytest.approx(sr.rate_recovery(d, 2, 1), abs=1e-12)
        base = sr.baseline_rates(d, 2, 1)
        assert doc["baselines"]["wyner_ziv"] == pytest.approx(base.wyner_ziv, abs=1e-12)


# every command that runs on the standard library, with the exit code it
# gives, and `simulate`, which needs numpy
WITHOUT_NUMPY = {
    "gm": (["gm", "--rho", "0.9", "--D", "0.2"], 0),
    "gm-D-near-1": (["gm", "--rho", "0.7435956421145827", "--B", "5", "--L", "1", "--D", "0.9999999270768036"], 0),
    "gm-D-subnormal": (["gm", "--rho", "0.9", "--B", "1", "--D", "1e-310"], 2),
    "sliding": (["sliding", "--d", "0.1,0.25,0.4,0.55,0.7,0.85", "--B", "2", "--W", "1"], 0),
    **{fig: (["figure", "--id", fig], 0) for fig in ("fig2", "fig3", "fig4", "fig5", "fig9")},
    "oracle-single": (["oracle", "--check", "single", "--B", "2", "--rho", "0.9", "--sigma-z2", "0.1",
                       "--tmax", "12"], 0),
    "oracle-multi": (GOLDEN_MULTI_ARGV, 0),
    "oracle-exchange": (["oracle", "--check", "exchange", "--rho", "0.9", "--sigma-z2", "0.1", "--tmax", "20",
                         "--samples", "500", "--seed", "7"], 0),
    "lossless": (["lossless", "--chain", "CHAIN", "--B", "2", "--W", "1"], 0),
    "simulate": (["simulate", "--kind", "gm", "--sigma-z2", "0.3", "--T", "4", "--trials", "8"], 1),
}


@pytest.fixture(scope="module")
def without_numpy(tmp_path_factory):
    """The argv of each WITHOUT_NUMPY row, and its [exit code, stdout, stderr]
    from one fresh interpreter in which numpy cannot be imported."""
    chain = tmp_path_factory.mktemp("chain") / "chain.json"
    chain.write_text(json.dumps({"alphabet_size": 2, "transition": [[0.9, 0.1], [0.1, 0.9]]}))
    argvs = {name: [str(chain) if a == "CHAIN" else a for a in argv] for name, (argv, _) in WITHOUT_NUMPY.items()}
    done = run_without_numpy(
        "import contextlib, io, json\n"
        "from streamrate import cli\n"
        "results = {}\n"
        f"for name, argv in {argvs!r}.items():\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        results[name] = [cli.main(argv), out.getvalue(), err.getvalue()]\n"
        "print(json.dumps(results))\n"
    )
    assert (done.returncode, done.stderr) == (0, "")
    return argvs, json.loads(done.stdout)


class TestOracleCommand:
    def test_single_check_passes(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(
            ["oracle", "--check", "single", "--rho", "0.9", "--sigma-z2", "0.1",
             "--B", "1", "--tmax", "6", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["passed"] is True and doc["violations"] == 0

    def test_exchange_check(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(
            ["oracle", "--check", "exchange", "--rho", "0.8", "--sigma-z2", "0.2",
             "--tmax", "12", "--samples", "50", "--seed", "3", "--out", str(out)]
        )
        assert code == 0

    def test_failed_report_maps_to_exit_3(self, monkeypatch, tmp_path):
        failing = sr.VerificationReport(
            name="stub", passed=False, checks=1, violations=1, min_slack=-1.0, worst={}
        )
        monkeypatch.setattr(sr.oracle, "verify_single_burst_worst_case", lambda *a, **k: failing)
        out = tmp_path / "report.json"
        code = run(
            ["oracle", "--check", "single", "--rho", "0.9", "--sigma-z2", "0.1",
             "--B", "1", "--tmax", "6", "--out", str(out)]
        )
        assert code == 3


    @pytest.mark.parametrize(
        "check",
        [["--check", "single", "--B", "0"], ["--check", "multi", "--B", "1", "--L", "1"]],
        ids=["single", "multi"],
    )
    def test_subnormal_noise_is_numerical_error(self, check, capsys):
        # the rate (1/2) log2(Var(u_t) / sigma_z2) overflows, and inf - inf
        # slacks read NaN: a false violation (exit 3) before the check
        argv = ["oracle", *check, "--rho", "0.9", "--tmax", "6"]
        assert run([*argv, "--sigma-z2", "5e-324"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical error:") and captured.err.count("\n") == 1
        assert run([*argv, "--sigma-z2", "1e-300"]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True

    def test_golden_multi_without_numpy(self, without_numpy):
        # the single and multi checks run on the standard library alone
        doc = json.loads(without_numpy[1]["oracle-multi"][1])
        with open(os.path.join(GOLDEN, "multi_B2_L3_t18.json"), encoding="utf-8") as fh:
            golden = json.load(fh)
        assert (doc["passed"], doc["checks"]) == (golden["passed"], golden["checks"])
        for t, fields in golden["horizons"].items():
            assert {k: doc["details"][t][k] for k in fields} == fields

    @pytest.mark.parametrize("rho", ["0.9", "0.999"])
    @pytest.mark.parametrize("tmax", ["20", "30"])
    def test_exchange_report_is_frozen(self, rho, tmax, capsys):
        # the domination pairs come from the Mersenne Twister's getrandbits
        # alone, so CPython 3.10 to 3.13 print these bytes; `sample` draws from
        # a pool at t = 20 and into a set at t = 30, and at rho = 0.999 the
        # worst instance is a drawn pair
        argv = ["oracle", "--check", "exchange", "--rho", rho, "--sigma-z2", "0.1",
                "--tmax", tmax, "--samples", "500", "--seed", "7"]
        assert run(argv) == 0
        with open(os.path.join(FROZEN, f"exchange_rho{rho}_t{tmax}.json"), "rb") as fh:
            assert capsys.readouterr().out.encode() == fh.read()

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["--check", "single", "--B", "2", "--tmax", "20"], "single_rho0.9_B2_t20.json"),
            # rounding ties: monotone slack 0.0 from t = 18, old bursts equal to no burst
            (["--check", "single", "--B", "3", "--tmax", "40"], "single_rho0.9_B3_t40.json"),
            (["--check", "multi", "--B", "2", "--L", "3", "--tmax", "18"], "multi_rho0.9_B2_L3_t18.json"),
        ],
        ids=["single", "single-ties", "multi"],
    )
    def test_worst_case_report_is_frozen(self, argv, name, capsys):
        # the per-horizon received lists, bytes and all, as `json.dumps(doc, indent=2)` wrote them
        assert run(["oracle", *argv, "--rho", "0.9", "--sigma-z2", "0.1"]) == 0
        with open(os.path.join(FROZEN, name), "rb") as fh:
            assert capsys.readouterr().out.encode() == fh.read()

    def test_frozen_multi_copies_agree(self):
        # the benchmark's multi summary and the frozen multi report are two
        # copies of one run: re-freezing one without the other fails here
        with open(os.path.join(GOLDEN, "multi_B2_L3_t18.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        with open(os.path.join(FROZEN, "multi_rho0.9_B2_L3_t18.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        argv, details = summary["argv"], report["details"]
        assert (argv[0], dict(zip(argv[1::2], argv[2::2]))) == ("oracle", {
            "--check": "multi", "--B": str(details["B"]), "--L": str(details["L"]),
            "--rho": str(details["rho"]), "--sigma-z2": str(details["sigma_z2"]),
            "--tmax": str(details["t_max"]),
        })
        assert (summary["passed"], summary["checks"]) == (report["passed"], report["checks"])
        fields = ("star_received", "argmax_rate_received", "argmax_mmse_received")
        assert summary["horizons"] == {
            f"t{t}": {k: details[f"t{t}"][k] for k in fields} for t in range(1, details["t_max"] + 1)
        }

    def test_exchange_without_numpy(self, without_numpy):
        # the domination sampler draws from the standard library's random
        assert json.loads(without_numpy[1]["oracle-exchange"][1])["passed"] is True

    @pytest.mark.parametrize(
        "argv",
        [
            [*check, "--sigma-z2", s2]
            for check in (["--check", "single", "--B", "1"], ["--check", "multi", "--B", "1", "--L", "2"],
                          ["--check", "exchange"])
            for s2 in ("nan", "inf")
        ]
        + [["--check", "exchange", "--sigma-z2", "0.1", "--samples", "-1"]],
    )
    def test_bad_input_is_validation_error(self, argv, capsys):
        assert run(["oracle", "--rho", "0.9", "--tmax", "10", *argv]) == 1
        assert_validation_error(capsys)


class TestSimulateCommand:
    @pytest.mark.needs_numpy
    def test_gm_rows_match_library(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = run(
            ["simulate", "--kind", "gm", "--rho", "0.9", "--sigma-z2", "0.3", "--T", "12",
             "--trials", "64", "--seed", "5", "--burst", "4:2", "--out", str(out)]
        )
        assert code == 0
        header, rows = read_csv(out)
        cfg = sr.SimConfig(rho=0.9, sigma_z2=0.3, horizon=12, trials=64, seed=5, bursts=((4, 2),))
        res = sr.simulate_gm_stream(cfg)
        assert len(rows) == 12
        assert float(rows[7][1]) == pytest.approx(res.mse[7], abs=1e-12)
        assert rows[4][4] == "True"

    @pytest.mark.needs_numpy
    def test_gm_solves_channel_from_target(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = run(
            ["simulate", "--kind", "gm", "--rho", "0.9", "--D", "0.2", "--B", "1", "--T", "8",
             "--trials", "16", "--seed", "5", "--out", str(out)]
        )
        assert code == 0

    @pytest.mark.needs_numpy
    def test_binning_matches_library(self, tmp_path):
        out = tmp_path / "bin.json"
        code = run(
            ["simulate", "--kind", "binning", "--n", "8", "--q", "0.1", "--rate", "0.8",
             "--trials", "2000", "--seed", "9", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        res = sr.simulate_binning(sr.BinningConfig(n=8, q=0.1, rate=0.8, trials=2000, seed=9))
        assert doc["p_hat"] == pytest.approx(res.p_hat, abs=1e-15)

    def test_bad_burst_spec(self):
        for spec in ("oops", "4.5:2", "5", "1:2:3"):
            assert run(["simulate", "--kind", "gm", "--sigma-z2", "0.1", "--burst", spec]) == 1, spec

    @pytest.mark.needs_numpy
    @pytest.mark.parametrize(
        "argv",
        [
            ["--kind", "gm", "--rho", "0.9", "--sigma-z2", "nan"],
            ["--kind", "gm", "--rho", "0.9", "--sigma-z2", "inf"],
            ["--kind", "binning", "--n", "16", "--rate", "5"],
            ["--kind", "binning", "--n", "16", "--rate", "nan"],
        ],
    )
    def test_non_finite_or_oversized_input_is_validation_error(self, argv, capsys):
        assert run(["simulate", *argv]) == 1
        assert_validation_error(capsys)

    @pytest.mark.needs_numpy
    def test_golden_stream_is_byte_identical(self, capsys):
        # the Philox seed contract: frozen output of the default seed
        assert run(GOLDEN_SIMULATE_ARGV) == 0
        with open(os.path.join(GOLDEN, "simulate_gm_seed0.csv"), encoding="utf-8") as fh:
            assert capsys.readouterr().out == fh.read()


class TestFigureCommand:
    @pytest.mark.parametrize("fig", ["fig2", "fig3", "fig4", "fig5", "fig9"])
    def test_matches_golden(self, fig, capsys):
        assert run(["figure", "--id", fig]) == 0
        text = capsys.readouterr().out
        header, rows = read_csv_text(text)
        with open(os.path.join(GOLDEN, f"{fig}.csv"), encoding="utf-8") as fh:
            golden = fh.read()
        g_header, g_rows = read_csv_text(golden)
        assert header == g_header and len(rows) == len(g_rows)
        for got, want in zip(rows, g_rows):
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert abs(float(a) - float(b)) <= 1e-10, (fig, got, want)
        # fig2 to fig5 have moved by rounding since their goldens were frozen; fig9 has not
        assert fig != "fig9" or text == golden

    def test_fig9_matches_library(self, tmp_path):
        out = tmp_path / "fig9.csv"
        assert run(["figure", "--id", "fig9", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["W", "optimal", "still_image", "wyner_ziv", "fec", "gop"]
        d = sr.DistortionVector((0.1, 0.25, 0.4, 0.55, 0.7, 0.85))
        for row in rows:
            w = int(row[0])
            assert float(row[1]) == pytest.approx(sr.rate_recovery(d, 2, w), abs=1e-12)
            base = sr.baseline_rates(d, 2, w)
            assert float(row[5]) == pytest.approx(base.gop, abs=1e-12)

    def test_fig2_grid_and_values(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert run(["figure", "--id", "fig2", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["rho", "B", "D", "lower", "upper"]
        rhos = sorted({float(r[0]) for r in rows})
        assert rhos[0] == pytest.approx(0.05) and rhos[-1] == pytest.approx(0.95)
        assert {int(r[1]) for r in rows} == {1, 2} and {float(r[2]) for r in rows} == {0.2, 0.3}
        sample = rows[10]
        cfg = sr.GmConfig(rho=float(sample[0]), B=int(sample[1]), D=float(sample[2]))
        assert float(sample[3]) == pytest.approx(sr.lower_bound_single(cfg), abs=1e-12)
        assert float(sample[4]) == pytest.approx(sr.rate_upper_single(cfg), abs=1e-12)

    @pytest.mark.needs_numpy
    def test_grids_equal_numpy_expressions(self):
        expected = {
            "_FIG2_RHO": np.round(np.arange(0.05, 0.9501, 0.01), 4),
            "_FIG3_D": np.round(np.arange(0.02, 0.9801, 0.02), 4),
            "_FIG4_RHO": np.round(np.arange(0.05, 0.9501, 0.02), 4),
            "_FIG5_D": np.round(np.geomspace(1e-4, 0.9, 60), 10),
        }
        for name, want in expected.items():
            assert [x.hex() for x in getattr(cli, name)] == [float(x).hex() for x in want], name

    def test_unknown_figure(self):
        assert run(["figure", "--id", "fig7"]) == 1


class TestInputFiles:
    @pytest.mark.parametrize(
        "argv, content",
        [
            (["sliding", "--d", "nan,0.2", "--B", "1", "--W", "1"], None),
            (["gm", "--sweep", "MISSING"], None),
            (["gm", "--sweep", "FILE"], '{"rho": 0.9, "B": 1}'),
            (["gm", "--sweep", "FILE"], '{"rho": "high", "B": 1, "D": 0.2}'),
            (["gm", "--sweep", "FILE"], '{"rho": ["0.5", 0.7], "B": 1, "D": "0.2"}'),
            (["gm", "--sweep", "FILE"], '{"rho": 0.9, "B": 1, "D": false}'),
            (["gm", "--sweep", "FILE"], '{"rho": 1%s, "B": 1, "D": 0.2}' % ("0" * 400)),
            (["gm", "--sweep", "FILE"], '{"rho": 0.9, "B": 1.7, "D": 0.2}'),
            (["lossless", "--chain", "MISSING", "--B", "1", "--W", "0"], None),
            (["lossless", "--chain", "FILE", "--B", "1", "--W", "0"], "{bad"),
            (["lossless", "--chain", "FILE", "--B", "1", "--W", "0"], "[1, 2]"),
            (["lossless", "--chain", "FILE", "--B", "1", "--W", "0"], '{"transition": "ab"}'),
            (["lossless", "--chain", "FILE", "--B", "1", "--W", "0"],
             '{"alphabet_size": "x", "transition": [[0.5, 0.5], [0.5, 0.5]]}'),
            (["lossless", "--chain", "FILE", "--B", "1", "--W", "0"],
             '{"alphabet_size": 2.5, "transition": [[0.5, 0.5], [0.5, 0.5]]}'),
        ],
        ids=["sliding-nan", "sweep-missing-file", "sweep-missing-key", "sweep-not-a-number",
             "sweep-numeric-strings", "sweep-bool", "sweep-huge-int", "sweep-fractional-B",
             "chain-missing-file", "chain-malformed", "chain-list", "chain-string-matrix",
             "chain-string-size", "chain-fractional-size"],
    )
    def test_bad_input_is_validation_error(self, argv, content, tmp_path, capsys):
        path = tmp_path / "input.json"
        if content is not None:
            path.write_text(content)
        names = {"FILE": str(path), "MISSING": str(tmp_path / "missing.json")}
        assert run([names.get(a, a) for a in argv]) == 1
        assert_validation_error(capsys)


OUT_COMMANDS = {
    "lossless": ["lossless", "--chain", "CHAIN", "--B", "1", "--W", "0"],
    "gm": ["gm", "--rho", "0.9", "--D", "0.2"],
    "sliding": ["sliding", "--d", "0.1,0.25", "--B", "1", "--W", "1"],
    "oracle": ["oracle", "--check", "single", "--rho", "0.9", "--sigma-z2", "0.1", "--tmax", "5"],
    "simulate-gm": ["simulate", "--kind", "gm", "--sigma-z2", "0.1", "--T", "5", "--trials", "4"],
    "simulate-binning": ["simulate", "--kind", "binning", "--n", "4", "--trials", "4"],
    "figure": ["figure", "--id", "fig9"],
}


class TestOutputFile:
    def test_every_command_with_out_is_covered(self):
        sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        with_out = {
            name for name, p in sub.choices.items() if any("--out" in a.option_strings for a in p._actions)
        }
        assert with_out == {argv[0] for argv in OUT_COMMANDS.values()}

    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    @pytest.mark.parametrize("command", [
        pytest.param(c, marks=pytest.mark.needs_numpy) if c.startswith("simulate") else c for c in OUT_COMMANDS
    ])
    def test_unwritable_out_is_validation_error(self, command, target, chain_file, tmp_path, capsys):
        # FileNotFoundError and IsADirectoryError from the open: one line, exit 1
        out = str(tmp_path / "missing" / "out.txt") if target == "missing-dir" else str(tmp_path)
        argv = [chain_file if a == "CHAIN" else a for a in OUT_COMMANDS[command]]
        assert run([*argv, "--out", out]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"validation error: cannot write {out!r}: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full, where every write fails")
    @pytest.mark.parametrize("to", ["out", "stdout"])
    @pytest.mark.parametrize("command", ["figure", "sliding"])
    def test_failed_write_is_one_line(self, command, to):
        # a write to /dev/full fails with ENOSPC: through --out at a write or
        # the close, through standard output at the flush; the interpreter's
        # own flush at exit stays quiet
        argv = OUT_COMMANDS[command] + (["--out", "/dev/full"] if to == "out" else [])
        src = os.path.dirname(os.path.dirname(sr.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        with open("/dev/full", "w") as full:
            done = subprocess.run([sys.executable, "-m", "streamrate.cli", *argv], env=env, text=True,
                                  stdout=full if to == "stdout" else subprocess.PIPE, stderr=subprocess.PIPE)
        path = "/dev/full" if to == "out" else "<stdout>"
        assert done.returncode == 1
        assert done.stderr == f"validation error: cannot write {path!r}: No space left on device\n"



def csv_module_bytes(header, rows) -> bytes:
    """What `csv.writer(fh, lineterminator="\n")` writes for the header and the rows."""
    fh = io.StringIO()
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return fh.getvalue().encode()


class TestCsvWriter:
    """`cli._write_csv` joins str of each field with commas; for the fields the
    commands write, that is the csv module's output, byte for byte."""

    EDGE_ROWS = [
        [0, 1, -7, 2**70, True, False],
        [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e22, 0.1, 1 / 3, -1.5e-300, 1.7976931348623157e308],
    ]
    HEADERS = [
        ["B", "W", "predictive_rate", "lower", "upper"],
        cli._GM_HEADER,
        ["time", "mse", "stderr", "exact_mmse", "erased"],
    ]

    @pytest.mark.parametrize("header", HEADERS)
    def test_edge_fields_equal_the_csv_module(self, header, tmp_path):
        out = tmp_path / "out.csv"
        cli._write_csv(str(out), header, self.EDGE_ROWS)
        assert out.read_bytes() == csv_module_bytes(header, self.EDGE_ROWS)

    @pytest.mark.parametrize("fig", ["fig2", "fig3", "fig4", "fig5", "fig9"])
    def test_figures_equal_the_csv_module(self, fig, tmp_path):
        header, rows = cli._figure_rows(fig)
        out = tmp_path / "out.csv"
        cli._write_csv(str(out), header, iter(rows))
        assert out.read_bytes() == csv_module_bytes(header, rows)

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.lists(st.one_of(st.integers(), st.floats(), st.booleans()), min_size=1, max_size=6),
                         max_size=6))
    def test_drawn_rows_equal_the_csv_module(self, rows):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._write_csv(None, ["a", "b"], rows)
        assert out.getvalue().encode() == csv_module_bytes(["a", "b"], rows)


def modules_loaded_by(run_it):
    """The modules that a fresh interpreter loads to run the code run_it, so
    that modules loaded by the test run do not count."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        + run_it
        + "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    src = os.path.dirname(os.path.dirname(sr.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return set(done.stdout.split())


def cli_run(argv, chain_file):
    argv = [chain_file if a == "CHAIN" else a for a in argv] + ["--out", os.devnull]
    return f"from streamrate import cli\nassert cli.main({argv!r}) == 0\n"


class TestUsage:
    @pytest.mark.parametrize(
        "argv, third_party",
        [
            (None, {"streamrate"}),
            (["gm", "--rho", "0.9", "--D", "0.2"], {"streamrate"}),
            (["sliding", "--d", "0.1,0.25", "--B", "1", "--W", "1"], {"streamrate"}),
            (["figure", "--id", "fig4"], {"streamrate"}),
            (["lossless", "--chain", "CHAIN", "--B", "1", "--W", "1"], {"streamrate"}),
            (["oracle", "--check", "single", "--rho", "0.9", "--sigma-z2", "0.1", "--tmax", "4"],
             {"streamrate"}),
            (GOLDEN_MULTI_ARGV, {"streamrate"}),
            (["oracle", "--check", "exchange", "--rho", "0.9", "--sigma-z2", "0.1", "--tmax", "8"],
             {"streamrate"}),
            pytest.param(["simulate", "--kind", "gm", "--sigma-z2", "0.3", "--T", "4", "--trials", "8"],
                         {"numpy", "streamrate"}, marks=pytest.mark.needs_numpy),
        ],
        ids=["import", "gm", "sliding", "figure", "lossless", "oracle", "oracle-multi", "oracle-exchange",
             "simulate"],
    )
    def test_command_loads_numpy_only_when_it_needs_it(self, argv, third_party, chain_file):
        new = modules_loaded_by("import streamrate\n" if argv is None else cli_run(argv, chain_file))
        top = {m.split(".")[0] for m in new} - set(sys.stdlib_module_names)
        # numpy.random's Cython extensions register cython_runtime and _cython_<version>
        loaded = {m for m in top if not m.startswith(("cython_runtime", "_cython_"))}
        assert loaded == third_party

    @pytest.mark.parametrize(
        "argv, absent",
        [
            (None, {"json", "streamrate.cli", "streamrate.gauss_markov", "streamrate.markov",
                    "streamrate.oracle", "streamrate.sim", "streamrate.sliding"}),
            (["gm", "--rho", "0.9", "--D", "0.2"], {"json", "streamrate.sliding"}),
            (["figure", "--id", "fig4"], {"json", "streamrate.sliding"}),
            (["lossless", "--chain", "CHAIN", "--B", "1", "--W", "1"],
             {"streamrate.gauss_markov", "streamrate.sliding"}),
            (["oracle", "--check", "single", "--B", "2", "--tmax", "20", "--rho", "0.9", "--sigma-z2", "0.1"],
             {"streamrate.gauss_markov", "streamrate.sliding"}),
            (GOLDEN_MULTI_ARGV, {"streamrate.gauss_markov", "streamrate.sliding"}),
            (["oracle", "--check", "exchange", "--tmax", "20", "--samples", "500", "--seed", "7", "--rho", "0.9",
              "--sigma-z2", "0.1"], {"streamrate.gauss_markov", "streamrate.sliding"}),
        ],
        ids=["import", "gm", "figure", "lossless", "oracle-single", "oracle-multi", "oracle-exchange"],
    )
    def test_cold_command_loads_only_what_it_runs(self, argv, absent, chain_file):
        # dataclasses imports inspect, together about 10 ms of a cold start
        new = modules_loaded_by("import streamrate\n" if argv is None else cli_run(argv, chain_file))
        assert not new & (absent | {"dataclasses", "inspect"})

    @pytest.mark.parametrize("name", list(WITHOUT_NUMPY))
    def test_numpy_command_without_numpy_is_one_line(self, name, without_numpy, capsys):
        # without numpy, simulate says so in one line; every other command
        # prints what it prints with numpy
        argv, got = without_numpy[0][name], without_numpy[1][name]
        if name == "simulate":
            assert got == [1, "", "streamrate simulate: this command needs numpy, which is not installed; "
                                  "pip install 'streamrate[sim]'\n"]
        else:
            assert [run(argv), *capsys.readouterr()] == got
            assert got[0] == WITHOUT_NUMPY[name][1]

    def test_suite_collects_without_numpy(self):
        # with numpy refused every test module still imports, so where numpy
        # is absent each numpy test is skipped and the rest run
        # collecting runs no assertion, so the modules load without pytest's rewriting of them
        tests = os.path.dirname(os.path.abspath(__file__))
        args = ["--collect-only", "-q", "-p", "no:cacheprovider", "--assert=plain", tests]
        done = run_without_numpy(f"import pytest\nsys.exit(pytest.main({args!r}))\n")
        assert done.returncode == 0, done.stdout[-3000:]
        assert " collected" in done.stdout.splitlines()[-1] and "error" not in done.stdout.splitlines()[-1]

    def test_numpy_is_an_extra_not_a_dependency(self):
        tomllib = pytest.importorskip("tomllib")  # the standard library from Python 3.11
        with open(os.path.join(os.path.dirname(os.path.dirname(FROZEN)), "pyproject.toml"), "rb") as fh:
            project = tomllib.load(fh)["project"]
        assert project["dependencies"] == []
        assert project["optional-dependencies"] == {"sim": ["numpy>=1.24"]}

    @pytest.mark.needs_numpy
    def test_lazy_names_resolve_to_their_modules(self):
        assert sr.MarkovChain is sr.markov.MarkovChain
        assert sr.GmConfig is sr.gauss_markov.GmConfig
        assert sr.layer_plan is sr.sliding.layer_plan
        assert sr.GaussianSystem is sr.oracle.GaussianSystem
        assert sr.simulate_gm_stream is sr.sim.simulate_gm_stream
        with pytest.raises(AttributeError):
            sr.no_such_name

    @pytest.mark.needs_numpy
    def test_star_import_binds_every_public_name(self):
        namespace = {}
        exec("from streamrate import *", namespace)
        assert set(sr.__all__) <= set(namespace)
        for name in ("ValidationError", "GmConfig", "compute_bounds", "layer_plan", "MarkovChain", "SimConfig"):
            assert namespace[name] is getattr(sr, name)

    @pytest.mark.needs_numpy
    def test_every_name_the_benchmark_tracer_patches_exists(self):
        # `perfbench/run.py --trace 1` wraps each of these and fails at install on a missing one;
        # spans.py needs only the standard library, and loading it patches nothing
        spec = importlib.util.spec_from_file_location("spans", os.path.join(os.path.dirname(GOLDEN), "spans.py"))
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        for table in (spans.SPANNED, spans.COUNTED):
            for layer, names in table.items():
                module = importlib.import_module(f"streamrate.{layer}")
                assert [n for n in names if not callable(getattr(module, n, None))] == [], layer
        assert callable(sr.oracle.GaussianSystem.__post_init__) and callable(cli.main)

    def test_unknown_flag(self):
        assert run(["gm", "--bogus", "1"]) == 1

    def test_unknown_command(self):
        assert run(["frobnicate"]) == 1

    def test_parser_reuse_carries_no_state(self, chain_file, capsys):
        argv = ["lossless", "--chain", chain_file, "--B", "2", "--W", "1"]
        assert run(["gm", "--bogus", "1"]) == 1
        capsys.readouterr()
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv) == 0
        assert capsys.readouterr().out == first
        assert first.startswith("B,W,predictive_rate,lower,upper\n2,1,")


class TestClosedPipe:
    @staticmethod
    def closed_after_one_line(argv) -> tuple[bytes, int, bytes]:
        """(first line, exit code, stderr) of the command when its reader
        closes standard output after one line."""
        src = os.path.dirname(os.path.dirname(sr.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "streamrate.cli", *argv],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        return first, proc.wait(timeout=60), stderr

    @pytest.mark.needs_numpy
    def test_reader_closing_after_one_line_ends_quietly(self):
        # 10,001 lines: far more than the pipe buffer, so the writer is still
        # writing when the reader goes away
        argv = ["simulate", "--kind", "gm", "--sigma-z2", "0.1", "--T", "10000", "--trials", "2"]
        first, code, stderr = self.closed_after_one_line(argv)
        assert first == b"time,mse,stderr,exact_mmse,erased\n"
        assert code == cli.EXIT_BROKEN_PIPE == 141
        assert stderr == b""

    def test_reader_closing_during_a_long_json_report(self):
        # a 0.18 MB report: written as one piece, the part the pipe took was
        # kept and the rest dropped without an error, and the command exited 0
        argv = ["oracle", "--check", "single", "--B", "3", "--rho", "0.9", "--sigma-z2", "0.1", "--tmax", "100"]
        first, code, stderr = self.closed_after_one_line(argv)
        assert first == b"{\n"
        assert code == cli.EXIT_BROKEN_PIPE == 141
        assert stderr == b""
