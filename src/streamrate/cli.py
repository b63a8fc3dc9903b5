"""Command-line front end.

Thin adapters only: every subcommand parses flags, calls the library, and
writes CSV/JSON ('.' decimal, header row, no locale formatting).  Exit codes:
0 success, 1 validation/usage error, 2 numerical error, 3 a verification
report found violations, 141 the reader closed standard output early (128 +
SIGPIPE, the status of a writer that SIGPIPE kills).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import math
import os
import sys

from .errors import ConvergenceError, NumericalError, ValidationError, json_text, read_json_object

LN2 = math.log(2.0)

# figure grids, as the doubles nearest to the decimal values
_FIG2_RHO = [i / 100 for i in range(5, 96)]  # 0.05, 0.06, ..., 0.95
_FIG3_D = [i / 50 for i in range(1, 50)]  # 0.02, 0.04, ..., 0.98
_FIG4_RHO = [(5 + 2 * i) / 100 for i in range(46)]  # 0.05, 0.07, ..., 0.95
# 60 log-spaced values from 1e-4 to 0.9, rounded to 10 decimals
_FIG5_D = [round(10 ** (-4 + (math.log10(0.9) + 4) * i / 59), 10) for i in range(60)]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_VERIFICATION = 3
EXIT_BROKEN_PIPE = 141


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    commands: dict[str, argparse.ArgumentParser]  # on the top-level parser: each command's parser by name

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise _UsageError(message)


def _unit_scale(nats: bool) -> float:
    return LN2 if nats else 1.0


@contextlib.contextmanager
def _output(path: str | None):
    """Standard output for no path or "-", flushed at the end, else the file at path.  An
    OSError but a closed pipe's, from the open to the flush or close, is bad output: ValidationError."""
    to_stdout = path is None or path == "-"
    try:
        if to_stdout:
            yield sys.stdout
            sys.stdout.flush()  # a closed pipe or a full disk fails here, not at interpreter exit
        else:
            with open(path, "w", newline="", encoding="utf-8") as fh:
                yield fh
    except OSError as exc:
        if to_stdout:  # what is still buffered goes to devnull, so the flush at exit does not fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            raise
        raise ValidationError(f"cannot write {'<stdout>' if to_stdout else path!r}: {exc.strerror or exc}")


def _write_csv(path: str | None, header: list[str], rows) -> None:
    """Write the header and the rows as comma-separated lines ending in "\n".

    Every field is an int, a float, a bool or a header name without a comma,
    a quote or a line break.  For those `str` is what `csv.writer(fh,
    lineterminator="\n")` writes (it writes a float by repr, which str
    equals), and no field needs quoting.  The whole text is formatted before
    the output opens, so a row that fails leaves no file."""
    _write_text(path, "\n".join([",".join(map(str, row)) for row in (header, *rows)]) + "\n")


def _write_json(path: str | None, text: str) -> None:
    _write_text(path, text + "\n")


def _write_text(path: str | None, text: str) -> None:
    """Write the ASCII text to `_output(path)` in pieces of at most one buffer.
    A text stream passes a longer piece to its buffer in one call, and where
    the system takes only part of it (a reader that closed the pipe, a full
    disk) the buffer returns the count written and the stream drops the rest
    without an error; a shorter piece goes through the buffer's flush, which
    writes the rest or raises."""
    step = io.DEFAULT_BUFFER_SIZE
    with _output(path) as fh:
        for i in range(0, len(text), step):
            fh.write(text[i:i + step])


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise ValidationError(f"expected a comma-separated list of numbers, got {text!r}")


def _cmd_lossless(args) -> int:
    from . import markov

    chain = markov.MarkovChain.from_json(args.chain)
    bounds = markov.lossless_bounds(chain, args.B, args.W)
    k = _unit_scale(args.nats)
    _write_csv(
        args.out,
        ["B", "W", "predictive_rate", "lower", "upper"],
        [[bounds.B, bounds.W, bounds.predictive_rate * k, bounds.lower * k, bounds.upper * k]],
    )
    return EXIT_OK


def _gm_row(gm, rho: float, B: int, L: int, D: float) -> list[float]:
    cfg = gm.GmConfig(rho=rho, B=B, D=D, L=L)
    bounds = gm.compute_bounds(cfg)
    return [
        rho,
        B,
        L,
        D,
        bounds.lower,
        bounds.upper_single,
        bounds.upper_multi,
        bounds.high_res,
        gm.naive_wz_rate(cfg),
    ]


_GM_HEADER = ["rho", "B", "L", "D", "lower", "upper_single", "upper_multi", "high_res", "nwz"]


def _cmd_gm(args) -> int:
    from . import gauss_markov as gm

    if args.sweep:
        doc = read_json_object(args.sweep, "rho", "B", "D")
        rhos = doc["rho"] if isinstance(doc["rho"], list) else [doc["rho"]]
        ds = doc["D"] if isinstance(doc["D"], list) else [doc["D"]]
        # passed as read, so GmConfig rejects a string or a bool as it rejects a fractional B
        rows = [_gm_row(gm, r, doc["B"], doc.get("L", 1), d) for r in rhos for d in ds]
    else:
        if args.rho is None or args.D is None:
            raise ValidationError("gm needs --rho and --D (or --sweep file.json)")
        rows = [_gm_row(gm, args.rho, args.B, args.L, args.D)]
    k = _unit_scale(args.nats)
    rows = [r[:4] + [v * k for v in r[4:]] for r in rows]
    _write_csv(args.out, _GM_HEADER, rows)
    return EXIT_OK


def _cmd_sliding(args) -> int:
    from . import sliding

    values = _parse_floats(args.d)
    d = sliding.DistortionVector(tuple(values))
    rate = sliding.rate_recovery(d, args.B, args.W)
    base = sliding.baseline_rates(d, args.B, args.W)
    plan = sliding.layer_plan(d, args.B, args.W)
    k = _unit_scale(args.nats)
    doc = {
        "B": args.B,
        "W": args.W,
        "K": d.K,
        "d": list(d.values),
        "rate": rate * k,
        "layer_rates": [r * k for r in plan.tilde_rates],
        "cumulative_rates": [r * k for r in plan.cum_rates],
        "baselines": {
            "still_image": base.still_image * k,
            "wyner_ziv": base.wyner_ziv * k,
            "predictive_fec": base.predictive_fec * k,
            "gop": base.gop * k,
        },
    }
    _write_json(args.out, json_text(doc))
    return EXIT_OK


def _read_flags(args, choice: str, table: dict) -> dict:
    """The flags that table lists for the value of --choice, by dest, over
    their defaults there.  A flag that table lists only for other values and
    that the command line gave raises ValidationError.  The parser default of
    every flag in table is None."""
    reads = table[getattr(args, choice)]
    names = dict.fromkeys(k for flags in table.values() for k in flags)
    given = {k: getattr(args, k) for k in names if getattr(args, k) is not None}
    unread = [f"--{k.replace('_', '-')}" for k in given if k not in reads]
    if unread:
        raise ValidationError(f"--{choice} {getattr(args, choice)} does not read {', '.join(unread)}")
    return {**reads, **given}


# the flags each check reads beside --rho, --sigma-z2 and --tmax, with their defaults
_ORACLE_FLAGS = {"single": {"B": 1}, "multi": {"B": 1, "L": 1}, "exchange": {"samples": 500, "seed": 0}}


def _cmd_oracle(args) -> int:
    from . import oracle

    flags = _read_flags(args, "check", _ORACLE_FLAGS)
    if args.check == "single":
        report = oracle.verify_single_burst_worst_case(args.rho, args.sigma_z2, t_max=args.tmax, **flags)
    elif args.check == "multi":
        report = oracle.verify_multi_burst_worst_case(args.rho, args.sigma_z2, t_max=args.tmax, **flags)
    else:
        report = oracle.verify_exchange_inequalities(args.rho, args.sigma_z2, t=args.tmax, **flags)
    _write_json(args.out, report.to_json())
    return EXIT_OK if report.passed else EXIT_VERIFICATION


def _burst(spec: str) -> tuple[int, int]:
    """A burst as "start:length"."""
    try:
        start, length = (int(x) for x in spec.split(":"))
    except ValueError:
        raise ValidationError(f"burst spec must be start:length, got {spec!r}")
    return start, length


# the flags each kind reads, with their defaults; gm reads exactly one of
# --sigma-z2 and --D, and --B only with --D
_SIMULATE_FLAGS = {
    "gm": {"rho": 0.9, "sigma_z2": None, "D": None, "B": 1, "T": 100, "burst": None, "trials": 10000, "seed": 0},
    "binning": {"n": 8, "q": 0.1, "rate": 0.8, "trials": 10000, "seed": 0},
}


def _cmd_simulate(args) -> int:
    flags = _read_flags(args, "kind", _SIMULATE_FLAGS)
    if args.kind == "gm":
        sigma_z2, D = flags["sigma_z2"], flags["D"]
        if sigma_z2 is None and D is None:
            raise ValidationError("simulate gm needs --sigma-z2 or --D")
        if sigma_z2 is not None and D is not None:
            raise ValidationError("simulate gm reads one of --sigma-z2 and --D, not both")
        if D is None and args.B is not None:
            raise ValidationError("simulate gm reads --B only with --D")
    from . import sim

    if args.kind == "gm":
        if sigma_z2 is None:
            from . import gauss_markov as gm

            cfg0 = gm.GmConfig(rho=flags["rho"], B=flags["B"], D=D)
            sigma_z2 = gm.solve_test_channel_single(cfg0).sigma_z2
        cfg = sim.SimConfig(
            rho=flags["rho"],
            sigma_z2=sigma_z2,
            horizon=flags["T"],
            trials=flags["trials"],
            seed=flags["seed"],
            bursts=[_burst(spec) for spec in flags["burst"] or []],
        )
        res = sim.simulate_gm_stream(cfg)
        _write_csv(args.out, ["time", "mse", "stderr", "exact_mmse", "erased"], res.rows())
        return EXIT_OK
    cfg = sim.BinningConfig(**flags)
    res = sim.simulate_binning(cfg)
    _write_json(
        args.out,
        json_text({
            "n": flags["n"],
            "q": flags["q"],
            "rate": flags["rate"],
            "bins": cfg.bin_count,
            "trials": res.trials,
            "errors": res.errors,
            "p_hat": res.p_hat,
            "stderr": res.stderr,
            "ci95": [res.ci_low, res.ci_high],
        }),
    )
    return EXIT_OK


def _figure_rows(fig: str):
    if fig == "fig9":
        from . import sliding

        d = sliding.DistortionVector((0.1, 0.25, 0.4, 0.55, 0.7, 0.85))
        B = 2
        rows = []
        for W in range(0, 6):
            base = sliding.baseline_rates(d, B, W)
            rows.append(
                [
                    W,
                    sliding.rate_recovery(d, B, W),
                    base.still_image,
                    base.wyner_ziv,
                    base.predictive_fec,
                    base.gop,
                ]
            )
        return ["W", "optimal", "still_image", "wyner_ziv", "fec", "gop"], rows

    from . import gauss_markov as gm

    if fig in ("fig2", "fig3"):
        if fig == "fig2":
            cells = [(rho, B, D) for B in (1, 2) for D in (0.2, 0.3) for rho in _FIG2_RHO]
        else:
            cells = [(rho, B, D) for rho in (0.7, 0.9) for B in (1, 2) for D in _FIG3_D]

        def row(cell):
            rho, B, D = cell
            cfg = gm.GmConfig(rho=rho, B=B, D=D)
            return [rho, B, D, gm.lower_bound_single(cfg), gm.rate_upper_single(cfg)]

        return ["rho", "B", "D", "lower", "upper"], [row(c) for c in cells]

    if fig == "fig4":
        # `compute_bounds` per cell, with the converse and the single-burst
        # solve, which do not depend on L, made once per (rho, D)
        rows = []
        for D in (0.8, 0.5):
            singles = [gm._single_burst(gm.GmConfig(rho=rho, B=1, D=D)) for rho in _FIG4_RHO]
            for L in (1, 2, 3, 4):
                for rho, single in zip(_FIG4_RHO, singles):
                    b = gm._with_guard(gm.GmConfig(rho=rho, B=1, D=D, L=L), single)
                    rows.append([rho, 1, L, D, b.lower, b.upper_single, b.upper_multi])
        return ["rho", "B", "L", "D", "lower", "upper_single", "upper_multi"], rows

    if fig == "fig5":
        cells = [(rho, 1, 4, D) for rho in (0.9, 0.5) for D in _FIG5_D]

        def row(cell):
            rho, B, L, D = cell
            cfg = gm.GmConfig(rho=rho, B=B, D=D, L=L)
            multi, _ = gm.rate_upper_multi(cfg)
            return [
                rho,
                B,
                L,
                D,
                gm.lower_bound_single(cfg),
                multi,
                gm.naive_wz_rate(cfg),
                gm.high_res_rate(cfg),
            ]

        return ["rho", "B", "L", "D", "lower", "upper_multi", "nwz", "high_res"], [row(c) for c in cells]

    raise ValidationError(f"unknown figure id {fig!r}")


def _cmd_figure(args) -> int:
    header, rows = _figure_rows(args.id)
    _write_csv(args.out, header, rows)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="streamrate", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    p = sub.add_parser("lossless", help="lossless rate bounds for a finite Markov chain")
    p.add_argument("--chain", required=True, help="JSON file with the transition matrix")
    p.add_argument("--B", type=int, required=True)
    p.add_argument("--W", type=int, required=True)
    p.add_argument("--nats", action="store_true", help="report rates in nats")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_lossless)

    p = sub.add_parser("gm", help="Gauss-Markov bound chain (single row or JSON sweep)")
    p.add_argument("--rho", type=float)
    p.add_argument("--B", type=int, default=1)
    p.add_argument("--L", type=int, default=1)
    p.add_argument("--D", type=float)
    p.add_argument("--sweep", default=None, help='JSON file {"rho": [...], "B": 1, "L": 2, "D": [...]}')
    p.add_argument("--nats", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_gm)

    p = sub.add_parser("sliding", help="sliding-window rate, layer plan, and baselines")
    p.add_argument("--d", required=True, help="comma-separated distortion vector")
    p.add_argument("--B", type=int, required=True)
    p.add_argument("--W", type=int, required=True)
    p.add_argument("--nats", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_sliding)

    p = sub.add_parser("oracle", help="worst-case-erasure verification reports")
    p.add_argument("--check", choices=["single", "multi", "exchange"], required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--sigma-z2", dest="sigma_z2", type=float, required=True)
    p.add_argument("--B", type=int)  # the defaults of --B, --L, --samples and --seed are in _ORACLE_FLAGS
    p.add_argument("--L", type=int)
    p.add_argument("--tmax", type=int, default=12)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("simulate", help="Monte-Carlo experiments")
    p.add_argument("--kind", choices=["gm", "binning"], required=True)
    p.add_argument("--rho", type=float)  # the defaults of --rho to --seed are in _SIMULATE_FLAGS
    p.add_argument("--sigma-z2", dest="sigma_z2", type=float)
    p.add_argument("--D", type=float, help="solve the test channel for this target")
    p.add_argument("--B", type=int)
    p.add_argument("--T", type=int)
    p.add_argument("--burst", action="append", help="erased run start:length (repeatable)")
    p.add_argument("--n", type=int)
    p.add_argument("--q", type=float)
    p.add_argument("--rate", type=float)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("figure", help="CSV data reproducing the survey figures")
    p.add_argument("--id", choices=["fig2", "fig3", "fig4", "fig5", "fig9"], required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_figure)

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built on first use and shared by later calls;
    parsing leaves no state on it."""
    return build_parser()


def _parse(argv) -> argparse.Namespace:
    """The namespace of argv.  When argv starts with a command, that command's
    parser reads the rest in one pass: the full top-level parse would hand it
    the same words and report its leftovers as the same usage error.  Only an
    argv with no command first, for help or a usage error, takes the full parse."""
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    try:
        args = _parse(argv)
    except _UsageError:
        return EXIT_VALIDATION
    try:
        return args.fn(args)
    except BrokenPipeError:  # the reader is gone: stop quietly
        return EXIT_BROKEN_PIPE
    except ValidationError as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return EXIT_VALIDATION
    except (NumericalError, ConvergenceError, FloatingPointError) as exc:
        sys.stderr.write(f"numerical error: {exc}\n")
        return EXIT_NUMERICAL
    except ModuleNotFoundError as exc:
        # simulate imports numpy on first use; every other command runs on
        # the standard library
        if exc.name != "numpy":
            raise
        sys.stderr.write(f"streamrate {args.command}: this command needs numpy, which is not installed; "
                         "pip install 'streamrate[sim]'\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
