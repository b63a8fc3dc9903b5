"""Hypothesis fuzz of the CLI, in-process, over every subcommand.

Each example starts from a small legal command and overwrites one to three
of its numeric flags (every float and int option of the subcommand, and
--d, --burst and --id) with edge values: NaN, infinities, huge, tiny and
negative floats, and negative, zero and huge integers.  Whatever the input,
`cli.main` must return 0, 1, 2 or 3 without letting an exception escape,
and a 0 exit must print only finite numbers.

Integers are negative, in [0, 40], or beyond every cap (2**31 and up), so
no example asks for a legal but long or memory-hungry run.
"""

import contextlib
import csv
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamrate import cli


@pytest.fixture(scope="module")
def chain_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "chain.json"
    path.write_text(json.dumps({"alphabet_size": 2, "transition": [[0.9, 0.1], [0.2, 0.8]]}))
    return str(path)


BASELINES = [
    ["lossless", "--chain", "CHAIN", "--B", "1", "--W", "1"],
    ["gm", "--rho", "0.9", "--D", "0.2", "--B", "1", "--L", "2"],
    ["sliding", "--d", "0.1,0.3,0.5", "--B", "1", "--W", "1"],
    ["oracle", "--check", "single", "--rho", "0.9", "--sigma-z2", "0.1", "--B", "1", "--tmax", "6"],
    ["oracle", "--check", "multi", "--rho", "0.9", "--sigma-z2", "0.1", "--B", "1", "--L", "2", "--tmax", "8"],
    ["oracle", "--check", "exchange", "--rho", "0.9", "--sigma-z2", "0.1", "--tmax", "10", "--samples", "20"],
    ["simulate", "--kind", "gm", "--sigma-z2", "0.2", "--T", "6", "--trials", "20", "--burst", "2:1"],
    ["simulate", "--kind", "gm", "--D", "0.2", "--B", "1", "--T", "6", "--trials", "20"],
    ["simulate", "--kind", "binning", "--n", "4", "--trials", "20"],
    ["figure", "--id", "fig9"],
]

FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, -5e-324, 0.0, -0.0, 1.0, -1.0, 2.0]),
    st.floats(),
)
INTS = st.one_of(
    st.sampled_from([0, -1, 2**31, 2**63 - 1, 2**63, 2**64, 10**30, -(2**63)]),
    st.integers(-3, 40),
    st.integers(max_value=-1),
    st.integers(min_value=2**31),
)
STRINGS = {
    "--d": st.lists(FLOATS, max_size=4).map(lambda xs: ",".join(map(repr, xs))),
    "--burst": st.one_of(
        st.tuples(INTS, INTS).map(lambda p: f"{p[0]}:{p[1]}"),
        st.sampled_from(["x", "1:2:3", ""]),
    ),
    "--id": st.sampled_from(["fig9", "fig7", ""]),
}


def _typed_flags() -> dict:
    """subcommand -> {flag: strategy} for every float, int and string flag fuzzed."""
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    flags = {}
    for name, parser in sub.choices.items():
        flags[name] = {}
        for action in parser._actions:
            flag = action.option_strings[-1] if action.option_strings else None
            if action.type is float:
                flags[name][flag] = FLOATS.map(repr)
            elif action.type is int:
                flags[name][flag] = INTS.map(str)
            elif flag in STRINGS:
                flags[name][flag] = STRINGS[flag]
    return flags


FLAGS = _typed_flags()


def test_every_numeric_flag_is_fuzzed():
    assert set(FLAGS) == {argv[0] for argv in BASELINES}
    assert "--seed" in FLAGS["oracle"] and "--seed" in FLAGS["simulate"]
    assert all(FLAGS.values())


def _finite_numbers(text: str) -> bool:
    """False if the JSON or CSV text holds a NaN or an infinity."""
    if text.lstrip().startswith("{"):
        bad = []
        json.loads(text, parse_constant=bad.append)
        return not bad
    for row in csv.reader(io.StringIO(text)):
        for cell in row:
            try:
                value = float(cell)
            except ValueError:
                continue
            if not math.isfinite(value):
                return False
    return True


def _set_flag(argv: list, flag: str, value: str) -> list:
    """argv with flag given value, as --flag=value so a leading '-' stays a value."""
    out, skip = [], False
    for a in argv:
        if skip:
            skip = False
        elif a == flag:
            skip = True
        else:
            out.append(a)
    return out + [f"{flag}={value}"]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_cli_fuzz(chain_path, data):
    argv = [chain_path if a == "CHAIN" else a for a in data.draw(st.sampled_from(BASELINES), label="baseline")]
    typed = FLAGS[argv[0]]
    if argv[0] == "oracle":  # a flag that the check does not read only exits 1
        reads = cli._ORACLE_FLAGS[argv[argv.index("--check") + 1]]
        typed = {f: s for f, s in typed.items() if f in ("--rho", "--sigma-z2", "--tmax") or f[2:] in reads}
    elif argv[0] == "simulate":  # so does one that the kind does not read
        reads = {f"--{k.replace('_', '-')}" for k in cli._SIMULATE_FLAGS[argv[argv.index("--kind") + 1]]}
        if "--sigma-z2" in argv:  # gm reads one of --sigma-z2 and --D, and --B only with --D
            reads -= {"--D", "--B"}
        elif "--D" in argv:
            reads.discard("--sigma-z2")
        typed = {f: s for f, s in typed.items() if f in reads}
    for flag in data.draw(st.lists(st.sampled_from(sorted(typed)), min_size=1, max_size=3, unique=True), label="flags"):
        argv = _set_flag(argv, flag, data.draw(typed[flag], label=flag))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)  # an exception escaping main fails the example
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    if code == 0:
        assert _finite_numbers(out.getvalue()), (argv, out.getvalue())
    elif code != 3:  # a failed verification is a report on stdout
        assert err.getvalue().count("\n") >= 1, argv
