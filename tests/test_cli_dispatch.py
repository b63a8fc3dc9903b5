"""`cli.main` parses a command's flags in one argparse pass of that command's
parser; every argv must give the exit code, standard output and standard
error of the full top-level `parse_args` route of a freshly built parser.

argparse's messages differ between Python versions, so this file runs on the
standard library alone, under pytest and as
`PYTHONPATH=src python -m unittest tests.test_cli_dispatch` on a bare
interpreter.
"""

import contextlib
import io
import sys
import unittest
from unittest import mock

from streamrate import cli

COMMANDS = ["lossless", "gm", "sliding", "oracle", "simulate", "figure"]
GM = ["gm", "--rho", "0.9", "--D", "0.2"]
ORACLE = ["oracle", "--check", "single", "--rho", "0.9", "--sigma-z2", "0.1"]

ARGVS = {
    "empty": [],
    "-h": ["-h"],
    "--help": ["--help"],
    "unknown command": ["nope", "--B", "1"],
    "abbreviated command": ["g", "--rho", "0.9"],
    "option before the command": ["--nats", *GM],
    "help before the command": ["-h", "gm"],
    "separator before the command": ["--", *GM],
    **{f"{name} -h": [name, "-h"] for name in COMMANDS},
    "help abbreviated after a command": [*GM, "--he"],
    "unknown flag": [*GM, "--bogus"],
    "unknown flag with a value": [*GM, "--bogus", "1", "--nats"],
    "extra word": [*GM, "extra"],
    "command twice": ["gm", "gm"],
    "missing required flag": ["lossless", "--B", "1", "--W", "1"],
    "missing required choice": ["oracle", "--rho", "0.9", "--sigma-z2", "0.1"],
    "bad choice": ["figure", "--id", "fig7"],
    "bad int": [*GM, "--B", "x"],
    "bad float": ["gm", "--rho", "x", "--D", "0.2"],
    "ambiguous abbreviation": [*ORACLE, "--s", "1"],
    "abbreviation": [*ORACLE, "--tm", "5"],
    "--B=1": [*GM, "--B=1"],
    "flag value after a separator": [*GM, "--", "--B"],
    "validation error after parsing": ["gm", "--rho", "0.9"],
    "command alone": ["figure"],
}


def _full_route(argv):
    return cli.build_parser().parse_args(argv)


def _outcome(argv, parse=None):
    """(exit code, stdout, stderr) of `cli.main(argv)`, through `parse` in place
    of main's parse when given."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        if parse is not None:
            stack.enter_context(mock.patch.object(cli, "_parse", parse))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
    return code, out.getvalue(), err.getvalue()


class TestDispatch(unittest.TestCase):
    def test_every_argv_matches_the_full_parse(self):
        for name, argv in ARGVS.items():
            with self.subTest(name, argv=argv):
                self.assertEqual(_outcome(list(argv)), _outcome(list(argv), _full_route))

    def test_argv_from_sys_argv(self):
        for argv in (["gm", "-h"], [*GM, "--bogus"], GM):
            with self.subTest(argv=argv), mock.patch.object(sys, "argv", ["streamrate", *argv]):
                self.assertEqual(_outcome(None), _outcome(None, _full_route))

    def test_namespace_matches_the_full_parse(self):
        for argv in (GM, [*ORACLE, "--tm", "5"], ["simulate", "--kind", "gm", "--burst", "1:2", "--burst", "4:1"]):
            with self.subTest(argv=argv):
                self.assertEqual(vars(cli._parse(argv)), vars(_full_route(argv)))

    def test_the_test_covers_every_command(self):
        self.assertEqual(set(cli.build_parser().commands), set(COMMANDS))


if __name__ == "__main__":
    unittest.main()
