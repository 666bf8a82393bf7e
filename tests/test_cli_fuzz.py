"""Every CLI verb on hostile argv values: the exit code is 0, 1, 2 or 3 and
no exception escapes `main`.

The verbs and their options are read from `build_parser()`.  Int-typed
options draw from every int, `-D` included: `forms classgroup` exits 2 past
its |D| cap, so the largest class group it can build takes a few seconds.
`verify` runs with its suite replaced by an empty report, so only its
argument checks run."""

import argparse
import contextlib
import io
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from cube_lab import cli
from cube_lab.verify import Report

CUBE = '{"a":"1","b":["0","0","0"],"c":"0","d":["1","1","1"]}'
VALUES = (
    # floats, exponents, zero denominators, equal fractions spelled apart
    "0.5", "-1.5", "1e5", "nan", "inf", "1/0", "0/0", "2/4", "-3/6",
    # huge ints, past the digit limit too
    str(10 ** 40), str(-(10 ** 40)), "9" * 5000,
    # empty and non-JSON
    "", " ", "{", "[]", "null", '{"a": 1}', '"1"', "true",
    # cubes, one of them with a float and one nested too deep
    CUBE, CUBE.replace('"1"', "1.5", 1), "[" * 5000,
    '{"a":"2/4","b":["1/2","0","0"],"c":"0","d":["1","1","-1"]}',
    # forms, matrices, coefficient lists
    "2,1,3", "1,1,6", "-1,1,-6", "0,0,0", "2,4,3", "1,0,10000000000000000000001",
    "1,1;0,1", "0,1;-1,0", "1,2;3,4", "1/2,0;0,2", "1,0", "1,0,0;0,1,0;0,0,1",
    "1,0,0,1", "-1/4,0,1,0", "1,2,3,4,5", "1,2,3,4,5,6", "5,1,0,0,0,0,0,0",
    # primes and discriminants, composite and out of range included
    "3", "4", "9", "15", "17", "3,9", "3,5", "-23", "-3,-4", "-5", "0", "x", "A", "G",
)
INTS = (st.integers(-30, 30) | st.integers()).map(str) | st.sampled_from(
    ("1.5", "", "x", "9" * 5000))


def _verbs():
    """(path, options) for every leaf command of the parser; each option is
    (flag, takes_value, required, value strategy)."""
    out = []

    def walk(parser, path):
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if subs:
            for name, child in subs[0].choices.items():
                walk(child, path + [name])
            return
        options = []
        for action in parser._actions:
            if not action.option_strings or isinstance(action, argparse._HelpAction):
                continue
            if action.choices:
                values = st.sampled_from([str(c) for c in action.choices] + ["nope"])
            elif action.type is int:
                values = INTS
            else:
                values = st.sampled_from(VALUES)
            options.append((action.option_strings[-1], action.nargs != 0, action.required, values))
        out.append((path, options))

    walk(cli.build_parser(), [])
    return out


VERBS = _verbs()


@st.composite
def argvs(draw, path, options):
    argv = list(path)
    for flag, takes_value, required, values in options:
        if required or draw(st.booleans()):
            argv.append(flag)
            if takes_value:
                argv.append(draw(values))
    return argv, draw(st.sampled_from(VALUES))


def test_verbs_are_read_from_the_parser():
    names = {" ".join(path) for path, _ in VERBS}
    assert {"cube act", "cube kostant", "forms classgroup", "compose-cube", "verify-cube",
            "variants components-check", "verify"} <= names


@pytest.mark.parametrize("path, options", VERBS, ids=[" ".join(p) for p, _ in VERBS])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_cli_exit_codes_on_hostile_input(path, options, data):
    argv, stdin = data.draw(argvs(path, options))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.object(sys, "stdin", io.StringIO(stdin)), \
            mock.patch.object(cli, "run_suite", lambda *args, **kwargs: Report()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue()
